//! Figure 10: LFS overall write cost vs segment size, for track-aligned
//! and unaligned segments on the Atlas 10K II, with the Matthews et al.
//! `Tpos·BW/S + 1` model as the reference line.
//!
//! `WriteCost` comes from the cleaner simulator under the hot/cold update
//! stream; `TransferInefficiency` is measured on the simulated drive.

use crate::{Row, Run};
use lfs::cleaner::{LfsConfig, LfsSim};
use lfs::transfer_inefficiency;
use sim_disk::models;
use traxtent::model::matthews_transfer_inefficiency;

pub(crate) fn main(run: &Run) {
    let (ti_samples, updates, capacity) = if run.quick {
        (120, 40_000, 1 << 16)
    } else {
        (400, 150_000, 1 << 18)
    };
    let cfg = run.drive(models::quantum_atlas_10k_ii());
    let track = cfg.geometry.track(0).lbn_count() as u64; // 528 sectors = 264 KB

    run.header(
        "Figure 10: LFS overall write cost vs segment size (Atlas 10K II)",
        &[
            "segment_KB",
            "write_cost",
            "TI_aligned",
            "TI_unaligned",
            "OWC_aligned",
            "OWC_unaligned",
            "OWC_model(5.2ms*40MB/s)",
        ],
    );

    // 32 KB … 4 MB, plus the exact track size.
    let mut sizes: Vec<u64> = (0..8).map(|k| 64u64 << k).collect(); // sectors
    sizes.push(track);
    sizes.sort_unstable();
    run.sweep(sizes, |_, sectors| {
        let lfs_cfg = LfsConfig {
            seed: run.seed,
            ..LfsConfig::default()
        };
        // Keep at least 32 segments regardless of segment size so the
        // cleaning reserve stays feasible, and scale the update count with
        // capacity so every point reaches cleaning steady state.
        let cap = capacity.max(sectors * 32);
        let upd = updates.max(cap * 2);
        let mut sim = LfsSim::fixed(cap, sectors, lfs_cfg);
        let wc = sim
            .run_updates(upd)
            .expect("steady-state workload never breaks segment accounting")
            .write_cost();
        sim.export_metrics(&run.reg);
        let ti_a = transfer_inefficiency(&cfg, sectors, true, ti_samples, run.seed);
        let ti_u = transfer_inefficiency(&cfg, sectors, false, ti_samples, run.seed);
        let model = matthews_transfer_inefficiency(5.2e-3, 40e6, sectors as f64 * 512.0);
        Row::new()
            .col(sectors * 512 / 1024)
            .num(wc, 2)
            .num(ti_a, 2)
            .num(ti_u, 2)
            .num(wc * ti_a, 2)
            .key_if(sectors == track, "owc_aligned_at_track")
            .num(wc * ti_u, 2)
            .key_if(sectors == track, "owc_unaligned_at_track")
            .num(wc * model, 2)
    });

    let (aligned, unaligned) = (
        run.get("owc_aligned_at_track"),
        run.get("owc_unaligned_at_track"),
    );
    println!(
        "at the track size: aligned OWC {aligned:.2} vs unaligned {unaligned:.2} ({:.0}% lower; \
         paper: 44% lower overall write cost for track-sized segments)",
        100.0 * (1.0 - aligned / unaligned)
    );
}
