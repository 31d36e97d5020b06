//! Figure 8: response time and its standard deviation for track-aligned
//! and unaligned access, on a simulated Atlas 10K II with an infinitely
//! fast bus (isolating mechanical variance, as the paper does).

use super::random_io;
use crate::{Row, Run};
use sim_disk::bus::BusConfig;
use sim_disk::disk::{Disk, DiskConfig};
use sim_disk::models;
use workloads::microbench::{Alignment, QueueDepth, RandomIoSpec};

pub(crate) fn main(run: &Run) {
    let count = if run.quick { 400 } else { 3000 };
    let cfg = run.drive(DiskConfig {
        bus: BusConfig::infinite(),
        ..models::quantum_atlas_10k_ii()
    });
    let track = cfg.geometry.track(0).lbn_count() as u64;

    run.header(
        "Figure 8: response time ± σ vs request size (infinite bus)",
        &[
            "pct_of_track",
            "aligned_mean_ms",
            "aligned_sigma_ms",
            "unaligned_mean_ms",
            "unaligned_sigma_ms",
        ],
    );
    // One job per (size, alignment) cell.
    run.grid(
        &[2u64, 10, 25, 50, 75, 100],
        &[
            ("aligned", Alignment::TrackAligned),
            ("unaligned", Alignment::Unaligned),
        ],
        |pct| Row::new().col(pct),
        |&pct, &(name, alignment)| {
            let spec = RandomIoSpec::reads((track * pct / 100).max(1), alignment, QueueDepth::One);
            let r = random_io(run, &mut Disk::new(cfg.clone()), count, spec);
            Row::new()
                .num(r.mean_head_time(QueueDepth::One).as_millis_f64(), 2)
                .key_if(pct == 100, format!("{name}_mean_ms_at_track"))
                .num(r.response_std_dev_ms(), 2)
                .key_if(pct == 100, format!("{name}_sigma_ms_at_track"))
        },
    );
    println!("paper: σ_aligned falls to ≈ 0.4 ms at track size (pure seek variance); σ_unaligned stays ≈ 1.5 ms");
}
