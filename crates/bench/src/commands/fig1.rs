//! Figure 1: measured disk efficiency vs I/O size for random track-aligned
//! and unaligned reads within the Quantum Atlas 10K II's first zone
//! (264 KB per track), with the analytic model and the maximum streaming
//! efficiency as references.
//!
//! Points A and B of the paper: track-aligned efficiency ≈ 0.73 at one
//! track (≈ 82 % of the streaming maximum), while unaligned access needs
//! ≈ 1 MB to catch up.

use super::random_io;
use crate::{Row, Run};
use sim_disk::disk::Disk;
use sim_disk::models;
use traxtent::model::DiskParams;
use workloads::microbench::{Alignment, QueueDepth, RandomIoSpec};

pub(crate) fn main(run: &Run) {
    let count = if run.quick { 300 } else { 2000 };
    let cfg = run.drive(models::quantum_atlas_10k_ii());
    let track = cfg.geometry.track(0).lbn_count() as u64; // 528 sectors
    let params = DiskParams {
        rev_ms: cfg.spindle.revolution().as_millis_f64(),
        avg_seek_ms: 2.2,
        head_switch_ms: cfg.head_switch.as_millis_f64(),
        spt: track as u32,
        zero_latency: true,
    };
    let max = params.max_streaming_efficiency();

    run.header(
        "Figure 1: disk efficiency vs I/O size (Atlas 10K II, zone 0)",
        &[],
    );
    println!("max streaming efficiency: {max:.3}");
    run.set("max_streaming_eff", max);
    println!("KB\taligned\tunaligned\tmodel_aligned\tmodel_unaligned");

    let measure = |io, alignment| {
        let spec = RandomIoSpec::reads(io, alignment, QueueDepth::Two);
        let r = random_io(run, &mut Disk::new(cfg.clone()), count, spec);
        r.efficiency(QueueDepth::Two)
    };
    // Sweep: fractions of a track up to 8 tracks (≈ 2 MB), plus the
    // paper's Point A as a final job.
    let sizes = (1..=4)
        .map(|k| k * track / 4)
        .chain((2..=8).map(|k| k * track));
    let jobs: Vec<Option<u64>> = sizes.map(Some).chain([None]).collect();
    run.sweep(jobs, |_, job| match job {
        Some(io) => Row::new()
            .col(io * 512 / 1024)
            .num(measure(io, Alignment::TrackAligned), 3)
            .key_if(io == track, "aligned_eff_at_track")
            .num(measure(io, Alignment::Unaligned), 3)
            .key_if(io == track, "unaligned_eff_at_track")
            .num(params.aligned_efficiency(io), 3)
            .num(params.unaligned_efficiency(io), 3),
        None => {
            let a = measure(track, Alignment::TrackAligned);
            Row::new().col(format!(
                "Point A: track-aligned @ 1 track = {a:.3} ({:.0}% of max; paper: 0.73, 82%)",
                100.0 * a / max
            ))
        }
    });
}
