//! Figure 3: average rotational latency for ordinary and zero-latency
//! disks as a function of track-aligned request size — the analytic curves
//! plus simulated confirmation on the Atlas 10K II (zero-latency) and on
//! the same drive with zero-latency support disabled (ordinary).

use super::random_io;
use crate::{Row, Run};
use sim_disk::disk::{Disk, DiskConfig};
use sim_disk::models;
use traxtent::model;
use workloads::microbench::{Alignment, QueueDepth, RandomIoSpec};

pub(crate) fn main(run: &Run) {
    let count = if run.quick { 200 } else { 1500 };
    let cfg = run.drive(models::quantum_atlas_10k_ii());
    let rev_ms = cfg.spindle.revolution().as_millis_f64();
    let spt = cfg.geometry.track(0).lbn_count();

    run.header(
        "Figure 3: average rotational latency vs request size (10K RPM)",
        &[
            "pct_of_track",
            "zero_latency_model_ms",
            "zero_latency_sim_ms",
            "ordinary_model_ms",
            "ordinary_sim_ms",
        ],
    );
    run.sweep(vec![5u32, 10, 25, 50, 75, 90, 100], |_, pct| {
        let sectors = (u64::from(spt) * u64::from(pct) / 100).max(1);
        let f = sectors as f64 / f64::from(spt);
        // Effective rotational latency = (positioning wait + media sweep)
        // minus the ideal transfer time, which matches the model's
        // definition for both firmware types (a zero-latency arc that wraps
        // hides its waiting inside the media sweep).
        let sim = |zero_latency: bool| {
            let mut disk = Disk::new(DiskConfig {
                zero_latency,
                ..cfg.clone()
            });
            let spec = RandomIoSpec::reads(sectors, Alignment::TrackAligned, QueueDepth::One);
            let r = random_io(run, &mut disk, count, spec);
            r.mean_component_ms(|c| c.breakdown.rot_latency)
                + r.mean_component_ms(|c| c.breakdown.media)
                - f * rev_ms
        };
        Row::new()
            .col(pct)
            .num(model::zero_latency_rot_latency_revs(f) * rev_ms, 2)
            .num(sim(true), 2)
            .key_if(pct == 100, "zero_latency_ms_at_track")
            .num(model::ordinary_rot_latency_revs(spt) * rev_ms, 2)
            .num(sim(false), 2)
            .key_if(pct == 100, "ordinary_ms_at_track")
    });
}
