//! Figure 7: breakdown of measured response time for a track-sized read on
//! a zero-latency disk — normal (unaligned) access vs track-aligned access
//! vs the hypothetical out-of-order bus delivery.

use super::random_io;
use crate::{Row, Run};
use sim_disk::bus::BusConfig;
use sim_disk::disk::{Disk, DiskConfig};
use sim_disk::models;
use workloads::microbench::{Alignment, QueueDepth, RandomIoSpec};

pub(crate) fn main(run: &Run) {
    let count = if run.quick { 300 } else { 2000 };
    let cfg = run.drive(models::quantum_atlas_10k_ii());
    let track = cfg.geometry.track(0).lbn_count() as u64;

    run.header(
        "Figure 7: response-time breakdown, track-sized reads (ms)",
        &[
            "access",
            "seek",
            "rot_latency+switch+media",
            "bus_tail",
            "total_response",
        ],
    );
    let accesses = vec![
        (
            "normal (unaligned)",
            "normal_ms",
            false,
            Alignment::Unaligned,
        ),
        (
            "track-aligned",
            "aligned_ms",
            false,
            Alignment::TrackAligned,
        ),
        (
            "aligned + out-of-order bus",
            "ooo_bus_ms",
            true,
            Alignment::TrackAligned,
        ),
    ];
    run.sweep(accesses, |_, (label, key, ooo_bus, alignment)| {
        let mut disk = if ooo_bus {
            Disk::new(DiskConfig {
                bus: BusConfig::out_of_order(160.0),
                ..cfg.clone()
            })
        } else {
            Disk::new(cfg.clone())
        };
        let spec = RandomIoSpec::reads(track, alignment, QueueDepth::One);
        let r = random_io(run, &mut disk, count, spec);
        let mid = r.mean_component_ms(|c| c.breakdown.rot_latency)
            + r.mean_component_ms(|c| c.breakdown.head_switch)
            + r.mean_component_ms(|c| c.breakdown.media);
        Row::new()
            .col(label)
            .num(r.mean_component_ms(|c| c.breakdown.seek), 2)
            .num(mid, 2)
            .num(r.mean_component_ms(|c| c.breakdown.bus), 2)
            .num(r.mean_head_time(QueueDepth::One).as_millis_f64(), 2)
            .key(key)
    });
    println!(
        "paper: normal ≈ 12.0 ms; aligned ≈ 9.2 ms; out-of-order delivery overlaps the bus tail"
    );
}
