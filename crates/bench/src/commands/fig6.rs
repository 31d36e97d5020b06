//! Figure 6: average head time for track-aligned and unaligned reads on
//! the Atlas 10K II, for the `onereq` and `tworeq` workloads, plus the
//! zero-bus-transfer simulator configuration; `fig6_writes` reproduces
//! the §5.2 write head times.

use super::random_io;
use crate::{Row, Run};
use sim_disk::bus::BusConfig;
use sim_disk::disk::{Disk, DiskConfig, Op};
use sim_disk::models;
use workloads::microbench::{Alignment, QueueDepth, RandomIoSpec};

/// Column names, in print order; a measurement column's name is also the
/// manifest key of its track-sized cell, the value the paper quotes.
const COLUMNS: [&str; 6] = [
    "pct_of_track",
    "onereq_unaligned_ms",
    "onereq_aligned_ms",
    "tworeq_unaligned_ms",
    "tworeq_aligned_ms",
    "zero_bus_onereq_aligned_ms",
];

/// The configuration behind each measurement column: `(zero-cost bus,
/// alignment, queue depth)`.
const CELLS: [(bool, Alignment, QueueDepth); 5] = [
    (false, Alignment::Unaligned, QueueDepth::One),
    (false, Alignment::TrackAligned, QueueDepth::One),
    (false, Alignment::Unaligned, QueueDepth::Two),
    (false, Alignment::TrackAligned, QueueDepth::Two),
    (true, Alignment::TrackAligned, QueueDepth::One),
];

/// Figure 6: the read head times.
pub(crate) fn main(run: &Run) {
    head_times(
        run,
        Op::Read,
        "Figure 6: average head time vs I/O size (Atlas 10K II)",
    );
    println!(
        "paper: track-sized reads — onereq ≈ 9.2 ms aligned, tworeq ≈ 8.3 ms aligned \
         (18%/32% below unaligned)"
    );
}

/// §5.2: the write head times.
pub(crate) fn writes(run: &Run) {
    head_times(run, Op::Write, "§5.2 write head times (Atlas 10K II)");
    println!("paper: track-sized writes — onereq 10.0 vs 13.9 ms, tworeq 10.2 vs 13.8 ms");
}

fn head_times(run: &Run, op: Op, title: &str) {
    let count = if run.quick { 300 } else { 2000 };
    let cfg = run.drive(models::quantum_atlas_10k_ii());
    let track = cfg.geometry.track(0).lbn_count() as u64;
    run.header(title, &COLUMNS);

    // One job per (row, column) cell; each builds its own disk, so cells
    // are independent and the pool can fan them out freely.
    run.grid(
        &[10u64, 25, 50, 75, 100],
        &Vec::from_iter(COLUMNS[1..].iter().zip(CELLS)),
        |pct| Row::new().col(pct),
        |&pct, &(&key, (zero_bus, alignment, queue))| {
            let mut disk = if zero_bus {
                Disk::new(DiskConfig {
                    bus: BusConfig::infinite(),
                    ..cfg.clone()
                })
            } else {
                Disk::new(cfg.clone())
            };
            let spec = RandomIoSpec {
                op,
                ..RandomIoSpec::reads((track * pct / 100).max(1), alignment, queue)
            };
            let r = random_io(run, &mut disk, count, spec);
            Row::new()
                .num(r.mean_head_time(queue).as_millis_f64(), 2)
                .key_if(pct == 100, key)
        },
    );
}
