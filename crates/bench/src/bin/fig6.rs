//! Figure 6: average head time for track-aligned and unaligned reads on
//! the Atlas 10K II, for the `onereq` and `tworeq` workloads, plus the
//! zero-bus-transfer simulator configuration. With `--writes`, reproduces
//! the §5.2 write head times instead.

use sim_disk::bus::BusConfig;
use sim_disk::disk::{Disk, DiskConfig, Op};
use sim_disk::models;
use traxtent_bench::{Row, Run};
use workloads::microbench::{run_random_io, Alignment, QueueDepth, RandomIoSpec};

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

fn main() {
    let run = Run::start("fig6", &["--writes"], &[]);
    let writes = run.has("--writes");
    let count = if run.quick { 300 } else { 2000 };
    let cfg = run.drive(models::quantum_atlas_10k_ii());
    let track = cfg.geometry.track(0).lbn_count() as u64;
    let op = if writes { Op::Write } else { Op::Read };

    let title = if writes {
        run.rename("fig6_writes");
        "§5.2 write head times (Atlas 10K II)"
    } else {
        "Figure 6: average head time vs I/O size (Atlas 10K II)"
    };
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
                count,
                op,
                seed: run.seed,
                ..RandomIoSpec::reads((track * pct / 100).max(1), alignment, queue)
            };
            let r = run_random_io(&mut disk, &spec);
            r.export_metrics(&run.reg, queue);
            Row::new()
                .num(r.mean_head_time(queue).as_millis_f64(), 2)
                .key_if(pct == 100, key)
        },
    );
    if !writes {
        println!(
            "paper: track-sized reads — onereq ≈ 9.2 ms aligned, tworeq ≈ 8.3 ms aligned \
             (18%/32% below unaligned)"
        );
    } else {
        println!("paper: track-sized writes — onereq 10.0 vs 13.9 ms, tworeq 10.2 vs 13.8 ms");
    }
    run.finish();
}
