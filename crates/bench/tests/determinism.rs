//! Regression test for the parallel map's core guarantee: fanning a config
//! matrix across threads yields exactly the results (and exactly the
//! merged output) of a sequential run.

use sim_disk::bus::BusConfig;
use sim_disk::disk::{Disk, DiskConfig, Op};
use sim_disk::models;
use traxtent::par::map;
use traxtent_bench::Row;
use workloads::microbench::{run_random_io, Alignment, QueueDepth, RandomIoResult, RandomIoSpec};

/// A small but representative config matrix: sizes × alignment × queue
/// depth × op × bus, the dimensions the figures sweep.
fn matrix() -> Vec<RandomIoSpec> {
    let mut specs = Vec::new();
    for &io_sectors in &[64u64, 528] {
        for &alignment in &[Alignment::TrackAligned, Alignment::Unaligned] {
            for &queue in &[QueueDepth::One, QueueDepth::Two] {
                for &op in &[Op::Read, Op::Write] {
                    let mut spec = RandomIoSpec::reads(io_sectors, alignment, queue);
                    spec.count = 40;
                    spec.seed = 0x5eed;
                    spec.op = op;
                    specs.push(spec);
                }
            }
        }
    }
    specs
}

fn run_matrix(threads: usize, bus: BusConfig) -> Vec<RandomIoResult> {
    let cfg = DiskConfig {
        bus,
        ..models::quantum_atlas_10k_ii()
    };
    map(threads, matrix(), |_, spec| {
        let mut disk = Disk::new(cfg.clone());
        run_random_io(&mut disk, &spec)
    })
}

#[test]
fn parallel_results_match_sequential_exactly() {
    for bus in [BusConfig::in_order(160.0), BusConfig::infinite()] {
        let seq = run_matrix(1, bus);
        let par = run_matrix(8, bus);
        assert_eq!(seq.len(), par.len());
        for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
            assert_eq!(s.ideal_media, p.ideal_media, "config {i}");
            assert_eq!(s.completions, p.completions, "config {i}");
        }
    }
}

#[test]
fn merged_row_output_is_byte_identical() {
    // The figures' pattern: jobs build rows, the caller prints them in
    // order. The joined text must not depend on the thread count.
    let render = |threads: usize| -> String {
        let cfg = models::quantum_atlas_10k_ii();
        let rows = map(threads, matrix(), |idx, spec| {
            let mut disk = Disk::new(cfg.clone());
            let r = run_random_io(&mut disk, &spec);
            Row::new()
                .col(idx)
                .num(r.mean_head_time(QueueDepth::One).as_millis_f64(), 3)
                .num(r.mean_head_time(spec.queue).as_millis_f64(), 3)
                .num(r.efficiency(spec.queue), 4)
                .to_string()
        });
        rows.join("\n")
    };
    let seq = render(1);
    for threads in [2, 8] {
        assert_eq!(seq, render(threads), "threads={threads}");
    }
}
