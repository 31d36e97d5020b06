//! Open-loop saturation sweep: response latency vs offered load, per
//! scheduler.
//!
//! ```text
//! bench server_sweep            # full grid
//! bench server_sweep --quick    # CI grid (fewer chunks per stream)
//! ```
//!
//! Runs the `server` crate's open-loop loop on the Atlas 10K II over a
//! grid of offered load (concurrent track-aligned video-style client
//! streams, half playback reads and half ingest writes) × scheduler
//! (FIFO, C-LOOK, traxtent-aware batching). Every scheduler at a given
//! load level sees the *identical* arrival trace — the trace seed mixes
//! the CLI seed with the level, not the scheduler — so latency
//! differences are pure policy. Each grid cell simulates independently
//! on its own drive and fans out across the worker pool; rows merge in
//! submission order, so stdout is byte-identical at any `--threads`.
//!
//! The headline comparison is p99 response time at the highest offered
//! load: the traxtent batcher coalesces queued same-track chunks into
//! single track-aligned commands (saving per-command overhead, write
//! settles, and rotational repositioning), which pushes its saturation
//! knee past C-LOOK's.

use crate::{Row, Run, Telemetry};
use server::{serve, SchedulerKind, ServerConfig, TimelineConfig};
use sim_disk::disk::Disk;
use sim_disk::models;
use traxtent::ConfidentBoundaries;
use workloads::arrivals::{stream_trace, StreamsSpec};

/// Concurrent streams per direction at each load level; total offered
/// chunk rate is `2 × streams × 1000 / CHUNK_PERIOD_MS` per second.
const LEVELS: [usize; 4] = [1, 2, 4, 6];

/// Only the peak-load cells carry the extra observability (a windowed
/// timeline under `--timeline`, a causal span tree under `--trace`): that
/// is where the SLO story lives, and it keeps the span export readable.
const PEAK: usize = LEVELS[LEVELS.len() - 1];

/// Per-stream chunk cadence (isochronous clients).
const CHUNK_PERIOD_MS: f64 = 40.0;

/// Nominal chunk length in sectors — a third-or-so of an Atlas track, so
/// a track's worth of chunks is coalescible when co-queued.
const CHUNK_SECTORS: u64 = 132;

/// Sampler window for `--timeline` cells.
const TIMELINE_WINDOW_MS: f64 = 250.0;

/// SLO monitored on `--timeline` cells: at most 5% of a window's
/// responses over 40 ms before the window counts as breached.
const SLO_THRESHOLD_MS: f64 = 40.0;
const SLO_BREACH_FRACTION: f64 = 0.05;

fn run_cell(run: &Run, cell_index: usize, streams: usize, sched: SchedulerKind) -> Row {
    let obs = run.observe(cell_index, 0xCE11, streams == PEAK);
    let mut disk = Disk::new(obs.drive(models::quantum_atlas_10k_ii()));
    let table = disk.track_boundaries();
    let spec = StreamsSpec {
        read_streams: streams,
        write_streams: streams,
        chunk_sectors: CHUNK_SECTORS,
        chunk_period_ms: CHUNK_PERIOD_MS,
        chunks_per_stream: if run.quick { 400 } else { 2000 },
        // Same trace for every scheduler at this level: the seed mixes
        // in the load level only.
        seed: run.seed ^ ((streams as u64) << 8),
    };
    let trace = stream_trace(&spec, &table);
    let server_cfg = obs.server(
        ServerConfig::new(sched).with_boundaries(ConfidentBoundaries::certain(table)),
        TimelineConfig::new(TIMELINE_WINDOW_MS).with_slo(SLO_THRESHOLD_MS, SLO_BREACH_FRACTION),
    );
    let res = serve(&mut disk, &trace, &server_cfg).expect("generated traces are valid");
    res.export_metrics(&run.reg);

    // The timeline section is mirrored into a manifest of its own, with
    // the SLO verdict, so CI can diff the series run over run.
    let tag = format!("s{streams}_{}", sched.label());
    let [p50, p99, p999] = res.percentiles_ms([0.50, 0.99, 0.999]);
    let mut headlines = vec![
        (format!("{tag}_completed"), res.completed() as f64),
        (format!("{tag}_p99_ms"), p99),
    ];
    if let Some(slo) = &res.slo {
        headlines.push((format!("{tag}_slo_breached"), slo.breached as f64));
        headlines.push((format!("{tag}_slo_worst_burn"), slo.worst_burn_rate));
    }
    Row::new()
        .num(2.0 * streams as f64 * 1000.0 / CHUNK_PERIOD_MS, 0)
        .col(sched.label())
        .col(res.completed())
        .num(res.rejected() as f64, 0)
        .key(format!("{tag}_rejected"))
        .num(p50, 2)
        .key(format!("{tag}_p50_ms"))
        .num(p99, 2)
        .key(format!("{tag}_p99_ms"))
        .num(p999, 2)
        .key(format!("{tag}_p999_ms"))
        .num(res.mean_depth(), 1)
        .col(res.max_depth)
        .num(res.throughput_rps(), 1)
        .key(format!("{tag}_throughput_rps"))
        .telemetry(Telemetry {
            headlines,
            ..obs.telemetry(tag, res.timeline, res.slo)
        })
}

pub(crate) fn main(run: &Run) {
    run.header(
        "open-loop server: response latency vs offered load (track-aligned streams)",
        &[
            "offered_rps",
            "scheduler",
            "completed",
            "rejected",
            "p50_ms",
            "p99_ms",
            "p999_ms",
            "mean_depth",
            "max_depth",
            "throughput_rps",
        ],
    );
    let cells: Vec<(usize, SchedulerKind)> = LEVELS
        .iter()
        .flat_map(|&s| SchedulerKind::ALL.iter().map(move |&k| (s, k)))
        .collect();
    run.sweep(cells, |i, (streams, sched)| {
        run_cell(run, i, streams, sched)
    });

    // The acceptance headline: how much p99 the traxtent batcher saves
    // over C-LOOK at the highest offered load.
    let peak_p99 = |sched: SchedulerKind| run.get(&format!("s{PEAK}_{}_p99_ms", sched.label()));
    let (clook, traxtent) = (
        peak_p99(SchedulerKind::CLook),
        peak_p99(SchedulerKind::Traxtent),
    );
    let gain = clook / traxtent.max(1e-9);
    println!("traxtent p99 at peak load: {traxtent:.2} ms vs C-LOOK {clook:.2} ms ({gain:.2}x)");
    run.set("traxtent_p99_gain_hiload", gain);

    run.print_timelines(Some("server_timeline"));
}
