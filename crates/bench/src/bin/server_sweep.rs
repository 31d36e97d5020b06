//! Open-loop saturation sweep: response latency vs offered load, per
//! scheduler.
//!
//! ```text
//! server_sweep            # full grid
//! server_sweep --quick    # CI grid (fewer chunks per stream)
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

use server::{serve, SchedulerKind, ServerConfig, TimelineConfig};
use sim_disk::disk::Disk;
use sim_disk::models;
use sim_disk::trace::{DiskSpanBridge, Fanout, SharedSink, Tracer};
use std::sync::{Arc, Mutex};
use traxtent::obs::span::{self, Span, SpanRecorder};
use traxtent::ConfidentBoundaries;
use workloads::arrivals::{stream_trace, StreamsSpec};

/// Concurrent streams per direction at each load level; total offered
/// chunk rate is `2 × streams × 1000 / CHUNK_PERIOD_MS` per second.
const LEVELS: [usize; 4] = [1, 2, 4, 6];

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

struct CellResult {
    line: String,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    rejected: u64,
    throughput_rps: f64,
    completed: u64,
    timeline: Option<server::Timeline>,
    slo: Option<server::SloSummary>,
    spans: Vec<Span>,
}

/// Per-cell observability requests: the peak-load cells additionally
/// record a windowed timeline (`--timeline`) and a causal span tree
/// (`--trace`).
#[derive(Clone, Copy)]
struct ObsOpts {
    timeline: bool,
    spans: bool,
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    probe: &traxtent_bench::Probe,
    reg: &traxtent::obs::Registry,
    streams: usize,
    sched: SchedulerKind,
    chunks_per_stream: usize,
    seed: u64,
    cell_index: usize,
    obs: ObsOpts,
) -> CellResult {
    let mut cfg = probe.wrap(models::quantum_atlas_10k_ii());
    // A per-cell recorder with a per-cell salt, so merged span ids never
    // collide across cells and the export is identical at any --threads.
    let rec = obs.spans.then(|| {
        let rec = SpanRecorder::new();
        rec.set_salt(span::derive_id(seed, 0xCE11, cell_index as u64, 0));
        let bridge: SharedSink = Arc::new(Mutex::new(DiskSpanBridge::new(rec.clone())));
        cfg.tracer = Some(match cfg.tracer.take() {
            Some(t) => Tracer::from_sink(Fanout::new(vec![t.sink(), bridge])),
            None => Tracer::new(bridge),
        });
        rec
    });
    let mut disk = Disk::new(cfg);
    let table = disk.track_boundaries();
    let spec = StreamsSpec {
        read_streams: streams,
        write_streams: streams,
        chunk_sectors: CHUNK_SECTORS,
        chunk_period_ms: CHUNK_PERIOD_MS,
        chunks_per_stream,
        // Same trace for every scheduler at this level: the seed mixes
        // in the load level only.
        seed: seed ^ ((streams as u64) << 8),
    };
    let trace = stream_trace(&spec, &table);
    let mut server_cfg =
        ServerConfig::new(sched).with_boundaries(ConfidentBoundaries::certain(table));
    if obs.timeline {
        server_cfg = server_cfg.with_timeline(
            TimelineConfig::new(TIMELINE_WINDOW_MS).with_slo(SLO_THRESHOLD_MS, SLO_BREACH_FRACTION),
        );
    }
    if let Some(rec) = &rec {
        server_cfg = server_cfg.with_spans(rec.clone());
    }
    let res = serve(&mut disk, &trace, &server_cfg).expect("generated traces are valid");
    res.export_metrics(reg);

    let offered_rps = 2.0 * streams as f64 * 1000.0 / CHUNK_PERIOD_MS;
    let line = traxtent_bench::row_string([
        format!("{offered_rps:.0}"),
        sched.label().into(),
        res.completed().to_string(),
        res.rejected().to_string(),
        format!("{:.2}", res.percentile_ms(0.50)),
        format!("{:.2}", res.percentile_ms(0.99)),
        format!("{:.2}", res.percentile_ms(0.999)),
        format!("{:.1}", res.mean_depth()),
        res.max_depth.to_string(),
        format!("{:.1}", res.throughput_rps()),
    ]);
    CellResult {
        line,
        p50_ms: res.percentile_ms(0.50),
        p99_ms: res.percentile_ms(0.99),
        p999_ms: res.percentile_ms(0.999),
        rejected: res.rejected(),
        throughput_rps: res.throughput_rps(),
        completed: res.completed(),
        timeline: res.timeline,
        slo: res.slo,
        spans: rec.map(|r| r.take_sorted()).unwrap_or_default(),
    }
}

fn main() {
    let cli = traxtent_bench::Cli::parse_with(&["--timeline"]);
    let probe = cli.probe();
    let reg = traxtent::obs::Registry::new();
    let mut rec = cli.recorder("server_sweep");
    let timeline = cli.has("--timeline");
    let tracing = cli.trace.is_some();
    let chunks_per_stream = if cli.quick { 400 } else { 2000 };

    traxtent_bench::header(
        "open-loop server: response latency vs offered load (track-aligned streams)",
    );
    traxtent_bench::row([
        "offered_rps".into(),
        "scheduler".into(),
        "completed".into(),
        "rejected".into(),
        "p50_ms".into(),
        "p99_ms".into(),
        "p999_ms".into(),
        "mean_depth".into(),
        "max_depth".into(),
        "throughput_rps".into(),
    ]);

    let cells: Vec<(usize, SchedulerKind)> = LEVELS
        .iter()
        .flat_map(|&s| SchedulerKind::ALL.iter().map(move |&k| (s, k)))
        .collect();
    // Only the peak-load cells carry the extra observability: that is
    // where the SLO story lives, and it keeps the span export readable.
    let peak = LEVELS[LEVELS.len() - 1];
    let results = cli.executor().run(cells.clone(), |i, (streams, sched)| {
        let obs = ObsOpts {
            timeline: timeline && streams == peak,
            spans: tracing && streams == peak,
        };
        run_cell(
            &probe,
            &reg,
            streams,
            sched,
            chunks_per_stream,
            cli.seed,
            i,
            obs,
        )
    });

    let mut hi_clook_p99 = 0.0f64;
    let mut hi_traxtent_p99 = 0.0f64;
    for ((streams, sched), r) in cells.iter().zip(&results) {
        let tag = format!("s{streams}_{}", sched.label());
        rec.headline(&format!("{tag}_p50_ms"), r.p50_ms);
        rec.headline(&format!("{tag}_p99_ms"), r.p99_ms);
        rec.headline(&format!("{tag}_p999_ms"), r.p999_ms);
        rec.headline(&format!("{tag}_rejected"), r.rejected as f64);
        rec.headline(&format!("{tag}_throughput_rps"), r.throughput_rps);
        if *streams == LEVELS[LEVELS.len() - 1] {
            match sched {
                SchedulerKind::CLook => hi_clook_p99 = r.p99_ms,
                SchedulerKind::Traxtent => hi_traxtent_p99 = r.p99_ms,
                SchedulerKind::Fifo => {}
            }
        }
        println!("{}", r.line);
    }

    // The acceptance headline: how much p99 the traxtent batcher saves
    // over C-LOOK at the highest offered load.
    let gain = hi_clook_p99 / hi_traxtent_p99.max(1e-9);
    println!(
        "traxtent p99 at peak load: {hi_traxtent_p99:.2} ms vs C-LOOK {hi_clook_p99:.2} ms \
         ({gain:.2}x)"
    );
    rec.headline("traxtent_p99_gain_hiload", gain);

    if timeline {
        // The live-telemetry section: one windowed table per peak-load
        // cell, plus the SLO verdict, mirrored into its own manifest so
        // CI can diff the series run over run.
        let mut trec = cli.recorder("server_timeline");
        let treg = traxtent::obs::Registry::new();
        for ((streams, sched), r) in cells.iter().zip(&results) {
            let Some(t) = &r.timeline else { continue };
            let tag = format!("s{streams}_{}", sched.label());
            println!(
                "## timeline {tag} (window {TIMELINE_WINDOW_MS:.0} ms, {} buckets)",
                t.buckets.len()
            );
            print!("{t}");
            if let Some(slo) = &r.slo {
                println!("{slo}");
                trec.headline(&format!("{tag}_slo_breached"), slo.breached as f64);
                trec.headline(&format!("{tag}_slo_worst_burn"), slo.worst_burn_rate);
            }
            trec.headline(&format!("{tag}_completed"), r.completed as f64);
            trec.headline(&format!("{tag}_p99_ms"), r.p99_ms);
            trec.timeline(&tag, t.rows());
        }
        trec.finish(&treg);
    }

    cli.export_spans(
        "server_sweep",
        results.iter().flat_map(|r| r.spans.clone()).collect(),
    );

    probe.finish();
    rec.finish(&reg);
}
