//! End-to-end observability properties of `serve()`: percentile edge
//! cases, span-tree shape over a bare drive, timeline coverage, and the
//! invariant that instrumentation never perturbs results.

use server::{serve, SchedulerKind, ServerConfig, ServerResult, TimelineConfig};
use sim_disk::disk::{Disk, Request};
use sim_disk::models::quantum_atlas_10k_ii;
use sim_disk::trace::{DiskSpanBridge, Tracer};
use sim_disk::{SimTime, TraceRecord};
use traxtent::obs::span::{self, Span, SpanRecorder};
use traxtent::stats;
use workloads::replay::{synthetic_trace, SyntheticSpec};

fn trace(count: usize, interarrival_ms: f64) -> Vec<TraceRecord> {
    let capacity = Disk::new(quantum_atlas_10k_ii()).geometry().capacity_lbns();
    synthetic_trace(&SyntheticSpec {
        count,
        interarrival_ms,
        io_sectors: 96,
        read_fraction: 0.7,
        capacity_lbns: capacity,
        seed: 23,
    })
}

/// Each completed request's trace index and completion instant: the
/// indices not rejected, in order, each at its arrival plus its response.
fn completions(res: &ServerResult, records: &[TraceRecord]) -> Vec<(u64, SimTime)> {
    let ids = (0..records.len() as u64).filter(|id| !res.rejected_ids.contains(id));
    let done = ids.zip(&res.responses);
    done.map(|(id, &d)| (id, records[id as usize].arrival + d))
        .collect()
}

#[test]
fn percentile_ms_edge_cases() {
    let cfg = ServerConfig::new(SchedulerKind::Fifo);

    // Empty run: no completions, every percentile is 0.
    let mut disk = Disk::new(quantum_atlas_10k_ii());
    let empty = serve(&mut disk, &[], &cfg).unwrap();
    assert_eq!(empty.completed(), 0);
    assert_eq!(empty.percentiles_ms([0.0, 0.5, 0.99, 1.0]), [0.0; 4]);
    assert_eq!(empty.sim_end, SimTime::ZERO);

    // Single sample: every percentile is that sample.
    let one = vec![TraceRecord {
        arrival: SimTime::ZERO,
        request: Request::read(5_000, 64),
    }];
    let mut disk = Disk::new(quantum_atlas_10k_ii());
    let res = serve(&mut disk, &one, &cfg).unwrap();
    assert_eq!(res.completed(), 1);
    let only = res.response_ms()[0];
    assert!(only > 0.0);
    assert_eq!(res.percentiles_ms([0.0, 0.25, 1.0]), [only; 3]);

    // Many samples: p=0.0 is the min, p=1.0 is the max.
    let mut disk = Disk::new(quantum_atlas_10k_ii());
    let res = serve(&mut disk, &trace(300, 4.0), &cfg).unwrap();
    let ms = res.response_ms();
    let min = ms.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = ms.iter().cloned().fold(0.0, f64::max);
    let [lowest, median, highest] = res.percentiles_ms([0.0, 0.5, 1.0]);
    assert_eq!((lowest, highest), (min, max));
    assert!(median >= min && median <= max);
}

/// Runs `serve` with full span instrumentation over a bare drive.
fn spanned_run(records: &[TraceRecord], salt: u64) -> (server::ServerResult, Vec<Span>) {
    let rec = SpanRecorder::new();
    rec.set_salt(salt);
    let mut config = quantum_atlas_10k_ii();
    config.tracer = Some(Tracer::from_sink(DiskSpanBridge::new(rec.clone())));
    let mut disk = Disk::new(config);
    let mut cfg = ServerConfig::new(SchedulerKind::CLook);
    cfg.queue_limit = 24;
    let cfg = cfg.with_spans(rec.clone());
    let res = serve(&mut disk, records, &cfg).unwrap();
    (res, rec.take_sorted())
}

#[test]
fn serve_emits_one_connected_tree_per_request() {
    let records = trace(120, 3.0);
    let (res, spans) = spanned_run(&records, 0x5eed);
    let stats = span::validate(&spans).unwrap();
    assert!(stats.spans > 0);
    // Depth reaches the drive phases: request → dispatch → disk_cmd → phase.
    assert!(stats.max_depth >= 4, "depth {}", stats.max_depth);

    // One root per request (completed or rejected) plus one per round.
    let request_roots = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == "request")
        .count() as u64;
    assert_eq!(request_roots, res.completed() + res.rejected());
    let rounds = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == "round")
        .count() as u64;
    assert!(rounds > 0 && rounds <= res.dispatches);

    // Every completed request's tree reaches a drive command.
    let by_id: std::collections::BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut reached = 0u64;
    for s in &spans {
        if s.name != "disk_cmd" {
            continue;
        }
        let mut at = s.parent;
        while at != 0 {
            let p = by_id[&at];
            if p.name == "request" && p.parent == 0 {
                reached += 1;
            }
            at = p.parent;
        }
    }
    assert!(reached > 0, "disk commands chain up to request roots");

    // Rejected requests carry reject children.
    let rejects = spans.iter().filter(|s| s.name == "reject").count() as u64;
    assert_eq!(rejects, res.rejected());
}

#[test]
fn spans_and_timeline_never_perturb_results() {
    let records = trace(200, 2.5);
    let mut plain_disk = Disk::new(quantum_atlas_10k_ii());
    let mut plain_cfg = ServerConfig::new(SchedulerKind::CLook);
    plain_cfg.queue_limit = 24; // matches spanned_run's config
    let plain = serve(&mut plain_disk, &records, &plain_cfg).unwrap();
    let (instrumented, spans) = spanned_run(&records, 7);
    assert!(!spans.is_empty());
    assert_eq!(plain.completed(), instrumented.completed());
    assert_eq!(plain.rejected_ids, instrumented.rejected_ids);
    assert_eq!(plain.sim_end, instrumented.sim_end);
    assert_eq!(
        completions(&plain, &records),
        completions(&instrumented, &records)
    );

    // A timeline-enabled run is also identical.
    let mut disk = Disk::new(quantum_atlas_10k_ii());
    let mut cfg = ServerConfig::new(SchedulerKind::CLook)
        .with_timeline(TimelineConfig::new(250.0).with_slo(40.0, 0.05));
    cfg.queue_limit = 24;
    let timed = serve(&mut disk, &records, &cfg).unwrap();
    assert_eq!(timed.responses, plain.responses);
    assert_eq!(timed.sim_end, plain.sim_end);
    assert_eq!(timed.percentiles_ms([0.99]), plain.percentiles_ms([0.99]));
}

#[test]
fn span_output_is_deterministic() {
    let records = trace(80, 3.0);
    let (_, a) = spanned_run(&records, 99);
    let (_, b) = spanned_run(&records, 99);
    let render = |spans: &[Span]| {
        spans
            .iter()
            .map(Span::to_json)
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(render(&a), render(&b));
    // A different salt changes ids but not the tree shape.
    let (_, c) = spanned_run(&records, 100);
    assert_ne!(render(&a), render(&c));
    assert_eq!(a.len(), c.len());
    assert_eq!(
        span::validate(&a).unwrap().max_depth,
        span::validate(&c).unwrap().max_depth
    );
}

#[test]
fn timeline_covers_the_run_and_accounts_every_event() {
    let records = trace(400, 2.0);
    let mut disk = Disk::new(quantum_atlas_10k_ii());
    let mut cfg = ServerConfig::new(SchedulerKind::CLook)
        .with_timeline(TimelineConfig::new(200.0).with_slo(25.0, 0.1));
    cfg.queue_limit = 24;
    let res = serve(&mut disk, &records, &cfg).unwrap();
    let t = res.timeline.as_ref().expect("timeline recorded");
    assert_eq!(t.window_ms, 200.0);
    let windows = (res.sim_end.as_ns() as f64 / 2e8).ceil() as usize;
    assert_eq!(t.buckets.len(), windows, "covers [0, sim_end)");
    let completed: u64 = t.buckets.iter().map(|b| b.completed).sum();
    let rejected: u64 = t.buckets.iter().map(|b| b.rejected).sum();
    assert_eq!(completed, res.completed());
    assert_eq!(rejected, res.rejected());
    // Busy fractions observed for the single member, all within [0, 1].
    assert!(t
        .buckets
        .iter()
        .any(|b| b.busy_frac.first().copied().unwrap_or(0.0) > 0.1));
    for b in &t.buckets {
        for f in &b.busy_frac {
            assert!((0.0..=1.0001).contains(f), "busy {f}");
        }
        assert!(b.p50_ms <= b.p99_ms);
    }
    let slo = res.slo.expect("slo summary");
    assert_eq!(slo.windows, windows as u64);
    assert_eq!(
        slo.total_over,
        res.response_ms().iter().filter(|&&ms| ms > 25.0).count() as u64
    );
}

/// Every window's counts, percentiles and SLO tally equal a fold over the
/// run's responses, each placed at its trace arrival plus its response —
/// under a queue bound that rejects, so the rejected indices are skipped.
#[test]
fn timeline_windows_fold_over_the_responses() {
    let records = trace(600, 1.0);
    let mut disk = Disk::new(quantum_atlas_10k_ii());
    let mut cfg = ServerConfig::new(SchedulerKind::CLook)
        .with_timeline(TimelineConfig::new(100.0).with_slo(30.0, 0.1));
    cfg.queue_limit = 8;
    let res = serve(&mut disk, &records, &cfg).unwrap();
    assert!(res.rejected() > 0, "the bound bites");
    let t = res.timeline.as_ref().expect("timeline recorded");
    let mut windows = vec![Vec::new(); t.buckets.len()];
    for (id, done) in completions(&res, &records) {
        let response = done.since(records[id as usize].arrival);
        windows[(done.as_ns() / 100_000_000) as usize].push(response.as_millis_f64());
    }
    for (b, ms) in t.buckets.iter().zip(&windows) {
        let at = b.start_ms;
        assert_eq!(b.completed, ms.len() as u64, "window at {at} ms");
        let over = ms.iter().filter(|&&x| x > 30.0).count() as u64;
        assert_eq!(b.slo_over, over, "window at {at} ms");
        if !ms.is_empty() {
            assert_eq!(b.p50_ms, stats::percentile(ms, 0.5), "window at {at} ms");
            assert_eq!(b.p99_ms, stats::percentile(ms, 0.99), "window at {at} ms");
        }
    }
}
