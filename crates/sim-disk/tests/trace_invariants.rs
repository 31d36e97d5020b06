//! Integration tests of the tracing subsystem against a real drive run:
//! the event stream must account for every nanosecond the engine reports,
//! survive a JSONL round trip, and never perturb the simulation.

use sim_disk::disk::{Disk, Op, Request};
use sim_disk::models;
use sim_disk::trace::{
    DiskSpanBridge, JsonlSink, MemorySink, Phase, TraceEvent, Tracer, Value, PHASE_EVENTS,
};
use sim_disk::{SimDur, SimTime};
use std::sync::{Arc, Mutex};
use traxtent::obs::span::SpanRecorder;

/// Mixed read/write random workload over the whole drive; returns the
/// engine-reported completions alongside whatever the tracer captured.
fn traced_run(count: u64) -> (Vec<sim_disk::disk::Completion>, Vec<TraceEvent>) {
    let sink = Arc::new(Mutex::new(MemorySink::new()));
    let mut cfg = models::quantum_atlas_10k_ii();
    cfg.tracer = Some(Tracer::new(sink.clone()));
    let mut disk = Disk::new(cfg);

    let mut completions = Vec::new();
    let mut t = SimTime::ZERO;
    for i in 0..count {
        let lbn = (i * 2_654_435_761) % 4_000_000;
        let len = 16 + (i * 37) % 1024;
        let req = if i % 4 == 3 {
            Request::write(lbn, len)
        } else {
            Request::read(lbn, len)
        };
        let c = disk.service(req, t);
        // Mix closed-loop arrivals with bursts that build a queue.
        t = if i % 5 == 0 { t } else { c.completion };
        completions.push(c);
    }
    let events = sink.lock().expect("sink").events().to_vec();
    (completions, events)
}

/// Per-phase quantization leaves at most this much unaccounted per request
/// (same tolerance as the engine's own breakdown tests).
const RESIDUAL: u64 = 20_000;

/// Every `Complete` event's phase fields sum to its `response`, and both
/// match the engine's own breakdown for the same request.
#[test]
fn complete_events_account_for_every_nanosecond() {
    let (completions, events) = traced_run(300);
    let completes: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Complete { .. }))
        .collect();
    assert_eq!(completes.len(), completions.len());

    for (c, e) in completions.iter().zip(completes) {
        let TraceEvent::Complete {
            op,
            lbn,
            len,
            cache_hit,
            queue,
            overhead,
            seek,
            head_switch,
            rot_latency,
            media,
            bus,
            write_settle,
            response,
            ..
        } = e
        else {
            unreachable!()
        };
        assert_eq!(*op, c.request.op);
        assert_eq!(*lbn, c.request.lbn);
        assert_eq!(*len, u64::from(c.request.len));
        assert_eq!(*cache_hit, c.cache_hit);
        assert_eq!(*response, c.response_time().as_ns());
        let b = &c.breakdown;
        for (traced, engine) in [
            (*queue, b.queue),
            (*overhead, b.overhead),
            (*seek, b.seek),
            (*head_switch, b.head_switch),
            (*rot_latency, b.rot_latency),
            (*media, b.media),
            (*bus, b.bus),
            (*write_settle, b.write_settle),
        ] {
            assert_eq!(traced, engine.as_ns());
        }
        let sum = queue + overhead + seek + head_switch + rot_latency + media + bus + write_settle;
        assert!(
            response.abs_diff(sum) <= RESIDUAL,
            "lbn {lbn}: phases sum to {sum} ns but response is {response} ns"
        );
    }
}

/// Phase events of one request agree with its `Complete` summary: seek
/// durations sum to the seek phase, media durations to the media phase,
/// and every event lands inside the request's [issue, completion] window.
/// Every phase has the shape its [`PHASE_EVENTS`] row gives it.
#[test]
fn phase_events_match_their_summary() {
    let (completions, events) = traced_run(300);
    for (rid, c) in completions.iter().enumerate() {
        let mine: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.req() == Some(rid as u64))
            .collect();
        assert!(matches!(mine.first(), Some(TraceEvent::Issue { .. })));
        assert!(matches!(mine.last(), Some(TraceEvent::Complete { .. })));

        let mut seek = 0u64;
        let mut media = 0u64;
        let mut queue = 0u64;
        for e in &mine {
            if let TraceEvent::Phase(p) = e {
                let row = PHASE_EVENTS.iter().find(|r| r.0 == p.name);
                let keys: Vec<&str> = p.attrs.iter().map(|a| a.0).collect();
                assert_eq!(row, Some(&(p.name, p.dur.is_some(), &keys[..])), "{p:?}");
                match (p.name, p.dur) {
                    ("seek", Some(dur)) => seek += dur,
                    ("media", Some(dur)) => media += dur,
                    ("queue", Some(dur)) => queue += dur,
                    _ => {}
                }
            }
            let t = e.time_ns();
            assert!(
                t >= c.issue.as_ns() && t <= c.completion.as_ns(),
                "req {rid}: {} at {t} outside [{}, {}]",
                e.name(),
                c.issue.as_ns(),
                c.completion.as_ns()
            );
        }
        assert_eq!(seek, c.breakdown.seek.as_ns(), "req {rid} seek");
        assert_eq!(media, c.breakdown.media.as_ns(), "req {rid} media");
        assert_eq!(queue, c.breakdown.queue.as_ns(), "req {rid} queue");
        if c.cache_hit {
            assert!(mine
                .iter()
                .any(|e| matches!(e, TraceEvent::Phase(p) if p.name == "cache_hit")));
        }
    }
    // The burst arrivals above must actually have exercised queueing.
    assert!(completions.iter().any(|c| c.breakdown.queue > SimDur::ZERO));
}

/// The full event stream survives a JSONL write + parse round trip.
#[test]
fn jsonl_round_trip_preserves_the_stream() {
    let path = std::env::temp_dir().join("sim_disk_trace_invariants.jsonl");
    // The same workload twice, once per sink; dropping the drive drops
    // its tracer, which flushes the file.
    let run = |tracer: Tracer| {
        let mut cfg = models::quantum_atlas_10k_ii();
        cfg.tracer = Some(tracer);
        let mut disk = Disk::new(cfg);
        let mut t = SimTime::ZERO;
        for i in 0..100u64 {
            let lbn = (i * 1_234_567) % 4_000_000;
            let c = disk.service(Request::read(lbn, 64 + (i % 512)), t);
            t = c.completion;
        }
    };
    let mem = Arc::new(Mutex::new(MemorySink::new()));
    run(Tracer::new(mem.clone()));
    let expected = mem.lock().expect("sink").events().to_vec();
    run(Tracer::new(Arc::new(Mutex::new(
        JsonlSink::create(&path).expect("temp trace file"),
    ))));

    let text = std::fs::read_to_string(&path).expect("trace file");
    let parsed: Vec<TraceEvent> = text
        .lines()
        .map(|l| TraceEvent::parse_json(l).expect("valid event"))
        .collect();
    assert_eq!(parsed, expected);
    std::fs::remove_file(&path).ok();
}

/// Attaching a tracer must not change a single completion time.
#[test]
fn tracing_never_perturbs_the_simulation() {
    let run = |traced: bool| {
        let mut cfg = models::quantum_atlas_10k_ii();
        if traced {
            cfg.tracer = Some(Tracer::new(Arc::new(Mutex::new(MemorySink::new()))));
        }
        let mut disk = Disk::new(cfg);
        let mut t = SimTime::ZERO;
        let mut out = Vec::new();
        for i in 0..200u64 {
            let lbn = (i * 2_654_435_761) % 4_000_000;
            let req = if i % 4 == 3 {
                Request::write(lbn, 16 + (i % 700))
            } else {
                Request::read(lbn, 16 + (i % 700))
            };
            let c = disk.service(req, t);
            t = if i % 5 == 0 { t } else { c.completion };
            out.push((c.completion, c.breakdown));
        }
        out
    };
    assert_eq!(run(false), run(true));
}

/// Writes emit settle events exactly when the drive charges settle time.
#[test]
fn writes_emit_settle_and_reads_do_not() {
    let (completions, events) = traced_run(200);
    for (rid, c) in completions.iter().enumerate() {
        let has_settle = events.iter().any(
            |e| matches!(e, TraceEvent::Phase(p) if p.name == "settle" && p.req == rid as u64),
        );
        let charged = c.breakdown.write_settle > SimDur::ZERO;
        assert_eq!(
            has_settle,
            charged,
            "req {rid} ({:?}): settle event vs {} ns charged",
            c.request.op,
            c.breakdown.write_settle.as_ns()
        );
        if c.request.op == Op::Read {
            assert!(!has_settle);
        }
    }
}

/// Every phase kind becomes one span under its command's `disk_cmd` span:
/// named after its event (`queue` as `drive_queue`), over `[t, t + dur]`
/// (zero-length without a `dur`), with the phase's own fields as
/// attributes, `k=v` and in order.
#[test]
fn the_bridge_makes_every_phase_kind_a_child_span() {
    for (name, has_dur, keys) in PHASE_EVENTS {
        let rec = SpanRecorder::new();
        rec.set_context(0xAB, 2);
        let tracer = Tracer::from_sink(DiskSpanBridge::new(rec.clone()));
        let attrs: Vec<(&'static str, Value)> = keys
            .iter()
            .zip(10u64..)
            .map(|(&k, n)| match k {
                "kind" => (k, Value::Text("media_retry".into())),
                _ => (k, Value::Num(n)),
            })
            .collect();
        let want_attrs: Vec<String> = attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let phase = Phase {
            name,
            req: 7,
            t: 120,
            dur: has_dur.then_some(30),
            attrs,
        };
        tracer.record_all(&[
            TraceEvent::Issue {
                req: 7,
                t: 100,
                op: Op::Read,
                lbn: 0,
                len: 8,
            },
            TraceEvent::Phase(phase),
            TraceEvent::Complete {
                req: 7,
                t: 200,
                op: Op::Read,
                lbn: 0,
                len: 8,
                cache_hit: false,
                queue: 0,
                overhead: 0,
                seek: 0,
                head_switch: 0,
                rot_latency: 0,
                media: 0,
                bus: 0,
                write_settle: 0,
                response: 100,
            },
        ]);
        let spans = rec.take_sorted();
        assert_eq!(spans.len(), 2, "{name}: disk_cmd and one phase");
        let (cmds, children): (Vec<_>, Vec<_>) = spans.iter().partition(|s| s.name == "disk_cmd");
        let (cmd, child) = (cmds[0], children[0]);
        let want_name = if name == "queue" { "drive_queue" } else { name };
        assert_eq!(child.name, want_name);
        assert_eq!((child.parent, child.track), (cmd.id, 2), "{name}");
        let end = if has_dur { 150 } else { 120 };
        assert_eq!((child.start_ns, child.end_ns), (120, end), "{name}");
        assert_eq!(
            has_dur,
            !matches!(name, "cache_hit" | "cache_fill"),
            "{name}"
        );
        assert_eq!(child.attrs, want_attrs.join(","), "{name}");
    }
}
