//! [`DiskSpanBridge`]: the trace sink that turns drive events into spans.

use crate::trace::{TraceEvent, TraceSink};
use traxtent::obs::span::{self, Span, SpanRecorder};

/// A [`TraceSink`] bridging one drive's trace events into causal spans.
///
/// The drive engine already narrates every command as a stream of
/// [`TraceEvent`]s (issue, queue, seek, rotational wait, media, bus,
/// fault, complete). The bridge folds that stream into [`Span`]s parented
/// under whatever causal context the layer above has set on the shared
/// [`SpanRecorder`] — the dispatch span of a server round, or the
/// per-member command span of a volume. Install it as (one fan-out arm
/// of) the drive's tracer and every serviced command becomes a `disk_cmd`
/// span with one child span per service phase.
///
/// Commands serviced while the context parent is 0 — extraction traffic,
/// verification reads, anything not issued on behalf of a request — are
/// deliberately skipped, so span trees contain exactly the request path.
///
/// Determinism: span ids derive from the drive's own request sequence
/// number and the recorder salt, and events for one command arrive as
/// one contiguous batch under the tracer lock, so the bridge needs no
/// per-drive state and the output is byte-identical at any `--threads`.
pub struct DiskSpanBridge {
    rec: SpanRecorder,
    open: Option<OpenCmd>,
    scratch: Vec<Span>,
}

/// The command currently being narrated (drive events for one command
/// arrive contiguously: `Issue` first, `Complete` last).
struct OpenCmd {
    rid: u64,
    span_id: u64,
    parent: u64,
    track: u32,
    start_ns: u64,
    phases: u64,
}

impl DiskSpanBridge {
    /// A bridge recording into `rec`.
    pub fn new(rec: SpanRecorder) -> Self {
        DiskSpanBridge {
            rec,
            open: None,
            scratch: Vec::new(),
        }
    }
}

impl TraceSink for DiskSpanBridge {
    fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Issue { req, t, .. } => {
                let (parent, track) = self.rec.context();
                self.scratch.clear();
                self.open = (parent != 0).then(|| OpenCmd {
                    rid: *req,
                    span_id: span::derive_id(
                        self.rec.salt(),
                        span::kind::DISK_CMD,
                        u64::from(track),
                        *req,
                    ),
                    parent,
                    track,
                    start_ns: *t,
                    phases: 0,
                });
            }
            TraceEvent::Phase(p) => {
                let Some(open) = self.open.as_mut().filter(|o| o.rid == p.req) else {
                    return;
                };
                let id = span::derive_id(
                    self.rec.salt(),
                    span::kind::PHASE,
                    open.span_id,
                    open.phases,
                );
                open.phases += 1;
                // The drive's queue, told apart from the server's in a tree.
                let name = if p.name == "queue" {
                    "drive_queue"
                } else {
                    p.name
                };
                let end = p.t + p.dur.unwrap_or(0);
                let mut s = Span::new(id, open.span_id, name, open.track, p.t, end);
                for (k, v) in &p.attrs {
                    s.push_attr(k, v);
                }
                self.scratch.push(s);
            }
            TraceEvent::ScsiCommand { .. } => {}
            TraceEvent::Complete {
                req,
                t,
                op,
                lbn,
                len,
                cache_hit,
                ..
            } => {
                if let Some(open) = self.open.take_if(|o| o.rid == *req) {
                    let mut cmd = Span::new(
                        open.span_id,
                        open.parent,
                        "disk_cmd",
                        open.track,
                        open.start_ns,
                        *t,
                    );
                    cmd.push_attr("op", op.as_str());
                    cmd.push_attr("lbn", lbn);
                    cmd.push_attr("len", len);
                    if *cache_hit {
                        cmd.push_attr("cache_hit", 1);
                    }
                    self.scratch.push(cmd);
                    self.rec.record_all(&mut self.scratch);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Op;
    use crate::trace::{Phase, Tracer, Value};

    fn drive_events(rid: u64) -> Vec<TraceEvent> {
        vec![
            TraceEvent::Issue {
                req: rid,
                t: 100,
                op: Op::Read,
                lbn: 0,
                len: 8,
            },
            TraceEvent::Phase(Phase {
                name: "seek",
                req: rid,
                t: 100,
                dur: Some(40),
                attrs: vec![("from_cyl", Value::Num(0)), ("to_cyl", Value::Num(3))],
            }),
            TraceEvent::Phase(Phase {
                name: "media",
                req: rid,
                t: 140,
                dur: Some(60),
                attrs: vec![("track", Value::Num(6)), ("sectors", Value::Num(8))],
            }),
            TraceEvent::Complete {
                req: rid,
                t: 200,
                op: Op::Read,
                lbn: 0,
                len: 8,
                cache_hit: false,
                queue: 0,
                overhead: 0,
                seek: 40,
                head_switch: 0,
                rot_latency: 0,
                media: 60,
                bus: 0,
                write_settle: 0,
                response: 100,
            },
        ]
    }

    #[test]
    fn commands_under_a_context_become_span_trees() {
        let rec = SpanRecorder::new();
        rec.set_salt(9);
        rec.set_context(0xAB, 2);
        let tracer = Tracer::from_sink(DiskSpanBridge::new(rec.clone()));
        tracer.record_all(&drive_events(7));
        let spans = rec.take_sorted();
        assert_eq!(spans.len(), 3, "disk_cmd + 2 phases");
        let cmd = spans.iter().find(|s| s.name == "disk_cmd").unwrap();
        assert_eq!(cmd.parent, 0xAB);
        assert_eq!(cmd.track, 2);
        assert_eq!((cmd.start_ns, cmd.end_ns), (100, 200));
        assert_eq!(cmd.attr("op"), Some("read"));
        for s in spans.iter().filter(|s| s.name != "disk_cmd") {
            assert_eq!(s.parent, cmd.id, "phases parent under the command");
            assert_eq!(s.track, 2);
        }
        let seek = spans.iter().find(|s| s.name == "seek").unwrap();
        assert_eq!(seek.attr("to_cyl"), Some("3"));
    }

    #[test]
    fn commands_without_a_context_are_skipped() {
        let rec = SpanRecorder::new();
        let tracer = Tracer::from_sink(DiskSpanBridge::new(rec.clone()));
        tracer.record_all(&drive_events(7));
        assert!(rec.is_empty(), "extraction/verification traffic is skipped");
    }

    #[test]
    fn bridge_ids_are_deterministic_per_drive_sequence() {
        let run = || {
            let rec = SpanRecorder::new();
            rec.set_salt(4);
            rec.set_context(1, 1);
            let tracer = Tracer::from_sink(DiskSpanBridge::new(rec.clone()));
            tracer.record_all(&drive_events(0));
            tracer.record_all(&drive_events(1));
            rec.take_sorted()
        };
        assert_eq!(run(), run());
        let spans = run();
        let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), spans.len(), "ids unique across commands");
    }
}
