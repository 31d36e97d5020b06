//! Opt-in, request-level mechanical event tracing.
//!
//! Every serviced request can emit a stream of typed [`TraceEvent`]s —
//! command issue, queueing, seek, head switch, settle, rotational wait,
//! media transfer, cache hit/fill, bus phases, and a closing per-request
//! summary — into a [`TraceSink`]. Tracing is **disabled by default** and
//! costs nothing when off: the drive checks a single `Option` per request
//! and a boolean per phase; no events are constructed and no locks are
//! taken.
//!
//! The JSONL encoding produced by [`TraceEvent::to_json`] (one flat JSON
//! object per line, decoded by [`TraceEvent::parse_json`]) is the
//! **documented contract** for external tooling — the `trace_report`
//! binary consumes it, and future fault-injection or file-system-layer
//! work is expected to extend the event set rather than replace it. All
//! times are absolute simulated nanoseconds since the run's epoch
//! ([`crate::SimTime::as_ns`]); all durations are nanoseconds; `lbn`/`len` are
//! 512-byte sectors.
//!
//! # Attaching a sink
//!
//! Sinks attach to a drive's [`crate::disk::DiskConfig::tracer`] field, so
//! every drive built from that config — including drives built deep inside
//! the file-system, video-server, or LFS layers — inherits the sink:
//!
//! ```
//! use std::sync::{Arc, Mutex};
//! use sim_disk::trace::{MemorySink, TraceEvent, Tracer};
//! use sim_disk::disk::{Disk, Request};
//! use sim_disk::{models, SimTime};
//!
//! let sink = Arc::new(Mutex::new(MemorySink::new()));
//! let mut cfg = models::small_test_disk();
//! cfg.tracer = Some(Tracer::new(sink.clone()));
//! let mut disk = Disk::new(cfg);
//! disk.service(Request::read(0, 8), SimTime::ZERO);
//! let events = sink.lock().unwrap().events().to_vec();
//! assert!(matches!(events.first(), Some(TraceEvent::Issue { .. })));
//! assert!(matches!(events.last(), Some(TraceEvent::Complete { .. })));
//! ```

use crate::request::Op;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use traxtent::obs::json;

pub use crate::obs::DiskSpanBridge;

/// One typed event in a request's service timeline.
///
/// `req` is the drive-assigned request sequence number (monotonic per
/// drive, starting at 0); `t` is the instant the phase *starts*, in
/// nanoseconds; `dur` is the phase length in nanoseconds. A phase event is
/// emitted only when the phase actually occurs (a zero-distance seek or an
/// unqueued request emits nothing).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The host issued a command (entry into the drive's FCFS queue).
    Issue {
        /// Request sequence number.
        req: u64,
        /// Issue instant, ns.
        t: u64,
        /// Direction.
        op: Op,
        /// First logical block.
        lbn: u64,
        /// Length in sectors.
        len: u64,
    },
    /// Wait for the mechanism to finish the previous command (queueing
    /// delay between command-ready and service start).
    Queue {
        /// Request sequence number.
        req: u64,
        /// Wait start, ns.
        t: u64,
        /// Wait length, ns.
        dur: u64,
    },
    /// Arm movement between cylinders. The pair (`t`, `t + dur`) encodes
    /// seek-start and seek-end.
    Seek {
        /// Request sequence number.
        req: u64,
        /// Seek start, ns.
        t: u64,
        /// Seek length, ns.
        dur: u64,
        /// Cylinder the arm left.
        from_cyl: u32,
        /// Cylinder the arm settled on.
        to_cyl: u32,
    },
    /// Head switch between surfaces of the same cylinder.
    HeadSwitch {
        /// Request sequence number.
        req: u64,
        /// Switch start, ns.
        t: u64,
        /// Switch length, ns.
        dur: u64,
    },
    /// Extra settle time charged before a media write.
    Settle {
        /// Request sequence number.
        req: u64,
        /// Settle start, ns.
        t: u64,
        /// Settle length, ns.
        dur: u64,
    },
    /// Rotational wait for the first needed sector of a mechanical visit.
    RotWait {
        /// Request sequence number.
        req: u64,
        /// Wait start, ns.
        t: u64,
        /// Wait length, ns.
        dur: u64,
        /// Global track index being waited on.
        track: u32,
    },
    /// Media transfer: sectors sweeping under the head on one track (one
    /// event per mechanical visit; `sectors` counts the sectors moved).
    Media {
        /// Request sequence number.
        req: u64,
        /// Transfer start, ns.
        t: u64,
        /// Transfer length, ns.
        dur: u64,
        /// Global track index.
        track: u32,
        /// Sectors transferred during this visit.
        sectors: u64,
    },
    /// A read serviced entirely from the firmware cache.
    CacheHit {
        /// Request sequence number.
        req: u64,
        /// Lookup instant, ns.
        t: u64,
        /// First logical block.
        lbn: u64,
        /// Length in sectors.
        len: u64,
    },
    /// The firmware cache absorbed a media read (extended by read-ahead):
    /// `[start, end)` in sectors is now cached.
    CacheFill {
        /// Request sequence number.
        req: u64,
        /// Fill instant (media completion), ns.
        t: u64,
        /// First cached LBN.
        start: u64,
        /// One past the last cached LBN.
        end: u64,
    },
    /// Un-overlapped bus activity: the trailing host transfer of a read,
    /// the whole transfer of a cache hit, or a write stalling on buffered
    /// data still crossing the bus.
    Bus {
        /// Request sequence number.
        req: u64,
        /// Phase start, ns.
        t: u64,
        /// Phase length, ns.
        dur: u64,
        /// Bytes moved (0 for a write-data stall).
        bytes: u64,
    },
    /// An injected fault (see [`crate::fault`]): a recovered media error,
    /// a grown-defect reallocation, or a transient command failure.
    /// `dur` is the recovery time charged to the request (zero for
    /// instantaneous events such as a reallocation or a surfaced abort).
    Fault {
        /// Request sequence number.
        req: u64,
        /// Fault instant, ns.
        t: u64,
        /// Recovery time charged, ns.
        dur: u64,
        /// Fault kind (`"media_retry"`, `"grown_defect"`,
        /// `"grown_defect_unspared"`, `"transient_retry"`,
        /// `"transient_abort"`).
        kind: String,
        /// Logical block the fault struck.
        lbn: u64,
    },
    /// A non-media SCSI command (MODE SENSE, address translation, defect
    /// list, READ CAPACITY) from the emulated command layer.
    ScsiCommand {
        /// Command start on the host clock, ns.
        t: u64,
        /// Command round-trip cost, ns.
        dur: u64,
        /// Command kind (e.g. `"mode_sense"`, `"translate_lbn"`).
        kind: String,
    },
    /// Closing per-request summary: where every nanosecond of the
    /// response went. The sum `queue + overhead + seek + head_switch +
    /// rot_latency + media + bus + write_settle` equals `response` up to
    /// the nanosecond-quantization residual of the per-phase rounding
    /// (typically < 20 µs per request).
    Complete {
        /// Request sequence number.
        req: u64,
        /// Completion instant, ns.
        t: u64,
        /// Direction.
        op: Op,
        /// First logical block.
        lbn: u64,
        /// Length in sectors.
        len: u64,
        /// True if serviced from the firmware cache.
        cache_hit: bool,
        /// Queueing wait, ns.
        queue: u64,
        /// Command-processing overhead, ns.
        overhead: u64,
        /// Seek time, ns.
        seek: u64,
        /// Head-switch time, ns.
        head_switch: u64,
        /// Rotational latency, ns.
        rot_latency: u64,
        /// Media transfer time, ns.
        media: u64,
        /// Un-overlapped bus time, ns.
        bus: u64,
        /// Write settle time, ns.
        write_settle: u64,
        /// Host-observed response time (completion − issue), ns.
        response: u64,
    },
}

impl TraceEvent {
    /// The event's schema name, as emitted in the JSONL `ev` field.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Issue { .. } => "issue",
            TraceEvent::Queue { .. } => "queue",
            TraceEvent::Seek { .. } => "seek",
            TraceEvent::HeadSwitch { .. } => "head_switch",
            TraceEvent::Settle { .. } => "settle",
            TraceEvent::RotWait { .. } => "rot_wait",
            TraceEvent::Media { .. } => "media",
            TraceEvent::CacheHit { .. } => "cache_hit",
            TraceEvent::CacheFill { .. } => "cache_fill",
            TraceEvent::Bus { .. } => "bus",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::ScsiCommand { .. } => "scsi_command",
            TraceEvent::Complete { .. } => "complete",
        }
    }

    /// The request sequence number, for events tied to one request.
    pub fn req(&self) -> Option<u64> {
        match *self {
            TraceEvent::Issue { req, .. }
            | TraceEvent::Queue { req, .. }
            | TraceEvent::Seek { req, .. }
            | TraceEvent::HeadSwitch { req, .. }
            | TraceEvent::Settle { req, .. }
            | TraceEvent::RotWait { req, .. }
            | TraceEvent::Media { req, .. }
            | TraceEvent::CacheHit { req, .. }
            | TraceEvent::CacheFill { req, .. }
            | TraceEvent::Bus { req, .. }
            | TraceEvent::Fault { req, .. }
            | TraceEvent::Complete { req, .. } => Some(req),
            TraceEvent::ScsiCommand { .. } => None,
        }
    }

    /// The instant (ns) the event starts.
    pub fn time_ns(&self) -> u64 {
        match *self {
            TraceEvent::Issue { t, .. }
            | TraceEvent::Queue { t, .. }
            | TraceEvent::Seek { t, .. }
            | TraceEvent::HeadSwitch { t, .. }
            | TraceEvent::Settle { t, .. }
            | TraceEvent::RotWait { t, .. }
            | TraceEvent::Media { t, .. }
            | TraceEvent::CacheHit { t, .. }
            | TraceEvent::CacheFill { t, .. }
            | TraceEvent::Bus { t, .. }
            | TraceEvent::Fault { t, .. }
            | TraceEvent::ScsiCommand { t, .. }
            | TraceEvent::Complete { t, .. } => t,
        }
    }

    /// Serializes the event as one flat JSON object (no trailing newline).
    ///
    /// The first field is always `"ev"` with the [`TraceEvent::name`];
    /// remaining fields are the variant's fields in declaration order.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"ev\":\"");
        s.push_str(self.name());
        s.push('"');
        let num = |s: &mut String, k: &str, v: u64| {
            s.push_str(",\"");
            s.push_str(k);
            s.push_str("\":");
            s.push_str(&v.to_string());
        };
        match self {
            TraceEvent::Issue {
                req,
                t,
                op,
                lbn,
                len,
            } => {
                num(&mut s, "req", *req);
                num(&mut s, "t", *t);
                s.push_str(",\"op\":\"");
                s.push_str(op.as_str());
                s.push('"');
                num(&mut s, "lbn", *lbn);
                num(&mut s, "len", *len);
            }
            TraceEvent::Queue { req, t, dur } => {
                num(&mut s, "req", *req);
                num(&mut s, "t", *t);
                num(&mut s, "dur", *dur);
            }
            TraceEvent::Seek {
                req,
                t,
                dur,
                from_cyl,
                to_cyl,
            } => {
                num(&mut s, "req", *req);
                num(&mut s, "t", *t);
                num(&mut s, "dur", *dur);
                num(&mut s, "from_cyl", u64::from(*from_cyl));
                num(&mut s, "to_cyl", u64::from(*to_cyl));
            }
            TraceEvent::HeadSwitch { req, t, dur } | TraceEvent::Settle { req, t, dur } => {
                num(&mut s, "req", *req);
                num(&mut s, "t", *t);
                num(&mut s, "dur", *dur);
            }
            TraceEvent::RotWait { req, t, dur, track } => {
                num(&mut s, "req", *req);
                num(&mut s, "t", *t);
                num(&mut s, "dur", *dur);
                num(&mut s, "track", u64::from(*track));
            }
            TraceEvent::Media {
                req,
                t,
                dur,
                track,
                sectors,
            } => {
                num(&mut s, "req", *req);
                num(&mut s, "t", *t);
                num(&mut s, "dur", *dur);
                num(&mut s, "track", u64::from(*track));
                num(&mut s, "sectors", *sectors);
            }
            TraceEvent::CacheHit { req, t, lbn, len } => {
                num(&mut s, "req", *req);
                num(&mut s, "t", *t);
                num(&mut s, "lbn", *lbn);
                num(&mut s, "len", *len);
            }
            TraceEvent::CacheFill { req, t, start, end } => {
                num(&mut s, "req", *req);
                num(&mut s, "t", *t);
                num(&mut s, "start", *start);
                num(&mut s, "end", *end);
            }
            TraceEvent::Bus { req, t, dur, bytes } => {
                num(&mut s, "req", *req);
                num(&mut s, "t", *t);
                num(&mut s, "dur", *dur);
                num(&mut s, "bytes", *bytes);
            }
            TraceEvent::Fault {
                req,
                t,
                dur,
                kind,
                lbn,
            } => {
                num(&mut s, "req", *req);
                num(&mut s, "t", *t);
                num(&mut s, "dur", *dur);
                s.push_str(",\"kind\":");
                json::write_string(&mut s, kind);
                num(&mut s, "lbn", *lbn);
            }
            TraceEvent::ScsiCommand { t, dur, kind } => {
                num(&mut s, "t", *t);
                num(&mut s, "dur", *dur);
                s.push_str(",\"kind\":");
                json::write_string(&mut s, kind);
            }
            TraceEvent::Complete {
                req,
                t,
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
            } => {
                num(&mut s, "req", *req);
                num(&mut s, "t", *t);
                s.push_str(",\"op\":\"");
                s.push_str(op.as_str());
                s.push('"');
                num(&mut s, "lbn", *lbn);
                num(&mut s, "len", *len);
                s.push_str(",\"cache_hit\":");
                s.push_str(if *cache_hit { "true" } else { "false" });
                num(&mut s, "queue", *queue);
                num(&mut s, "overhead", *overhead);
                num(&mut s, "seek", *seek);
                num(&mut s, "head_switch", *head_switch);
                num(&mut s, "rot_latency", *rot_latency);
                num(&mut s, "media", *media);
                num(&mut s, "bus", *bus);
                num(&mut s, "write_settle", *write_settle);
                num(&mut s, "response", *response);
            }
        }
        s.push('}');
        s
    }

    /// Decodes one JSONL line produced by [`TraceEvent::to_json`]: one
    /// JSON object of string, integer, and boolean fields. Returns a
    /// description of the first problem found.
    pub fn parse_json(line: &str) -> Result<TraceEvent, String> {
        let value = json::parse(line)?;
        let fields = value.as_object().ok_or("not a JSON object")?;
        let get = |k: &str| fields.get(k).ok_or_else(|| format!("missing field `{k}`"));
        let num = |k: &str| -> Result<u64, String> {
            get(k)?
                .as_u64()
                .ok_or_else(|| format!("field `{k}` is not an integer"))
        };
        let string = |k: &str| -> Result<String, String> {
            get(k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("field `{k}` is not a string"))
        };
        let boolean = |k: &str| -> Result<bool, String> {
            get(k)?
                .as_bool()
                .ok_or_else(|| format!("field `{k}` is not a boolean"))
        };
        let op = |k: &str| -> Result<Op, String> {
            match string(k)?.as_str() {
                "read" => Ok(Op::Read),
                "write" => Ok(Op::Write),
                other => Err(format!("unknown op `{other}`")),
            }
        };
        let track = |k: &str| -> Result<u32, String> {
            u32::try_from(num(k)?).map_err(|_| format!("field `{k}` exceeds u32"))
        };

        let ev = string("ev")?;
        Ok(match ev.as_str() {
            "issue" => TraceEvent::Issue {
                req: num("req")?,
                t: num("t")?,
                op: op("op")?,
                lbn: num("lbn")?,
                len: num("len")?,
            },
            "queue" => TraceEvent::Queue {
                req: num("req")?,
                t: num("t")?,
                dur: num("dur")?,
            },
            "seek" => TraceEvent::Seek {
                req: num("req")?,
                t: num("t")?,
                dur: num("dur")?,
                from_cyl: track("from_cyl")?,
                to_cyl: track("to_cyl")?,
            },
            "head_switch" => TraceEvent::HeadSwitch {
                req: num("req")?,
                t: num("t")?,
                dur: num("dur")?,
            },
            "settle" => TraceEvent::Settle {
                req: num("req")?,
                t: num("t")?,
                dur: num("dur")?,
            },
            "rot_wait" => TraceEvent::RotWait {
                req: num("req")?,
                t: num("t")?,
                dur: num("dur")?,
                track: track("track")?,
            },
            "media" => TraceEvent::Media {
                req: num("req")?,
                t: num("t")?,
                dur: num("dur")?,
                track: track("track")?,
                sectors: num("sectors")?,
            },
            "cache_hit" => TraceEvent::CacheHit {
                req: num("req")?,
                t: num("t")?,
                lbn: num("lbn")?,
                len: num("len")?,
            },
            "cache_fill" => TraceEvent::CacheFill {
                req: num("req")?,
                t: num("t")?,
                start: num("start")?,
                end: num("end")?,
            },
            "bus" => TraceEvent::Bus {
                req: num("req")?,
                t: num("t")?,
                dur: num("dur")?,
                bytes: num("bytes")?,
            },
            "fault" => TraceEvent::Fault {
                req: num("req")?,
                t: num("t")?,
                dur: num("dur")?,
                kind: string("kind")?,
                lbn: num("lbn")?,
            },
            "scsi_command" => TraceEvent::ScsiCommand {
                t: num("t")?,
                dur: num("dur")?,
                kind: string("kind")?,
            },
            "complete" => TraceEvent::Complete {
                req: num("req")?,
                t: num("t")?,
                op: op("op")?,
                lbn: num("lbn")?,
                len: num("len")?,
                cache_hit: boolean("cache_hit")?,
                queue: num("queue")?,
                overhead: num("overhead")?,
                seek: num("seek")?,
                head_switch: num("head_switch")?,
                rot_latency: num("rot_latency")?,
                media: num("media")?,
                bus: num("bus")?,
                write_settle: num("write_settle")?,
                response: num("response")?,
            },
            other => return Err(format!("unknown event `{other}`")),
        })
    }
}

/// The kind tag of an otherwise well-formed JSONL line, whether or not
/// this library version recognizes it.
///
/// [`TraceEvent::parse_json`] rejects event kinds introduced after this
/// version, and rejects causal-span records (`{"span": ...}` lines from
/// `traxtent::obs::span`) outright. Report tooling uses this helper to
/// distinguish a well-formed line of an unrecognized kind — count it and
/// move on — from genuine corruption, which still marks the trace as
/// truncated. Returns the `ev` field's value, `span:<name>` for span
/// records, and `None` when the line is not an object carrying either
/// tag.
pub fn peek_event_name(line: &str) -> Option<String> {
    let value = json::parse(line).ok()?;
    let fields = value.as_object()?;
    let text_field = |wanted: &str| fields.get(wanted)?.as_str();
    text_field("ev")
        .map(str::to_string)
        .or_else(|| text_field("span").map(|name| format!("span:{name}")))
}

/// A consumer of trace events.
///
/// Implementations must tolerate events from multiple requests being
/// interleaved only at request granularity: the drive delivers each
/// request's events as one contiguous batch ending in
/// [`TraceEvent::Complete`].
pub trait TraceSink: Send {
    /// Consumes one event.
    fn record(&mut self, event: &TraceEvent);
    /// Flushes any buffered output (a no-op by default).
    fn flush(&mut self) {}
}

/// A shareable, thread-safe handle to a [`TraceSink`].
pub type SharedSink = Arc<Mutex<dyn TraceSink>>;

/// A cloneable tracing handle carried by drive configs and drives.
///
/// Cloning shares the underlying sink, so every drive built from a traced
/// [`crate::disk::DiskConfig`] appends to the same stream.
#[derive(Clone)]
pub struct Tracer(SharedSink);

impl Tracer {
    /// Wraps a shared sink.
    pub fn new(sink: SharedSink) -> Self {
        Tracer(sink)
    }

    /// Builds a tracer around any sink value.
    pub fn from_sink(sink: impl TraceSink + 'static) -> Self {
        Tracer(Arc::new(Mutex::new(sink)))
    }

    /// The shared sink, for attaching the same stream elsewhere.
    pub fn sink(&self) -> SharedSink {
        self.0.clone()
    }

    /// Records a batch of events under one lock acquisition.
    pub fn record_all(&self, events: &[TraceEvent]) {
        let mut sink = self.0.lock().expect("trace sink poisoned");
        for e in events {
            sink.record(e);
        }
    }

    /// Records a single event.
    pub fn record(&self, event: &TraceEvent) {
        self.0.lock().expect("trace sink poisoned").record(event);
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) {
        self.0.lock().expect("trace sink poisoned").flush();
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Tracer(..)")
    }
}

/// An in-memory sink collecting events into a `Vec` (tests, reports).
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Vec<TraceEvent>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// The events recorded so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// A sink writing one JSON object per line to any `Write` target.
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    out: BufWriter<W>,
}

impl JsonlSink<File> {
    /// Creates (truncating) `path` and writes the trace there.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonlSink::new(File::create(path)?))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(w: W) -> Self {
        JsonlSink {
            out: BufWriter::new(w),
        }
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        // I/O errors abort the run: a silently truncated trace is worse
        // than no trace.
        writeln!(self.out, "{}", event.to_json()).expect("trace write failed");
    }

    fn flush(&mut self) {
        self.out.flush().expect("trace flush failed");
    }
}

/// A sink forwarding every event to several sinks (e.g. a JSONL file plus
/// a span bridge).
pub struct Fanout(Vec<SharedSink>);

impl Fanout {
    /// Builds a fan-out over `sinks`.
    pub fn new(sinks: Vec<SharedSink>) -> Self {
        Fanout(sinks)
    }
}

impl TraceSink for Fanout {
    fn record(&mut self, event: &TraceEvent) {
        for s in &self.0 {
            s.lock().expect("fanout sink poisoned").record(event);
        }
    }

    fn flush(&mut self) {
        for s in &self.0 {
            s.lock().expect("fanout sink poisoned").flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traxtent::obs::span::Span;

    #[test]
    fn peek_event_name_reads_known_unknown_and_span_kinds() {
        assert_eq!(
            peek_event_name(r#"{"ev": "seek", "req": 1, "t": 2, "dur": 3, "cyls": 4}"#).as_deref(),
            Some("seek")
        );
        assert_eq!(
            peek_event_name(r#"{"ev": "from_the_future", "req": 1}"#).as_deref(),
            Some("from_the_future"),
            "unknown kinds are still identifiable"
        );
        assert_eq!(
            peek_event_name(
                r#"{"span":"vol_cmd","id":7,"parent":1,"track":2,"start":0,"end":9,"attrs":""}"#
            )
            .as_deref(),
            Some("span:vol_cmd")
        );
        // Escaped quotes and backslashes inside a string are legal JSON: a
        // span carrying them is still a span, not a truncated trace.
        let mut awkward = Span::new(7, 1, "vol_cmd", 2, 0, 9);
        awkward.push_attr("path", r#"a"b\c"#);
        let line = awkward.to_json();
        assert_eq!(Span::parse_json(&line).unwrap(), awkward);
        assert_eq!(peek_event_name(&line).as_deref(), Some("span:vol_cmd"));
        assert_eq!(peek_event_name("garbage"), None);
        assert_eq!(
            peek_event_name(r#"{"req": 1, "t": 2}"#),
            None,
            "no kind tag"
        );
    }

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Issue {
                req: 1,
                t: 2,
                op: Op::Read,
                lbn: 3,
                len: 4,
            },
            TraceEvent::Queue {
                req: 1,
                t: 2,
                dur: 3,
            },
            TraceEvent::Seek {
                req: 1,
                t: 5,
                dur: 6,
                from_cyl: 7,
                to_cyl: 8,
            },
            TraceEvent::HeadSwitch {
                req: 1,
                t: 9,
                dur: 10,
            },
            TraceEvent::Settle {
                req: 1,
                t: 11,
                dur: 12,
            },
            TraceEvent::RotWait {
                req: 1,
                t: 13,
                dur: 14,
                track: 15,
            },
            TraceEvent::Media {
                req: 1,
                t: 16,
                dur: 17,
                track: 18,
                sectors: 19,
            },
            TraceEvent::CacheHit {
                req: 1,
                t: 20,
                lbn: 21,
                len: 22,
            },
            TraceEvent::CacheFill {
                req: 1,
                t: 23,
                start: 24,
                end: 25,
            },
            TraceEvent::Bus {
                req: 1,
                t: 26,
                dur: 27,
                bytes: 28,
            },
            TraceEvent::Fault {
                req: 1,
                t: 28,
                dur: 29,
                kind: "media_retry".into(),
                lbn: 30,
            },
            TraceEvent::ScsiCommand {
                t: 29,
                dur: 30,
                kind: "mode_sense".into(),
            },
            TraceEvent::Complete {
                req: 1,
                t: 31,
                op: Op::Write,
                lbn: 32,
                len: 33,
                cache_hit: false,
                queue: 34,
                overhead: 35,
                seek: 36,
                head_switch: 37,
                rot_latency: 38,
                media: 39,
                bus: 40,
                write_settle: 41,
                response: 42,
            },
        ]
    }

    #[test]
    fn json_round_trips_every_variant() {
        for e in samples() {
            let line = e.to_json();
            let back = TraceEvent::parse_json(&line).unwrap_or_else(|err| {
                panic!("parse of {line} failed: {err}");
            });
            assert_eq!(e, back, "line {line}");
        }
    }

    #[test]
    fn json_is_one_flat_object_per_event() {
        for e in samples() {
            let line = e.to_json();
            assert!(line.starts_with(&format!("{{\"ev\":\"{}\"", e.name())));
            assert!(line.ends_with('}'));
            assert!(!line.contains('\n'));
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(TraceEvent::parse_json("").is_err());
        assert!(TraceEvent::parse_json("{}").is_err());
        assert!(TraceEvent::parse_json("{\"ev\":\"nope\"}").is_err());
        assert!(TraceEvent::parse_json("{\"ev\":\"queue\",\"req\":1}").is_err());
        assert!(TraceEvent::parse_json("{\"ev\":\"queue\",\"req\":-1,\"t\":0,\"dur\":0}").is_err());
        assert!(TraceEvent::parse_json("not json").is_err());
    }

    #[test]
    fn memory_sink_collects_and_drains() {
        let mut sink = MemorySink::new();
        for e in samples() {
            sink.record(&e);
        }
        assert_eq!(sink.events(), samples());
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        for e in samples() {
            sink.record(&e);
        }
        sink.flush();
        let text = String::from_utf8(sink.out.into_inner().unwrap()).unwrap();
        let parsed: Vec<TraceEvent> = text
            .lines()
            .map(|l| TraceEvent::parse_json(l).unwrap())
            .collect();
        assert_eq!(parsed, samples());
    }

    #[test]
    fn fanout_duplicates_events() {
        let a = Arc::new(Mutex::new(MemorySink::new()));
        let b = Arc::new(Mutex::new(MemorySink::new()));
        let mut f = Fanout::new(vec![a.clone(), b.clone()]);
        let e = samples().remove(0);
        f.record(&e);
        f.flush();
        assert_eq!(a.lock().unwrap().events(), std::slice::from_ref(&e));
        assert_eq!(b.lock().unwrap().events(), std::slice::from_ref(&e));
    }

    #[test]
    fn tracer_batches_under_one_lock() {
        let sink = Arc::new(Mutex::new(MemorySink::new()));
        let tracer = Tracer::new(sink.clone());
        tracer.record_all(&samples());
        tracer.flush();
        assert_eq!(sink.lock().unwrap().events(), samples().as_slice());
        assert_eq!(format!("{tracer:?}"), "Tracer(..)");
    }
}
