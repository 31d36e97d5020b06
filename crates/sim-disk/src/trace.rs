//! Opt-in, request-level mechanical event tracing.
//!
//! Every serviced request can emit a stream of [`TraceEvent`]s into a
//! [`TraceSink`]: an `issue`, one [`Phase`] record per service phase that
//! actually occurs (a zero-distance seek or an unqueued request emits
//! nothing), and a closing per-request `complete` summary. Tracing is
//! **disabled by default** and costs nothing when off: the drive checks a
//! single `Option` per request and a boolean per phase; no events are
//! constructed and no locks are taken.
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
//! # Phases
//!
//! A phase line is `{"ev":<name>,"req":..,"t":..}`, then `"dur"` where the
//! phase has a length, then the phase's own fields. [`PHASE_EVENTS`] is
//! this table; `t` is the instant the phase starts.
//!
//! | `ev` | `dur` | fields | what it is |
//! |---|---|---|---|
//! | `queue` | yes | | wait for the mechanism to finish the previous command |
//! | `seek` | yes | `from_cyl`, `to_cyl` | arm movement between cylinders |
//! | `head_switch` | yes | | switch between surfaces of one cylinder |
//! | `settle` | yes | | extra settle charged before a media write |
//! | `rot_wait` | yes | `track` | rotational wait for a visit's first sector on global track `track` |
//! | `media` | yes | `track`, `sectors` | one mechanical visit's media transfer |
//! | `cache_hit` | no | `lbn`, `len` | a read served entirely from the firmware cache |
//! | `cache_fill` | no | `start`, `end` | sectors `[start, end)` are now cached (read-ahead included) |
//! | `bus` | yes | `bytes` | un-overlapped bus time (`bytes` is 0 for a write-data stall) |
//! | `fault` | yes | `kind`, `lbn` | an injected fault ([`crate::fault`]) striking `lbn`; `dur` is the recovery charged |
//!
//! `from_cyl`, `to_cyl` and `track` fit in `u32`. A fault's `kind` is the
//! one text field: `media_retry`, `grown_defect`, `grown_defect_unspared`,
//! `transient_retry` or `transient_abort`.
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
use std::sync::{Arc, Mutex, MutexGuard};
use traxtent::obs::json;

pub use crate::obs::DiskSpanBridge;

/// Every phase kind: its `ev` name, whether its line carries `dur`, and
/// its own fields in line order (the table in the [module docs](self)).
pub const PHASE_EVENTS: [(&str, bool, &[&str]); 10] = [
    ("queue", true, &[]),
    ("seek", true, &["from_cyl", "to_cyl"]),
    ("head_switch", true, &[]),
    ("settle", true, &[]),
    ("rot_wait", true, &["track"]),
    ("media", true, &["track", "sectors"]),
    ("cache_hit", false, &["lbn", "len"]),
    ("cache_fill", false, &["start", "end"]),
    ("bus", true, &["bytes"]),
    ("fault", true, &["kind", "lbn"]),
];

/// One service phase of one request, shaped like the span it becomes.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// The [`PHASE_EVENTS`] name.
    pub name: &'static str,
    /// Request sequence number.
    pub req: u64,
    /// Phase start, ns.
    pub t: u64,
    /// Phase length, ns, for the phases that have one.
    pub dur: Option<u64>,
    /// The phase's own fields, in [`PHASE_EVENTS`] order.
    pub attrs: Vec<(&'static str, Value)>,
}

/// A phase field's value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A count, an address or an instant.
    Num(u64),
    /// A fault's kind.
    Text(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(n) => n.fmt(f),
            Value::Text(s) => f.write_str(s),
        }
    }
}

/// One event in a request's service timeline.
///
/// `req` is the drive-assigned request sequence number (monotonic per
/// drive, starting at 0); `t` is the instant the event starts, in
/// nanoseconds.
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
    /// One service phase (a row of [`PHASE_EVENTS`]).
    Phase(Phase),
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
            TraceEvent::Phase(p) => p.name,
            TraceEvent::ScsiCommand { .. } => "scsi_command",
            TraceEvent::Complete { .. } => "complete",
        }
    }

    /// The request sequence number, for events tied to one request.
    pub fn req(&self) -> Option<u64> {
        match *self {
            TraceEvent::Issue { req, .. }
            | TraceEvent::Phase(Phase { req, .. })
            | TraceEvent::Complete { req, .. } => Some(req),
            TraceEvent::ScsiCommand { .. } => None,
        }
    }

    /// The instant (ns) the event starts.
    pub fn time_ns(&self) -> u64 {
        match *self {
            TraceEvent::Issue { t, .. }
            | TraceEvent::Phase(Phase { t, .. })
            | TraceEvent::ScsiCommand { t, .. }
            | TraceEvent::Complete { t, .. } => t,
        }
    }

    /// Serializes the event as one flat JSON object (no trailing newline).
    ///
    /// The first field is always `"ev"` with the [`TraceEvent::name`];
    /// remaining fields are the variant's fields in declaration order (a
    /// phase's as the [module docs](self) list them).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"ev\":\"");
        s.push_str(self.name());
        s.push('"');
        let key = |s: &mut String, k: &str| {
            s.push_str(",\"");
            s.push_str(k);
            s.push_str("\":");
        };
        let num = |s: &mut String, k: &str, v: u64| {
            key(s, k);
            s.push_str(&v.to_string());
        };
        let text = |s: &mut String, k: &str, v: &str| {
            key(s, k);
            json::write_string(s, v);
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
                text(&mut s, "op", op.as_str());
                num(&mut s, "lbn", *lbn);
                num(&mut s, "len", *len);
            }
            TraceEvent::Phase(p) => {
                num(&mut s, "req", p.req);
                num(&mut s, "t", p.t);
                if let Some(dur) = p.dur {
                    num(&mut s, "dur", dur);
                }
                for (k, v) in &p.attrs {
                    match v {
                        Value::Num(n) => num(&mut s, k, *n),
                        Value::Text(x) => text(&mut s, k, x),
                    }
                }
            }
            TraceEvent::ScsiCommand { t, dur, kind } => {
                num(&mut s, "t", *t);
                num(&mut s, "dur", *dur);
                text(&mut s, "kind", kind);
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
                text(&mut s, "op", op.as_str());
                num(&mut s, "lbn", *lbn);
                num(&mut s, "len", *len);
                key(&mut s, "cache_hit");
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
        let field = |k: &'static str| -> Result<(&'static str, Value), String> {
            let v = match k {
                "kind" => Value::Text(string(k)?),
                "from_cyl" | "to_cyl" | "track" => {
                    let n = num(k)?;
                    u32::try_from(n).map_err(|_| format!("field `{k}` exceeds u32"))?;
                    Value::Num(n)
                }
                _ => Value::Num(num(k)?),
            };
            Ok((k, v))
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
            other => {
                let Some(&(name, has_dur, keys)) = PHASE_EVENTS.iter().find(|r| r.0 == other)
                else {
                    return Err(format!("unknown event `{other}`"));
                };
                TraceEvent::Phase(Phase {
                    name,
                    req: num("req")?,
                    t: num("t")?,
                    dur: has_dur.then(|| num("dur")).transpose()?,
                    attrs: keys.iter().copied().map(field).collect::<Result<_, _>>()?,
                })
            }
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

/// The sink behind `shared`.
#[expect(
    clippy::expect_used,
    reason = "a sink panics only when a write fails, and a trace missing a line is worse \
              than no trace, so every later use of a poisoned sink fails too"
)]
fn lock(shared: &SharedSink) -> MutexGuard<'_, dyn TraceSink + 'static> {
    shared.lock().expect("trace sink poisoned")
}

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
        let mut sink = lock(&self.0);
        for e in events {
            sink.record(e);
        }
    }

    /// Records a single event.
    pub fn record(&self, event: &TraceEvent) {
        lock(&self.0).record(event);
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) {
        lock(&self.0).flush();
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

#[expect(
    clippy::expect_used,
    reason = "I/O errors abort the run: a silently truncated trace is worse than no trace"
)]
impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
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
            lock(s).record(event);
        }
    }

    fn flush(&mut self) {
        for s in &self.0 {
            lock(s).flush();
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
        let phase = |name, t, dur, attrs| {
            TraceEvent::Phase(Phase {
                name,
                req: 1,
                t,
                dur,
                attrs,
            })
        };
        let n = Value::Num;
        vec![
            TraceEvent::Issue {
                req: 1,
                t: 2,
                op: Op::Read,
                lbn: 3,
                len: 4,
            },
            phase("queue", 2, Some(3), vec![]),
            phase(
                "seek",
                5,
                Some(6),
                vec![("from_cyl", n(7)), ("to_cyl", n(8))],
            ),
            phase("head_switch", 9, Some(10), vec![]),
            phase("settle", 11, Some(12), vec![]),
            phase("rot_wait", 13, Some(14), vec![("track", n(15))]),
            phase(
                "media",
                16,
                Some(17),
                vec![("track", n(18)), ("sectors", n(19))],
            ),
            phase("cache_hit", 20, None, vec![("lbn", n(21)), ("len", n(22))]),
            phase(
                "cache_fill",
                23,
                None,
                vec![("start", n(24)), ("end", n(25))],
            ),
            phase("bus", 26, Some(27), vec![("bytes", n(28))]),
            phase(
                "fault",
                28,
                Some(29),
                vec![("kind", Value::Text("media_retry".into())), ("lbn", n(30))],
            ),
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
            assert_eq!(TraceEvent::parse_json(&line), Ok(e), "line {line}");
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
        let wide = r#"{"ev":"rot_wait","req":1,"t":0,"dur":0,"track":4294967296}"#;
        assert!(TraceEvent::parse_json(wide).is_err_and(|e| e.contains("exceeds u32")));
        assert!(TraceEvent::parse_json(r#"{"ev":"queue","req":1,"t":0}"#).is_err());
        // A `dur` on a phase without one is ignored, like any other
        // field the kind does not name.
        let stray = r#"{"ev":"cache_hit","req":1,"t":0,"dur":5,"lbn":2,"len":3}"#;
        assert_eq!(
            TraceEvent::parse_json(stray)
                .map(|e| e.to_json())
                .as_deref(),
            Ok(r#"{"ev":"cache_hit","req":1,"t":0,"lbn":2,"len":3}"#)
        );
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
