//! Causal spans on the simulated clock.
//!
//! A [`Span`] is one named interval of simulated time with a parent link,
//! so a request served through the whole stack — admission, scheduling,
//! volume fan-out, member service, drive phases — yields one connected
//! tree from arrival to media. Spans carry no wall-clock state at all:
//! start and end are simulated nanoseconds, and every id is a pure hash
//! of the run salt plus deterministic sequence numbers (request trace
//! index, scheduling round, drive request seq). Two runs with the same
//! seed therefore emit byte-identical span streams at any `--threads`.
//!
//! The [`SpanRecorder`] is the shared collection point: a cheap-to-clone
//! handle over one buffer, mirroring the `Tracer`/`TraceSink` idiom in
//! the drive engine. It also carries the *current causal context* — the
//! span id and member track that lower layers should parent their spans
//! under — as two atomics, so a `&SpanRecorder` threaded through
//! trait objects (e.g. a trace sink bridging drive events into spans)
//! can read the context without locking.
//!
//! Export targets:
//! * JSONL — one flat object per span via [`Span::to_json`], parsed back
//!   by [`Span::parse_json`];
//! * Chrome `trace_event` JSON via [`chrome_trace`] — loadable in
//!   Perfetto / `chrome://tracing`, with one "process" per volume member
//!   so member idle gaps are visible on the timeline.
//!
//! ```
//! use traxtent::obs::span::{self, Span, SpanRecorder};
//!
//! let rec = SpanRecorder::new();
//! rec.set_salt(0x5eed);
//! let id = span::derive_id(rec.salt(), span::kind::REQUEST, 7, 0);
//! let mut root = Span::new(id, 0, "request", 0, 1_000, 9_000);
//! root.push_attr("op", "read");
//! rec.record(root);
//! let spans = rec.take_sorted();
//! assert_eq!(span::validate(&spans).unwrap().roots, 1);
//! ```

use super::json;
use crate::hash::{mix64, GOLDEN_GAMMA};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Span-kind tags mixed into id derivation so spans of different kinds
/// keyed by the same sequence number never collide.
pub mod kind {
    /// Per-request root span: arrival → completion.
    pub const REQUEST: u32 = 1;
    /// Zero-length admission instant at arrival.
    pub const ADMIT: u32 = 2;
    /// Arrival → dispatch wait in the admission queue.
    pub const QUEUE_WAIT: u32 = 3;
    /// Dispatch → completion of the command serving this request.
    pub const DISPATCH: u32 = 4;
    /// Zero-length rejection instant at arrival (queue full).
    pub const REJECT: u32 = 5;
    /// One scheduler round: dispatch instant → last completion.
    pub const ROUND: u32 = 6;
    /// One logical volume command (fleet layer).
    pub const VOL_CMD: u32 = 7;
    /// One per-member physical command (fleet layer).
    pub const MEMBER_CMD: u32 = 8;
    /// RAID-5 / mirror reconstruction fan-out (fleet layer).
    pub const RECONSTRUCT: u32 = 9;
    /// One drive command as seen by `sim_disk` (issue → complete).
    pub const DISK_CMD: u32 = 10;
    /// One drive service phase (seek, settle, rotational wait, ...).
    pub const PHASE: u32 = 11;
}

/// Derives a deterministic span id from the run salt, a [`kind`] tag and
/// two caller-chosen sequence keys. The result is never zero (zero means
/// "no parent"), and distinct `(kind, k1, k2)` triples collide only with
/// the probability of a 64-bit hash collision.
pub fn derive_id(salt: u64, kind: u32, k1: u64, k2: u64) -> u64 {
    let mut x = mix64(salt ^ GOLDEN_GAMMA.wrapping_mul(u64::from(kind) + 1));
    x = mix64(x ^ k1);
    x = mix64(x ^ k2.wrapping_mul(0x2545_f491_4f6c_dd1d));
    if x == 0 {
        1
    } else {
        x
    }
}

/// One named interval of simulated time in a request's causal tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique nonzero id (see [`derive_id`]).
    pub id: u64,
    /// Parent span id, or `0` for a tree root.
    pub parent: u64,
    /// Span name — a fixed vocabulary (`request`, `vol_cmd`, `seek`, ...).
    pub name: String,
    /// Timeline lane: `0` is the server/host, `1 + m` is volume member `m`.
    pub track: u32,
    /// Start, simulated nanoseconds.
    pub start_ns: u64,
    /// End, simulated nanoseconds (`end_ns >= start_ns`).
    pub end_ns: u64,
    /// Flat `key=value` attributes joined by commas (empty when none).
    /// Keys and values use `[A-Za-z0-9_.:/+-]` only, so the encoding is
    /// unambiguous.
    pub attrs: String,
}

impl Span {
    /// A span with no attributes.
    pub fn new(id: u64, parent: u64, name: &str, track: u32, start_ns: u64, end_ns: u64) -> Self {
        Span {
            id,
            parent,
            name: name.to_string(),
            track,
            start_ns,
            end_ns,
            attrs: String::new(),
        }
    }

    /// Appends one `key=value` attribute.
    pub fn push_attr(&mut self, key: &str, value: impl std::fmt::Display) {
        if !self.attrs.is_empty() {
            self.attrs.push(',');
        }
        let _ = write!(self.attrs, "{key}={value}");
    }

    /// Span duration in simulated nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The span as one flat JSON object (one JSONL line, no newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"span\":");
        json::write_string(&mut out, &self.name);
        let _ = write!(
            out,
            ",\"id\":{},\"parent\":{},\"track\":{},\"start\":{},\"end\":{},\"attrs\":",
            self.id, self.parent, self.track, self.start_ns, self.end_ns,
        );
        json::write_string(&mut out, &self.attrs);
        out.push('}');
        out
    }

    /// Parses one line produced by [`Span::to_json`].
    pub fn parse_json(line: &str) -> Result<Span, String> {
        let value = json::parse(line)?;
        let fields = value.as_object().ok_or("span line is not a JSON object")?;
        let get = |key: &str| {
            fields
                .get(key)
                .ok_or_else(|| format!("span line missing `{key}`"))
        };
        let num = |key: &str| -> Result<u64, String> {
            get(key)?
                .as_u64()
                .ok_or_else(|| format!("span field `{key}` should be a number"))
        };
        let text = |key: &str| -> Result<String, String> {
            get(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("span field `{key}` should be a string"))
        };
        let span = Span {
            name: text("span")?,
            id: num("id")?,
            parent: num("parent")?,
            track: u32::try_from(num("track")?).map_err(|_| "track out of range".to_string())?,
            start_ns: num("start")?,
            end_ns: num("end")?,
            attrs: text("attrs")?,
        };
        if span.id == 0 {
            return Err("span id must be nonzero".to_string());
        }
        Ok(span)
    }

    /// The value of attribute `key`, if present.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.split(',').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// The shared span collection point: cheap-to-clone handle over one
/// buffer plus the current causal context (parent span id + member
/// track) read by lower layers.
#[derive(Debug, Clone, Default)]
pub struct SpanRecorder {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    buf: Mutex<Vec<Span>>,
    ctx_parent: AtomicU64,
    ctx_track: AtomicU32,
    salt: AtomicU64,
}

impl SpanRecorder {
    /// An empty recorder with salt 0 and no context.
    pub fn new() -> Self {
        SpanRecorder::default()
    }

    /// Sets the id-derivation salt for the spans recorded next (typically
    /// a hash of the experiment cell's parameters).
    pub fn set_salt(&self, salt: u64) {
        self.inner.salt.store(salt, Ordering::Relaxed);
    }

    /// The current id-derivation salt.
    pub fn salt(&self) -> u64 {
        self.inner.salt.load(Ordering::Relaxed)
    }

    /// Sets the causal context: spans created by lower layers parent
    /// under `parent` and default to timeline lane `track`.
    pub fn set_context(&self, parent: u64, track: u32) {
        self.inner.ctx_parent.store(parent, Ordering::Relaxed);
        self.inner.ctx_track.store(track, Ordering::Relaxed);
    }

    /// Clears the causal context (parent 0 means "do not attribute").
    pub fn clear_context(&self) {
        self.set_context(0, 0);
    }

    /// The current `(parent span id, track)` context.
    pub fn context(&self) -> (u64, u32) {
        (
            self.inner.ctx_parent.load(Ordering::Relaxed),
            self.inner.ctx_track.load(Ordering::Relaxed),
        )
    }

    /// Records one span.
    pub fn record(&self, span: Span) {
        self.buf().push(span);
    }

    /// Records a batch under one lock acquisition, draining `spans`.
    pub fn record_all(&self, spans: &mut Vec<Span>) {
        if spans.is_empty() {
            return;
        }
        self.buf().append(spans);
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.buf().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the buffer sorted by `(start_ns, id)` — a deterministic
    /// total order because ids are unique.
    pub fn take_sorted(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.buf());
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// The span buffer. A push or an append completes or aborts, so a
    /// panic elsewhere cannot leave it half updated and a poisoned lock is
    /// taken as is.
    fn buf(&self) -> MutexGuard<'_, Vec<Span>> {
        self.inner
            .buf
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Structural facts about a validated span set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Total span count.
    pub spans: usize,
    /// Spans with `parent == 0`.
    pub roots: usize,
    /// Longest root-to-leaf chain (a lone root has depth 1).
    pub max_depth: usize,
}

/// Checks that `spans` form well-founded trees: ids unique and nonzero,
/// every nonzero parent id present, `end >= start`, no parent cycles.
/// Returns tree statistics on success.
pub fn validate(spans: &[Span]) -> Result<TreeStats, String> {
    let mut parents: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.id == 0 {
            return Err(format!("span `{}` has id 0", s.name));
        }
        if s.end_ns < s.start_ns {
            return Err(format!(
                "span `{}` ({:#x}) ends before it starts ({} < {})",
                s.name, s.id, s.end_ns, s.start_ns
            ));
        }
        if parents.insert(s.id, s.parent).is_some() {
            return Err(format!("duplicate span id {:#x} (`{}`)", s.id, s.name));
        }
    }
    for s in spans {
        if s.parent != 0 && !parents.contains_key(&s.parent) {
            return Err(format!(
                "span `{}` ({:#x}) references missing parent {:#x}",
                s.name, s.id, s.parent
            ));
        }
    }
    let mut roots = 0;
    let mut max_depth = 0;
    for s in spans {
        if s.parent == 0 {
            roots += 1;
        }
        let mut depth = 1usize;
        let mut at = s.parent;
        while at != 0 {
            depth += 1;
            if depth > spans.len() {
                return Err(format!("parent cycle reached from span {:#x}", s.id));
            }
            at = parents[&at];
        }
        max_depth = max_depth.max(depth);
    }
    Ok(TreeStats {
        spans: spans.len(),
        roots,
        max_depth,
    })
}

/// Renders spans as a Chrome `trace_event` JSON document (the
/// `{"traceEvents": [...]}` form loadable in Perfetto and
/// `chrome://tracing`). Each track becomes its own "process" — pid 1 is
/// the server/host lane, pid `2 + m` is volume member `m` — so member
/// idle gaps are visible side by side. Timestamps are microseconds with
/// nanosecond fractions.
pub fn chrome_trace(spans: &[Span]) -> String {
    let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
    let mut tracks: Vec<u32> = spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(&ev);
    };
    for t in &tracks {
        let pname = if *t == 0 {
            "server".to_string()
        } else {
            format!("member {}", t - 1)
        };
        push(&mut out, format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":1,\"args\":{{\"name\":\"{}\"}}}}",
            t + 1,
            pname
        ));
    }
    for s in spans {
        push(&mut out, format!(
            "{{\"name\":{},\"ph\":\"X\",\"pid\":{},\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{\"id\":\"{:#x}\",\"parent\":\"{:#x}\",\"attrs\":{}}}}}",
            json::string(&s.name),
            s.track + 1,
            us(s.start_ns),
            us(s.duration_ns()),
            s.id,
            s.parent,
            json::string(&s.attrs),
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ids_are_deterministic_distinct_and_nonzero() {
        let a = derive_id(7, kind::REQUEST, 3, 0);
        assert_eq!(a, derive_id(7, kind::REQUEST, 3, 0));
        assert_ne!(a, derive_id(7, kind::DISPATCH, 3, 0), "kind separates");
        assert_ne!(a, derive_id(7, kind::REQUEST, 4, 0), "key separates");
        assert_ne!(a, derive_id(8, kind::REQUEST, 3, 0), "salt separates");
        for k in 0..4096u64 {
            assert_ne!(derive_id(0, kind::PHASE, k, k ^ 1), 0);
        }
    }

    #[test]
    fn attrs_append_and_read_back() {
        let mut s = Span::new(1, 0, "request", 0, 10, 20);
        s.push_attr("op", "read");
        s.push_attr("lbn", 4096);
        assert_eq!(s.attrs, "op=read,lbn=4096");
        assert_eq!(s.attr("op"), Some("read"));
        assert_eq!(s.attr("lbn"), Some("4096"));
        assert_eq!(s.attr("missing"), None);
        assert_eq!(s.duration_ns(), 10);
    }

    #[test]
    fn jsonl_round_trip() {
        let mut s = Span::new(
            derive_id(1, kind::VOL_CMD, 9, 2),
            42,
            "vol_cmd",
            3,
            100,
            250,
        );
        s.push_attr("mode", "rmw");
        let line = s.to_json();
        assert_eq!(Span::parse_json(&line).unwrap(), s);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Span::parse_json("not json").is_err());
        assert!(
            Span::parse_json("{\"span\":\"x\"}").is_err(),
            "missing fields"
        );
        let zero = "{\"span\":\"x\",\"id\":0,\"parent\":0,\"track\":0,\"start\":0,\"end\":0,\"attrs\":\"\"}";
        assert!(Span::parse_json(zero).is_err(), "zero id");
        let stringy =
            "{\"span\":\"x\",\"id\":\"1\",\"parent\":0,\"track\":0,\"start\":0,\"end\":0,\"attrs\":\"\"}";
        assert!(Span::parse_json(stringy).is_err(), "id must be numeric");
    }

    #[test]
    fn recorder_context_and_sorted_drain() {
        let rec = SpanRecorder::new();
        assert_eq!(rec.context(), (0, 0));
        rec.set_context(99, 2);
        assert_eq!(rec.context(), (99, 2));
        rec.clear_context();
        assert_eq!(rec.context(), (0, 0));

        rec.record(Span::new(2, 1, "b", 0, 50, 60));
        rec.record(Span::new(1, 0, "a", 0, 10, 70));
        let mut batch = vec![Span::new(3, 1, "c", 0, 50, 55)];
        rec.record_all(&mut batch);
        assert!(batch.is_empty());
        assert_eq!(rec.len(), 3);
        let spans = rec.take_sorted();
        let ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, [1, 2, 3], "sorted by (start, id)");
        assert!(rec.is_empty());
    }

    #[test]
    fn validate_accepts_trees_and_reports_stats() {
        let spans = vec![
            Span::new(1, 0, "request", 0, 0, 100),
            Span::new(2, 1, "dispatch", 0, 10, 100),
            Span::new(3, 2, "disk_cmd", 1, 10, 90),
            Span::new(4, 0, "round", 0, 10, 100),
        ];
        let stats = validate(&spans).unwrap();
        assert_eq!(stats.spans, 4);
        assert_eq!(stats.roots, 2);
        assert_eq!(stats.max_depth, 3);
    }

    #[test]
    fn validate_rejects_broken_trees() {
        let orphan = vec![Span::new(1, 77, "x", 0, 0, 1)];
        assert!(validate(&orphan).unwrap_err().contains("missing parent"));
        let backwards = vec![Span::new(1, 0, "x", 0, 10, 5)];
        assert!(validate(&backwards).unwrap_err().contains("ends before"));
        let dup = vec![Span::new(1, 0, "x", 0, 0, 1), Span::new(1, 0, "y", 0, 0, 1)];
        assert!(validate(&dup).unwrap_err().contains("duplicate"));
        let cycle = vec![Span::new(1, 2, "x", 0, 0, 1), Span::new(2, 1, "y", 0, 0, 1)];
        assert!(validate(&cycle).unwrap_err().contains("cycle"));
    }

    #[test]
    fn chrome_trace_lists_processes_and_events() {
        let spans = vec![
            Span::new(1, 0, "request", 0, 1500, 4500),
            Span::new(2, 1, "disk_cmd", 2, 1500, 4000),
        ];
        let doc = chrome_trace(&spans);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"name\":\"server\""), "{doc}");
        assert!(doc.contains("\"name\":\"member 1\""), "{doc}");
        assert!(doc.contains("\"ts\":1.500"), "µs with ns fraction: {doc}");
        assert!(doc.contains("\"dur\":3.000"), "{doc}");
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.trim_end().ends_with("]}"));
    }
}
