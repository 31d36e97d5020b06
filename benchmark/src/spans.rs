//! Benchmark-owned host-time spans around the calls into each layer.
//!
//! The program under test is not instrumented: a span opens in the
//! benchmark just before it calls a crate's public function and closes
//! when the call returns. Spans nest (a `serve` span contains one span per
//! backend round), live in memory, and are written out only when the
//! benchmark ends.

use server::Backend;
use sim_disk::disk::Request;
use sim_disk::{Completion, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span on the host's monotonic clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The crate that did the work the span covers (`server`, `fleet`, …);
    /// `bench` for the benchmark's own glue.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans for one pass over a workload. Single-threaded, like the
/// simulator it watches.
pub struct Spans {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: Cell<Option<u32>>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: Cell::new(None),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` charged to `layer`.
    pub fn scope<R>(&self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = self.open.get();
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                layer,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            (spans.len() - 1) as u32
        };
        self.open.set(Some(id));
        let r = f();
        self.spans.borrow_mut()[id as usize].end_ns = self.now_ns();
        self.open.set(parent);
        r
    }

    pub fn into_vec(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Host nanoseconds each layer spent in its own code: every span's
/// duration minus the part its child spans cover, summed per layer. The
/// values add up to the total duration of the root spans by construction.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, i64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize] += s.duration_ns();
        }
    }
    let mut by_layer = BTreeMap::new();
    for (s, covered) in spans.iter().zip(children) {
        *by_layer.entry(s.layer).or_insert(0) += s.duration_ns() as i64 - covered as i64;
    }
    by_layer
}

/// Moves `ns` of host time from the layer whose spans contained the drive
/// calls to `sim_disk`: the drive was priced separately, by replaying its
/// captured command stream on a bare disk, and that price is taken out of
/// the innermost wrapper that contained it. The total is unchanged.
pub fn carve_out_drive(by_layer: &mut BTreeMap<&'static str, i64>, owner: &'static str, ns: u64) {
    *by_layer.entry(owner).or_insert(0) -= ns as i64;
    *by_layer.entry("sim_disk").or_insert(0) += ns as i64;
}

/// Writes spans as JSON lines: `name, layer, start_ns, end_ns, parent,
/// workload, rep`.
pub fn write_jsonl(
    out: &mut impl Write,
    spans: &[Span],
    workload: &str,
    rep: usize,
) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{workload}\",\"rep\":{rep}}}",
            s.name, s.layer, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

/// A [`Backend`] that times every round the server hands to the backend
/// it wraps, and counts rounds and commands.
pub struct Timed<'a, B: Backend> {
    inner: &'a mut B,
    spans: &'a Spans,
    layer: &'static str,
    pub rounds: u64,
    pub cmds: u64,
}

impl<'a, B: Backend> Timed<'a, B> {
    /// `layer` is the crate that owns `inner` — `fleet` for a volume; a
    /// bare disk has no layer of its own between the server and the drive,
    /// so its rounds are charged to `server` until replay carves the drive
    /// out.
    pub fn new(inner: &'a mut B, spans: &'a Spans, layer: &'static str) -> Self {
        Timed {
            inner,
            spans,
            layer,
            rounds: 0,
            cmds: 0,
        }
    }
}

impl<B: Backend> Backend for Timed<'_, B> {
    fn capacity_lbns(&self) -> u64 {
        self.inner.capacity_lbns()
    }

    fn service_batch_into(&mut self, batch: &[(Request, SimTime)], out: &mut Vec<Completion>) {
        self.rounds += 1;
        self.cmds += batch.len() as u64;
        let inner = &mut *self.inner;
        self.spans
            .scope("backend.service_batch_into", self.layer, || {
                inner.service_batch_into(batch, out)
            });
    }

    fn member_busy_ns(&self) -> Vec<u64> {
        self.inner.member_busy_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: "t",
            layer,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_sums_to_the_root() {
        let spans = vec![
            span("bench", 0, 1000, None),
            span("server", 100, 900, Some(0)),
            span("fleet", 200, 400, Some(1)),
            span("fleet", 500, 800, Some(1)),
            span("ffs", 910, 950, Some(0)),
        ];
        let by = self_ns_by_layer(&spans);
        assert_eq!(by["bench"], 1000 - 800 - 40);
        assert_eq!(by["server"], 800 - 200 - 300);
        assert_eq!(by["fleet"], 500);
        assert_eq!(by["ffs"], 40);
        assert_eq!(by.values().sum::<i64>(), 1000);
    }

    #[test]
    fn carving_out_the_drive_keeps_the_total() {
        let spans = vec![span("bench", 0, 100, None), span("fleet", 10, 90, Some(0))];
        let mut by = self_ns_by_layer(&spans);
        carve_out_drive(&mut by, "fleet", 50);
        assert_eq!((by["fleet"], by["sim_disk"], by["bench"]), (30, 50, 20));
        assert_eq!(by.values().sum::<i64>(), 100);
    }

    #[test]
    fn scopes_nest_and_restore_their_parent() {
        let spans = Spans::new();
        spans.scope("root", "bench", || {
            spans.scope("a", "server", || spans.scope("b", "fleet", || ()));
            spans.scope("c", "ffs", || ());
        });
        let v = spans.into_vec();
        let parents: Vec<_> = v.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("root", None),
                ("a", Some(0)),
                ("b", Some(1)),
                ("c", Some(0))
            ]
        );
        assert!(v.iter().all(|s| s.end_ns >= s.start_ns));
        let mut line = Vec::new();
        write_jsonl(&mut line, &v[..1], "w", 3).unwrap();
        let text = String::from_utf8(line).unwrap();
        assert!(text.starts_with("{\"name\":\"root\",\"layer\":\"bench\""));
        assert!(text.ends_with("\"parent\":null,\"workload\":\"w\",\"rep\":3}\n"));
    }
}
