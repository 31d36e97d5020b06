//! Latency-breakdown metrics: log-linear histograms aggregated per service
//! phase.
//!
//! [`MetricsRegistry`] is a [`TraceSink`] that folds the closing
//! [`TraceEvent::Complete`] summary of every request into one
//! [`Histogram`] per phase (queue, overhead, seek, head switch, rotational
//! latency, media, bus, write settle) plus the end-to-end response time,
//! and counts reads, writes, and cache hits. Attach it directly as a
//! drive's sink, or fan it out next to a JSONL file sink with
//! [`crate::trace::Fanout`].
//!
//! ```
//! use std::sync::{Arc, Mutex};
//! use sim_disk::metrics::MetricsRegistry;
//! use sim_disk::trace::Tracer;
//! use sim_disk::disk::{Disk, Request};
//! use sim_disk::{models, SimTime};
//!
//! let reg = Arc::new(Mutex::new(MetricsRegistry::new()));
//! let mut cfg = models::small_test_disk();
//! cfg.tracer = Some(Tracer::new(reg.clone()));
//! let mut disk = Disk::new(cfg);
//! disk.service(Request::read(0, 64), SimTime::ZERO);
//! let reg = reg.lock().unwrap();
//! assert_eq!(reg.requests(), 1);
//! assert!(reg.phase("response").unwrap().mean_ns() > 0.0);
//! ```

use crate::request::Op;
use crate::trace::{TraceEvent, TraceSink};
use std::fmt::Write as _;

/// Sub-buckets per power of two — 16 gives ≤ 6.25 % relative quantization
/// error on recorded values.
const SUB_BUCKETS: u64 = 16;
const SUB_SHIFT: u32 = 4;
/// Bucket count covering the full `u64` nanosecond range: values below
/// `SUB_BUCKETS` map one-to-one, larger values log-linearly.
const BUCKETS: usize = (SUB_BUCKETS as usize) * (64 - SUB_SHIFT as usize + 1);

/// A log-linear latency histogram over nanosecond durations.
///
/// Values are bucketed with 16 linear sub-buckets per power of two (an
/// HDR-histogram-style layout), so percentile estimates carry at most
/// ~6 % relative error while the whole structure stays a flat `u64` array
/// with O(1) insertion — cheap enough to sit on the trace hot path.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("mean_ns", &self.mean_ns())
            .field("max_ns", &self.max_ns)
            .finish()
    }
}

/// The bucket index for a nanosecond value.
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    // With 2^e ≤ v < 2^(e+1), the range is split into 16 sub-buckets of
    // width 2^(e-4); rows are contiguous, so row e starts at (e-3)·16.
    let e = 63 - v.leading_zeros();
    let row = e - (SUB_SHIFT - 1);
    let sub = (v >> (e - SUB_SHIFT)) - SUB_BUCKETS;
    (row as usize) * SUB_BUCKETS as usize + sub as usize
}

/// The upper edge of a bucket: the largest value mapping to this index.
fn bucket_value(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB_BUCKETS {
        return idx;
    }
    let row = (idx / SUB_BUCKETS) as u32;
    let sub = idx % SUB_BUCKETS;
    let shift = row - 1; // = e - SUB_SHIFT
    ((SUB_BUCKETS + sub) << shift) + ((1u64 << shift) - 1)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one duration, in nanoseconds.
    pub fn observe(&mut self, ns: u64) {
        self.counts[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values, in nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Exact mean of recorded values, in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Exact minimum recorded value, in nanoseconds (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Exact maximum recorded value, in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The `q`-quantile (0.0 ≤ `q` ≤ 1.0) of recorded values, in
    /// nanoseconds, to bucket resolution (≤ ~6 % relative error). Returns 0
    /// when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target value, 1-based; q = 1.0 must land on the last
        // recorded value.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp the bucket's upper edge to the true max so p100
                // never overshoots.
                return bucket_value(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// The per-phase histogram names reported by [`MetricsRegistry`], in
/// report order. `"response"` is the host-observed end-to-end time; the
/// other eight are its additive components.
pub const PHASES: [&str; 9] = [
    "queue",
    "overhead",
    "seek",
    "head_switch",
    "rot_latency",
    "media",
    "bus",
    "write_settle",
    "response",
];

/// Aggregates per-request [`TraceEvent::Complete`] summaries into
/// per-phase latency histograms and request counters.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    phases: [Histogram; 9],
    reads: u64,
    writes: u64,
    cache_hits: u64,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Folds one request summary into the registry.
    pub fn observe_complete(&mut self, event: &TraceEvent) {
        if let TraceEvent::Complete {
            op,
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
        } = *event
        {
            let values = [
                queue,
                overhead,
                seek,
                head_switch,
                rot_latency,
                media,
                bus,
                write_settle,
                response,
            ];
            for (h, v) in self.phases.iter_mut().zip(values) {
                h.observe(v);
            }
            match op {
                Op::Read => self.reads += 1,
                Op::Write => self.writes += 1,
            }
            if cache_hit {
                self.cache_hits += 1;
            }
        }
    }

    /// The histogram for a phase name from [`PHASES`].
    pub fn phase(&self, name: &str) -> Option<&Histogram> {
        PHASES
            .iter()
            .position(|p| *p == name)
            .map(|i| &self.phases[i])
    }

    /// Total requests observed.
    pub fn requests(&self) -> u64 {
        self.reads + self.writes
    }

    /// Reads observed.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Merges another registry into this one.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (a, b) in self.phases.iter_mut().zip(other.phases.iter()) {
            a.merge(b);
        }
        self.reads += other.reads;
        self.writes += other.writes;
        self.cache_hits += other.cache_hits;
    }

    /// Renders the registry as a fixed-width per-phase latency table
    /// (milliseconds), one row per [`PHASES`] entry, ending with a request
    /// count line. Empty phases (no nonzero samples) still appear so the
    /// output shape is stable.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<13} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "phase", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"
        );
        let ms = |ns: f64| ns / 1e6;
        for (name, h) in PHASES.iter().zip(self.phases.iter()) {
            let _ = writeln!(
                out,
                "{:<13} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
                name,
                ms(h.mean_ns()),
                ms(h.percentile(0.50) as f64),
                ms(h.percentile(0.95) as f64),
                ms(h.percentile(0.99) as f64),
                ms(h.max_ns() as f64),
            );
        }
        let _ = writeln!(
            out,
            "requests {} (reads {}, writes {}, cache hits {})",
            self.requests(),
            self.reads,
            self.writes,
            self.cache_hits
        );
        out
    }
}

impl TraceSink for MetricsRegistry {
    fn record(&mut self, event: &TraceEvent) {
        self.observe_complete(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut values: Vec<u64> = (0..64u32)
            .flat_map(|s| {
                [0u64, 1, 3]
                    .into_iter()
                    .map(move |off| (1u64 << s).saturating_add(off << s.saturating_sub(3)))
            })
            .chain([0, u64::MAX])
            .collect();
        values.sort_unstable();
        let mut prev = 0usize;
        for v in values {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "v={v} idx={idx}");
            assert!(idx >= prev, "index not monotone at v={v}");
            prev = idx;
        }
    }

    #[test]
    fn bucket_value_bounds_its_bucket() {
        for v in [0u64, 1, 15, 16, 17, 100, 1_000, 123_456, u32::MAX as u64] {
            let idx = bucket_index(v);
            let rep = bucket_value(idx);
            // The representative is the bucket's upper edge: at least v,
            // and within 1/16 relative error of it.
            assert!(rep >= v, "rep {rep} < v {v}");
            assert!(
                rep as f64 <= v as f64 * (1.0 + 1.0 / 8.0) + 1.0,
                "rep {rep} v {v}"
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.observe(v);
        }
        for q in 1..=16 {
            let p = h.percentile(q as f64 / 16.0);
            assert_eq!(p, q - 1, "q={q}");
        }
    }

    #[test]
    fn summary_statistics_are_exact() {
        let mut h = Histogram::new();
        for v in [100u64, 200, 300, 1_000_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min_ns(), 100);
        assert_eq!(h.max_ns(), 1_000_000);
        assert!((h.mean_ns() - 250_150.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_have_bounded_relative_error() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.observe(i * 1_000); // 1 µs .. 10 ms
        }
        for (q, expect) in [(0.5, 5_000_000.0), (0.95, 9_500_000.0), (0.99, 9_900_000.0)] {
            let got = h.percentile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.07, "q={q} got={got} expect={expect} rel={rel}");
        }
        assert_eq!(h.percentile(1.0), 10_000_000);
        // p0 lands in the first occupied bucket (upper edge, ≤ 6 % error).
        let p0 = h.percentile(0.0) as f64;
        assert!((p0 - 1_000.0).abs() / 1_000.0 < 0.07, "p0={p0}");
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.percentile(0.5), 0);
    }

    #[test]
    fn merge_matches_combined_observation() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for i in 0..1_000u64 {
            let v = i * 7_919;
            if i % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
            c.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.sum_ns(), c.sum_ns());
        assert_eq!(a.percentile(0.5), c.percentile(0.5));
        assert_eq!(a.max_ns(), c.max_ns());
    }

    fn complete(op: Op, cache_hit: bool, ns: u64) -> TraceEvent {
        TraceEvent::Complete {
            req: 0,
            t: 0,
            op,
            lbn: 0,
            len: 1,
            cache_hit,
            queue: ns,
            overhead: ns,
            seek: ns,
            head_switch: ns,
            rot_latency: ns,
            media: ns,
            bus: ns,
            write_settle: ns,
            response: 8 * ns,
        }
    }

    #[test]
    fn registry_aggregates_completes_only() {
        let mut reg = MetricsRegistry::new();
        reg.record(&complete(Op::Read, false, 1_000));
        reg.record(&complete(Op::Write, false, 3_000));
        reg.record(&complete(Op::Read, true, 1_000));
        // Non-Complete events are ignored.
        reg.record(&TraceEvent::Queue {
            req: 0,
            t: 0,
            dur: 5,
        });
        assert_eq!(reg.requests(), 3);
        assert_eq!(reg.reads(), 2);
        assert!(reg
            .report()
            .contains("requests 3 (reads 2, writes 1, cache hits 1)"));
        let resp = reg.phase("response").unwrap();
        assert_eq!(resp.count(), 3);
        assert!((resp.mean_ns() - (8.0 * 5000.0 / 3.0)).abs() < 1.0);
        assert!(reg.phase("nonsense").is_none());
    }

    #[test]
    fn registry_merge_and_report_shape() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.record(&complete(Op::Read, false, 2_000_000));
        b.record(&complete(Op::Write, false, 4_000_000));
        a.merge(&b);
        assert_eq!(a.requests(), 2);
        let report = a.report();
        // Header + 9 phase rows + count line.
        assert_eq!(report.lines().count(), 11);
        for name in PHASES {
            assert!(report.contains(name), "report missing {name}");
        }
        assert!(report.contains("requests 2 (reads 1, writes 1, cache hits 0)"));
    }
}
