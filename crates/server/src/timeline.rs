//! Windowed time-series telemetry for [`crate::serve`] runs.
//!
//! End-of-run percentiles hide *when* things went wrong: a warm-up
//! transient, a burst, a saturation knee all flatten into one number.
//! The [`Sampler`] buckets a run into fixed windows of simulated time
//! and records, per window: completed/rejected request counts, windowed
//! p50/p99 response time, the exact time-weighted mean queue depth, and
//! per-member busy fractions (from the drives' mechanical-occupancy
//! counters). An optional SLO monitor marks each window whose fraction
//! of over-threshold responses exceeds the budgeted fraction — the
//! classic burn-rate formulation: `burn = (over/completed) / budget`,
//! breach when `burn > 1`.
//!
//! Bucketing is start-inclusive on integer nanoseconds: an instant
//! `t` lands in bucket `t / window`, so a completion exactly on a
//! window boundary belongs to the *later* window, and depth/busy
//! intervals are split exactly at boundaries with integer arithmetic —
//! the series is bit-deterministic.
//!
//! ```
//! use server::timeline::{Sampler, TimelineConfig};
//! use sim_disk::{SimDur, SimTime};
//!
//! let cfg = TimelineConfig::new(10.0); // 10 ms windows
//! let s = Sampler::new(&cfg);
//! let response = SimDur::from_ns(2_000_000);
//! let done = [
//!     (SimTime::from_ns(9_999_999), response),
//!     (SimTime::from_ns(10_000_000), response),
//! ];
//! let (timeline, _) = s.finish(SimTime::from_ns(20_000_000), done, []);
//! assert_eq!(timeline.buckets[0].completed, 1);
//! assert_eq!(timeline.buckets[1].completed, 1, "boundary goes right");
//! ```

use sim_disk::{SimDur, SimTime};
use std::collections::BTreeMap;
use std::fmt;
use traxtent::stats;

/// A latency service-level objective checked per window.
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// Response-time threshold in milliseconds.
    pub threshold_ms: f64,
    /// Budgeted fraction of responses allowed over the threshold per
    /// window (e.g. `0.01` = 1 %); a window burning more than its budget
    /// is breached.
    pub breach_fraction: f64,
}

/// Configuration of the windowed sampler.
#[derive(Debug, Clone, Copy)]
pub struct TimelineConfig {
    /// Window length in milliseconds of simulated time.
    pub window_ms: f64,
    /// Optional SLO monitor.
    pub slo: Option<SloConfig>,
}

impl TimelineConfig {
    /// A sampler config with the given window and no SLO monitor.
    pub fn new(window_ms: f64) -> Self {
        TimelineConfig {
            window_ms,
            slo: None,
        }
    }

    /// Adds an SLO monitor.
    pub fn with_slo(mut self, threshold_ms: f64, breach_fraction: f64) -> Self {
        self.slo = Some(SloConfig {
            threshold_ms,
            breach_fraction,
        });
        self
    }

    /// Names the first field a run cannot work with: a window that is not
    /// finite or rounds to zero nanoseconds ([`Sampler::new`] panics on
    /// it), an SLO threshold that is negative or not finite, a breach
    /// budget outside (0, 1] (the burn rate divides by it). NaN fails
    /// every comparison, so each test is one only a good value passes.
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        if !(self.window_ms.is_finite() && (self.window_ms * 1e6).round() >= 1.0) {
            return Err("timeline.window_ms");
        }
        if let Some(slo) = self.slo {
            if !(slo.threshold_ms.is_finite() && slo.threshold_ms >= 0.0) {
                return Err("slo.threshold_ms");
            }
            if !(slo.breach_fraction > 0.0 && slo.breach_fraction <= 1.0) {
                return Err("slo.breach_fraction");
            }
        }
        Ok(())
    }
}

/// Accumulates per-window observations during a run, and folds the
/// run's completions into them at [`finish`](Sampler::finish) (see the
/// [module docs](self) for the exact bucketing rules).
#[derive(Debug)]
pub struct Sampler {
    window_ns: u64,
    slo: Option<SloConfig>,
    threshold_ns: u64,
    buckets: Vec<Acc>,
    members: usize,
}

#[derive(Debug, Default, Clone)]
struct Acc {
    completed: u64,
    rejected: u64,
    depth_ns: u128,
    busy_ns: Vec<u64>,
    over: u64,
}

impl Sampler {
    /// A sampler for the given config.
    ///
    /// # Panics
    ///
    /// Panics if the window does not round to a positive whole number of
    /// nanoseconds. [`serve`](crate::serve) checks its config first and
    /// returns [`ServerError::InvalidConfig`](crate::ServerError) instead.
    pub fn new(cfg: &TimelineConfig) -> Self {
        let window_ns = (cfg.window_ms * 1e6).round() as u64;
        assert!(window_ns > 0, "timeline window must be positive");
        let threshold_ns = cfg
            .slo
            .map(|s| (s.threshold_ms * 1e6).round() as u64)
            .unwrap_or(u64::MAX);
        Sampler {
            window_ns,
            slo: cfg.slo,
            threshold_ns,
            buckets: Vec::new(),
            members: 0,
        }
    }

    fn bucket(&mut self, index: usize) -> &mut Acc {
        if index >= self.buckets.len() {
            self.buckets.resize(index + 1, Acc::default());
        }
        &mut self.buckets[index]
    }

    /// Adds one request's queue wait, `[arrival, dispatch)`, to the depth
    /// integral, split exactly at window boundaries: a window's depth
    /// integral is the sum of the waits' parts inside it.
    pub fn observe_wait(&mut self, arrival: SimTime, dispatch: SimTime) {
        let (mut cur, end) = (arrival.as_ns(), dispatch.as_ns());
        let w = self.window_ns;
        while cur < end {
            let i = (cur / w) as usize;
            let seg_end = end.min((cur / w + 1) * w);
            self.bucket(i).depth_ns += u128::from(seg_end - cur);
            cur = seg_end;
        }
    }

    /// Attributes each member's busy-time delta to the windows
    /// overlapping `[from, to)`, proportionally by integer overlap (the
    /// rounding remainder lands in the last overlapped window, so the
    /// deltas are conserved exactly).
    pub fn observe_busy(&mut self, from: SimTime, to: SimTime, deltas: &[u64]) {
        self.members = self.members.max(deltas.len());
        let (start, end) = (from.as_ns(), to.as_ns());
        let w = self.window_ns;
        let total = end.saturating_sub(start);
        if total == 0 {
            let i = (start / w) as usize;
            let b = self.bucket(i);
            grow(&mut b.busy_ns, deltas.len());
            for (m, d) in deltas.iter().enumerate() {
                b.busy_ns[m] += d;
            }
            return;
        }
        let mut cur = start;
        let mut given = vec![0u64; deltas.len()];
        while cur < end {
            let i = (cur / w) as usize;
            let seg_end = end.min((cur / w + 1) * w);
            let last = seg_end == end;
            let b = self.bucket(i);
            grow(&mut b.busy_ns, deltas.len());
            for (m, d) in deltas.iter().enumerate() {
                let share = if last {
                    d - given[m]
                } else {
                    d * (seg_end - cur) / total
                };
                b.busy_ns[m] += share;
                given[m] += share;
            }
            cur = seg_end;
        }
    }

    /// Closes the series at `sim_end` and renders the timeline plus the
    /// SLO breach summary (when an SLO was configured). `completions` are
    /// the run's completed requests, `(completion instant, response
    /// time)`, in any order: the instant buckets each, the response feeds
    /// the windowed percentiles and the SLO check. They are walked twice,
    /// to count each window and then to gather its responses. `rejections`
    /// are the rejected requests' arrival instants, in any order.
    pub fn finish<I>(
        mut self,
        sim_end: SimTime,
        completions: I,
        rejections: impl IntoIterator<Item = SimTime>,
    ) -> (Timeline, Option<SloSummary>)
    where
        I: IntoIterator<Item = (SimTime, SimDur)>,
        I::IntoIter: Clone,
    {
        let w = self.window_ns;
        let end_ns = sim_end.as_ns();
        for at in rejections {
            self.bucket((at.as_ns() / w) as usize).rejected += 1;
        }
        let completions = completions.into_iter();
        for (at, response) in completions.clone() {
            let over = response.as_ns() > self.threshold_ns;
            let b = self.bucket((at.as_ns() / w) as usize);
            b.completed += 1;
            b.over += u64::from(over);
        }
        // Cover [0, sim_end) even if the tail windows saw no events.
        let want = if end_ns == 0 {
            self.buckets.len()
        } else {
            self.buckets.len().max(end_ns.div_ceil(w) as usize)
        };
        let mut accs = self.buckets;
        accs.resize(want, Acc::default());
        // Every window's responses, window after window in one buffer (a
        // counting sort on the window index); `ends[i]` is where window
        // `i`'s run ends once the buffer is full.
        let (mut ends, mut total) = (Vec::with_capacity(accs.len()), 0);
        for acc in &accs {
            ends.push(total);
            total += acc.completed as usize;
        }
        let mut responses_ms = vec![0.0; total];
        for (at, response) in completions {
            let end = &mut ends[(at.as_ns() / w) as usize];
            responses_ms[*end] = response.as_millis_f64();
            *end += 1;
        }
        let mut buckets = Vec::with_capacity(accs.len());
        for (i, acc) in accs.into_iter().enumerate() {
            let start_ns = i as u64 * w;
            // The last window may be cut short by sim_end; depth and busy
            // fractions use the covered length so they stay exact.
            let span_ns = if end_ns > start_ns {
                (end_ns - start_ns).min(w)
            } else {
                w
            };
            let mut busy_frac = vec![0.0; self.members];
            for (m, ns) in acc.busy_ns.iter().enumerate() {
                busy_frac[m] = *ns as f64 / span_ns as f64;
            }
            let window = &responses_ms[ends[i] - acc.completed as usize..ends[i]];
            let [p50_ms, p99_ms] = if window.is_empty() {
                [0.0; 2]
            } else {
                stats::percentiles(window, [0.5, 0.99])
            };
            let burn_rate = match self.slo {
                Some(slo) if acc.completed > 0 => {
                    (acc.over as f64 / acc.completed as f64) / slo.breach_fraction
                }
                _ => 0.0,
            };
            buckets.push(TimelineBucket {
                start_ms: start_ns as f64 / 1e6,
                completed: acc.completed,
                rejected: acc.rejected,
                p50_ms,
                p99_ms,
                mean_depth: acc.depth_ns as f64 / span_ns as f64,
                busy_frac,
                slo_over: acc.over,
                burn_rate,
            });
        }
        let timeline = Timeline {
            window_ms: w as f64 / 1e6,
            buckets,
        };
        let summary = self.slo.map(|slo| {
            let breached: Vec<&TimelineBucket> = timeline
                .buckets
                .iter()
                .filter(|b| b.burn_rate > 1.0)
                .collect();
            SloSummary {
                threshold_ms: slo.threshold_ms,
                windows: timeline.buckets.len() as u64,
                breached: breached.len() as u64,
                first_breach_ms: breached.first().map(|b| b.start_ms),
                worst_burn_rate: timeline
                    .buckets
                    .iter()
                    .map(|b| b.burn_rate)
                    .fold(0.0, f64::max),
                total_over: timeline.buckets.iter().map(|b| b.slo_over).sum(),
            }
        });
        (timeline, summary)
    }
}

fn grow(v: &mut Vec<u64>, len: usize) {
    if v.len() < len {
        v.resize(len, 0);
    }
}

/// One window of the series.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineBucket {
    /// Window start in milliseconds of simulated time.
    pub start_ms: f64,
    /// Requests completed in this window.
    pub completed: u64,
    /// Arrivals rejected in this window.
    pub rejected: u64,
    /// Windowed median response time (0 with no completions).
    pub p50_ms: f64,
    /// Windowed 99th-percentile response time (0 with no completions).
    pub p99_ms: f64,
    /// Exact time-weighted mean queue depth over the window.
    pub mean_depth: f64,
    /// Per-member mechanical busy fraction (empty if never observed).
    pub busy_frac: Vec<f64>,
    /// Responses over the SLO threshold (0 without an SLO).
    pub slo_over: u64,
    /// `(over/completed) / breach_fraction`; breached when > 1.
    pub burn_rate: f64,
}

impl TimelineBucket {
    /// The bucket as a flat numeric row (for manifest export): fixed keys
    /// plus `busy_m0..busy_mN`.
    pub fn row(&self) -> BTreeMap<String, f64> {
        let mut row = BTreeMap::new();
        row.insert("start_ms".to_string(), self.start_ms);
        row.insert("completed".to_string(), self.completed as f64);
        row.insert("rejected".to_string(), self.rejected as f64);
        row.insert("p50_ms".to_string(), self.p50_ms);
        row.insert("p99_ms".to_string(), self.p99_ms);
        row.insert("mean_depth".to_string(), self.mean_depth);
        for (m, f) in self.busy_frac.iter().enumerate() {
            row.insert(format!("busy_m{m}"), *f);
        }
        row.insert("slo_over".to_string(), self.slo_over as f64);
        row.insert("burn_rate".to_string(), self.burn_rate);
        row
    }
}

/// The whole windowed series of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Window length in milliseconds.
    pub window_ms: f64,
    /// The windows, in time order, covering `[0, sim_end)`.
    pub buckets: Vec<TimelineBucket>,
}

impl Timeline {
    /// Flat numeric rows for manifest export, one per window.
    pub fn rows(&self) -> Vec<BTreeMap<String, f64>> {
        self.buckets.iter().map(TimelineBucket::row).collect()
    }
}

impl fmt::Display for Timeline {
    /// A fixed-width table, one line per window.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>9} {:>6} {:>4} {:>9} {:>9} {:>7} {:>5} {:>6}  busy",
            "start_ms", "done", "rej", "p50_ms", "p99_ms", "depth", "over", "burn"
        )?;
        for b in &self.buckets {
            let busy = b
                .busy_frac
                .iter()
                .map(|x| format!("{x:.2}"))
                .collect::<Vec<_>>()
                .join(",");
            writeln!(
                f,
                "{:>9.1} {:>6} {:>4} {:>9.3} {:>9.3} {:>7.2} {:>5} {:>6.2}  {}",
                b.start_ms,
                b.completed,
                b.rejected,
                b.p50_ms,
                b.p99_ms,
                b.mean_depth,
                b.slo_over,
                b.burn_rate,
                busy
            )?;
        }
        Ok(())
    }
}

/// End-of-run SLO verdict: how many windows burned through their budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSummary {
    /// The response-time threshold that was monitored, milliseconds.
    pub threshold_ms: f64,
    /// Number of windows in the series.
    pub windows: u64,
    /// Windows whose burn rate exceeded 1.
    pub breached: u64,
    /// Start of the first breached window, if any, milliseconds.
    pub first_breach_ms: Option<f64>,
    /// The worst per-window burn rate observed.
    pub worst_burn_rate: f64,
    /// Total responses over the threshold across the run.
    pub total_over: u64,
}

impl fmt::Display for SloSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slo {}ms: {}/{} windows breached, worst burn {:.2}, {} over",
            self.threshold_ms, self.breached, self.windows, self.worst_burn_rate, self.total_over
        )?;
        if let Some(at) = self.first_breach_ms {
            write!(f, ", first at {at:.1} ms")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: f64) -> SimTime {
        SimTime::from_ns((x * 1e6).round() as u64)
    }

    /// A completion at `at` that took `response` milliseconds.
    fn done(at: f64, response: f64) -> (SimTime, SimDur) {
        (ms(at), SimDur::from_millis_f64(response))
    }

    #[test]
    fn boundary_instants_bucket_rightward() {
        let s = Sampler::new(&TimelineConfig::new(10.0));
        let done = [done(0.0, 1.0), done(9.999999, 1.0), done(10.0, 1.0)];
        let (t, slo) = s.finish(ms(30.0), done, [ms(20.0)]);
        assert!(slo.is_none());
        assert_eq!(t.buckets.len(), 3);
        assert_eq!(t.buckets[0].completed, 2);
        assert_eq!(t.buckets[1].completed, 1);
        assert_eq!(t.buckets[2].rejected, 1);
    }

    #[test]
    fn depth_integral_splits_exactly_at_boundaries() {
        let mut s = Sampler::new(&TimelineConfig::new(10.0));
        // Two requests waiting over [5 ms, 25 ms): 5 ms in w0, 10 ms in
        // w1, 5 ms in w2.
        s.observe_wait(ms(5.0), ms(25.0));
        s.observe_wait(ms(5.0), ms(25.0));
        let (t, _) = s.finish(ms(30.0), [], []);
        assert_eq!(t.buckets[0].mean_depth, 2.0 * 0.5);
        assert_eq!(t.buckets[1].mean_depth, 2.0);
        assert_eq!(t.buckets[2].mean_depth, 2.0 * 0.5);
    }

    #[test]
    fn short_final_window_uses_its_covered_length() {
        let mut s = Sampler::new(&TimelineConfig::new(10.0));
        for _ in 0..3 {
            s.observe_wait(ms(10.0), ms(15.0));
        }
        let (t, _) = s.finish(ms(15.0), [], []);
        assert_eq!(t.buckets.len(), 2);
        assert_eq!(t.buckets[1].mean_depth, 3.0, "5 ms window fully at depth 3");
    }

    #[test]
    fn busy_deltas_are_conserved_across_windows() {
        let mut s = Sampler::new(&TimelineConfig::new(10.0));
        // 7 ms of busy on member 0, 3 on member 1, over [5, 25) ms.
        let deltas = [7_000_000u64, 3_000_001];
        s.observe_busy(ms(5.0), ms(25.0), &deltas);
        let (t, _) = s.finish(ms(30.0), [], []);
        for (m, delta) in deltas.iter().enumerate() {
            let total_frac_ns: u64 = t
                .buckets
                .iter()
                .map(|b| (b.busy_frac[m] * 10_000_000.0).round() as u64)
                .sum();
            assert_eq!(total_frac_ns, *delta, "member {m} conserved");
        }
        assert!(t.buckets.iter().all(|b| b.busy_frac.len() == 2));
    }

    #[test]
    fn slo_burn_rate_flags_breached_windows() {
        let cfg = TimelineConfig::new(10.0).with_slo(5.0, 0.25);
        let s = Sampler::new(&cfg);
        // Window 0: 1 of 4 over (burn = 1.0, not breached).
        let w0 = [1.0, 2.0, 3.0, 9.0].map(|r| done(1.0, r));
        // Window 1: 2 of 4 over (burn = 2.0, breached), its completions
        // listed among window 0's: the order is free.
        let w1 = [1.0, 6.0, 7.0, 2.0].map(|r| done(11.0, r));
        let (t, slo) = s.finish(
            ms(20.0),
            [w0[0], w1[0], w1[1], w0[1], w0[2], w1[2], w1[3], w0[3]],
            [],
        );
        let slo = slo.unwrap();
        assert_eq!(t.buckets[0].slo_over, 1);
        assert_eq!(t.buckets[0].burn_rate, 1.0);
        assert_eq!(t.buckets[1].burn_rate, 2.0);
        assert_eq!(slo.breached, 1);
        assert_eq!(slo.first_breach_ms, Some(10.0));
        assert_eq!(slo.worst_burn_rate, 2.0);
        assert_eq!(slo.total_over, 3);
        assert!(slo.to_string().contains("1/2 windows breached"));
    }

    #[test]
    fn rows_and_display_render_every_window() {
        let mut s = Sampler::new(&TimelineConfig::new(10.0));
        s.observe_busy(ms(0.0), ms(10.0), &[4_000_000]);
        let (t, _) = s.finish(ms(10.0), [done(1.0, 2.0)], []);
        let rows = t.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["completed"], 1.0);
        assert_eq!(rows[0]["busy_m0"], 0.4);
        let text = t.to_string();
        assert!(text.contains("p99_ms"), "{text}");
        assert_eq!(text.lines().count(), 2);
    }
}
