//! An open-loop storage server over the simulated drive.
//!
//! Every figure in the stack before this crate was closed-loop: a fixed
//! number of outstanding requests, so the drive sets the pace and queues
//! never grow. The paper's argument for track-aligned extents, though, is
//! about *service-time predictability* — and predictability only matters
//! under an open-loop arrival process, where work keeps arriving whether
//! or not the drive keeps up and every millisecond of excess service time
//! compounds into queueing delay. This crate runs the drive as a server:
//!
//! * a bounded [`admission`] queue with typed overload rejection;
//! * pluggable [`sched`] dispatch policies — FIFO, C-LOOK, and a
//!   traxtent-aware batcher that coalesces queued requests into
//!   track-aligned commands on trusted tracks (degrading to C-LOOK where
//!   boundary confidence is low);
//! * the [`serve`] loop itself, which drives any [`Backend`] — a bare
//!   [`Disk`] or a multi-disk `fleet` volume, one queue and one elevator
//!   per spindle — on simulated time and reports response latency
//!   percentiles, queue depths, rejections, and throughput;
//! * the §5.4 [`video`] server, whose rounds are bursts of arrivals served
//!   by that loop, and its soft and hard real-time admission.
//!
//! Determinism: the loop's only clocks are simulated — one event time and
//! one busy-until instant per spindle, lanes served in ascending spindle
//! order; given the same trace, config, and drive, the result is
//! bit-identical on any machine and at any host thread count (the server
//! itself never spawns threads — parallel sweeps fan whole cells out via
//! `bench::exec`).
//!
//! # Example
//!
//! ```
//! use server::{serve, ServerConfig, SchedulerKind};
//! use sim_disk::disk::Disk;
//! use sim_disk::models::quantum_atlas_10k_ii;
//! use workloads::replay::{synthetic_trace, SyntheticSpec};
//!
//! let mut disk = Disk::new(quantum_atlas_10k_ii());
//! let trace = synthetic_trace(&SyntheticSpec {
//!     count: 200,
//!     interarrival_ms: 5.0,
//!     io_sectors: 64,
//!     read_fraction: 0.7,
//!     capacity_lbns: disk.geometry().capacity_lbns(),
//!     seed: 42,
//! });
//! let result = serve(
//!     &mut disk,
//!     &trace,
//!     &ServerConfig::new(SchedulerKind::CLook),
//! )
//! .unwrap();
//! assert_eq!(result.completed() + result.rejected(), 200);
//! ```

#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod admission;
pub mod sched;
pub mod timeline;
pub mod video;

pub use admission::{AdmissionError, AdmissionQueue, Queued};
pub use sched::{CLook, Dispatch, Fifo, Scheduler, SchedulerKind, Traxtent};
pub use timeline::{Sampler, SloConfig, SloSummary, Timeline, TimelineBucket, TimelineConfig};

use sim_disk::disk::{Disk, Request};
use sim_disk::{Completion, SimTime, TraceRecord};
use std::error::Error;
use std::fmt;
use traxtent::obs::span::{self, Span, SpanRecorder};
use traxtent::obs::Registry;
use traxtent::{stats, ConfidentBoundaries, TrackBoundaries};

// Old paths of items that now live in `sim-disk`, kept (with
// `drive_boundaries` below) because `benchmark/` calls them and only a
// benchmark PR may edit it: see benchmark/README.md § "Public functions
// the benchmark calls". Re-point the benchmark, then delete these.
pub use sim_disk::trace::DiskSpanBridge;
pub use sim_disk::Backend;

/// Server configuration: queue bound, dispatch policy, batch width.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission-queue depth bound; arrivals beyond it are rejected.
    pub queue_limit: usize,
    /// Most client requests one lane dispatches per scheduling round.
    pub max_batch: usize,
    /// Dispatch policy.
    pub scheduler: SchedulerKind,
    /// Boundary knowledge for [`SchedulerKind::Traxtent`] — track extents,
    /// confidence, and the spindle ids that make the lanes; ignored by the
    /// other policies and required (typed error) by that one.
    pub boundaries: Option<ConfidentBoundaries>,
    /// Confidence below which a track is treated as unknown.
    pub confidence_threshold: f64,
    /// Causal-span recorder: when set, every request grows a span tree
    /// (admit → queue-wait → dispatch, plus whatever the backend and the
    /// drives' [`DiskSpanBridge`] hang underneath). `None` (the default)
    /// costs one branch per round.
    pub spans: Option<SpanRecorder>,
    /// Windowed time-series sampler config; `None` (the default) records
    /// no timeline.
    pub timeline: Option<TimelineConfig>,
}

impl ServerConfig {
    /// A config with the defaults the figures use: queue bound 128,
    /// batch width 32, confidence threshold 0.9.
    pub fn new(scheduler: SchedulerKind) -> Self {
        ServerConfig {
            queue_limit: 128,
            max_batch: 32,
            scheduler,
            boundaries: None,
            confidence_threshold: 0.9,
            spans: None,
            timeline: None,
        }
    }

    /// Sets the boundary table (required for the traxtent scheduler).
    pub fn with_boundaries(mut self, boundaries: ConfidentBoundaries) -> Self {
        self.boundaries = Some(boundaries);
        self
    }

    /// Enables causal-span recording into `spans`.
    pub fn with_spans(mut self, spans: SpanRecorder) -> Self {
        self.spans = Some(spans);
        self
    }

    /// Enables the windowed time-series sampler.
    pub fn with_timeline(mut self, timeline: TimelineConfig) -> Self {
        self.timeline = Some(timeline);
        self
    }
}

/// Why [`serve`] refused to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The traxtent scheduler was requested without a boundary table.
    MissingBoundaries,
    /// The trace's arrivals are not sorted; carries the first offending
    /// record index.
    UnsortedArrivals {
        /// 0-based index of the record arriving before its predecessor.
        index: usize,
    },
    /// A trace request runs past the drive's capacity; carries its index.
    BeyondCapacity {
        /// 0-based index of the offending record.
        index: usize,
    },
    /// The named [`ServerConfig`] field must be positive and is zero: a
    /// queue that admits nothing, or rounds that dispatch nothing.
    ZeroConfig(&'static str),
    /// The named [`TimelineConfig`] field is outside its domain:
    /// `timeline.window_ms` must be finite and at least a nanosecond,
    /// `slo.threshold_ms` finite and non-negative, `slo.breach_fraction`
    /// in (0, 1].
    InvalidConfig(&'static str),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::MissingBoundaries => {
                write!(f, "traxtent scheduler needs a boundary table")
            }
            ServerError::UnsortedArrivals { index } => {
                write!(f, "trace record {index} arrives before its predecessor")
            }
            ServerError::BeyondCapacity { index } => {
                write!(f, "trace record {index} runs past drive capacity")
            }
            ServerError::ZeroConfig(field) => {
                write!(f, "server config field `{field}` must be positive")
            }
            ServerError::InvalidConfig(field) => {
                write!(f, "server config field `{field}` is out of range")
            }
        }
    }
}

impl Error for ServerError {}

/// One client request's fate, as seen by the client.
#[derive(Debug, Clone, Copy)]
pub struct ClientCompletion {
    /// The request's index in the arrival trace.
    pub id: u64,
    /// When it arrived at the server.
    pub arrival: SimTime,
    /// When the drive finished it (response = completion − arrival,
    /// queueing delay included).
    pub completion: SimTime,
    /// Whether it was served by a coalesced (multi-request) command.
    pub coalesced: bool,
}

impl ClientCompletion {
    /// Client-observed response time in milliseconds.
    pub fn response_ms(&self) -> f64 {
        self.completion.since(self.arrival).as_millis_f64()
    }
}

/// The measured outcome of a [`serve`] run.
#[derive(Debug, Clone)]
pub struct ServerResult {
    /// Per-request completions, sorted by trace index.
    pub completions: Vec<ClientCompletion>,
    /// Trace indices refused admission, in arrival order.
    pub rejected_ids: Vec<u64>,
    /// High-water admission-queue depth.
    pub max_depth: usize,
    /// Disk commands issued (≤ completed requests when coalescing).
    pub dispatches: u64,
    /// Client requests served by multi-request commands.
    pub coalesced_requests: u64,
    /// Elevator wrap-arounds (0 for FIFO).
    pub wraps: u64,
    /// Instant the last command completed.
    pub sim_end: SimTime,
    /// The windowed time series, when [`ServerConfig::timeline`] was set.
    pub timeline: Option<Timeline>,
    /// The SLO breach summary, when the timeline config carried an SLO.
    pub slo: Option<SloSummary>,
    /// Time-weighted integral of queue depth, in depth·nanoseconds.
    depth_ns: u128,
}

impl ServerResult {
    /// Requests that completed.
    pub fn completed(&self) -> u64 {
        self.completions.len() as u64
    }

    /// Requests refused admission.
    pub fn rejected(&self) -> u64 {
        self.rejected_ids.len() as u64
    }

    /// Per-request response times in milliseconds, in trace order.
    pub fn response_ms(&self) -> Vec<f64> {
        self.completions.iter().map(|c| c.response_ms()).collect()
    }

    /// Response-time percentile (`p` in `[0, 1]`), or 0 with no
    /// completions.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let xs = self.response_ms();
        if xs.is_empty() {
            0.0
        } else {
            stats::percentile(&xs, p)
        }
    }

    /// Completed requests per simulated second.
    pub fn throughput_rps(&self) -> f64 {
        let span = self.sim_end.as_secs_f64();
        if span > 0.0 {
            self.completions.len() as f64 / span
        } else {
            0.0
        }
    }

    /// Time-weighted mean queue depth over the run.
    pub fn mean_depth(&self) -> f64 {
        let span = self.sim_end.as_ns();
        if span > 0 {
            self.depth_ns as f64 / span as f64
        } else {
            0.0
        }
    }

    /// Fraction of arrivals refused admission.
    pub fn rejection_fraction(&self) -> f64 {
        let total = self.completed() + self.rejected();
        if total > 0 {
            self.rejected() as f64 / total as f64
        } else {
            0.0
        }
    }

    /// Exports counters into the observability registry under `server.*`
    /// (totals accumulate across sweep cells sharing one registry; the
    /// depth high-water mark merges via `set_max`).
    pub fn export_metrics(&self, reg: &Registry) {
        reg.add("server.completed", self.completed());
        reg.add("server.rejected", self.rejected());
        reg.add("server.dispatches", self.dispatches);
        reg.add("server.coalesced_requests", self.coalesced_requests);
        reg.add("server.wraps", self.wraps);
        reg.set_max("server.max_depth", self.max_depth as u64);
    }
}

/// [`Disk::track_boundaries`] under its old name (see the note on the
/// re-exports above).
pub fn drive_boundaries(disk: &Disk) -> TrackBoundaries {
    disk.track_boundaries()
}

/// Runs the open-loop server over a sorted arrival trace.
///
/// The server keeps one lane per spindle — a queue, an elevator and the
/// instant its last round ends — so a request waits only for the member
/// that holds it. Under [`SchedulerKind::Traxtent`] the lanes are the
/// spindles the boundary table names ([`ConfidentBoundaries::with_spindles`],
/// as a `fleet` volume's logical map does) and a request rides the lane of
/// its first sector's track; a table without ids, FIFO and C-LOOK are one
/// lane.
///
/// The loop is event-driven on simulated time. At each event every arrival
/// at or before `now` is offered to the bounded queue in trace order (one
/// bound over all lanes; overflow becomes a typed rejection); then every
/// lane that is free and has work picks one round from its own queue, all
/// issued at `now` in one call of the batched service path, and is busy
/// until that round's last completion. Arrivals that find every lane busy
/// only accumulate, which is exactly how open-loop queues build. Lane
/// clocks decide when the server dispatches, not how long the drives take:
/// the backend queues commands per member, so a command that reaches into
/// a second member completes when both are done.
///
/// Client response time is `completion − arrival` and therefore includes
/// queueing delay, not just drive service time.
///
/// The backend is any [`Backend`] — a bare [`Disk`] or a multi-disk
/// volume serving one logical address space.
pub fn serve<B: Backend + ?Sized>(
    disk: &mut B,
    records: &[TraceRecord],
    cfg: &ServerConfig,
) -> Result<ServerResult, ServerError> {
    if cfg.queue_limit == 0 {
        return Err(ServerError::ZeroConfig("queue_limit"));
    }
    if cfg.max_batch == 0 {
        return Err(ServerError::ZeroConfig("max_batch"));
    }
    if let Some(timeline) = &cfg.timeline {
        timeline.validate().map_err(ServerError::InvalidConfig)?;
    }
    let capacity = disk.capacity_lbns();
    for (i, r) in records.iter().enumerate() {
        if i > 0 && r.arrival < records[i - 1].arrival {
            return Err(ServerError::UnsortedArrivals { index: i });
        }
        if !r.request.fits(capacity) {
            return Err(ServerError::BeyondCapacity { index: i });
        }
    }
    // One elevator per lane, in ascending spindle-id order — the order the
    // lanes dispatch in — and the instant each lane's last round ends.
    let mut spindles = Vec::new();
    let mut scheds: Vec<Box<dyn Scheduler>> = match cfg.scheduler {
        SchedulerKind::Fifo => vec![Box::new(Fifo)],
        SchedulerKind::CLook => vec![Box::new(CLook::new())],
        SchedulerKind::Traxtent => {
            let Some(b) = &cfg.boundaries else {
                return Err(ServerError::MissingBoundaries);
            };
            // The distinct spindle ids, ascending; they need not be dense.
            spindles = (0..b.table().num_tracks()).map(|t| b.spindle(t)).collect();
            spindles.sort_unstable();
            spindles.dedup();
            let sched = Traxtent::new(b.clone(), cfg.confidence_threshold);
            let lane = |_| Box::new(sched.clone()) as Box<dyn Scheduler>;
            spindles.iter().map(lane).collect()
        }
    };
    let mut free_at = vec![SimTime::ZERO; scheds.len()];
    // Every request's lane, looked up in one pass while the table is hot.
    // The lane picks the queue an admission inserts into, so a lookup made
    // there puts its cold loads — directory, starts, spindle ids — on the
    // path of that insert: `serve_raid5` loses 12.5 % of its host rate that
    // way (483 k → 422 k, 0 of 10 alternating pairs; DESIGN.md §8). One
    // lane needs no routing at all. Every id is in `spindles`, so the
    // count of ids below it is its lane.
    let lane_of: Vec<usize> = match &cfg.boundaries {
        Some(b) if spindles.len() > 1 => (records.iter())
            .map(|r| b.spindle(b.table().track_index(r.request.lbn)))
            .map(|id| spindles.partition_point(|&s| s < id))
            .collect(),
        _ => Vec::new(),
    };

    let mut queue = AdmissionQueue::new(cfg.queue_limit, scheds.len());
    let mut completions: Vec<ClientCompletion> = Vec::with_capacity(records.len());
    let mut rejected_ids: Vec<u64> = Vec::new();
    let mut dispatches = 0u64;
    let mut coalesced_requests = 0u64;
    let spans = cfg.spans.clone();
    let mut span_buf: Vec<Span> = Vec::new();
    let mut sampler = cfg.timeline.as_ref().map(Sampler::new);
    let mut busy_prev = (sampler.as_ref()).map_or(Vec::new(), |_| disk.member_busy_ns());
    // Exact time-weighted depth integral: advanced to each arrival and
    // each dispatch instant with the depth that held since the previous
    // event. Integer arithmetic keeps it bit-deterministic.
    let mut depth_ns = 0u128;
    let mut last_event = SimTime::ZERO;
    let mut integrate =
        |depth: usize, upto: SimTime, last: &mut SimTime, sampler: &mut Option<Sampler>| {
            depth_ns += depth as u128 * u128::from(upto.since(*last).as_ns());
            if let Some(s) = sampler {
                s.observe_depth(depth, *last, upto);
            }
            *last = upto;
        };

    let mut next = 0usize;
    let mut rounds = 0u64;
    let mut sim_end = SimTime::ZERO;
    // Buffers every event reuses: the instant's commands with their lanes,
    // the batch handed to the backend, and its completions.
    let mut round: Vec<(usize, Dispatch)> = Vec::new();
    let mut batch: Vec<(Request, SimTime)> = Vec::new();
    let mut results: Vec<Completion> = Vec::new();

    loop {
        // The next event is the first instant any lane could dispatch: when
        // it is free, and for an empty lane no sooner than the next arrival.
        // So while every lane is busy the loop wakes for no arrival at all.
        let arrival = records.get(next).map(|r| r.arrival);
        let wake = |l: usize| {
            if queue.lane(l).is_empty() {
                arrival.map(|a| a.max(free_at[l]))
            } else {
                Some(free_at[l])
            }
        };
        let Some(now) = (0..free_at.len()).filter_map(wake).min() else {
            break;
        };
        // Admit everything that has arrived by `now`, in trace order. The
        // queue only shrinks at dispatch instants, so this decides exactly
        // as admitting each arrival at its own instant would.
        while next < records.len() && records[next].arrival <= now {
            let r = &records[next];
            integrate(
                queue.len(),
                r.arrival.max(last_event),
                &mut last_event,
                &mut sampler,
            );
            let queued = Queued {
                id: next as u64,
                arrival: r.arrival,
                request: r.request,
            };
            let lane = lane_of.get(next).map_or(0, |&l| l);
            if queue.offer(lane, queued, &*scheds[lane]).is_err() {
                rejected_ids.push(next as u64);
                if let Some(s) = &mut sampler {
                    s.observe_rejection(r.arrival);
                }
                if let Some(rec) = &spans {
                    record_rejection(rec, next as u64, r, queue.limit());
                }
            }
            next += 1;
        }
        // One round from every lane that is free and has work, all issued
        // at `now`.
        let depth = queue.len();
        round.clear();
        for (l, sched) in scheds.iter_mut().enumerate() {
            if free_at[l] <= now && !queue.lane(l).is_empty() {
                let cmds = sched.select(queue.lane_mut(l), cfg.max_batch);
                assert!(!cmds.is_empty(), "scheduler made no progress");
                round.extend(cmds.into_iter().map(|d| (l, d)));
            }
        }
        if round.is_empty() {
            continue;
        }
        integrate(depth, now, &mut last_event, &mut sampler);
        batch.clear();
        batch.extend(round.iter().map(|(_, d)| (d.request, now)));
        results.clear();
        match &spans {
            // With spans on, issue the round's commands one at a time so
            // the drive-level bridge parents each command's spans under
            // the dispatch span of its primary (first-listed) request.
            // The batched service path is documented to equal serial
            // calls, so completions are unchanged.
            Some(rec) => {
                for (k, (_, d)) in round.iter().enumerate() {
                    let did = span::derive_id(rec.salt(), span::kind::DISPATCH, d.first.id, 0);
                    rec.set_context(did, 1);
                    disk.service_batch_into(&batch[k..k + 1], &mut results);
                }
                rec.clear_context();
            }
            None => disk.service_batch_into(&batch, &mut results),
        }
        dispatches += round.len() as u64;
        let mut round_end = now;
        for ((l, d), c) in round.iter().zip(&results) {
            round_end = round_end.max(c.completion);
            sim_end = sim_end.max(c.completion);
            free_at[*l] = free_at[*l].max(c.completion);
            if d.coalesced() {
                coalesced_requests += d.parts().count() as u64;
            }
            for p in d.parts() {
                completions.push(ClientCompletion {
                    id: p.id,
                    arrival: p.arrival,
                    completion: c.completion,
                    coalesced: d.coalesced(),
                });
                if let Some(s) = &mut sampler {
                    s.observe_completion(c.completion, c.completion.since(p.arrival).as_ns());
                }
            }
            if let Some(rec) = &spans {
                record_dispatch(rec, &mut span_buf, d, c, now);
            }
        }
        if let Some(s) = &mut sampler {
            // Turn the previous reading into this round's deltas in place.
            let busy = disk.member_busy_ns();
            busy_prev.resize(busy.len(), 0);
            for (prev, cur) in busy_prev.iter_mut().zip(&busy) {
                *prev = cur - *prev;
            }
            s.observe_busy(now, round_end, &busy_prev);
            busy_prev = busy;
        }
        if let Some(rec) = &spans {
            let id = span::derive_id(rec.salt(), span::kind::ROUND, rounds, 0);
            let mut r = Span::new(id, 0, "round", 0, now.as_ns(), round_end.as_ns());
            r.push_attr("sched", cfg.scheduler.label());
            r.push_attr("cmds", round.len());
            let parts = round.iter().map(|(_, d)| d.parts().count());
            r.push_attr("parts", parts.sum::<usize>());
            rec.record(r);
        }
        rounds += 1;
    }

    // In place: ids are unique, so the unstable sort gives the one order
    // there is, without the stable sort's scratch copy of half the run.
    completions.sort_unstable_by_key(|c| c.id);
    let (timeline, slo) = match sampler {
        Some(s) => {
            let (t, slo) = s.finish(sim_end);
            (Some(t), slo)
        }
        None => (None, None),
    };
    Ok(ServerResult {
        completions,
        rejected_ids,
        max_depth: queue.max_depth(),
        dispatches,
        coalesced_requests,
        wraps: scheds.iter().map(|s| s.wraps()).sum(),
        sim_end,
        timeline,
        slo,
        depth_ns,
    })
}

/// Records the two-span tree of a rejected arrival.
fn record_rejection(rec: &SpanRecorder, id: u64, r: &TraceRecord, limit: usize) {
    let salt = rec.salt();
    let t = r.arrival.as_ns();
    let root_id = span::derive_id(salt, span::kind::REQUEST, id, 0);
    let mut root = Span::new(root_id, 0, "request", 0, t, t);
    root.push_attr("id", id);
    root.push_attr("op", r.request.op.as_str());
    root.push_attr("lbn", r.request.lbn);
    root.push_attr("len", r.request.len);
    root.push_attr("rejected", 1);
    let mut rej = Span::new(
        span::derive_id(salt, span::kind::REJECT, id, 0),
        root_id,
        "reject",
        0,
        t,
        t,
    );
    rej.push_attr("queue_limit", limit);
    rec.record(root);
    rec.record(rej);
}

/// Records the server-side spans of every request a dispatched command
/// served: request root, admit instant, queue wait, and the dispatch
/// span the drive's spans hang under (via the context set at issue).
fn record_dispatch(
    rec: &SpanRecorder,
    buf: &mut Vec<Span>,
    d: &Dispatch,
    c: &Completion,
    at: SimTime,
) {
    let salt = rec.salt();
    let primary = span::derive_id(salt, span::kind::DISPATCH, d.first.id, 0);
    let done = c.completion.as_ns();
    for p in d.parts() {
        let arr = p.arrival.as_ns();
        let root_id = span::derive_id(salt, span::kind::REQUEST, p.id, 0);
        let mut root = Span::new(root_id, 0, "request", 0, arr, done);
        root.push_attr("id", p.id);
        root.push_attr("op", p.request.op.as_str());
        root.push_attr("lbn", p.request.lbn);
        root.push_attr("len", p.request.len);
        buf.push(root);
        buf.push(Span::new(
            span::derive_id(salt, span::kind::ADMIT, p.id, 0),
            root_id,
            "admit",
            0,
            arr,
            arr,
        ));
        buf.push(Span::new(
            span::derive_id(salt, span::kind::QUEUE_WAIT, p.id, 0),
            root_id,
            "queue_wait",
            0,
            arr,
            at.as_ns(),
        ));
        let did = span::derive_id(salt, span::kind::DISPATCH, p.id, 0);
        let mut disp = Span::new(did, root_id, "dispatch", 0, at.as_ns(), done);
        disp.push_attr("cmd_lbn", d.request.lbn);
        disp.push_attr("cmd_len", d.request.len);
        if d.coalesced() {
            disp.push_attr("coalesced", d.parts().count());
        }
        if did != primary {
            // This request rode a coalesced command; the drive's spans
            // hang under the primary's dispatch span, referenced here.
            disp.push_attr("primary", format!("{primary:#x}"));
        }
        buf.push(disp);
    }
    rec.record_all(buf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_disk::models::quantum_atlas_10k_ii;
    use workloads::replay::{synthetic_trace, SyntheticSpec};

    fn trace(count: usize, interarrival_ms: f64, disk: &Disk) -> Vec<TraceRecord> {
        synthetic_trace(&SyntheticSpec {
            count,
            interarrival_ms,
            io_sectors: 128,
            read_fraction: 0.6,
            capacity_lbns: disk.geometry().capacity_lbns(),
            seed: 17,
        })
    }

    #[test]
    fn every_request_completes_or_is_rejected() {
        let mut disk = Disk::new(quantum_atlas_10k_ii());
        let records = trace(500, 8.0, &disk);
        for kind in [SchedulerKind::Fifo, SchedulerKind::CLook] {
            let mut d = Disk::new(quantum_atlas_10k_ii());
            let res = serve(&mut d, &records, &ServerConfig::new(kind)).unwrap();
            assert_eq!(res.completed() + res.rejected(), 500, "{kind:?}");
            let mut ids: Vec<u64> = res.completions.iter().map(|c| c.id).collect();
            ids.extend(&res.rejected_ids);
            ids.sort_unstable();
            assert_eq!(ids, (0..500).collect::<Vec<_>>(), "each id exactly once");
        }
        let table = ConfidentBoundaries::certain(disk.track_boundaries());
        let cfg = ServerConfig::new(SchedulerKind::Traxtent).with_boundaries(table);
        let res = serve(&mut disk, &records, &cfg).unwrap();
        assert_eq!(res.completed() + res.rejected(), 500);
    }

    #[test]
    fn overload_rejects_rather_than_queueing_without_bound() {
        let mut disk = Disk::new(quantum_atlas_10k_ii());
        // ~13 ms per random track-ish request vs 0.2 ms offered
        // interarrival: hopeless overload, the bound must bite.
        let records = trace(2000, 0.2, &disk);
        let mut cfg = ServerConfig::new(SchedulerKind::Fifo);
        cfg.queue_limit = 16;
        let res = serve(&mut disk, &records, &cfg).unwrap();
        assert!(res.rejected() > 0, "overload produces rejections");
        assert!(res.max_depth <= 16, "depth bound respected");
        assert_eq!(res.completed() + res.rejected(), 2000);
    }

    #[test]
    fn traxtent_without_boundaries_is_a_typed_error() {
        let mut disk = Disk::new(quantum_atlas_10k_ii());
        let records = trace(10, 5.0, &disk);
        let err = serve(
            &mut disk,
            &records,
            &ServerConfig::new(SchedulerKind::Traxtent),
        )
        .unwrap_err();
        assert_eq!(err, ServerError::MissingBoundaries);
    }

    #[test]
    fn malformed_traces_are_typed_errors() {
        let mut disk = Disk::new(quantum_atlas_10k_ii());
        let mut records = trace(10, 5.0, &disk);
        records.swap(3, 4);
        let r = serve(&mut disk, &records, &ServerConfig::new(SchedulerKind::Fifo));
        assert!(matches!(r, Err(ServerError::UnsortedArrivals { .. })));

        let mut records = trace(10, 5.0, &disk);
        records[5].request.lbn = disk.geometry().capacity_lbns();
        let r = serve(&mut disk, &records, &ServerConfig::new(SchedulerKind::Fifo));
        assert_eq!(r.unwrap_err(), ServerError::BeyondCapacity { index: 5 });
    }

    #[test]
    fn zero_config_bounds_are_typed_errors() {
        let mut disk = Disk::new(quantum_atlas_10k_ii());
        let records = trace(10, 5.0, &disk);
        for (field, queue_limit, max_batch) in [("queue_limit", 0, 32), ("max_batch", 128, 0)] {
            let mut cfg = ServerConfig::new(SchedulerKind::CLook);
            (cfg.queue_limit, cfg.max_batch) = (queue_limit, max_batch);
            let err = serve(&mut disk, &records, &cfg).unwrap_err();
            assert_eq!(err, ServerError::ZeroConfig(field));
            assert!(err.to_string().contains(field), "{err}");
        }
    }

    #[test]
    fn out_of_range_timeline_fields_are_typed_errors() {
        let mut disk = Disk::new(quantum_atlas_10k_ii());
        let records = trace(10, 5.0, &disk);
        let mut run = |window_ms: f64, threshold_ms: f64, breach_fraction: f64| {
            let timeline = TimelineConfig::new(window_ms).with_slo(threshold_ms, breach_fraction);
            let cfg = ServerConfig::new(SchedulerKind::CLook).with_timeline(timeline);
            serve(&mut disk, &records, &cfg).map(|_| ())
        };
        assert_eq!(run(100.0, 0.0, 1.0), Ok(()));
        let err = |field| Err(ServerError::InvalidConfig(field));
        for v in [0.0, -1.0, 1e-7, f64::NAN, f64::INFINITY] {
            assert_eq!(run(v, 25.0, 0.01), err("timeline.window_ms"), "{v}");
        }
        for v in [-1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(run(100.0, v, 0.01), err("slo.threshold_ms"), "{v}");
        }
        for v in [0.0, -0.1, 1.5, f64::NAN] {
            assert_eq!(run(100.0, 25.0, v), err("slo.breach_fraction"), "{v}");
        }
        let shown = ServerError::InvalidConfig("slo.breach_fraction").to_string();
        assert!(shown.contains("slo.breach_fraction"), "{shown}");
    }

    #[test]
    fn response_time_includes_queueing_delay() {
        let mut disk = Disk::new(quantum_atlas_10k_ii());
        // Two same-instant arrivals: the second must wait for the first.
        let records = vec![
            TraceRecord {
                arrival: SimTime::ZERO,
                request: Request::read(0, 64),
            },
            TraceRecord {
                arrival: SimTime::ZERO,
                request: Request::read(1_000_000, 64),
            },
        ];
        let mut cfg = ServerConfig::new(SchedulerKind::Fifo);
        cfg.max_batch = 1;
        let res = serve(&mut disk, &records, &cfg).unwrap();
        assert_eq!(res.completed(), 2);
        let a = res.completions[0];
        let b = res.completions[1];
        assert!(b.completion > a.completion);
        assert!(b.response_ms() > a.response_ms());
    }

    /// A backend of independent spindles that each take 10 ms a command.
    struct TenMs;

    impl Backend for TenMs {
        fn capacity_lbns(&self) -> u64 {
            400
        }

        fn service_batch_into(&mut self, batch: &[(Request, SimTime)], out: &mut Vec<Completion>) {
            out.extend(batch.iter().map(|&(request, issue)| {
                let done = SimTime::from_ns(issue.as_ns() + 10_000_000);
                Completion {
                    request,
                    issue,
                    service_start: issue,
                    media_end: done,
                    completion: done,
                    cache_hit: false,
                    breakdown: Default::default(),
                }
            }));
        }
    }

    #[test]
    fn lanes_follow_spindle_ids_that_need_not_be_dense() {
        // Four 100-sector tracks; track 0 is read at 0 ms, tracks 1 and 2
        // at 5 ms, while track 0's spindle is still busy.
        let records: Vec<TraceRecord> = (0..3)
            .map(|t| TraceRecord {
                arrival: SimTime::from_ns(5_000_000 * t.min(1)),
                request: Request::read(100 * t, 50),
            })
            .collect();
        let response_ms = |spindles: Option<Vec<u16>>| -> Vec<f64> {
            let mut map = ConfidentBoundaries::certain(TrackBoundaries::uniform(4, 100));
            if let Some(ids) = spindles {
                map = map.with_spindles(ids).unwrap();
            }
            let cfg = ServerConfig::new(SchedulerKind::Traxtent).with_boundaries(map);
            serve(&mut TenMs, &records, &cfg).unwrap().response_ms()
        };
        // One lane: one track per round, each waiting for the last.
        assert_eq!(response_ms(None), [10.0, 15.0, 25.0]);
        // Two lanes: track 1 goes out the instant it arrives, and track 2
        // waits only for track 0, which shares its spindle.
        assert_eq!(response_ms(Some(vec![7, 2, 7, 2])), [10.0, 10.0, 15.0]);
        assert_eq!(response_ms(Some(vec![1, 0, 1, 0])), [10.0, 10.0, 15.0]);
        // Only the traxtent scheduler reads the ids.
        let mut cfg = ServerConfig::new(SchedulerKind::CLook).with_boundaries(
            ConfidentBoundaries::certain(TrackBoundaries::uniform(4, 100))
                .with_spindles(vec![7, 2, 7, 2])
                .unwrap(),
        );
        cfg.max_batch = 1;
        let res = serve(&mut TenMs, &records, &cfg).unwrap();
        assert_eq!(res.response_ms(), [10.0, 15.0, 25.0]);
    }

    #[test]
    fn depth_accounting_is_consistent() {
        let mut disk = Disk::new(quantum_atlas_10k_ii());
        let records = trace(800, 2.0, &disk);
        let res = serve(
            &mut disk,
            &records,
            &ServerConfig::new(SchedulerKind::CLook),
        )
        .unwrap();
        assert!(res.max_depth >= 1);
        assert!(res.mean_depth() > 0.0);
        assert!(res.mean_depth() <= res.max_depth as f64);
        assert!(res.throughput_rps() > 0.0);
    }

    #[test]
    fn metrics_export_lands_in_registry() {
        let mut disk = Disk::new(quantum_atlas_10k_ii());
        let records = trace(100, 5.0, &disk);
        let res = serve(
            &mut disk,
            &records,
            &ServerConfig::new(SchedulerKind::CLook),
        )
        .unwrap();
        let reg = Registry::new();
        res.export_metrics(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.get("server.completed"), Some(res.completed()));
        assert_eq!(snap.get("server.max_depth"), Some(res.max_depth as u64));
    }
}
