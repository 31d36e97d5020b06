//! The drive model: command processing, positioning, media access
//! (zero-latency or ordinary), firmware cache, and bus delivery.
//!
//! [`Disk::service`] processes commands strictly in issue order (FCFS), but
//! the *mechanism* and the *bus* are separate resources: the next command's
//! seek overlaps the previous command's bus transfer whenever the host keeps
//! more than one command outstanding — exactly the effect the paper's
//! `tworeq` workload exposes (§5.2, Figure 5).

pub use crate::request::{Breakdown, Completion, Op, Request};

use crate::bus::{BusConfig, Delivery};
use crate::cache::{CacheConfig, SegmentCache};
use crate::fault::{CommandFault, FaultConfig, FaultStats, SenseKey};
use crate::geometry::{DiskGeometry, TrackId};
use crate::mech::{SeekCurve, Spindle};
use crate::rotation;
use crate::trace::{Phase, TraceEvent, Tracer, Value};
use crate::{SimDur, SimTime};
use traxtent::TrackBoundaries;

/// Full configuration of a simulated drive.
#[derive(Debug, Clone)]
pub struct DiskConfig {
    /// Human-readable model name (e.g. "Quantum Atlas 10K II").
    pub name: String,
    /// The built layout.
    pub geometry: DiskGeometry,
    /// Spindle speed.
    pub spindle: Spindle,
    /// Calibrated seek curve.
    pub seek: SeekCurve,
    /// Time to switch read/write heads (track switch within a cylinder).
    pub head_switch: SimDur,
    /// Extra settle time charged before media writes.
    pub write_settle: SimDur,
    /// Firmware command processing overhead per request.
    pub cmd_overhead: SimDur,
    /// Whether the firmware supports zero-latency (access-on-arrival) media
    /// transfer.
    pub zero_latency: bool,
    /// Host interconnect.
    pub bus: BusConfig,
    /// Firmware read cache.
    pub cache: CacheConfig,
    /// Optional per-request event sink. Every drive built from this config
    /// — including drives built internally by higher layers — reports its
    /// mechanical events there. `None` (the presets' default) disables
    /// tracing; the disabled path costs one branch per request.
    pub tracer: Option<Tracer>,
    /// Fault injection (see [`crate::fault`]). The default injects
    /// nothing and leaves every timing untouched; when any mechanism is
    /// enabled, faults are drawn deterministically from
    /// [`FaultConfig::seed`] and the request sequence.
    pub fault: FaultConfig,
}

/// A simulated disk drive.
///
/// The drive owns mutable mechanical state (arm position, resource
/// availability) and a firmware cache; time only moves forward across
/// successive [`Disk::service`] calls.
#[derive(Debug, Clone)]
pub struct Disk {
    config: DiskConfig,
    cache: SegmentCache,
    cur_cyl: u32,
    cur_head: u32,
    actuator_free: SimTime,
    bus_free: SimTime,
    last_issue: SimTime,
    /// Reused per-sector durability buffer of crash-logged writes — the
    /// one consumer that records an instant per sector; reads deliver
    /// through [`Delivery`] and never touch it. The buffer never leaves
    /// the drive: [`Disk::run_visits`] borrows it in place (no
    /// take/give-back hand-off), so no early return can drop its capacity.
    avail_scratch: Vec<SimTime>,
    /// Reused visit plan (capacity persists across requests so the hot
    /// path stops allocating).
    visit_scratch: Vec<Visit>,
    /// Next request sequence number for trace events (monotonic for the
    /// life of the drive, surviving [`Disk::reset`]).
    req_seq: u64,
    /// Cumulative mechanical occupancy (positioning + media) in simulated
    /// nanoseconds, surviving [`Disk::reset`] like `req_seq`. Cache hits
    /// contribute nothing; bus delivery overlapped with the next command's
    /// positioning is excluded, so windowed busy fractions stay ≤ 1.
    busy_ns: u64,
    /// Reused trace-event buffer: a request's events are batched here and
    /// delivered to the sink under one lock acquisition.
    trace_scratch: Vec<TraceEvent>,
    /// Running totals of injected faults (all zero with faults off).
    fault_stats: FaultStats,
    /// Optional per-write durability log for power-cut simulation
    /// ([`crate::crash`]). `None` (the default) costs one branch per
    /// write; when attached, timing stays bit-identical (the per-sector
    /// scan it forces matches the closed form exactly).
    crash_log: Option<Box<crate::crash::CrashLog>>,
}

/// One mechanical stop during a request: a track (or a remapped sector's
/// spare location) and the physical slots to transfer there, in LBN order:
/// `first_slot..=last_slot`, less the slipped defects in between
/// (`Track::slot_runs`).
#[derive(Debug, Clone, Copy)]
struct Visit {
    cyl: u32,
    head: u32,
    track: TrackId,
    /// First LBN this visit transfers (the visit covers consecutive LBNs).
    lbn: u64,
    /// Number of sectors transferred.
    count: u32,
    /// Physical slot of the first LBN.
    first_slot: u32,
    /// Physical slot of the last LBN.
    last_slot: u32,
    /// One past the last LBN of the track the visit's LBNs map to; 0 for
    /// a remapped sector's visit, whose spare location says nothing of it.
    track_end: u64,
}

/// What [`Disk::run_visits`] does with the instant each sector comes off
/// (or, for a write, lands on) the media.
enum Sectors<'a> {
    /// Nothing: only the mechanism's own timing is wanted.
    Ignore,
    /// Record every instant in [`Disk::avail_scratch`], in LBN order (a
    /// crash-logged write).
    Log,
    /// Deliver them to the host over a finite bus (a read).
    Deliver(&'a mut Delivery),
}

/// Per-request tracing context threaded through the service path: the
/// request's sequence number, whether tracing is on (checked before any
/// event is constructed), and the batch buffer events accumulate in.
struct Trace {
    rid: u64,
    on: bool,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Records a phase of this request (a [`crate::trace::PHASE_EVENTS`]
    /// row); with tracing off, builds nothing.
    fn phase<const N: usize>(
        &mut self,
        name: &'static str,
        t: SimTime,
        dur: Option<SimDur>,
        attrs: [(&'static str, u64); N],
    ) {
        if self.on {
            self.push(name, t, dur, attrs.map(|(k, v)| (k, Value::Num(v))).into());
        }
    }

    /// Records an injected fault of `kind` striking `lbn`, charging `dur`.
    fn fault(&mut self, t: SimTime, dur: SimDur, kind: &str, lbn: u64) {
        if self.on {
            let attrs = vec![("kind", Value::Text(kind.into())), ("lbn", Value::Num(lbn))];
            self.push("fault", t, Some(dur), attrs);
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        t: SimTime,
        dur: Option<SimDur>,
        attrs: Vec<(&'static str, Value)>,
    ) {
        self.events.push(TraceEvent::Phase(Phase {
            name,
            req: self.rid,
            t: t.as_ns(),
            dur: dur.map(SimDur::as_ns),
            attrs,
        }));
    }
}

impl Sectors<'_> {
    /// Hands one visit's instants, in LBN order, to whoever wants them.
    fn feed(&mut self, log: &mut Vec<SimTime>, instants: impl Iterator<Item = SimTime>) {
        match self {
            Sectors::Ignore => instants.for_each(drop),
            Sectors::Log => log.extend(instants),
            Sectors::Deliver(bus) => bus.visit(instants),
        }
    }
}

impl Disk {
    /// Creates a drive in its power-on state: heads at cylinder 0, cache
    /// empty, both resources free at time zero.
    pub fn new(config: DiskConfig) -> Self {
        let cache = SegmentCache::new(config.cache);
        Disk {
            config,
            cache,
            cur_cyl: 0,
            cur_head: 0,
            actuator_free: SimTime::ZERO,
            bus_free: SimTime::ZERO,
            last_issue: SimTime::ZERO,
            avail_scratch: Vec::new(),
            visit_scratch: Vec::new(),
            req_seq: 0,
            busy_ns: 0,
            trace_scratch: Vec::new(),
            fault_stats: FaultStats::default(),
            crash_log: None,
        }
    }

    /// The drive's layout.
    pub fn geometry(&self) -> &DiskGeometry {
        &self.config.geometry
    }

    /// The drive's configuration.
    pub fn config(&self) -> &DiskConfig {
        &self.config
    }

    /// Total addressable LBNs — shorthand for
    /// `geometry().capacity_lbns()`, handy when a drive is one member
    /// handle among many in a multi-disk volume.
    pub fn capacity_lbns(&self) -> u64 {
        self.config.geometry.capacity_lbns()
    }

    /// The drive's ground-truth track-boundary table — what extraction is
    /// scored against, and what a layer that trusts the drive outright
    /// allocates and schedules by. The geometry builds it once and every
    /// caller shares it: the clone is O(1).
    pub fn track_boundaries(&self) -> TrackBoundaries {
        self.geometry().track_boundaries().clone()
    }

    /// The issue instant of the most recently issued command (`SimTime::ZERO`
    /// for a fresh drive). Commands must be issued at or after this instant;
    /// volume layers that fan one logical request into several member
    /// commands use it to clamp per-member issue times.
    pub fn last_issue(&self) -> SimTime {
        self.last_issue
    }

    /// Cumulative mechanical occupancy in simulated nanoseconds: the sum of
    /// `media_end − service_start` over every serviced command. Monotonic
    /// for the life of the drive (surviving [`Disk::reset`]); upper layers
    /// poll it to derive windowed per-member busy fractions.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// The spindle.
    pub fn spindle(&self) -> Spindle {
        self.config.spindle
    }

    /// The earliest instant at which all drive resources are idle.
    pub fn idle_at(&self) -> SimTime {
        self.actuator_free.max(self.bus_free)
    }

    /// Totals of every fault injected so far (all zero when fault
    /// injection is off). Like the request sequence number, the totals
    /// survive [`Disk::reset`].
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Starts logging per-write per-sector durability for power-cut
    /// simulation (see [`crate::crash`]). Idempotent; timing stays
    /// bit-identical with the log attached. Like the request sequence
    /// number, the log survives [`Disk::reset`] (a power cycle does not
    /// rewrite history).
    pub fn enable_crash_log(&mut self) {
        if self.crash_log.is_none() {
            self.crash_log = Some(Box::default());
        }
    }

    /// The attached crash log, if any.
    pub fn crash_log(&self) -> Option<&crate::crash::CrashLog> {
        self.crash_log.as_deref()
    }

    /// Detaches and returns the crash log, disabling further logging.
    pub fn take_crash_log(&mut self) -> Option<crate::crash::CrashLog> {
        self.crash_log.take().map(|b| *b)
    }

    /// Attaches the sector contents of the most recently serviced write
    /// to the crash log (`payload` is `len * SECTOR_BYTES` bytes in LBN
    /// order). No-op when no crash log is attached, so issuing layers
    /// can call it unconditionally.
    ///
    /// # Panics
    ///
    /// With a log attached, panics if the last logged command already
    /// has a payload, no write was logged yet, or the length is wrong —
    /// see [`crate::crash::CrashLog::attach_payload`].
    pub fn note_write_payload(&mut self, payload: &[u8]) {
        if let Some(log) = self.crash_log.as_deref_mut() {
            log.attach_payload(payload.to_vec());
        }
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.config.tracer.as_ref()
    }

    /// Returns the drive to its power-on state (heads at cylinder 0, cache
    /// empty, clock rewound to zero).
    pub fn reset(&mut self) {
        self.cache = SegmentCache::new(self.config.cache);
        self.cur_cyl = 0;
        self.cur_head = 0;
        self.actuator_free = SimTime::ZERO;
        self.bus_free = SimTime::ZERO;
        self.last_issue = SimTime::ZERO;
    }

    /// Services one command issued at `issue`. Commands must be issued in
    /// non-decreasing time order; the drive processes them FCFS.
    ///
    /// # Panics
    ///
    /// Panics if the request extends past the disk capacity or if `issue`
    /// precedes a previously issued command.
    pub fn service(&mut self, req: Request, issue: SimTime) -> Completion {
        self.admit(&req, issue, self.last_issue);
        self.serve(req, issue)
    }

    /// Services a batch of commands, appending one [`Completion`] per
    /// request to `out` in issue order.
    ///
    /// Equivalent to calling [`Disk::service`] in a loop — same FCFS
    /// semantics, same results — but the whole batch is validated up front
    /// and the completions land in a caller-owned buffer, amortizing
    /// per-request setup on trace-replay scale workloads.
    ///
    /// # Panics
    ///
    /// Panics if any request extends past the disk capacity or the issue
    /// times are not non-decreasing (including against previously issued
    /// commands).
    pub fn service_batch_into(&mut self, batch: &[(Request, SimTime)], out: &mut Vec<Completion>) {
        let mut last = self.last_issue;
        for (req, issue) in batch {
            self.admit(req, *issue, last);
            last = *issue;
        }
        out.extend(batch.iter().map(|&(req, issue)| self.serve(req, issue)));
    }

    /// Checks what [`Disk::service`] promises to panic on: `req` lies
    /// within the disk and `issue` is not before `last`.
    fn admit(&self, req: &Request, issue: SimTime, last: SimTime) {
        let cap = self.config.geometry.capacity_lbns();
        assert!(
            req.fits(cap),
            "request of {} sectors at {} exceeds capacity {cap}",
            req.len,
            req.lbn,
        );
        assert!(issue >= last, "commands must be issued in time order");
    }

    /// Like [`Disk::service`], but surfaces failures the way a real drive
    /// does — as CHECK CONDITION results — instead of recovering them in
    /// firmware:
    ///
    /// * a request past the disk capacity fails with
    ///   [`SenseKey::IllegalRequest`] (where [`Disk::service`] panics);
    /// * an injected transient fault fails with
    ///   [`SenseKey::AbortedCommand`] after charging the command overhead
    ///   (where [`Disk::service`] silently retries). Re-issuing the command
    ///   draws a fresh fault decision.
    ///
    /// With fault injection off this behaves exactly like
    /// [`Disk::service`] for in-range requests.
    ///
    /// # Panics
    ///
    /// Panics if `issue` precedes a previously issued command.
    pub fn try_service(
        &mut self,
        req: Request,
        issue: SimTime,
    ) -> Result<Completion, CommandFault> {
        if !req.fits(self.config.geometry.capacity_lbns()) {
            return Err(CommandFault {
                sense: SenseKey::IllegalRequest,
                at: issue,
            });
        }
        assert!(
            issue >= self.last_issue,
            "commands must be issued in time order"
        );
        let mut trc = self.begin(req, issue);
        let overhead = self.config.cmd_overhead;
        if self.config.fault.transient(trc.rid, 0) {
            self.fault_stats.transient_surfaced += 1;
            let at = issue + overhead;
            trc.fault(at, SimDur::ZERO, "transient_abort", req.lbn);
            self.deliver(trc);
            return Err(CommandFault {
                sense: SenseKey::AbortedCommand,
                at,
            });
        }
        Ok(self.finish(req, issue, overhead, trc))
    }

    /// The service path behind [`Disk::service`]: transient command
    /// failures are recovered in firmware, each failed attempt costing a
    /// retry charged to overhead. Requests are pre-validated by the
    /// callers.
    fn serve(&mut self, req: Request, issue: SimTime) -> Completion {
        let mut trc = self.begin(req, issue);
        let fault = self.config.fault;
        let mut overhead = self.config.cmd_overhead;
        let mut attempt = 0u64;
        while attempt < 8 && fault.transient(trc.rid, attempt) {
            self.fault_stats.transient_recovered += 1;
            let at = issue + overhead;
            trc.fault(at, fault.transient_retry, "transient_retry", req.lbn);
            overhead += fault.transient_retry;
            attempt += 1;
        }
        self.finish(req, issue, overhead, trc)
    }

    /// Accepts a command: numbers it and, with tracing on, records its
    /// issue.
    fn begin(&mut self, req: Request, issue: SimTime) -> Trace {
        self.last_issue = issue;
        let rid = self.req_seq;
        self.req_seq += 1;
        let on = self.config.tracer.is_some();
        let mut trc = Trace {
            rid,
            on,
            events: if on {
                std::mem::take(&mut self.trace_scratch)
            } else {
                Vec::new()
            },
        };
        if on {
            trc.events.push(TraceEvent::Issue {
                req: rid,
                t: issue.as_ns(),
                op: req.op,
                lbn: req.lbn,
                len: u64::from(req.len),
            });
        }
        trc
    }

    /// Services a [`Disk::begin`]-accepted command whose processing
    /// (transient retries included) took `overhead`: a read the cache
    /// holds crosses the bus alone; anything else takes one media pass.
    fn finish(
        &mut self,
        req: Request,
        issue: SimTime,
        overhead: SimDur,
        mut trc: Trace,
    ) -> Completion {
        let mut breakdown = Breakdown {
            overhead,
            ..Breakdown::default()
        };
        let cmd_ready = issue + overhead;
        let cache_hit = req.op == Op::Read && self.cache.lookup(req.lbn, u64::from(req.len));
        let (service_start, media_end, end) = if cache_hit {
            let range = [("lbn", req.lbn), ("len", u64::from(req.len))];
            trc.phase("cache_hit", cmd_ready, None, range);
            let end = self.bus_transfer(req, cmd_ready, &mut trc);
            breakdown.bus = end - cmd_ready;
            (cmd_ready, cmd_ready, end)
        } else {
            self.media_pass(req, issue, cmd_ready, &mut breakdown, &mut trc)
        };
        self.busy_ns += media_end.since(service_start).as_ns();
        let completion = Completion {
            request: req,
            issue,
            service_start,
            media_end,
            completion: end,
            cache_hit,
            breakdown,
        };

        if trc.on {
            let b = completion.breakdown;
            trc.events.push(TraceEvent::Complete {
                req: trc.rid,
                t: completion.completion.as_ns(),
                op: req.op,
                lbn: req.lbn,
                len: u64::from(req.len),
                cache_hit: completion.cache_hit,
                queue: b.queue.as_ns(),
                overhead: b.overhead.as_ns(),
                seek: b.seek.as_ns(),
                head_switch: b.head_switch.as_ns(),
                rot_latency: b.rot_latency.as_ns(),
                media: b.media.as_ns(),
                bus: b.bus.as_ns(),
                write_settle: b.write_settle.as_ns(),
                response: completion.response_time().as_ns(),
            });
            self.deliver(trc);
        }
        completion
    }

    /// Hands a traced request's events to the tracer under one lock and
    /// keeps the buffer for the next request.
    fn deliver(&mut self, mut trc: Trace) {
        if let Some(tracer) = &self.config.tracer {
            tracer.record_all(&trc.events);
        }
        trc.events.clear();
        self.trace_scratch = trc.events;
    }

    /// Moves all of `req`'s data across the bus, starting once both the
    /// command (`ready`) and the bus are: a cache hit's to the host, a
    /// write's into the drive buffer. Returns when the last byte is across.
    fn bus_transfer(&mut self, req: Request, ready: SimTime, trc: &mut Trace) -> SimTime {
        let bus_start = ready.max(self.bus_free);
        let end = bus_start + self.config.bus.transfer_time(req.bytes());
        self.bus_free = end;
        if end > bus_start {
            let bytes = [("bytes", req.bytes())];
            trc.phase("bus", bus_start, Some(end - bus_start), bytes);
        }
        end
    }

    /// One media pass — plan, queue, [`Disk::run_visits`], actuator — and
    /// what only a read or a write does around it: a write invalidates
    /// the cache, takes its data in over the bus while the arm moves
    /// (§5.2 "Write performance") and is crash-logged; a read delivers as
    /// the mechanism goes and fills the cache. Returns the command's
    /// service start, media end and completion.
    fn media_pass(
        &mut self,
        req: Request,
        issue: SimTime,
        cmd_ready: SimTime,
        breakdown: &mut Breakdown,
        trc: &mut Trace,
    ) -> (SimTime, SimTime, SimTime) {
        let read = req.op == Op::Read;
        let finite = !self.config.bus.is_infinite();
        let data_ready = (!read).then(|| {
            self.cache.invalidate(req.lbn, u64::from(req.len));
            breakdown.write_settle = self.config.write_settle;
            if finite {
                self.bus_transfer(req, cmd_ready, trc)
            } else {
                cmd_ready
            }
        });

        self.plan_visits(req.lbn, u64::from(req.len));
        let pos_start = cmd_ready.max(self.actuator_free);
        breakdown.queue = pos_start.since(cmd_ready);
        if breakdown.queue > SimDur::ZERO {
            trc.phase("queue", cmd_ready, Some(breakdown.queue), []);
        }
        // A read's bus delivery rides along with the mechanism, visit by
        // visit. With a crash log attached a write's per-sector scan
        // collects each sector's media instant; the scan is bit-identical
        // in timing to the closed form it replaces (the reference drive
        // holds both to one model), so logging never perturbs results.
        let mut delivery = (read && finite).then(|| Delivery::new(&self.config.bus, self.bus_free));
        let sectors = match &mut delivery {
            Some(bus) => Sectors::Deliver(bus),
            None if !read && self.crash_log.is_some() => Sectors::Log,
            None => Sectors::Ignore,
        };
        let media_end = self.run_visits(pos_start, data_ready, sectors, breakdown, trc);
        self.actuator_free = media_end;
        if !read {
            if let Some(log) = self.crash_log.as_deref_mut() {
                debug_assert_eq!(self.avail_scratch.len() as u64, u64::from(req.len));
                log.records.push(crate::crash::WriteRecord {
                    req: trc.rid,
                    lbn: req.lbn,
                    len: u64::from(req.len),
                    issue,
                    durable: self.avail_scratch.clone(),
                    payload: None,
                });
            }
            return (pos_start, media_end, media_end);
        }

        // Firmware read-ahead: the cache segment extends to the end of the
        // last track touched. The planned last visit already knows that
        // track's end unless the tail sector was remapped (the visit then
        // sits on the spare track); only that case re-resolves the logical
        // track.
        let last = req.end() - 1;
        let planned = (self.visit_scratch.last()).filter(|v| last < v.track_end);
        let seg_end = match planned {
            Some(v) => v.track_end,
            None => self
                .config
                .geometry
                .track_bounds(last)
                .map(|(_, e)| e)
                .unwrap_or(req.end()),
        };
        self.cache.insert(req.lbn, seg_end);
        if self.config.cache.segments > 0 {
            let cached = [("start", req.lbn), ("end", seg_end)];
            trc.phase("cache_fill", media_end, None, cached);
        }

        let completion = delivery.map_or(media_end, |d| d.end());
        self.bus_free = self.bus_free.max(completion);
        breakdown.bus = completion.saturating_since(media_end);
        if completion > media_end {
            let bytes = [("bytes", req.bytes())];
            trc.phase("bus", media_end, Some(breakdown.bus), bytes);
        }
        (pos_start, media_end, completion)
    }

    /// Splits an LBN range into mechanical visits (maximal same-track runs,
    /// with remapped LBNs visiting their spare locations individually) into
    /// the drive's reusable visit scratch.
    #[expect(
        clippy::expect_used,
        reason = "every caller checks req.fits(capacity) first, so each LBN planned is mapped"
    )]
    fn plan_visits(&mut self, lbn: u64, len: u64) {
        let Disk {
            ref config,
            ref mut visit_scratch,
            ..
        } = *self;
        let geom = &config.geometry;
        visit_scratch.clear();
        let mut cur = lbn;
        let end = lbn + len;
        while cur < end {
            if geom.is_remapped(cur) {
                let pba = geom.lbn_to_pba(cur).expect("validated range");
                visit_scratch.push(Visit {
                    cyl: pba.cyl,
                    head: pba.head,
                    track: geom.track_at(pba.cyl, pba.head).expect("valid pba"),
                    lbn: cur,
                    count: 1,
                    first_slot: pba.slot,
                    last_slot: pba.slot,
                    track_end: 0,
                });
                cur += 1;
                continue;
            }
            let tid = geom.track_of_lbn(cur).expect("validated range");
            let t = &geom.track(tid.0);
            let mut run_end = end.min(t.end_lbn());
            if let Some(l) = geom.first_remap_in(cur, run_end) {
                run_end = l;
            }
            let count = (run_end - cur) as u32;
            let first_logical = (cur - t.first_lbn()) as u32;
            let first_slot = geom.slot_of_logical(t, first_logical);
            let last_slot = geom.slot_of_logical(t, first_logical + count - 1);
            visit_scratch.push(Visit {
                cyl: t.cyl(),
                head: t.head(),
                track: tid,
                lbn: cur,
                count,
                first_slot,
                last_slot,
                track_end: t.end_lbn(),
            });
            cur = run_end;
        }
    }

    /// Runs the mechanism over the planned visits ([`Disk::plan_visits`])
    /// starting at `start`. For writes, `data_ready` is when the last
    /// sector is buffered; media transfer for each visit cannot begin
    /// before it. Returns the media completion time; every sector's media
    /// instant goes where `sectors` says ([`Sectors::Log`] leaves them in
    /// `self.avail_scratch`, borrowed in place — the buffer never leaves
    /// the drive, so its capacity survives any exit path).
    fn run_visits(
        &mut self,
        start: SimTime,
        data_ready: Option<SimTime>,
        mut sectors: Sectors<'_>,
        breakdown: &mut Breakdown,
        trc: &mut Trace,
    ) -> SimTime {
        let Disk {
            ref mut config,
            ref mut avail_scratch,
            ref visit_scratch,
            ref mut cur_cyl,
            ref mut cur_head,
            ref mut fault_stats,
            ..
        } = *self;
        let geom = &config.geometry;
        let spindle = config.spindle;
        let fault = config.fault;
        let faults_on = fault.enabled();
        let mut media_errors = 0u64;
        // LBNs whose media error escalated to a grown defect; reallocated
        // after the mechanical pass (the remap affects later commands).
        let mut grown: Vec<u64> = Vec::new();
        let mut t = start;
        let avail = avail_scratch;
        if matches!(sectors, Sectors::Log) {
            avail.clear();
        }

        let nvisits = visit_scratch.len();
        for (vi, v) in visit_scratch.iter().enumerate() {
            // Positioning.
            let dist = v.cyl.abs_diff(*cur_cyl);
            if dist > 0 {
                let mut s = config.seek.seek_time(dist);
                if faults_on {
                    s = fault.jitter_seek(s, trc.rid, vi as u64);
                }
                let (from, to) = (u64::from(*cur_cyl), u64::from(v.cyl));
                trc.phase("seek", t, Some(s), [("from_cyl", from), ("to_cyl", to)]);
                breakdown.seek += s;
                t += s;
            } else if v.head != *cur_head {
                let mut hs = config.head_switch;
                if faults_on {
                    hs = fault.jitter_head_switch(hs, trc.rid, vi as u64);
                }
                trc.phase("head_switch", t, Some(hs), []);
                breakdown.head_switch += hs;
                t += hs;
            }
            *cur_cyl = v.cyl;
            *cur_head = v.head;

            if vi == 0 {
                if let Some(ready) = data_ready {
                    // Write settle (once per command), then wait for buffered
                    // data if the bus is still feeding the drive.
                    if config.write_settle > SimDur::ZERO {
                        trc.phase("settle", t, Some(config.write_settle), []);
                    }
                    t += config.write_settle;
                    if ready > t {
                        trc.phase("bus", t, Some(ready - t), [("bytes", 0)]);
                        breakdown.bus += ready - t;
                        t = ready;
                    }
                }
            }

            // Rotational jitter: spindle speed variation presents the
            // target sector up to a fraction of a revolution late.
            if faults_on {
                let extra = fault.rot_extra(spindle.revolution(), trc.rid, vi as u64);
                if extra > SimDur::ZERO {
                    breakdown.rot_latency += extra;
                    t += extra;
                }
            }

            // Recovered media errors: the firmware re-reads the failing
            // sector one revolution later, so this visit's sectors reach
            // the host (or count as durable) only after the re-read. The
            // draw is a pure function of the request; the revolution
            // itself is charged after the visit, below.
            let retry = faults_on && fault.media_error(trc.rid, vi as u64, u64::from(v.count));
            let rev = spindle.revolution();
            let base = if retry { t + rev } else { t };

            // Media access on this track (angular distances per
            // [`rotation::slot_distance`]).
            let track = &geom.track(v.track.0);
            let slot_frac = track.inv_spt();
            let arr_angle = spindle.angle_at(t);
            // The visit's slots: one contiguous run, or the sub-runs its
            // slipped defects leave.
            let contiguous = v.last_slot - v.first_slot + 1 == v.count;
            let runs = || track.slot_runs(v.first_slot, v.last_slot);
            let slots = || runs().flat_map(|(s, n)| s..s + n);

            // Access-on-arrival (zero-latency) can reorder sectors *within*
            // one mechanical visit, so it applies when the visit covers the
            // track's whole LBN range or is the request's last visit; a
            // partial *first* track accessed out of order would force the
            // mechanism to revisit it after serving the later tracks, which
            // real firmware does not do — those visits wait for their first
            // sector like an ordinary disk.
            let full_track = v.count == track.lbn_count();
            let zero_latency_visit = config.zero_latency && (full_track || vi == nvisits - 1);
            let (visit_end, rot, media) = if zero_latency_visit {
                // Closed forms, O(log spt) a run and bit-identical to the
                // scan. A slipped visit is priced sub-run by sub-run: every
                // sub-run's instants come from the one expression below, and
                // the window's min / max and an in-order delivery's max-plus
                // maps compose across them.
                let within = |(lo, hi): (f64, f64), (a, b): (f64, f64)| (lo.min(a), hi.max(b));
                let empty = (f64::INFINITY, f64::NEG_INFINITY);
                let (min_d, max_d) = match &mut sectors {
                    Sectors::Ignore if contiguous => {
                        rotation::window_closed(track, arr_angle, v.first_slot, v.count)
                    }
                    Sectors::Deliver(bus) if contiguous => {
                        bus.zero_latency_run(track, spindle, base, arr_angle, v.first_slot, v.count)
                    }
                    Sectors::Ignore => runs()
                        .map(|(s, n)| rotation::window_closed(track, arr_angle, s, n))
                        .fold(empty, within),
                    Sectors::Deliver(bus) if !config.bus.out_of_order => runs()
                        .map(|(s, n)| bus.zero_latency_run(track, spindle, base, arr_angle, s, n))
                        .fold(empty, within),
                    // Per-sector path: the crash log records every
                    // sector's instant, or an out-of-order bus takes a
                    // slipped visit by instant, across its sub-runs.
                    sectors => {
                        let mut window = empty;
                        let at = |s| {
                            let d = rotation::slot_distance(track, arr_angle, s);
                            window = within(window, (d, d));
                            base + spindle.sweep(d + slot_frac)
                        };
                        sectors.feed(avail, slots().map(at));
                        window
                    }
                };
                let end = t + spindle.sweep(max_d + slot_frac);
                (
                    end,
                    spindle.sweep(min_d),
                    spindle.sweep(max_d - min_d + slot_frac),
                )
            } else {
                let s0 = v.first_slot;
                let d0 = rotation::slot_distance(track, arr_angle, s0);
                let after = |slots: u32| spindle.sweep(d0 + f64::from(slots) * slot_frac);
                let span = v.last_slot - s0 + 1;
                match &mut sectors {
                    // Slots ascend, so the instants do, a slot time or
                    // more apart: one run, ending with the visit.
                    Sectors::Deliver(bus) if bus.paced_by(spindle.sweep(slot_frac)) => {
                        bus.run(v.count, base + after(span));
                    }
                    Sectors::Ignore => {}
                    sectors => sectors.feed(avail, slots().map(|s| base + after(s - s0 + 1))),
                }
                (
                    t + after(span),
                    spindle.sweep(d0),
                    spindle.sweep(f64::from(span) * slot_frac),
                )
            };
            let tid = u64::from(v.track.0);
            if rot > SimDur::ZERO {
                trc.phase("rot_wait", t, Some(rot), [("track", tid)]);
            }
            let moved = [("track", tid), ("sectors", u64::from(v.count))];
            trc.phase("media", t + rot, Some(media), moved);
            breakdown.rot_latency += rot;
            breakdown.media += media;
            t = visit_end;

            if retry {
                media_errors += 1;
                let bad = v.lbn + fault.failing_sector(trc.rid, vi as u64, u64::from(v.count));
                trc.fault(t, rev, "media_retry", bad);
                // The lost revolution is charged as rotational latency.
                breakdown.rot_latency += rev;
                t += rev;
                if fault.grows_defect(trc.rid, vi as u64) {
                    grown.push(bad);
                }
            }
        }
        // Reallocate grown defects now that the mechanical pass is over;
        // the new mapping applies from the next command on.
        fault_stats.media_errors += media_errors;
        for lbn in grown {
            let kind = if config.geometry.add_grown_defect(lbn).is_ok() {
                fault_stats.grown_defects += 1;
                "grown_defect"
            } else {
                fault_stats.grown_defects_unspared += 1;
                "grown_defect_unspared"
            };
            trc.fault(t, SimDur::ZERO, kind, lbn);
        }
        t
    }
}

/// A block service an open-loop server can drive: a single simulated
/// drive, or any composition of drives (a striped/mirrored/RAID volume)
/// that presents one logical LBN space.
///
/// The contract mirrors [`Disk::service_batch_into`]: commands must be
/// accepted in non-decreasing issue order, each producing exactly one
/// [`Completion`] whose `completion` instant is on the same simulated
/// clock the issue times use. Implementations must be deterministic —
/// the server's latency percentiles are compared bit-for-bit across
/// hosts and thread counts.
pub trait Backend {
    /// Total addressable LBNs of the logical space.
    fn capacity_lbns(&self) -> u64;

    /// Services a batch of commands, appending one [`Completion`] per
    /// request to `out` in issue order.
    fn service_batch_into(&mut self, batch: &[(Request, SimTime)], out: &mut Vec<Completion>);

    /// Cumulative mechanical occupancy of each member drive in simulated
    /// nanoseconds (one entry per member; a bare disk is one member).
    /// The timeline sampler polls this between rounds to derive windowed
    /// per-member busy fractions; backends without the notion may return
    /// an empty vector (the default).
    fn member_busy_ns(&self) -> Vec<u64> {
        Vec::new()
    }
}

impl Backend for Disk {
    fn capacity_lbns(&self) -> u64 {
        Disk::capacity_lbns(self)
    }

    fn service_batch_into(&mut self, batch: &[(Request, SimTime)], out: &mut Vec<Completion>) {
        Disk::service_batch_into(self, batch, out);
    }

    fn member_busy_ns(&self) -> Vec<u64> {
        vec![self.busy_ns()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{GeometrySpec, ZoneSpec};
    use crate::SECTOR_BYTES;

    /// A small 10 000 RPM zero-latency test drive: 1 zone, 200-sector
    /// tracks, 2 surfaces, 50 cylinders.
    fn test_disk(zero_latency: bool, bus: BusConfig) -> Disk {
        let geometry = GeometrySpec::pristine(
            2,
            vec![ZoneSpec {
                cylinders: 50,
                spt: 200,
                track_skew: 30,
                cyl_skew: 40,
            }],
        )
        .build()
        .unwrap();
        Disk::new(DiskConfig {
            name: "test".to_string(),
            geometry,
            spindle: Spindle::new(10_000),
            seek: SeekCurve::calibrate(0.8, 2.0, 4.0, 50),
            head_switch: SimDur::from_millis_f64(0.8),
            write_settle: SimDur::from_millis_f64(1.0),
            cmd_overhead: SimDur::from_micros_f64(100.0),
            zero_latency,
            bus,
            cache: CacheConfig::default(),
            tracer: None,
            fault: FaultConfig::default(),
        })
    }

    #[test]
    fn full_track_zero_latency_read_takes_one_revolution() {
        let mut d = test_disk(true, BusConfig::infinite());
        // Seek away first so the read below starts with a known seek.
        let _ = d.service(Request::read(10 * 400, 1), SimTime::ZERO);
        let t = d.idle_at();
        let c = d.service(Request::read(0, 200), t);
        // rot latency ≤ one slot; media ≈ one revolution (6 ms).
        assert!(c.breakdown.rot_latency <= d.spindle().sweep(1.0 / 200.0));
        let rev = d.spindle().revolution().as_millis_f64();
        assert!((c.breakdown.media.as_millis_f64() - rev).abs() < 0.05);
    }

    #[test]
    fn full_track_ordinary_read_waits_for_sector_zero() {
        let mut d = test_disk(false, BusConfig::infinite());
        let mut total_rot = 0.0;
        let n = 200;
        let mut t = SimTime::ZERO;
        // Simple LCG for think times, to decorrelate the rotational phase.
        let mut state = 0x9e37_79b9u64;
        for i in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Random-ish starting track; each read is one full track.
            let track = (i * 7) % 99;
            let c = d.service(Request::read(track * 200, 200), t);
            total_rot += c.breakdown.rot_latency.as_millis_f64();
            // Media transfer is exactly one revolution.
            assert!((c.breakdown.media.as_millis_f64() - 6.0).abs() < 0.05);
            t = c.completion + SimDur::from_ns(state % 6_000_000);
        }
        let avg_rot = total_rot / n as f64;
        // Expected ≈ half a revolution = 3 ms.
        assert!((avg_rot - 3.0).abs() < 0.4, "avg rot latency {avg_rot}");
    }

    #[test]
    fn cache_hit_is_bus_only() {
        let mut d = test_disk(true, BusConfig::in_order(160.0));
        let miss = d.service(Request::read(100, 32), SimTime::ZERO);
        assert!(!miss.cache_hit);
        let hit = d.service(Request::read(100, 32), miss.completion);
        assert!(hit.cache_hit);
        let expect = d.config().bus.transfer_time(32 * SECTOR_BYTES) + d.config().cmd_overhead;
        assert_eq!(hit.response_time(), expect);
    }

    #[test]
    fn readahead_caches_to_track_end() {
        let mut d = test_disk(true, BusConfig::infinite());
        let c = d.service(Request::read(0, 10), SimTime::ZERO);
        // The rest of track 0 is now cached.
        let c2 = d.service(Request::read(150, 50), c.completion);
        assert!(c2.cache_hit);
        // But track 1 is not.
        let c3 = d.service(Request::read(200, 10), c2.completion);
        assert!(!c3.cache_hit);
    }

    #[test]
    fn busy_ns_accumulates_mechanical_time_and_survives_reset() {
        let mut d = test_disk(true, BusConfig::infinite());
        assert_eq!(d.busy_ns(), 0);
        let c = d.service(Request::read(0, 100), SimTime::ZERO);
        let expect = c.media_end.since(c.service_start).as_ns();
        assert!(expect > 0);
        assert_eq!(d.busy_ns(), expect);
        // A cache hit does no mechanical work.
        let h = d.service(Request::read(0, 100), c.completion);
        assert!(h.cache_hit);
        assert_eq!(d.busy_ns(), expect);
        d.reset();
        assert_eq!(
            d.busy_ns(),
            expect,
            "occupancy is for the life of the drive"
        );
        let c2 = d.service(Request::read(5000, 100), SimTime::ZERO);
        assert_eq!(
            d.busy_ns(),
            expect + c2.media_end.since(c2.service_start).as_ns()
        );
    }

    #[test]
    fn writes_invalidate_cache() {
        let mut d = test_disk(true, BusConfig::infinite());
        let c = d.service(Request::read(0, 200), SimTime::ZERO);
        let w = d.service(Request::write(50, 10), c.completion);
        let r = d.service(Request::read(0, 200), w.completion);
        assert!(!r.cache_hit);
    }

    #[test]
    fn in_order_bus_delays_mid_track_arrival() {
        // With an in-order bus, a zero-latency full-track read that starts
        // mid-track cannot stream until LBN 0 of the request is read, so the
        // completion trails media_end by roughly the pre-arrival portion.
        let mut d = test_disk(true, BusConfig::in_order(160.0));
        let mut trailing = Vec::new();
        let mut t = SimTime::ZERO;
        for i in 0..100 {
            let track = (7 * i + 3) % 99;
            let c = d.service(Request::read(track * 200, 200), t);
            trailing.push(c.breakdown.bus.as_millis_f64());
            t = c.completion;
        }
        let avg = trailing.iter().sum::<f64>() / trailing.len() as f64;
        // 200 sectors * 3.2 µs = 0.64 ms full transfer; expected trailing
        // ≈ half of it on average (uniform arrival within the track).
        assert!(avg > 0.15 && avg < 0.6, "avg trailing bus {avg}");
    }

    #[test]
    fn out_of_order_bus_overlaps_transfer() {
        let mk = |ooo: bool| {
            let bus = if ooo {
                BusConfig::out_of_order(160.0)
            } else {
                BusConfig::in_order(160.0)
            };
            let mut d = test_disk(true, bus);
            let mut t = SimTime::ZERO;
            let mut sum = 0.0;
            for i in 0..50 {
                let track = (13 * i + 1) % 99;
                let c = d.service(Request::read(track * 200, 200), t);
                sum += c.response_time().as_millis_f64();
                t = c.completion + SimDur::from_millis_f64(0.1);
            }
            sum / 50.0
        };
        assert!(mk(true) < mk(false), "out-of-order bus should be faster");
    }

    #[test]
    fn queued_command_overlaps_seek_with_bus_transfer() {
        // tworeq-style: keep two commands outstanding; head time (spacing of
        // media completions) should be below onereq response time.
        let run = |queued: bool| {
            let mut d = test_disk(true, BusConfig::in_order(40.0)); // slow bus
            let reqs: Vec<Request> = (0..60)
                .map(|i| Request::read(((17 * i + 5) % 99) * 200, 200))
                .collect();
            let mut completions = Vec::new();
            let mut t = SimTime::ZERO;
            if queued {
                // Issue i+1 while i is in flight.
                let mut pending: Option<Completion> = None;
                for r in reqs {
                    let c = d.service(r, t);
                    if let Some(p) = pending.take() {
                        completions.push((p, c));
                    }
                    t = c.issue.max(c.media_end); // issue next while bus busy
                    pending = Some(c);
                }
            } else {
                let mut prev: Option<Completion> = None;
                for r in reqs {
                    let c = d.service(r, t);
                    if let Some(p) = prev.take() {
                        completions.push((p, c));
                    }
                    t = c.completion;
                    prev = Some(c);
                }
            }
            let n = completions.len() as f64;
            completions
                .iter()
                .map(|(p, c)| (c.completion - p.completion).as_millis_f64())
                .sum::<f64>()
                / n
        };
        let one = run(false);
        let two = run(true);
        assert!(two < one, "queued head time {two} should beat onereq {one}");
    }

    #[test]
    fn write_charges_settle_and_no_read_cache() {
        let mut d = test_disk(true, BusConfig::in_order(160.0));
        let w = d.service(Request::write(0, 200), SimTime::ZERO);
        assert!(!w.cache_hit);
        assert_eq!(w.breakdown.write_settle, SimDur::from_millis_f64(1.0));
        // Write completion = media end (no trailing bus transfer).
        assert_eq!(w.completion, w.media_end);
    }

    #[test]
    fn remapped_lbn_costs_an_excursion() {
        let mut d = test_disk(true, BusConfig::infinite());
        // Give the disk spare space so a grown defect can be remapped.
        {
            let mut spec = d.geometry().spec().clone();
            spec.spare = crate::defects::SpareScheme::SectorsPerCylinder(8);
            let geometry = spec.build().unwrap();
            d = Disk::new(DiskConfig {
                geometry,
                ..d.config().clone()
            });
        }
        // Baseline: read 10 sectors.
        let base = d
            .service(Request::read(0, 10), SimTime::ZERO)
            .response_time();
        let mut cfg = d.config().clone();
        cfg.geometry.add_grown_defect(5).unwrap();
        let with_remap = Disk::new(cfg)
            .service(Request::read(0, 10), SimTime::ZERO)
            .response_time();
        assert!(
            with_remap > base + SimDur::from_millis_f64(1.0),
            "remap should cost a mechanical excursion: {with_remap:?} vs {base:?}"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn out_of_range_request_panics() {
        let mut d = test_disk(true, BusConfig::infinite());
        let cap = d.geometry().capacity_lbns();
        let _ = d.service(Request::read(cap - 1, 2), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn reordered_issue_panics() {
        let mut d = test_disk(true, BusConfig::infinite());
        let _ = d.service(Request::read(0, 1), SimTime::from_ns(100));
        let _ = d.service(Request::read(0, 1), SimTime::from_ns(50));
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut d = test_disk(true, BusConfig::in_order(160.0));
        let c = d.service(Request::read(1000, 100), SimTime::ZERO);
        assert!(c.completion > SimTime::ZERO);
        d.reset();
        assert_eq!(d.idle_at(), SimTime::ZERO);
        let c2 = d.service(Request::read(1000, 100), SimTime::ZERO);
        assert!(!c2.cache_hit);
    }

    #[test]
    fn avail_scratch_capacity_survives_faulted_requests() {
        // Regression for the old take/give-back hand-off: an early return
        // (surfaced transient abort) or a fault-path detour must not drop
        // the reusable buffer's capacity. Crash-logged writes are what
        // fill it.
        let mut d = test_disk(true, BusConfig::in_order(160.0));
        d.enable_crash_log();
        let c = d.service(Request::write(0, 400), SimTime::ZERO);
        let cap_before = d.avail_scratch.capacity();
        assert!(cap_before >= 400, "scratch not primed: {cap_before}");

        // Every command aborts transiently when surfaced via try_service.
        d.config.fault.transient_per_million = 1_000_000;
        let mut t = c.completion;
        for i in 0..4u64 {
            let r = d.try_service(Request::read(i * 37, 64), t);
            if let Ok(c) = r {
                t = c.completion;
            }
        }
        assert!(
            d.avail_scratch.capacity() >= cap_before,
            "capacity dropped across surfaced transient faults"
        );

        // Recovered media errors (the in-visit fault detour) on reads and
        // writes, including the internally retried transient path.
        d.config.fault.transient_per_million = 500_000;
        d.config.fault.media_per_million = 1_000_000;
        for i in 0..4u64 {
            let c = d.service(Request::read(i * 53, 128), t);
            t = c.completion;
            let c = d.service(Request::write(i * 53, 128), t);
            t = c.completion;
        }
        assert!(
            d.avail_scratch.capacity() >= cap_before,
            "capacity dropped across recovered faults"
        );
    }

    #[test]
    fn reads_never_collect_per_sector_instants() {
        // The inverse gate: on every catalogued drive (each has a finite
        // bus), reads of every shape deliver through `Delivery` and leave
        // the per-sector buffer unallocated.
        let mut configs: Vec<DiskConfig> = crate::models::table1_sheets()
            .iter()
            .map(|sheet| sheet.build())
            .collect();
        configs.push(crate::models::small_test_disk());
        for config in configs {
            assert!(!config.bus.is_infinite(), "{}", config.name);
            let mut d = Disk::new(config);
            let cap = d.capacity_lbns();
            let spt = u64::from(d.geometry().track(0).spt());
            let mut state = 0x2545_f491_4f6c_dd1du64;
            let mut t = SimTime::ZERO;
            let mut misses = 0;
            for i in 0..300u64 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                // One sector up to two and a half tracks, anywhere; every
                // third command queues behind the one before it.
                let len = 1 + (state >> 40) % (5 * spt / 2);
                let c = d.service(Request::read((state >> 8) % (cap - len), len), t);
                misses += u64::from(!c.cache_hit);
                if i % 3 != 0 {
                    t = c.completion;
                }
            }
            assert!(misses >= 250, "{}: only {misses} misses", d.config.name);
            assert_eq!(d.avail_scratch.capacity(), 0, "{}", d.config.name);
        }
    }

    #[test]
    fn sequential_reads_stream_without_rotational_loss() {
        // Back-to-back sequential full-track reads: with correct skew the
        // next track's data arrives right after the head switch, so per-track
        // time ≈ revolution + switch, far below revolution + half-rev
        // latency.
        let mut d = test_disk(true, BusConfig::infinite());
        let mut t = SimTime::ZERO;
        let mut prev_end = SimTime::ZERO;
        let mut spacings = Vec::new();
        for track in 0..20u64 {
            let c = d.service(Request::read(track * 200, 200), t);
            if track > 0 {
                spacings.push((c.completion - prev_end).as_millis_f64());
            }
            prev_end = c.completion;
            t = c.completion;
        }
        let avg = spacings.iter().sum::<f64>() / spacings.len() as f64;
        // Revolution 6 ms + switch 0.8/0.9 ms (+ skew slack); must be well
        // under 6 + 3 = 9 ms.
        assert!(avg < 8.0, "sequential streaming spacing {avg} too slow");
    }
}
