//! A naive reference drive, and the property that holds [`Disk`] to it
//! bit for bit.
//!
//! The reference works sector by sector and visit by visit. It finds each
//! sector's slot with `lbn_to_pba`, cuts a request into visits by where
//! those slots lie, times every sector through [`rotation::slot_distance`]
//! and [`Spindle::sweep`], and delivers a read by running the bus
//! recurrence over every sector's instant, sorted first on an
//! out-of-order bus. It uses none of the drive's closed forms: no
//! rotational window, no delivery run, no slot runs, no visit plan. It
//! shares with the drive only the [`DiskConfig`], the LBN → physical map
//! (`lbn_to_pba`, `track`, `track_bounds`, `slot_angle`,
//! `add_grown_defect`), the per-slot expressions (`slot_distance`,
//! `Spindle::{angle_at, sweep}`, `SeekCurve::seek_time`,
//! `BusConfig::{sector_time, transfer_time}`) and [`FaultConfig`]'s seven
//! draws. The segment cache is its module doc restated over ranges.
//!
//! [`completions_match_the_reference`] drives both through `service`,
//! `service_batch_into` and `try_service` on the seven Table 1 sheets,
//! pristine and with factory defects behind cylinder spares, and on
//! `arb_spec` drives. After every call every [`Completion`] field, every
//! crash-logged durable instant, `busy_ns` and `fault_stats` must be
//! equal. Its tally names each branch the drive's documentation gives,
//! and each delivery path `Delivery` takes.

mod common;

use common::arb_spec;
use proptest::prelude::*;
use sim_disk::bus::BusConfig;
use sim_disk::cache::CacheConfig;
use sim_disk::defects::{DefectLocation, DefectPolicy, SpareScheme};
use sim_disk::disk::{Breakdown, Completion, Disk, DiskConfig, Op, Request};
use sim_disk::fault::{CommandFault, FaultConfig, FaultStats, Jitter, SenseKey};
use sim_disk::geometry::{DiskGeometry, GeometrySpec, ZoneSpec};
use sim_disk::mech::{SeekCurve, Spindle};
use sim_disk::models;
use sim_disk::rotation;
use sim_disk::{SimDur, SimTime};
use std::sync::OnceLock;

// ---------------------------------------------------------------------
// The reference.
// ---------------------------------------------------------------------

/// One mechanical stop: the track, the first LBN, and each sector's slot
/// in LBN order.
struct Visit {
    tid: u32,
    lbn: u64,
    remapped: bool,
    slots: Vec<u32>,
}

/// What `Disk` keeps between commands, kept naively.
struct Reference {
    cfg: DiskConfig,
    /// Cached `[start, end)` runs, least recently used first.
    cache: Vec<(u64, u64)>,
    cyl: u32,
    head: u32,
    mech_free: SimTime,
    bus_free: SimTime,
    rid: u64,
    busy_ns: u64,
    faults: FaultStats,
    /// Each write's sectors' media instants, in LBN order.
    durable: Vec<Vec<SimTime>>,
}

impl Reference {
    fn new(cfg: &DiskConfig) -> Self {
        Reference {
            cfg: cfg.clone(),
            cache: Vec::new(),
            cyl: 0,
            head: 0,
            mech_free: SimTime::ZERO,
            bus_free: SimTime::ZERO,
            rid: 0,
            busy_ns: 0,
            faults: FaultStats::default(),
            durable: Vec::new(),
        }
    }

    /// `Disk::service`: up to eight transient failures are retried inside.
    fn service(&mut self, req: Request, issue: SimTime, tally: &mut Tally) -> Completion {
        let (rid, fault) = (self.next_rid(), self.cfg.fault);
        let retries = (0..8).take_while(|&a| fault.transient(rid, a)).count() as u64;
        tally.note_if(retries > 0, "transient_retry");
        self.faults.transient_recovered += retries;
        let overhead = self.cfg.cmd_overhead + fault.transient_retry * retries;
        self.run(req, issue, rid, overhead, tally)
    }

    /// `Disk::try_service`: a transient failure reaches the host.
    fn try_service(
        &mut self,
        req: Request,
        issue: SimTime,
        tally: &mut Tally,
    ) -> Result<Completion, CommandFault> {
        let fail = |sense, at| Err(CommandFault { sense, at });
        if req.lbn + req.len > self.cfg.geometry.capacity_lbns() {
            tally.note("illegal_request");
            return fail(SenseKey::IllegalRequest, issue);
        }
        let rid = self.next_rid();
        if self.cfg.fault.transient(rid, 0) {
            tally.note("transient_abort");
            self.faults.transient_surfaced += 1;
            return fail(SenseKey::AbortedCommand, issue + self.cfg.cmd_overhead);
        }
        Ok(self.run(req, issue, rid, self.cfg.cmd_overhead, tally))
    }

    fn next_rid(&mut self) -> u64 {
        self.rid += 1;
        self.rid - 1
    }

    /// One accepted command, its processing done at `issue + overhead`.
    fn run(
        &mut self,
        req: Request,
        issue: SimTime,
        rid: u64,
        overhead: SimDur,
        tally: &mut Tally,
    ) -> Completion {
        let ready = issue + overhead;
        let bus = self.cfg.bus;
        let mut b = Breakdown {
            overhead,
            ..Breakdown::default()
        };
        let done = |start, media_end, completion, cache_hit, breakdown| Completion {
            request: req,
            issue,
            service_start: start,
            media_end,
            completion,
            cache_hit,
            breakdown,
        };
        if req.op == Op::Read && self.cache_lookup(req.lbn, req.end()) {
            tally.note("cache_hit");
            let end = ready.max(self.bus_free) + bus.transfer_time(req.bytes());
            self.bus_free = end;
            b.bus = end - ready;
            return done(ready, ready, end, true, b);
        }
        // A write's data crosses the bus into the drive while it seeks.
        let buffered = (req.op == Op::Write).then(|| {
            self.cache_invalidate(req.lbn, req.end());
            b.write_settle = self.cfg.write_settle;
            if bus.is_infinite() {
                return ready;
            }
            self.bus_free = ready.max(self.bus_free) + bus.transfer_time(req.bytes());
            self.bus_free
        });
        let start = ready.max(self.mech_free);
        b.queue = start - ready;
        tally.note_if(start > ready, "queue_wait");
        let (media_end, mut instants) = self.media(req, rid, start, buffered, &mut b, tally);
        self.mech_free = media_end;
        self.busy_ns += (media_end - start).as_ns();
        if req.op == Op::Write {
            self.durable.push(instants);
            return done(start, media_end, media_end, false, b);
        }
        let last_track_end = self.cfg.geometry.track_bounds(req.end() - 1).unwrap().1;
        self.cache_fill(req.lbn, last_track_end);
        // The bus is held until the read's last sector is across.
        let mut end = media_end;
        if !bus.is_infinite() {
            if bus.out_of_order {
                tally.note("bus_out_of_order");
                instants.sort();
            }
            let sector = bus.sector_time();
            end = instants
                .iter()
                .fold(self.bus_free, |e, &a| e.max(a) + sector);
            b.bus = end.saturating_since(media_end);
        }
        self.bus_free = self.bus_free.max(end);
        done(start, media_end, end, false, b)
    }

    /// The request's visits, sector by sector: a remapped sector is a
    /// visit of its own, and the rest run on while they stay on a track.
    fn plan(&self, req: Request) -> Vec<Visit> {
        let geom = &self.cfg.geometry;
        let mut visits: Vec<Visit> = Vec::new();
        for lbn in req.lbn..req.end() {
            let p = geom.lbn_to_pba(lbn).unwrap();
            let tid = p.cyl * geom.surfaces() + p.head;
            let remapped = geom.track(tid).remap_targets().contains(&(p.slot, lbn));
            match visits.last_mut() {
                Some(v) if v.tid == tid && !v.remapped && !remapped => v.slots.push(p.slot),
                _ => visits.push(Visit {
                    tid,
                    lbn,
                    remapped,
                    slots: vec![p.slot],
                }),
            }
        }
        visits
    }

    /// Moves the mechanism over the request's visits from `start`: the
    /// media end, and every sector's media instant in LBN order. A write
    /// passes when its data is all `buffered`.
    fn media(
        &mut self,
        req: Request,
        rid: u64,
        start: SimTime,
        buffered: Option<SimTime>,
        b: &mut Breakdown,
        tally: &mut Tally,
    ) -> (SimTime, Vec<SimTime>) {
        let visits = self.plan(req);
        let (spindle, fault) = (self.cfg.spindle, self.cfg.fault);
        let (rev, faulty) = (spindle.revolution(), fault.enabled());
        let mut t = start;
        let mut instants = Vec::new();
        let mut grown = Vec::new();
        for (vi, v) in visits.iter().enumerate() {
            let (track, n, key) = (self.cfg.geometry.track(v.tid), v.slots.len(), vi as u64);
            if track.cyl() != self.cyl {
                let mut s = self.cfg.seek.seek_time(track.cyl().abs_diff(self.cyl));
                if faulty {
                    s = fault.jitter_seek(s, rid, key);
                }
                tally.note("seek");
                b.seek += s;
                t += s;
            } else if track.head() != self.head {
                let mut s = self.cfg.head_switch;
                if faulty {
                    s = fault.jitter_head_switch(s, rid, key);
                }
                tally.note("head_switch");
                b.head_switch += s;
                t += s;
            }
            (self.cyl, self.head) = (track.cyl(), track.head());
            if let (0, Some(ready)) = (vi, buffered) {
                t += self.cfg.write_settle;
                if ready > t {
                    tally.note("write_stall");
                    b.bus += ready - t;
                    t = ready;
                }
            }
            if faulty {
                let late = fault.rot_extra(rev, rid, key);
                b.rot_latency += late;
                t += late;
            }
            let retry = faulty && fault.media_error(rid, key, n as u64);
            let arrival = spindle.angle_at(t);
            let frac = 1.0 / f64::from(track.spt());
            let dist = |s| rotation::slot_distance(&track, arrival, s);
            let full = n as u32 == track.lbn_count();
            let zero_latency = self.cfg.zero_latency && (full || vi + 1 == visits.len());
            // Where each sector has passed under the head, in revolutions
            // from the arrival: in the order the sectors arrive, or in
            // slot order behind the first.
            let (first, last) = (v.slots[0], v.slots[n - 1]);
            let (rot, media, passed): (f64, f64, Vec<f64>) = if zero_latency {
                let d: Vec<f64> = v.slots.iter().map(|&s| dist(s)).collect();
                let lo = d.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = d.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                (lo, hi - lo + frac, d.iter().map(|d| d + frac).collect())
            } else {
                let d0 = dist(first);
                let after = |s: u32| d0 + f64::from(s - first + 1) * frac;
                (
                    d0,
                    f64::from(last - first + 1) * frac,
                    v.slots.iter().map(|&s| after(s)).collect(),
                )
            };
            let base = if retry { t + rev } else { t };
            instants.extend(passed.iter().map(|&p| base + spindle.sweep(p)));
            b.rot_latency += spindle.sweep(rot);
            b.media += spindle.sweep(media);
            t += spindle.sweep(passed.iter().copied().fold(f64::NEG_INFINITY, f64::max));
            self.note_visit(tally, req.op, v, zero_latency, full, arrival);
            if retry {
                tally.note("retried");
                self.faults.media_errors += 1;
                b.rot_latency += rev;
                t += rev;
                if fault.grows_defect(rid, key) {
                    grown.push(v.lbn + fault.failing_sector(rid, key, n as u64));
                }
            }
        }
        for lbn in grown {
            if self.cfg.geometry.add_grown_defect(lbn).is_ok() {
                tally.note("grown_defect");
                self.faults.grown_defects += 1;
            } else {
                self.faults.grown_defects_unspared += 1;
            }
        }
        (t, instants)
    }

    /// Tallies a visit's kind, and the path the drive's delivery takes
    /// for it: a zero-latency visit's contiguous slot runs by size,
    /// pacing and EPS snap, an ordinary one by pacing.
    fn note_visit(
        &self,
        tally: &mut Tally,
        op: Op,
        v: &Visit,
        zero_latency: bool,
        full: bool,
        arrival: f64,
    ) {
        let track = self.cfg.geometry.track(v.tid);
        let bus = self.cfg.bus;
        let slot_time = self.cfg.spindle.sweep(1.0 / f64::from(track.spt()));
        let paced = slot_time >= bus.sector_time() + SimDur::from_ns(2);
        let delivered = op == Op::Read && !bus.is_infinite();
        tally.note_if(v.remapped, "remapped");
        if op == Op::Read {
            tally.note(match (bus.is_infinite(), paced) {
                (true, _) => "bus_infinite",
                (false, true) => "bus_paced",
                (false, false) => "bus_unpaced",
            });
        }
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for &s in &v.slots {
            match runs.last_mut() {
                Some((first, n)) if *first + *n == s => *n += 1,
                _ => runs.push((s, 1)),
            }
        }
        if !zero_latency {
            tally.note("ordinary_visit");
            if delivered {
                tally.note(if paced {
                    "ordinary"
                } else {
                    "ordinary_unpaced"
                });
            }
            return;
        }
        tally.note(if full {
            "zl_full_track"
        } else {
            "zl_last_visit"
        });
        tally.note_if(runs.len() > 1, "slipped");
        let snaps = |&(first, n): &(u32, u32)| {
            (first..first + n).any(|s| {
                rotation::slot_distance(&track, arrival, s) == 0.0 && track.slot_angle(s) != arrival
            })
        };
        let path = |names: [&'static str; 4], run: &(u32, u32)| {
            names[match () {
                _ if run.1 <= 2 => 0,
                _ if delivered && !paced => 1,
                _ if snaps(run) => 2,
                _ => 3,
            }]
        };
        if let [run] = runs[..] {
            if delivered {
                tally.note(path(["short_run", "unpaced", "snap", "closed"], &run));
            }
        } else if delivered && bus.out_of_order {
            tally.note("slipped_out_of_order_fallback");
        } else {
            for run in &runs {
                let names = [
                    "subrun_short",
                    "subrun_unpaced",
                    "subrun_snap",
                    "slipped_closed",
                ];
                tally.note(path(names, run));
            }
        }
    }

    fn cache_lookup(&mut self, start: u64, end: u64) -> bool {
        if self.cfg.cache.segments == 0 {
            return false;
        }
        let Some(at) = self.cache.iter().position(|&(s, e)| s <= start && end <= e) else {
            return false;
        };
        let seg = self.cache.remove(at);
        self.cache.push(seg);
        true
    }

    /// Caches `[start, end)`, absorbing every run it overlaps or abuts
    /// and evicting the least recently used beyond the segment count.
    fn cache_fill(&mut self, mut start: u64, mut end: u64) {
        if self.cfg.cache.segments == 0 || start >= end {
            return;
        }
        self.cache.retain(|&(s, e)| {
            let apart = e < start || end < s;
            if !apart {
                (start, end) = (start.min(s), end.max(e));
            }
            apart
        });
        while self.cache.len() >= self.cfg.cache.segments {
            self.cache.remove(0);
        }
        self.cache.push((start, end));
    }

    /// Drops `[start, end)` from the cache: of a run the write splits,
    /// the larger part stays (the left one on a tie).
    fn cache_invalidate(&mut self, start: u64, end: u64) {
        self.cache.retain_mut(|(s, e)| {
            if *s < end && start < *e {
                if start.saturating_sub(*s) >= e.saturating_sub(end) {
                    *e = start;
                } else {
                    *s = end;
                }
            }
            s < e
        });
    }
}

// ---------------------------------------------------------------------
// Driving both.
// ---------------------------------------------------------------------

/// When a command is issued.
#[derive(Debug, Clone, Copy)]
enum Issue {
    /// With the one before it (a queue builds).
    Together,
    /// This long after the one before it was issued.
    After(u64),
    /// When the one before it leaves the media, its data still on the bus.
    AtMediaEnd,
    /// When the one before it completes.
    AtCompletion,
}

/// Which entry point services a command.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Call {
    Service,
    Try,
    /// In one `service_batch_into` with the batched commands around it.
    Batch,
}

type Command = (Request, Issue, Call);

/// Services `commands` on a drive built from `cfg` (crash-logged if
/// `logged`) and on the reference, and checks every result.
fn check(cfg: &DiskConfig, logged: bool, commands: &[Command], tally: &mut Tally) {
    let mut disk = Disk::new(cfg.clone());
    if logged {
        disk.enable_crash_log();
    }
    let mut model = Reference::new(cfg);
    let (mut issue, mut prev) = (SimTime::ZERO, None::<Completion>);
    let (mut at, mut durable) = (0, 0);
    while at < commands.len() {
        // A batch's issue instants are fixed before any of it runs.
        let call = commands[at].2;
        let batched = commands[at..].iter().take_while(|c| c.2 == Call::Batch);
        let calls = if call == Call::Batch {
            batched.count()
        } else {
            1
        };
        let mut batch = Vec::new();
        for &(req, rule, _) in &commands[at..at + calls] {
            issue = issue.max(match (rule, prev) {
                (Issue::After(ns), _) => issue + SimDur::from_ns(ns),
                (Issue::AtMediaEnd, Some(p)) => p.media_end,
                (Issue::AtCompletion, Some(p)) => p.completion,
                _ => issue,
            });
            batch.push((req, issue));
        }
        let req = batch[0].0;
        let got: Vec<Result<Completion, CommandFault>> = match call {
            Call::Service => vec![Ok(disk.service(req, issue))],
            Call::Try => vec![disk.try_service(req, issue)],
            Call::Batch => {
                let mut out = Vec::new();
                disk.service_batch_into(&batch, &mut out);
                out.into_iter().map(Ok).collect()
            }
        };
        let want: Vec<_> = (batch.iter())
            .map(|&(req, issue)| match call {
                Call::Try => model.try_service(req, issue, tally),
                _ => Ok(model.service(req, issue, tally)),
            })
            .collect();
        tally.note_if(call == Call::Batch, "batched");
        let what = format!("{call:?} of {batch:?}");
        assert_eq!(got, want, "{what}");
        assert_eq!(disk.busy_ns(), model.busy_ns, "busy_ns after {what}");
        assert_eq!(disk.fault_stats(), model.faults, "fault_stats after {what}");
        if let Some(log) = disk.crash_log() {
            let logged: Vec<_> = log.records.iter().map(|r| &r.durable).collect();
            let want: Vec<_> = model.durable.iter().collect();
            assert_eq!(
                logged[durable..],
                want[durable..],
                "durable instants of {what}"
            );
            for _ in durable..want.len() {
                tally.note("crash_logged");
            }
            durable = want.len();
        }
        prev = got.last().and_then(|r| r.ok());
        at += calls;
    }
}

// ---------------------------------------------------------------------
// The drives.
// ---------------------------------------------------------------------

const RPMS: [u32; 5] = [3_600, 5_400, 7_200, 10_000, 15_000];

/// The seven Table 1 sheets, each pristine and with factory defects
/// behind cylinder spares, slipped and remapped: built once per process.
fn sheets() -> &'static [DiskConfig] {
    static SHEETS: OnceLock<Vec<DiskConfig>> = OnceLock::new();
    SHEETS.get_or_init(|| {
        let mut drives = Vec::new();
        for (i, sheet) in models::table1_sheets().iter().enumerate() {
            let cfg = sheet.build();
            for policy in [DefectPolicy::Slip, DefectPolicy::Remap] {
                let spares = SpareScheme::SectorsPerCylinder(8);
                let seed = 17 + i as u64;
                drives.push(models::with_factory_defects(
                    cfg.clone(),
                    spares,
                    policy,
                    20,
                    seed,
                ));
            }
            drives.push(cfg);
        }
        drives
    })
}

/// A finite bus whose sector time is exactly `ns`.
fn bus_with_sector_ns(ns: u64, out_of_order: bool) -> BusConfig {
    let bus = BusConfig {
        bytes_per_sec: Some(512e9 / ns as f64),
        out_of_order,
    };
    assert_eq!(bus.sector_time().as_ns(), ns);
    bus
}

/// A drive around `geometry` whose knobs the property draws.
fn drive(geometry: DiskGeometry, rpm: u32, zero_latency: bool, bus: BusConfig) -> DiskConfig {
    DiskConfig {
        name: "reference".to_string(),
        geometry,
        spindle: Spindle::new(rpm),
        seek: SeekCurve::calibrate(0.8, 2.0, 4.0, 50),
        head_switch: SimDur::from_millis_f64(0.8),
        write_settle: SimDur::from_millis_f64(1.0),
        cmd_overhead: SimDur::from_micros_f64(100.0),
        zero_latency,
        bus,
        cache: CacheConfig::default(),
        tracer: None,
        fault: FaultConfig::default(),
    }
}

/// No faults, media errors that grow defects, or every engine-visible
/// mechanism at once.
fn faults(mode: u32) -> FaultConfig {
    match mode {
        0 => FaultConfig::default(),
        1 => FaultConfig {
            media_per_million: 4_000,
            grown_per_million: 300_000,
            seed: 7,
            ..FaultConfig::default()
        },
        _ => FaultConfig {
            media_per_million: 1_000,
            transient_per_million: 100_000,
            seek_jitter: Jitter::Uniform(0.05),
            head_switch_jitter: Jitter::Gaussian(0.03),
            rot_jitter: Jitter::Uniform(0.02),
            seed: 11,
            ..FaultConfig::default()
        },
    }
}

#[test]
fn completions_match_the_reference() {
    let name = "completions_match_the_reference";
    let knobs = (
        0u32..3,
        0usize..RPMS.len(),
        0u32..2,
        (0u32..4, 0u32..2, 0u64..7),
    );
    let setup = (0u32..3, 0u32..3, 0u32..3, 0u32..2);
    let commands = prop::collection::vec(
        (
            (0u32..3, 0u32..5, 0u64..u64::MAX, 0u64..u64::MAX),
            (0u32..5, 0u64..9_000_000, 0u32..5),
        ),
        1..24,
    );
    let strategy = (arb_spec(), 0usize..64, knobs, setup, commands);
    let mut tally = Tally::default();
    for_cases(
        name,
        768,
        strategy,
        |(spec, sheet, (kind, rpm, zl, (bus, ooo, delta)), setup, raw)| {
            let (fault, logged, cache, overhead) = setup;
            let mut cfg = if kind == 0 {
                tally.note("table1_sheet");
                sheets()[sheet % sheets().len()].clone()
            } else {
                let Ok(geometry) = spec.build() else { return };
                let spindle = Spindle::new(RPMS[rpm]);
                let slot = spindle.sweep(geometry.track(0).inv_spt()).as_ns();
                let bus = match bus {
                    0 => BusConfig::infinite(),
                    1 => bus_with_sector_ns((slot / 4).max(1), ooo == 1),
                    2 => bus_with_sector_ns((slot + delta).saturating_sub(3).max(1), ooo == 1),
                    _ => bus_with_sector_ns(2 * slot + 7, ooo == 1),
                };
                drive(geometry, RPMS[rpm], zl == 1, bus)
            };
            cfg.fault = faults(fault);
            // The cache off, of two segments, or as built.
            if cache < 2 {
                cfg.cache.segments = 2 * cache as usize;
            }
            if overhead == 1 {
                cfg.cmd_overhead = SimDur::ZERO;
            }
            let geom = &cfg.geometry;
            tally.note_if(
                matches!(geom.spec().spare, SpareScheme::SectorsPerCylinder(_)),
                "cylinder_spares",
            );
            let cap = geom.capacity_lbns();
            let spt = u64::from(geom.track(0).spt());
            // The LBN ranges of tracks that hold a defect.
            let defective: Vec<(u64, u64)> = (geom.defect_list().iter())
                .map(|d| geom.track(d.cyl * geom.surfaces() + d.head))
                .filter(|t| t.lbn_count() > 0)
                .map(|t| (t.first_lbn(), u64::from(t.lbn_count())))
                .collect();
            let mut next = 0;
            let commands: Vec<Command> = (raw.into_iter())
                .map(|((op, shape, lsel, nsel), (when, gap, call))| {
                    // Sequential (picking up where the last stopped, which
                    // parks the head on a slot edge), anywhere, or on a
                    // defective track; a few sectors, or up to three
                    // tracks: partial first, full middle, partial last.
                    let lbn = match shape {
                        0 | 1 if next < cap => next,
                        2 | 3 if !defective.is_empty() => {
                            let (first, n) = defective[lsel as usize % defective.len()];
                            first + nsel % n
                        }
                        _ => lsel % cap,
                    };
                    let short = nsel % 3 == 0;
                    let len = 1 + (nsel / 3) % if short { 4 } else { 3 * spt };
                    // A few commands to `try_service` run past the end.
                    let past = call == 3 && short && lsel % 4 == 0;
                    let len = if past {
                        cap - lbn + len
                    } else {
                        len.min(cap - lbn)
                    };
                    next = lbn + len;
                    let rule = match when {
                        0 => Issue::Together,
                        1 => Issue::After(gap),
                        2 | 3 => Issue::AtMediaEnd,
                        _ => Issue::AtCompletion,
                    };
                    let call = match call {
                        0..=2 => Call::Service,
                        3 => Call::Try,
                        _ => Call::Batch,
                    };
                    let op = if op == 0 { Op::Write } else { Op::Read };
                    (Request::new(op, lbn, len), rule, call)
                })
                .collect();
            check(&cfg, logged == 1, &commands, &mut tally);
        },
    );
    tally.require(
        name,
        &[
            "cache_hit",
            "queue_wait",
            "seek",
            "head_switch",
            "zl_full_track",
            "zl_last_visit",
            "ordinary_visit",
            "slipped",
            "remapped",
            "bus_infinite",
            "bus_paced",
            "bus_unpaced",
            "bus_out_of_order",
            "write_stall",
            "crash_logged",
            "retried",
            "grown_defect",
            "transient_retry",
            "transient_abort",
            "illegal_request",
            "batched",
            "table1_sheet",
            "cylinder_spares",
            // The delivery paths `bus_props`' trace-stitched oracle required.
            "closed",
            "short_run",
            "unpaced",
            "snap",
            "slipped_closed",
            "slipped_out_of_order_fallback",
            "ordinary",
            "ordinary_unpaced",
            "subrun_short",
        ],
    );
}

// ---------------------------------------------------------------------
// Fixed inputs.
// ---------------------------------------------------------------------

/// The small two-surface zero-latency drive the fixed inputs share: 200
/// slots a track at 10 000 RPM (30 µs a slot) behind a 160 MB/s bus (3.2
/// µs a sector), no command overhead, cache off so every read reaches
/// the media.
fn small_drive(spec: GeometrySpec, out_of_order: bool, fault: FaultConfig) -> DiskConfig {
    let bus = bus_with_sector_ns(3_200, out_of_order);
    DiskConfig {
        cmd_overhead: SimDur::ZERO,
        cache: CacheConfig { segments: 0 },
        fault,
        ..drive(spec.build().unwrap(), 10_000, true, bus)
    }
}

fn small_spec() -> GeometrySpec {
    GeometrySpec::pristine(
        2,
        vec![ZoneSpec {
            cylinders: 50,
            spt: 200,
            track_skew: 30,
            cyl_skew: 40,
        }],
    )
}

fn reads(reads: &[(u64, u64, Issue)]) -> Vec<Command> {
    (reads.iter())
        .map(|&(lbn, len, rule)| (Request::read(lbn, len), rule, Call::Service))
        .collect()
}

#[test]
fn fallback_eps_snap_back_to_back() {
    // Sequential reads with no command overhead, each issued as the one
    // before leaves the media: the head sits exactly on the next sector's
    // leading edge, give or take the nanosecond the clock rounds to.
    for out_of_order in [false, true] {
        let cfg = small_drive(small_spec(), out_of_order, FaultConfig::default());
        let commands = reads(
            &(0..60)
                .map(|i| (i * 40, 40, Issue::AtMediaEnd))
                .collect::<Vec<_>>(),
        );
        let mut tally = Tally::default();
        check(&cfg, false, &commands, &mut tally);
        assert!(tally.count("snap") > 0, "no arrival snapped: {tally:?}");
    }
}

#[test]
fn slipped_run_takes_the_closed_form() {
    // Two slipped defects inside track 0's LBN range: three zero-latency
    // reads across them (the whole track, and two last visits) are eight
    // contiguous sub-runs, each priced in closed form on an in-order bus;
    // an out-of-order bus takes each of the three sector by sector.
    let mut spec = small_spec();
    spec.spare = SpareScheme::SectorsPerTrack(4);
    spec.policy = DefectPolicy::Slip;
    spec.defects = vec![
        DefectLocation::new(0, 0, 50),
        DefectLocation::new(0, 0, 120),
    ];
    for out_of_order in [false, true] {
        let cfg = small_drive(spec.clone(), out_of_order, FaultConfig::default());
        let commands = reads(&[
            (0, 196, Issue::Together),
            (30, 60, Issue::After(2_500_000)),
            (100, 300, Issue::AtMediaEnd),
            (10, 150, Issue::AtCompletion),
        ]);
        let mut tally = Tally::default();
        check(&cfg, false, &commands, &mut tally);
        let (closed, per_sector) = if out_of_order { (0, 3) } else { (8, 0) };
        let paths = ["slipped", "slipped_closed", "slipped_out_of_order_fallback"];
        assert_eq!(
            paths.map(|p| tally.count(p)),
            [3, closed, per_sector],
            "{tally:?}"
        );
    }
}

#[test]
fn media_retry_shifts_the_visit() {
    // Every visit of a two-track read suffers a recovered media error:
    // the partial first track (ordinary access) and the full second track
    // (zero-latency) each hand their sectors over a revolution late, and
    // the second visit starts a revolution late on top of that.
    let fault = FaultConfig {
        media_per_million: 1_000_000,
        ..FaultConfig::default()
    };
    for out_of_order in [false, true] {
        let cfg = small_drive(small_spec(), out_of_order, fault);
        let mut tally = Tally::default();
        check(
            &cfg,
            false,
            &reads(&[(100, 300, Issue::Together)]),
            &mut tally,
        );
        let paths = ["retried", "ordinary", "closed"];
        assert_eq!(paths.map(|p| tally.count(p)), [2, 1, 1], "{tally:?}");

        // And the shift is the whole difference from a healthy drive's.
        let read = Request::read(100, 300);
        let healthy = Disk::new(DiskConfig {
            fault: FaultConfig::default(),
            ..cfg.clone()
        })
        .service(read, SimTime::ZERO);
        let faulty = Disk::new(cfg.clone()).service(read, SimTime::ZERO);
        let two_revs = cfg.spindle.revolution() * 2;
        assert_eq!(faulty.completion, healthy.completion + two_revs);
    }
}
