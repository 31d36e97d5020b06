//! Property tests of finite-bus read delivery: the closed form
//! ([`sim_disk::bus::Delivery`]) must equal, to the nanosecond, the
//! per-sector algorithm it replaced — collect every sector's availability
//! instant, sort them if the bus delivers out of order, run the delivery
//! recurrence over the lot. That algorithm lives on here, verbatim, as the
//! oracle ([`avail_scan`], [`delivery_scan_ref`]).
//!
//! Two levels: the zero-latency kernel alone, on arbitrary tracks, arrival
//! angles and bus speeds; and whole [`Completion`]s through
//! [`Disk::service`], where the oracle rebuilds every visit from the
//! drive's own trace and an infinite-bus twin vouches for the mechanism.
//! Every fallback the kernel's documentation names has a named case below,
//! and the properties print how often each path ran.

mod common;

use common::arb_spec;
use proptest::prelude::*;
use proptest::{FailureReporter, TestRng};
use sim_disk::bus::{BusConfig, Delivery};
use sim_disk::cache::CacheConfig;
use sim_disk::defects::{DefectLocation, DefectPolicy, SpareScheme};
use sim_disk::disk::{Breakdown, Completion, Disk, DiskConfig, Request};
use sim_disk::fault::{FaultConfig, Jitter};
use sim_disk::geometry::{DiskGeometry, GeometrySpec, Track, ZoneSpec};
use sim_disk::mech::{SeekCurve, Spindle};
use sim_disk::rotation::{self, EPS};
use sim_disk::trace::{MemorySink, TraceEvent, Tracer};
use sim_disk::{SimDur, SimTime};
use std::fmt::Debug;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------
// The oracle: the parent's read path, sector by sector.
// ---------------------------------------------------------------------

/// One visit's availability instants in LBN order, as `Disk::run_visits`
/// used to push them: access-on-arrival for a zero-latency visit, in slot
/// order behind the first slot otherwise.
fn avail_scan(
    track: &Track,
    spindle: Spindle,
    t: SimTime,
    arr_angle: f64,
    slots: &[u32],
    zero_latency_visit: bool,
    avail: &mut Vec<SimTime>,
) {
    let slot_frac = track.inv_spt();
    if zero_latency_visit {
        for &s in slots {
            let d = rotation::slot_distance(track, arr_angle, s);
            avail.push(t + spindle.sweep(d + slot_frac));
        }
    } else {
        let s0 = slots[0];
        let d0 = rotation::slot_distance(track, arr_angle, s0);
        for &s in slots {
            avail.push(t + spindle.sweep(d0 + f64::from(s - s0 + 1) * slot_frac));
        }
    }
}

/// The delivery loop `Disk::service_read` used to run over a request's
/// instants.
fn delivery_scan_ref(avail: &mut [SimTime], bus_free: SimTime, bus: &BusConfig) -> SimTime {
    let sector = bus.sector_time();
    if bus.out_of_order {
        avail.sort_unstable();
    }
    let mut prev_end = SimTime::ZERO;
    let mut first = true;
    for &a in avail.iter() {
        let start = if first {
            first = false;
            a.max(bus_free)
        } else {
            a.max(prev_end)
        };
        prev_end = start + sector;
    }
    prev_end
}

// ---------------------------------------------------------------------
// Which path a visit takes, decided here from the documented conditions.
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct Tally {
    /// Zero-latency, contiguous, closed form.
    closed: u32,
    /// Fallback: `count <= 2`.
    short_run: u32,
    /// Fallback: bus sector time not 2 ns under the slot time.
    unpaced: u32,
    /// Fallback: the EPS snap fires in the run.
    snap: u32,
    /// Fallback: the run straddles slipped defects.
    slipped: u32,
    /// Ordinary (first-sector-first) visit, one run.
    ordinary: u32,
    /// Ordinary visit on an unpaced bus, sector by sector.
    ordinary_unpaced: u32,
    /// Visits shifted a revolution by a recovered media error.
    retried: u32,
}

impl Tally {
    fn zero_latency(
        &mut self,
        bus: &BusConfig,
        track: &Track,
        spindle: Spindle,
        arr: f64,
        slots: &[u32],
    ) {
        let count = slots.len() as u32;
        let contiguous = slots[slots.len() - 1] - slots[0] + 1 == count;
        let paced = Delivery::new(bus, SimTime::ZERO).paced_by(spindle.sweep(track.inv_spt()));
        let path = if !contiguous {
            &mut self.slipped
        } else if count <= 2 {
            &mut self.short_run
        } else if !paced {
            &mut self.unpaced
        } else if rotation::window_pieces(track, arr, slots[0], count).max_d >= 1.0 - EPS {
            &mut self.snap
        } else {
            &mut self.closed
        };
        *path += 1;
    }

    fn ordinary(&mut self, bus: &BusConfig, track: &Track, spindle: Spindle) {
        if Delivery::new(bus, SimTime::ZERO).paced_by(spindle.sweep(track.inv_spt())) {
            self.ordinary += 1;
        } else {
            self.ordinary_unpaced += 1;
        }
    }
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

/// A sector time placed against the slot time: well under it (what every
/// catalogued drive has), within 3 ns of it, or well over it.
fn sector_ns(slot_time: SimDur, mode: u32, delta: u64) -> u64 {
    let slot = slot_time.as_ns();
    match mode {
        0 => (slot / 4).max(1),
        1 => (slot + delta).saturating_sub(3).max(1),
        _ => 2 * slot + 7,
    }
}

const RPMS: [u32; 5] = [3_600, 5_400, 7_200, 10_000, 15_000];

/// Runs `body` over `cases` samples of `strategy`, drawn as `proptest!`
/// draws them (seeded by `name`, inputs printed when a case panics) —
/// spelled out so that the property can tally paths across cases.
fn for_cases<S: Strategy>(
    name: &'static str,
    cases: u32,
    strategy: S,
    mut body: impl FnMut(S::Value),
) where
    S::Value: Debug,
{
    let mut rng = TestRng::deterministic(name);
    for case in 0..cases {
        let value = strategy.sample(&mut rng);
        let reporter = FailureReporter::new(name, case, format!("{value:?}"));
        body(value);
        reporter.disarm();
    }
}

// ---------------------------------------------------------------------
// The kernel alone.
// ---------------------------------------------------------------------

/// Checks one zero-latency run through the kernel against the oracle:
/// delivery end to the nanosecond, window to the bit.
#[allow(clippy::too_many_arguments)]
fn check_kernel(
    tally: &mut Tally,
    track: &Track,
    spindle: Spindle,
    bus: &BusConfig,
    bus_free: SimTime,
    base: SimTime,
    arr: f64,
    first: u32,
    count: u32,
) {
    let slots: Vec<u32> = (first..first + count).collect();
    tally.zero_latency(bus, track, spindle, arr, &slots);

    let mut avail = Vec::new();
    avail_scan(track, spindle, base, arr, &slots, true, &mut avail);
    let want_end = delivery_scan_ref(&mut avail, bus_free, bus);
    let want_window = rotation::window_scan(track, arr, first, count);

    let mut delivery = Delivery::new(bus, bus_free);
    let window = delivery.zero_latency_run(track, spindle, base, arr, first, count);
    assert_eq!(delivery.end(), want_end, "delivery end");
    assert_eq!(
        (window.0.to_bits(), window.1.to_bits()),
        (want_window.0.to_bits(), want_window.1.to_bits()),
        "window {window:?} != scan {want_window:?}"
    );
}

#[test]
fn zero_latency_run_matches_scan() {
    let angle = prop_oneof![
        0.0..1.0f64,
        Just(0.0),
        Just(1.0 - EPS),
        Just(1.0 - EPS / 2.0),
        Just(1.0 - f64::EPSILON),
    ];
    let strategy = (
        arb_spec(),
        (0u32..10_000, 0u32..10_000, 0u32..10_000),
        (angle, 0u32..3),
        (0usize..RPMS.len(), 0u32..3, 0u64..7),
        (0u32..2, 0u32..3, 0u64..1_000_000_000, 0u64..40_000_000),
    );
    let mut tally = Tally::default();
    for_cases(
        "zero_latency_run_matches_scan",
        1024,
        strategy,
        |(
            spec,
            (tsel, fsel, csel),
            (arr_raw, pin),
            (rpm, mode, delta),
            (ooo, ahead, base, lead),
        )| {
            let Ok(geom) = spec.build() else { return };
            let track = geom.track(tsel % geom.num_tracks());
            let spt = track.spt();
            let first = fsel % spt;
            let count = 1 + csel % (spt - first);
            // A third of the cases pin the arrival exactly on a slot angle
            // of this track, a third a hair past one (the EPS snap).
            let arr = match pin {
                0 => arr_raw,
                1 => track.slot_angle(fsel % spt),
                _ => (track.slot_angle(csel % spt) + EPS / 2.0).rem_euclid(1.0),
            };
            let spindle = Spindle::new(RPMS[rpm]);
            let slot_time = spindle.sweep(track.inv_spt());
            let bus = bus_with_sector_ns(sector_ns(slot_time, mode, delta), ooo == 1);
            let base = SimTime::from_ns(base);
            // The bus idle, free exactly at the arrival, or still busy with
            // the command before (back-to-back commands).
            let bus_free = match ahead {
                0 => SimTime::ZERO,
                1 => base,
                _ => base + SimDur::from_ns(lead),
            };
            check_kernel(
                &mut tally, track, spindle, &bus, bus_free, base, arr, first, count,
            );
        },
    );
    println!("zero_latency_run_matches_scan: {tally:?}");
    for (name, n) in [
        ("closed form", tally.closed),
        ("short run", tally.short_run),
        ("unpaced bus", tally.unpaced),
        ("EPS snap", tally.snap),
    ] {
        assert!(n >= 16, "{name} ran only {n} times: {tally:?}");
    }
}

/// A 10 000 RPM track of `spt` slots with skew, for the named kernel cases.
fn one_track(spt: u32) -> DiskGeometry {
    GeometrySpec::pristine(
        2,
        vec![ZoneSpec {
            cylinders: 4,
            spt,
            track_skew: spt / 7,
            cyl_skew: spt / 5,
        }],
    )
    .build()
    .unwrap()
}

/// Runs the kernel over every run shape of track 3 for one bus and
/// arrival, in both delivery orders, idle bus and busy.
fn kernel_cases(tally: &mut Tally, geom: &DiskGeometry, sector_ns: u64, arr: f64, counts: &[u32]) {
    let track = geom.track(3);
    let spindle = Spindle::new(10_000);
    let base = SimTime::from_ns(123_456_789);
    for ooo in [false, true] {
        let bus = bus_with_sector_ns(sector_ns, ooo);
        for bus_free in [SimTime::ZERO, base + SimDur::from_millis_f64(4.0)] {
            for first in [0, 1, track.spt() / 3] {
                for &count in counts {
                    if first + count <= track.spt() {
                        check_kernel(
                            tally, track, spindle, &bus, bus_free, base, arr, first, count,
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn fallback_short_run() {
    let geom = one_track(200);
    let mut tally = Tally::default();
    for arr in [0.0, 0.3, geom.track(3).slot_angle(1)] {
        kernel_cases(&mut tally, &geom, 3_200, arr, &[1, 2]);
    }
    assert!(
        tally.short_run > 0 && tally.closed + tally.unpaced + tally.snap == 0,
        "{tally:?}"
    );
}

#[test]
fn fallback_unpaced_bus() {
    // 200 slots at 10 000 RPM: a slot every 30 µs. The closed form needs
    // the bus 2 ns under that; everything from 1 ns under upward scans.
    let geom = one_track(200);
    let mut tally = Tally::default();
    for sector in [29_999, 30_000, 30_001, 30_002, 45_000, 90_000] {
        for arr in [0.0, 0.3, 0.999] {
            kernel_cases(&mut tally, &geom, sector, arr, &[3, 100, 200]);
        }
    }
    assert!(
        tally.unpaced > 0 && tally.closed + tally.snap == 0,
        "{tally:?}"
    );
    // And 2 ns under is the closed form's.
    kernel_cases(&mut tally, &geom, 29_998, 0.3, &[3, 100, 200]);
    assert!(tally.closed > 0, "{tally:?}");
}

#[test]
fn fallback_eps_snap() {
    // Arriving a hair past a slot's leading edge puts that slot within EPS
    // of a full turn away, and its distance snaps to zero.
    let geom = one_track(200);
    let track = geom.track(3);
    let mut tally = Tally::default();
    for slot in [0, 1, 66, 67, 100, 199] {
        for hair in [1e-9, EPS / 2.0, EPS * 0.99] {
            let arr = (track.slot_angle(slot) + hair).rem_euclid(1.0);
            kernel_cases(&mut tally, &geom, 3_200, arr, &[3, 100, 200]);
        }
    }
    assert!(tally.snap > 0 && tally.unpaced == 0, "{tally:?}");
}

// ---------------------------------------------------------------------
// Whole completions through `Disk::service`.
// ---------------------------------------------------------------------

/// When the next read is issued.
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

fn drive(
    geometry: DiskGeometry,
    rpm: u32,
    zero_latency: bool,
    bus: BusConfig,
    cache: bool,
    overhead: bool,
    fault: FaultConfig,
) -> DiskConfig {
    DiskConfig {
        name: "bus_props".to_string(),
        geometry,
        spindle: Spindle::new(rpm),
        seek: SeekCurve::calibrate(0.8, 2.0, 4.0, 50),
        head_switch: SimDur::from_millis_f64(0.8),
        write_settle: SimDur::from_millis_f64(1.0),
        cmd_overhead: if overhead {
            SimDur::from_micros_f64(100.0)
        } else {
            SimDur::ZERO
        },
        zero_latency,
        bus,
        cache: if cache {
            CacheConfig::default()
        } else {
            CacheConfig {
                segments: 0,
                readahead_to_track_end: false,
            }
        },
        tracer: None,
        fault,
    }
}

/// One mechanical visit, as the drive's trace reports it.
struct TracedVisit {
    /// Arrival on the track (after positioning and rotational jitter).
    t: SimTime,
    track: u32,
    sectors: u64,
    retried: bool,
}

fn traced_visits(events: &[TraceEvent]) -> Vec<TracedVisit> {
    let mut visits: Vec<TracedVisit> = Vec::new();
    let mut rot = 0;
    for e in events {
        match e {
            TraceEvent::RotWait { dur, .. } => rot = *dur,
            TraceEvent::Media {
                t, track, sectors, ..
            } => {
                visits.push(TracedVisit {
                    t: SimTime::from_ns(*t - rot),
                    track: *track,
                    sectors: *sectors,
                    retried: false,
                });
                rot = 0;
            }
            TraceEvent::Fault { kind, .. } if kind == "media_retry" => {
                visits
                    .last_mut()
                    .expect("a retry follows its visit")
                    .retried = true;
            }
            _ => {}
        }
    }
    visits
}

/// Services `reads` on a drive built from `cfg` and checks every
/// [`Completion`] against the reference: the mechanism's fields from an
/// infinite-bus twin (a read's mechanics never wait for the bus), the
/// completion instant from the oracle run over the visits the drive
/// traced.
fn check_reads(cfg: &DiskConfig, reads: &[(u64, u64, Issue)], tally: &mut Tally) {
    let sink = Arc::new(Mutex::new(MemorySink::new()));
    let mut disk = Disk::new(DiskConfig {
        tracer: Some(Tracer::new(sink.clone())),
        ..cfg.clone()
    });
    let mut twin = Disk::new(DiskConfig {
        bus: BusConfig::infinite(),
        ..cfg.clone()
    });
    let (bus, spindle) = (cfg.bus, cfg.spindle);

    let mut bus_free = SimTime::ZERO;
    let mut issue = SimTime::ZERO;
    let mut prev: Option<Completion> = None;
    let mut seen = 0;
    for &(lbn, len, rule) in reads {
        issue = issue.max(match (rule, prev) {
            (Issue::After(ns), _) => issue + SimDur::from_ns(ns),
            (Issue::AtMediaEnd, Some(p)) => p.media_end,
            (Issue::AtCompletion, Some(p)) => p.completion,
            _ => issue,
        });
        // A grown defect remaps from the next command on: this command
        // runs on the layout as it stands now.
        let geom = disk.geometry().clone();
        let req = Request::read(lbn, len);
        let got = disk.service(req, issue);
        let mech = twin.service(req, issue);
        let events = sink.lock().unwrap().events()[seen..].to_vec();
        seen += events.len();

        let cmd_ready = issue + got.breakdown.overhead;
        let (end, bus_time) = if mech.cache_hit {
            let end = cmd_ready.max(bus_free) + bus.transfer_time(req.bytes());
            bus_free = end;
            (end, end - cmd_ready)
        } else {
            let visits = traced_visits(&events);
            let mut avail = Vec::new();
            let mut cur = lbn;
            for (vi, v) in visits.iter().enumerate() {
                let track = geom.track(v.track);
                let slots: Vec<u32> = (cur..cur + v.sectors)
                    .map(|l| {
                        let pba = geom.lbn_to_pba(l).unwrap();
                        assert_eq!((pba.cyl, pba.head), (track.cyl(), track.head()));
                        pba.slot
                    })
                    .collect();
                cur += v.sectors;
                let zero_latency_visit = cfg.zero_latency
                    && (v.sectors == u64::from(track.lbn_count()) || vi == visits.len() - 1);
                let arr = spindle.angle_at(v.t);
                if zero_latency_visit {
                    tally.zero_latency(&bus, track, spindle, arr, &slots);
                } else {
                    tally.ordinary(&bus, track, spindle);
                }
                let from = avail.len();
                avail_scan(
                    track,
                    spindle,
                    v.t,
                    arr,
                    &slots,
                    zero_latency_visit,
                    &mut avail,
                );
                if v.retried {
                    tally.retried += 1;
                    for a in &mut avail[from..] {
                        *a += spindle.revolution();
                    }
                }
            }
            assert_eq!(cur, lbn + len, "the traced visits cover the request");
            let end = delivery_scan_ref(&mut avail, bus_free, &bus);
            bus_free = bus_free.max(end);
            (end, end.saturating_since(mech.media_end))
        };
        let want = Completion {
            completion: end,
            breakdown: Breakdown {
                bus: bus_time,
                ..mech.breakdown
            },
            ..mech
        };
        assert_eq!(got, want, "read of {len} at {lbn}, issued {issue}");
        prev = Some(got);
    }
}

#[test]
fn completions_match_per_sector_reference() {
    let drive_knobs = (0u32..2, 0usize..RPMS.len(), 0u32..2, 0u32..2);
    let bus_knobs = (0u32..2, 0u32..3, 0u64..7);
    let reads = prop::collection::vec(
        (
            0u64..1_000_000,
            0u64..1_000_000,
            0u32..3,
            0u32..5,
            0u64..9_000_000,
        ),
        1..24,
    );
    let strategy = (arb_spec(), drive_knobs, bus_knobs, 0u32..3, reads);
    let mut tally = Tally::default();
    for_cases(
        "completions_match_per_sector_reference",
        384,
        strategy,
        |(spec, (zl, rpm, cache, overhead), (ooo, mode, delta), faults, raw_reads)| {
            let Ok(geometry) = spec.build() else { return };
            let spindle = Spindle::new(RPMS[rpm]);
            // Placed against the outermost track's slot time; other zones
            // land on either side of it.
            let slot_time = spindle.sweep(geometry.track(0).inv_spt());
            let bus = bus_with_sector_ns(sector_ns(slot_time, mode, delta), ooo == 1);
            let fault = match faults {
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
            };
            let cap = geometry.capacity_lbns();
            let spt = u64::from(geometry.track(0).spt());
            let mut next = 0;
            let reads: Vec<(u64, u64, Issue)> = raw_reads
                .into_iter()
                .map(|(lsel, nsel, shape, when, gap)| {
                    // Sequential (picking up where the last read stopped,
                    // which parks the head on a slot edge) or anywhere; a
                    // few sectors, or up to three tracks: partial first,
                    // full middle, partial last.
                    let lbn = if shape == 0 && next < cap {
                        next
                    } else {
                        lsel % cap
                    };
                    let len = 1 + if shape == 2 {
                        nsel % 4
                    } else {
                        nsel % (3 * spt)
                    };
                    let len = len.min(cap - lbn);
                    next = lbn + len;
                    let rule = match when {
                        0 => Issue::Together,
                        1 => Issue::After(gap),
                        2 | 3 => Issue::AtMediaEnd,
                        _ => Issue::AtCompletion,
                    };
                    (lbn, len, rule)
                })
                .collect();
            let cfg = drive(
                geometry,
                RPMS[rpm],
                zl == 1,
                bus,
                cache == 1,
                overhead == 1,
                fault,
            );
            check_reads(&cfg, &reads, &mut tally);
        },
    );
    println!("completions_match_per_sector_reference: {tally:?}");
    for (name, n) in [
        ("closed form", tally.closed),
        ("short run", tally.short_run),
        ("unpaced bus", tally.unpaced),
        ("EPS snap", tally.snap),
        ("slipped run", tally.slipped),
        ("ordinary visit", tally.ordinary),
        ("ordinary visit, unpaced bus", tally.ordinary_unpaced),
        ("media retry", tally.retried),
    ] {
        assert!(n >= 8, "{name} ran only {n} times: {tally:?}");
    }
}

/// The small two-surface zero-latency drive the named cases share: 200
/// slots a track at 10 000 RPM (30 µs a slot) behind a 160 MB/s bus
/// (3.2 µs a sector), cache off so every read reaches the media.
fn small_drive(spec: GeometrySpec, out_of_order: bool, fault: FaultConfig) -> DiskConfig {
    let bus = bus_with_sector_ns(3_200, out_of_order);
    drive(
        spec.build().unwrap(),
        10_000,
        true,
        bus,
        false,
        false,
        fault,
    )
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

#[test]
fn fallback_eps_snap_back_to_back() {
    // Sequential reads with no command overhead, each issued as the one
    // before leaves the media: the head sits exactly on the next sector's
    // leading edge, give or take the nanosecond the clock rounds to.
    for out_of_order in [false, true] {
        let cfg = small_drive(small_spec(), out_of_order, FaultConfig::default());
        let reads: Vec<(u64, u64, Issue)> =
            (0..60).map(|i| (i * 40, 40, Issue::AtMediaEnd)).collect();
        let mut tally = Tally::default();
        check_reads(&cfg, &reads, &mut tally);
        assert!(tally.snap > 0, "no arrival snapped: {tally:?}");
    }
}

#[test]
fn fallback_slipped_run() {
    // Two slipped defects inside track 0's LBN range: a read across them
    // visits a slot list, not a contiguous run.
    let mut spec = small_spec();
    spec.spare = SpareScheme::SectorsPerTrack(4);
    spec.policy = DefectPolicy::Slip;
    spec.defects = vec![
        DefectLocation::new(0, 0, 50),
        DefectLocation::new(0, 0, 120),
    ];
    for out_of_order in [false, true] {
        let cfg = small_drive(spec.clone(), out_of_order, FaultConfig::default());
        let reads = [
            (0, 196, Issue::Together),
            (30, 60, Issue::After(2_500_000)),
            (100, 300, Issue::AtMediaEnd),
            (10, 150, Issue::AtCompletion),
        ];
        let mut tally = Tally::default();
        check_reads(&cfg, &reads, &mut tally);
        assert!(tally.slipped >= 3, "{tally:?}");
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
        check_reads(&cfg, &[(100, 300, Issue::Together)], &mut tally);
        assert_eq!(
            (tally.retried, tally.ordinary, tally.closed),
            (2, 1, 1),
            "{tally:?}"
        );

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
