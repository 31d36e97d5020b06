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
use sim_disk::bus::{BusConfig, Delivery};
use sim_disk::cache::CacheConfig;
use sim_disk::defects::{DefectLocation, DefectPolicy, SpareScheme};
use sim_disk::disk::{Breakdown, Completion, Disk, DiskConfig, Request};
use sim_disk::fault::{FaultConfig, Jitter};
use sim_disk::geometry::{DiskGeometry, GeometrySpec, Track, ZoneSpec};
use sim_disk::mech::{SeekCurve, Spindle};
use sim_disk::rotation::{self, EPS};
use sim_disk::trace::{MemorySink, Phase, TraceEvent, Tracer, Value};
use sim_disk::{SimDur, SimTime};
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

/// A visit's slots (ascending) cut into maximal contiguous `(first,
/// count)` runs: what `Track::slot_runs` yields, derived here from the
/// slots alone.
fn sub_runs(slots: &[u32]) -> Vec<(u32, u32)> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for &s in slots {
        match runs.last_mut() {
            Some((first, n)) if *first + *n == s => *n += 1,
            _ => runs.push((s, 1)),
        }
    }
    runs
}

/// Tallies the path a zero-latency visit of `slots` takes: a contiguous
/// one by the kernel's closed form (`closed`) or named fallback
/// (`short_run`: `count <= 2`; `unpaced`: the bus sector time not 2 ns
/// under the slot time; `snap`: the EPS snap fires in the run), a slipped
/// one (`slipped`) by its shape — holes in adjacent slots, a hole next to
/// its first or last slot — and, on an in-order bus, by each sub-run's
/// path (`slipped_closed`, `subrun_*`); on an out-of-order bus it goes
/// sector by sector.
fn zero_latency(
    tally: &mut Tally,
    bus: &BusConfig,
    track: &Track,
    spindle: Spindle,
    arr: f64,
    slots: &[u32],
) {
    let runs = sub_runs(slots);
    let paced = Delivery::new(bus, SimTime::ZERO).paced_by(spindle.sweep(track.inv_spt()));
    let mut path = |names: [&'static str; 4], first: u32, count: u32| {
        tally.note(
            names[if count <= 2 {
                0
            } else if !paced {
                1
            } else if rotation::window_pieces(track, arr, first, count).max_d >= 1.0 - EPS {
                2
            } else {
                3
            }],
        );
    };
    if let [(first, count)] = runs[..] {
        path(["short_run", "unpaced", "snap", "closed"], first, count);
        return;
    }
    if bus.out_of_order {
        tally.note("slipped_out_of_order_fallback");
    } else {
        for &(first, count) in &runs {
            let names = [
                "subrun_short",
                "subrun_unpaced",
                "subrun_snap",
                "slipped_closed",
            ];
            path(names, first, count);
        }
    }
    tally.note("slipped");
    tally.note_if(
        runs.windows(2).any(|w| w[1].0 - (w[0].0 + w[0].1) > 1),
        "adjacent_defects",
    );
    tally.note_if(
        runs[0].1 == 1 || runs[runs.len() - 1].1 == 1,
        "defect_next_to_run_edge",
    );
}

/// Tallies an ordinary (first-sector-first) visit: one run, or sector by
/// sector on an unpaced bus.
fn ordinary(tally: &mut Tally, bus: &BusConfig, track: &Track, spindle: Spindle) {
    let paced = Delivery::new(bus, SimTime::ZERO).paced_by(spindle.sweep(track.inv_spt()));
    tally.note(if paced {
        "ordinary"
    } else {
        "ordinary_unpaced"
    });
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

// ---------------------------------------------------------------------
// The kernel alone.
// ---------------------------------------------------------------------

/// The smallest and largest of two `(min, max)` windows.
fn within((lo, hi): (f64, f64), (a, b): (f64, f64)) -> (f64, f64) {
    (lo.min(a), hi.max(b))
}

const NO_WINDOW: (f64, f64) = (f64::INFINITY, f64::NEG_INFINITY);

/// Checks one zero-latency visit of `slots` (ascending; contiguous, or cut
/// by slipped defects) through the kernels, composed over its contiguous
/// sub-runs the way the drive composes them, against the oracle: delivery
/// end to the nanosecond, window to the bit. An out-of-order bus takes a
/// slipped visit sector by sector (`Delivery::visit`), as the drive does.
#[allow(clippy::too_many_arguments)]
fn check_kernel(
    tally: &mut Tally,
    track: &Track,
    spindle: Spindle,
    bus: &BusConfig,
    bus_free: SimTime,
    base: SimTime,
    arr: f64,
    slots: &[u32],
) {
    zero_latency(tally, bus, track, spindle, arr, slots);
    let runs = sub_runs(slots);
    let per_sector = bus.out_of_order && runs.len() > 1;

    let mut avail = Vec::new();
    avail_scan(track, spindle, base, arr, slots, true, &mut avail);
    let mut delivery = Delivery::new(bus, bus_free);
    if per_sector {
        delivery.visit(avail.iter().copied());
    }
    let want_end = delivery_scan_ref(&mut avail, bus_free, bus);
    let want_window = (slots.iter())
        .map(|&s| rotation::window_scan(track, arr, s, 1))
        .fold(NO_WINDOW, within);

    let (mut delivered, mut closed) = (NO_WINDOW, NO_WINDOW);
    for &(first, count) in &runs {
        if !per_sector {
            let w = delivery.zero_latency_run(track, spindle, base, arr, first, count);
            delivered = within(delivered, w);
        }
        closed = within(closed, rotation::window_closed(track, arr, first, count));
    }
    assert_eq!(delivery.end(), want_end, "delivery end over {runs:?}");
    let bits = |w: (f64, f64)| (w.0.to_bits(), w.1.to_bits());
    if !per_sector {
        assert_eq!(
            bits(delivered),
            bits(want_window),
            "delivered {delivered:?} != scan {want_window:?}"
        );
    }
    assert_eq!(
        bits(closed),
        bits(want_window),
        "closed {closed:?} != scan {want_window:?}"
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
            let track = &geom.track(tsel % geom.num_tracks());
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
            let slots: Vec<u32> = (first..first + count).collect();
            check_kernel(
                &mut tally, track, spindle, &bus, bus_free, base, arr, &slots,
            );
        },
    );
    tally.require(
        "zero_latency_run_matches_scan",
        &["closed", "short_run", "unpaced", "snap"],
    );
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
    let track = &geom.track(3);
    let spindle = Spindle::new(10_000);
    let base = SimTime::from_ns(123_456_789);
    for ooo in [false, true] {
        let bus = bus_with_sector_ns(sector_ns, ooo);
        for bus_free in [SimTime::ZERO, base + SimDur::from_millis_f64(4.0)] {
            for first in [0, 1, track.spt() / 3] {
                for &count in counts {
                    if first + count <= track.spt() {
                        let slots: Vec<u32> = (first..first + count).collect();
                        check_kernel(tally, track, spindle, &bus, bus_free, base, arr, &slots);
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
    let count = |paths: &[&str]| paths.iter().map(|p| tally.count(p)).sum::<u32>();
    assert!(
        count(&["short_run"]) > 0 && count(&["closed", "unpaced", "snap"]) == 0,
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
        tally.count("unpaced") > 0 && tally.count("closed") + tally.count("snap") == 0,
        "{tally:?}"
    );
    // And 2 ns under is the closed form's.
    kernel_cases(&mut tally, &geom, 29_998, 0.3, &[3, 100, 200]);
    assert!(tally.count("closed") > 0, "{tally:?}");
}

#[test]
fn fallback_eps_snap() {
    // Arriving a hair past a slot's leading edge puts that slot within EPS
    // of a full turn away, and its distance snaps to zero.
    let geom = one_track(200);
    let track = &geom.track(3);
    let mut tally = Tally::default();
    for slot in [0, 1, 66, 67, 100, 199] {
        for hair in [1e-9, EPS / 2.0, EPS * 0.99] {
            let arr = (track.slot_angle(slot) + hair).rem_euclid(1.0);
            kernel_cases(&mut tally, &geom, 3_200, arr, &[3, 100, 200]);
        }
    }
    assert!(
        tally.count("snap") > 0 && tally.count("unpaced") == 0,
        "{tally:?}"
    );
}

#[test]
fn slipped_run_matches_scan() {
    // A track of a drawn shape gets 1–4 slipped defects, all inside the
    // run (adjacent in a third of the cases), and a run whose first or
    // last slot sits right beside one in a third of the cases per edge.
    let holes = (
        1u32..5,
        (0u32..10_000, 0u32..10_000, 0u32..10_000, 0u32..10_000),
    );
    let run = (0u32..3, 0u32..3, 0u32..3, 0u32..10_000);
    let angle = prop_oneof![0.0..1.0f64, Just(0.0), Just(1.0 - EPS / 2.0)];
    let strategy = (
        (arb_spec(), 0u32..10_000, holes, run),
        (angle, 0u32..3),
        (0usize..RPMS.len(), 0u32..3, 0u64..7),
        (0u32..2, 0u32..3, 0u64..1_000_000_000, 0u64..40_000_000),
    );
    let mut tally = Tally::default();
    for_cases(
        "slipped_run_matches_scan",
        1024,
        strategy,
        |(
            (mut spec, tsel, (k, raw), (adjacent, lo_edge, hi_edge, sel)),
            (arr_raw, pin),
            (rpm, mode, delta),
            (ooo, ahead, base, lead),
        )| {
            (spec.spare, spec.policy) = (SpareScheme::SectorsPerTrack(4), DefectPolicy::Slip);
            spec.defects.clear();
            let Ok(plain) = spec.clone().build() else {
                return;
            };
            let tid = tsel % plain.num_tracks();
            let t = plain.track(tid);
            // Holes in slots 1..=span: LBN slots lie on both sides of them.
            let Some(span) = t.spt().checked_sub(6).filter(|&span| span >= k) else {
                return;
            };
            let raw = [raw.0, raw.1, raw.2, raw.3];
            spec.defects = (0..k as usize)
                .map(|i| match adjacent {
                    0 => 1 + raw[0] % (span - k + 1) + i as u32,
                    _ => 1 + raw[i] % span,
                })
                .map(|slot| DefectLocation::new(t.cyl(), t.head(), slot))
                .collect();
            let holes: Vec<u32> = spec.defects.iter().map(|d| d.slot).collect();
            let (lo, hi) = (*holes.iter().min().unwrap(), *holes.iter().max().unwrap());
            let geom = spec.build().expect("four spare slots absorb four defects");
            let track = &geom.track(tid);
            let mapped: Vec<u32> = (track.first_lbn()..track.end_lbn())
                .map(|l| geom.lbn_to_pba(l).unwrap().slot)
                .collect();
            let below = mapped.partition_point(|&s| s < lo);
            let above = mapped.partition_point(|&s| s < hi);
            let first = if lo_edge == 0 {
                below - 1
            } else {
                sel as usize % below
            };
            let last = above
                + if hi_edge == 0 {
                    0
                } else {
                    sel as usize % (mapped.len() - above)
                };
            let slots = &mapped[first..=last];
            let arr = match pin {
                0 => arr_raw,
                1 => track.slot_angle(slots[sel as usize % slots.len()]),
                _ => (track.slot_angle(slots[sel as usize % slots.len()]) + EPS / 2.0)
                    .rem_euclid(1.0),
            };
            let spindle = Spindle::new(RPMS[rpm]);
            let slot_time = spindle.sweep(track.inv_spt());
            let bus = bus_with_sector_ns(sector_ns(slot_time, mode, delta), ooo == 1);
            let base = SimTime::from_ns(base);
            let bus_free = match ahead {
                0 => SimTime::ZERO,
                1 => base,
                _ => base + SimDur::from_ns(lead),
            };
            check_kernel(&mut tally, track, spindle, &bus, bus_free, base, arr, slots);
        },
    );
    tally.require(
        "slipped_run_matches_scan",
        &[
            "slipped_closed",
            "subrun_short",
            "subrun_snap",
            "subrun_unpaced",
            "adjacent_defects",
            "defect_next_to_run_edge",
            "slipped_out_of_order_fallback",
        ],
    );
    let contiguous = ["closed", "short_run", "unpaced", "snap"];
    assert!(contiguous.iter().all(|p| tally.count(p) == 0), "{tally:?}");
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
            CacheConfig { segments: 0 }
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
            TraceEvent::Phase(Phase {
                name: "rot_wait",
                dur: Some(dur),
                ..
            }) => rot = *dur,
            TraceEvent::Phase(Phase {
                name: "media",
                t,
                attrs,
                ..
            }) => {
                let [("track", Value::Num(track)), ("sectors", Value::Num(sectors))] = attrs[..]
                else {
                    panic!("media fields: {attrs:?}");
                };
                visits.push(TracedVisit {
                    t: SimTime::from_ns(*t - rot),
                    track: u32::try_from(track).unwrap(),
                    sectors,
                    retried: false,
                });
                rot = 0;
            }
            TraceEvent::Phase(Phase {
                name: "fault",
                attrs,
                ..
            }) if matches!(&attrs[0], ("kind", Value::Text(k)) if k == "media_retry") => {
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

/// When the next command is issued, by its rule, after `prev` was
/// issued at `issue`.
fn next_issue(issue: SimTime, rule: Issue, prev: Option<Completion>) -> SimTime {
    issue.max(match (rule, prev) {
        (Issue::After(ns), _) => issue + SimDur::from_ns(ns),
        (Issue::AtMediaEnd, Some(p)) => p.media_end,
        (Issue::AtCompletion, Some(p)) => p.completion,
        _ => issue,
    })
}

/// The oracle's media instants for the `len` sectors at `lbn`, in LBN
/// order, rebuilt from the visits the drive traced (`events`) on the
/// layout it ran on (`geom`): `seen` is shown each visit's track, arrival
/// angle and slots, and whether it was zero-latency and retried.
fn oracle_instants(
    cfg: &DiskConfig,
    geom: &DiskGeometry,
    (lbn, len): (u64, u64),
    events: &[TraceEvent],
    mut seen: impl FnMut(&Track, f64, &[u32], bool, bool),
) -> Vec<SimTime> {
    let spindle = cfg.spindle;
    let visits = traced_visits(events);
    let mut avail = Vec::new();
    let mut cur = lbn;
    for (vi, v) in visits.iter().enumerate() {
        let track = &geom.track(v.track);
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
        seen(track, arr, &slots, zero_latency_visit, v.retried);
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
            for a in &mut avail[from..] {
                *a += spindle.revolution();
            }
        }
    }
    assert_eq!(cur, lbn + len, "the traced visits cover the request");
    avail
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
        issue = next_issue(issue, rule, prev);
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
            let seen = |track: &Track, arr, slots: &[u32], zl, retried| {
                if zl {
                    zero_latency(tally, &bus, track, spindle, arr, slots);
                } else {
                    ordinary(tally, &bus, track, spindle);
                }
                tally.note_if(retried, "retried");
            };
            let mut avail = oracle_instants(cfg, &geom, (lbn, len), &events, seen);
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
        512,
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
    tally.require(
        "completions_match_per_sector_reference",
        &[
            "closed",
            "short_run",
            "unpaced",
            "snap",
            "slipped",
            "slipped_closed",
            "slipped_out_of_order_fallback",
            "ordinary",
            "ordinary_unpaced",
            "retried",
        ],
    );
}

/// Services `writes` on a drive built from `cfg` and on its crash-logged
/// twin: the plain drive prices each zero-latency visit by closed forms
/// over its contiguous sub-runs, the twin records every sector's instant.
/// Their [`Completion`]s must be equal, and the twin's instants the
/// oracle's, rebuilt from the visits it traced. The tally counts the
/// slipped zero-latency visits and the path of each of their sub-runs
/// through `rotation::window_closed`.
fn check_writes(cfg: &DiskConfig, writes: &[(u64, u64, Issue)], tally: &mut Tally) {
    let sink = Arc::new(Mutex::new(MemorySink::new()));
    let mut logged = Disk::new(DiskConfig {
        tracer: Some(Tracer::new(sink.clone())),
        ..cfg.clone()
    });
    logged.enable_crash_log();
    let mut plain = Disk::new(cfg.clone());
    let (mut issue, mut prev, mut seen) = (SimTime::ZERO, None, 0);
    for &(lbn, len, rule) in writes {
        issue = next_issue(issue, rule, prev);
        let geom = logged.geometry().clone();
        let req = Request::write(lbn, len);
        let got = logged.service(req, issue);
        assert_eq!(
            got,
            plain.service(req, issue),
            "write of {len} at {lbn}, issued {issue}"
        );
        let events = sink.lock().unwrap().events()[seen..].to_vec();
        seen += events.len();
        let want = oracle_instants(
            cfg,
            &geom,
            (lbn, len),
            &events,
            |track, arr, slots, zl, _| {
                let runs = sub_runs(slots);
                if zl && runs.len() > 1 {
                    tally.note("slipped");
                    for (first, count) in runs {
                        tally.note(if count <= 2 {
                            "subrun_short"
                        } else if rotation::window_pieces(track, arr, first, count).max_d
                            >= 1.0 - EPS
                        {
                            "subrun_snap"
                        } else {
                            "slipped_closed"
                        });
                    }
                }
            },
        );
        let log = logged.crash_log().expect("attached");
        assert_eq!(
            log.records.last().unwrap().durable,
            want,
            "write of {len} at {lbn}"
        );
        prev = Some(got);
    }
}

#[test]
fn slipped_writes_match_their_logged_twin() {
    // Slipped drives of a drawn shape; writes aimed at the tracks that
    // hold a factory defect: the whole track, a stretch from inside it
    // into the next, or a few sectors around the hole.
    let knobs = (0usize..RPMS.len(), 0u32..3, 0u32..2, 0u32..2);
    let writes = prop::collection::vec(
        (
            0u32..10_000,
            0u32..3,
            0u64..10_000,
            0u32..5,
            0u64..9_000_000,
        ),
        1..16,
    );
    let mut tally = Tally::default();
    for_cases(
        "slipped_writes_match_their_logged_twin",
        256,
        (arb_spec(), knobs, writes),
        |(mut spec, (rpm, zl, finite, faults), raw)| {
            spec.policy = DefectPolicy::Slip;
            let Ok(geometry) = spec.build() else { return };
            let holes: Vec<_> = (geometry.defect_list().iter())
                .map(|d| geometry.track(geometry.track_at(d.cyl, d.head).unwrap().0))
                .filter(|t| t.lbn_count() > 0)
                .map(|t| (t.first_lbn(), u64::from(t.lbn_count())))
                .collect();
            if holes.is_empty() {
                return;
            }
            let cap = geometry.capacity_lbns();
            let writes: Vec<(u64, u64, Issue)> = (raw.into_iter())
                .map(|(dsel, shape, nsel, when, gap)| {
                    let (first, count) = holes[dsel as usize % holes.len()];
                    let (lbn, len) = match shape {
                        0 => (first, count),
                        1 => (first + nsel % count, count),
                        _ => (first + nsel % count, 1 + nsel % 5),
                    };
                    let rule = match when {
                        0 => Issue::Together,
                        1 => Issue::After(gap),
                        2 | 3 => Issue::AtMediaEnd,
                        _ => Issue::AtCompletion,
                    };
                    (lbn, len.min(cap - lbn), rule)
                })
                .collect();
            let spindle = Spindle::new(RPMS[rpm]);
            let bus = if finite == 1 {
                bus_with_sector_ns(
                    sector_ns(spindle.sweep(geometry.track(0).inv_spt()), 0, 0),
                    false,
                )
            } else {
                BusConfig::infinite()
            };
            let fault = FaultConfig {
                media_per_million: 20_000 * faults,
                grown_per_million: 300_000 * faults,
                seed: 7,
                ..FaultConfig::default()
            };
            let cfg = drive(geometry, RPMS[rpm], zl != 0, bus, true, true, fault);
            check_writes(&cfg, &writes, &mut tally);
        },
    );
    tally.require(
        "slipped_writes_match_their_logged_twin",
        &["slipped", "slipped_closed", "subrun_short"],
    );
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
        let reads = [
            (0, 196, Issue::Together),
            (30, 60, Issue::After(2_500_000)),
            (100, 300, Issue::AtMediaEnd),
            (10, 150, Issue::AtCompletion),
        ];
        let mut tally = Tally::default();
        check_reads(&cfg, &reads, &mut tally);
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
        check_reads(&cfg, &[(100, 300, Issue::Together)], &mut tally);
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
