//! Property tests of finite-bus read delivery: the closed form
//! ([`sim_disk::bus::Delivery`]) must equal, to the nanosecond, the
//! per-sector algorithm it replaced — collect every sector's availability
//! instant, sort them if the bus delivers out of order, run the delivery
//! recurrence over the lot. That algorithm lives on here, verbatim, as the
//! oracle ([`avail_scan`], [`delivery_scan_ref`]).
//!
//! The zero-latency kernel alone, on arbitrary tracks, arrival angles and
//! bus speeds. Whole [`sim_disk::Completion`]s are held to a per-sector
//! reference drive in `reference_drive.rs`. Every fallback the kernel's
//! documentation names has a named case below, and the properties print
//! how often each path ran.

mod common;

use common::arb_spec;
use proptest::prelude::*;
use sim_disk::bus::{BusConfig, Delivery};
use sim_disk::defects::{DefectLocation, DefectPolicy, SpareScheme};
use sim_disk::geometry::{DiskGeometry, GeometrySpec, Track, ZoneSpec};
use sim_disk::mech::Spindle;
use sim_disk::rotation::{self, EPS};
use sim_disk::{SimDur, SimTime};

// ---------------------------------------------------------------------
// The oracle: the parent's read path, sector by sector.
// ---------------------------------------------------------------------

/// One zero-latency visit's availability instants in LBN order, as
/// `Disk::run_visits` used to push them: access on arrival.
fn avail_scan(
    track: &Track,
    spindle: Spindle,
    t: SimTime,
    arr_angle: f64,
    slots: &[u32],
    avail: &mut Vec<SimTime>,
) {
    let slot_frac = track.inv_spt();
    for &s in slots {
        let d = rotation::slot_distance(track, arr_angle, s);
        avail.push(t + spindle.sweep(d + slot_frac));
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
    avail_scan(track, spindle, base, arr, slots, &mut avail);
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
