//! Closed-form rotational-window arithmetic for zero-latency media access.
//!
//! A zero-latency (access-on-arrival) visit reads a track's sectors in
//! whatever rotational order they pass under the head, so its timing is
//! fully determined by two numbers: the *smallest* and the *largest*
//! angular distance from the head's arrival angle to any requested slot.
//! The engine used to find them by scanning every slot of the visit —
//! O(sectors per track) floating-point work per visit, the dominant cost
//! of trace-scale simulation. This module computes the same two numbers in
//! O(log spt) by locating the extreme slots with binary searches and
//! evaluating the *identical* floating-point expression only there, so the
//! results are bit-for-bit equal to the scan's.
//!
//! # Why the closed form is exact
//!
//! For a contiguous slot run `[first, first+count)` the per-slot distance
//! ([`slot_distance`]) is built from pieces that are each monotone
//! non-decreasing in the slot index `s`:
//!
//! 1. the raw angle `angle0 + slot_fracs[s]` (the table is non-decreasing
//!    and adding a constant is monotone under rounding);
//! 2. the conditional `- 1.0` inside [`Track::slot_angle`] fires on a
//!    suffix of the run (the raw angle is monotone), and on `[1, 2)` the
//!    subtraction is exact by Sterbenz's lemma, preserving monotonicity;
//! 3. subtracting the arrival angle is monotone, and the sign test `d <
//!    0.0` agrees exactly with `slot_angle(s) < arr_angle` (an IEEE
//!    subtraction is negative iff the real difference is);
//! 4. the `+ 1.0` for negative distances applies on a prefix of each
//!    monotone segment and is itself monotone.
//!
//! The run therefore splits into at most four sub-segments on which the
//! *pre-snap* distance is monotone non-decreasing. Every boundary is found
//! by binary search on the exact same computed values, and the extremes
//! can only sit at sub-segment endpoints. The EPS snap to zero fires on a
//! slot exactly where its pre-snap distance reaches `1.0 - EPS`, so a
//! pre-snap maximum below that proves it fired nowhere; a run where it
//! did is handed to the scan.

use crate::geometry::Track;

/// Angular slack treated as "already under the head".
///
/// Nanosecond quantization of event times can leave the head an
/// infinitesimal hair past a slot it is in fact exactly aligned with
/// (back-to-back sequential requests); distances within `EPS` of a full
/// turn are therefore snapped to zero.
pub const EPS: f64 = 1e-5;

/// Angular distance (in revolutions, `[0, 1)`) the platter must turn after
/// arriving at `arr_angle` before `slot` passes under the head.
///
/// This is the exact expression the historical per-sector scan evaluated;
/// both [`window_scan`] and [`window_closed`] are defined in terms of it.
#[inline]
pub fn slot_distance(track: &Track, arr_angle: f64, slot: u32) -> f64 {
    let mut d = track.slot_angle(slot) - arr_angle;
    if d < 0.0 {
        d += 1.0;
    }
    if d >= 1.0 - EPS {
        d = 0.0;
    }
    d
}

/// Minimum and maximum [`slot_distance`] over the contiguous slot run
/// `[first, first + count)`, by scanning every slot.
///
/// This is the pre-closed-form algorithm, kept as the oracle the property
/// tests compare [`window_closed`] against and as what `window_closed`
/// itself runs on degenerate runs and on runs the EPS snap fires in.
/// Beyond those the engine touches every slot only where it must: for a
/// crash-logged write, which records an instant per sector, and in the
/// fallbacks of the bus model ([`crate::bus::Delivery::zero_latency_run`]).
///
/// # Panics
///
/// Panics (debug) if the run is empty or extends past the track.
pub fn window_scan(track: &Track, arr_angle: f64, first: u32, count: u32) -> (f64, f64) {
    debug_assert!(count > 0);
    debug_assert!(first + count <= track.spt());
    let mut min_d = f64::INFINITY;
    let mut max_d = f64::NEG_INFINITY;
    for s in first..first + count {
        let d = slot_distance(track, arr_angle, s);
        min_d = min_d.min(d);
        max_d = max_d.max(d);
    }
    (min_d, max_d)
}

/// First `s` in `[lo, hi)` for which `pred(s)` holds, assuming `pred` is
/// monotone over the range (false for a prefix, true for the rest);
/// returns `hi` when it never holds.
///
/// `guess` seeds the search: every boundary below is "first slot where a
/// near-linear function of `s` crosses a threshold", so arithmetic
/// predicts the answer to within a slot or two and the loops only walk
/// off the floating-point rounding error. Correctness never depends on
/// the guess — the exits are decided purely by `pred`, and a bad guess
/// just walks further.
///
/// The seed stays because a workload sees it: a plain bisection in its
/// place costs `serve_raid5` 6.9 % of its host rate (406 k → 378 k
/// requests per host second, 10 of 10 alternating pairs, every run
/// without the seed below every run with it; DESIGN.md §5's table).
#[inline]
fn seeded_bound(lo: u32, hi: u32, guess: u32, pred: impl Fn(u32) -> bool) -> u32 {
    let mut s = guess.clamp(lo, hi);
    while s > lo && pred(s - 1) {
        s -= 1;
    }
    while s < hi && !pred(s) {
        s += 1;
    }
    s
}

/// Predicted slot index where `fracs[s]` (≈ `s / spt`) reaches `threshold`,
/// used only to seed [`seeded_bound`].
#[inline]
fn guess_slot(threshold: f64, spt: f64) -> u32 {
    let g = threshold * spt;
    if g <= 0.0 {
        0
    } else if g >= spt {
        // Also covers NaN-free saturation; spt fits in u32.
        spt as u32
    } else {
        g as u32
    }
}

/// The monotone pieces of a contiguous slot run, as [`window_pieces`]
/// finds them: what both the rotational window and the bus-delivery closed
/// form ([`crate::bus::Delivery::zero_latency_run`]) are read off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pieces {
    /// Smallest *pre-snap* distance over the run.
    pub min_d: f64,
    /// Largest pre-snap distance over the run. The EPS snap fires on some
    /// slot of the run exactly when this reaches `1.0 - EPS`; below that,
    /// every pre-snap value in here *is* the slot's [`slot_distance`].
    pub max_d: f64,
    /// `(sectors, pre-snap distance of the last sector)` for each piece on
    /// which the distance is monotone non-decreasing, in slot order. The
    /// sector counts sum to the run's; unused entries hold zero sectors.
    pub runs: [(u32, f64); 4],
}

/// Cuts the contiguous run `[first, first + count)` into the ≤ 4 pieces
/// on which the pre-snap distance is monotone non-decreasing — by where
/// `slot_angle`'s conditional subtraction kicks in and where the `d < 0.0`
/// branch stops firing — in O(log spt), and evaluates the distance only
/// at piece endpoints, through the very expression [`slot_distance`]
/// uses.
///
/// See the module documentation for why the extremes over the run sit at
/// those endpoints.
///
/// # Panics
///
/// Panics (debug) if the run is empty or extends past the track.
#[inline]
pub fn window_pieces(track: &Track, arr_angle: f64, first: u32, count: u32) -> Pieces {
    debug_assert!(count > 0);
    debug_assert!(first + count <= track.spt());
    let angle0 = track.angle0();
    let spt_f = f64::from(track.spt());
    let end = first + count;

    // Split 1: where the raw angle crosses 1.0 and `slot_angle`'s
    // conditional subtraction kicks in. `slot_angle` is monotone
    // non-decreasing on each side.
    let wrap = wrap_slot(track, first, end);

    // The pre-snap distance is monotone non-decreasing on each of the ≤4
    // pieces cut by `wrap` and by the `d < 0.0` crossover, so its extremes
    // over the run sit at piece endpoints. Evaluating just those
    // candidates also proves whether the EPS snap fires anywhere (its
    // trigger is a pre-snap maximum, which is itself a candidate).
    let mut cands = [0u32; 8];
    let mut runs = [(0u32, 0.0f64); 4];
    let mut n = 0;
    for &(seg_lo, seg_hi, off) in &[(first, wrap, 0.0), (wrap, end, 1.0)] {
        if seg_lo >= seg_hi {
            continue;
        }
        // Split 2: where the `d < 0.0` branch stops firing.
        let cross = seeded_bound(
            seg_lo,
            seg_hi,
            guess_slot(arr_angle - angle0 + off, spt_f),
            |s| track.slot_angle(s) >= arr_angle,
        );
        // Piece endpoints, clamped into the segment (duplicates are fine).
        cands[n] = seg_lo;
        cands[n + 1] = cross.max(seg_lo + 1) - 1;
        cands[n + 2] = cross.min(seg_hi - 1);
        cands[n + 3] = seg_hi - 1;
        runs[n / 2].0 = cross - seg_lo;
        runs[n / 2 + 1].0 = seg_hi - cross;
        n += 4;
    }
    // Independent pre-snap evaluations (no loop-carried chain), then a
    // pairwise reduction.
    let pre = |s: u32| {
        let mut d = track.slot_angle(s) - arr_angle;
        if d < 0.0 {
            d += 1.0;
        }
        d
    };
    let (d0, d1, d2, d3) = (pre(cands[0]), pre(cands[1]), pre(cands[2]), pre(cands[3]));
    let mut min_d = d0.min(d1).min(d2.min(d3));
    let mut max_d = d0.max(d1).max(d2.max(d3));
    (runs[0].1, runs[1].1) = (d1, d3);
    if n == 8 {
        let (d4, d5, d6, d7) = (pre(cands[4]), pre(cands[5]), pre(cands[6]), pre(cands[7]));
        min_d = min_d.min(d4.min(d5).min(d6.min(d7)));
        max_d = max_d.max(d4.max(d5).max(d6.max(d7)));
        (runs[2].1, runs[3].1) = (d5, d7);
    }
    Pieces { min_d, max_d, runs }
}

/// First slot of `[first, end)` whose raw angle reaches 1.0 (`end` when
/// none does).
#[inline]
fn wrap_slot(track: &Track, first: u32, end: u32) -> u32 {
    let angle0 = track.angle0();
    let fracs = track.slot_fracs();
    let guess = guess_slot(1.0 - angle0, f64::from(track.spt()));
    seeded_bound(first, end, guess, |s| angle0 + fracs[s as usize] >= 1.0)
}

/// Closed-form equivalent of [`window_scan`]: the same (min, max) pair,
/// bit-for-bit, in O(log spt) instead of O(count).
///
/// When the snap fires nowhere — almost always — [`window_pieces`]'
/// candidate values *are* the final distances. A run in which it does fire
/// (an arrival pinned on a slot edge; at most 1.9 % of calls on any
/// benchmark workload) is scanned.
///
/// # Panics
///
/// Panics (debug) if the run is empty or extends past the track.
pub fn window_closed(track: &Track, arr_angle: f64, first: u32, count: u32) -> (f64, f64) {
    if count <= 2 {
        // Degenerate runs: the scan *is* the cheapest correct algorithm.
        return window_scan(track, arr_angle, first, count);
    }
    let p = window_pieces(track, arr_angle, first, count);
    if p.max_d < 1.0 - EPS {
        (p.min_d, p.max_d)
    } else {
        window_scan(track, arr_angle, first, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{GeometrySpec, ZoneSpec};

    fn track_with(
        spt: u32,
        track_skew: u32,
        cyl_skew: u32,
        tid: u32,
    ) -> crate::geometry::DiskGeometry {
        let g = GeometrySpec::pristine(
            2,
            vec![ZoneSpec {
                cylinders: 4,
                spt,
                track_skew,
                cyl_skew,
            }],
        )
        .build()
        .unwrap();
        assert!(tid < g.num_tracks());
        g
    }

    fn check_all_runs(g: &crate::geometry::DiskGeometry, tid: u32, arr: f64) {
        let t = &g.track(tid);
        let spt = t.spt();
        for first in [0, 1, spt / 3, spt - 1] {
            for count in [1, 2, spt / 2, spt - first] {
                if count == 0 || first + count > spt {
                    continue;
                }
                let scan = window_scan(t, arr, first, count);
                let closed = window_closed(t, arr, first, count);
                assert_eq!(
                    scan.0.to_bits(),
                    closed.0.to_bits(),
                    "min mismatch spt={spt} tid={tid} arr={arr} run=[{first},+{count})"
                );
                assert_eq!(
                    scan.1.to_bits(),
                    closed.1.to_bits(),
                    "max mismatch spt={spt} tid={tid} arr={arr} run=[{first},+{count})"
                );
            }
        }
    }

    #[test]
    fn closed_form_matches_scan_across_angles() {
        for spt in [1u32, 2, 3, 7, 200, 528] {
            let g = track_with(spt, spt / 7, spt / 5, 3);
            for tid in 0..4 {
                for arr in [
                    0.0,
                    0.25,
                    0.999,
                    0.999999,
                    1.0 - EPS,
                    1.0 - EPS / 2.0,
                    0.5 - 1e-12,
                    g.track(tid).slot_angle(spt / 2),
                ] {
                    check_all_runs(&g, tid, arr);
                }
            }
        }
    }

    #[test]
    fn closed_form_matches_scan_near_slot_boundaries() {
        // Arrival angles a hair before/at/after each slot angle exercise
        // every branch boundary, including the EPS snap.
        let g = track_with(64, 9, 17, 2);
        let t = g.track(2);
        for s in 0..64 {
            let a = t.slot_angle(s);
            for arr in [
                a,
                (a - 1e-9).rem_euclid(1.0),
                (a + 1e-9).rem_euclid(1.0),
                (a - EPS / 2.0).rem_euclid(1.0),
                (a + EPS / 2.0).rem_euclid(1.0),
            ] {
                check_all_runs(&g, 2, arr);
            }
        }
    }

    #[test]
    fn full_track_window_spans_whole_revolution() {
        let g = track_with(200, 20, 40, 1);
        let t = &g.track(1);
        let (min_d, max_d) = window_closed(t, 0.123456, 0, 200);
        // Some slot is (nearly) under the head and some slot is (nearly) a
        // full turn away.
        assert!(min_d < 1.0 / 200.0);
        assert!(max_d > 1.0 - 2.0 / 200.0);
    }
}
