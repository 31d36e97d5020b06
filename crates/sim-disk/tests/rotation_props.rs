//! Property-based tests for the closed-form rotational-window arithmetic:
//! for arbitrary zoned geometries, defect layouts, arrival angles, and
//! slot runs, [`sim_disk::rotation::window_closed`] must agree with the
//! per-sector reference scan [`sim_disk::rotation::window_scan`]
//! *bit-for-bit* — the engine's byte-identical-output guarantee rests on
//! this equivalence, not on approximate closeness.

mod common;

use common::arb_spec;
use proptest::prelude::*;
use sim_disk::defects::DefectLocation;
use sim_disk::rotation::{window_closed, window_pieces, window_scan, EPS};

/// Arrival angles including the hard cases: the EPS snap margin and the
/// top of the unit interval, where the wrap branches live.
fn arb_angle() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0..1.0f64,
        Just(0.0),
        Just(1.0 - EPS),
        Just(1.0 - EPS / 2.0),
        Just(1.0 - f64::EPSILON),
    ]
}

/// Closed form == reference scan, bitwise, for every track and run.
#[test]
fn window_closed_matches_scan_bitwise() {
    let strategy = (
        arb_spec(),
        (0u32..10_000, 0u32..2, 0u32..6),
        (arb_angle(), 0u32..3),
        (0u32..10_000, 0u32..10_000, 0u32..3),
    );
    let mut tally = Tally::default();
    for_cases(
        "window_closed_matches_scan_bitwise",
        384,
        strategy,
        |(mut spec, (tsel, defective, crowd), (arr_raw, pin), (fsel, csel, whole))| {
            // A sixth of the specs crowd a dozen defects onto the first
            // track, more than most spare schemes absorb there.
            if crowd == 0 {
                let spt = spec.zones[0].spt;
                (spec.defects).extend((0..spt.min(12)).map(|s| DefectLocation::new(0, 0, s)));
            }
            let Ok(geom) = spec.build() else {
                tally.note("refused");
                return;
            };
            // Half the cases look for a track with defective slots, which
            // the spec's few defects otherwise rarely hit.
            let holed: Vec<u32> = (0..geom.num_tracks())
                .filter(|&t| !geom.track(t).defect_slots().is_empty())
                .collect();
            let tid = match (defective, holed.len()) {
                (1, n) if n > 0 => holed[tsel as usize % n],
                _ => tsel % geom.num_tracks(),
            };
            let track = &geom.track(tid);
            let spt = track.spt();
            if spt == 0 {
                return;
            }
            // A third of the runs are the whole track.
            let (first, count) = if whole == 0 {
                (0, spt)
            } else {
                let first = fsel % spt;
                (first, 1 + csel % (spt - first))
            };
            // A third of the cases pin the arrival exactly on a slot angle
            // of this track — what back-to-back sequential requests hit
            // every time — and a third a hair past one, where the EPS snap
            // fires.
            let arr = match pin {
                0 => arr_raw,
                1 => track.slot_angle(fsel % spt),
                _ => (track.slot_angle(fsel % spt) + EPS / 2.0).rem_euclid(1.0),
            };
            tally.note(["free_arrival", "on_slot", "past_slot"][pin as usize]);
            let end = first + count;
            let wraps = (first + 1..end).any(|s| track.slot_angle(s) < track.slot_angle(s - 1));
            tally.note(if wraps { "wraps" } else { "no_wrap" });
            let holed = !track.defect_slots().is_empty();
            tally.note(if holed {
                "defective_track"
            } else {
                "clean_track"
            });
            tally.note(if count == spt {
                "whole_track"
            } else {
                "partial_run"
            });
            tally.note(if count <= 2 {
                "short_run"
            } else if window_pieces(track, arr, first, count).max_d >= 1.0 - EPS {
                "snapped"
            } else {
                "closed"
            });

            let scan = window_scan(track, arr, first, count);
            let closed = window_closed(track, arr, first, count);
            let run = format!("tid={tid} arr={arr} run=[{first},+{count})");
            assert_eq!(
                scan.0.to_bits(),
                closed.0.to_bits(),
                "min mismatch: {run} scan={scan:?} closed={closed:?}"
            );
            assert_eq!(
                scan.1.to_bits(),
                closed.1.to_bits(),
                "max mismatch: {run} scan={scan:?} closed={closed:?}"
            );
        },
    );
    tally.require(
        "window_closed_matches_scan_bitwise",
        &[
            "free_arrival",
            "on_slot",
            "past_slot",
            "wraps",
            "no_wrap",
            "defective_track",
            "clean_track",
            "whole_track",
            "partial_run",
            "refused",
            "short_run",
            "snapped",
            "closed",
        ],
    );
}
