//! Property-based tests for the closed-form rotational-window arithmetic:
//! for arbitrary zoned geometries, defect layouts, arrival angles, and
//! slot runs, [`sim_disk::rotation::window_closed`] must agree with the
//! per-sector reference scan [`sim_disk::rotation::window_scan`]
//! *bit-for-bit* — the engine's byte-identical-output guarantee rests on
//! this equivalence, not on approximate closeness.

mod common;

use common::arb_spec;
use proptest::prelude::*;
use sim_disk::rotation::{window_closed, window_scan, EPS};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Closed form == reference scan, bitwise, for every track and run.
    #[test]
    fn window_closed_matches_scan_bitwise(
        spec in arb_spec(),
        tsel in 0u32..10_000,
        arr_raw in arb_angle(),
        fsel in 0u32..10_000,
        csel in 0u32..10_000,
        snap_sel in 0u32..2,
    ) {
        if let Ok(geom) = spec.build() {
            let tid = tsel % geom.num_tracks();
            let track = &geom.track(tid);
            let spt = track.spt();
            if spt > 0 {
                let first = fsel % spt;
                let count = 1 + csel % (spt - first);
                // Half the cases pin the arrival exactly on a slot angle
                // of this track — what back-to-back sequential requests
                // hit every time.
                let arr = if snap_sel == 1 {
                    track.slot_angle(fsel % spt)
                } else {
                    arr_raw
                };
                let scan = window_scan(track, arr, first, count);
                let closed = window_closed(track, arr, first, count);
                prop_assert_eq!(
                    scan.0.to_bits(),
                    closed.0.to_bits(),
                    "min mismatch: tid={} arr={} run=[{},+{}) scan={:?} closed={:?}",
                    tid, arr, first, count, scan, closed
                );
                prop_assert_eq!(
                    scan.1.to_bits(),
                    closed.1.to_bits(),
                    "max mismatch: tid={} arr={} run=[{},+{}) scan={:?} closed={:?}",
                    tid, arr, first, count, scan, closed
                );
            }
        }
    }
}
