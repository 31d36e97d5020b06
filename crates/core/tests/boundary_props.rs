//! Property-based tests for the traxtent core: boundary tables, extent
//! splitting, the planner's track-locality guarantee, and allocator
//! conservation.

use proptest::prelude::*;
use traxtent::{Extent, RequestPlanner, TrackBoundaries, TraxtentAllocator};

fn arb_table() -> impl Strategy<Value = TrackBoundaries> {
    prop::collection::vec(1u64..600, 2..120).prop_map(|lens| {
        TrackBoundaries::from_track_lengths(lens).expect("positive lengths are valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// track_bounds is consistent with track_index and covers every LBN.
    #[test]
    fn bounds_cover_and_agree(tb in arb_table(), pick in 0u64..u64::MAX) {
        let lbn = pick % tb.capacity();
        let (s, e) = tb.track_bounds(lbn);
        prop_assert!(s <= lbn && lbn < e);
        let idx = tb.track_index(lbn);
        prop_assert_eq!(tb.track_extent(idx), Extent::new(s, e - s));
    }

    /// Splitting an extent yields contiguous, track-local pieces covering
    /// exactly the input.
    #[test]
    fn split_partitions_exactly(tb in arb_table(), a in 0u64..u64::MAX, b in 1u64..u64::MAX) {
        let start = a % tb.capacity();
        let len = 1 + b % (tb.capacity() - start);
        let ext = Extent::new(start, len);
        let pieces: Vec<Extent> = tb.split_extent(ext).collect();
        prop_assert!(!pieces.is_empty());
        let mut at = start;
        for p in &pieces {
            prop_assert_eq!(p.start, at, "pieces must be contiguous");
            let (s, e) = tb.track_bounds(p.start);
            prop_assert!(p.start >= s && p.end() <= e, "{} crosses a track", p);
            at = p.end();
        }
        prop_assert_eq!(at, ext.end());
    }

    /// The planner never lets a prefetch or write-back cross a boundary,
    /// and a prefetch from a track start covers the whole track (capped).
    #[test]
    fn planner_is_track_local(tb in arb_table(), a in 0u64..u64::MAX, want in 1u64..2000, cap in 1u64..2000) {
        let start = a % tb.capacity();
        let planner = RequestPlanner::new(tb.clone());
        let len = planner.plan_prefetch(start, want, cap);
        prop_assert!(len >= 1 && len <= cap.max(1));
        prop_assert!(planner.is_track_local(start, len));
        let wb = planner.plan_writeback(start, want);
        prop_assert!(planner.is_track_local(start, wb));
        let (s, e) = tb.track_bounds(start);
        if start == s {
            prop_assert_eq!(len, (e - s).max(want.min(e - s)).min(cap.max(1)).min(e - s));
        }
    }

    /// Allocation conserves sectors, never double-allocates, and
    /// within-track allocations never span boundaries.
    #[test]
    fn allocator_conserves(tb in arb_table(), seeds in prop::collection::vec((0u64..u64::MAX, 1u64..100), 1..40)) {
        let total = tb.capacity();
        let mut alloc = TraxtentAllocator::new(tb.clone());
        let mut held: Vec<Extent> = Vec::new();
        for (near_raw, len) in seeds {
            let near = near_raw % total;
            if let Some(e) = alloc.alloc_within_track(len, near) {
                let (s, end) = tb.track_bounds(e.start);
                prop_assert!(e.start >= s && e.end() <= end, "{} crosses a track", e);
                for h in &held {
                    prop_assert!(h.intersect(&e).is_none(), "{} overlaps {}", h, e);
                }
                held.push(e);
            }
        }
        let held_total: u64 = held.iter().map(|e| e.len).sum();
        prop_assert_eq!(alloc.free_sectors() + held_total, total);
        for e in held {
            alloc.free(e);
        }
        prop_assert_eq!(alloc.free_sectors(), total);
        prop_assert_eq!(alloc.free_runs(), 1, "all space coalesces back");
    }

    /// Whole-track allocations are exactly tracks and exhaust to None.
    #[test]
    fn traxtent_allocs_are_tracks(tb in arb_table(), near_raw in 0u64..u64::MAX) {
        let mut alloc = TraxtentAllocator::new(tb.clone());
        let near = near_raw % tb.capacity();
        let mut count = 0;
        while let Some(e) = alloc.alloc_traxtent(near) {
            let (s, end) = tb.track_bounds(e.start);
            prop_assert_eq!(e, Extent::new(s, end - s));
            count += 1;
        }
        prop_assert_eq!(count, tb.num_tracks());
        prop_assert_eq!(alloc.free_sectors(), 0);
    }
}
