//! Property-based tests for the traxtent core: boundary tables, extent
//! splitting, the planner's track-locality guarantee, and allocator
//! conservation — and the bucket directory every boundary lookup goes
//! through, against the binary search it replaced.

use proptest::prelude::*;
use traxtent::boundaries::{Found, LbnDirectory};
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
        let (s, e) = tb.track_bounds(start);
        prop_assert!(start + len <= e);
        let wb = planner.plan_writeback(start, want);
        prop_assert!(wb >= 1 && wb <= want && start + wb <= e);
        if start == s {
            prop_assert_eq!(len, (e - s).max(want.min(e - s)).min(cap.max(1)).min(e - s));
        }
    }

    /// Allocation conserves sectors, never double-allocates, and whole
    /// traxtents never span boundaries.
    #[test]
    fn allocator_conserves(tb in arb_table(), seeds in prop::collection::vec((0u64..u64::MAX, 0u64..100), 1..40)) {
        let total = tb.capacity();
        let mut alloc = TraxtentAllocator::new(tb.clone());
        let mut held: Vec<Extent> = Vec::new();
        for (near_raw, len) in seeds {
            let near = near_raw % total;
            let got = match len {
                0 => alloc.alloc_traxtent(near),
                _ => alloc.alloc_near(len, near),
            };
            if let Some(e) = got {
                let (s, end) = tb.track_bounds(e.start);
                prop_assert!(len > 0 || (e.start == s && e.end() == end), "{} is not a track", e);
                for h in &held {
                    prop_assert!(h.intersect(&e).is_none(), "{} overlaps {}", h, e);
                }
                held.push(e);
            }
        }
        let held_total: u64 = held.iter().map(|e| e.len).sum();
        prop_assert_eq!(alloc.free_units() + held_total, total);
        for e in held {
            alloc.free(e);
        }
        prop_assert_eq!(alloc.free_units(), total);
        prop_assert_eq!(alloc.fragmentation(), 0.0, "all space coalesces back");
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
        prop_assert_eq!(alloc.free_units(), 0);
    }
}

// ---------------------------------------------------------------------
// The bucket directory against the search it replaced.
// ---------------------------------------------------------------------

/// Track lengths in the shapes that break a naive directory. A zero length
/// is an empty track: a repeated start.
fn lengths(shape: u8, raw: &[u64], big: u64) -> Vec<u64> {
    let ones = || raw.iter().map(|_| 1);
    match shape {
        // Ordinary tracks; one track when `raw` holds one.
        0 => raw.iter().map(|r| 1 + r % 600).collect(),
        1 => vec![big],
        // Every track one sector: a bucket per track.
        2 => ones().collect(),
        // One bucket holds every start but the last ...
        3 => ones().chain([big]).collect(),
        // ... or every start but the first, and is the sentinel's.
        4 => [big].into_iter().chain(ones()).collect(),
        // Runs of repeated starts, leading and trailing ones included.
        5 => (raw.iter().map(|r| if r % 3 == 0 { r % 50 } else { 0 })).collect(),
        // Whole tracks with runs of 64-sector fallback units between them.
        _ => (raw.iter())
            .flat_map(|&r| {
                let fuzzy = r % 4 == 0;
                let n = if fuzzy { 2 + r % 7 } else { 1 };
                (0..n).map(move |_| if fuzzy { 64 } else { 300 + r % 100 })
            })
            .collect(),
    }
}

/// Checks every start, every start − 1, `capacity − 1` and `picks` against
/// `partition_point`, through the directory and through `TrackBoundaries`.
fn check_table(lengths: &[u64], picks: &[u64], tally: &mut Tally) {
    let mut starts = Vec::with_capacity(lengths.len());
    let mut capacity = 0;
    for len in lengths {
        starts.push(capacity);
        capacity += len;
    }
    let capacity = capacity.max(1);
    let dir = LbnDirectory::new(&starts, capacity);
    // `None` when a start repeats: a table only the drive model builds.
    let table = TrackBoundaries::new(starts.clone(), capacity).ok();
    // The documented bucket width, for telling the sentinel's bucket.
    let shift = (capacity / starts.len() as u64).max(1).ilog2();
    let probes = (starts.iter().flat_map(|&s| [s, s.saturating_sub(1)]))
        .chain([capacity - 1])
        .chain(picks.iter().map(|p| p % capacity))
        .filter(|&lbn| lbn < capacity);
    for lbn in probes {
        let want = starts.partition_point(|&s| s <= lbn) - 1;
        let (got, found) = dir.locate(&starts, lbn);
        assert_eq!(got, want, "lbn {lbn} of {capacity}");
        assert_eq!(dir.last_le(&starts, lbn), want, "lbn {lbn} of {capacity}");
        if let Some(tb) = &table {
            assert_eq!(tb.track_index(lbn), want, "lbn {lbn} of {capacity}");
        }
        if lbn % (1 << shift) == 0 {
            assert_eq!(found, Found::Scan(0), "bucket {lbn} >> {shift} starts late");
        }
        tally.note("lookups");
        // The bucket's own entry, a step or more past it, or a bucket more
        // crowded than the scan covers — the table's last one bounded by the
        // sentinel entry.
        tally.note(match found {
            Found::Scan(0) => "step0",
            Found::Scan(1) => "step1",
            Found::Scan(_) => "step2_3",
            Found::Crowded => "crowded",
        });
        let last_bucket = lbn >> shift == (capacity - 1) >> shift;
        tally.note_if(found == Found::Crowded && last_bucket, "crowded_sentinel");
    }
}

#[test]
fn directory_matches_the_binary_search() {
    let mut tally = Tally::default();
    let raw = prop::collection::vec(0u64..u64::MAX, 1..400);
    let picks = prop::collection::vec(0u64..u64::MAX, 0..64);
    for_cases(
        "directory_matches_the_binary_search",
        256,
        (0u8..7, raw, 1u64..1 << 40, picks),
        |(shape, raw, big, picks)| check_table(&lengths(shape, &raw, big), &picks, &mut tally),
    );
    // 10⁵ one-sector tracks, then one of 2³⁰ sectors: thousands of starts
    // in each of the first buckets, and a capacity no bucket width divides.
    let ones = vec![0; 100_000];
    check_table(&lengths(3, &ones, 1 << 30), &[12_345, 1 << 29], &mut tally);
    tally.require(
        "directory_matches_the_binary_search",
        &["step0", "step1", "step2_3", "crowded", "crowded_sentinel"],
    );
}
