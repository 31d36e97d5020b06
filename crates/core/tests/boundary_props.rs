//! Property-based tests for the traxtent core: boundary tables, extent
//! splitting, the planner's track-locality guarantee, and allocator
//! conservation — and the bucket directory every boundary lookup goes
//! through, against the binary search it replaced.

use proptest::prelude::*;
use traxtent::boundaries::{Found, LbnDirectory};
use traxtent::{ConfidentBoundaries, Extent, RequestPlanner, TrackBoundaries, TraxtentAllocator};

/// Track lengths in four shapes: ordinary tracks, a table of one track,
/// runs of one-sector tracks that crowd a bucket, and one-sector tracks
/// strewn among ordinary ones.
fn arb_table() -> impl Strategy<Value = TrackBoundaries> {
    let raw = prop::collection::vec(0u64..u64::MAX, 1..120);
    (0u8..4, raw).prop_map(|(shape, raw)| {
        let lengths: Vec<u64> = match shape {
            0 => raw.iter().map(|r| 1 + r % 600).collect(),
            1 => vec![1 + raw[0] % 600],
            2 => (raw.iter())
                .flat_map(|&r| match r % 3 {
                    0 => vec![1; 2 + (r % 10) as usize],
                    _ => vec![1 + r % 600],
                })
                .collect(),
            _ => (raw.iter())
                .map(|r| if r % 4 == 0 { 1 } else { 1 + r % 600 })
                .collect(),
        };
        TrackBoundaries::from_track_lengths(lengths).expect("positive lengths are valid")
    })
}

/// Notes the table's shape: one track, or a track of one sector.
fn note_table(tb: &TrackBoundaries, tally: &mut Tally) {
    tally.note_if(tb.num_tracks() == 1, "one_track");
    tally.note_if(tb.iter().any(|t| t.len == 1), "one_sector_track");
}

/// Notes where a lookup of `lbn` went: to the last track, or through a
/// bucket more crowded than the directory's scan covers.
fn note_lookup(tb: &TrackBoundaries, lbn: u64, tally: &mut Tally) {
    tally.note_if(tb.track_index(lbn) == tb.num_tracks() - 1, "last_track");
    let (starts, dir) = tb.shared_parts();
    tally.note_if(dir.locate(&starts, lbn).1 == Found::Crowded, "crowded");
}

/// track_bounds is consistent with track_index and covers every LBN: at
/// every track's first and last LBN and at drawn ones.
#[test]
fn bounds_cover_and_agree() {
    let name = "bounds_cover_and_agree";
    let mut tally = Tally::default();
    let picks = prop::collection::vec(0u64..u64::MAX, 0..16);
    for_cases(name, 128, (arb_table(), picks), |(tb, picks)| {
        note_table(&tb, &mut tally);
        let edges = tb.iter().flat_map(|t| [t.start, t.end() - 1]);
        for lbn in edges.chain(picks.iter().map(|p| p % tb.capacity())) {
            let (s, e) = tb.track_bounds(lbn);
            assert!(s <= lbn && lbn < e, "lbn {lbn} outside {s}..{e}");
            let idx = tb.track_index(lbn);
            assert_eq!(tb.track_extent(idx), Extent::new(s, e - s), "lbn {lbn}");
            assert_eq!(tb.clip_to_track(lbn, u64::MAX), e - lbn, "lbn {lbn}");
            note_lookup(&tb, lbn, &mut tally);
        }
        assert_eq!(tb.iter().map(|t| t.len).sum::<u64>(), tb.capacity());
    });
    tally.require(
        name,
        &["one_track", "one_sector_track", "last_track", "crowded"],
    );
}

/// Splitting an extent yields contiguous, track-local pieces covering
/// exactly the input: a drawn extent, and the one from its start to the
/// capacity.
#[test]
fn split_partitions_exactly() {
    let name = "split_partitions_exactly";
    let mut tally = Tally::default();
    let strategy = (arb_table(), 0u64..u64::MAX, 1u64..u64::MAX);
    for_cases(name, 128, strategy, |(tb, a, b)| {
        note_table(&tb, &mut tally);
        let start = a % tb.capacity();
        let len = 1 + b % (tb.capacity() - start);
        for ext in [
            Extent::new(start, len),
            Extent::new(start, tb.capacity() - start),
        ] {
            let pieces: Vec<Extent> = tb.split_extent(ext).collect();
            assert!(!pieces.is_empty());
            let mut at = start;
            for p in &pieces {
                assert_eq!(p.start, at, "pieces must be contiguous");
                let (s, e) = tb.track_bounds(p.start);
                assert!(p.start >= s && p.end() <= e, "{p} crosses a track");
                note_lookup(&tb, p.start, &mut tally);
                at = p.end();
            }
            assert_eq!(at, ext.end());
            tally.note_if(ext.end() == tb.capacity(), "split_to_capacity");
        }
    });
    tally.require(
        name,
        &[
            "one_track",
            "one_sector_track",
            "split_to_capacity",
            "crowded",
        ],
    );
}

/// The planner never lets a prefetch or write-back cross a boundary,
/// and a prefetch from a track start covers the whole track (capped).
#[test]
fn planner_is_track_local() {
    let name = "planner_is_track_local";
    let mut tally = Tally::default();
    let strategy = (arb_table(), 0u64..u64::MAX, 1u64..2000, 1u64..2000);
    for_cases(name, 128, strategy, |(tb, a, want, cap)| {
        note_table(&tb, &mut tally);
        let start = a % tb.capacity();
        note_lookup(&tb, start, &mut tally);
        let planner = RequestPlanner::new(tb.clone());
        let len = planner.plan_prefetch(start, want, cap);
        assert!(len >= 1 && len <= cap.max(1));
        let (s, e) = tb.track_bounds(start);
        assert!(start + len <= e);
        let wb = planner.plan_writeback(start, want);
        assert!(wb >= 1 && wb <= want && start + wb <= e);
        if start == s {
            assert_eq!(len, (e - s).max(want.min(e - s)).min(cap.max(1)).min(e - s));
        }
    });
    tally.require(name, &["one_track", "one_sector_track", "last_track"]);
}

/// Allocation conserves sectors, never double-allocates, and whole
/// traxtents never span boundaries.
#[test]
fn allocator_conserves() {
    let name = "allocator_conserves";
    let mut tally = Tally::default();
    let seeds = prop::collection::vec((0u64..u64::MAX, 0u64..100), 1..40);
    for_cases(name, 128, (arb_table(), seeds), |(tb, seeds)| {
        note_table(&tb, &mut tally);
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
                assert!(
                    len > 0 || (e.start == s && e.end() == end),
                    "{e} is not a track"
                );
                for h in &held {
                    assert!(h.intersect(&e).is_none(), "{h} overlaps {e}");
                }
                held.push(e);
            }
        }
        let held_total: u64 = held.iter().map(|e| e.len).sum();
        assert_eq!(alloc.free_units() + held_total, total);
        for e in held {
            alloc.free(e);
        }
        assert_eq!(alloc.free_units(), total);
        assert_eq!(alloc.fragmentation(), 0.0, "all space coalesces back");
    });
    tally.require(name, &["one_track", "one_sector_track"]);
}

/// Whole-track allocations are exactly tracks and exhaust to None.
#[test]
fn traxtent_allocs_are_tracks() {
    let name = "traxtent_allocs_are_tracks";
    let mut tally = Tally::default();
    for_cases(
        name,
        128,
        (arb_table(), 0u64..u64::MAX),
        |(tb, near_raw)| {
            note_table(&tb, &mut tally);
            let mut alloc = TraxtentAllocator::new(tb.clone());
            let near = near_raw % tb.capacity();
            let mut count = 0;
            while let Some(e) = alloc.alloc_traxtent(near) {
                let (s, end) = tb.track_bounds(e.start);
                assert_eq!(e, Extent::new(s, end - s));
                count += 1;
            }
            assert_eq!(count, tb.num_tracks());
            assert_eq!(alloc.free_units(), 0);
        },
    );
    tally.require(name, &["one_track", "one_sector_track"]);
}

/// A confidence table answers as the values it was given, bit for bit,
/// whether every track is certain (the table keeps no values) or not;
/// and given all-1.0 values it is the certain table.
#[test]
fn confidences_answer_as_their_values() {
    let name = "confidences_answer_as_their_values";
    let mut tally = Tally::default();
    let values = prop::collection::vec(0u32..4, 1..120);
    for_cases(name, 128, (arb_table(), values), |(tb, values)| {
        // Mostly 1.0, so that a quarter of the tables are certain.
        let conf: Vec<f64> = (0..tb.num_tracks())
            .map(|i| match values[i % values.len()] {
                0 if values.len() % 4 != 0 => f64::from(i as u32 % 5) / 5.0,
                _ => 1.0,
            })
            .collect();
        let map = ConfidentBoundaries::new(tb.clone(), conf.clone()).expect("values in [0, 1]");
        for (i, &c) in conf.iter().enumerate() {
            assert_eq!(map.track_confidence(i).to_bits(), c.to_bits(), "track {i}");
            assert_eq!(map.is_confident(i, 0.5), c >= 0.5, "track {i}");
            assert!(map.is_confident(i, 0.0), "track {i}");
        }
        assert!(map.confidence().eq(conf.iter().copied()));
        let mean = conf.iter().sum::<f64>() / conf.len() as f64;
        assert_eq!(map.mean_confidence().to_bits(), mean.to_bits());
        let certain = conf.iter().all(|&c| c == 1.0);
        assert_eq!(map == ConfidentBoundaries::certain(tb), certain);
        tally.note(if certain { "certain" } else { "weak" });
    });
    tally.require(name, &["certain", "weak"]);
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
    // The starts, then the capacity (one sector if every length is zero).
    let mut bounds = vec![0];
    for len in lengths {
        bounds.push(bounds[bounds.len() - 1] + len);
    }
    let n = lengths.len();
    let capacity = bounds[n].max(1);
    bounds[n] = capacity;
    let starts = &bounds[..n];
    let dir = LbnDirectory::new(&bounds);
    // `None` when a start repeats: a table only the drive model builds.
    let table = TrackBoundaries::new(starts.to_vec(), capacity).ok();
    if let Some(tb) = &table {
        let (shared, shared_dir) = tb.shared_parts();
        assert!(shared[..] == bounds[..] && shared_dir == dir, "{n} tracks");
    }
    // The documented bucket width, for telling the sentinel's bucket.
    let shift = (capacity / n as u64).max(1).ilog2();
    let probes = (starts.iter().flat_map(|&s| [s, s.saturating_sub(1)]))
        .chain([capacity - 1])
        .chain(picks.iter().map(|p| p % capacity))
        .filter(|&lbn| lbn < capacity);
    for lbn in probes {
        let want = starts.partition_point(|&s| s <= lbn) - 1;
        let (got, found) = dir.locate(&bounds, lbn);
        assert_eq!(got, want, "lbn {lbn} of {capacity}");
        assert_eq!(dir.last_le(&bounds, lbn), want, "lbn {lbn} of {capacity}");
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
