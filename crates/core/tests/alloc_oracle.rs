//! The allocator's sector API against the allocator it replaced: free runs
//! in a `BTreeMap`, start → length, kept here because it is obviously right and nowhere else because it is slow.
//!
//! The bitmap allocator took two rules over from the file system, whose
//! placements every figure ran, and the tree allocator is changed to match
//! in the two places marked *Changed* (DESIGN §6 has which side is the
//! paper's): the track walk visits the lower of two equidistant tracks
//! first, and `alloc_near` places at the free position closest to the hint
//! — the upper one at equal distance — instead of at the start of the
//! closest run. Run with `-- --nocapture`, the property prints how often
//! each branch was seen and fails if one was seen fewer than 16 times.
//!
//! The boundary states random tables rarely reach — one track, tracks
//! shorter than a unit, a capacity that is no whole number of units, a map
//! filled to nothing and drained back, a map of no unit — are plain tests
//! at the end.

use proptest::prelude::*;
use std::collections::BTreeMap;
use traxtent::{Extent, TrackBoundaries, TraxtentAllocator};

/// Free-space manager over the LBN space described by a boundary table.
#[derive(Debug, Clone)]
struct TreeAllocator {
    boundaries: TrackBoundaries,
    /// Free runs: start → length. Invariant: non-overlapping, non-adjacent
    /// (adjacent runs are coalesced), all within `[0, capacity)`.
    free: BTreeMap<u64, u64>,
    free_sectors: u64,
    /// The library's per-track room index as its walks should leave it,
    /// kept only to tally which tracks a walk passed over: `room` and
    /// `pair_room` false where a failed search proved no free sector, or
    /// no free pair and no free last sector; `rearmed` where a free has
    /// set them again since and no search has examined the track.
    room: Vec<bool>,
    pair_room: Vec<bool>,
    rearmed: Vec<bool>,
}

impl TreeAllocator {
    /// Creates an allocator with the entire LBN space free.
    fn new(boundaries: TrackBoundaries) -> Self {
        let cap = boundaries.capacity();
        let mut free = BTreeMap::new();
        free.insert(0, cap);
        let tracks = boundaries.num_tracks();
        TreeAllocator {
            boundaries,
            free,
            free_sectors: cap,
            room: vec![true; tracks],
            pair_room: vec![true; tracks],
            rearmed: vec![false; tracks],
        }
    }

    /// Whether the whole extent is currently free.
    fn is_free(&self, ext: Extent) -> bool {
        match self.free.range(..=ext.start).next_back() {
            Some((&s, &l)) => s + l >= ext.end(),
            None => false,
        }
    }

    /// Allocates the whole track closest to `near` whose sectors are all
    /// free. Returns the track extent, or `None` if no fully free track
    /// remains.
    fn alloc_traxtent(&mut self, near: u64, seen: &mut Tally) -> Option<Extent> {
        let n = self.boundaries.num_tracks();
        let origin = self
            .boundaries
            .track_index(near.min(self.boundaries.capacity() - 1));
        for idx in ring(origin, n) {
            let t = self.boundaries.track_extent(idx);
            if self.is_free(t) {
                seen.note_if(idx == origin, "traxtent_at_the_origin");
                seen.note_if(idx < origin, "traxtent_below_the_origin");
                seen.note_if(idx > origin, "traxtent_above_the_origin");
                let distance = origin.abs_diff(idx);
                seen.note_if(
                    idx < origin && origin + distance >= n,
                    "traxtent_below_once_the_top_ran_out",
                );
                seen.note_if(
                    idx > origin && distance > origin,
                    "traxtent_above_once_the_bottom_ran_out",
                );
                let first_free = *self.free.keys().next().expect("a track is free");
                seen.note_if(
                    self.boundaries.track_index(first_free) > origin,
                    "origin_below_the_first_free_track",
                );
                self.take(t);
                return Some(t);
            }
        }
        seen.note("no_free_traxtent");
        None
    }

    /// The first free sector of the closest track, the lower at
    /// equal distance, that starts `want` free sectors — a run that may
    /// run on past the track — or a shorter run ending at the track's end:
    /// every track tested in the order of `ring`.
    fn closest_traxtent_run(&mut self, near: u64, want: u64, seen: &mut Tally) -> Option<u64> {
        seen.note(
            ["want_1", "want_1", "want_2"]
                .get(want as usize)
                .unwrap_or(&"want_3_or_more"),
        );
        let n = self.boundaries.num_tracks();
        let origin = self
            .boundaries
            .track_index(near.min(self.boundaries.capacity() - 1));
        // The library starts its walk at the first free sector's track.
        let floor = (self.free.keys().next()).map_or(n, |&s| self.boundaries.track_index(s));
        let mut found = None;
        for idx in ring(origin, n) {
            found = self.run_on_track(idx, want);
            let indexed = if want > 1 {
                self.pair_room[idx]
            } else {
                self.room[idx]
            };
            if let Some(u) = found {
                assert!(indexed, "track {idx} answers but the index has passed it");
                let distance = origin.abs_diff(idx);
                seen.note_if(idx < origin, "run_below_the_origin");
                seen.note_if(idx > origin, "run_above_the_origin");
                seen.note_if(
                    (idx < origin && origin + distance >= n) || (idx > origin && distance > origin),
                    "run_once_one_side_ran_out",
                );
                seen.note_if(self.rearmed[idx], "passed_track_rearmed_then_taken");
                seen.note_if(
                    want == 1 && !self.pair_room[idx],
                    "unit_found_where_a_pair_was_not",
                );
                self.rearmed[idx] = false;
                found = Some(u);
                break;
            }
            if idx >= floor && indexed {
                // The library examined this track and remembers the failure.
                if want <= 1 {
                    self.room[idx] = false;
                }
                if want <= 2 {
                    self.pair_room[idx] = false;
                }
                self.rearmed[idx] = false;
            }
        }
        seen.note_if(found.is_none(), "no_traxtent_run");
        found
    }

    /// The first free sector of track `idx` that starts `want` free
    /// sectors, or a shorter free run ending at the track's end.
    fn run_on_track(&self, idx: usize, want: u64) -> Option<u64> {
        let t = self.boundaries.track_extent(idx);
        self.free_in(t).find_map(|(s, l)| {
            let u = s.max(t.start);
            (s + l - u >= want || s + l == t.end()).then_some(u)
        })
    }

    /// The free runs that overlap `t`, as `(start, length)`.
    fn free_in(&self, t: Extent) -> impl Iterator<Item = (u64, u64)> + '_ {
        let first = self
            .free
            .range(..=t.start)
            .next_back()
            .map_or(t.start, |(&s, _)| s);
        (self.free.range(first..t.end()))
            .map(|(&s, &l)| (s, l))
            .filter(move |&(s, l)| s + l > t.start)
    }

    /// *Changed:* the `len` free sectors closest to `near`, the upper
    /// placement at equal distance. The library placed at `near` when the
    /// run holding it had room from there, and at a run's start otherwise.
    fn alloc_near(&mut self, len: u64, near: u64, seen: &mut Tally) -> Option<Extent> {
        assert!(len > 0);
        let placements = || {
            (self.free.iter())
                .filter(move |&(_, &l)| l >= len)
                .map(move |(&s, &l)| near.clamp(s, s + l - len))
        };
        let best = placements().min_by_key(|&at| (at.abs_diff(near), at < near));
        let Some(at) = best else {
            seen.note("no_free_run");
            return None;
        };
        let distance = at.abs_diff(near);
        seen.note_if(at == near, "run_at_the_hint");
        seen.note_if(at < near, "run_below_the_hint");
        seen.note_if(at > near, "run_above_the_hint");
        seen.note_if(
            at > near && placements().any(|b| b < near && near - b == distance),
            "tie_went_up",
        );
        seen.note_if(
            at < near && self.is_free(Extent::new(at, near - at + 1)),
            "run_holds_the_hint_but_ends_short",
        );
        seen.note_if(near >= self.boundaries.capacity(), "hint_past_the_end");
        let e = Extent::new(at, len);
        self.take(e);
        Some(e)
    }

    /// Frees an extent.
    ///
    /// # Panics
    ///
    /// Panics if any part of the extent is already free or out of range.
    fn free(&mut self, ext: Extent, seen: &mut Tally) {
        assert!(
            ext.end() <= self.boundaries.capacity(),
            "free {ext} out of range"
        );
        // Check no overlap with existing free space.
        if let Some((&s, &l)) = self.free.range(..ext.end()).next_back() {
            assert!(
                s + l <= ext.start,
                "double free of {ext} (overlaps run [{s}, {})",
                s + l
            );
        }
        self.free_sectors += ext.len;
        if ext.len > 0 {
            let last = self.boundaries.track_index(ext.end() - 1);
            for idx in self.boundaries.track_index(ext.start)..=last {
                self.rearmed[idx] |= !(self.room[idx] && self.pair_room[idx]);
                self.room[idx] = true;
                self.pair_room[idx] = true;
            }
        }
        // Coalesce with predecessor and successor.
        let mut start = ext.start;
        let mut end = ext.end();
        let mut joined = 0;
        if let Some((&s, &l)) = self.free.range(..start).next_back() {
            if s + l == start {
                start = s;
                self.free.remove(&s);
                joined += 1;
            }
        }
        if let Some((&s, &l)) = self.free.range(end..).next() {
            if s == end {
                end += l;
                self.free.remove(&s);
                joined += 1;
            }
        }
        self.free.insert(start, end - start);
        seen.note(
            [
                "freed_alone",
                "freed_beside_one_run",
                "freed_between_two_runs",
            ][joined],
        );
    }

    /// Removes `e` from the free map; `e` must be entirely free.
    fn take(&mut self, e: Extent) {
        let (&s, &l) = self
            .free
            .range(..=e.start)
            .next_back()
            .expect("allocating free space");
        debug_assert!(s + l >= e.end(), "take of non-free extent");
        self.free.remove(&s);
        if s < e.start {
            self.free.insert(s, e.start - s);
        }
        if e.end() < s + l {
            self.free.insert(e.end(), s + l - e.end());
        }
        self.free_sectors -= e.len;
    }
}

/// *Changed:* yields `origin, origin-1, origin+1, origin-2, …` over `0..n`,
/// visiting every index exactly once in order of distance from the origin,
/// the lower first at equal distance (the library went up first).
fn ring(origin: usize, n: usize) -> impl Iterator<Item = usize> {
    std::iter::once(origin).chain((1..n).flat_map(move |step| {
        let up = origin.checked_add(step).filter(|&i| i < n);
        let down = origin.checked_sub(step);
        down.into_iter().chain(up)
    }))
}

fn arb_table() -> impl Strategy<Value = TrackBoundaries> {
    let lengths = prop_oneof![1u64..600, 1u64..600, 1u64..8];
    prop::collection::vec(lengths, 1..120).prop_map(|lens| {
        TrackBoundaries::from_track_lengths(lens).expect("positive lengths are valid")
    })
}

/// The free state, the free count and the fragmentation agree, sector by
/// sector.
fn assert_same_map(fast: &TraxtentAllocator, slow: &TreeAllocator) {
    let capacity = slow.boundaries.capacity();
    assert_eq!(fast.units(), capacity);
    assert_eq!(fast.free_units(), slow.free_sectors);
    for u in 0..capacity {
        assert_eq!(
            fast.is_free(u),
            slow.is_free(Extent::new(u, 1)),
            "sector {u}"
        );
    }
    let longest = slow.free.values().max().copied().unwrap_or(0);
    let fragmentation = match slow.free_sectors {
        0 => 0.0,
        free => 1.0 - longest as f64 / free as f64,
    };
    assert_eq!(fast.fragmentation(), fragmentation);
}

/// The hint halfway between the last place `len` sectors fit in one free
/// run and the first in the next run that can hold them, if two can.
fn between_runs(slow: &TreeAllocator, pick: u64, len: u64) -> Option<u64> {
    let runs: Vec<(u64, u64)> = (slow.free.iter())
        .filter(|&(_, &l)| l >= len)
        .map(|(&s, &l)| (s, l))
        .collect();
    let i = pick as usize % runs.len().checked_sub(1).filter(|&n| n > 0)?;
    let ((s, l), (next, _)) = (runs[i], runs[i + 1]);
    Some((s + l - len + next) / 2)
}

/// What a case draws: the table and the operations as `(kind, pick,
/// length)`.
type Case = (TrackBoundaries, Vec<(u8, u64, u64)>);

fn arb_case() -> impl Strategy<Value = Case> {
    let len = prop_oneof![1u64..8, 1u64..200, 100u64..1_200];
    (
        arb_table(),
        prop::collection::vec((0u8..15, 0u64..u64::MAX, len), 1..150),
    )
}

/// `alloc_traxtent`, `closest_traxtent_run`, `alloc_near` and `free`
/// return what the tree allocator returns and leave the same free map,
/// over random tables, from a pristine map
/// to a full one and back: whole and partial frees, hints anywhere in the
/// table and past it, hints between two equidistant runs, and run queries
/// where the last free landed, which the library's room index has to have
/// seen.
#[test]
fn sector_api_matches_the_tree_allocator() {
    let name = "sector_api_matches_the_tree_allocator";
    let mut tally = Tally::default();
    for_cases(name, 128, arb_case(), |(tb, ops)| {
        let capacity = tb.capacity();
        let mut fast = TraxtentAllocator::new(tb.clone());
        let mut slow = TreeAllocator::new(tb.clone());
        let mut held: Vec<Extent> = Vec::new();
        let mut last_freed = 0;
        for (op, pick, len) in ops {
            // Mostly inside the table, sometimes past its end, and
            // sometimes halfway between two places `len` sectors fit.
            let near = match op % 4 {
                0 => between_runs(&slow, pick, len).unwrap_or(pick % capacity),
                1 => capacity + pick % 64,
                _ => pick % capacity,
            };
            match op {
                0..=2 => {
                    let got = fast.alloc_traxtent(near);
                    assert_eq!(
                        got,
                        slow.alloc_traxtent(near, &mut tally),
                        "alloc_traxtent({near})"
                    );
                    held.extend(got);
                }
                3..=6 => {
                    let got = fast.alloc_near(len, near);
                    assert_eq!(
                        got,
                        slow.alloc_near(len, near, &mut tally),
                        "alloc_near({len}, {near})"
                    );
                    held.extend(got);
                }
                7..=9 if !held.is_empty() => {
                    // A whole held extent, or its head, leaving the rest held.
                    let at = pick as usize % held.len();
                    let h = held.swap_remove(at);
                    let cut = if op == 9 { 1 + len % h.len } else { h.len };
                    let freed = Extent::new(h.start, cut);
                    held.extend(Extent::from_bounds(freed.end(), h.end()));
                    fast.free(freed);
                    slow.free(freed, &mut tally);
                    last_freed = freed.start;
                }
                12..=14 => {
                    // Mostly a pair or a few sectors, as `ffs` asks, near
                    // anywhere or where the last free landed.
                    let want = if pick % 3 == 0 { len } else { 1 + len % 3 };
                    let near = if op == 14 { last_freed } else { near };
                    assert_eq!(
                        fast.closest_traxtent_run(near, want),
                        slow.closest_traxtent_run(near, want, &mut tally),
                        "closest_traxtent_run({near}, {want})"
                    );
                }
                11 if !held.is_empty() => {
                    // Every other sector of a held extent, then a pair and
                    // one sector wanted there: the pair search passes a
                    // track of single free sectors, and the one-sector
                    // search after it must still find them.
                    let h = held.swap_remove(pick as usize % held.len());
                    for u in (h.start..h.end()).step_by(2) {
                        fast.free(Extent::new(u, 1));
                        slow.free(Extent::new(u, 1), &mut tally);
                    }
                    held.extend((h.start + 1..h.end()).step_by(2).map(|u| Extent::new(u, 1)));
                    last_freed = h.start;
                    for want in [2, 1] {
                        assert_eq!(
                            fast.closest_traxtent_run(h.start, want),
                            slow.closest_traxtent_run(h.start, want, &mut tally),
                            "closest_traxtent_run({}, {want}) among single holes",
                            h.start
                        );
                    }
                }
                10 if pick % 4 == 0 => {
                    // Fill the map, a whole free run at a time.
                    let runs: Vec<(u64, u64)> = slow.free.iter().map(|(&s, &l)| (s, l)).collect();
                    for (s, l) in runs {
                        let got = fast.alloc_near(l, s);
                        assert_eq!(got, Some(Extent::new(s, l)));
                        assert_eq!(got, slow.alloc_near(l, s, &mut Tally::default()));
                        held.extend(got);
                    }
                }
                _ => {}
            }
            assert_eq!(fast.free_units(), slow.free_sectors);
            tally.note_if(slow.free_sectors == 0, "map_full");
        }
        assert_same_map(&fast, &slow);
    });
    tally.require(
        name,
        &[
            "traxtent_at_the_origin",
            "traxtent_below_the_origin",
            "traxtent_above_the_origin",
            "traxtent_below_once_the_top_ran_out",
            "traxtent_above_once_the_bottom_ran_out",
            "origin_below_the_first_free_track",
            "no_free_traxtent",
            "run_at_the_hint",
            "run_below_the_hint",
            "run_above_the_hint",
            "tie_went_up",
            "run_holds_the_hint_but_ends_short",
            "hint_past_the_end",
            "no_free_run",
            "freed_alone",
            "freed_beside_one_run",
            "freed_between_two_runs",
            "map_full",
            "run_below_the_origin",
            "run_above_the_origin",
            "run_once_one_side_ran_out",
            "want_1",
            "want_2",
            "want_3_or_more",
            "passed_track_rearmed_then_taken",
            "unit_found_where_a_pair_was_not",
            "no_traxtent_run",
        ],
    );
}

#[test]
fn a_one_track_table() {
    let tb = TrackBoundaries::uniform(1, 100);
    let mut a = TraxtentAllocator::new(tb.clone());
    assert_eq!(a.alloc_traxtent(500), Some(Extent::new(0, 100)));
    assert_eq!(a.alloc_traxtent(0), None);
    assert_eq!(a.alloc_near(1, 0), None);
    // Six whole 16-sector units; the track ends inside no unit of the
    // map, so nothing is excluded.
    let mut a = TraxtentAllocator::in_units(tb, 16, 100);
    a.exclude_straddlers();
    assert_eq!((a.units(), a.free_units()), (6, 6));
    assert_eq!(a.closest_traxtent_run(3, 6), Some(0));
    assert_eq!(a.alloc_traxtent(3), Some(Extent::new(0, 6)));
}

#[test]
fn tracks_shorter_than_a_unit() {
    let tb = TrackBoundaries::uniform(20, 10);
    let mut a = TraxtentAllocator::in_units(tb.clone(), 16, 200);
    // No track holds a whole unit: no traxtent anywhere, while the
    // untracked fallback still places.
    assert_eq!(a.closest_traxtent_run(5, 1), None);
    assert_eq!(a.alloc_traxtent(5), None);
    assert_eq!(a.closest_free_run(5, 3, u64::MAX), Some(5));
    // Every unit spans a boundary, so exclusion takes them all.
    let mut a = TraxtentAllocator::in_units(tb, 16, 200);
    a.exclude_straddlers();
    assert_eq!((a.units(), a.free_units()), (12, 0));
    assert_eq!(a.excluded_fraction(), 1.0);
    assert_eq!(a.closest_free_run(5, 1, u64::MAX), None);
    assert_eq!(a.alloc_near(1, 5), None);
}

#[test]
fn a_capacity_that_is_not_a_multiple_of_the_unit() {
    // 300 sectors: 18 whole units, the last 12 sectors in none.
    let tb = TrackBoundaries::uniform(3, 100);
    let mut a = TraxtentAllocator::in_units(tb, 16, 300);
    a.exclude_straddlers();
    // Tracks 0 and 1 end inside units 6 and 12; track 2 ends past the
    // map.
    assert!(a.is_excluded(6) && a.is_excluded(12) && !a.is_excluded(17));
    assert_eq!(a.free_units(), 16);
    // Track 2's traxtent is its whole units inside the map, 13..18.
    assert_eq!(a.alloc_traxtent(17), Some(Extent::new(13, 5)));
    // A hint past the map looks down from its last unit.
    assert_eq!(a.alloc_near(5, 1_000), Some(Extent::new(7, 5)));
}

#[test]
fn a_map_filled_to_zero_then_drained_to_one_run() {
    let mut a = TraxtentAllocator::new(TrackBoundaries::uniform(4, 50));
    let mut held = Vec::new();
    for i in 0..40 {
        held.extend(a.alloc_near(7, i * 13));
    }
    while let Some(e) = a.alloc_near(1, 0) {
        held.push(e);
    }
    assert_eq!(a.free_units(), 0);
    assert_eq!(a.fragmentation(), 0.0);
    assert_eq!(a.alloc_traxtent(0), None);
    assert_eq!(a.closest_free_run(100, 1, u64::MAX), None);
    for e in held {
        a.free(e);
    }
    assert_eq!((a.free_units(), a.fragmentation()), (200, 0.0));
    assert_eq!(a.alloc_traxtent(0), Some(Extent::new(0, 50)));
}

#[test]
#[should_panic(expected = "no whole 16-sector unit in 10 sectors")]
fn a_map_without_a_whole_unit_is_refused() {
    let _ = TraxtentAllocator::in_units(TrackBoundaries::uniform(1, 10), 16, 10);
}
