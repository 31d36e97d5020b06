//! The traxtent allocator: a free-space map that knows where the tracks are.
//!
//! [`TraxtentAllocator`] keeps one bit per *allocation unit* — a file-system
//! block for `ffs` ([`in_units`](TraxtentAllocator::in_units)), one sector
//! for [`new`](TraxtentAllocator::new) — and serves the placements a
//! traxtent-aware file system wants (§3.2, §4.2.2):
//!
//! 1. [`exclude_straddlers`](TraxtentAllocator::exclude_straddlers) — every
//!    unit that spans a track boundary is allocated forever, so no
//!    allocation crosses one;
//! 2. [`closest_traxtent_run`](TraxtentAllocator::closest_traxtent_run) —
//!    the first free unit of the closest traxtent (the whole units of one
//!    track) with room for a run, and
//!    [`alloc_traxtent`](TraxtentAllocator::alloc_traxtent), a whole free
//!    traxtent, both walking tracks outward from a hint and passing over
//!    the tracks a per-track index says cannot answer;
//! 3. [`closest_free_run`](TraxtentAllocator::closest_free_run) and
//!    [`alloc_near`](TraxtentAllocator::alloc_near) — the closest free run
//!    regardless of boundaries (the track-unaware fallback).
//!
//! Positions and lengths are in units throughout.

use crate::boundaries::TrackBoundaries;
use crate::extent::Extent;

/// One bit per item, item `i` at bit `i % 64` of word `i / 64`. Bits past
/// `len` stay zero, so no scan has to mask the last word.
#[derive(Debug, Clone)]
struct Bitmap {
    words: Vec<u64>,
    len: u64,
}

impl Bitmap {
    fn zeros(len: u64) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64) as usize],
            len,
        }
    }

    fn ones(len: u64) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(64) as usize];
        let tail = len % 64;
        if let Some(last) = words.last_mut().filter(|_| tail > 0) {
            *last = (1 << tail) - 1;
        }
        Bitmap { words, len }
    }

    // The one-bit operations are `#[inline]` because `ffs` reaches them
    // through `take` and `is_free` once a block, from another crate.
    /// Word index and bit mask of item `i`.
    #[inline]
    fn bit(&self, i: u64) -> (usize, u64) {
        assert!(i < self.len, "item {i} beyond the map's {}", self.len);
        ((i / 64) as usize, 1 << (i % 64))
    }

    #[inline]
    fn get(&self, i: u64) -> bool {
        let (word, bit) = self.bit(i);
        self.words[word] & bit != 0
    }

    #[inline]
    fn set(&mut self, i: u64) {
        let (word, bit) = self.bit(i);
        self.words[word] |= bit;
    }

    #[inline]
    fn clear(&mut self, i: u64) {
        let (word, bit) = self.bit(i);
        self.words[word] &= !bit;
    }

    fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// The first set item at or after `from`; `len` when there is none.
    fn next_one(&self, from: u64) -> u64 {
        if from >= self.len {
            return self.len;
        }
        let mut at = (from / 64) as usize;
        let mut word = self.words[at] & (u64::MAX << (from % 64));
        while word == 0 {
            at += 1;
            if at == self.words.len() {
                return self.len;
            }
            word = self.words[at];
        }
        at as u64 * 64 + u64::from(word.trailing_zeros())
    }

    /// The last set item at or before `from` (`len` is positive: the
    /// allocator refuses an empty map).
    fn prev_one(&self, from: u64) -> Option<u64> {
        let from = from.min(self.len - 1);
        let mut at = (from / 64) as usize;
        let mut word = self.words[at] & (u64::MAX >> (63 - from % 64));
        while word == 0 {
            at = at.checked_sub(1)?;
            word = self.words[at];
        }
        Some(at as u64 * 64 + 63 - u64::from(word.leading_zeros()))
    }

    /// Length of the run of set items starting at `from`, capped at `cap`.
    fn ones_at(&self, from: u64, cap: u64) -> u64 {
        let (mut n, mut at) = (0, from);
        while n < cap && at < self.len {
            let rest = 64 - at % 64;
            let ones = u64::from((self.words[(at / 64) as usize] >> (at % 64)).trailing_ones());
            n += ones;
            if ones < rest {
                break;
            }
            at += rest;
        }
        n.min(cap)
    }

    /// Items `first..first + width` in the low `width` bits of a word
    /// (`1 <= width <= 64`).
    fn window(&self, first: u64, width: u64) -> u64 {
        let (at, shift) = ((first / 64) as usize, first % 64);
        let mut bits = self.words[at] >> shift;
        if shift + width > 64 {
            bits |= self.words[at + 1] << (64 - shift);
        }
        bits & (u64::MAX >> (64 - width))
    }

    /// Length of the longest run of set items.
    fn longest_run(&self) -> u64 {
        let (mut longest, mut at) = (0, self.next_one(0));
        while at < self.len {
            let run = self.ones_at(at, u64::MAX);
            longest = longest.max(run);
            at = self.next_one(at + run);
        }
        longest
    }
}

/// Free-space map over the allocation units of a disk whose track
/// boundaries it knows.
#[derive(Debug, Clone)]
pub struct TraxtentAllocator {
    boundaries: TrackBoundaries,
    /// Sectors per allocation unit, `1 << shift`. The track walk turns
    /// sectors into units with these two alone: dividing, or shifting to
    /// make the unit, measured slower on `ffs`'s Postmark walk.
    unit: u64,
    shift: u32,
    /// Allocation units: the whole units that fit in the capacity.
    units: u64,
    /// Bit `u` set → unit `u` is free.
    free: Bitmap,
    /// Units allocated forever because they span a track boundary.
    excluded: Bitmap,
    free_count: u64,
    /// The first free unit (`units` when none is): no placement search
    /// needs to look below it. `take` advances it, `free` lowers it.
    low: u64,
    /// Per-track room index, one bit a track, for the track walk to jump
    /// between. A clear bit in `room` proves that the track holds no free
    /// unit; in `pair_room`, no free pair and no free last unit. A set bit
    /// promises nothing: both start all ones, `take` leaves them be, a walk
    /// that finds too little on a track clears what that proves (`prune`),
    /// and `free` sets both bits of every track it touches.
    room: Bitmap,
    pair_room: Bitmap,
}

impl TraxtentAllocator {
    /// A sector-granular allocator over the table's whole LBN space, every
    /// sector free.
    pub fn new(boundaries: TrackBoundaries) -> Self {
        let capacity = boundaries.capacity();
        Self::in_units(boundaries, 1, capacity)
    }

    /// An allocator over the `capacity / unit` whole units of `unit`
    /// sectors that start the LBN space, every unit free.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is not a power of two (the track walk shifts where
    /// it would divide), or if no whole unit fits in `capacity`: an empty
    /// map has no first free unit to keep.
    pub fn in_units(boundaries: TrackBoundaries, unit: u64, capacity: u64) -> Self {
        assert!(
            unit.is_power_of_two(),
            "a {unit}-sector unit is no power of two"
        );
        assert!(
            capacity >= unit,
            "no whole {unit}-sector unit in {capacity} sectors"
        );
        let shift = unit.trailing_zeros();
        let units = capacity >> shift;
        let room = Bitmap::ones(boundaries.num_tracks() as u64);
        TraxtentAllocator {
            boundaries,
            unit,
            shift,
            units,
            free: Bitmap::ones(units),
            excluded: Bitmap::zeros(units),
            free_count: units,
            low: 0,
            pair_room: room.clone(),
            room,
        }
    }

    /// Excludes every unit that starts on a track and runs past its end:
    /// the traxtent file system treats such a unit as allocated forever, so
    /// no allocation spans a boundary. The only candidate per track is the
    /// unit holding the track's last sector; with one-sector units there is
    /// none. Call once, on a fresh map.
    pub fn exclude_straddlers(&mut self) {
        for track in self.boundaries.iter() {
            let u = (track.end() - 1) >> self.shift;
            let first = u << self.shift;
            if u < self.units && first >= track.start && first + self.unit > track.end() {
                self.excluded.set(u);
                self.free.clear(u);
                self.free_count -= 1;
            }
        }
        self.low = self.free.next_one(0);
    }

    /// The boundary table in use.
    pub fn boundaries(&self) -> &TrackBoundaries {
        &self.boundaries
    }

    /// Allocation units in the map.
    pub fn units(&self) -> u64 {
        self.units
    }

    /// Free units remaining.
    pub fn free_units(&self) -> u64 {
        self.free_count
    }

    /// Whether unit `u` is free.
    #[inline]
    pub fn is_free(&self, u: u64) -> bool {
        self.free.get(u)
    }

    /// Whether unit `u` is excluded.
    pub fn is_excluded(&self, u: u64) -> bool {
        self.excluded.get(u)
    }

    /// Fraction of all units lost to exclusion.
    pub fn excluded_fraction(&self) -> f64 {
        self.excluded.count_ones() as f64 / self.units as f64
    }

    /// Free-space fragmentation in `[0, 1]`: `1 − longest free run / free
    /// units`. One contiguous free run scores 0; free space scattered in
    /// many small runs approaches 1. Returns 0 on a full map.
    pub fn fragmentation(&self) -> f64 {
        if self.free_count == 0 {
            return 0.0;
        }
        1.0 - self.free.longest_run() as f64 / self.free_count as f64
    }

    /// Marks unit `u` allocated.
    ///
    /// # Panics
    ///
    /// Panics if the unit is not free.
    #[inline]
    pub fn take(&mut self, u: u64) {
        assert!(self.free.get(u), "unit {u} is not free");
        self.free.clear(u);
        self.free_count -= 1;
        if u == self.low {
            self.low = self.free.next_one(u + 1);
        }
    }

    /// The unit closest to `near` that starts `want` free units — the upper
    /// one at equal distance — no further than `radius` units away.
    pub fn closest_free_run(&self, near: u64, want: u64, radius: u64) -> Option<u64> {
        let dist = |u: u64| u.abs_diff(near);
        let nearer = |up: Option<u64>, down: Option<u64>| {
            [up, down].into_iter().flatten().min_by_key(|&u| dist(u))
        };
        let above = |u: u64| Some(self.free.next_one(u)).filter(|&u| u < self.units);
        // The closest free unit on each side; nothing below `low` is free.
        let mut up = above(near.max(self.low));
        let mut down = self.free.prev_one(near);
        while let Some(u) = nearer(up, down).filter(|&u| dist(u) <= radius) {
            let run = self.free.ones_at(u, want);
            if run >= want {
                return Some(u);
            }
            if down == Some(u) {
                down = u.checked_sub(1).and_then(|u| self.free.prev_one(u));
            }
            if up == Some(u) {
                // The rest of this run is shorter still.
                up = above(u + run);
            }
        }
        None
    }

    /// The first free unit of the closest traxtent that starts `want` free
    /// units, or a shorter free run reaching the traxtent's last unit,
    /// walking tracks outward from the one holding unit `near`.
    /// Takes `&mut self` because a track that cannot answer is remembered.
    pub fn closest_traxtent_run(&mut self, near: u64, want: u64) -> Option<u64> {
        self.walk(near, want > 1, |a, track| {
            let t = a.traxtent(track);
            let found = t.and_then(|t| a.run_on(t, want));
            if found.is_none() {
                // A track without a whole unit has room for nothing.
                a.prune(track, if t.is_some() { want } else { 0 });
            }
            found
        })
    }

    /// Allocates the closest traxtent whose units are all free, walking
    /// tracks outward from the one holding unit `near`. Returns the
    /// units taken, or `None` if no free traxtent remains.
    pub fn alloc_traxtent(&mut self, near: u64) -> Option<Extent> {
        let whole = self.walk(near, false, |a, track| {
            a.traxtent(track)
                .filter(|t| a.free.ones_at(t.start, t.len) == t.len)
        })?;
        self.take_extent(whole);
        Some(whole)
    }

    /// Allocates the `len` contiguous free units closest to `near`,
    /// ignoring track boundaries (the track-unaware policy). Returns `None`
    /// when no free run is that long.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn alloc_near(&mut self, len: u64, near: u64) -> Option<Extent> {
        assert!(len > 0, "allocation of zero units");
        let first = self.closest_free_run(near, len, u64::MAX)?;
        let run = Extent::new(first, len);
        self.take_extent(run);
        Some(run)
    }

    /// Frees an extent of units and re-arms the room bits of every track
    /// it touches, with one boundary lookup at each end.
    ///
    /// # Panics
    ///
    /// Panics if any unit of it is free, excluded or past the map.
    pub fn free(&mut self, ext: Extent) {
        if ext.len == 0 {
            return;
        }
        for u in ext.start..ext.end() {
            assert!(!self.excluded.get(u), "excluded unit {u} cannot be freed");
            assert!(!self.free.get(u), "double free of unit {u}");
            self.free.set(u);
        }
        self.free_count += ext.len;
        self.low = self.low.min(ext.start);
        self.rearm(ext.start, ext.end());
    }

    fn take_extent(&mut self, ext: Extent) {
        for u in ext.start..ext.end() {
            self.take(u);
        }
    }

    /// Track `track`'s traxtent: its whole units inside the map, if any.
    fn traxtent(&self, track: usize) -> Option<Extent> {
        let t = self.boundaries.track_extent(track);
        let first = (t.start + self.unit - 1) >> self.shift;
        let map = Extent {
            start: 0,
            len: self.units,
        };
        Extent::from_bounds(first, t.end() >> self.shift)?.intersect(&map)
    }

    /// The track holding unit `u`'s first sector, or the table's last
    /// track when that sector lies past the table.
    fn track_of(&self, u: u64) -> usize {
        let last = self.boundaries.capacity() - 1;
        let lbn = if u > last >> self.shift {
            last
        } else {
            u << self.shift
        };
        self.boundaries.track_index(lbn)
    }

    /// Sets both room bits of every track holding one of units `first..end`
    /// (`first < end`): a boundary lookup at each end, not one a unit.
    fn rearm(&mut self, first: u64, end: u64) {
        for track in self.track_of(first)..=self.track_of(end - 1) {
            self.room.set(track as u64);
            self.pair_room.set(track as u64);
        }
    }

    /// Clears what a failed search for `want` free units on `track`
    /// proves. Finding no unit at all (`want` ≤ 1) proves no room; finding
    /// no pair and no run to the track's last unit (`want` 2) proves no
    /// pair room; a failed longer run proves neither, since its track may
    /// still hold a pair.
    fn prune(&mut self, track: usize, want: u64) {
        match want {
            0 | 1 => {
                self.room.clear(track as u64);
                self.pair_room.clear(track as u64);
            }
            2 => self.pair_room.clear(track as u64),
            _ => {}
        }
    }

    /// The index a walk follows: `pair_room` for runs, `room` for units.
    fn index(&self, pairs: bool) -> &Bitmap {
        if pairs {
            &self.pair_room
        } else {
            &self.room
        }
    }

    /// The first answer `visit` gives over the tracks outward from the one
    /// holding unit `near`, the lower first at equal distance, one side
    /// alone once the other has run out, and none below the first free
    /// unit's track (a track that ends at or before that unit has nothing
    /// free). Only tracks whose bit is set in `room`, or in `pair_room`
    /// when `pairs`, are visited: every other one is known to hold no
    /// answer, and jumping over it changes nothing but the work.
    fn walk<T>(
        &mut self,
        near: u64,
        pairs: bool,
        mut visit: impl FnMut(&mut Self, usize) -> Option<T>,
    ) -> Option<T> {
        if self.low == self.units {
            return None;
        }
        let origin = self.track_of(near) as u64;
        let floor = self.track_of(self.low) as u64;
        let up_from =
            |a: &Self, t: u64| Some(a.index(pairs).next_one(t)).filter(|&t| t < a.room.len);
        let down_from = |a: &Self, t: Option<u64>| {
            t.and_then(|t| a.index(pairs).prev_one(t))
                .filter(|&t| t >= floor)
        };
        let mut up = up_from(self, origin.max(floor));
        let mut down = down_from(self, origin.checked_sub(1));
        loop {
            let go_up = match (up, down) {
                (Some(u), Some(d)) => u - origin < origin - d,
                (up, _) => up.is_some(),
            };
            let track = if go_up { up } else { down }?;
            if let Some(found) = visit(self, track as usize) {
                return Some(found);
            }
            if go_up {
                up = up_from(self, track + 1);
            } else {
                down = down_from(self, track.checked_sub(1));
            }
        }
    }

    /// The first free unit of traxtent `t` that starts `want` free units,
    /// or a shorter free run reaching the traxtent's end.
    fn run_on(&self, t: Extent, want: u64) -> Option<u64> {
        let (first, end, width) = (t.start, t.end(), t.len);
        if width <= 64 {
            let bits = self.free.window(first, width);
            if bits == 0 {
                return None;
            }
            if bits >> (width - 1) == 0 {
                // The last unit is taken, so no run leaves the track or
                // reaches its end: the answer is in these bits. Each
                // `starts & starts >> 1` keeps the bits that start a run
                // one unit longer.
                let mut starts = bits;
                for _ in 1..want {
                    starts &= starts >> 1;
                    if starts == 0 {
                        return None;
                    }
                }
                return Some(first + u64::from(starts.trailing_zeros()));
            }
        }
        let mut u = self.free.next_one(first);
        while u < end {
            let run = self.free.ones_at(u, want);
            if run >= want || u + run == end {
                return Some(u);
            }
            u = self.free.next_one(u + run);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boundaries() -> TrackBoundaries {
        TrackBoundaries::uniform(10, 100)
    }

    /// The tracks a walk from unit `near` visits when nothing answers.
    fn walked(a: &mut TraxtentAllocator, near: u64) -> Vec<usize> {
        let mut seen = Vec::new();
        a.walk(near, false, |_, track| {
            seen.push(track);
            None::<()>
        });
        seen
    }

    #[test]
    fn ring_visits_everything_once_starting_near_origin() {
        let mut a = TraxtentAllocator::new(TrackBoundaries::uniform(6, 10));
        assert_eq!(walked(&mut a, 35), [3, 2, 4, 1, 5, 0]);
        // Nothing below the first free unit's track.
        for u in 0..25 {
            a.take(u);
        }
        assert_eq!(walked(&mut a, 5), [2, 3, 4, 5]);
    }

    /// Postmark's walk: 60 tracks full but for one free unit each, and a
    /// two-unit run wanted from the first. The first query passes the 60
    /// and clears their pair bits, so the next jumps straight to the
    /// answer; a release re-arms its track for the query after it.
    #[test]
    fn a_passed_track_is_not_walked_again_until_a_release() {
        let mut a = TraxtentAllocator::in_units(TrackBoundaries::uniform(100, 320), 16, 32_000);
        a.exclude_straddlers();
        for u in (0..60 * 20).filter(|u| u % 20 != 5) {
            a.take(u);
        }
        assert_eq!(a.closest_traxtent_run(0, 2), Some(1_200));
        assert!((0..60).all(|t| !a.pair_room.get(t) && a.room.get(t)));
        assert_eq!(
            a.pair_room.next_one(0),
            60,
            "the answer is the walk's first track"
        );
        assert_eq!(a.closest_traxtent_run(0, 2), Some(1_200));
        a.free(Extent::new(146, 1));
        assert!(a.pair_room.get(7));
        assert_eq!(a.closest_traxtent_run(0, 2), Some(145));
        // A single unit is still found where the pairs were not.
        assert_eq!(a.closest_traxtent_run(0, 1), Some(5));
    }

    /// A walk never examines a track below the first free unit's, so it
    /// never clears one's bits, though they are stale.
    #[test]
    fn a_walk_starts_at_the_first_free_units_track() {
        let mut a = TraxtentAllocator::new(TrackBoundaries::uniform(10, 10));
        for u in 0..50 {
            a.take(u);
        }
        assert_eq!(a.closest_traxtent_run(25, 1), Some(50));
        assert!((0..5).all(|t| a.room.get(t) && a.pair_room.get(t)));
    }

    #[test]
    fn alloc_traxtent_prefers_nearby_track() {
        let mut a = TraxtentAllocator::new(boundaries());
        let e = a.alloc_traxtent(350).unwrap();
        assert_eq!(e, Extent::new(300, 100));
        // That track is now gone; the next closest wins, the lower first.
        assert_eq!(a.alloc_traxtent(350), Some(Extent::new(200, 100)));
        assert_eq!(a.alloc_traxtent(350), Some(Extent::new(400, 100)));
    }

    #[test]
    fn alloc_traxtent_exhausts() {
        let tb = TrackBoundaries::uniform(2, 10);
        let mut a = TraxtentAllocator::new(tb);
        assert!(a.alloc_traxtent(0).is_some());
        assert!(a.alloc_traxtent(0).is_some());
        assert!(a.alloc_traxtent(0).is_none());
        assert_eq!(a.free_units(), 0);
    }

    #[test]
    fn alloc_near_can_cross_boundaries() {
        let mut a = TraxtentAllocator::new(boundaries());
        let e = a.alloc_near(150, 80).unwrap();
        assert_eq!(e, Extent::new(80, 150));
        assert!(!a.is_free(80) && !a.is_free(229));
        assert!((0..80).all(|u| a.is_free(u)));
        assert!(a.is_free(230));
    }

    #[test]
    fn alloc_near_finds_earlier_run_when_later_absent() {
        let tb = TrackBoundaries::uniform(4, 100);
        let mut a = TraxtentAllocator::new(tb);
        let all = a.alloc_near(400, 0).unwrap();
        a.free(Extent::new(0, 50));
        assert_eq!(a.alloc_near(51, 399), None);
        // The closest position that fits, not the run's start.
        assert_eq!(a.alloc_near(30, 399), Some(Extent::new(20, 30)));
        assert_eq!(all, Extent::new(0, 400));
    }

    #[test]
    fn free_coalesces() {
        let mut a = TraxtentAllocator::new(boundaries());
        let e1 = a.alloc_near(100, 0).unwrap();
        let e2 = a.alloc_near(100, 100).unwrap();
        assert_eq!(a.fragmentation(), 0.0, "one free run");
        a.free(e1);
        assert!(a.fragmentation() > 0.0, "two runs with a hole between");
        a.free(e2);
        assert_eq!(a.fragmentation(), 0.0, "freed runs coalesce");
        assert_eq!(a.free_units(), 1000);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = TraxtentAllocator::new(boundaries());
        a.free(Extent::new(0, 10));
    }

    #[test]
    fn accounting_is_conserved() {
        let mut a = TraxtentAllocator::new(boundaries());
        let total = a.free_units();
        let mut held = Vec::new();
        for i in 0..8 {
            held.extend(a.alloc_near(37, i * 117));
            held.extend(a.alloc_traxtent(i * 117));
        }
        let held_total: u64 = held.iter().map(|e| e.len).sum();
        assert_eq!(a.free_units() + held_total, total);
        for e in held {
            a.free(e);
        }
        assert_eq!(a.free_units(), total);
        assert_eq!(a.fragmentation(), 0.0);
    }
}
