//! Slow oracles for the file system's fast structures: the buffer cache
//! against a recency-stamp model, the allocator's low-water mark against
//! the scan that starts at block 0 every time, and the per-track `mkfs`
//! sweep against the per-block definition of an excluded block. Each
//! oracle is the implementation the fast one replaced, kept here because
//! it is obviously right and nowhere else because it is slow.

use ffs::cache::BufferCache;
use ffs::layout::{AllocStats, BLOCKS_PER_GROUP};
use ffs::{Layout, Personality, BLOCK_SECTORS};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use traxtent::{ConfidentBoundaries, TrackBoundaries};

/// The buffer cache as a map plus a recency index keyed by a monotone
/// stamp: eviction takes the smallest stamp.
struct StampCache {
    capacity: usize,
    /// block → (dirty, recency stamp)
    map: HashMap<u64, (bool, u64)>,
    /// recency stamp → block (oldest first)
    lru: BTreeMap<u64, u64>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl StampCache {
    fn new(capacity: usize) -> Self {
        StampCache {
            capacity,
            map: HashMap::new(),
            lru: BTreeMap::new(),
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn contains(&mut self, block: u64) -> bool {
        if self.map.contains_key(&block) {
            self.touch(block);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    fn insert(&mut self, block: u64, dirty: bool) -> Vec<u64> {
        let evicted = if self.map.contains_key(&block) {
            Vec::new()
        } else {
            self.make_room()
        };
        self.map.entry(block).or_insert((false, 0)).0 |= dirty;
        self.touch(block);
        evicted
    }

    fn is_dirty(&self, block: u64) -> bool {
        self.map.get(&block).is_some_and(|e| e.0)
    }

    fn mark_clean(&mut self, block: u64) {
        if let Some(e) = self.map.get_mut(&block) {
            e.0 = false;
        }
    }

    fn discard(&mut self, block: u64) {
        if let Some((_, stamp)) = self.map.remove(&block) {
            self.lru.remove(&stamp);
        }
    }

    fn dirty_blocks(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .map
            .iter()
            .filter(|(_, e)| e.0)
            .map(|(&b, _)| b)
            .collect();
        v.sort_unstable();
        v
    }

    fn clear(&mut self) {
        self.map.clear();
        self.lru.clear();
    }

    /// The dirty run around `block`, one block at a time.
    fn dirty_run(&self, block: u64) -> (u64, u64) {
        let mut start = block;
        while start > 0 && self.is_dirty(start - 1) {
            start -= 1;
        }
        let mut end = block + 1;
        while self.is_dirty(end) {
            end += 1;
        }
        (start, end)
    }

    fn touch(&mut self, block: u64) {
        self.stamp += 1;
        let e = self.map.get_mut(&block).expect("touch of cached block");
        if e.1 != 0 {
            self.lru.remove(&e.1);
        }
        e.1 = self.stamp;
        self.lru.insert(self.stamp, block);
    }

    fn make_room(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        while self.map.len() >= self.capacity {
            let (&stamp, &victim) = self.lru.iter().next().expect("lru tracks every entry");
            self.lru.remove(&stamp);
            if self.map.remove(&victim).expect("victim cached").0 {
                dirty.push(victim);
            }
        }
        dirty
    }
}

/// The allocator that scans from `near` outward with nothing to tell it
/// where free space starts, over bitmaps built one block at a time.
struct ScanLayout {
    personality: Personality,
    boundaries: TrackBoundaries,
    blocks: u64,
    free: Vec<bool>,
    excluded: Vec<bool>,
    stats: AllocStats,
    trusted: Vec<bool>,
}

impl ScanLayout {
    fn build(
        personality: Personality,
        boundaries: TrackBoundaries,
        capacity_lbns: u64,
        trusted: Vec<bool>,
    ) -> Self {
        let blocks = capacity_lbns / BLOCK_SECTORS;
        let mut excluded = vec![false; blocks as usize];
        if personality == Personality::Traxtent {
            for b in 0..blocks {
                let first = b * BLOCK_SECTORS;
                let last = first + BLOCK_SECTORS - 1;
                let (_, track_end) = boundaries.track_bounds(first);
                let track_trusted = trusted.is_empty() || trusted[boundaries.track_index(first)];
                excluded[b as usize] = last >= track_end && track_trusted;
            }
        }
        ScanLayout {
            personality,
            boundaries,
            blocks,
            free: excluded.iter().map(|&e| !e).collect(),
            excluded,
            stats: AllocStats::default(),
            trusted,
        }
    }

    fn alloc_next(&mut self, prev: Option<u64>, run_hint: u64) -> Option<u64> {
        if let Some(p) = prev {
            let preferred = p + 1;
            if preferred < self.blocks && self.free[preferred as usize] {
                self.stats.sequential += 1;
                self.free[preferred as usize] = false;
                return Some(preferred);
            }
            let b = self.place_near(preferred.min(self.blocks - 1), run_hint)?;
            self.free[b as usize] = false;
            return Some(b);
        }
        let b = self.place_near(0, run_hint)?;
        self.free[b as usize] = false;
        Some(b)
    }

    fn place_near(&mut self, near: u64, run_hint: u64) -> Option<u64> {
        if self.personality == Personality::Traxtent {
            if let Some(b) = self.closest_traxtent_run(near, run_hint) {
                self.stats.track_aligned += 1;
                return Some(b);
            }
        }
        let b = self.closest_free_run(near, run_hint)?;
        self.stats.fallback += 1;
        Some(b)
    }

    fn closest_free_run(&self, near: u64, run_hint: u64) -> Option<u64> {
        let want = run_hint.max(1);
        let mut best_single: Option<u64> = None;
        for dist in 0..self.blocks {
            for b in [near.checked_add(dist), near.checked_sub(dist)] {
                let Some(b) = b else { continue };
                if b >= self.blocks || !self.free[b as usize] {
                    continue;
                }
                if best_single.is_none() {
                    best_single = Some(b);
                }
                if self.run_len_at(b, want) >= want {
                    return Some(b);
                }
            }
            if dist > 8 * BLOCKS_PER_GROUP {
                if let Some(s) = best_single {
                    return Some(s);
                }
            }
        }
        best_single
    }

    fn run_len_at(&self, b: u64, cap: u64) -> u64 {
        let mut n = 0;
        while n < cap && b + n < self.blocks && self.free[(b + n) as usize] {
            n += 1;
        }
        n
    }

    fn closest_traxtent_run(&self, near: u64, run_hint: u64) -> Option<u64> {
        let want = run_hint.max(1);
        let near_lbn = (near * BLOCK_SECTORS).min(self.boundaries.capacity() - 1);
        let origin = self.boundaries.track_index(near_lbn);
        let n = self.boundaries.num_tracks();
        for k in 0..2 * n {
            let step = k / 2 + k % 2;
            let idx = if k % 2 == 0 {
                origin.checked_add(step)
            } else {
                origin.checked_sub(step)
            };
            let Some(idx) = idx else { continue };
            if idx >= n {
                continue;
            }
            if !self.trusted.is_empty() && !self.trusted[idx] {
                continue;
            }
            let t = self.boundaries.track_extent(idx);
            let first_block = t.start.div_ceil(BLOCK_SECTORS);
            let last_block = t.end() / BLOCK_SECTORS; // exclusive
            let mut b = first_block;
            while b < last_block.min(self.blocks) {
                if self.free[b as usize] {
                    let run = self.run_len_at(b, want);
                    if run >= want || (b + run == last_block && run > 0) {
                        return Some(b);
                    }
                    b += run.max(1);
                } else {
                    b += 1;
                }
            }
        }
        None
    }
}

/// A boundary table of at least one block group from `(track length,
/// tracks)` zones; the last zone is stretched to reach the size.
fn table(zones: &[(u64, u64)]) -> TrackBoundaries {
    let mut lengths: Vec<u64> = zones
        .iter()
        .flat_map(|&(len, tracks)| std::iter::repeat_n(len, tracks as usize))
        .collect();
    let last = *lengths.last().expect("at least one zone");
    let mut capacity: u64 = lengths.iter().sum();
    while capacity < (BLOCKS_PER_GROUP + 64) * BLOCK_SECTORS {
        lengths.push(last);
        capacity += last;
    }
    TrackBoundaries::from_track_lengths(lengths).expect("positive lengths")
}

/// A per-track trust mask from `seed` (roughly one track in five
/// untrusted), as certain-or-zero confidences.
fn confidences(tb: &TrackBoundaries, seed: u64) -> ConfidentBoundaries {
    let conf = (0..tb.num_tracks() as u64)
        .map(|i| f64::from(!traxtent::hash::mix64(seed ^ i).is_multiple_of(5)))
        .collect();
    ConfidentBoundaries::new(tb.clone(), conf).expect("one confidence per track")
}

fn personality(p: u8) -> Personality {
    [
        Personality::Unmodified,
        Personality::FastStart,
        Personality::Traxtent,
    ][p as usize]
}

/// Both layouts over one table; `mask` picks the trust-mask constructor.
fn layouts(p: Personality, tb: &TrackBoundaries, mask: Option<u64>) -> (Layout, ScanLayout) {
    match mask {
        None => (
            Layout::format(p, tb.clone(), tb.capacity()),
            ScanLayout::build(p, tb.clone(), tb.capacity(), Vec::new()),
        ),
        Some(seed) => {
            let cb = confidences(tb, seed);
            let trusted = (0..tb.num_tracks())
                .map(|i| cb.is_confident(i, 0.5))
                .collect();
            (
                Layout::format_confident(p, &cb, 0.5, tb.capacity()),
                ScanLayout::build(p, tb.clone(), tb.capacity(), trusted),
            )
        }
    }
}

fn assert_same_bitmaps(fast: &Layout, slow: &ScanLayout) {
    assert_eq!(fast.blocks(), slow.blocks);
    for b in 0..slow.blocks {
        assert_eq!(
            fast.is_excluded(b),
            slow.excluded[b as usize],
            "excluded[{b}]"
        );
        assert_eq!(fast.is_free(b), slow.free[b as usize], "free[{b}]");
    }
    let free = slow.free.iter().filter(|&&f| f).count() as u64;
    assert_eq!(fast.free_blocks(), free);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same answers, same victims in the same order, same dirty set, same
    /// statistics — over every operation the file system performs,
    /// including the remembered dirty run.
    #[test]
    fn cache_matches_the_stamp_model(
        capacity in 1usize..12,
        ops in prop::collection::vec((0u8..16, 0u64..24), 1..400),
    ) {
        let mut fast = BufferCache::new(capacity);
        let mut slow = StampCache::new(capacity);
        let mut cursor = 0;
        for (op, block) in ops {
            match op {
                0..=3 => prop_assert_eq!(fast.contains(block), slow.contains(block)),
                4..=6 => {
                    let victims: Vec<u64> = fast.insert(block).into_iter().collect();
                    prop_assert_eq!(victims, slow.insert(block, false));
                }
                7..=11 => {
                    // Mostly a sequential writer, which is the case the
                    // remembered run serves; sometimes a jump elsewhere.
                    let block = if op < 10 { cursor } else { block };
                    if op != 11 {
                        cursor = (block + 1) % 24;
                    }
                    let victims: Vec<u64> = fast.insert_dirty(block).into_iter().collect();
                    prop_assert_eq!(victims, slow.insert(block, true));
                    // The file system asks for the run after every dirtying;
                    // the cache must not rely on that.
                    if op != 11 {
                        prop_assert_eq!(fast.dirty_run(block), slow.dirty_run(block));
                    }
                }
                12 | 13 => {
                    fast.mark_clean(block);
                    slow.mark_clean(block);
                }
                14 => {
                    fast.discard(block);
                    slow.discard(block);
                }
                _ if block == 0 => {
                    fast.clear();
                    slow.clear();
                }
                _ => {}
            }
            prop_assert_eq!(fast.len(), slow.map.len());
            prop_assert_eq!(fast.is_empty(), slow.map.is_empty());
            prop_assert_eq!(fast.stats(), (slow.hits, slow.misses));
            prop_assert_eq!(fast.dirty_blocks(), slow.dirty_blocks());
            for b in 0..24 {
                prop_assert_eq!(fast.peek(b), slow.map.contains_key(&b));
                prop_assert_eq!(fast.is_dirty(b), slow.is_dirty(b));
            }
        }
    }

    /// `alloc_next` places every block where the unaccelerated scan does,
    /// and attributes it the same way, while takes and releases move the
    /// low-water mark about — for all three personalities, with and
    /// without a trust mask.
    #[test]
    fn low_water_mark_matches_the_full_scan(
        zones in prop::collection::vec((20u64..700, 1u64..40), 1..6),
        p in 0u8..3,
        mask in prop_oneof![Just(None), (0u64..u64::MAX).prop_map(Some)],
        fill in 0u64..4000,
        ops in prop::collection::vec((0u8..8, 0u64..u64::MAX, 1u64..40), 1..80),
    ) {
        let tb = table(&zones);
        let (mut fast, mut slow) = layouts(personality(p), &tb, mask);
        // Fill a prefix so the first free block is far from block 0.
        for b in 0..fill {
            if slow.free[b as usize] {
                fast.take(b);
                slow.free[b as usize] = false;
            }
        }
        let mut held: Vec<u64> = Vec::new();
        for (op, pick, hint) in ops {
            match op {
                // Take some free block out from under the allocator.
                0 => {
                    let b = pick % slow.blocks;
                    if slow.free[b as usize] {
                        fast.take(b);
                        slow.free[b as usize] = false;
                        held.push(b);
                    }
                }
                // Release: anything held, or a block of the filled prefix.
                1 | 2 => {
                    let b = if held.is_empty() || op == 2 {
                        pick % fill.max(1)
                    } else {
                        held.swap_remove(pick as usize % held.len())
                    };
                    if !slow.free[b as usize] && !slow.excluded[b as usize] {
                        held.retain(|&h| h != b);
                        fast.release(b);
                        slow.free[b as usize] = true;
                    }
                }
                // Allocate: a file's first block, or the one after `prev`.
                _ => {
                    let prev = (op > 4 && !held.is_empty())
                        .then(|| held[pick as usize % held.len()]);
                    let got = fast.alloc_next(prev, hint);
                    prop_assert_eq!(got, slow.alloc_next(prev, hint));
                    held.extend(got);
                }
            }
            prop_assert_eq!(fast.alloc_stats(), slow.stats);
        }
        assert_same_bitmaps(&fast, &slow);
    }

    /// The per-track sweep excludes exactly the blocks the per-block
    /// definition does: uniform tables, zoned ones, tables where every
    /// track is its own zone, and tracks shorter than a block.
    #[test]
    fn one_sweep_format_matches_the_per_block_definition(
        shape in 0u8..3,
        zones in prop::collection::vec((1u64..700, 1u64..60), 1..40),
        p in 0u8..3,
        mask in prop_oneof![Just(None), (0u64..u64::MAX).prop_map(Some)],
    ) {
        let zones: Vec<(u64, u64)> = match shape {
            0 => vec![zones[0]],
            1 => zones,
            _ => zones.into_iter().map(|(len, _)| (len, 1)).collect(),
        };
        let tb = table(&zones);
        let (fast, slow) = layouts(personality(p), &tb, mask);
        assert_same_bitmaps(&fast, &slow);
    }
}
