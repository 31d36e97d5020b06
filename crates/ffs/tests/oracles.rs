//! Slow oracles for the file system's fast structures: the buffer cache's
//! slab and direct block → slot table against a hash map with a
//! recency-stamp index, the allocator's word-at-a-time bitmap searches and
//! low-water mark against a byte map scanned from block 0 every time, and
//! the per-track `mkfs` sweep against the per-block definition of an
//! excluded block. Each oracle is the implementation the fast one
//! replaced, kept here because it is obviously right and nowhere else
//! because it is slow. Run with `-- --nocapture`, the first two print how
//! often each branch of the fast code was taken, and fail if one was taken
//! fewer than 16 times.

use ffs::cache::BufferCache;
use ffs::layout::{AllocStats, BLOCKS_PER_GROUP};
use ffs::{Layout, Personality, BLOCK_SECTORS};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};
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
/// where free space starts, over byte maps built and read one block at a
/// time. `seen` records, from those maps, which branch of the fast layout
/// each track of a walk and each fallback search would take.
struct ScanLayout {
    personality: Personality,
    boundaries: TrackBoundaries,
    blocks: u64,
    free: Vec<bool>,
    excluded: Vec<bool>,
    stats: AllocStats,
    trusted: Vec<bool>,
    seen: Tally,
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
            seen: Tally::default(),
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

    fn closest_free_run(&mut self, near: u64, run_hint: u64) -> Option<u64> {
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
                let run = self.run_len_at(b, want);
                if run >= want {
                    self.seen.note_if(b < near, "free_run_below_near");
                    self.seen.note_if(b > near, "free_run_above_near");
                    self.seen
                        .note_if(b / 64 != (b + run - 1) / 64, "run_crosses_a_word");
                    return Some(b);
                }
            }
            if dist > 8 * BLOCKS_PER_GROUP {
                if let Some(s) = best_single {
                    self.seen.note("radius_gave_the_single");
                    return Some(s);
                }
            }
        }
        self.seen.note_if(best_single.is_some(), "no_run_anywhere");
        best_single
    }

    fn run_len_at(&mut self, b: u64, cap: u64) -> u64 {
        let mut n = 0;
        while n < cap && b + n < self.blocks && self.free[(b + n) as usize] {
            n += 1;
        }
        let at_the_end = n < cap && b + n == self.blocks;
        self.seen.note_if(
            at_the_end && self.blocks.is_multiple_of(64),
            "run_ends_the_last_word",
        );
        self.seen.note_if(
            at_the_end && !self.blocks.is_multiple_of(64),
            "run_ends_inside_the_last_word",
        );
        n
    }

    fn closest_traxtent_run(&mut self, near: u64, run_hint: u64) -> Option<u64> {
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
                self.seen.note("untrusted_track");
                continue;
            }
            let t = self.boundaries.track_extent(idx);
            let first_block = t.start.div_ceil(BLOCK_SECTORS);
            let last_block = t.end() / BLOCK_SECTORS; // exclusive
            let last_taken = self.classify(first_block, last_block, want);
            let mut b = first_block;
            while b < last_block.min(self.blocks) {
                if self.free[b as usize] {
                    let run = self.run_len_at(b, want);
                    if run >= want || (b + run == last_block && run > 0) {
                        self.seen.note_if(idx < origin, "track_below_the_origin");
                        self.seen.note_if(
                            origin + origin.abs_diff(idx) >= n,
                            "track_below_once_the_top_ran_out",
                        );
                        self.seen.note_if(
                            origin.abs_diff(idx) > origin,
                            "track_above_once_the_bottom_ran_out",
                        );
                        self.seen.note_if(last_taken, "run_inside_last_taken");
                        self.seen.note_if(run < want, "tail_run");
                        self.seen
                            .note_if(run >= want && b + run > last_block, "run_leaves_the_track");
                        return Some(b);
                    }
                    b += run.max(1);
                } else {
                    b += 1;
                }
            }
            self.seen.note_if(last_taken, "skipped_no_run_last_taken");
        }
        None
    }

    /// Notes which test the fast layout would put the track's whole blocks
    /// `first..last` to; true when it would decide the track from its bits
    /// alone because the last of them is taken.
    fn classify(&mut self, first: u64, last: u64, want: u64) -> bool {
        let end = last.min(self.blocks);
        if first >= end {
            self.seen.note("track_without_a_whole_block");
            return false;
        }
        self.seen.note_if(
            (65..70).contains(&(end - first)),
            "track_just_wider_than_a_word",
        );
        self.seen.note_if(
            (60..65).contains(&(end - first)),
            "track_a_word_wide_or_just_under",
        );
        if end - first > 64 {
            self.seen.note("track_wider_than_a_word");
            return false;
        }
        self.seen
            .note_if(first % 64 + (end - first) > 64, "track_straddles_a_word");
        if !(first..end).any(|b| self.free[b as usize]) {
            self.seen.note("track_skipped_no_free_bit");
            return false;
        }
        self.seen.note_if(want > 64, "want_above_64");
        let last_taken = !self.free[end as usize - 1];
        self.seen
            .note_if(!last_taken, "last_block_free_scalar_scan");
        last_taken
    }
}

/// A boundary table of at least one block group from `(track length,
/// tracks)` zones; the last zone is stretched to reach the size.
fn table(zones: &[(u64, u64)]) -> TrackBoundaries {
    sized_table(zones, BLOCKS_PER_GROUP + 64, false)
}

/// The same, of at least `blocks` blocks; `whole_words` adds a last track
/// that makes the block count a multiple of 64.
fn sized_table(zones: &[(u64, u64)], blocks: u64, whole_words: bool) -> TrackBoundaries {
    let mut lengths: Vec<u64> = zones
        .iter()
        .flat_map(|&(len, tracks)| std::iter::repeat_n(len, tracks as usize))
        .collect();
    let last = *lengths.last().expect("at least one zone");
    let mut capacity: u64 = lengths.iter().sum();
    while capacity < blocks * BLOCK_SECTORS {
        lengths.push(last);
        capacity += last;
    }
    if whole_words && !capacity.is_multiple_of(64 * BLOCK_SECTORS) {
        lengths.push(64 * BLOCK_SECTORS - capacity % (64 * BLOCK_SECTORS));
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
    let excluded = slow.excluded.iter().filter(|&&e| e).count();
    assert_eq!(
        fast.excluded_fraction(),
        excluded as f64 / slow.blocks as f64
    );
    let longest = slow.free.split(|&f| !f).map(<[bool]>::len).max();
    let fragmentation = match free {
        0 => 0.0,
        _ => 1.0 - longest.expect("one run at least") as f64 / free as f64,
    };
    assert_eq!(fast.fragmentation(), fragmentation);
}

/// The 24 block numbers a cache case works on, in a table of `blocks`: six
/// spread over the table from block 0, then its last 18, so that a
/// sequential writer ends on the table's last block and `dirty_run` looks
/// one past it.
fn palette(blocks: u64) -> Vec<u64> {
    let stride = (blocks - 18) / 6;
    (0..6)
        .map(|i| i * stride)
        .chain(blocks - 18..blocks)
        .collect()
}

/// The cache and its model side by side, with what the tally needs to
/// tell a reused slot by: the blocks dropped by `discard` and by `clear`
/// that have not been cached since.
struct Caches {
    fast: BufferCache,
    slow: StampCache,
    discarded: HashSet<u64>,
    cleared: HashSet<u64>,
}

impl Caches {
    fn insert(&mut self, block: u64, dirty: bool, tally: &mut Tally) {
        let slow = &mut self.slow;
        let evicts = !slow.map.contains_key(&block) && slow.map.len() == slow.capacity;
        tally.note_if(evicts, "evict_reuses_slot");
        tally.note_if(self.discarded.remove(&block), "discard_then_reinsert");
        tally.note_if(self.cleared.remove(&block), "clear_then_reuse");
        let victim = if dirty {
            self.fast.insert_dirty(block)
        } else {
            self.fast.insert(block)
        };
        assert_eq!(Vec::from_iter(victim), slow.insert(block, dirty));
    }
}

/// Same answers, same victims in the same order, same dirty set, same
/// statistics — over every operation the file system performs, including
/// the remembered dirty run, on block numbers anywhere in the table and
/// questions about block numbers past it.
#[test]
fn cache_matches_the_stamp_model() {
    let name = "cache_matches_the_stamp_model";
    let mut tally = Tally::default();
    let sizes = prop_oneof![Just(24u64), 24u64..100, 1_000u64..2_000_000];
    let ops = prop::collection::vec((0u8..17, 0usize..24), 1..400);
    for_cases(
        name,
        64,
        (1usize..12, sizes, ops),
        |(capacity, blocks, ops)| {
            let palette = palette(blocks);
            let past = [blocks, blocks + 1, blocks + 64, u64::MAX];
            let mut c = Caches {
                fast: BufferCache::new(capacity, blocks as usize),
                slow: StampCache::new(capacity),
                discarded: HashSet::new(),
                cleared: HashSet::new(),
            };
            let mut cursor = 0;
            for (op, pick) in ops {
                let block = palette[pick];
                match op {
                    0..=3 => assert_eq!(c.fast.contains(block), c.slow.contains(block)),
                    4..=6 => c.insert(block, false, &mut tally),
                    7..=11 => {
                        // Mostly a sequential writer, which is the case the
                        // remembered run serves; sometimes a jump elsewhere.
                        let pick = if op < 10 { cursor } else { pick };
                        if op != 11 {
                            cursor = (pick + 1) % 24;
                        }
                        let block = palette[pick];
                        c.insert(block, true, &mut tally);
                        // The file system asks for the run after every dirtying;
                        // the cache must not rely on that.
                        if op != 11 {
                            let run = c.fast.dirty_run(block);
                            assert_eq!(run, c.slow.dirty_run(block));
                            tally.note_if(run.1 == blocks, "dirty_run_ends_the_table");
                        }
                    }
                    12 | 13 => {
                        c.fast.mark_clean(block);
                        c.slow.mark_clean(block);
                    }
                    14 => {
                        if c.slow.map.contains_key(&block) {
                            c.discarded.insert(block);
                        }
                        c.fast.discard(block);
                        c.slow.discard(block);
                    }
                    15 if pick == 0 => {
                        c.cleared.extend(c.slow.map.keys());
                        c.discarded.clear();
                        c.fast.clear();
                        c.slow.clear();
                    }
                    // Every question and every no-op, about a block past the table.
                    16 => {
                        let block = past[pick % past.len()];
                        assert_eq!(c.fast.contains(block), c.slow.contains(block));
                        c.fast.mark_clean(block);
                        c.fast.discard(block);
                        tally.note("probe_past_table");
                    }
                    _ => {}
                }
                assert_eq!(c.fast.len(), c.slow.map.len());
                assert_eq!(c.fast.is_empty(), c.slow.map.is_empty());
                assert_eq!(c.fast.stats(), (c.slow.hits, c.slow.misses));
                assert_eq!(c.fast.dirty_blocks(), c.slow.dirty_blocks());
                for &b in palette.iter().chain(&past) {
                    assert_eq!(c.fast.peek(b), c.slow.map.contains_key(&b), "peek({b})");
                    assert_eq!(c.fast.is_dirty(b), c.slow.is_dirty(b), "is_dirty({b})");
                }
            }
        },
    );
    tally.require(
        name,
        &[
            "evict_reuses_slot",
            "discard_then_reinsert",
            "clear_then_reuse",
            "probe_past_table",
            "dirty_run_ends_the_table",
        ],
    );
}

/// What a layout case draws: zones of `(track length, tracks)`, the
/// personality, a trust-mask seed, the table's shape (every track a whole
/// number of blocks, so that runs leave tracks; the block count a whole
/// number of words; everything taken but 12 blocks past the prefix and the
/// table's last 12, so that the disk fills), the filled prefix with the spacing and length of
/// the holes punched in it (spacing 0 for none), and the operations.
type LayoutCase = (
    Vec<(u64, u64)>,
    u8,
    Option<u64>,
    (bool, bool, bool),
    (u64, u64, u64),
    Vec<(u8, u64, u64)>,
);

fn arb_layout_case() -> impl Strategy<Value = LayoutCase> {
    // Tracks of a few blocks, of a block or none, and of more blocks than
    // a word has bits.
    let length = prop_oneof![
        20u64..700,
        20u64..700,
        1u64..48,
        1_000u64..1_140,
        1_040u64..2_600
    ];
    let one_in_three = || prop_oneof![Just(false), Just(false), Just(true)];
    // A prefix that ends among the first tracks, or a Postmark-shaped one
    // wider than the radius `closest_free_run` gives up at.
    let prefix = prop_oneof![
        (0u64..4_000, Just(0u64), Just(1u64)),
        (0u64..4_000, 2u64..30, 1u64..4),
        (
            8 * BLOCKS_PER_GROUP + 300..9 * BLOCKS_PER_GROUP,
            2u64..30,
            Just(1u64)
        ),
    ];
    let hint = prop_oneof![Just(1u64), Just(2u64), 1u64..40, 1u64..40, 60u64..200];
    (
        prop::collection::vec((length, 1u64..40), 1..6),
        0u8..3,
        prop_oneof![Just(None), (0u64..u64::MAX).prop_map(Some)],
        (one_in_three(), one_in_three(), one_in_three()),
        prefix,
        prop::collection::vec((0u8..8, 0u64..u64::MAX, hint), 1..80),
    )
}

/// `alloc_next` places every block where the byte-map scan does, and
/// attributes it the same way, while takes and releases move the low-water
/// mark about — for all three personalities, with and without a trust
/// mask, on tracks narrower and wider than a bitmap word, from a pristine
/// disk to a full prefix with single-block holes.
#[test]
fn low_water_mark_matches_the_full_scan() {
    let name = "low_water_mark_matches_the_full_scan";
    let mut tally = Tally::default();
    for_cases(
        name,
        128,
        arb_layout_case(),
        |(mut zones, p, mask, shape, (fill, spacing, hole), ops)| {
            let (whole_blocks, whole_words, nearly_full) = shape;
            if whole_blocks {
                for (length, _) in &mut zones {
                    *length = length.next_multiple_of(BLOCK_SECTORS);
                }
            }
            let tb = sized_table(&zones, (BLOCKS_PER_GROUP + 64).max(fill + 600), whole_words);
            let (mut fast, mut slow) = layouts(personality(p), &tb, mask);
            tally.note_if(slow.blocks.is_multiple_of(64), "blocks_fill_the_last_word");
            tally.note_if(!slow.blocks.is_multiple_of(64), "blocks_end_inside_a_word");
            // Fill a prefix so the first free block is far from block 0,
            // then punch the holes a Postmark run leaves behind.
            let rest = if nearly_full {
                fill + 4..slow.blocks - 4
            } else {
                0..0
            };
            for b in (0..fill).chain(rest) {
                if slow.free[b as usize] {
                    fast.take(b);
                    slow.free[b as usize] = false;
                }
            }
            for b in (0..fill).filter(|b| spacing > 0 && b % spacing < hole) {
                if !slow.excluded[b as usize] {
                    fast.release(b);
                    slow.free[b as usize] = true;
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
                    // Allocate: a file's first block, or the one after a
                    // block near the table's end, a held block or a block
                    // of the prefix.
                    _ => {
                        let prev = match op {
                            4 => Some(slow.blocks - 2 - pick % 30),
                            5 | 6 if !held.is_empty() => Some(held[pick as usize % held.len()]),
                            7 if fill > 0 => Some(pick % fill),
                            _ => None,
                        };
                        let got = fast.alloc_next(prev, hint);
                        assert_eq!(
                            got,
                            slow.alloc_next(prev, hint),
                            "alloc_next({prev:?}, {hint})"
                        );
                        tally.note_if(got.is_none(), "disk_full");
                        held.extend(got);
                    }
                }
                assert_eq!(fast.alloc_stats(), slow.stats);
            }
            assert_same_bitmaps(&fast, &slow);
            tally.absorb(std::mem::take(&mut slow.seen));
        },
    );
    tally.require(
        name,
        &[
            "untrusted_track",
            "track_skipped_no_free_bit",
            "skipped_no_run_last_taken",
            "run_inside_last_taken",
            "last_block_free_scalar_scan",
            "run_leaves_the_track",
            "tail_run",
            "track_straddles_a_word",
            "track_wider_than_a_word",
            "want_above_64",
            "track_below_the_origin",
            "track_below_once_the_top_ran_out",
            "track_above_once_the_bottom_ran_out",
            "track_a_word_wide_or_just_under",
            "track_just_wider_than_a_word",
            "run_ends_the_last_word",
            "run_ends_inside_the_last_word",
            "free_run_below_near",
            "free_run_above_near",
            "run_crosses_a_word",
            "radius_gave_the_single",
            "disk_full",
            "blocks_fill_the_last_word",
            "blocks_end_inside_a_word",
        ],
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
