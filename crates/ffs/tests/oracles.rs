//! Slow oracles for the file system's fast structures: the buffer cache's
//! slab and direct block → slot table against a hash map with a
//! recency-stamp index, the allocator's word-at-a-time bitmap searches and
//! low-water mark against a byte map scanned from block 0 every time, the
//! per-track `mkfs` sweep against the per-block definition of an excluded
//! block, and fsck's one diagnosis pass against the two walks it replaced.
//! Each oracle is the implementation the fast or folded one replaced, kept
//! here because it is obviously right and nowhere else because it is slow
//! or duplicated. Run with `-- --nocapture`, the tallied ones print how
//! often each branch was taken, and fail if one was taken fewer than 16
//! times.

use ffs::cache::BufferCache;
use ffs::fsck::{self, MountError};
use ffs::image::{self, decode_group, group_blocks, meta_lbn, ngroups, InodeRec, SlotState};
use ffs::layout::{AllocStats, BLOCKS_PER_GROUP};
use ffs::{FileId, FileSystem, Layout, Personality, BLOCK_SECTORS};
use proptest::prelude::*;
use sim_disk::crash::{checksum, replay, SectorImage, SECTOR_USIZE};
use sim_disk::disk::Disk;
use sim_disk::{models, SimTime};
use std::collections::{BTreeMap, HashMap, HashSet};
use traxtent::hash::splitmix64;
use traxtent::TrackBoundaries;

const MB: u64 = 1 << 20;

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
    /// The allocator's per-track room index as its walks should leave it,
    /// kept only to tally which tracks a walk passes over: `room` false
    /// where a failed search proved no free block, `pair_room` where one
    /// proved no free pair and no free last block, `rearmed` where a
    /// release has set both again since and no walk has examined the
    /// track.
    room: Vec<bool>,
    pair_room: Vec<bool>,
    rearmed: Vec<bool>,
    seen: Tally,
}

impl ScanLayout {
    fn build(personality: Personality, boundaries: TrackBoundaries, capacity_lbns: u64) -> Self {
        let blocks = capacity_lbns / BLOCK_SECTORS;
        let mut excluded = vec![false; blocks as usize];
        if personality == Personality::Traxtent {
            for b in 0..blocks {
                let first = b * BLOCK_SECTORS;
                let last = first + BLOCK_SECTORS - 1;
                let (_, track_end) = boundaries.track_bounds(first);
                excluded[b as usize] = last >= track_end;
            }
        }
        let tracks = boundaries.num_tracks();
        let room = vec![true; tracks];
        ScanLayout {
            personality,
            boundaries,
            blocks,
            free: excluded.iter().map(|&e| !e).collect(),
            excluded,
            stats: AllocStats::default(),
            pair_room: room.clone(),
            room,
            rearmed: vec![false; tracks],
            seen: Tally::default(),
        }
    }

    fn release(&mut self, b: u64) {
        self.free[b as usize] = true;
        let idx = self.boundaries.track_index(b * BLOCK_SECTORS);
        self.rearmed[idx] |= !(self.room[idx] && self.pair_room[idx]);
        self.room[idx] = true;
        self.pair_room[idx] = true;
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
        // The fast walk starts at the first free block's track.
        let floor = (self.free.iter().position(|&f| f))
            .map_or(n, |b| self.boundaries.track_index(b as u64 * BLOCK_SECTORS));
        self.walk_tracks(origin, n, floor, want)
    }

    /// The scan's walk, every track in order, noting where the
    /// fast walk's room index would have let it jump.
    fn walk_tracks(&mut self, origin: usize, n: usize, floor: usize, want: u64) -> Option<u64> {
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
            let indexed = if want > 1 {
                self.pair_room[idx]
            } else {
                self.room[idx]
            };
            let examined = idx >= floor && indexed;
            self.seen.note_if(
                want > 2 && idx >= floor && self.room[idx] && !self.pair_room[idx],
                "want_3_passes_a_track_a_pair_query_cleared",
            );
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
                        self.seen
                            .note_if(self.rearmed[idx], "passed_track_rearmed_then_taken");
                        self.rearmed[idx] = false;
                        return Some(b);
                    }
                    b += run.max(1);
                } else {
                    b += 1;
                }
            }
            self.seen.note_if(last_taken, "skipped_no_run_last_taken");
            if examined {
                // What the failure proves: a track without a whole block
                // holds nothing.
                let proved = if first_block < last_block.min(self.blocks) {
                    want
                } else {
                    1
                };
                self.room[idx] &= proved > 1;
                self.pair_room[idx] &= proved > 2;
                self.rearmed[idx] = false;
            }
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

fn personality(p: u8) -> Personality {
    [
        Personality::Unmodified,
        Personality::FastStart,
        Personality::Traxtent,
    ][p as usize]
}

/// Both layouts over one table.
fn layouts(p: Personality, tb: &TrackBoundaries) -> (Layout, ScanLayout) {
    (
        Layout::format(p, tb.clone(), tb.capacity()),
        ScanLayout::build(p, tb.clone(), tb.capacity()),
    )
}

/// Takes free block `b` on both sides the way a file takes its next
/// block: as the one after `b - 1`, or block 0 as a first block.
fn take(fast: &mut Layout, slow: &mut ScanLayout, b: u64) {
    let prev = b.checked_sub(1);
    let got = fast.alloc_next(prev, 1);
    assert_eq!(got, slow.alloc_next(prev, 1), "alloc_next({prev:?}, 1)");
    assert_eq!(got, Some(b), "block {b} is free");
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
/// personality, the table's shape (every track a whole
/// number of blocks, so that runs leave tracks; the block count a whole
/// number of words; everything taken but 12 blocks past the prefix and the
/// table's last 12, so that the disk fills), the filled prefix with the spacing and length of
/// the holes punched in it (spacing 0 for none), and the operations.
type LayoutCase = (
    Vec<(u64, u64)>,
    u8,
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
        (one_in_three(), one_in_three(), one_in_three()),
        prefix,
        prop::collection::vec((0u8..10, 0u64..u64::MAX, hint), 1..80),
    )
}

/// `alloc_next` places every block where the byte-map scan does, and
/// attributes it the same way, while takes and releases move the low-water
/// mark about — for all three personalities, on tracks narrower and wider than a bitmap word, from a pristine
/// disk to a full prefix with single-block holes.
#[test]
fn low_water_mark_matches_the_full_scan() {
    let name = "low_water_mark_matches_the_full_scan";
    let mut tally = Tally::default();
    for_cases(
        name,
        128,
        arb_layout_case(),
        |(mut zones, p, shape, (fill, spacing, hole), ops)| {
            let (whole_blocks, whole_words, nearly_full) = shape;
            if whole_blocks {
                for (length, _) in &mut zones {
                    *length = length.next_multiple_of(BLOCK_SECTORS);
                }
            }
            let tb = sized_table(&zones, (BLOCKS_PER_GROUP + 64).max(fill + 600), whole_words);
            let (mut fast, mut slow) = layouts(personality(p), &tb);
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
                    take(&mut fast, &mut slow, b);
                }
            }
            for b in (0..fill).filter(|b| spacing > 0 && b % spacing < hole) {
                if !slow.excluded[b as usize] {
                    fast.free(b, 1);
                    slow.release(b);
                }
            }
            let mut held: Vec<u64> = Vec::new();
            let mut released = None;
            for (op, pick, hint) in ops {
                match op {
                    // Take some free block out from under the allocator.
                    0 => {
                        let b = pick % slow.blocks;
                        if slow.free[b as usize] {
                            take(&mut fast, &mut slow, b);
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
                            fast.free(b, 1);
                            slow.release(b);
                            released = Some(b);
                        }
                    }
                    // Allocate: a file's first block, or the one after a
                    // block near the table's end, a held block, a block of
                    // the prefix or the block released last, whose track a
                    // walk may have passed before the release re-armed it.
                    _ => {
                        let prev = match op {
                            4 => Some(slow.blocks - 2 - pick % 30),
                            5 | 6 if !held.is_empty() => Some(held[pick as usize % held.len()]),
                            7 if fill > 0 => Some(pick % fill),
                            8 | 9 => released,
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
            "passed_track_rearmed_then_taken",
            "want_3_passes_a_track_a_pair_query_cleared",
        ],
    );
}

/// The per-track sweep excludes exactly the blocks the per-block
/// definition does: uniform tables, zoned ones, tables where every track
/// is its own zone, and tracks shorter than a block.
#[test]
fn one_sweep_format_matches_the_per_block_definition() {
    let name = "one_sweep_format_matches_the_per_block_definition";
    let mut tally = Tally::default();
    // One zone in five of tracks no longer than two blocks.
    let length = prop_oneof![
        1u64..700,
        1u64..700,
        1u64..700,
        1u64..700,
        1..2 * BLOCK_SECTORS
    ];
    for_cases(
        name,
        96,
        (
            0u8..3,
            prop::collection::vec((length, 1u64..60), 1..40),
            0u8..3,
        ),
        |(shape, zones, p)| {
            let zones: Vec<(u64, u64)> = match shape {
                0 => vec![zones[0]],
                1 => zones,
                _ => zones.into_iter().map(|(len, _)| (len, 1)).collect(),
            };
            tally
                .note(["uniform_table", "zoned_table", "every_track_its_own_zone"][shape as usize]);
            tally.note_if(
                zones.iter().any(|&(len, _)| len < BLOCK_SECTORS),
                "track_shorter_than_a_block",
            );
            let tb = table(&zones);
            let (fast, slow) = layouts(personality(p), &tb);
            assert_same_bitmaps(&fast, &slow);
        },
    );
    tally.require(
        name,
        &[
            "uniform_table",
            "zoned_table",
            "every_track_its_own_zone",
            "track_shorter_than_a_block",
        ],
    );
}

/// `ffs::fsck` as it stood before one diagnosis pass replaced its two
/// walks — `check`'s early-return walk, and `resolve` plus `fsck`'s bitmap
/// pass — kept verbatim but for its imports.
mod parent {
    use ffs::fsck::{FsckReport, MountError, RecoveredFile, RecoveredFs};
    use ffs::image::{
        self, decode_group, group_blocks, is_meta_block, meta_lbn, ngroups, GroupDecode, InodeRec,
        SlotState, INODE_SLOTS,
    };
    use ffs::layout::{Layout, BLOCKS_PER_GROUP, BYTES_PER_BLOCK};
    use sim_disk::crash::{SectorImage, SECTOR_USIZE};
    use std::collections::BTreeMap;

    /// One surviving inode during repair.
    struct LiveInode {
        group: u64,
        slot: usize,
        rec: InodeRec,
        truncated: bool,
    }

    /// Whether block `b` may ever hold file data in a layout `layout`.
    /// Metadata-reserved and excluded blocks may not; neither may anything
    /// past the end of the file system.
    fn data_usable(layout: &Layout, b: u64) -> bool {
        b < layout.blocks() && !is_meta_block(b) && !layout.is_excluded(b)
    }

    /// Decodes all groups, validates inodes, and resolves references in
    /// deterministic (group, slot) order. Returns the surviving inodes, the
    /// reference map, and the per-group decodes, updating `report` counters
    /// and `dirty` flags for groups whose metadata must be rewritten.
    fn resolve(
        image: &SectorImage,
        layout: &Layout,
        report: &mut FsckReport,
        dirty: &mut [bool],
    ) -> (Vec<LiveInode>, Vec<bool>, Vec<GroupDecode>) {
        let blocks = layout.blocks();
        let groups = ngroups(blocks);
        let decodes: Vec<GroupDecode> = (0..groups)
            .map(|g| decode_group(image, g, blocks))
            .collect();

        let mut live: Vec<LiveInode> = Vec::new();
        let mut seen = BTreeMap::new();
        for (g, d) in decodes.iter().enumerate() {
            for (si, slot) in d.slots.iter().enumerate() {
                match slot {
                    SlotState::Empty => {}
                    SlotState::Bad => {
                        report.bad_inode_sectors += 1;
                        dirty[g] = true;
                    }
                    SlotState::Inode(rec) => {
                        if seen.insert(rec.id, ()).is_some() {
                            report.duplicate_inodes += 1;
                            dirty[g] = true;
                            continue;
                        }
                        live.push(LiveInode {
                            group: g as u64,
                            slot: si,
                            rec: rec.clone(),
                            truncated: false,
                        });
                    }
                }
            }
        }

        // References win: walk every surviving inode's blocks in file order,
        // truncating at the first reference the file may not hold.
        let mut claimed = vec![false; blocks as usize];
        for f in &mut live {
            let mut kept: Vec<u64> = Vec::new();
            for b in f.rec.blocks() {
                if !data_usable(layout, b) {
                    f.truncated = true;
                    break;
                }
                if claimed[b as usize] {
                    report.double_refs += 1;
                    f.truncated = true;
                    break;
                }
                claimed[b as usize] = true;
                kept.push(b);
            }
            if f.truncated {
                report.truncated_files += 1;
                dirty[f.group as usize] = true;
                f.rec.size_bytes = f.rec.size_bytes.min(kept.len() as u64 * BYTES_PER_BLOCK);
                f.rec.extents = image::extents_of(&kept);
            }
        }
        report.files = live.len() as u64;
        (live, claimed, decodes)
    }

    /// The bitmap a group must carry once references win: excluded blocks,
    /// metadata-reserved blocks, and every block claimed by a surviving
    /// inode.
    fn expected_bitmap(layout: &Layout, claimed: &[bool], g: u64) -> Vec<bool> {
        let base = g * BLOCKS_PER_GROUP;
        (0..group_blocks(g, layout.blocks()))
            .map(|i| {
                let b = base + i;
                !data_usable(layout, b) || claimed[b as usize]
            })
            .collect()
    }

    /// Verifies and repairs `image` in place, returning what was done.
    /// `layout` supplies the geometry (block count and excluded set — both
    /// crash-invariant); the live post-workload layout or a freshly
    /// formatted twin both work.
    ///
    /// After `fsck` returns, [`check`] passes and a second `fsck` reports
    /// [`FsckReport::clean`] and leaves the image byte-identical. Data
    /// sectors are never touched.
    pub fn fsck(image: &mut SectorImage, layout: &Layout) -> FsckReport {
        let blocks = layout.blocks();
        let groups = ngroups(blocks) as usize;
        let mut report = FsckReport::default();
        let mut dirty = vec![false; groups];
        let (live, claimed, decodes) = resolve(image, layout, &mut report, &mut dirty);

        for (g, d) in decodes.iter().enumerate() {
            let expected = expected_bitmap(layout, &claimed, g as u64);
            let expected_free = expected.iter().filter(|&&a| !a).count() as u64;
            match (&d.summary, d.bitmap_valid) {
                (Some(s), true) => {
                    let mut mismatch = false;
                    for (i, (&on, &want)) in d.bitmap.iter().zip(&expected).enumerate() {
                        if on != want {
                            mismatch = true;
                            let b = g as u64 * BLOCKS_PER_GROUP + i as u64;
                            if on {
                                report.leaked_blocks += 1;
                            } else {
                                report.lost_blocks += 1;
                                debug_assert!(claimed[b as usize], "lost block must be referenced");
                            }
                        }
                    }
                    if mismatch {
                        dirty[g] = true;
                    } else if s.free_in_group != expected_free {
                        report.free_counts_fixed += 1;
                        dirty[g] = true;
                    }
                }
                _ => {
                    report.bitmaps_rebuilt += 1;
                    dirty[g] = true;
                }
            }
        }

        for (g, was_dirty) in dirty.iter().enumerate() {
            if !was_dirty {
                continue;
            }
            let generation = decodes[g].summary.map_or(0, |s| s.generation) + 1;
            let expected = expected_bitmap(layout, &claimed, g as u64);
            let mut slots: Vec<Option<InodeRec>> = vec![None; INODE_SLOTS];
            for f in &live {
                if f.group == g as u64 {
                    slots[f.slot] = Some(f.rec.clone());
                }
            }
            let bytes = image::encode_group(g as u64, generation, &expected, &slots)
                .expect("recovered extents fit: they came from valid inode sectors");
            let base = meta_lbn(g as u64);
            for (i, chunk) in bytes.chunks(SECTOR_USIZE).enumerate() {
                let mut s = [0u8; SECTOR_USIZE];
                s.copy_from_slice(chunk);
                image.write(base + i as u64, &s);
            }
        }
        report
    }

    /// The mountable-image invariant: every metadata sector decodes, file
    /// ids are unique, every reference is exclusive and usable, and every
    /// bitmap and free count agrees exactly with the reference map. Returns
    /// the first violation found (in deterministic group/slot order).
    pub fn check(image: &SectorImage, layout: &Layout) -> Result<(), MountError> {
        let blocks = layout.blocks();
        let groups = ngroups(blocks);
        let decodes: Vec<GroupDecode> = (0..groups)
            .map(|g| decode_group(image, g, blocks))
            .collect();

        let mut claimed = vec![false; blocks as usize];
        let mut seen = BTreeMap::new();
        for (g, d) in decodes.iter().enumerate() {
            let Some(_) = d.summary else {
                return Err(MountError::BadSummary { group: g as u64 });
            };
            if !d.bitmap_valid {
                return Err(MountError::BadBitmap { group: g as u64 });
            }
            for (si, slot) in d.slots.iter().enumerate() {
                match slot {
                    SlotState::Empty => {}
                    SlotState::Bad => {
                        return Err(MountError::BadInode {
                            group: g as u64,
                            slot: si as u64,
                        })
                    }
                    SlotState::Inode(rec) => {
                        if seen.insert(rec.id, ()).is_some() {
                            return Err(MountError::DuplicateFileId { id: rec.id });
                        }
                        for b in rec.blocks() {
                            if !data_usable(layout, b) || claimed[b as usize] {
                                return Err(MountError::BadReference {
                                    id: rec.id,
                                    block: b,
                                });
                            }
                            claimed[b as usize] = true;
                        }
                    }
                }
            }
        }
        for (g, d) in decodes.iter().enumerate() {
            let expected = expected_bitmap(layout, &claimed, g as u64);
            for (i, (&on, &want)) in d.bitmap.iter().zip(&expected).enumerate() {
                if on != want {
                    return Err(MountError::BitmapMismatch {
                        group: g as u64,
                        block: g as u64 * BLOCKS_PER_GROUP + i as u64,
                    });
                }
            }
            let free = expected.iter().filter(|&&a| !a).count() as u64;
            if d.summary.expect("validated above").free_in_group != free {
                return Err(MountError::FreeCountMismatch { group: g as u64 });
            }
        }
        Ok(())
    }

    /// Mounts a mountable image, returning its files. Run [`fsck`] first
    /// after a crash; mounting a damaged image fails with the violation.
    pub fn mount(image: &SectorImage, layout: &Layout) -> Result<RecoveredFs, MountError> {
        check(image, layout)?;
        let blocks = layout.blocks();
        let mut fs = RecoveredFs::default();
        for g in 0..ngroups(blocks) {
            for slot in decode_group(image, g, blocks).slots {
                if let SlotState::Inode(rec) = slot {
                    fs.files.insert(
                        rec.id,
                        RecoveredFile {
                            id: rec.id,
                            size_bytes: rec.size_bytes,
                            extents: rec.extents,
                        },
                    );
                }
            }
        }
        Ok(fs)
    }
}

/// A crash-test workload: creates, sequential appends, deletes, syncs and
/// metadata checkpoints drawn from `seed`, sized to stay inside the small
/// test disk and the shadow's slot and extent limits.
fn crash_workload(fs: &mut FileSystem, seed: u64) {
    let mut h = seed;
    let mut next = move || {
        h = splitmix64(h);
        h
    };
    let mut live: Vec<FileId> = Vec::new();
    for _ in 0..30 {
        match next() % 10 {
            0..=2 if live.len() < 10 => live.push(fs.create()),
            3..=7 if !live.is_empty() => {
                let f = live[(next() % live.len() as u64) as usize];
                let size = fs.size_of(f).unwrap();
                if size < 2 * MB {
                    fs.write(f, size, 64 * 1024 + next() % (MB / 2)).unwrap();
                }
            }
            8 if live.len() > 1 => {
                let f = live.swap_remove((next() % live.len() as u64) as usize);
                fs.delete(f).unwrap();
            }
            9 if next() % 2 == 0 => {
                fs.sync();
            }
            9 => {
                fs.checkpoint_metadata();
            }
            _ => {}
        }
    }
}

/// The image a power cut `frac` thousandths of the way through the
/// workload's log leaves, with the layout it was formatted with.
fn cut_image(seed: u64, personality: Personality, frac: u64) -> (Layout, SectorImage) {
    let mut fs = FileSystem::format(Disk::new(models::small_test_disk()), personality);
    fs.enable_crash_shadow(seed ^ 0x0ff5_cafe);
    let initial = fs.format_image();
    crash_workload(&mut fs, seed);
    let log = fs.disk_mut().take_crash_log().unwrap();
    let cut = SimTime::from_ns(log.horizon().as_ns() * frac / 1000);
    (fs.layout().clone(), replay(&initial, &log, cut).unwrap())
}

/// Every valid inode on media as (group, slot, record).
fn inodes(img: &SectorImage, blocks: u64) -> Vec<(u64, u64, InodeRec)> {
    let mut out = Vec::new();
    for g in 0..ngroups(blocks) {
        for (slot, state) in (0..).zip(decode_group(img, g, blocks).slots) {
            if let SlotState::Inode(rec) = state {
                out.push((g, slot, rec));
            }
        }
    }
    out
}

/// Flips a byte the sector's validation covers.
fn tear(img: &mut SectorImage, lbn: u64, pick: u64, covered: u64) {
    let mut s = img.read(lbn);
    s[(pick % covered) as usize] ^= 1 + (pick >> 16) as u8 % 255;
    img.write(lbn, &s);
}

/// Re-seals group `g`'s summary over its bitmap sector as it now stands,
/// recording the free count `free` makes of the bitmap's own. Debug builds
/// first set the bits of reserved and excluded blocks: fsck debug-asserts
/// that a valid bitmap never frees one, as the file system never writes
/// such a bitmap. Release builds seal whatever the sector holds.
fn reseal(img: &mut SectorImage, layout: &Layout, g: u64, free: impl FnOnce(u64) -> u64) {
    let blocks = layout.blocks();
    let mut bitmap = img.read(meta_lbn(g) + 1);
    if cfg!(debug_assertions) {
        for i in 0..group_blocks(g, blocks) {
            if i == 0 || layout.is_excluded(g * BLOCKS_PER_GROUP + i) {
                bitmap[(i / 8) as usize] |= 1 << (i % 8);
            }
        }
        img.write(meta_lbn(g) + 1, &bitmap);
    }
    let own = image::decode_bitmap(&bitmap, group_blocks(g, blocks))
        .iter()
        .filter(|&&a| !a)
        .count() as u64;
    let mut s = img.read(meta_lbn(g));
    s[24..32].copy_from_slice(&free(own).to_le_bytes());
    s[32..40].copy_from_slice(&checksum(&bitmap).to_le_bytes());
    let own_ck = checksum(&s[..40]);
    s[40..48].copy_from_slice(&own_ck.to_le_bytes());
    img.write(meta_lbn(g), &s);
}

/// Rewrites the inode at `(g, slot)` with the extent `(start, len)`
/// inserted at position `at` of its list.
fn insert_extent(
    img: &mut SectorImage,
    (g, slot, mut rec): (u64, u64, InodeRec),
    at: u64,
    start: u64,
    len: u64,
) {
    rec.extents.truncate(image::MAX_EXTENTS - 1);
    let at = (at % (rec.extents.len() as u64 + 1)) as usize;
    rec.extents.insert(at, (start, len));
    img.write(meta_lbn(g) + 2 + slot, &image::encode_inode(&rec).unwrap());
}

/// Applies one targeted damage to `img`: `kind` says what, `pick` where.
fn damage(img: &mut SectorImage, layout: &Layout, kind: u8, pick: u64) {
    let blocks = layout.blocks();
    let groups = ngroups(blocks);
    let g = pick % groups;
    let live = inodes(img, blocks);
    let victim = (!live.is_empty()).then(|| live[(pick % live.len() as u64) as usize].clone());
    let held: Vec<u64> = live.iter().flat_map(|(_, _, r)| r.blocks()).collect();
    let slot = pick % image::INODE_SLOTS as u64;
    match (kind, victim) {
        // A torn summary (its self-checksum covers the first 48 bytes).
        (0, _) => tear(img, meta_lbn(g), pick, 48),
        (1, _) => tear(img, meta_lbn(g) + 1, pick, SECTOR_USIZE as u64),
        // A torn inode sector: mostly a live file's, sometimes any slot.
        (2, Some((vg, vslot, _))) if !pick.is_multiple_of(4) => {
            tear(img, meta_lbn(vg) + 2 + vslot, pick >> 2, 512)
        }
        (2, _) => tear(img, meta_lbn(g) + 2 + slot, pick >> 2, 512),
        // A live inode copied into another slot, of either group.
        (3, Some((vg, vslot, _))) => {
            let copy = img.read(meta_lbn(vg) + 2 + vslot);
            img.write(meta_lbn(g) + 2 + slot, &copy);
        }
        // An extent on an excluded, metadata-reserved or out-of-range
        // block, anywhere in a live file's list.
        (4, Some(v)) => {
            let excluded: Vec<u64> = (0..blocks)
                .filter(|&b| layout.is_excluded(b) && b % BLOCKS_PER_GROUP != 0)
                .collect();
            let (start, len) = match (pick >> 8) % 3 {
                0 if !excluded.is_empty() => (excluded[(pick >> 10) as usize % excluded.len()], 1),
                2 => (blocks - 1 - (pick >> 10) % 3, 1 + (pick >> 12) % 4),
                _ => (g * BLOCKS_PER_GROUP, 1),
            };
            insert_extent(img, v, pick >> 4, start, len);
        }
        // A block some live file (maybe the same one) already holds.
        (5, Some(v)) if !held.is_empty() => {
            let b = held[(pick >> 8) as usize % held.len()];
            insert_extent(img, v, pick >> 4, b, 1 + (pick >> 12) % 2);
        }
        // One bitmap bit flipped under a summary that vouches for it,
        // recording the flipped bitmap's free count or the old one.
        (6, _) => {
            let mut s = img.read(meta_lbn(g) + 1);
            let bit = (pick >> 8) % group_blocks(g, blocks);
            s[(bit / 8) as usize] ^= 1 << (bit % 8);
            img.write(meta_lbn(g) + 1, &s);
            let old = img.read(meta_lbn(g));
            let recorded = u64::from_le_bytes(std::array::from_fn(|i| old[24 + i]));
            reseal(
                img,
                layout,
                g,
                |own| if pick & 1 == 0 { own } else { recorded },
            );
        }
        // A free count off by a few.
        (7, _) => reseal(img, layout, g, |own| own.wrapping_add(1 + (pick >> 8) % 3)),
        _ => {}
    }
}

/// The first violation `check` reports, as a tally branch.
fn first_violation(checked: Result<(), MountError>) -> &'static str {
    match checked {
        Ok(()) => "clean",
        Err(MountError::BadSummary { .. }) => "first_bad_summary",
        Err(MountError::BadBitmap { .. }) => "first_bad_bitmap",
        Err(MountError::BadInode { .. }) => "first_bad_inode",
        Err(MountError::DuplicateFileId { .. }) => "first_duplicate_file_id",
        Err(MountError::BadReference { .. }) => "first_bad_reference",
        Err(MountError::BitmapMismatch { .. }) => "first_bitmap_mismatch",
        Err(MountError::FreeCountMismatch { .. }) => "first_free_count_mismatch",
    }
}

/// `check`, `fsck` and `mount` read one diagnosis pass, and it answers as
/// the two walks it replaced did: the same first violation, the same
/// report and repaired bytes, the same recovered files — on images a
/// power cut leaves at any instant, raw or already repaired, under up to
/// four targeted damages.
#[test]
fn one_diagnosis_pass_matches_the_two_walks() {
    let name = "one_diagnosis_pass_matches_the_two_walks";
    let mut tally = Tally::default();
    let stacks = prop::collection::vec((0u8..8, 0u64..u64::MAX), 0..5);
    for_cases(
        name,
        32,
        (
            0u64..u64::MAX,
            0u8..2,
            0u64..=1000,
            prop::collection::vec(0u64..u64::MAX, 8..9),
            prop::collection::vec((0u8..2, stacks), 1..4),
        ),
        |(seed, trax, frac, picks, stacks)| {
            let p = if trax == 1 {
                Personality::Traxtent
            } else {
                Personality::Unmodified
            };
            let (layout, cut) = cut_image(seed, p, frac);
            let mut repaired = cut.clone();
            parent::fsck(&mut repaired, &layout);
            // Each kind of damage alone on the repair, which is clean, so
            // that it is the first violation; then stacks of damage on the
            // raw cut or on the repair.
            let singles = (0..8)
                .zip(picks)
                .map(|(kind, pick)| (true, vec![(kind, pick)]));
            let stacks = stacks.into_iter().map(|(base, stack)| (base == 1, stack));
            for (on_repair, damages) in singles.chain(stacks) {
                let mut img = if on_repair {
                    repaired.clone()
                } else {
                    cut.clone()
                };
                for (kind, pick) in damages {
                    damage(&mut img, &layout, kind, pick);
                }
                let checked = parent::check(&img, &layout);
                assert_eq!(fsck::check(&img, &layout), checked);
                tally.note(first_violation(checked));

                let (mut new, mut old) = (img.clone(), img.clone());
                let report = parent::fsck(&mut old, &layout);
                assert_eq!(fsck::fsck(&mut new, &layout), report);
                assert!(new == old, "fsck repaired {checked:?} differently");
                let kinds = [
                    report.bitmaps_rebuilt,
                    report.bad_inode_sectors,
                    report.duplicate_inodes,
                    report.truncated_files,
                    report.leaked_blocks,
                    report.lost_blocks,
                    report.free_counts_fixed,
                ];
                tally.note_if(
                    kinds.iter().filter(|&&n| n > 0).count() >= 2,
                    "several_violations",
                );

                assert_eq!(fsck::mount(&img, &layout), parent::mount(&img, &layout));
                assert_eq!(fsck::mount(&new, &layout), parent::mount(&new, &layout));
            }
        },
    );
    tally.require(
        name,
        &[
            "clean",
            "first_bad_summary",
            "first_bad_bitmap",
            "first_bad_inode",
            "first_duplicate_file_id",
            "first_bad_reference",
            "first_bitmap_mismatch",
            "first_free_count_mismatch",
            "several_violations",
        ],
    );
}
