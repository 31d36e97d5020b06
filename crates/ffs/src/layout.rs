//! On-disk layout: block groups, free-block bitmaps, excluded blocks, and
//! the allocation policies of the three FFS personalities.

use traxtent::{ConfidentBoundaries, TrackBoundaries};

/// Sectors per file-system block (8 KB blocks over 512-byte sectors).
pub const BLOCK_SECTORS: u64 = 16;

/// Bytes per file-system block.
pub const BYTES_PER_BLOCK: u64 = BLOCK_SECTORS * 512;

/// Blocks per block group (32 MB groups, as in the paper's experiments).
pub const BLOCKS_PER_GROUP: u64 = 4096;

/// Which FFS variant is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Personality {
    /// Stock FreeBSD FFS behaviour.
    Unmodified,
    /// Stock allocation, but aggressive 32-block prefetch on first access.
    FastStart,
    /// Traxtent-aware allocation and access.
    Traxtent,
}

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
        if !len.is_multiple_of(64) {
            *words.last_mut().expect("len is positive") = (1 << (len % 64)) - 1;
        }
        Bitmap { words, len }
    }

    /// Word index and bit mask of item `i`.
    fn bit(&self, i: u64) -> (usize, u64) {
        assert!(i < self.len, "item {i} beyond the map's {}", self.len);
        ((i / 64) as usize, 1 << (i % 64))
    }

    fn get(&self, i: u64) -> bool {
        let (word, bit) = self.bit(i);
        self.words[word] & bit != 0
    }

    fn set(&mut self, i: u64) {
        let (word, bit) = self.bit(i);
        self.words[word] |= bit;
    }

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

    /// The last set item at or before `from`.
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

/// Where [`Layout::alloc_next`] placements came from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Placements on the preferred next-sequential block.
    pub sequential: u64,
    /// Placements into a whole-traxtent run (track-aligned by
    /// construction; traxtent personality only).
    pub track_aligned: u64,
    /// Placements by the closest-free-run fallback, which ignores track
    /// boundaries.
    pub fallback: u64,
}

/// The formatted layout: free-block state for every group plus the
/// traxtent structures.
#[derive(Debug, Clone)]
pub struct Layout {
    personality: Personality,
    boundaries: TrackBoundaries,
    /// Total file-system blocks.
    blocks: u64,
    /// The free-block bitmap: bit `b` set → block `b` is free.
    free: Bitmap,
    /// Blocks permanently excluded because they span a track boundary
    /// (traxtent personality only).
    excluded: Bitmap,
    free_count: u64,
    /// The first free block (`blocks` when none is): no placement search
    /// needs to look below it. `take` advances it, `release` lowers it.
    low: u64,
    alloc_stats: AllocStats,
    /// Per-track trust mask from a noisy extraction; absent means every
    /// track is trusted. Untrusted tracks get no boundary exclusions and
    /// no track-aligned placement — the file system treats them exactly
    /// like the unmodified personality would (untracked allocation).
    trusted: Option<Bitmap>,
}

impl Layout {
    /// Formats a disk of `capacity_lbns` sectors whose track boundaries are
    /// `boundaries`. For the traxtent personality, every block spanning a
    /// track boundary is marked excluded (treated as allocated forever), as
    /// in §4.2.2.
    ///
    /// # Panics
    ///
    /// Panics if the disk is smaller than one block group.
    pub fn format(
        personality: Personality,
        boundaries: TrackBoundaries,
        capacity_lbns: u64,
    ) -> Self {
        Self::build(personality, boundaries, capacity_lbns, None)
    }

    /// Like [`format`](Self::format), but from a noisy extraction: tracks
    /// whose confidence falls below `threshold` are untrusted. The traxtent
    /// personality degrades to untracked (unmodified-style) behaviour on
    /// them — no blocks are excluded there, no track-aligned placement
    /// targets them, and transfers touching them are not clipped at their
    /// (possibly wrong) boundaries.
    ///
    /// # Panics
    ///
    /// Panics if the disk is smaller than one block group.
    pub fn format_confident(
        personality: Personality,
        boundaries: &ConfidentBoundaries,
        threshold: f64,
        capacity_lbns: u64,
    ) -> Self {
        let tracks = boundaries.table().num_tracks();
        let mut trusted = Bitmap::zeros(tracks as u64);
        for i in (0..tracks).filter(|&i| boundaries.is_confident(i, threshold)) {
            trusted.set(i as u64);
        }
        Self::build(
            personality,
            boundaries.table().clone(),
            capacity_lbns,
            Some(trusted),
        )
    }

    fn build(
        personality: Personality,
        boundaries: TrackBoundaries,
        capacity_lbns: u64,
        trusted: Option<Bitmap>,
    ) -> Self {
        let blocks = capacity_lbns / BLOCK_SECTORS;
        assert!(
            blocks >= BLOCKS_PER_GROUP,
            "disk too small for one block group"
        );
        let mut excluded = Bitmap::zeros(blocks);
        let mut free = Bitmap::ones(blocks);
        let mut free_count = blocks;
        if personality == Personality::Traxtent {
            // A block is excluded when it starts on a trusted track and
            // runs past that track's end; the only candidate per track is
            // the block holding the track's last sector.
            for (i, track) in boundaries.iter().enumerate() {
                let b = (track.end() - 1) / BLOCK_SECTORS;
                let first = b * BLOCK_SECTORS;
                if b < blocks
                    && first >= track.start
                    && first + BLOCK_SECTORS > track.end()
                    && trusted.as_ref().is_none_or(|t| t.get(i as u64))
                {
                    excluded.set(b);
                    free.clear(b);
                    free_count -= 1;
                }
            }
        }
        let low = free.next_one(0);
        Layout {
            personality,
            boundaries,
            blocks,
            free,
            excluded,
            free_count,
            low,
            alloc_stats: AllocStats::default(),
            trusted,
        }
    }

    /// Whether the track holding block `b` has trustworthy boundaries
    /// (always true for a layout formatted without confidence data).
    pub fn block_trusted(&self, b: u64) -> bool {
        self.trusted.is_none()
            || self.track_trusted(self.boundaries.track_index(self.block_to_lbn(b)))
    }

    fn track_trusted(&self, track: usize) -> bool {
        self.trusted.as_ref().is_none_or(|t| t.get(track as u64))
    }

    /// The personality this layout was formatted with.
    pub fn personality(&self) -> Personality {
        self.personality
    }

    /// The boundary table.
    pub fn boundaries(&self) -> &TrackBoundaries {
        &self.boundaries
    }

    /// Total blocks.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Free blocks remaining.
    pub fn free_blocks(&self) -> u64 {
        self.free_count
    }

    /// Fraction of all blocks lost to exclusion (≈ 5 % on the Atlas 10K, 3 %
    /// on the 10K II, per §4.2.2).
    pub fn excluded_fraction(&self) -> f64 {
        self.excluded.count_ones() as f64 / self.blocks as f64
    }

    /// Where allocations have been placed so far.
    pub fn alloc_stats(&self) -> AllocStats {
        self.alloc_stats
    }

    /// Free-space fragmentation in `[0, 1]`: `1 − largest free run /
    /// free blocks`. A fully contiguous free pool scores 0; free space
    /// scattered in many small runs approaches 1. (Excluded blocks split
    /// runs, so a freshly formatted traxtent layout reports per-track
    /// granularity rather than 0.) Returns 0 on a full disk.
    pub fn fragmentation(&self) -> f64 {
        if self.free_count == 0 {
            return 0.0;
        }
        1.0 - self.free.longest_run() as f64 / self.free_count as f64
    }

    /// Whether a block is excluded.
    pub fn is_excluded(&self, b: u64) -> bool {
        self.excluded.get(b)
    }

    /// Whether a block is free.
    pub fn is_free(&self, b: u64) -> bool {
        self.free.get(b)
    }

    /// First sector of a block.
    pub fn block_to_lbn(&self, b: u64) -> u64 {
        b * BLOCK_SECTORS
    }

    /// Reserves the first block of every group for on-media metadata (the
    /// crash-consistency image format of [`crate::image`]), so data
    /// allocations never land where metadata writes go. Opt-in: the
    /// default timing-only figures never call this, keeping their layouts
    /// (and results) bit-identical. Idempotent; a metadata block that is
    /// already excluded or allocated is left as is (it is unavailable to
    /// data either way).
    pub fn reserve_group_metadata(&mut self) {
        let mut b = 0;
        while b < self.blocks {
            if self.free.get(b) {
                self.take(b);
            }
            b += BLOCKS_PER_GROUP;
        }
    }

    /// Marks a block allocated.
    ///
    /// # Panics
    ///
    /// Panics if the block is not free.
    pub fn take(&mut self, b: u64) {
        assert!(self.free.get(b), "block {b} is not free");
        self.free.clear(b);
        self.free_count -= 1;
        if b == self.low {
            self.low = self.free.next_one(b + 1);
        }
    }

    /// Releases a block.
    ///
    /// # Panics
    ///
    /// Panics if the block is already free or is excluded.
    pub fn release(&mut self, b: u64) {
        assert!(!self.excluded.get(b), "excluded block {b} cannot be freed");
        assert!(!self.free.get(b), "block {b} is already free");
        self.free.set(b);
        self.free_count += 1;
        self.low = self.low.min(b);
    }

    /// Allocates the block for file offset following `prev` (FFS's
    /// "preferred block is the next sequential one"), falling back to the
    /// personality's placement policy. `run_hint` is how many further blocks
    /// the caller expects to write contiguously (bounded by the cluster
    /// size), which guides cluster selection.
    ///
    /// Returns `None` when the disk is full.
    pub fn alloc_next(&mut self, prev: Option<u64>, run_hint: u64) -> Option<u64> {
        if let Some(p) = prev {
            let preferred = p + 1;
            if preferred < self.blocks && self.free.get(preferred) {
                self.alloc_stats.sequential += 1;
                self.take(preferred);
                return Some(preferred);
            }
            // Preferred block taken (or excluded): find the closest suitable
            // run. The traxtent personality jumps to the start of the
            // closest traxtent with room (§4.2.2); the others take the
            // closest free cluster big enough for the buffered data.
            let b = self.place_near(preferred.min(self.blocks - 1), run_hint)?;
            self.take(b);
            return Some(b);
        }
        // First block of a file: start of the closest suitable free run from
        // the beginning of the group rotation (block 0 heuristic stands in
        // for FFS's directory-based group choice).
        let b = self.place_near(0, run_hint)?;
        self.take(b);
        Some(b)
    }

    /// The personality's placement policy near `near`, counting whether the
    /// placement landed in a whole-traxtent run or fell back to the
    /// track-unaware closest-free-run search.
    fn place_near(&mut self, near: u64, run_hint: u64) -> Option<u64> {
        if self.personality == Personality::Traxtent {
            if let Some(b) = self.closest_traxtent_run(near, run_hint) {
                self.alloc_stats.track_aligned += 1;
                return Some(b);
            }
        }
        let b = self.closest_free_run(near, run_hint)?;
        self.alloc_stats.fallback += 1;
        Some(b)
    }

    /// Closest free run of at least `max(run_hint, 1)` blocks, looking
    /// outward from `near` (the upper block first at equal distance);
    /// degrades to the closest single free block.
    fn closest_free_run(&self, near: u64, run_hint: u64) -> Option<u64> {
        let want = run_hint.max(1);
        let dist = |b: u64| b.abs_diff(near);
        let nearer = |up: Option<u64>, down: Option<u64>| {
            [up, down].into_iter().flatten().min_by_key(|&b| dist(b))
        };
        let above = |b: u64| Some(self.free.next_one(b)).filter(|&b| b < self.blocks);
        // The closest free block on each side; nothing below `low` is free.
        let mut up = above(near.max(self.low));
        let mut down = self.free.prev_one(near);
        let single = nearer(up, down)?;
        // Give up on finding a full run after a generous radius and take
        // the closest free block (an aged, fragmented disk).
        let radius = 8 * BLOCKS_PER_GROUP + 1;
        while let Some(b) = nearer(up, down).filter(|&b| dist(b) <= radius) {
            let run = self.free.ones_at(b, want);
            if run >= want {
                return Some(b);
            }
            if down == Some(b) {
                down = b.checked_sub(1).and_then(|b| self.free.prev_one(b));
            }
            if up == Some(b) {
                // The rest of this run is shorter still.
                up = above(b + run);
            }
        }
        Some(single)
    }

    /// The first free block of the closest traxtent (run of blocks between
    /// excluded blocks on one track) that has at least `run_hint` free
    /// blocks, scanning tracks outward from the track containing `near`.
    fn closest_traxtent_run(&self, near: u64, run_hint: u64) -> Option<u64> {
        if self.low == self.blocks {
            return None;
        }
        let want = run_hint.max(1);
        let near_lbn = self.block_to_lbn(near).min(self.boundaries.capacity() - 1);
        let origin = self.boundaries.track_index(near_lbn);
        // A track that ends at or before the first free block holds nothing
        // to return, so neither side of the walk goes below that block's
        // track. Outward from the origin, the upper track first at each
        // distance, and one side alone once the other has run out.
        let low_track = self.boundaries.track_index(self.block_to_lbn(self.low));
        let ups = origin.max(low_track)..self.boundaries.num_tracks();
        let downs = (low_track..origin).rev();
        let paired = ups.len().min(downs.len());
        let pairs = ups.clone().zip(downs.clone()).flat_map(|(u, d)| [u, d]);
        pairs
            .chain(ups.skip(paired))
            .chain(downs.skip(paired))
            .find_map(|track| self.traxtent_on_track(track, want))
    }

    /// The first free block on trusted track `track` that starts `want`
    /// free blocks, or a shorter free run reaching the track's last whole
    /// block.
    fn traxtent_on_track(&self, track: usize, want: u64) -> Option<u64> {
        if !self.track_trusted(track) {
            return None;
        }
        let t = self.boundaries.track_extent(track);
        // Blocks fully inside this track.
        let first = t.start.div_ceil(BLOCK_SECTORS);
        let last = t.end() / BLOCK_SECTORS; // exclusive
        let end = last.min(self.blocks);
        if first >= end {
            return None;
        }
        let width = end - first;
        if width <= 64 {
            let bits = self.free.window(first, width);
            if bits == 0 {
                return None;
            }
            if bits >> (width - 1) == 0 {
                // The last block is taken, so no run leaves the track or
                // reaches its end: the answer is in these bits. Each
                // `starts & starts >> 1` keeps the bits that start a run
                // one block longer.
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
        let mut b = self.free.next_one(first);
        while b < end {
            let run = self.free.ones_at(b, want);
            if run >= want || b + run == last {
                return Some(b);
            }
            b = self.free.next_one(b + run);
        }
        None
    }

    /// Length of the traxtent run starting at block `b`: contiguous blocks
    /// to the end of the track (exclusive of excluded blocks). Used to size
    /// traxtent reads and write-backs.
    pub fn traxtent_run(&self, b: u64) -> u64 {
        let lbn = self.block_to_lbn(b);
        let (_, track_end) = self.boundaries.track_bounds(lbn);
        let last_block = track_end / BLOCK_SECTORS; // exclusive
        last_block.saturating_sub(b).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boundaries() -> TrackBoundaries {
        // 100 tracks of 200 sectors: blocks are 16 sectors, so 12 whole
        // blocks fit per track and block 12 of each track straddles the
        // boundary (200 = 12*16 + 8).
        TrackBoundaries::uniform(400, 200)
    }

    fn layout(p: Personality) -> Layout {
        Layout::format(p, boundaries(), 400 * 200)
    }

    #[test]
    fn excluded_blocks_straddle_boundaries() {
        let l = layout(Personality::Traxtent);
        // Track 0 = sectors [0, 200): blocks 0..11 inside, block 12 spans
        // [192, 208) → excluded.
        assert!(!l.is_excluded(11));
        assert!(l.is_excluded(12));
        assert!(!l.is_excluded(13));
        // 200 sectors = 12.5 blocks per track, so every *other* track
        // boundary falls mid-block: one excluded block per 25 ≈ 4 %.
        assert!(
            !l.is_excluded(24),
            "track 1 ends exactly on a block boundary"
        );
        assert!(
            (0.03..=0.05).contains(&l.excluded_fraction()),
            "{}",
            l.excluded_fraction()
        );
    }

    #[test]
    fn untrusted_tracks_get_no_exclusions_and_no_aligned_placement() {
        // Tracks 0 and 1 fall below threshold; the rest are certain.
        let mut conf = vec![1.0; 400];
        conf[0] = 0.3;
        conf[1] = 0.5;
        let cb = ConfidentBoundaries::new(boundaries(), conf).unwrap();
        let l = Layout::format_confident(Personality::Traxtent, &cb, 0.9, 400 * 200);

        // Block 12 straddles track 0's boundary but that boundary is not
        // trusted, so it stays usable; track 2's straddler (block 37 spans
        // [592, 608) across the 600 boundary) is excluded as usual.
        assert!(!l.is_excluded(12));
        assert!(l.is_excluded(37));
        assert!(!l.block_trusted(0));
        assert!(l.block_trusted(30));

        // Track-aligned placement near the untrusted region jumps to the
        // first trusted track instead.
        let mut l = l;
        let b = l.alloc_next(None, 8).expect("space");
        let track = cb.table().track_index(b * BLOCK_SECTORS);
        assert!(track >= 2, "aligned placement used untrusted track {track}");
        let s = l.alloc_stats();
        assert_eq!(s.track_aligned, 1);
        assert_eq!(s.fallback, 0);
    }

    #[test]
    fn fully_untrusted_layout_behaves_untracked() {
        let cb = ConfidentBoundaries::new(boundaries(), vec![0.0; 400]).unwrap();
        let mut l = Layout::format_confident(Personality::Traxtent, &cb, 0.5, 400 * 200);
        assert_eq!(l.excluded_fraction(), 0.0);
        assert!(!l.block_trusted(0));
        // Every placement is a fallback: the aligned policy has nowhere
        // trusted to go.
        let a = l.alloc_next(None, 8).expect("space");
        l.alloc_next(Some(a), 8).expect("space");
        let s = l.alloc_stats();
        assert_eq!(s.track_aligned, 0);
        assert!(s.fallback + s.sequential == 2);
    }

    #[test]
    fn confident_format_with_certain_table_matches_plain_format() {
        let cb = ConfidentBoundaries::certain(boundaries());
        let confident = Layout::format_confident(Personality::Traxtent, &cb, 0.9, 400 * 200);
        let plain = Layout::format(Personality::Traxtent, boundaries(), 400 * 200);
        assert_eq!(confident.excluded_fraction(), plain.excluded_fraction());
        assert_eq!(confident.free_blocks(), plain.free_blocks());
        assert!(confident.block_trusted(0));
    }

    #[test]
    fn unmodified_layout_has_no_exclusions() {
        let l = layout(Personality::Unmodified);
        assert_eq!(l.excluded_fraction(), 0.0);
        assert_eq!(l.free_blocks(), l.blocks());
    }

    #[test]
    fn sequential_allocation_prefers_next_block() {
        let mut l = layout(Personality::Unmodified);
        let a = l.alloc_next(None, 32).unwrap();
        let b = l.alloc_next(Some(a), 32).unwrap();
        assert_eq!(b, a + 1);
    }

    #[test]
    fn traxtent_allocation_skips_excluded() {
        let mut l = layout(Personality::Traxtent);
        let mut prev = None;
        let mut got = Vec::new();
        for _ in 0..14 {
            let b = l.alloc_next(prev, 14).unwrap();
            assert!(!l.is_excluded(b), "allocated excluded block {b}");
            prev = Some(b);
            got.push(b);
        }
        // Block 12 (the excluded one) is skipped.
        assert!(!got.contains(&12));
    }

    #[test]
    fn take_release_round_trip() {
        let mut l = layout(Personality::Unmodified);
        let before = l.free_blocks();
        l.take(100);
        assert!(!l.is_free(100));
        assert_eq!(l.free_blocks(), before - 1);
        l.release(100);
        assert!(l.is_free(100));
        assert_eq!(l.free_blocks(), before);
    }

    #[test]
    #[should_panic(expected = "not free")]
    fn double_take_panics() {
        let mut l = layout(Personality::Unmodified);
        l.take(5);
        l.take(5);
    }

    #[test]
    #[should_panic(expected = "excluded block")]
    fn releasing_excluded_block_panics() {
        let mut l = layout(Personality::Traxtent);
        l.release(12);
    }

    #[test]
    fn traxtent_run_measures_to_track_end() {
        let l = layout(Personality::Traxtent);
        assert_eq!(l.traxtent_run(0), 12);
        assert_eq!(l.traxtent_run(5), 7);
        assert_eq!(l.traxtent_run(11), 1);
    }

    #[test]
    fn allocation_exhausts_cleanly() {
        let tb = TrackBoundaries::uniform(260, 256); // 66560 sectors = 4160 blocks
        let mut l = Layout::format(Personality::Unmodified, tb, 260 * 256);
        let mut prev = None;
        let mut count = 0u64;
        while let Some(b) = l.alloc_next(prev, 8) {
            prev = Some(b);
            count += 1;
        }
        assert_eq!(count, 4160);
        assert_eq!(l.free_blocks(), 0);
    }

    #[test]
    fn alloc_stats_attribute_placements() {
        let mut l = layout(Personality::Traxtent);
        // First block has no predecessor: placed via the traxtent run
        // search. The next extends it sequentially.
        let a = l.alloc_next(None, 12).unwrap();
        let b = l.alloc_next(Some(a), 12).unwrap();
        assert_eq!(b, a + 1);
        let s = l.alloc_stats();
        assert_eq!(s.sequential, 1);
        assert_eq!(s.track_aligned, 1);
        assert_eq!(s.fallback, 0);

        // An unmodified layout never uses the traxtent search.
        let mut u = layout(Personality::Unmodified);
        let a = u.alloc_next(None, 12).unwrap();
        u.alloc_next(Some(a), 12).unwrap();
        let s = u.alloc_stats();
        assert_eq!(s.sequential, 1);
        assert_eq!(s.track_aligned, 0);
        assert_eq!(s.fallback, 1);
    }

    #[test]
    fn metadata_reservation_pins_group_heads() {
        let mut l = layout(Personality::Unmodified);
        let before = l.free_blocks();
        l.reserve_group_metadata();
        let groups = l.blocks().div_ceil(BLOCKS_PER_GROUP);
        assert_eq!(l.free_blocks(), before - groups);
        let mut b = 0;
        while b < l.blocks() {
            assert!(!l.is_free(b), "metadata block {b} still free");
            b += BLOCKS_PER_GROUP;
        }
        // Idempotent, and allocations skip the reserved heads.
        l.reserve_group_metadata();
        assert_eq!(l.free_blocks(), before - groups);
        let a = l.alloc_next(None, 4).expect("space");
        assert_ne!(a, 0);
    }

    #[test]
    fn fragmentation_rises_as_free_space_scatters() {
        let mut l = layout(Personality::Unmodified);
        assert_eq!(l.fragmentation(), 0.0, "pristine layout is one free run");
        // Punch holes: taking every 8th block caps the largest free run at 7
        // while leaving most blocks free.
        let mut b = 0;
        while b < l.blocks() {
            l.take(b);
            b += 8;
        }
        let frag = l.fragmentation();
        assert!(frag > 0.9, "scattered free space is fragmented: {frag}");
        // Full layout: no free blocks at all, defined as unfragmented.
        let mut full = layout(Personality::Unmodified);
        let mut prev = None;
        while let Some(nb) = full.alloc_next(prev, 8) {
            prev = Some(nb);
        }
        assert_eq!(full.fragmentation(), 0.0);
    }
}
