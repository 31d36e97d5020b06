//! On-disk layout: block groups and the allocation policies of the three
//! FFS personalities, over the traxtent allocator's free-block map.

use traxtent::{Extent, TrackBoundaries, TraxtentAllocator};

/// Sectors per file-system block (8 KB blocks over 512-byte sectors).
pub const BLOCK_SECTORS: u64 = 16;

/// Bytes per file-system block.
pub const BYTES_PER_BLOCK: u64 = BLOCK_SECTORS * 512;

/// Blocks per block group (32 MB groups, as in the paper's experiments).
pub const BLOCKS_PER_GROUP: u64 = 4096;

/// How far from the preferred block, in blocks, the fallback looks for a
/// free cluster before it settles for the closest free block (an aged,
/// fragmented disk).
const CLUSTER_RADIUS: u64 = 8 * BLOCKS_PER_GROUP + 1;

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

/// The formatted layout: the free-block map of every group, kept by the
/// traxtent allocator in units of one block, and the personality's policy
/// over it.
#[derive(Debug, Clone)]
pub struct Layout {
    personality: Personality,
    /// Free and excluded state of every block.
    alloc: TraxtentAllocator,
    alloc_stats: AllocStats,
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
        assert!(
            capacity_lbns / BLOCK_SECTORS >= BLOCKS_PER_GROUP,
            "disk too small for one block group"
        );
        let mut alloc = TraxtentAllocator::in_units(boundaries, BLOCK_SECTORS, capacity_lbns);
        if personality == Personality::Traxtent {
            alloc.exclude_straddlers();
        }
        Layout {
            personality,
            alloc,
            alloc_stats: AllocStats::default(),
        }
    }

    /// The personality this layout was formatted with.
    pub fn personality(&self) -> Personality {
        self.personality
    }

    /// The boundary table.
    pub fn boundaries(&self) -> &TrackBoundaries {
        self.alloc.boundaries()
    }

    /// Total blocks.
    pub fn blocks(&self) -> u64 {
        self.alloc.units()
    }

    /// Free blocks remaining.
    pub fn free_blocks(&self) -> u64 {
        self.alloc.free_units()
    }

    /// Fraction of all blocks lost to exclusion (≈ 5 % on the Atlas 10K, 3 %
    /// on the 10K II, per §4.2.2).
    pub fn excluded_fraction(&self) -> f64 {
        self.alloc.excluded_fraction()
    }

    /// Where allocations have been placed so far.
    pub fn alloc_stats(&self) -> AllocStats {
        self.alloc_stats
    }

    /// Free-space fragmentation in `[0, 1]` (see
    /// [`TraxtentAllocator::fragmentation`]). Excluded blocks split runs,
    /// so a freshly formatted traxtent layout reports per-track granularity
    /// rather than 0.
    pub fn fragmentation(&self) -> f64 {
        self.alloc.fragmentation()
    }

    /// Whether a block is excluded.
    pub fn is_excluded(&self, b: u64) -> bool {
        self.alloc.is_excluded(b)
    }

    /// Whether a block is free.
    pub fn is_free(&self, b: u64) -> bool {
        self.alloc.is_free(b)
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
        while b < self.blocks() {
            if self.alloc.is_free(b) {
                self.alloc.take(b);
            }
            b += BLOCKS_PER_GROUP;
        }
    }

    /// Frees the `len` blocks from `first` on.
    ///
    /// # Panics
    ///
    /// Panics if any of them is already free or is excluded.
    pub fn free(&mut self, first: u64, len: u64) {
        self.alloc.free(Extent::new(first, len));
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
            if preferred < self.blocks() && self.alloc.is_free(preferred) {
                self.alloc_stats.sequential += 1;
                self.alloc.take(preferred);
                return Some(preferred);
            }
            // Preferred block taken (or excluded): find the closest suitable
            // run. The traxtent personality jumps to the start of the
            // closest traxtent with room (§4.2.2); the others take the
            // closest free cluster big enough for the buffered data.
            let b = self.place_near(preferred.min(self.blocks() - 1), run_hint)?;
            self.alloc.take(b);
            return Some(b);
        }
        // First block of a file: start of the closest suitable free run from
        // the beginning of the group rotation (block 0 heuristic stands in
        // for FFS's directory-based group choice).
        let b = self.place_near(0, run_hint)?;
        self.alloc.take(b);
        Some(b)
    }

    /// The personality's placement policy near `near`, counting whether the
    /// placement landed in a whole-traxtent run or fell back to the
    /// track-unaware closest-free-run search.
    fn place_near(&mut self, near: u64, run_hint: u64) -> Option<u64> {
        let want = run_hint.max(1);
        if self.personality == Personality::Traxtent {
            if let Some(b) = self.alloc.closest_traxtent_run(near, want) {
                self.alloc_stats.track_aligned += 1;
                return Some(b);
            }
        }
        let b = (self.alloc.closest_free_run(near, want, CLUSTER_RADIUS))
            .or_else(|| self.alloc.closest_free_run(near, 1, u64::MAX))?;
        self.alloc_stats.fallback += 1;
        Some(b)
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
        l.alloc.take(100);
        assert!(!l.is_free(100));
        assert_eq!(l.free_blocks(), before - 1);
        l.free(100, 1);
        assert!(l.is_free(100));
        assert_eq!(l.free_blocks(), before);
    }

    #[test]
    #[should_panic(expected = "not free")]
    fn double_take_panics() {
        let mut l = layout(Personality::Unmodified);
        l.alloc.take(5);
        l.alloc.take(5);
    }

    #[test]
    #[should_panic(expected = "excluded unit 12 cannot be freed")]
    fn releasing_excluded_block_panics() {
        let mut l = layout(Personality::Traxtent);
        l.free(12, 1);
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
            l.alloc.take(b);
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
