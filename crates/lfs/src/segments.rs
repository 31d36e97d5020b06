//! The segment usage table with variable-sized segments (§5.5.1).
//!
//! Sprite-LFS kept per-segment usage in an in-memory kernel structure;
//! BSD-LFS stores it in the IFILE. Supporting track-matched segments only
//! requires augmenting each entry with a starting LBN and a length, set
//! from the track-boundary table at initialization.

use crate::error::LfsError;
use traxtent::{Extent, TrackBoundaries};

/// One segment's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Starting LBN.
    pub start: u64,
    /// Length in sectors.
    pub len: u64,
    /// Live sectors currently in the segment.
    pub live: u64,
}

/// The segment usage table: every segment's location, size, and liveness.
#[derive(Debug, Clone)]
pub struct SegmentTable {
    segments: Vec<SegmentInfo>,
}

impl SegmentTable {
    /// Fixed-size segments of `segment_sectors`, packed from LBN 0 over
    /// `capacity` sectors (the conventional LFS layout; the tail remainder
    /// is unused).
    ///
    /// # Panics
    ///
    /// Panics if `segment_sectors` is zero or exceeds `capacity`.
    pub fn fixed(capacity: u64, segment_sectors: u64) -> Self {
        assert!(segment_sectors > 0 && segment_sectors <= capacity);
        let n = capacity / segment_sectors;
        SegmentTable {
            segments: (0..n)
                .map(|i| SegmentInfo {
                    start: i * segment_sectors,
                    len: segment_sectors,
                    live: 0,
                })
                .collect(),
        }
    }

    /// Track-matched variable segments: one segment per track, sized from
    /// the boundary table (the traxtent LFS of §5.5.1).
    pub fn track_matched(boundaries: &TrackBoundaries) -> Self {
        SegmentTable {
            segments: boundaries
                .iter()
                .map(|e: Extent| SegmentInfo {
                    start: e.start,
                    len: e.len,
                    live: 0,
                })
                .collect(),
        }
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True if the table has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// A segment's info.
    pub fn get(&self, i: usize) -> SegmentInfo {
        self.segments[i]
    }

    /// Adds `n` live sectors to segment `i`.
    ///
    /// # Errors
    ///
    /// Returns [`LfsError::SegmentOverfilled`] if liveness would exceed
    /// the segment length (the accounting is left untouched).
    pub fn add_live(&mut self, i: usize, n: u64) -> Result<(), LfsError> {
        let s = &mut self.segments[i];
        if s.live + n > s.len {
            return Err(LfsError::SegmentOverfilled {
                segment: i,
                live: s.live,
                len: s.len,
                add: n,
            });
        }
        s.live += n;
        Ok(())
    }

    /// Removes `n` live sectors from segment `i` (data overwritten or
    /// deleted elsewhere).
    ///
    /// # Errors
    ///
    /// Returns [`LfsError::SegmentUnderflowed`] if the segment has fewer
    /// than `n` live sectors (the accounting is left untouched).
    pub fn remove_live(&mut self, i: usize, n: u64) -> Result<(), LfsError> {
        let s = &mut self.segments[i];
        if s.live < n {
            return Err(LfsError::SegmentUnderflowed {
                segment: i,
                live: s.live,
                remove: n,
            });
        }
        s.live -= n;
        Ok(())
    }

    /// Marks segment `i` empty (after cleaning).
    pub fn reset(&mut self, i: usize) {
        self.segments[i].live = 0;
    }

    /// Utilization of segment `i` in `[0, 1]`.
    pub fn utilization(&self, i: usize) -> f64 {
        let s = self.segments[i];
        s.live as f64 / s.len as f64
    }

    /// Total live sectors across all segments.
    pub fn total_live(&self) -> u64 {
        self.segments.iter().map(|s| s.live).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_table_packs_segments() {
        let t = SegmentTable::fixed(1000, 300);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(2).start, 600);
        assert_eq!(t.get(2).len, 300);
    }

    #[test]
    fn track_matched_segments_follow_boundaries() {
        let tb = TrackBoundaries::from_track_lengths([100, 99, 101]).unwrap();
        let t = SegmentTable::track_matched(&tb);
        assert_eq!(t.len(), 3);
        assert_eq!(
            t.get(1),
            SegmentInfo {
                start: 100,
                len: 99,
                live: 0
            }
        );
    }

    #[test]
    fn liveness_accounting() {
        let mut t = SegmentTable::fixed(1000, 100);
        t.add_live(0, 60).unwrap();
        t.add_live(1, 10).unwrap();
        assert_eq!(t.total_live(), 70);
        assert!((t.utilization(0) - 0.6).abs() < 1e-12);
        t.remove_live(0, 30).unwrap();
        assert_eq!(t.total_live(), 40);
        t.reset(1);
        assert_eq!(t.total_live(), 30);
    }

    #[test]
    fn overfill_is_a_typed_error_and_leaves_state_intact() {
        let mut t = SegmentTable::fixed(100, 50);
        assert_eq!(
            t.add_live(0, 51),
            Err(LfsError::SegmentOverfilled {
                segment: 0,
                live: 0,
                len: 50,
                add: 51,
            })
        );
        assert_eq!(t.get(0).live, 0, "failed add must not change liveness");
    }

    #[test]
    fn underflow_is_a_typed_error_and_leaves_state_intact() {
        let mut t = SegmentTable::fixed(100, 50);
        t.add_live(0, 5).unwrap();
        assert_eq!(
            t.remove_live(0, 6),
            Err(LfsError::SegmentUnderflowed {
                segment: 0,
                live: 5,
                remove: 6,
            })
        );
        assert_eq!(t.get(0).live, 5, "failed remove must not change liveness");
    }
}
