//! The track-boundary table: which LBNs start each track.
//!
//! This is the single piece of disk-specific knowledge a traxtent-aware
//! system needs (§3 of the paper). It is obtained once — by the `dixtrac`
//! extraction algorithms or from a vendor tool — then stored with the file
//! system and consulted at allocation and request-generation time.

use crate::extent::Extent;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Error validating a boundary table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundariesError {
    /// The table is empty.
    Empty,
    /// Track starts are not strictly increasing at the given index.
    NotIncreasing(usize),
    /// The first track does not start at LBN 0.
    MissingOrigin,
    /// The declared capacity does not exceed the last track start.
    BadCapacity,
    /// A confidence vector does not line up with the table's tracks, or
    /// holds a value outside `[0, 1]`.
    BadConfidence,
    /// A spindle vector does not hold one id per track.
    BadSpindles,
}

impl fmt::Display for BoundariesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundariesError::Empty => write!(f, "boundary table is empty"),
            BoundariesError::NotIncreasing(i) => {
                write!(f, "track starts are not strictly increasing at index {i}")
            }
            BoundariesError::MissingOrigin => write!(f, "first track must start at lbn 0"),
            BoundariesError::BadCapacity => {
                write!(f, "capacity must exceed the last track start")
            }
            BoundariesError::BadConfidence => {
                write!(f, "confidence vector must hold one [0, 1] value per track")
            }
            BoundariesError::BadSpindles => {
                write!(f, "spindle vector must hold one id per track")
            }
        }
    }
}

impl Error for BoundariesError {}

/// A bucket directory in front of a sorted table of track starts: which
/// entry holds an LBN, in two loads instead of a binary search's dependent
/// chain of them.
///
/// A bucket is `2^shift` LBNs, about one mean track, and `first[b]` is the
/// last entry starting at or before the bucket's first LBN, so an answer is
/// a few entries past it and the directory costs at most 8 bytes per track
/// (one pass over the table to build). The scan from there is *branchy* on
/// purpose: a load that only feeds a predicted branch does not gate the
/// loads after it, where a branch-free search serializes them (DESIGN.md §5
/// has both measured — do not tidy the scan into a `partition_point`).
/// The table is shared, so a clone costs O(1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LbnDirectory {
    shift: u32,
    /// One entry per bucket, then the table's last index.
    first: Arc<[u32]>,
}

/// How [`LbnDirectory::locate`] found its answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Found {
    /// The forward scan, this many entries past the bucket's first.
    Scan(usize),
    /// The search of a bucket more crowded than the scan covers.
    Crowded,
}

impl LbnDirectory {
    /// Entries the scan steps past before a bucket counts as crowded.
    const SCAN: usize = 4;

    /// Indexes `starts` — non-decreasing, `starts[0] == 0`, repeats allowed,
    /// and the capacity last — for lookups of LBNs below that capacity.
    ///
    /// # Panics
    ///
    /// Panics unless `starts` holds a track start at 0 and a greater
    /// capacity after it, or if it holds 2³² entries or more.
    #[expect(
        clippy::expect_used,
        reason = "the # Panics contract: a table of 2^32 tracks or more is refused"
    )]
    pub fn new(starts: &[u64]) -> Self {
        let last = u32::try_from(starts.len() - 1).expect("fewer than 2^32 tracks");
        let capacity = starts[last as usize];
        assert!(last > 0 && starts[0] == 0 && capacity > 0);
        let shift = (capacity / u64::from(last)).max(1).ilog2();
        let mut i = 0u32;
        let first = (0..=(capacity - 1) >> shift)
            .map(|b| {
                while i < last && starts[i as usize + 1] <= b << shift {
                    i += 1;
                }
                i
            })
            .chain([last])
            .collect();
        LbnDirectory { shift, first }
    }

    /// The last `i` with `starts[i] <= lbn`, for the `starts` the directory
    /// was built from and an `lbn` below their capacity.
    #[inline]
    pub fn last_le(&self, starts: &[u64], lbn: u64) -> usize {
        self.locate(starts, lbn).0
    }

    /// [`Self::last_le`], and how it was answered.
    #[inline]
    pub fn locate(&self, starts: &[u64], lbn: u64) -> (usize, Found) {
        let bucket = (lbn >> self.shift) as usize;
        let mut i = self.first[bucket] as usize;
        for step in 0..Self::SCAN {
            if starts.get(i + 1).is_none_or(|&s| s > lbn) {
                return (i, Found::Scan(step));
            }
            i += 1;
        }
        (self.crowded(starts, i, bucket, lbn), Found::Crowded)
    }

    /// The answer lies in `i..=first[bucket + 1]`: O(log n) on any table.
    #[cold]
    fn crowded(&self, starts: &[u64], i: usize, bucket: usize, lbn: u64) -> usize {
        let hi = self.first[bucket + 1] as usize;
        i + starts[i + 1..=hi].partition_point(|&s| s <= lbn)
    }
}

/// A validated table of track boundaries covering LBNs `[0, capacity)`.
///
/// Tracks are variable-sized: zoned recording, spare space, and slipped
/// defects all perturb track lengths, which is why a simple "N sectors per
/// track" constant does not work on any modern drive.
///
/// A table never changes once built and its arrays are shared, so a clone
/// costs O(1): every file system, lane and volume member built over one
/// drive reads the same copy, and so does the drive's own LBN lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackBoundaries {
    /// Strictly increasing track start LBNs from `starts[0] == 0`, then the
    /// capacity: track `i` is `starts[i]..starts[i + 1]`.
    starts: Arc<[u64]>,
    /// The last entry of `starts`, kept beside the table so that the bound
    /// every lookup checks does not read the table's far end.
    capacity: u64,
    /// Where in `starts` an LBN's track is (a pure function of them).
    dir: LbnDirectory,
}

impl TrackBoundaries {
    /// Builds a table from track start LBNs and the total capacity.
    ///
    /// ```
    /// use traxtent::{BoundariesError, TrackBoundaries};
    ///
    /// // Tracks start at LBN 0, 100, and 199; the disk holds 300 sectors.
    /// let tb = TrackBoundaries::new(vec![0, 100, 199], 300).unwrap();
    /// assert_eq!(tb.num_tracks(), 3);
    ///
    /// // The first track must start at LBN 0.
    /// assert_eq!(
    ///     TrackBoundaries::new(vec![1, 100], 300),
    ///     Err(BoundariesError::MissingOrigin)
    /// );
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`BoundariesError`] unless `starts` begins at 0, is strictly
    /// increasing, and `capacity` exceeds the last start.
    pub fn new(starts: Vec<u64>, capacity: u64) -> Result<Self, BoundariesError> {
        let Some(&last) = starts.last() else {
            return Err(BoundariesError::Empty);
        };
        if starts[0] != 0 {
            return Err(BoundariesError::MissingOrigin);
        }
        for i in 1..starts.len() {
            if starts[i] <= starts[i - 1] {
                return Err(BoundariesError::NotIncreasing(i));
            }
        }
        if capacity <= last {
            return Err(BoundariesError::BadCapacity);
        }
        Ok(Self::from_bounds(
            starts.iter().copied().chain([capacity]).collect(),
        ))
    }

    /// The table over `bounds`: valid track starts, then the capacity.
    fn from_bounds(bounds: Arc<[u64]>) -> Self {
        TrackBoundaries {
            capacity: bounds[bounds.len() - 1],
            dir: LbnDirectory::new(&bounds),
            starts: bounds,
        }
    }

    /// Builds a table from consecutive track lengths.
    ///
    /// ```
    /// use traxtent::TrackBoundaries;
    ///
    /// // Zoned recording and slipped defects make real track lengths vary.
    /// let tb = TrackBoundaries::from_track_lengths([100, 99, 101]).unwrap();
    /// assert_eq!(tb.capacity(), 300);
    /// assert_eq!(tb.track_bounds(150), (100, 199));
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`BoundariesError::NotIncreasing`] if any length is zero and
    /// [`BoundariesError::Empty`] for an empty list.
    pub fn from_track_lengths<I: IntoIterator<Item = u64>>(
        lengths: I,
    ) -> Result<Self, BoundariesError> {
        let mut starts = Vec::new();
        let mut at = 0u64;
        for (i, len) in lengths.into_iter().enumerate() {
            if len == 0 {
                return Err(BoundariesError::NotIncreasing(i));
            }
            starts.push(at);
            at += len;
        }
        Self::new(starts, at)
    }

    /// A uniform table: `tracks` tracks of `spt` sectors each — adequate
    /// only for a single zone of a defect-free disk, but handy in tests.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn uniform(tracks: u64, spt: u64) -> Self {
        assert!(tracks > 0 && spt > 0);
        Self::from_bounds((0..=tracks).map(|t| t * spt).collect())
    }

    /// Total LBNs covered.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of tracks.
    pub fn num_tracks(&self) -> usize {
        self.starts.len() - 1
    }

    /// The track starts with the capacity after them, and the directory over
    /// them, shared with this table: for an index that reads the same table
    /// instead of a copy.
    pub fn shared_parts(&self) -> (Arc<[u64]>, LbnDirectory) {
        (Arc::clone(&self.starts), self.dir.clone())
    }

    /// The index of the track containing `lbn`.
    ///
    /// ```
    /// use traxtent::TrackBoundaries;
    ///
    /// let tb = TrackBoundaries::from_track_lengths([100, 99, 101]).unwrap();
    /// assert_eq!(tb.track_index(0), 0);
    /// assert_eq!(tb.track_index(100), 1); // first sector of track 1
    /// assert_eq!(tb.track_index(198), 1); // last sector of track 1
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `lbn` is at or beyond capacity.
    pub fn track_index(&self, lbn: u64) -> usize {
        let capacity = self.capacity();
        assert!(lbn < capacity, "lbn {lbn} beyond capacity {capacity}");
        self.dir.last_le(&self.starts, lbn)
    }

    /// The `[start, end)` bounds of the track containing `lbn`.
    ///
    /// # Panics
    ///
    /// Panics if `lbn` is at or beyond capacity.
    pub fn track_bounds(&self, lbn: u64) -> (u64, u64) {
        let i = self.track_index(lbn);
        (self.starts[i], self.track_end(i))
    }

    /// The extent of track `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn track_extent(&self, i: usize) -> Extent {
        Extent::new(self.starts[i], self.track_end(i) - self.starts[i])
    }

    fn track_end(&self, i: usize) -> u64 {
        self.starts[i + 1]
    }

    /// Iterates over all track extents.
    pub fn iter(&self) -> impl Iterator<Item = Extent> + '_ {
        (0..self.num_tracks()).map(|i| self.track_extent(i))
    }

    /// Splits an extent at every track boundary it crosses, yielding pieces
    /// that each lie within a single track.
    ///
    /// ```
    /// use traxtent::{Extent, TrackBoundaries};
    ///
    /// let tb = TrackBoundaries::from_track_lengths([100, 100, 100]).unwrap();
    /// let pieces: Vec<Extent> = tb.split_extent(Extent::new(50, 200)).collect();
    /// assert_eq!(pieces, vec![
    ///     Extent::new(50, 50),   // tail of track 0
    ///     Extent::new(100, 100), // all of track 1
    ///     Extent::new(200, 50),  // head of track 2
    /// ]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the extent extends beyond capacity.
    pub fn split_extent(&self, ext: Extent) -> SplitExtent<'_> {
        assert!(ext.end() <= self.capacity(), "extent {ext} beyond capacity");
        SplitExtent {
            table: self,
            cur: ext.start,
            end: ext.end(),
        }
    }

    /// Clips `[start, start + want)` so it does not cross the end of the
    /// track containing `start`; returns the clipped length (≥ 1 for any
    /// in-range start).
    ///
    /// ```
    /// use traxtent::TrackBoundaries;
    ///
    /// let tb = TrackBoundaries::from_track_lengths([100, 100]).unwrap();
    /// assert_eq!(tb.clip_to_track(90, 64), 10); // stops at the boundary
    /// assert_eq!(tb.clip_to_track(90, 5), 5);   // already within the track
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `start` is at or beyond capacity.
    pub fn clip_to_track(&self, start: u64, want: u64) -> u64 {
        let (_, end) = self.track_bounds(start);
        want.min(end - start)
    }
}

/// A boundary table paired with per-track extraction confidence.
///
/// The SCSI-specific extractor reads boundaries from the drive's own
/// address-translation diagnostics, so every track is certain. The general
/// timing-based extractor votes over noisy latency measurements; under
/// timing jitter some tracks come back with less than unanimous agreement.
/// The allocator consults the confidence to decide, per track, whether
/// track-aligned placement is trustworthy or whether it should degrade to
/// untracked allocation.
///
/// A table that describes a multi-drive volume's logical address space
/// also says which spindle each track lives on (see
/// [`ConfidentBoundaries::with_spindles`]), so a scheduler can keep every
/// spindle busy; a table without that knowledge describes one spindle.
///
/// Like the table's, its arrays are shared, so a clone costs O(1).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfidentBoundaries {
    table: TrackBoundaries,
    /// Each track's confidence; empty when every track's is 1.0. Every
    /// constructor normalises, so equal tables compare equal.
    confidence: Arc<[f64]>,
    /// The spindle holding each track; empty when the table is one spindle.
    spindles: Arc<[u16]>,
}

impl ConfidentBoundaries {
    /// Pairs a boundary table with one confidence value per track.
    ///
    /// Fails with [`BoundariesError::BadConfidence`] when the vector's
    /// length differs from the table's track count or any value falls
    /// outside `[0, 1]`.
    pub fn new(table: TrackBoundaries, confidence: Vec<f64>) -> Result<Self, BoundariesError> {
        if confidence.len() != table.num_tracks() {
            return Err(BoundariesError::BadConfidence);
        }
        if confidence.iter().any(|c| !(0.0..=1.0).contains(c)) {
            return Err(BoundariesError::BadConfidence);
        }
        let mut map = Self::certain(table);
        if confidence.iter().any(|&c| c != 1.0) {
            map.confidence = confidence.into();
        }
        Ok(map)
    }

    /// Wraps a table whose every track is fully trusted (confidence 1.0),
    /// as produced by the exact SCSI-diagnostic extraction.
    pub fn certain(table: TrackBoundaries) -> Self {
        ConfidentBoundaries {
            table,
            confidence: Arc::new([]),
            spindles: Arc::new([]),
        }
    }

    /// Records which spindle holds each track, indexed like the table's
    /// tracks. Tracks on different spindles can be accessed at the same
    /// time; tracks on one spindle queue behind each other.
    ///
    /// ```
    /// use traxtent::{ConfidentBoundaries, TrackBoundaries};
    ///
    /// // Four logical tracks striped over two drives.
    /// let map = ConfidentBoundaries::certain(TrackBoundaries::uniform(4, 100))
    ///     .with_spindles(vec![0, 1, 0, 1])
    ///     .unwrap();
    /// assert_eq!(map.spindle(3), 1);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`BoundariesError::BadSpindles`] when the vector's length
    /// differs from the table's track count.
    pub fn with_spindles(mut self, spindles: Vec<u16>) -> Result<Self, BoundariesError> {
        if spindles.len() != self.table.num_tracks() {
            return Err(BoundariesError::BadSpindles);
        }
        self.spindles = spindles.into();
        Ok(self)
    }

    /// The spindle holding track `i` (0 for a one-spindle table). Panics
    /// if `i` is out of range of a table that carries spindle ids.
    pub fn spindle(&self, i: usize) -> u16 {
        if self.spindles.is_empty() {
            0
        } else {
            self.spindles[i]
        }
    }

    /// The underlying boundary table.
    pub fn table(&self) -> &TrackBoundaries {
        &self.table
    }

    /// Per-track confidence, in the order of the table's tracks.
    pub fn confidence(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.table.num_tracks()).map(|i| self.track_confidence(i))
    }

    /// Confidence of track `i` (1.0 for every track of a table whose every
    /// track is certain). Panics if `i` is out of range of a table that
    /// carries values.
    pub fn track_confidence(&self, i: usize) -> f64 {
        if self.confidence.is_empty() {
            1.0
        } else {
            self.confidence[i]
        }
    }

    /// Whether track `i`'s boundaries are trusted at `threshold` (inclusive).
    pub fn is_confident(&self, i: usize, threshold: f64) -> bool {
        self.track_confidence(i) >= threshold
    }

    /// Mean confidence across all tracks (1.0 for an empty-noise run).
    pub fn mean_confidence(&self) -> f64 {
        self.confidence().sum::<f64>() / self.table.num_tracks() as f64
    }

    /// Composes a boundary map from consecutive `(length, confidence)`
    /// units — the primitive the fleet layer uses to publish a
    /// *volume-wide* boundary map: each member's stripe units (snapped to
    /// that member's physical tracks) become the "tracks" of the volume's
    /// logical address space, carrying the confidence of the member track
    /// they were carved from.
    ///
    /// ```
    /// use traxtent::ConfidentBoundaries;
    ///
    /// // Two trusted whole-track units and one low-confidence fallback unit.
    /// let map = ConfidentBoundaries::from_unit_lengths([
    ///     (200, 1.0),
    ///     (150, 1.0),
    ///     (64, 0.4),
    /// ])
    /// .unwrap();
    /// assert_eq!(map.table().num_tracks(), 3);
    /// assert_eq!(map.table().track_bounds(210), (200, 350));
    /// assert!(map.is_confident(1, 0.9));
    /// assert!(!map.is_confident(2, 0.9));
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`BoundariesError`] when the unit list is empty, any
    /// length is zero, or any confidence falls outside `[0, 1]`.
    pub fn from_unit_lengths<I: IntoIterator<Item = (u64, f64)>>(
        units: I,
    ) -> Result<Self, BoundariesError> {
        let mut confidence = Vec::new();
        let lengths = units.into_iter().map(|(len, c)| {
            confidence.push(c);
            len
        });
        let table = TrackBoundaries::from_track_lengths(lengths)?;
        Self::new(table, confidence)
    }
}

/// Iterator produced by [`TrackBoundaries::split_extent`].
#[derive(Debug)]
pub struct SplitExtent<'a> {
    table: &'a TrackBoundaries,
    cur: u64,
    end: u64,
}

impl Iterator for SplitExtent<'_> {
    type Item = Extent;

    fn next(&mut self) -> Option<Extent> {
        if self.cur >= self.end {
            return None;
        }
        let (_, track_end) = self.table.track_bounds(self.cur);
        let piece_end = track_end.min(self.end);
        let e = Extent::new(self.cur, piece_end - self.cur);
        self.cur = piece_end;
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TrackBoundaries {
        // Tracks of 100, 99, 101, 100 sectors (defects/spares vary lengths).
        TrackBoundaries::from_track_lengths([100, 99, 101, 100]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            TrackBoundaries::new(vec![], 10).unwrap_err(),
            BoundariesError::Empty
        );
        assert_eq!(
            TrackBoundaries::new(vec![1], 10).unwrap_err(),
            BoundariesError::MissingOrigin
        );
        assert_eq!(
            TrackBoundaries::new(vec![0, 5, 5], 10).unwrap_err(),
            BoundariesError::NotIncreasing(2)
        );
        assert_eq!(
            TrackBoundaries::new(vec![0, 5], 5).unwrap_err(),
            BoundariesError::BadCapacity
        );
        assert!(TrackBoundaries::new(vec![0, 5], 6).is_ok());
    }

    #[test]
    fn confidence_validates_length_and_range() {
        let t = table();
        assert_eq!(
            ConfidentBoundaries::new(t.clone(), vec![1.0; 3]).unwrap_err(),
            BoundariesError::BadConfidence
        );
        assert_eq!(
            ConfidentBoundaries::new(t.clone(), vec![1.0, 0.5, 1.2, 1.0]).unwrap_err(),
            BoundariesError::BadConfidence
        );
        assert!(ConfidentBoundaries::new(t, vec![1.0, 0.5, 0.0, 1.0]).is_ok());
    }

    #[test]
    fn spindle_ids_are_optional_and_one_per_track() {
        let plain = ConfidentBoundaries::certain(table());
        assert_eq!(plain.spindle(3), 0);
        assert_eq!(
            plain.clone().with_spindles(vec![0; 3]).unwrap_err(),
            BoundariesError::BadSpindles
        );
        let striped = plain.with_spindles(vec![2, 7, 2, 7]).unwrap();
        assert_eq!((striped.spindle(1), striped.spindle(2)), (7, 2));
    }

    #[test]
    fn certain_tables_trust_every_track() {
        let c = ConfidentBoundaries::certain(table());
        assert!(c.confidence().eq([1.0; 4]));
        assert_eq!(c.mean_confidence(), 1.0);
        assert_eq!(c.table(), &table());
        // A table given all-1.0 values is the certain one.
        assert_eq!(ConfidentBoundaries::new(table(), vec![1.0; 4]), Ok(c));
    }

    #[test]
    fn confidence_queries_single_out_weak_tracks() {
        let c = ConfidentBoundaries::new(table(), vec![1.0, 0.6, 0.95, 1.0]).unwrap();
        assert!(c.is_confident(0, 0.9));
        assert!(!c.is_confident(1, 0.9));
        assert_eq!(c.track_confidence(2), 0.95);
        assert!((c.mean_confidence() - 0.8875).abs() < 1e-12);
        assert_eq!(c.table().num_tracks(), 4);
    }

    #[test]
    fn lookup_and_bounds() {
        let tb = table();
        assert_eq!(tb.capacity(), 400);
        assert_eq!(tb.num_tracks(), 4);
        assert_eq!(tb.track_bounds(0), (0, 100));
        assert_eq!(tb.track_bounds(99), (0, 100));
        assert_eq!(tb.track_bounds(100), (100, 199));
        assert_eq!(tb.track_bounds(399), (300, 400));
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn out_of_range_lookup_panics() {
        table().track_bounds(400);
    }

    #[test]
    fn split_extent_at_boundaries() {
        let tb = table();
        let pieces: Vec<Extent> = tb.split_extent(Extent::new(50, 200)).collect();
        assert_eq!(
            pieces,
            vec![
                Extent::new(50, 50),
                Extent::new(100, 99),
                Extent::new(199, 51)
            ]
        );
        // Fully inside one track: a single piece.
        let single: Vec<Extent> = tb.split_extent(Extent::new(210, 30)).collect();
        assert_eq!(single, vec![Extent::new(210, 30)]);
    }

    #[test]
    fn clip_to_track_never_crosses() {
        let tb = table();
        assert_eq!(tb.clip_to_track(90, 64), 10);
        assert_eq!(tb.clip_to_track(100, 64), 64);
        assert_eq!(tb.clip_to_track(150, 64), 49);
    }

    #[test]
    fn uniform_table() {
        let tb = TrackBoundaries::uniform(5, 10);
        assert_eq!(tb.capacity(), 50);
        assert_eq!(tb.track_bounds(42), (40, 50));
    }

    #[test]
    fn iter_covers_everything() {
        let tb = table();
        let total: u64 = tb.iter().map(|e| e.len).sum();
        assert_eq!(total, tb.capacity());
    }
}
