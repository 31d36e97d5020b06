//! The LFS segment writer and cleaner, producing the `WriteCost` factor of
//! the overall-write-cost metric.
//!
//! The workload is a hot/cold update stream standing in for the Auspex
//! trace of Matthews et al.: by default 90 % of updates hit 10 % of the
//! data. The cleaner is greedy (lowest-utilization victim first) and runs
//! whenever the pool of empty segments drops below a small reserve —
//! cleaned live data is appended to the log like any other write, so
//! cleaning both reads and rewrites live sectors, exactly the `N_clean_read
//! + N_clean_written` terms of the metric.
//!
//! As in Sprite-LFS, the cleaner finds a victim's live sectors through the
//! *segment summary* — which logical sector was appended to each log slot —
//! and checks each entry against the location map; it never scans the map.

use crate::error::LfsError;
use crate::segments::{SegmentInfo, SegmentTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traxtent::TrackBoundaries;

/// Workload and policy parameters.
#[derive(Debug, Clone, Copy)]
pub struct LfsConfig {
    /// Live data as a fraction of capacity (disk utilization).
    pub utilization: f64,
    /// Fraction of updates that hit the hot set.
    pub hot_update_frac: f64,
    /// Fraction of the data that is hot.
    pub hot_data_frac: f64,
    /// Empty segments to keep in reserve (cleaning trigger).
    pub reserve_segments: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LfsConfig {
    fn default() -> Self {
        LfsConfig {
            utilization: 0.75,
            hot_update_frac: 0.9,
            hot_data_frac: 0.1,
            reserve_segments: 4,
            seed: 0x1f5,
        }
    }
}

/// Sector-count tallies of everything written or read on behalf of writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteTally {
    /// New application data appended to the log.
    pub new_written: u64,
    /// Live sectors read by the cleaner.
    pub clean_read: u64,
    /// Live sectors rewritten by the cleaner.
    pub clean_written: u64,
}

impl WriteTally {
    /// The Matthews et al. write-cost ratio.
    pub fn write_cost(&self) -> f64 {
        if self.new_written == 0 {
            return 1.0;
        }
        (self.new_written + self.clean_read + self.clean_written) as f64 / self.new_written as f64
    }
}

/// `location` of a logical sector with no live copy: before the initial
/// fill reaches it, and between an overwrite's kill and its append.
const NOWHERE: u32 = u32::MAX;

/// The LFS simulator.
#[derive(Debug)]
pub struct LfsSim {
    table: SegmentTable,
    config: LfsConfig,
    /// Logical sector → segment currently holding it (or [`NOWHERE`]).
    location: Vec<u32>,
    /// The segment summary, one entry per log slot from the first segment's
    /// first sector: the logical sector last appended there. Never cleared:
    /// an entry is live exactly when `location` still points at its segment.
    summary: Vec<u32>,
    /// The segment currently being appended to and its fill level.
    open: usize,
    open_fill: u64,
    empty: Vec<usize>,
    tally: WriteTally,
    cleaner_passes: u64,
}

impl LfsSim {
    /// Creates a simulator with fixed-size segments over `capacity` sectors.
    ///
    /// # Panics
    ///
    /// Panics if the configuration leaves fewer than `reserve_segments + 2`
    /// segments, utilization is not within `(0, 0.95]` or leaves no live
    /// sector, `hot_update_frac` or `hot_data_frac` is not within `[0, 1]`,
    /// or the table spans more sectors than the `u32` that the summary
    /// stores a logical sector in can count.
    pub fn fixed(capacity: u64, segment_sectors: u64, config: LfsConfig) -> Self {
        Self::with_table(SegmentTable::fixed(capacity, segment_sectors), config)
    }

    /// Creates a simulator with track-matched variable segments.
    pub fn track_matched(boundaries: &TrackBoundaries, config: LfsConfig) -> Self {
        Self::with_table(SegmentTable::track_matched(boundaries), config)
    }

    /// Creates a simulator over an explicit segment table.
    pub fn with_table(table: SegmentTable, config: LfsConfig) -> Self {
        assert!(config.utilization > 0.0 && config.utilization <= 0.95);
        for frac in [config.hot_update_frac, config.hot_data_frac] {
            assert!((0.0..=1.0).contains(&frac), "hot fractions lie in [0, 1]");
        }
        assert!(
            table.len() > config.reserve_segments + 2,
            "too few segments for the reserve"
        );
        let lens = || (0..table.len()).map(|i| table.get(i).len);
        let (capacity, max_seg) = (lens().sum::<u64>(), lens().max().expect("non-empty"));
        // Both table constructors lay segments out in ascending LBN order.
        let (first, last) = (table.get(0), table.get(table.len() - 1));
        let span = last.start + last.len - first.start;
        assert!(span < u64::from(NOWHERE), "log too large for a u32 summary");
        let live_target = (capacity as f64 * config.utilization) as u64;
        assert!(live_target > 0, "utilization leaves no live sector");
        assert!(
            live_target + (config.reserve_segments as u64 + 2) * max_seg <= capacity,
            "utilization too high to maintain the cleaning reserve \
             (shrink segments or grow capacity)"
        );
        let mut sim = LfsSim {
            location: vec![NOWHERE; live_target as usize],
            summary: vec![0; span as usize],
            open: 0,
            open_fill: 0,
            empty: (1..table.len()).rev().collect(),
            table,
            config,
            tally: WriteTally::default(),
            cleaner_passes: 0,
        };
        // Initial fill: write every logical sector once (the tally is reset
        // after it — the metric covers steady-state behaviour). The fill
        // fits by the capacity assertion above, so failure here is a
        // construction bug.
        for logical in 0..live_target {
            sim.append(logical as usize)
                .expect("initial fill fits within capacity");
        }
        sim.tally = WriteTally::default();
        sim
    }

    /// Total live sectors.
    pub fn live_sectors(&self) -> u64 {
        self.table.total_live()
    }

    /// The tallies so far.
    pub fn tally(&self) -> WriteTally {
        self.tally
    }

    /// How many times the cleaner selected and emptied a victim segment.
    pub fn cleaner_passes(&self) -> u64 {
        self.cleaner_passes
    }

    /// Segment-utilization histogram: ten equal-width buckets over
    /// `[0, 1]`, with fully-utilized segments counted in the last bucket.
    pub fn segment_utilization_histogram(&self) -> [u64; 10] {
        let mut buckets = [0u64; 10];
        for i in 0..self.table.len() {
            let u = self.table.utilization(i);
            let b = ((u * 10.0) as usize).min(9);
            buckets[b] += 1;
        }
        buckets
    }

    /// Publishes the simulator's state under `lfs.*`: the write tally, the
    /// cleaner pass count, and the segment-utilization histogram
    /// (`lfs.seg_util.bucket0` = segments below 10 % utilized, …,
    /// `bucket9` = 90 % and above). The write-cost ratio is exported as a
    /// parts-per-million high-water mark so concurrent runs commute.
    pub fn export_metrics(&self, reg: &traxtent::obs::Registry) {
        reg.add("lfs.new_written", self.tally.new_written);
        reg.add("lfs.clean_read", self.tally.clean_read);
        reg.add("lfs.clean_written", self.tally.clean_written);
        reg.add("lfs.cleaner.passes", self.cleaner_passes);
        reg.add("lfs.segments", self.table.len() as u64);
        reg.set_max("lfs.write_cost_ppm", (self.tally.write_cost() * 1e6) as u64);
        for (b, count) in self.segment_utilization_histogram().iter().enumerate() {
            reg.add(&format!("lfs.seg_util.bucket{b}"), *count);
        }
    }

    /// Debug helper: the segment holding each logical sector's live copy.
    #[doc(hidden)]
    pub fn locations(&self) -> impl Iterator<Item = Option<usize>> + '_ {
        let located = |&seg: &u32| (seg != NOWHERE).then_some(seg as usize);
        self.location.iter().map(located)
    }

    /// Debug helper: verify the location map and the segment liveness agree.
    #[doc(hidden)]
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut counts = vec![0u64; self.table.len()];
        for seg in self.locations().flatten() {
            counts[seg] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            if c != self.table.get(i).live {
                return Err(format!(
                    "segment {i}: {} located vs {} live",
                    c,
                    self.table.get(i).live
                ));
            }
        }
        Ok(())
    }

    /// Runs `updates` logical-sector overwrites with the configured
    /// hot/cold skew and returns the final tally.
    ///
    /// # Errors
    ///
    /// Returns the first [`LfsError`] hit by the writer or the cleaner
    /// (segment accounting violation, missing victim, or an exhausted
    /// cleaning reserve). The tally reflects work completed before the
    /// failure.
    pub fn run_updates(&mut self, updates: u64) -> Result<WriteTally, LfsError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let n = self.location.len();
        let hot_n = ((n as f64) * self.config.hot_data_frac).max(1.0) as usize;
        for _ in 0..updates {
            let logical = if rng.gen_bool(self.config.hot_update_frac) {
                rng.gen_range(0..hot_n)
            } else {
                rng.gen_range(0..n)
            };
            self.overwrite(logical)?;
        }
        Ok(self.tally)
    }

    /// Overwrites one logical sector: kill the old copy, append the new.
    fn overwrite(&mut self, logical: usize) -> Result<(), LfsError> {
        let seg = self.location[logical];
        if seg != NOWHERE {
            self.table.remove_live(seg as usize, 1)?;
            // Clear the stale pointer *before* appending: the append may
            // trigger cleaning, and the cleaner must not relocate the dead
            // copy.
            self.location[logical] = NOWHERE;
        }
        self.append(logical)
    }

    /// Appends a (re)written logical sector to the open segment, rolling to
    /// a fresh segment — and cleaning — as needed.
    fn append(&mut self, logical: usize) -> Result<(), LfsError> {
        if self.open_fill >= self.table.get(self.open).len {
            self.roll_segment()?;
        }
        self.log(logical)?;
        self.tally.new_written += 1;
        Ok(())
    }

    /// Writes `logical` into the open segment's next slot (there is one)
    /// and enters it in the summary.
    fn log(&mut self, logical: usize) -> Result<(), LfsError> {
        let slot = self.table.get(self.open).start - self.table.get(0).start + self.open_fill;
        self.summary[slot as usize] = logical as u32;
        self.open_fill += 1;
        self.table.add_live(self.open, 1)?;
        self.location[logical] = self.open as u32;
        Ok(())
    }

    /// Closes the open segment and opens an empty one, cleaning if the
    /// reserve is low.
    fn roll_segment(&mut self) -> Result<(), LfsError> {
        while self.empty.len() < self.config.reserve_segments {
            self.clean_one()?;
        }
        self.open = self.empty.pop().ok_or(LfsError::ReserveExhausted)?;
        self.open_fill = self.table.get(self.open).live; // 0 for empty segments
        debug_assert_eq!(self.open_fill, 0);
        Ok(())
    }

    /// Cleans the lowest-utilization victim (the lowest-numbered of equals;
    /// never the open segment, never one with nothing live): reads its live
    /// sectors and appends them to the log. A victim that is all live means
    /// every candidate is: a pass would fill as much of the log as it frees,
    /// so `roll_segment` would never see its reserve again.
    fn clean_one(&mut self) -> Result<(), LfsError> {
        self.cleaner_passes += 1;
        let scaled_utilization = |s: SegmentInfo| (s.live * 1_000_000) / s.len.max(1);
        let victim = (0..self.table.len())
            .filter(|&seg| seg != self.open && self.table.get(seg).live > 0)
            .min_by_key(|&seg| scaled_utilization(self.table.get(seg)))
            .ok_or(LfsError::NoCleaningVictim)?;
        let SegmentInfo { start, len, live } = self.table.get(victim);
        if live == len {
            return Err(LfsError::NoCleaningVictim);
        }
        self.tally.clean_read += live;
        // The victim's summary names every sector appended to it, some of
        // them since overwritten elsewhere (or left by an earlier life of
        // the segment) and some more than once. Relocate the live ones in
        // ascending logical order: the order decides which cleaned sector
        // lands in which segment, and so every later victim.
        let first = (start - self.table.get(0).start) as usize;
        let mut movers = self.summary[first..first + len as usize].to_vec();
        movers.retain(|&logical| self.location[logical as usize] == victim as u32);
        movers.sort_unstable();
        movers.dedup();
        debug_assert_eq!(movers.len() as u64, live);
        for logical in movers {
            self.table.remove_live(victim, 1)?;
            self.append_cleaned(logical as usize)?;
        }
        self.table.reset(victim);
        self.empty.push(victim);
        Ok(())
    }

    /// Appends a cleaned sector (counts as cleaner write).
    fn append_cleaned(&mut self, logical: usize) -> Result<(), LfsError> {
        if self.open_fill >= self.table.get(self.open).len {
            // Cleaning must not recurse into cleaning: the reserve exists so
            // a fresh segment is always available here.
            self.open = self.empty.pop().ok_or(LfsError::ReserveExhausted)?;
            self.open_fill = 0;
        }
        self.log(logical)?;
        self.tally.clean_written += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_cost_fixed(capacity: u64, segment: u64, updates: u64, config: LfsConfig) -> f64 {
        let mut sim = LfsSim::fixed(capacity, segment, config);
        sim.run_updates(updates).unwrap().write_cost()
    }

    const CAP: u64 = 64 * 1024; // 32 MB in sectors

    #[test]
    fn liveness_is_conserved() {
        let mut sim = LfsSim::fixed(CAP, 512, LfsConfig::default());
        let before = sim.live_sectors();
        sim.run_updates(20_000).unwrap();
        assert_eq!(
            sim.live_sectors(),
            before,
            "cleaner must not lose live data"
        );
    }

    #[test]
    fn write_cost_at_least_one() {
        let mut sim = LfsSim::fixed(CAP, 512, LfsConfig::default());
        let t = sim.run_updates(20_000).unwrap();
        assert!(t.write_cost() >= 1.0);
        assert_eq!(
            t.clean_read, t.clean_written,
            "cleaner rewrites what it reads"
        );
    }

    #[test]
    fn larger_segments_cost_more_to_clean() {
        // Hot/cold mixing penalizes big segments (the Auspex trend).
        let small = write_cost_fixed(CAP, 128, 60_000, LfsConfig::default());
        let large = write_cost_fixed(CAP, 2048, 60_000, LfsConfig::default());
        assert!(
            large > small,
            "write cost should grow with segment size: {small} vs {large}"
        );
    }

    #[test]
    fn track_matched_segments_work() {
        let tb = traxtent::TrackBoundaries::uniform(128, 512);
        let mut sim = LfsSim::track_matched(&tb, LfsConfig::default());
        let t = sim.run_updates(20_000).unwrap();
        assert!(t.write_cost() >= 1.0);
        assert_eq!(sim.live_sectors(), (tb.capacity() as f64 * 0.75) as u64);
    }

    #[test]
    fn low_utilization_cleans_almost_free() {
        let cheap = write_cost_fixed(
            CAP,
            1024,
            40_000,
            LfsConfig {
                utilization: 0.3,
                ..LfsConfig::default()
            },
        );
        let pricey = write_cost_fixed(
            CAP,
            1024,
            40_000,
            LfsConfig {
                utilization: 0.9,
                ..LfsConfig::default()
            },
        );
        assert!(cheap < pricey, "{cheap} !< {pricey}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = write_cost_fixed(CAP, 512, 20_000, LfsConfig::default());
        let b = write_cost_fixed(CAP, 512, 20_000, LfsConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "too few segments")]
    fn tiny_tables_rejected() {
        let _ = LfsSim::fixed(1024, 512, LfsConfig::default());
    }

    #[test]
    fn metrics_account_for_the_run() {
        let mut sim = LfsSim::fixed(CAP, 512, LfsConfig::default());
        let t = sim.run_updates(20_000).unwrap();
        assert!(sim.cleaner_passes() > 0, "the reserve forces cleaning");
        let hist = sim.segment_utilization_histogram();
        assert_eq!(
            hist.iter().sum::<u64>(),
            (CAP / 512),
            "every segment lands in exactly one bucket"
        );
        let reg = traxtent::obs::Registry::new();
        sim.export_metrics(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.get("lfs.new_written"), Some(t.new_written));
        assert_eq!(snap.get("lfs.clean_read"), Some(t.clean_read));
        assert_eq!(snap.get("lfs.cleaner.passes"), Some(sim.cleaner_passes()));
        assert_eq!(snap.get("lfs.seg_util.bucket0"), Some(hist[0]));
        assert_eq!(
            snap.get("lfs.write_cost_ppm"),
            Some((t.write_cost() * 1e6) as u64)
        );
    }
}
