//! The summary cleaner against the scan cleaner it replaced.
//!
//! `LfsSim` finds a victim's live sectors through the segment summary and
//! picks the victim by scanning the usage table when a pass starts. Before,
//! a pass walked the whole location map from logical sector 0 and every
//! update re-indexed a segment in a `BTreeSet` ordered by utilization. That
//! simulator lives on here as the oracle ([`ScanCleaner`]): the parent's
//! `struct`, `with_table` and every method the comparison reaches, verbatim
//! but for the name, the dropped `pub`s and the lines marked `// watch`,
//! which note what each pass looked like and feed nothing back (three of
//! them fail a roll that would never end instead of hanging the suite).
//!
//! Each case builds both over one table and one configuration and runs the
//! same chunks of updates through them. After every chunk the result, the
//! tallies, the pass count, the utilization histogram, every segment's live
//! count and the whole logical → segment map must be equal — also when the
//! chunk ended in an error. The properties print how often each kind of
//! pass ran and fail if one hardly did.

use lfs::cleaner::{LfsConfig, LfsSim, WriteTally};
use lfs::segments::SegmentTable;
use lfs::LfsError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use traxtent::TrackBoundaries;

// ---------------------------------------------------------------------
// The oracle: the parent's simulator, scanning the location map.
// ---------------------------------------------------------------------

/// The parent's `LfsSim`.
#[derive(Debug)]
struct ScanCleaner {
    table: SegmentTable,
    config: LfsConfig,
    /// Logical sector → segment currently holding it (or None before the
    /// initial fill).
    location: Vec<Option<usize>>,
    /// Segments ordered by scaled utilization for greedy victim selection.
    by_util: BTreeSet<(u64, usize)>,
    /// The segment currently being appended to and its fill level.
    open: usize,
    open_fill: u64,
    empty: Vec<usize>,
    tally: WriteTally,
    cleaner_passes: u64,
    watch: Watch,
}

impl ScanCleaner {
    /// Creates a simulator over an explicit segment table.
    fn with_table(table: SegmentTable, config: LfsConfig) -> Self {
        assert!(config.utilization > 0.0 && config.utilization <= 0.95);
        assert!(
            table.len() > config.reserve_segments + 2,
            "too few segments for the reserve"
        );
        let capacity: u64 = (0..table.len()).map(|i| table.get(i).len).sum();
        let live_target = (capacity as f64 * config.utilization) as u64;
        let max_seg = (0..table.len())
            .map(|i| table.get(i).len)
            .max()
            .expect("non-empty");
        assert!(
            live_target + (config.reserve_segments as u64 + 2) * max_seg <= capacity,
            "utilization too high to maintain the cleaning reserve \
             (shrink segments or grow capacity)"
        );
        let mut sim = ScanCleaner {
            location: vec![None; live_target as usize],
            by_util: BTreeSet::new(),
            open: 0,
            open_fill: 0,
            empty: (1..table.len()).rev().collect(),
            watch: Watch::over(&table),
            table,
            config,
            tally: WriteTally::default(),
            cleaner_passes: 0,
        };
        // Initial fill: write every logical sector once (not tallied — the
        // metric covers steady-state behaviour). The fill fits by the
        // capacity assertion above, so failure here is a construction bug.
        for logical in 0..live_target {
            sim.append(logical as usize, false)
                .expect("initial fill fits within capacity");
        }
        sim.tally = WriteTally::default();
        sim
    }

    /// Total live sectors.
    fn live_sectors(&self) -> u64 {
        self.table.total_live()
    }

    /// The tallies so far.
    fn tally(&self) -> WriteTally {
        self.tally
    }

    /// How many times the cleaner selected and emptied a victim segment.
    fn cleaner_passes(&self) -> u64 {
        self.cleaner_passes
    }

    /// Segment-utilization histogram: ten equal-width buckets over
    /// `[0, 1]`, with fully-utilized segments counted in the last bucket.
    fn segment_utilization_histogram(&self) -> [u64; 10] {
        let mut buckets = [0u64; 10];
        for i in 0..self.table.len() {
            let u = self.table.utilization(i);
            let b = ((u * 10.0) as usize).min(9);
            buckets[b] += 1;
        }
        buckets
    }

    /// Debug helper: verify the location map and the segment liveness agree.
    fn check_consistency(&self) -> Result<(), String> {
        let mut counts = vec![0u64; self.table.len()];
        for loc in self.location.iter().flatten() {
            counts[*loc] += 1;
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
    fn run_updates(&mut self, updates: u64) -> Result<WriteTally, LfsError> {
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
        if let Some(seg) = self.location[logical] {
            self.unindex(seg);
            self.table.remove_live(seg, 1)?;
            self.index(seg);
            // Clear the stale pointer *before* appending: the append may
            // trigger cleaning, and the cleaner must not relocate the dead
            // copy.
            self.location[logical] = None;
        }
        self.append(logical, true)
    }

    /// Appends a (re)written logical sector to the open segment, rolling to
    /// a fresh segment — and cleaning — as needed. `tallied` distinguishes
    /// application writes from the untallied initial fill.
    fn append(&mut self, logical: usize, tallied: bool) -> Result<(), LfsError> {
        if self.open_fill >= self.table.get(self.open).len {
            self.roll_segment()?;
        }
        self.open_fill += 1;
        self.unindex(self.open);
        self.table.add_live(self.open, 1)?;
        self.index(self.open);
        self.location[logical] = Some(self.open);
        self.watch.appended[self.open].push(logical); // watch
        if tallied {
            self.tally.new_written += 1;
        }
        Ok(())
    }

    /// Closes the open segment and opens an empty one, cleaning if the
    /// reserve is low.
    fn roll_segment(&mut self) -> Result<(), LfsError> {
        let mut passes = 0; // watch
        while self.empty.len() < self.config.reserve_segments {
            passes += 1; // watch
            assert!(passes < 20 * self.table.len(), "a roll that never ends"); // watch
            self.clean_one()?;
        }
        self.open = self.empty.pop().ok_or(LfsError::ReserveExhausted)?;
        self.open_fill = self.table.get(self.open).live; // 0 for empty segments
        debug_assert_eq!(self.open_fill, 0);
        Ok(())
    }

    /// Cleans the lowest-utilization victim: reads its live sectors and
    /// appends them to the log.
    fn clean_one(&mut self) -> Result<(), LfsError> {
        self.cleaner_passes += 1;
        let victim = self
            .by_util
            .iter()
            .find(|&&(_, seg)| seg != self.open && self.table.get(seg).live > 0)
            .map(|&(_, seg)| seg)
            .ok_or(LfsError::NoCleaningVictim)?;
        let mut pass = self.observe(victim); // watch
        let live = self.table.get(victim).live;
        self.tally.clean_read += live;
        // Relocate each live logical sector: find them via the location map
        // is O(n); instead we only need the *count* — the identity of which
        // logical sectors move does not affect the metric, but their
        // location must follow them. Move the cheapest-to-find ones: scan
        // once and remap.
        let mut moved = 0;
        for logical in 0..self.location.len() {
            if moved == live {
                break;
            }
            if self.location[logical] == Some(victim) {
                self.unindex(victim);
                self.table.remove_live(victim, 1)?;
                self.index(victim);
                self.append_cleaned(logical)?;
                pass.landed_in(self.open); // watch
                moved += 1;
            }
        }
        debug_assert_eq!(moved, live);
        self.unindex(victim);
        self.table.reset(victim);
        self.index(victim);
        self.empty.push(victim);
        self.watch.appended[victim].clear(); // watch
        self.watch.passes.push(pass); // watch
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
        self.open_fill += 1;
        self.unindex(self.open);
        self.table.add_live(self.open, 1)?;
        self.index(self.open);
        self.location[logical] = Some(self.open);
        self.watch.appended[self.open].push(logical); // watch
        self.tally.clean_written += 1;
        Ok(())
    }

    fn util_key(&self, seg: usize) -> (u64, usize) {
        let s = self.table.get(seg);
        ((s.live * 1_000_000) / s.len.max(1), seg)
    }

    fn index(&mut self, seg: usize) {
        let k = self.util_key(seg);
        self.by_util.insert(k);
    }

    fn unindex(&mut self, seg: usize) {
        let k = self.util_key(seg);
        self.by_util.remove(&k);
    }
}

// ---------------------------------------------------------------------
// What a pass looked like, noted by the oracle as it runs.
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct Watch {
    /// The logical sectors appended to each segment since it was last
    /// emptied, in log order — the summary, rebuilt on the slow side only
    /// so that a pass can be classified.
    appended: Vec<Vec<usize>>,
    passes: Vec<Pass>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Pass {
    /// The summary named a sector whose live copy is elsewhere.
    stale: bool,
    /// The summary named one live sector twice: it was rewritten into the
    /// segment while the segment was open.
    twice: bool,
    /// Every slot of the victim had been written (a user write closed it);
    /// otherwise it was left part-filled by the roll that follows a pass.
    filled: bool,
    /// Another candidate had the same scaled utilization.
    tie: bool,
    /// The open segment — the full one a user write is rolling away from,
    /// or the part-filled one an earlier pass of the roll opened — was less
    /// utilized than the victim: only its exclusion kept it from being
    /// chosen.
    open_was_lower: bool,
    /// Where the last relocated sector went, and whether an earlier one
    /// went elsewhere: the pass opened a fresh segment part-way through.
    landed: Option<usize>,
    crossed: bool,
}

impl Watch {
    fn over(table: &SegmentTable) -> Self {
        Watch {
            appended: vec![Vec::new(); table.len()],
            passes: Vec::new(),
        }
    }
}

impl Pass {
    fn landed_in(&mut self, seg: usize) {
        self.crossed |= self.landed.replace(seg).is_some_and(|before| before != seg);
    }
}

impl ScanCleaner {
    fn observe(&self, victim: usize) -> Pass {
        let entries = &self.watch.appended[victim];
        let live: Vec<usize> = entries
            .iter()
            .copied()
            .filter(|&logical| self.location[logical] == Some(victim))
            .collect();
        let info = self.table.get(victim);
        let key = self.util_key(victim).0;
        let candidates = self
            .by_util
            .iter()
            .filter(|&&(_, seg)| seg != self.open && self.table.get(seg).live > 0);
        Pass {
            stale: live.len() < entries.len(),
            twice: live.iter().collect::<BTreeSet<_>>().len() < live.len(),
            filled: entries.len() as u64 == info.len,
            tie: candidates.filter(|&&(util, _)| util == key).count() > 1,
            open_was_lower: self.table.get(self.open).live > 0
                && self.util_key(self.open) < self.util_key(victim),
            ..Pass::default()
        }
    }
}

/// Tallies one pass by what it looked like.
fn note_pass(tally: &mut Tally, pass: Pass) {
    tally.note("passes");
    tally.note_if(pass.stale, "stale");
    tally.note_if(pass.twice, "twice");
    tally.note(if pass.filled { "filled" } else { "part_filled" });
    tally.note_if(pass.tie, "tie");
    tally.note_if(pass.open_was_lower, "open_was_lower");
    tally.note_if(pass.crossed, "crossed");
}

// ---------------------------------------------------------------------
// The comparison.
// ---------------------------------------------------------------------

/// Everything observable about the two simulators is equal.
fn assert_same(fast: &LfsSim, scan: &ScanCleaner, healthy: bool) {
    assert_eq!(fast.tally(), scan.tally(), "tally");
    assert_eq!(fast.cleaner_passes(), scan.cleaner_passes(), "passes");
    assert_eq!(
        fast.segment_utilization_histogram(),
        scan.segment_utilization_histogram()
    );
    assert_eq!(fast.live_sectors(), scan.live_sectors(), "live sectors");
    let map: Vec<Option<usize>> = fast.locations().collect();
    assert_eq!(map, scan.location, "logical -> segment map");
    // Per-segment live counts: the fast side's usage table agrees with its
    // map (`check_consistency`), the map is the oracle's, and the oracle's
    // table agrees with that.
    assert_eq!(fast.check_consistency(), scan.check_consistency());
    if healthy {
        assert_eq!(fast.check_consistency(), Ok(()));
    }
}

/// Builds both simulators over `table` and runs `chunks` through them.
/// Every `run_updates` call replays its stream from the seed, so a chunk
/// is a prefix of the one stream — applied to whatever state the chunks
/// before it left.
fn check(tally: &mut Tally, table: SegmentTable, config: LfsConfig, chunks: &[u64]) {
    let mut fast = LfsSim::with_table(table.clone(), config);
    let mut scan = ScanCleaner::with_table(table, config);
    tally.note("cases");
    assert_same(&fast, &scan, true);
    for &updates in chunks {
        tally.note("chunks");
        let want = scan.run_updates(updates);
        assert_eq!(fast.run_updates(updates), want);
        assert_same(&fast, &scan, want.is_ok());
        for pass in scan.watch.passes.drain(..) {
            note_pass(tally, pass);
        }
        if want.is_err() {
            tally.note("failed");
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Cases.
// ---------------------------------------------------------------------

/// What a case draws besides its table: reserve (0…9, clamped to 1…8 so
/// that the ends are drawn twice as often — 1 is the reserve that runs dry
/// mid-pass), utilization, hot update and data fractions, seed.
type Knobs = (usize, f64, (f64, f64), u64);

fn arb_knobs() -> impl Strategy<Value = Knobs> {
    (
        0usize..10,
        0.3f64..0.95,
        (0.0f64..1.0, 0.0f64..1.0),
        0u64..1_000_000,
    )
}

/// Up to 60 000 updates a case.
fn arb_chunks() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..6_000, 0..11)
}

/// The configuration of a case over `table`: the reserve asked for, or the
/// largest that leaves four tenths of the log for data; the utilization
/// asked for, or the highest that reserve allows.
fn config_of(table: &SegmentTable, knobs: Knobs) -> LfsConfig {
    let (reserve, utilization, (hot_update_frac, hot_data_frac), seed) = knobs;
    let lens = || (0..table.len()).map(|seg| table.get(seg).len);
    let (capacity, longest) = (lens().sum::<u64>(), lens().max().expect("segments"));
    let reserve_segments = reserve.clamp(1, 8.min((capacity * 6 / 10 / longest) as usize - 2));
    let headroom = (reserve_segments as u64 + 2) * longest;
    LfsConfig {
        utilization: utilization.min((capacity - headroom) as f64 / capacity as f64 - 1e-9),
        hot_update_frac,
        hot_data_frac,
        reserve_segments,
        seed,
    }
}

/// Every kind of pass, and a chunk that ended in an error (the reserve ran
/// dry mid-pass), the same on both sides and with the same state left
/// behind.
const EVERY_KIND_OF_PASS: &[&str] = &[
    "stale",
    "twice",
    "filled",
    "part_filled",
    "tie",
    "open_was_lower",
    "crossed",
    "failed",
];

#[test]
fn fixed_segments_match_the_scan_cleaner() {
    let name = "fixed_segments_match_the_scan_cleaner";
    let mut tally = Tally::default();
    // 32…4 096-sector segments, 12 to 59 of them, on at most 2¹⁵ sectors
    // (a dozen segments when that is more).
    let arb_table = (0u32..8, 12u64..60).prop_map(|(size, segments)| {
        let sectors = 32u64 << size;
        SegmentTable::fixed(segments.min(12.max(32_768 / sectors)) * sectors, sectors)
    });
    for_cases(
        name,
        128,
        (arb_table, arb_knobs(), arb_chunks()),
        |(table, knobs, chunks)| {
            let config = config_of(&table, knobs);
            check(&mut tally, table, config, &chunks);
        },
    );
    tally.require(name, EVERY_KIND_OF_PASS);
}

#[test]
fn track_matched_segments_match_the_scan_cleaner() {
    let name = "track_matched_segments_match_the_scan_cleaner";
    let mut tally = Tally::default();
    let arb_table = prop::collection::vec(60u64..200, 16..72).prop_map(|tracks| {
        SegmentTable::track_matched(&TrackBoundaries::from_track_lengths(tracks).unwrap())
    });
    for_cases(
        name,
        128,
        (arb_table, arb_knobs(), arb_chunks()),
        |(table, knobs, chunks)| {
            let config = config_of(&table, knobs);
            check(&mut tally, table, config, &chunks);
        },
    );
    tally.require(name, EVERY_KIND_OF_PASS);
}

// ---------------------------------------------------------------------
// Configurations the parent accepted and then panicked on mid-run: an
// index past an empty location map, `gen_bool` on a probability that is
// none, a hot set larger than the log.
// ---------------------------------------------------------------------

fn small_log(config: LfsConfig) -> LfsSim {
    LfsSim::fixed(4096, 128, config)
}

#[test]
#[should_panic(expected = "utilization leaves no live sector")]
fn a_log_with_nothing_live_is_rejected() {
    small_log(LfsConfig {
        utilization: 1e-6,
        ..LfsConfig::default()
    });
}

#[test]
#[should_panic(expected = "hot fractions lie in [0, 1]")]
fn a_hot_update_fraction_that_is_not_a_number_is_rejected() {
    small_log(LfsConfig {
        hot_update_frac: f64::NAN,
        ..LfsConfig::default()
    });
}

#[test]
#[should_panic(expected = "hot fractions lie in [0, 1]")]
fn a_hot_set_larger_than_the_log_is_rejected() {
    small_log(LfsConfig {
        hot_data_frac: 1.5,
        ..LfsConfig::default()
    });
}

// ---------------------------------------------------------------------
// A configuration the parent accepted and then never returned from: every
// update overwrites the one hot sector, each overwrite leaves a closed
// segment with nothing live (which no pass reclaims), and once enough of
// the log has leaked that way every cleanable segment is entirely live —
// a pass frees one segment and fills one, and `roll_segment` spins.
// ---------------------------------------------------------------------

#[test]
fn a_log_leaked_full_by_one_hot_sector_is_an_error_not_a_hang() {
    let (done, result) = std::sync::mpsc::channel();
    // On its own thread, so that a cleaner that spins fails the test
    // instead of hanging the suite (the thread is left behind).
    std::thread::spawn(move || {
        let mut sim = small_log(LfsConfig {
            hot_update_frac: 1.0,
            hot_data_frac: 0.0,
            reserve_segments: 2,
            ..LfsConfig::default()
        });
        let result = sim.run_updates(100_000);
        let _ = done.send((result, sim.check_consistency()));
    });
    let (result, consistency) = result
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the cleaner returns");
    assert_eq!(result, Err(LfsError::NoCleaningVictim));
    assert_eq!(consistency, Ok(()), "the log it stopped on is consistent");
}
