//! The general, interface-agnostic extraction algorithm (§4.1.1).
//!
//! Only `READ` timing is used — no diagnostic commands — so the algorithm
//! must overcome three obstacles the paper calls out:
//!
//! * **Rotational-latency variance**: probes are issued at a controlled
//!   offset within the rotational period. Each probe context calibrates the
//!   offset that minimizes a one-sector read's response time (head arrives
//!   just before the sector) and then keeps the residual rotational wait
//!   within a small budget by re-measuring one-sector reads as it walks.
//! * **Firmware caching**: many extraction streams at widespread disk
//!   locations proceed round-robin, so the segmented cache is churned
//!   between two probes of the same location (the paper interleaves 100).
//!   Each probe is additionally preceded by a positioning *write* to the
//!   context's anchor sector, which both parks the head at a fixed cylinder
//!   (making the probe's seek constant) and never hits the cache.
//! * **Arbitrary boundaries**: with the rotational wait controlled, the
//!   response of `read(S, N)` grows by one sector time per added sector
//!   while the request stays on one track, and jumps by a head-switch time
//!   (plus realignment) as soon as it crosses a boundary. The smallest
//!   crossing `N` is found by verify-then-binary-search, exactly as in the
//!   paper: the common case (next track same size) is confirmed with two
//!   probes.

use crate::error::with_retries;
use crate::error::{backoff, ExtractError, MAX_ATTEMPTS};
use scsi::ScsiDisk;
use sim_disk::{SimDur, SimTime};
use traxtent::obs::Registry;
use traxtent::TrackBoundaries;

/// Tuning for the general extractor.
#[derive(Debug, Clone, Copy)]
pub struct GeneralConfig {
    /// Number of interleaved probe streams (must exceed the firmware cache's
    /// segment count to defeat it; the paper uses 100).
    pub contexts: usize,
    /// Timing probes per boundary decision; the majority wins and the
    /// losing fraction lowers the boundary's confidence. Use an odd count
    /// (3, 5) on drives with timing jitter; `1` reproduces the noise-free
    /// single-probe behavior exactly.
    pub votes: u32,
}

impl Default for GeneralConfig {
    fn default() -> Self {
        GeneralConfig {
            contexts: 100,
            votes: 1,
        }
    }
}

/// Phases tried during per-context rotational calibration.
const CALIBRATION_PHASES: u32 = 32;
/// Response-time excess over the linear model that classifies a probe as
/// having crossed a track boundary: 250 µs, about half a head-switch time.
const CROSS_THRESHOLD: SimDur = SimDur::from_ns(250_000);
/// Residual rotational wait tolerated before re-aligning the probe phase,
/// as a fraction of a revolution.
const ROT_BUDGET_FRAC: f64 = 1.0 / 32.0;

/// The outcome of a general extraction.
#[derive(Debug, Clone)]
pub struct GeneralExtraction {
    /// The extracted boundary table.
    pub boundaries: TrackBoundaries,
    /// Total timed probe reads issued.
    pub probe_reads: u64,
    /// Probes per extracted track.
    pub probes_per_track: f64,
    /// Simulated wall-clock time the extraction took.
    pub elapsed: SimTime,
    /// Activity counters: where the probes went and how often the
    /// predict-and-verify fast path missed.
    pub counters: GeneralCounters,
    /// Simulated time spent in each step of the algorithm.
    pub steps: StepBreakdown,
    /// Per-track confidence in `[0, 1]`: the worst majority-vote agreement
    /// among the probe decisions that located the track's end boundary.
    /// With `votes: 1` every entry is `1.0`.
    pub confidence: Vec<f64>,
}

/// Activity counters of one general extraction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeneralCounters {
    /// Probes spent sweeping calibration phases.
    pub calibration_probes: u64,
    /// Rotational-convergence iterations: baseline re-measures that had to
    /// shift the issue phase before the residual wait fit the budget.
    pub convergence_iters: u64,
    /// Full recalibrations forced by persistent baseline drift.
    pub recalibrations: u64,
    /// Boundary mispredictions: verify probes that contradicted the
    /// predicted sectors-per-track and forced a re-measure or search.
    pub mispredictions: u64,
    /// Tracks confirmed by the two-probe verify fast path.
    pub verified_predictions: u64,
}

/// Simulated time a general extraction spent per algorithm step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepBreakdown {
    /// Rotational-phase calibration sweeps.
    pub calibrate: SimDur,
    /// One-sector baseline re-measures.
    pub baseline: SimDur,
    /// Per-sector slope measurement (the 17/33/49 ladder).
    pub slope: SimDur,
    /// Predict-and-verify probes.
    pub verify: SimDur,
    /// Upward doubling and bisection searches.
    pub search: SimDur,
}

impl GeneralExtraction {
    /// Mean per-track confidence (1.0 when every boundary decision was
    /// unanimous).
    pub fn mean_confidence(&self) -> f64 {
        if self.confidence.is_empty() {
            return 1.0;
        }
        self.confidence.iter().sum::<f64>() / self.confidence.len() as f64
    }

    /// Publishes the extraction's counters and step times (in simulated
    /// microseconds) under `dixtrac.general.*`.
    pub fn export_metrics(&self, reg: &Registry) {
        reg.add("dixtrac.general.probe_reads", self.probe_reads);
        reg.add(
            "dixtrac.general.tracks",
            self.boundaries.num_tracks() as u64,
        );
        let c = &self.counters;
        reg.add("dixtrac.general.calibration_probes", c.calibration_probes);
        reg.add("dixtrac.general.convergence_iters", c.convergence_iters);
        reg.add("dixtrac.general.recalibrations", c.recalibrations);
        reg.add("dixtrac.general.mispredictions", c.mispredictions);
        reg.add(
            "dixtrac.general.verified_predictions",
            c.verified_predictions,
        );
        let s = &self.steps;
        reg.add("dixtrac.general.us.calibrate", s.calibrate.as_ns() / 1_000);
        reg.add("dixtrac.general.us.baseline", s.baseline.as_ns() / 1_000);
        reg.add("dixtrac.general.us.slope", s.slope.as_ns() / 1_000);
        reg.add("dixtrac.general.us.verify", s.verify.as_ns() / 1_000);
        reg.add("dixtrac.general.us.search", s.search.as_ns() / 1_000);
        reg.add(
            "dixtrac.general.confidence_ppm",
            (self.mean_confidence() * 1e6) as u64,
        );
    }
}

/// What a context is currently doing.
#[derive(Debug, Clone, Copy)]
enum State {
    /// Trying calibration phase `i`; best (response, phase) so far.
    Calibrate {
        i: u32,
        best_r: SimDur,
        best_phase: SimDur,
    },
    /// Re-measuring the one-sector baseline at the current phase.
    Baseline { attempts: u32 },
    /// Measuring the linear model's slope: point `i` of the `1 + w`,
    /// `1 + 2w`, `1 + 3w`-sector ladder, with the responses gathered so
    /// far.
    SlotProbe { i: u8, w: u64, r: [SimDur; 3] },
    /// Verifying that the predicted `p` sectors do not cross. This and the
    /// three searches below judge crossings by the measured `slope`.
    VerifyLow { p: u64, slope: SimDur },
    /// Verifying that `p + 1` sectors do cross.
    VerifyHigh { p: u64, slope: SimDur },
    /// Doubling `hi` until a crossing is found; `lo` is known non-crossing.
    SearchUp { lo: u64, hi: u64, slope: SimDur },
    /// Bisecting: `lo` non-crossing, `hi` crossing.
    Bisect { lo: u64, hi: u64, slope: SimDur },
    /// Region finished.
    Done,
}

impl State {
    /// A fresh slope measurement over `w`-sector windows.
    fn slot_probe(w: u64) -> State {
        State::SlotProbe {
            i: 0,
            w,
            r: [SimDur::ZERO; 3],
        }
    }
}

/// One interleaved probe stream.
#[derive(Debug)]
struct Context {
    /// End of the region this context is responsible for.
    region_end: u64,
    /// Start of the track currently being measured.
    s: u64,
    /// Issue phase within the revolution.
    phase: SimDur,
    /// Smallest one-sector response observed (rotational wait ≈ 0).
    floor_r1: SimDur,
    /// One-sector response at the current track/phase (the comparison base).
    baseline: SimDur,
    /// Predicted sectors per track.
    spt_est: Option<u64>,
    /// Measured per-sector response-time slope (the linear model of §4.1.1).
    slope: Option<SimDur>,
    /// The track start the slope was measured at, to spot staleness when a
    /// prediction fails (e.g. on zone changes, where the sector time moves).
    slope_at: Option<u64>,
    state: State,
    /// Worst vote agreement among the decisions since the last boundary.
    cur_conf: f64,
    /// Boundaries found, each with the confidence of the decisions that
    /// located it (first entry is the first boundary at or after the region
    /// start).
    found: Vec<(u64, f64)>,
}

/// Runs the general extraction over the whole disk.
///
/// Fails when the drive keeps aborting probes past the retry budget, or
/// rejects a probe address outright. Needs no diagnostic commands, so it is
/// the fallback when [`crate::extract_scsi`] reports
/// [`ExtractError::DiagnosticsUnsupported`].
///
/// # Panics
///
/// Panics if `config.contexts` is zero or exceeds the number of LBNs.
pub fn extract_general(
    disk: &mut ScsiDisk,
    config: &GeneralConfig,
) -> Result<GeneralExtraction, ExtractError> {
    let capacity = disk.read_capacity();
    if capacity == 0 {
        return Err(ExtractError::ZeroCapacity);
    }
    let rev = disk.revolution();
    assert!(config.contexts > 0, "need at least one context");
    assert!(
        (config.contexts as u64) <= capacity,
        "more contexts than sectors"
    );

    let mut contexts: Vec<Context> = (0..config.contexts)
        .map(|i| {
            let start = capacity * i as u64 / config.contexts as u64;
            let end = capacity * (i as u64 + 1) / config.contexts as u64;
            Context {
                region_end: end,
                s: start,
                phase: SimDur::ZERO,
                floor_r1: SimDur::from_secs_f64(f64::MAX / 1e18),
                baseline: SimDur::ZERO,
                spt_est: None,
                slope: None,
                slope_at: None,
                state: State::Calibrate {
                    i: 0,
                    best_r: SimDur::from_secs_f64(3600.0),
                    best_phase: SimDur::ZERO,
                },
                cur_conf: 1.0,
                found: Vec::new(),
            }
        })
        .collect();

    let mut probe_reads = 0u64;
    let mut counters = GeneralCounters::default();
    let mut steps = StepBreakdown::default();
    let mut active = contexts.len();
    while active > 0 {
        for ctx in &mut contexts {
            if matches!(ctx.state, State::Done) {
                continue;
            }
            let slot = step_slot(&ctx.state);
            let before = disk.elapsed();
            step(
                disk,
                ctx,
                rev,
                capacity,
                config,
                &mut probe_reads,
                &mut counters,
            )?;
            let spent = disk.elapsed() - before;
            *slot_of(&mut steps, slot) = *slot_of(&mut steps, slot) + spent;
            if matches!(ctx.state, State::Done) {
                active -= 1;
            }
        }
    }

    // Merge: all discovered boundaries, plus the origin. Where two contexts
    // found the same boundary, keep the lower confidence (the cautious
    // merge never overstates what the probes agreed on). A context starts
    // mid-track, where its slope windows may have run into a zone of
    // faster sectors; its predecessor walked on from a track start to a
    // boundary at or past that start, so where the two disagree on the
    // sectors before that boundary, the predecessor's walk wins.
    let mut conf_of: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    for (k, c) in contexts.iter().enumerate() {
        let before = k.checked_sub(1).map(|j| &contexts[j].found);
        let covered = before.and_then(|f| f.last()).map_or(0, |&(b, _)| b);
        let agrees =
            |b: u64| b >= covered || before.is_some_and(|f| f.iter().any(|&(p, _)| p == b));
        for &(b, conf) in c.found.iter().filter(|&&(b, _)| agrees(b)) {
            let e = conf_of.entry(b).or_insert(conf);
            *e = e.min(conf);
        }
    }
    let mut starts: Vec<u64> = conf_of.keys().copied().collect();
    starts.push(0);
    starts.sort_unstable();
    starts.dedup();
    starts.retain(|&b| b < capacity);
    let boundaries = TrackBoundaries::new(starts, capacity)
        .map_err(|_| ExtractError::InvalidTable("merged boundary table is invalid"))?;
    // A track inherits the confidence of the boundary that ends it; the
    // final track's end (the capacity) was never voted on and stays 1.0.
    let confidence: Vec<f64> = (0..boundaries.num_tracks())
        .map(|i| {
            let e = boundaries.track_extent(i);
            conf_of.get(&(e.start + e.len)).copied().unwrap_or(1.0)
        })
        .collect();

    Ok(GeneralExtraction {
        probes_per_track: probe_reads as f64 / boundaries.num_tracks() as f64,
        probe_reads,
        elapsed: disk.elapsed(),
        boundaries,
        counters,
        steps,
        confidence,
    })
}

/// Which [`StepBreakdown`] slot a state's probes are charged to.
fn step_slot(state: &State) -> usize {
    match state {
        State::Calibrate { .. } => 0,
        State::Baseline { .. } => 1,
        State::SlotProbe { .. } => 2,
        State::VerifyLow { .. } | State::VerifyHigh { .. } => 3,
        State::SearchUp { .. } | State::Bisect { .. } | State::Done => 4,
    }
}

/// The mutable slot for [`step_slot`]'s index.
fn slot_of(steps: &mut StepBreakdown, slot: usize) -> &mut SimDur {
    match slot {
        0 => &mut steps.calibrate,
        1 => &mut steps.baseline,
        2 => &mut steps.slope,
        3 => &mut steps.verify,
        _ => &mut steps.search,
    }
}

/// Executes one probe for the context and advances its state machine.
fn step(
    disk: &mut ScsiDisk,
    ctx: &mut Context,
    rev: SimDur,
    capacity: u64,
    config: &GeneralConfig,
    probe_reads: &mut u64,
    counters: &mut GeneralCounters,
) -> Result<(), ExtractError> {
    // Positioning write at the probe target itself: it parks the head on
    // the target track (making the probe's non-rotational cost constant
    // across the whole walk) and — because a write invalidates its sectors
    // in the firmware cache — guarantees the timed read that follows cannot
    // be a cache hit, even when most other probe streams have finished and
    // the interleave alone no longer churns the cache. One scratch sector
    // per track is sacrificed; the paper notes the destructiveness of
    // write-based probing, which is why the production path is the
    // SCSI-specific extractor.
    let anchor = ctx.s;
    let _ = with_retries(disk, "write", anchor, |d| d.write_at(anchor, 1))?;

    let probe = |disk: &mut ScsiDisk,
                 lbn: u64,
                 len: u64,
                 phase: SimDur,
                 n: &mut u64|
     -> Result<SimDur, ExtractError> {
        let mut attempt = 0;
        loop {
            *n += 1;
            let now = disk.elapsed();
            // Next instant at or after `now` whose offset within the
            // revolution equals `phase`.
            let rev_ns = rev.as_ns();
            let now_off = now.as_ns() % rev_ns;
            let wait = (phase.as_ns() + rev_ns - now_off) % rev_ns;
            let at = now + SimDur::from_ns(wait);
            match disk.read_at_time(lbn, len, at) {
                Ok(c) => return Ok(c.response_time()),
                Err(e) if e.is_transient() => {
                    // The rotation-synchronized issue instant is recomputed
                    // on the next pass, so backing off never skews the
                    // probe phase.
                    attempt += 1;
                    if attempt >= MAX_ATTEMPTS {
                        return Err(ExtractError::RetriesExhausted {
                            command: "read",
                            lbn,
                            attempts: attempt,
                        });
                    }
                    disk.wait(backoff(attempt - 1));
                }
                Err(e) => return Err(e.into()),
            }
        }
    };

    // A measurement under `config.votes`: repeat the probe and keep the
    // *minimum* response. Rotational noise only ever delays a response
    // (the platter cannot present data early), so the smallest observation
    // is the cleanest one — this keeps the calibrated phase, baseline, and
    // slope from inheriting one unlucky draw and silently eating the
    // rotational margin every later decision depends on. With `votes: 1`
    // this is a single probe and no extra commands.
    let measure = |disk: &mut ScsiDisk,
                   len: u64,
                   phase: SimDur,
                   n: &mut u64|
     -> Result<SimDur, ExtractError> {
        let mut best = probe(disk, anchor, len, phase, n)?;
        for _ in 1..config.votes.max(1) {
            let _ = with_retries(disk, "write", anchor, |d| d.write_at(anchor, 1))?;
            best = best.min(probe(disk, anchor, len, phase, n)?);
        }
        Ok(best)
    };

    // The linear model of §4.1.1: a non-crossing `read(s, n)` responds in
    // `baseline + (n − 1) × slope`; a boundary crossing adds a head switch
    // plus realignment, far above the threshold. Requests running past the
    // end of the disk cross by definition. A read that crosses into a zone
    // of faster sectors can instead come in far *under* the model once
    // enough of it lies past the boundary, which no read inside one track
    // can: `under` reports that.
    let crosses = |r: SimDur, baseline: SimDur, slope: SimDur, n: u64| -> bool {
        r > baseline + slope * (n - 1) + CROSS_THRESHOLD
    };
    let under = |r: SimDur, baseline: SimDur, slope: SimDur, n: u64| -> bool {
        r + CROSS_THRESHOLD < baseline + slope * (n - 1)
    };

    // A boundary decision under `config.votes`: probe the same request
    // repeatedly — each repeat preceded by a fresh positioning write so the
    // firmware cache cannot answer it — and let the majority decide. The
    // losing fraction is the decision's doubt. With `votes: 1` this is one
    // probe and no extra commands, bit-identical to the noise-free path.
    let vote = |disk: &mut ScsiDisk,
                len: u64,
                phase: SimDur,
                baseline: SimDur,
                slope: SimDur,
                n: &mut u64|
     -> Result<(bool, bool, f64), ExtractError> {
        let votes = config.votes.max(1);
        let (mut crossing, mut below) = (0u32, 0u32);
        for v in 0..votes {
            if v > 0 {
                let _ = with_retries(disk, "write", anchor, |d| d.write_at(anchor, 1))?;
            }
            let r = probe(disk, anchor, len, phase, n)?;
            crossing += u32::from(crosses(r, baseline, slope, len));
            below += u32::from(under(r, baseline, slope, len));
        }
        let majority = crossing * 2 > votes;
        let agree = f64::from(crossing.max(votes - crossing)) / f64::from(votes);
        Ok((majority, below * 2 > votes, agree))
    };

    match ctx.state {
        State::Calibrate {
            i,
            best_r,
            best_phase,
        } => {
            counters.calibration_probes += 1;
            let phase = SimDur::from_ns(rev.as_ns() * u64::from(i) / u64::from(CALIBRATION_PHASES));
            let r = measure(disk, 1, phase, probe_reads)?;
            let (best_r, best_phase) = if r < best_r {
                (r, phase)
            } else {
                (best_r, best_phase)
            };
            if i + 1 < CALIBRATION_PHASES {
                ctx.state = State::Calibrate {
                    i: i + 1,
                    best_r,
                    best_phase,
                };
            } else {
                ctx.phase = best_phase;
                ctx.floor_r1 = ctx.floor_r1.min(best_r);
                ctx.baseline = best_r;
                if config.votes > 1 {
                    // Voting means the caller expects noise. The calibrated
                    // phase has ~zero rotational margin (it minimized the
                    // response), so the smallest spindle jitter pushes the
                    // probe past its sector and costs a spurious full
                    // revolution. Issue a guard band early — the same
                    // rev/128 the between-track baseline convergence
                    // targets — and fold the extra wait into the model
                    // baseline.
                    let guard = SimDur::from_ns(rev.as_ns() / 128);
                    ctx.phase = SimDur::from_ns(
                        (ctx.phase.as_ns() + rev.as_ns() - guard.as_ns()) % rev.as_ns(),
                    );
                    ctx.baseline += guard;
                }
                ctx.state = State::slot_probe(16);
            }
        }
        State::SlotProbe { i, w, mut r } => {
            // Three windows of `w` sectors: the 17/33/49 ladder wherever
            // the disk leaves room for it, narrower ones near its end. A
            // zero slope there would call every read longer than the
            // threshold over one sector time a crossing, and cut the
            // disk's last track into slivers of a few sectors.
            let w = ((capacity - ctx.s - 1) / 3).min(w);
            if w == 0 {
                // Three sectors or fewer remain: keep the slope measured
                // before, if any; with none, reads this short cross the
                // threshold only on a drive slower than about 125 µs a
                // sector.
                let slope = ctx.slope.unwrap_or(SimDur::ZERO);
                ctx.slope = Some(slope);
                ctx.slope_at = Some(ctx.s);
                ctx.state = next_measure_state(ctx, slope, capacity);
                return Ok(());
            }
            let lens = [1 + w, 1 + 2 * w, 1 + 3 * w];
            r[i as usize] = measure(disk, lens[i as usize], ctx.phase, probe_reads)?;
            if usize::from(i) + 1 < lens.len() {
                ctx.state = State::SlotProbe { i: i + 1, w, r };
                return Ok(());
            }
            // Per-sector slope over three `w`-sector windows. A slipped
            // defect or a track boundary inside a window only ever inflates
            // it, so the *minimum* of the windows is the clean sector time
            // whenever at least one window is clean — which makes the linear
            // model immune to the defects that perturb track sizes in the
            // first place. One pathology must be filtered first: when two
            // consecutive windows both cross into a rotationally phase-
            // locked next track, their difference measures only the *bus*
            // time per sector. No drive has more than ~1024 sectors per
            // track, so any window below rev/1024 is physically impossible
            // as a media rate and is discarded.
            let floor = SimDur::from_ns(rev.as_ns() / 1024);
            let windows = [
                r[0].saturating_sub(ctx.baseline) / w,
                r[1].saturating_sub(r[0]) / w,
                r[2].saturating_sub(r[1]) / w,
            ];
            if windows[1] < floor && windows[2] < floor && w > 1 {
                // The later windows both crossed, so the boundary lies in
                // the first and no window timed this track alone: narrow
                // them until one does.
                ctx.state = State::slot_probe(w / 2);
                return Ok(());
            }
            let slope = windows
                .iter()
                .copied()
                .filter(|&w| w >= floor)
                .min()
                .unwrap_or(floor);
            ctx.slope = Some(slope);
            ctx.slope_at = Some(ctx.s);
            ctx.state = next_measure_state(ctx, slope, capacity);
        }
        State::Baseline { attempts } => {
            let r = measure(disk, 1, ctx.phase, probe_reads)?;
            ctx.floor_r1 = ctx.floor_r1.min(r);
            let excess = r.saturating_sub(ctx.floor_r1);
            let budget = SimDur::from_ns((rev.as_ns() as f64 * ROT_BUDGET_FRAC) as u64);
            if excess <= budget {
                ctx.baseline = r;
                ctx.state = match ctx.slope {
                    Some(slope) => next_measure_state(ctx, slope, capacity),
                    None => State::slot_probe(16),
                };
            } else if attempts < 3 {
                // Shift the issue phase so the head arrives just before the
                // sector instead of `excess` early.
                counters.convergence_iters += 1;
                let target = SimDur::from_ns(rev.as_ns() / 128);
                ctx.phase = SimDur::from_ns(
                    (ctx.phase.as_ns() + excess.saturating_sub(target).as_ns()) % rev.as_ns(),
                );
                ctx.state = State::Baseline {
                    attempts: attempts + 1,
                };
            } else {
                // Persistent drift (e.g. zone change altered the layout):
                // recalibrate from scratch.
                counters.recalibrations += 1;
                ctx.state = State::Calibrate {
                    i: 0,
                    best_r: SimDur::from_secs_f64(3600.0),
                    best_phase: SimDur::ZERO,
                };
            }
        }
        State::VerifyLow { p, slope } => {
            if ctx.s + p >= capacity {
                ctx.state = State::Bisect {
                    lo: 1,
                    hi: capacity - ctx.s + 1,
                    slope,
                };
                return Ok(());
            }
            let (crossed, _, agree) = vote(disk, p, ctx.phase, ctx.baseline, slope, probe_reads)?;
            ctx.cur_conf = ctx.cur_conf.min(agree);
            if crossed {
                counters.mispredictions += 1;
                if ctx.slope_at == Some(ctx.s) {
                    // The prediction overshot: bisect below it.
                    ctx.state = State::Bisect {
                        lo: 1,
                        hi: p,
                        slope,
                    };
                } else {
                    // The failed prediction may mean the layout changed under
                    // us (zone boundary): re-measure the slope here first.
                    ctx.state = State::slot_probe(16);
                }
            } else {
                ctx.state = State::VerifyHigh { p, slope };
            }
        }
        State::VerifyHigh { p, slope } => {
            if ctx.s + p + 1 > capacity {
                // The predicted track would end exactly at (or past) the end
                // of the disk.
                finish_track(ctx, (capacity - ctx.s).min(p), capacity);
                return Ok(());
            }
            let (crossed, _, agree) =
                vote(disk, p + 1, ctx.phase, ctx.baseline, slope, probe_reads)?;
            ctx.cur_conf = ctx.cur_conf.min(agree);
            if crossed {
                counters.verified_predictions += 1;
                finish_track(ctx, p, capacity);
            } else if ctx.slope_at == Some(ctx.s) {
                counters.mispredictions += 1;
                ctx.state = State::SearchUp {
                    lo: p + 1,
                    hi: (p + 1) * 2,
                    slope,
                };
            } else {
                counters.mispredictions += 1;
                ctx.state = State::slot_probe(16);
            }
        }
        State::SearchUp { lo, hi, slope } => {
            if ctx.s + hi > capacity {
                ctx.state = State::Bisect {
                    lo,
                    hi: capacity - ctx.s + 1,
                    slope,
                };
                return Ok(());
            }
            let (crossed, faster, agree) =
                vote(disk, hi, ctx.phase, ctx.baseline, slope, probe_reads)?;
            ctx.cur_conf = ctx.cur_conf.min(agree);
            // A track is one revolution: it holds at most `rev / slope`
            // sectors, so a read of `revolution` sectors crosses, and a
            // crossing into faster sectors that the doubling overshot lies
            // below it. Past such a crossing a read can also come in on
            // the model, so a `lo` that long proves nothing: bisect from
            // one sector instead.
            let revolution = rev.as_ns() / slope.as_ns().max(1) + 1;
            if crossed {
                ctx.state = State::Bisect { lo, hi, slope };
            } else if faster && revolution < hi {
                ctx.state = State::Bisect {
                    lo: if lo < revolution { lo } else { 1 },
                    hi: revolution,
                    slope,
                };
            } else {
                ctx.state = State::SearchUp {
                    lo: hi,
                    hi: hi * 2,
                    slope,
                };
            }
        }
        State::Bisect { lo, hi, slope } => {
            if hi - lo <= 1 {
                finish_track(ctx, lo, capacity);
                return Ok(());
            }
            let mid = lo + (hi - lo) / 2;
            let (crossed, _, agree) = vote(disk, mid, ctx.phase, ctx.baseline, slope, probe_reads)?;
            ctx.cur_conf = ctx.cur_conf.min(agree);
            if crossed {
                ctx.state = State::Bisect { lo, hi: mid, slope };
            } else {
                ctx.state = State::Bisect { lo: mid, hi, slope };
            }
        }
        State::Done => {}
    }
    Ok(())
}

/// Chooses what to do at a fresh `s` once the baseline is trustworthy and
/// the per-sector `slope` is measured.
fn next_measure_state(ctx: &Context, slope: SimDur, capacity: u64) -> State {
    match ctx.spt_est {
        Some(p) => State::VerifyLow { p, slope },
        None => {
            // No prediction yet: find an upper bound by doubling.
            let hi = 2u64.min(capacity - ctx.s);
            State::SearchUp { lo: 1, hi, slope }
        }
    }
}

/// Records the boundary at `s + spt` and advances to the next track (or
/// finishes the region).
fn finish_track(ctx: &mut Context, spt: u64, capacity: u64) {
    let boundary = ctx.s + spt;
    // A changed track size (zone boundary, spare area) may also change the
    // per-sector slope: measure it afresh on the next track.
    if ctx.spt_est != Some(spt) {
        ctx.slope = None;
    }
    ctx.spt_est = Some(spt);
    if boundary >= capacity {
        ctx.state = State::Done;
        return;
    }
    ctx.found.push((boundary, ctx.cur_conf));
    ctx.cur_conf = 1.0;
    ctx.s = boundary;
    if ctx.s >= ctx.region_end {
        ctx.state = State::Done;
    } else {
        ctx.state = State::Baseline { attempts: 0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_disk::defects::{DefectPolicy, SpareScheme};
    use sim_disk::disk::Disk;
    use sim_disk::models;

    fn test_config() -> GeneralConfig {
        // Fewer contexts than the paper's 100 (the test disk is small), but
        // still comfortably above the 10 cache segments.
        GeneralConfig {
            contexts: 24,
            ..GeneralConfig::default()
        }
    }

    #[test]
    fn pristine_small_disk_extracts_exactly() {
        let disk = Disk::new(models::small_test_disk());
        let expect = disk.track_boundaries();
        let mut s = ScsiDisk::new(disk);
        let got = extract_general(&mut s, &test_config()).expect("extraction succeeds");
        assert_eq!(got.boundaries, expect);
        assert!(
            got.probes_per_track < 12.0,
            "probe cost too high: {} per track",
            got.probes_per_track
        );
    }

    #[test]
    fn slipped_defects_still_extract_exactly() {
        let cfg = models::with_factory_defects(
            models::small_test_disk(),
            SpareScheme::SectorsPerCylinder(8),
            DefectPolicy::Slip,
            600,
            17,
        );
        let disk = Disk::new(cfg);
        let expect = disk.track_boundaries();
        let mut s = ScsiDisk::new(disk);
        let got = extract_general(&mut s, &test_config()).expect("extraction succeeds");
        assert_eq!(got.boundaries, expect);
    }

    #[test]
    fn per_track_spares_extract_exactly() {
        let cfg = models::with_factory_defects(
            models::small_test_disk(),
            SpareScheme::SectorsPerTrack(2),
            DefectPolicy::Slip,
            400,
            23,
        );
        let disk = Disk::new(cfg);
        let expect = disk.track_boundaries();
        let mut s = ScsiDisk::new(disk);
        let got = extract_general(&mut s, &test_config()).expect("extraction succeeds");
        assert_eq!(got.boundaries, expect);
    }

    #[test]
    fn extraction_time_is_reported() {
        let disk = Disk::new(models::small_test_disk());
        let mut s = ScsiDisk::new(disk);
        let got = extract_general(&mut s, &test_config()).expect("extraction succeeds");
        assert!(got.elapsed > SimTime::ZERO);
        assert!(got.probe_reads > 0);
    }

    #[test]
    fn counters_and_step_times_account_for_the_run() {
        let disk = Disk::new(models::small_test_disk());
        let mut s = ScsiDisk::new(disk);
        let got = extract_general(&mut s, &test_config()).expect("extraction succeeds");
        let c = got.counters;
        assert!(c.calibration_probes > 0, "calibration always runs");
        assert!(
            c.verified_predictions > 0,
            "most tracks confirm via the fast path"
        );
        assert!(
            c.verified_predictions + c.mispredictions > 0
                && c.verified_predictions > c.mispredictions,
            "fast path should dominate: {c:?}"
        );
        let total = got.steps.calibrate
            + got.steps.baseline
            + got.steps.slope
            + got.steps.verify
            + got.steps.search;
        assert!(total > SimDur::ZERO);
        assert!(
            total <= got.elapsed - SimTime::ZERO,
            "step times cannot exceed the run"
        );

        let reg = Registry::new();
        got.export_metrics(&reg);
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("dixtrac.general.probe_reads"),
            Some(got.probe_reads)
        );
        assert_eq!(
            snap.get("dixtrac.general.verified_predictions"),
            Some(c.verified_predictions)
        );
        assert!(snap.get("dixtrac.general.us.verify").unwrap_or(0) > 0);
    }

    #[test]
    #[should_panic(expected = "at least one context")]
    fn zero_contexts_panics() {
        let disk = Disk::new(models::small_test_disk());
        let mut s = ScsiDisk::new(disk);
        let cfg = GeneralConfig {
            contexts: 0,
            ..GeneralConfig::default()
        };
        let _ = extract_general(&mut s, &cfg);
    }
}
