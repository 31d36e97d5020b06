//! The elevators against the algorithm they replaced.
//!
//! `CLook` and `Traxtent` keep a lane in sweep order — `(lbn, id)` — as
//! arrivals are admitted, and a round works on the lane in place. Before,
//! every round copied the lane into a side table, sorted it, and removed
//! what it dispatched by index. That algorithm lives on here, verbatim, as
//! the oracle ([`RefCLook`], [`RefTraxtent`]): sort every round, `retain`
//! by index.
//!
//! Each case drives three lanes through one random interleaving of
//! admissions and rounds: the scheduler under test on a lane built through
//! `admit`, the same scheduler on a lane handed over in arrival order (the
//! shape `sched_props` and the benchmark's `price_select` use), and the
//! oracle. Every round's commands, the wrap count and the surviving set
//! must be equal, and the first two lanes must be left in sweep order. The
//! properties print how often each path ran and fail if one hardly did.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use server::{CLook, Dispatch, Queued, Scheduler, Traxtent};
use sim_disk::disk::{Op, Request};
use sim_disk::SimTime;
use traxtent::{ConfidentBoundaries, TrackBoundaries};

// ---------------------------------------------------------------------
// The oracle: the parent's schedulers, sorting every round.
// ---------------------------------------------------------------------

fn single(q: Queued) -> Dispatch {
    Dispatch {
        request: q.request,
        first: q,
        rest: Vec::new(),
    }
}

/// One queued request's place in the sweep. Ordering is `(lbn, id)` —
/// the elevator's order — with the request's index in the queue last, so
/// sorting slots equals a stable sort of the queue by `(lbn, id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Slot {
    lbn: u64,
    id: u64,
    at: usize,
}

#[derive(Debug, Default, Clone)]
struct RefSweep {
    pos: u64,
    wraps: u64,
    /// The whole queue in sweep order. Every round derives its anchor and
    /// everything it gathers from this one sort.
    order: Vec<Slot>,
    /// Queue indices of the requests the round dispatches.
    taken: Vec<usize>,
}

impl RefSweep {
    /// Sorts the (non-empty) queue into `order` and returns where the
    /// ascending sweep resumes: the first slot at or above `pos`. When
    /// nothing lies there the sweep wraps: `wraps` is incremented and it
    /// restarts from the lowest pending LBN.
    fn start(&mut self, pending: &[Queued]) -> usize {
        self.order.clear();
        self.order
            .extend(pending.iter().enumerate().map(|(at, q)| Slot {
                lbn: q.request.lbn,
                id: q.id,
                at,
            }));
        self.order.sort_unstable();
        let start = self.order.partition_point(|s| s.lbn < self.pos);
        if start < self.order.len() {
            start
        } else {
            self.wraps += 1;
            self.pos = 0;
            0
        }
    }

    /// One plain elevator round: up to `max_batch` slots of `order` from
    /// `start`, one command each, leaving the sweep at the last of them.
    fn round(
        &mut self,
        pending: &mut Vec<Queued>,
        start: usize,
        max_batch: usize,
    ) -> Vec<Dispatch> {
        let run = &self.order[start..self.order.len().min(start + max_batch)];
        if let Some(last) = run.last() {
            self.pos = last.lbn;
        }
        let round = run.iter().map(|s| single(pending[s.at])).collect();
        self.taken.clear();
        self.taken.extend(run.iter().map(|s| s.at));
        self.remove_taken(pending);
        round
    }

    /// Removes the queue entries at the indices `taken` (distinct and in
    /// bounds), preserving the relative order of the survivors.
    fn remove_taken(&mut self, pending: &mut Vec<Queued>) {
        self.taken.sort_unstable();
        assert!(
            self.taken.windows(2).all(|w| w[0] < w[1]),
            "duplicate dispatch"
        );
        let mut gone = self.taken.iter().peekable();
        let mut i = 0;
        pending.retain(|_| {
            let hit = gone.next_if_eq(&&i).is_some();
            i += 1;
            !hit
        });
    }
}

#[derive(Debug, Default)]
struct RefCLook {
    sweep: RefSweep,
}

impl Scheduler for RefCLook {
    fn select(&mut self, pending: &mut Vec<Queued>, max_batch: usize) -> Vec<Dispatch> {
        if pending.is_empty() {
            return Vec::new();
        }
        let start = self.sweep.start(pending);
        self.sweep.round(pending, start, max_batch)
    }

    fn wraps(&self) -> u64 {
        self.sweep.wraps
    }
}

struct RefTraxtent {
    sweep: RefSweep,
    boundaries: ConfidentBoundaries,
    threshold: f64,
}

impl Scheduler for RefTraxtent {
    fn select(&mut self, pending: &mut Vec<Queued>, max_batch: usize) -> Vec<Dispatch> {
        if pending.is_empty() {
            return Vec::new();
        }
        let sweep = &mut self.sweep;
        let start = sweep.start(pending);
        if pending.len() == 1 {
            return sweep.round(pending, start, max_batch);
        }
        let table = self.boundaries.table();
        let anchor = pending[sweep.order[start].at].request;
        let track = table.track_index(anchor.lbn);
        let ext = table.track_extent(track);
        if !(self.boundaries.is_confident(track, self.threshold) && anchor.end() <= ext.end()) {
            return sweep.round(pending, start, max_batch);
        }
        let mut lo = start;
        while lo > 0 && sweep.order[lo - 1].lbn >= ext.start {
            lo -= 1;
        }
        let mut round: Vec<Dispatch> = Vec::new();
        sweep.taken.clear();
        for slot in &sweep.order[lo..] {
            if sweep.taken.len() == max_batch || slot.lbn >= ext.end() {
                break;
            }
            let q = pending[slot.at];
            if q.request.end() > ext.end() {
                continue;
            }
            sweep.pos = slot.lbn;
            sweep.taken.push(slot.at);
            match round.last_mut() {
                Some(d) if d.request.op == q.request.op && d.request.end() == slot.lbn => {
                    d.request.len += q.request.len;
                    d.rest.push(q);
                }
                _ => round.push(single(q)),
            }
        }
        sweep.remove_taken(pending);
        round
    }

    fn wraps(&self) -> u64 {
        self.sweep.wraps
    }
}

// ---------------------------------------------------------------------
// Which path a round takes, decided here from the lane before and after.
// ---------------------------------------------------------------------

fn sweep_key(q: &Queued) -> (u64, u64) {
    (q.request.lbn, q.id)
}

fn by_id(lane: &[Queued]) -> Vec<Queued> {
    let mut set = lane.to_vec();
    set.sort_unstable_by_key(|q| q.id);
    set
}

/// A round as comparable data: each command with its parts in order.
fn commands(round: &[Dispatch]) -> Vec<(Request, Vec<Queued>)> {
    round
        .iter()
        .map(|d| (d.request, d.parts().copied().collect()))
        .collect()
}

/// Drives `fast` (twice: a lane built through `admit`, and one handed over
/// in arrival order) and `oracle` through one interleaving of admissions
/// and rounds, asserting they agree round by round. `table`, when given,
/// is the traxtent boundary knowledge the tally classifies rounds by.
fn check_lanes<S: Scheduler, R: Scheduler>(
    tally: &mut Tally,
    mut fast: [S; 2],
    mut oracle: R,
    table: Option<(&ConfidentBoundaries, f64)>,
    requests: &[Queued],
    max_batch: usize,
    script_seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(script_seed);
    let (mut admitted, mut arrival, mut reference) = (Vec::new(), Vec::new(), Vec::new());
    let mut next = 0;
    while next < requests.len() || !reference.is_empty() {
        let burst = rng.gen_range(0..7usize).min(requests.len() - next);
        for &q in &requests[next..next + burst] {
            fast[0].admit(&mut admitted, q);
            assert!(
                admitted.is_sorted_by_key(sweep_key),
                "admit({q:?}) broke sweep order: {admitted:?}"
            );
            arrival.push(q);
            reference.push(q);
        }
        next += burst;
        if reference.is_empty() {
            continue;
        }

        let before = by_id(&reference);
        let wraps_before = oracle.wraps();
        tally.note("rounds");
        // The admit-built lane reaches `select` more than one deep (and in
        // sweep order, as asserted after every `admit`): no sort. The
        // arrival-order lane reaches it out of sweep order.
        tally.note_if(admitted.len() > 1, "presorted");
        tally.note_if(!arrival.is_sorted_by_key(sweep_key), "unsorted_fallback");

        let want = oracle.select(&mut reference, max_batch);
        let got = fast[0].select(&mut admitted, max_batch);
        let got_arrival = fast[1].select(&mut arrival, max_batch);
        assert_eq!(commands(&got), commands(&want), "admit-built lane");
        assert_eq!(
            commands(&got_arrival),
            commands(&want),
            "arrival-order lane"
        );
        assert!(!want.is_empty(), "a round makes progress");
        for (which, sched) in fast.iter().enumerate() {
            assert_eq!(sched.wraps(), oracle.wraps(), "wraps of lane {which}");
        }
        let survivors = by_id(&reference);
        assert_eq!(by_id(&admitted), survivors, "admit-built survivors");
        assert_eq!(by_id(&arrival), survivors, "arrival-order survivors");
        assert!(admitted.is_sorted_by_key(sweep_key), "{admitted:?}");
        assert!(arrival.is_sorted_by_key(sweep_key), "{arrival:?}");

        tally.note_if(oracle.wraps() > wraps_before, "wrap");
        let Some((map, threshold)) = table else {
            continue;
        };
        if before.len() == 1 {
            tally.note("lone"); // out without a table lookup
            continue;
        }
        let taken: Vec<Queued> = want.iter().flat_map(|d| d.parts().copied()).collect();
        let (lo, hi) = (sweep_key(&taken[0]), sweep_key(&taken[taken.len() - 1]));
        let between = |q: &Queued| lo < sweep_key(q) && sweep_key(q) < hi;
        // A request running past its track's end passed over between two
        // that were gathered; the batch bound ending a gather with more of
        // the track still queued.
        tally.note_if(survivors.iter().any(between), "straddler_skipped");
        let t = map.table().track_index(want[0].request.lbn);
        let ext = map.table().track_extent(t);
        let gathered = map.is_confident(t, threshold) && want[0].request.end() <= ext.end();
        let more = |q: &Queued| sweep_key(q) > hi && q.request.end() <= ext.end();
        tally.note_if(gathered && survivors.iter().any(more), "batch_cut");
    }
}

// ---------------------------------------------------------------------
// Cases.
// ---------------------------------------------------------------------

/// Track lengths with confidences, and a raw request stream
/// `(lbn_seed, len, op_flag, shape)`.
type Case = (Vec<(u64, f64)>, Vec<(u64, u64, u64, u8)>);

fn arb_case() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec((10u64..60, 0.0f64..1.0), 4..16),
        prop::collection::vec((0u64..1_000_000, 1u64..40, 0u64..2, 0u8..5), 1..120),
    )
}

fn table_of(tracks: &[(u64, f64)]) -> ConfidentBoundaries {
    let table = TrackBoundaries::from_track_lengths(tracks.iter().map(|t| t.0)).unwrap();
    ConfidentBoundaries::new(table, tracks.iter().map(|t| t.1).collect()).unwrap()
}

/// The requests of a case, ids in arrival order. `shape` places a request
/// relative to the one before it: 0 at the same LBN (equal keys but for
/// the id), 1 exactly behind it (the neighbours that coalesce), 2 starting
/// inside it (overlap); anything else lands wherever its seed says, which
/// leaves gaps. Nothing is clipped to a track, so some straddle.
fn requests_of(raw: &[(u64, u64, u64, u8)], cap: u64) -> Vec<Queued> {
    let mut prev = Request::read(0, 1);
    raw.iter()
        .enumerate()
        .map(|(id, &(lbn_seed, len, op_flag, shape))| {
            let lbn = match shape {
                0 => prev.lbn,
                1 => prev.end(),
                2 => prev.lbn + u64::from(prev.len) / 2,
                _ => lbn_seed,
            } % cap;
            let op = if op_flag == 0 { Op::Read } else { Op::Write };
            prev = Request::new(op, lbn, len.min(cap - lbn));
            Queued {
                id: id as u64,
                arrival: SimTime::from_ns(id as u64),
                request: prev,
            }
        })
        .collect()
}

#[test]
fn clook_matches_the_sort_every_round_oracle() {
    let mut tally = Tally::default();
    for_cases(
        "clook_matches_the_sort_every_round_oracle",
        256,
        (arb_case(), 1usize..41, 0u64..1_000_000),
        |((tracks, raw), max_batch, script_seed)| {
            let cap = tracks.iter().map(|t| t.0).sum();
            check_lanes(
                &mut tally,
                [CLook::new(), CLook::new()],
                RefCLook::default(),
                None,
                &requests_of(&raw, cap),
                max_batch,
                script_seed,
            );
        },
    );
    tally.require(
        "clook_matches_the_sort_every_round_oracle",
        &["presorted", "unsorted_fallback", "wrap"],
    );
}

#[test]
fn traxtent_matches_the_sort_every_round_oracle() {
    let mut tally = Tally::default();
    for_cases(
        "traxtent_matches_the_sort_every_round_oracle",
        256,
        (arb_case(), 0.3f64..0.95, 1usize..41, 0u64..1_000_000),
        |((tracks, raw), threshold, max_batch, script_seed)| {
            let map = table_of(&tracks);
            let fast = Traxtent::new(map.clone(), threshold);
            check_lanes(
                &mut tally,
                [fast.clone(), fast],
                RefTraxtent {
                    sweep: RefSweep::default(),
                    boundaries: map.clone(),
                    threshold,
                },
                Some((&map, threshold)),
                &requests_of(&raw, map.table().capacity()),
                max_batch,
                script_seed,
            );
        },
    );
    tally.require(
        "traxtent_matches_the_sort_every_round_oracle",
        &[
            "presorted",
            "unsorted_fallback",
            "straddler_skipped",
            "batch_cut",
            "wrap",
            "lone",
        ],
    );
}
