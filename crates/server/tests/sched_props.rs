//! Property-based tests for the scheduler invariants the server loop
//! depends on, over random geometries, confidence maps, and arrival
//! seeds:
//!
//! * every admitted request is dispatched exactly once (and every trace
//!   request either completes or is rejected — never both, never lost);
//! * C-LOOK never starves a request past a bounded number of sweeps: a
//!   request is dispatched within two wrap-arounds of its admission;
//! * traxtent-aware coalesced batches never cross a trusted track
//!   boundary, merge only contiguous same-op runs, and only form on
//!   tracks whose confidence clears the threshold;
//! * a traxtent round holds at most one track per spindle, over random
//!   spindle maps, within the one batch bound — and a table that names a
//!   single spindle schedules exactly like a table that names none;
//! * the traxtent sweep keeps C-LOOK's starvation bound for requests
//!   that lie inside one track, with one spindle and with several.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use server::{serve, CLook, Dispatch, Queued, Scheduler, SchedulerKind, ServerConfig, Traxtent};
use sim_disk::disk::{Disk, Op, Request};
use sim_disk::{models, SimTime};
use traxtent::{ConfidentBoundaries, TrackBoundaries};

/// A queued entry with id-derived arrival (arrival order == id order,
/// matching how the server loop assigns ids).
fn q(id: u64, op: Op, lbn: u64, len: u64) -> Queued {
    Queued {
        id,
        arrival: SimTime::from_ns(id),
        request: Request::new(op, lbn, len),
    }
}

/// Random `(track_len, confidence, spindle_seed)` tables plus a raw
/// request stream `(lbn_seed, len_seed, op_flag)`; seeds are reduced
/// modulo the table's capacity and the case's spindle count in the test
/// body (the vendored proptest has no flat-map).
#[allow(clippy::type_complexity)]
fn arb_table_case() -> impl Strategy<Value = (Vec<(u64, f64, u16)>, Vec<(u64, u64, u64)>)> {
    (
        prop::collection::vec((10u64..60, 0.0f64..1.0, 0u16..1000), 4..16),
        prop::collection::vec((0u64..1_000_000, 1u64..40, 0u64..2), 1..60),
    )
}

/// The table of a case, its tracks dealt onto `spindles` spindles
/// (0: the table carries no spindle ids).
fn table_of(tracks: &[(u64, f64, u16)], spindles: u16) -> ConfidentBoundaries {
    let table = TrackBoundaries::from_track_lengths(tracks.iter().map(|t| t.0)).unwrap();
    let map = ConfidentBoundaries::new(table, tracks.iter().map(|t| t.1).collect()).unwrap();
    if spindles == 0 {
        return map;
    }
    map.with_spindles(tracks.iter().map(|t| t.2 % spindles).collect())
        .unwrap()
}

/// The requests of a case, ids in arrival order. `in_track` clips each to
/// the track it starts in, as an aligned client would issue it.
fn requests_of(raw: &[(u64, u64, u64)], table: &TrackBoundaries, in_track: bool) -> Vec<Queued> {
    let cap = table.capacity();
    raw.iter()
        .enumerate()
        .map(|(id, &(lbn_seed, len_seed, op_flag))| {
            let lbn = lbn_seed % cap;
            let len = if in_track {
                table.clip_to_track(lbn, len_seed)
            } else {
                len_seed.min(cap - lbn)
            };
            let op = if op_flag == 0 { Op::Read } else { Op::Write };
            q(id as u64, op, lbn, len)
        })
        .collect()
}

/// Admits `requests` in `groups` bursts with one scheduling round between
/// bursts, then drains the queue; returns every round.
fn rounds_of(
    sched: &mut impl Scheduler,
    requests: &[Queued],
    groups: usize,
    max_batch: usize,
) -> Vec<Vec<Dispatch>> {
    let mut pending: Vec<Queued> = Vec::new();
    let mut rounds = Vec::new();
    for burst in requests.chunks(requests.len().div_ceil(groups)) {
        pending.extend_from_slice(burst);
        rounds.push(sched.select(&mut pending, max_batch));
    }
    while !pending.is_empty() {
        rounds.push(sched.select(&mut pending, max_batch));
    }
    rounds
}

/// The starvation bound, for any elevator: between a request's admission
/// and its dispatch the sweep wraps at most twice, no matter how arrivals
/// interleave with scheduling rounds.
fn assert_bounded_starvation(
    mut sched: impl Scheduler,
    requests: &[Queued],
    max_batch: usize,
    arrive_seed: u64,
) {
    let mut pending: Vec<Queued> = Vec::new();
    let mut admitted_wraps: Vec<u64> = Vec::new();
    let mut dispatched = vec![false; requests.len()];
    let mut rng = StdRng::seed_from_u64(arrive_seed);
    let mut next = 0usize;
    while next < requests.len() || !pending.is_empty() {
        // Admit a random-sized burst of the remaining arrivals.
        let burst = if next < requests.len() {
            rng.gen_range(0..4)
        } else {
            0
        };
        for _ in 0..burst.min(requests.len() - next) {
            pending.push(requests[next]);
            admitted_wraps.push(sched.wraps());
            next += 1;
        }
        if pending.is_empty() && next < requests.len() {
            continue;
        }
        for d in sched.select(&mut pending, max_batch) {
            for p in &d.parts {
                let id = p.id as usize;
                assert!(!dispatched[id], "request {id} dispatched twice");
                dispatched[id] = true;
                assert!(
                    sched.wraps() - admitted_wraps[id] <= 2,
                    "request {id} waited {} wraps",
                    sched.wraps() - admitted_wraps[id]
                );
            }
        }
    }
    assert!(dispatched.iter().all(|&d| d), "every request dispatched");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Full server runs on the test drive: every trace request appears
    /// exactly once across completions and rejections, for every
    /// scheduler kind and random arrival seeds, queue bounds, and
    /// per-track confidence.
    #[test]
    fn every_request_completes_or_rejects_exactly_once(
        seed in 0u64..1_000_000,
        queue_limit in 1usize..48,
        max_batch in 1usize..16,
        kind_pick in 0usize..3,
        rate in 50.0f64..2000.0,
    ) {
        let mut disk = Disk::new(models::small_test_disk());
        let capacity = disk.geometry().capacity_lbns();
        let trace = workloads::arrivals::poisson_trace(&workloads::arrivals::PoissonSpec {
            rate_per_sec: rate,
            count: 300,
            capacity_lbns: capacity,
            io_sectors: 64,
            read_fraction: 0.6,
            seed,
        });
        let kind = SchedulerKind::ALL[kind_pick];
        let mut cfg = ServerConfig::new(kind);
        cfg.queue_limit = queue_limit;
        cfg.max_batch = max_batch;
        if kind == SchedulerKind::Traxtent {
            let table = disk.track_boundaries();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ff);
            let conf: Vec<f64> =
                (0..table.num_tracks()).map(|_| rng.gen::<f64>()).collect();
            cfg.boundaries = Some(ConfidentBoundaries::new(table, conf).unwrap());
        }
        let res = serve(&mut disk, &trace, &cfg).unwrap();
        prop_assert_eq!(res.completed() + res.rejected(), trace.len() as u64);
        let mut ids: Vec<u64> = res.completions.iter().map(|c| c.id).collect();
        ids.extend(&res.rejected_ids);
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..trace.len() as u64).collect::<Vec<_>>());
        prop_assert!(res.max_depth <= queue_limit);
        // Completions never predate their arrivals.
        for c in &res.completions {
            prop_assert!(c.completion > c.arrival);
        }
    }

    /// C-LOOK starvation bound: at most two wraps between admission and
    /// dispatch.
    #[test]
    fn clook_never_starves_past_two_wraps(
        raw in prop::collection::vec((0u64..100_000, 1u64..64), 10..120),
        max_batch in 1usize..8,
        arrive_seed in 0u64..1_000_000,
    ) {
        let requests: Vec<Queued> = raw
            .iter()
            .enumerate()
            .map(|(id, &(lbn, len))| q(id as u64, Op::Read, lbn, len))
            .collect();
        assert_bounded_starvation(CLook::new(), &requests, max_batch, arrive_seed);
    }

    /// The same bound for the traxtent sweep, with one spindle and with
    /// several: the spindle walk takes requests early but only the
    /// anchor's track moves the sweep. Requests lie inside one track — a
    /// request straddling a trusted boundary in the middle of a gathered
    /// track is passed over and waits for the next sweep.
    #[test]
    fn traxtent_never_starves_past_two_wraps(
        case in arb_table_case(),
        threshold in 0.3f64..0.95,
        max_batch in 1usize..8,
        spindles in 1u16..6,
        arrive_seed in 0u64..1_000_000,
    ) {
        let (tracks, raw) = case;
        for k in [0, spindles] {
            let map = table_of(&tracks, k);
            let requests = requests_of(&raw, map.table(), true);
            let sched = Traxtent::new(map, threshold);
            assert_bounded_starvation(sched, &requests, max_batch, arrive_seed);
        }
    }

    /// Traxtent rounds over random tables, confidences and spindle maps.
    /// Every request is dispatched exactly once and a round never exceeds
    /// the batch bound; merged runs are contiguous and same-op; a
    /// coalesced command lies inside one track whose confidence clears
    /// the threshold. A round anchored on a trusted track holds commands
    /// inside trusted tracks only, of at most one track per spindle;
    /// any other round is a plain C-LOOK round of single commands.
    #[test]
    fn traxtent_batches_never_cross_trusted_boundaries(
        case in arb_table_case(),
        threshold in 0.3f64..0.95,
        max_batch in 1usize..12,
        groups in 1usize..6,
        spindles in 1u16..6,
    ) {
        let (tracks, raw) = case;
        let map = table_of(&tracks, spindles);
        let table = map.table().clone();
        let requests = requests_of(&raw, &table, false);
        // The trusted track a command lies wholly inside, if any.
        let trusted_track = |d: &Dispatch| {
            let t = table.track_index(d.request.lbn);
            (d.request.end() <= table.track_extent(t).end() && map.is_confident(t, threshold))
                .then_some(t)
        };
        let mut sched = Traxtent::new(map.clone(), threshold);
        let mut dispatched = vec![false; requests.len()];
        for round in rounds_of(&mut sched, &requests, groups, max_batch) {
            prop_assert!(!round.is_empty(), "a round makes progress");
            let parts: usize = round.iter().map(|d| d.parts.len()).sum();
            prop_assert!(parts <= max_batch, "{parts} parts in a {max_batch}-wide round");
            for d in &round {
                // Parts partition the command contiguously, same op.
                let mut at = d.request.lbn;
                for p in &d.parts {
                    prop_assert_eq!(p.request.lbn, at, "contiguous run");
                    prop_assert_eq!(p.request.op, d.request.op, "same op");
                    at += p.request.len;
                    let id = p.id as usize;
                    prop_assert!(!dispatched[id], "dispatched twice");
                    dispatched[id] = true;
                }
                prop_assert_eq!(at, d.request.end(), "parts cover the command");
                prop_assert!(
                    !d.coalesced() || trusted_track(d).is_some(),
                    "coalesced command {}..{} is not inside one trusted track",
                    d.request.lbn,
                    d.request.end()
                );
            }
            if trusted_track(&round[0]).is_none() {
                prop_assert!(round.iter().all(|d| !d.coalesced()), "C-LOOK round");
                continue;
            }
            let mut track_on: Vec<Option<usize>> = vec![None; usize::from(spindles)];
            for d in &round {
                let t = trusted_track(d).expect("command outside a trusted track");
                let held = track_on[usize::from(map.spindle(t))].get_or_insert(t);
                prop_assert_eq!(*held, t, "two tracks on one spindle in a round");
            }
        }
        prop_assert!(dispatched.iter().all(|&d| d), "every request dispatched");
    }

    /// One spindle is one spindle however the table says it: equal ids on
    /// every track give the dispatch sequence of a table with none.
    #[test]
    fn a_single_spindle_id_schedules_like_none(
        case in arb_table_case(),
        threshold in 0.3f64..0.95,
        max_batch in 1usize..12,
        groups in 1usize..6,
        id in 0u16..1000,
    ) {
        let (tracks, raw) = case;
        let plain = table_of(&tracks, 0);
        let same = plain.clone().with_spindles(vec![id; tracks.len()]).unwrap();
        let requests = requests_of(&raw, plain.table(), false);
        let sequence = |map: ConfidentBoundaries| -> Vec<Vec<(u64, u64, Vec<u64>)>> {
            rounds_of(&mut Traxtent::new(map, threshold), &requests, groups, max_batch)
                .iter()
                .map(|round| {
                    round
                        .iter()
                        .map(|d| {
                            let ids = d.parts.iter().map(|p| p.id).collect();
                            (d.request.lbn, d.request.len, ids)
                        })
                        .collect()
                })
                .collect()
        };
        prop_assert_eq!(sequence(plain), sequence(same));
    }
}
