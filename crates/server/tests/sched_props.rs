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
//! * a traxtent round anchored on a trusted track stays inside that one
//!   track, within the batch bound — and `select` ignores the table's
//!   spindle ids: any spindle map schedules exactly like none;
//! * the traxtent sweep keeps C-LOOK's starvation bound for requests
//!   that lie inside one track;
//! * `serve` with one lane per spindle equals a brute-force loop that
//!   wakes at every arrival — same response at every trace index, same
//!   rejected ids, same coalesced count, same depth integral — never hands
//!   a busy lane a command, dispatches a request that finds its lane free
//!   and empty the instant it arrives, and keeps the starvation bound lane
//!   by lane;
//! * `serve` writes each response at its trace index less the rejected
//!   ids below it, which a request's own span tree confirms on a real
//!   drive.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use server::{
    serve, Backend, CLook, Dispatch, Queued, Scheduler, SchedulerKind, ServerConfig, ServerResult,
    Traxtent,
};
use sim_disk::disk::{Disk, Op, Request};
use sim_disk::{models, Completion, SimDur, SimTime, TraceRecord};
use std::collections::{BTreeMap, BTreeSet};
use traxtent::obs::span::SpanRecorder;
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
            for p in d.parts() {
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

/// A backend of independent spindles — the table's ids say which one holds
/// a command's first sector — each serving first come first served, with a
/// service time that depends on the command alone. It logs every command
/// with its issue instant, and panics when a spindle is handed a batch
/// while a command of an earlier batch is still in service there.
struct Spindles {
    map: ConfidentBoundaries,
    free: BTreeMap<u16, SimTime>,
    log: Vec<(Request, SimTime)>,
}

impl Spindles {
    fn new(map: &ConfidentBoundaries) -> Self {
        Spindles {
            map: map.clone(),
            free: BTreeMap::new(),
            log: Vec::new(),
        }
    }
}

impl Backend for Spindles {
    fn capacity_lbns(&self) -> u64 {
        self.map.table().capacity()
    }

    fn service_batch_into(&mut self, batch: &[(Request, SimTime)], out: &mut Vec<Completion>) {
        let before = self.free.clone();
        for &(request, issue) in batch {
            let spindle = self.map.spindle(self.map.table().track_index(request.lbn));
            let busy_until = before.get(&spindle).copied().unwrap_or(SimTime::ZERO);
            assert!(
                issue >= busy_until,
                "spindle {spindle} handed a command at {issue}, busy until {busy_until}"
            );
            let free = self.free.entry(spindle).or_insert(SimTime::ZERO);
            let micros = 200 + 10 * u64::from(request.len) + 50 * (request.lbn % 13);
            let done = issue.max(*free) + SimDur::from_ns(1000 * micros);
            *free = done;
            self.log.push((request, issue));
            out.push(Completion {
                request,
                issue,
                service_start: issue,
                media_end: done,
                completion: done,
                cache_hit: false,
                breakdown: Default::default(),
            });
        }
    }
}

/// The trace index of each of `res.responses`, worked out from the
/// rejected ids alone: the indices below `len` that were not rejected.
fn completed_ids(res: &ServerResult, len: usize) -> Vec<u64> {
    let rejected: BTreeSet<u64> = res.rejected_ids.iter().copied().collect();
    (0..len as u64)
        .filter(|id| !rejected.contains(id))
        .collect()
}

/// What a `serve` run must produce, worked out the slow way.
#[derive(Debug, Default, PartialEq)]
struct Expected {
    /// `(trace index, response)` of every completed request, by index.
    responses: Vec<(u64, SimDur)>,
    rejected: Vec<u64>,
    coalesced_requests: u64,
    max_depth: usize,
    dispatches: u64,
    wraps: u64,
    mean_depth: f64,
    log: Vec<(Request, SimTime)>,
}

/// The reference server: one traxtent elevator per spindle id, woken at
/// every arrival and every time a lane with work comes free, admitting
/// each arrival at its own instant. Also returns the requests that found
/// their lane free and had it to themselves, and asserts the two-wrap bound
/// lane by lane.
fn brute_force(
    map: &ConfidentBoundaries,
    threshold: f64,
    trace: &[TraceRecord],
    queue_limit: usize,
    max_batch: usize,
) -> (Expected, Vec<u64>) {
    let table = map.table();
    let ids: Vec<u16> = (0..table.num_tracks())
        .map(|t| map.spindle(t))
        .collect::<BTreeSet<u16>>()
        .into_iter()
        .collect();
    let mut scheds: Vec<Traxtent> = (ids.iter())
        .map(|_| Traxtent::new(map.clone(), threshold))
        .collect();
    let mut queues: Vec<Vec<Queued>> = vec![Vec::new(); ids.len()];
    let mut free_at = vec![SimTime::ZERO; ids.len()];
    let mut backend = Spindles::new(map);
    let mut want = Expected::default();
    let mut prompt = Vec::new();
    let mut admitted_wraps = vec![0u64; trace.len()];
    let (mut next, mut last, mut depth_ns) = (0, SimTime::ZERO, 0u128);
    let mut end = None;
    loop {
        let arrival = trace.get(next).map(|r| r.arrival);
        let work = (0..ids.len())
            .filter(|&l| !queues[l].is_empty())
            .map(|l| free_at[l]);
        let Some(now) = arrival.into_iter().chain(work).min() else {
            break;
        };
        let depth: usize = queues.iter().map(Vec::len).sum();
        depth_ns += depth as u128 * u128::from(now.since(last).as_ns());
        last = now;
        while next < trace.len() && trace[next].arrival == now {
            let depth: usize = queues.iter().map(Vec::len).sum();
            if depth >= queue_limit {
                want.rejected.push(next as u64);
            } else {
                let spindle = map.spindle(table.track_index(trace[next].request.lbn));
                let lane = ids.iter().position(|&id| id == spindle).unwrap();
                admitted_wraps[next] = scheds[lane].wraps();
                queues[lane].push(Queued {
                    id: next as u64,
                    arrival: now,
                    request: trace[next].request,
                });
                want.max_depth = want.max_depth.max(depth + 1);
            }
            next += 1;
        }
        for lane in 0..ids.len() {
            if free_at[lane] > now || queues[lane].is_empty() {
                continue;
            }
            if let [only] = queues[lane][..] {
                if only.arrival == now {
                    prompt.push(only.id);
                }
            }
            let round = scheds[lane].select(&mut queues[lane], max_batch);
            let batch: Vec<(Request, SimTime)> = round.iter().map(|d| (d.request, now)).collect();
            let mut done = Vec::new();
            backend.service_batch_into(&batch, &mut done);
            want.dispatches += round.len() as u64;
            for (d, c) in round.iter().zip(&done) {
                free_at[lane] = free_at[lane].max(c.completion);
                end = end.max(Some(c.completion));
                if d.coalesced() {
                    want.coalesced_requests += d.parts().count() as u64;
                }
                for p in d.parts() {
                    let waited = scheds[lane].wraps() - admitted_wraps[p.id as usize];
                    assert!(waited <= 2, "request {} waited {waited} wraps", p.id);
                    want.responses.push((p.id, c.completion.since(p.arrival)));
                }
            }
        }
    }
    want.responses.sort_unstable();
    want.mean_depth = end.map_or(0.0, |end| depth_ns as f64 / end.as_ns() as f64);
    want.wraps = scheds.iter().map(|s| s.wraps()).sum();
    want.log = backend.log;
    (want, prompt)
}

/// `serve` writes each response at its trace index less the rejected ids
/// below it. Overflowing a queue of one, two or four leaves holes in the
/// index range — the rejections, exactly — which is where writing a
/// response at the index itself would go wrong. A request's root span
/// says, apart from that placement, when it arrived and completed, or
/// that it was rejected.
#[test]
fn completions_ascend_by_id_around_the_rejected_holes() {
    let table = Disk::new(models::quantum_atlas_10k_ii()).track_boundaries();
    let trace = workloads::replay::synthetic_trace(&workloads::replay::SyntheticSpec {
        count: 400,
        interarrival_ms: 0.2,
        io_sectors: 128,
        read_fraction: 0.6,
        capacity_lbns: table.capacity(),
        seed: 17,
    });
    for kind in SchedulerKind::ALL {
        for queue_limit in [1, 2, 4] {
            let case = format!("{kind:?}, queue {queue_limit}");
            let spans = SpanRecorder::new();
            let mut cfg = ServerConfig::new(kind)
                .with_boundaries(ConfidentBoundaries::certain(table.clone()))
                .with_spans(spans.clone());
            cfg.queue_limit = queue_limit;
            let mut disk = Disk::new(models::quantum_atlas_10k_ii());
            let res = serve(&mut disk, &trace, &cfg).unwrap();
            assert!(res.rejected() > 0 && res.completed() > 4, "{case}");
            let (mut rejected, mut responses) = (BTreeSet::new(), BTreeMap::new());
            for root in spans.take_sorted() {
                if root.parent != 0 || root.name != "request" {
                    continue;
                }
                let id: u64 = root.attr("id").unwrap().parse().unwrap();
                assert_eq!(root.start_ns, trace[id as usize].arrival.as_ns(), "{case}");
                if root.attr("rejected").is_some() {
                    rejected.insert(id);
                } else {
                    responses.insert(id, SimDur::from_ns(root.duration_ns()));
                }
            }
            assert_eq!(rejected.len() + responses.len(), trace.len(), "{case}");
            assert_eq!(res.rejected_ids, Vec::from_iter(rejected), "{case}");
            assert_eq!(
                res.responses,
                Vec::from_iter(responses.into_values()),
                "{case}"
            );
        }
    }
}

/// `serve` against the brute-force reference, over random traces, tables,
/// spindle maps (none, dense, sparse) and queue bounds, with and without
/// rejections.
#[test]
fn lanes_match_a_brute_force_event_loop() {
    let name = "lanes_match_a_brute_force_event_loop";
    let mut tally = Tally::default();
    for_cases(
        name,
        64,
        (
            arb_table_case(),
            prop::collection::vec(0u64..3000, 60..61),
            0.3f64..0.95,
            // Half the cases bound the queue to one to three requests, so
            // that rejections leave holes in the index range.
            prop_oneof![1usize..4, 4usize..24],
            1usize..8,
            0u16..6,
            1u16..9,
        ),
        |(case, gaps, threshold, queue_limit, max_batch, spindles, sparse)| {
            let (tracks, raw) = case;
            let mut map = table_of(&tracks, spindles);
            if spindles > 0 {
                let ids = (0..tracks.len())
                    .map(|t| 3 + sparse * map.spindle(t))
                    .collect();
                map = map.with_spindles(ids).unwrap();
            }
            // Arrivals some microseconds apart, a third of them at the same
            // instant as the one before.
            let mut at = 0;
            let trace: Vec<TraceRecord> = requests_of(&raw, map.table(), true)
                .iter()
                .zip(&gaps)
                .map(|(q, gap)| {
                    at += if gap % 3 == 0 { 0 } else { 1000 * gap };
                    TraceRecord {
                        arrival: SimTime::from_ns(at),
                        request: q.request,
                    }
                })
                .collect();
            let (want, prompt) = brute_force(&map, threshold, &trace, queue_limit, max_batch);

            let mut cfg = ServerConfig::new(SchedulerKind::Traxtent).with_boundaries(map.clone());
            cfg.confidence_threshold = threshold;
            cfg.queue_limit = queue_limit;
            cfg.max_batch = max_batch;
            let mut backend = Spindles::new(&map);
            let res = serve(&mut backend, &trace, &cfg).unwrap();
            tally.note(if res.rejected_ids.is_empty() {
                "run without rejections"
            } else {
                "run with rejections"
            });

            assert_eq!(res.completed() + res.rejected(), trace.len() as u64);
            let ids = completed_ids(&res, trace.len());
            let got = Expected {
                responses: ids.into_iter().zip(res.responses.iter().copied()).collect(),
                rejected: res.rejected_ids.clone(),
                coalesced_requests: res.coalesced_requests,
                max_depth: res.max_depth,
                dispatches: res.dispatches,
                wraps: res.wraps,
                mean_depth: res.mean_depth(),
                log: backend.log,
            };
            assert_eq!(&got, &want);
            assert!(res.max_depth <= queue_limit);
            // Whatever the other lanes were doing, a request that found its
            // lane free and had it to itself went out the instant it arrived.
            for id in prompt {
                let r = trace[id as usize];
                let sent = got.log.iter().any(|(cmd, at)| {
                    *at == r.arrival && cmd.lbn <= r.request.lbn && r.request.end() <= cmd.end()
                });
                assert!(sent, "request {id} was not dispatched on arrival");
            }
        },
    );
    tally.require(name, &["run with rejections", "run without rejections"]);
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
        // Every index is rejected at most once, and the rest completed.
        prop_assert!(res.rejected_ids.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(res.rejected_ids.iter().all(|&id| id < trace.len() as u64));
        prop_assert!(res.max_depth <= queue_limit);
        // Completions never predate their arrivals.
        for d in &res.responses {
            prop_assert!(*d > SimDur::ZERO);
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

    /// The same bound for the traxtent sweep. Requests lie inside one
    /// track — a request straddling a trusted boundary in the middle of a
    /// gathered track is passed over and waits for the next sweep.
    #[test]
    fn traxtent_never_starves_past_two_wraps(
        case in arb_table_case(),
        threshold in 0.3f64..0.95,
        max_batch in 1usize..8,
        arrive_seed in 0u64..1_000_000,
    ) {
        let (tracks, raw) = case;
        let map = table_of(&tracks, 0);
        let requests = requests_of(&raw, map.table(), true);
        let sched = Traxtent::new(map, threshold);
        assert_bounded_starvation(sched, &requests, max_batch, arrive_seed);
    }

    /// Traxtent rounds over random tables, confidences and spindle maps.
    /// Every request is dispatched exactly once and a round never exceeds
    /// the batch bound; merged runs are contiguous and same-op; a
    /// coalesced command lies inside one track whose confidence clears
    /// the threshold. A round anchored on a trusted track holds commands
    /// inside that one track only; any other round is a plain C-LOOK
    /// round of single commands.
    #[test]
    fn traxtent_batches_never_cross_trusted_boundaries(
        case in arb_table_case(),
        threshold in 0.3f64..0.95,
        max_batch in 1usize..12,
        groups in 1usize..6,
        spindles in 0u16..6,
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
            let parts: usize = round.iter().map(|d| d.parts().count()).sum();
            prop_assert!(parts <= max_batch, "{parts} parts in a {max_batch}-wide round");
            for d in &round {
                // Parts partition the command contiguously, same op.
                let mut at = d.request.lbn;
                for p in d.parts() {
                    prop_assert_eq!(p.request.lbn, at, "contiguous run");
                    prop_assert_eq!(p.request.op, d.request.op, "same op");
                    at += u64::from(p.request.len);
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
            match trusted_track(&round[0]) {
                None => prop_assert!(round.iter().all(|d| !d.coalesced()), "C-LOOK round"),
                Some(t) => prop_assert!(
                    round.iter().all(|d| trusted_track(d) == Some(t)),
                    "a round anchored on track {t} reaches outside it"
                ),
            }
        }
        prop_assert!(dispatched.iter().all(|&d| d), "every request dispatched");
    }

    /// `select` is one elevator over one queue and ignores the table's
    /// spindle ids: any spindle map, a single id included, gives the
    /// dispatch sequence of a table with none.
    #[test]
    fn select_ignores_spindle_ids(
        case in arb_table_case(),
        threshold in 0.3f64..0.95,
        max_batch in 1usize..12,
        groups in 1usize..6,
        spindles in 1u16..6,
    ) {
        let (tracks, raw) = case;
        let plain = table_of(&tracks, 0);
        let requests = requests_of(&raw, plain.table(), false);
        let sequence = |map: ConfidentBoundaries| -> Vec<Vec<(u64, u64, Vec<u64>)>> {
            rounds_of(&mut Traxtent::new(map, threshold), &requests, groups, max_batch)
                .iter()
                .map(|round| {
                    round
                        .iter()
                        .map(|d| {
                            let ids = d.parts().map(|p| p.id).collect();
                            (d.request.lbn, u64::from(d.request.len), ids)
                        })
                        .collect()
                })
                .collect()
        };
        prop_assert_eq!(sequence(table_of(&tracks, spindles)), sequence(plain));
    }
}
