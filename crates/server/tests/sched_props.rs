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
//!   tracks whose confidence clears the threshold.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use server::{serve, CLook, Queued, Scheduler, SchedulerKind, ServerConfig, Traxtent};
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

/// Random `(track_len, confidence)` tables plus a raw request stream
/// `(lbn_seed, len_seed, op_flag)`; seeds are reduced modulo the table's
/// capacity in the test body (the vendored proptest has no flat-map).
#[allow(clippy::type_complexity)]
fn arb_table_case() -> impl Strategy<Value = (Vec<(u64, f64)>, Vec<(u64, u64, u64)>)> {
    (
        prop::collection::vec((10u64..60, 0.0f64..1.0), 4..16),
        prop::collection::vec((0u64..1_000_000, 1u64..40, 0u64..2), 1..60),
    )
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

    /// C-LOOK starvation bound: between a request's admission and its
    /// dispatch the elevator wraps at most twice, no matter how arrivals
    /// interleave with scheduling rounds.
    #[test]
    fn clook_never_starves_past_two_wraps(
        raw in prop::collection::vec((0u64..100_000, 1u64..64, 1usize..8), 10..120),
        max_batch in 1usize..8,
        arrive_seed in 0u64..1_000_000,
    ) {
        let mut sched = CLook::new();
        let mut pending: Vec<Queued> = Vec::new();
        let mut admitted_wraps: Vec<u64> = Vec::new();
        let mut dispatched = vec![false; raw.len()];
        let mut rng = StdRng::seed_from_u64(arrive_seed);
        let mut next = 0usize;
        while next < raw.len() || !pending.is_empty() {
            // Admit a random-sized burst of the remaining arrivals.
            let burst = if next < raw.len() { rng.gen_range(0..4) } else { 0 };
            for _ in 0..burst.min(raw.len() - next) {
                let (lbn, len, _) = raw[next];
                pending.push(q(next as u64, Op::Read, lbn, len));
                admitted_wraps.push(sched.wraps());
                next += 1;
            }
            if pending.is_empty() && next < raw.len() {
                continue;
            }
            for d in sched.select(&mut pending, max_batch) {
                for p in &d.parts {
                    let id = p.id as usize;
                    prop_assert!(!dispatched[id], "request {id} dispatched twice");
                    dispatched[id] = true;
                    prop_assert!(
                        sched.wraps() - admitted_wraps[id] <= 2,
                        "request {id} waited {} wraps",
                        sched.wraps() - admitted_wraps[id]
                    );
                }
            }
        }
        prop_assert!(dispatched.iter().all(|&d| d), "every request dispatched");
    }

    /// Traxtent batches: coalesced commands lie entirely within one
    /// track, that track's confidence clears the threshold, merged runs
    /// are contiguous and same-op, and the scheduler still dispatches
    /// every request exactly once — over random tables and confidences.
    #[test]
    fn traxtent_batches_never_cross_trusted_boundaries(
        case in arb_table_case(),
        threshold in 0.3f64..0.95,
        max_batch in 1usize..12,
        groups in 1usize..6,
    ) {
        let (tracks, raw) = case;
        let lens: Vec<u64> = tracks.iter().map(|(l, _)| *l).collect();
        let confs: Vec<f64> = tracks.iter().map(|(_, c)| *c).collect();
        let table = TrackBoundaries::from_track_lengths(lens).unwrap();
        let cap = table.capacity();
        let check = table.clone();
        let conf = ConfidentBoundaries::new(table, confs.clone()).unwrap();
        let mut sched = Traxtent::new(conf, threshold);
        let mut pending: Vec<Queued> = Vec::new();
        let mut dispatched = vec![false; raw.len()];
        let group_len = raw.len().div_ceil(groups);
        let drain = |sched: &mut Traxtent,
                         pending: &mut Vec<Queued>,
                         dispatched: &mut Vec<bool>,
                         all: bool| {
            loop {
                let round = sched.select(pending, max_batch);
                if round.is_empty() {
                    break;
                }
                for d in &round {
                    let end = d.request.lbn + d.request.len;
                    prop_assert!(end <= cap);
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
                    prop_assert_eq!(at, end, "parts cover the command");
                    if d.coalesced() {
                        let (start, t_end) = check.track_bounds(d.request.lbn);
                        prop_assert!(
                            d.request.lbn >= start && end <= t_end,
                            "coalesced batch {}..{} crosses track {}..{}",
                            d.request.lbn, end, start, t_end
                        );
                        let track = check.track_index(d.request.lbn);
                        prop_assert!(
                            confs[track] >= threshold,
                            "coalesced on low-confidence track {track}"
                        );
                    }
                }
                if !all {
                    break;
                }
            }
        };
        for (i, chunk) in raw.chunks(group_len).enumerate() {
            for (j, &(lbn_seed, len_seed, op_flag)) in chunk.iter().enumerate() {
                let id = (i * group_len + j) as u64;
                let lbn = lbn_seed % cap;
                let len = len_seed.min(cap - lbn).max(1);
                let op = if op_flag == 0 { Op::Read } else { Op::Write };
                pending.push(q(id, op, lbn, len));
            }
            // One scheduling round between arrival groups.
            drain(&mut sched, &mut pending, &mut dispatched, false);
        }
        drain(&mut sched, &mut pending, &mut dispatched, true);
        prop_assert!(pending.is_empty());
        prop_assert!(dispatched.iter().all(|&d| d), "every request dispatched");
    }
}
