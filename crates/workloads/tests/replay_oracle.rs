//! `workloads::replay` against the full `Completion`s it folds away.
//!
//! A replay used to keep every request's 128-byte `Completion` and read
//! its results off them; now it keeps one response time a request, the
//! first arrival, the latest completion and three counters. The old
//! result lives on here as the oracle, verbatim, over the `Completion`s a
//! twin drive returns from `Disk::service` for the same trace: every
//! twin command must be issued at its record's arrival, every kept
//! response must be the twin's `completion − issue`, and every
//! aggregate — the simulated span and the export's counters included —
//! bit-equal. The traces run past the 1 024-request batches the replay
//! was once cut into, mix reads and writes, and revisit a few LBNs so
//! that reads hit the firmware cache. The property prints how often each
//! kind of request ran and fails if one hardly did.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_disk::disk::{Disk, Op, Request};
use sim_disk::{models, Completion, SimDur, SimTime, TraceRecord};
use traxtent::obs::Registry;
use traxtent::stats;
use workloads::replay::replay;

/// The result a replay returned while it kept every `Completion`.
struct Kept(Vec<Completion>);

impl Kept {
    fn requests(&self) -> usize {
        self.0.len()
    }

    fn sim_span(&self) -> SimDur {
        match (self.0.first(), self.0.last()) {
            (Some(first), Some(_)) => {
                let end = (self.0.iter())
                    .map(|c| c.completion)
                    .fold(SimTime::ZERO, SimTime::max);
                end.since(first.issue)
            }
            _ => SimDur::ZERO,
        }
    }

    fn mean_response_ms(&self) -> f64 {
        let times: Vec<f64> = (self.0.iter())
            .map(|c| c.response_time().as_millis_f64())
            .collect();
        stats::mean(&times)
    }

    fn max_response_ms(&self) -> f64 {
        (self.0.iter())
            .map(|c| c.response_time().as_millis_f64())
            .fold(0.0, f64::max)
    }

    fn cache_hit_fraction(&self) -> f64 {
        let reads = self.0.iter().filter(|c| c.request.op == Op::Read).count();
        if reads == 0 {
            return 0.0;
        }
        let hits = self.0.iter().filter(|c| c.cache_hit).count();
        hits as f64 / reads as f64
    }

    fn export_metrics(&self, reg: &Registry) {
        reg.add("workloads.replay.requests", self.requests() as u64);
        reg.add(
            "workloads.replay.sectors",
            self.0.iter().map(|c| u64::from(c.request.len)).sum(),
        );
        reg.add(
            "workloads.replay.cache_hits",
            self.0.iter().filter(|c| c.cache_hit).count() as u64,
        );
        reg.set_max(
            "workloads.replay.sim_span_ms",
            self.sim_span().as_ns() / 1_000_000,
        );
    }
}

/// A trace of `count` requests on a drive of `capacity` sectors: each
/// starts at one of `hot` LBNs three times in four (so reads revisit what
/// the cache holds), reads with probability `read_pct` %, and arrives
/// up to a gap after the one before it, the gap drawn once a trace from
/// 0–30 ms (so some traces queue deeply and some leave the drive idle).
fn trace(seed: u64, count: usize, capacity: u64, hot: usize, read_pct: u32) -> Vec<TraceRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    let gap_ns = rng.gen_range(0..=30_000_000u64);
    let pool: Vec<u64> = (0..hot).map(|_| rng.gen_range(0..capacity - 600)).collect();
    let mut arrival = 0u64;
    (0..count)
        .map(|_| {
            arrival += rng.gen_range(0..=gap_ns);
            let lbn = if rng.gen_range(0..4) > 0 {
                pool[rng.gen_range(0..hot)]
            } else {
                rng.gen_range(0..capacity - 600)
            };
            let len = match rng.gen_range(0..3) {
                0 => rng.gen_range(1..=8),
                1 => rng.gen_range(9..=128),
                _ => rng.gen_range(129..=600),
            };
            let op = if rng.gen_range(0..100u32) < read_pct {
                Op::Read
            } else {
                Op::Write
            };
            TraceRecord {
                arrival: SimTime::from_ns(arrival),
                request: Request::new(op, lbn, len),
            }
        })
        .collect()
}

#[test]
fn a_replay_folds_the_completions_of_a_twin_drive() {
    let name = "a_replay_folds_the_completions_of_a_twin_drive";
    let mut tally = Tally::default();
    for_cases(
        name,
        192,
        (0u8..2, 0u8..8, (1usize..24, 10u32..95, 0u64..u64::MAX)),
        |(atlas, size, (hot, read_pct, seed))| {
            let cfg = if atlas == 1 {
                models::quantum_atlas_10k_ii()
            } else {
                models::small_test_disk()
            };
            let mut rng = StdRng::seed_from_u64(!seed);
            let count = match size {
                0 => 0,
                1 | 2 => rng.gen_range(1_025..=3_000),
                _ => rng.gen_range(1..=1_024),
            };
            let capacity = cfg.geometry.capacity_lbns();
            let records = trace(seed, count, capacity, hot, read_pct);

            let got = replay(&mut Disk::new(cfg.clone()), &records);
            let mut twin = Disk::new(cfg);
            let want = Kept(
                (records.iter())
                    .map(|r| twin.service(r.request, r.arrival))
                    .collect(),
            );
            tally.note_if(records.is_empty(), "empty");
            for c in &want.0 {
                tally.note(match (c.request.op, c.cache_hit) {
                    (Op::Read, true) => "read_hit",
                    (Op::Read, false) => "read_miss",
                    (Op::Write, _) => "write",
                });
            }

            assert_eq!(got.completions.len(), want.0.len());
            for (i, ((g, w), r)) in got
                .completions
                .iter()
                .zip(&want.0)
                .zip(&records)
                .enumerate()
            {
                assert_eq!(w.issue, r.arrival, "request {i} is issued at its arrival");
                assert_eq!(g.response_time(), w.completion - w.issue, "request {i}");
            }
            assert_eq!(got.requests(), want.requests());
            assert_eq!(got.sim_span().as_ns(), want.sim_span().as_ns());
            let bits = |x: f64| x.to_bits();
            assert_eq!(bits(got.mean_response_ms()), bits(want.mean_response_ms()));
            assert_eq!(bits(got.max_response_ms()), bits(want.max_response_ms()));
            assert_eq!(
                bits(got.cache_hit_fraction()),
                bits(want.cache_hit_fraction())
            );
            let (a, b) = (Registry::new(), Registry::new());
            got.export_metrics(&a);
            want.export_metrics(&b);
            assert_eq!(a.snapshot(), b.snapshot());
        },
    );
    tally.require(name, &["read_hit", "read_miss", "write", "empty"]);
}
