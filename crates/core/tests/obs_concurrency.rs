//! Concurrency properties of the `traxtent::obs` registry.
//!
//! The registry's contract is that counter adds and `set_max` high-water
//! updates commute: any interleaving of concurrent updates produces the
//! same final snapshot. These tests hammer one registry from many threads
//! with seed-shuffled schedules and assert the commutative outcomes, plus
//! that snapshot ordering is stable (sorted by name, independent of
//! registration order).

use traxtent::hash::{splitmix64, GOLDEN_GAMMA};
use traxtent::obs::span::{Span, SpanRecorder};
use traxtent::obs::Registry;

/// The SplitMix64 stream from `x`, used to derive per-thread shuffled
/// update schedules.
fn splitmix(mut x: u64) -> impl FnMut() -> u64 {
    move || {
        let out = splitmix64(x);
        x = x.wrapping_add(GOLDEN_GAMMA);
        out
    }
}

#[test]
fn concurrent_counter_increments_never_lose_updates() {
    for round in 0..8u64 {
        let reg = Registry::new();
        let threads = 8;
        let per_thread = 2500u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let reg = reg.clone();
                let mut rng = splitmix(round * 31 + t);
                s.spawn(move || {
                    let mut budget = per_thread;
                    while budget > 0 {
                        // Seed-dependent increments, so interleavings differ.
                        let n = (rng() % 7 + 1).min(budget);
                        reg.add("hits", n);
                        budget -= n;
                    }
                });
            }
        });
        assert_eq!(
            reg.snapshot().get("hits"),
            Some(threads * per_thread),
            "round {round}: lost counter updates"
        );
    }
}

#[test]
fn concurrent_set_max_never_loses_the_maximum() {
    for round in 0..8u64 {
        let reg = Registry::new();
        let threads = 8u64;
        let per_thread = 2000u64;
        // Every thread publishes a shuffled sequence of candidate highs;
        // the true maximum over all sequences must survive any schedule.
        let mut expected_max = 0u64;
        let sequences: Vec<Vec<u64>> = (0..threads)
            .map(|t| {
                let mut rng = splitmix(round * 101 + t);
                (0..per_thread)
                    .map(|_| {
                        let v = rng() % 1_000_000;
                        expected_max = expected_max.max(v);
                        v
                    })
                    .collect()
            })
            .collect();
        std::thread::scope(|s| {
            for seq in &sequences {
                let reg = reg.clone();
                s.spawn(move || {
                    for v in seq {
                        reg.set_max("high_water", *v);
                    }
                });
            }
        });
        assert_eq!(
            reg.snapshot().get("high_water"),
            Some(expected_max),
            "round {round}: high-water mark regressed"
        );
    }
}

#[test]
fn mixed_counters_and_maxima_from_many_threads() {
    let reg = Registry::new();
    let threads = 6u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let reg = reg.clone();
            s.spawn(move || {
                for i in 0..1000u64 {
                    reg.add("mixed.count", 1);
                    reg.set_max("mixed.max", t * 10_000 + i);
                }
            });
        }
    });
    let snap = reg.snapshot();
    assert_eq!(snap.get("mixed.count"), Some(threads * 1000));
    assert_eq!(snap.get("mixed.max"), Some((threads - 1) * 10_000 + 999));
}

#[test]
fn snapshot_ordering_is_stable_regardless_of_registration_order() {
    // Register the same names in two opposite orders (one of them from
    // concurrent threads); snapshots must list identical sorted names.
    let names = ["z.last", "a.first", "m.middle", "b.second", "y.late"];
    let forward = Registry::new();
    for n in &names {
        forward.add(n, 1);
    }
    let scrambled = Registry::new();
    std::thread::scope(|s| {
        for n in names.iter().rev() {
            let reg = scrambled.clone();
            s.spawn(move || reg.add(n, 1));
        }
    });
    let order = |reg: &Registry| -> Vec<String> {
        reg.snapshot()
            .entries()
            .iter()
            .map(|(n, _)| n.clone())
            .collect()
    };
    let a = order(&forward);
    assert_eq!(a, order(&scrambled));
    let mut sorted = a.clone();
    sorted.sort();
    assert_eq!(a, sorted, "snapshot must be sorted by name");
    // Repeated snapshots are identical point-in-time copies.
    assert_eq!(forward.snapshot(), forward.snapshot());
}

#[test]
fn span_recorder_collects_concurrent_batches_without_loss() {
    // The recorder itself is only ever hot under --threads 1, but its
    // buffer must still be safe when cells share it: every recorded span
    // survives, and take_sorted() yields one deterministic order.
    let rec = SpanRecorder::new();
    let threads = 4u64;
    let per_thread = 500u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let rec = rec.clone();
            s.spawn(move || {
                let mut batch = Vec::new();
                for i in 0..per_thread {
                    let id = t * per_thread + i + 1;
                    batch.push(Span::new(id, 0, "cell", 0, id * 10, id * 10 + 5));
                }
                rec.record_all(&mut batch);
            });
        }
    });
    let spans = rec.take_sorted();
    assert_eq!(spans.len(), (threads * per_thread) as usize);
    let ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "(start, id) order is deterministic");
}
