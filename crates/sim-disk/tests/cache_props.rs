//! The firmware segment cache against a deliberately naive model.
//!
//! [`SegmentCache`] is driven with random interleavings of `lookup` /
//! `insert` / `invalidate` / `clear` over a small LBN space, beside a
//! model that keeps what the module doc describes and nothing else: a
//! `Vec` of sector *sets*, least recently used first. After every step
//! the hit/miss answer, `stats()` and `len()` must agree, and so must the
//! cache's whole observable content — every segment's exact sector set
//! *and* the order in which the segments would be evicted, read off a
//! clone by probing every LBN while pushing far-away segments through it.
//! The property prints how often each branch ran and fails if one hardly
//! did.

use proptest::prelude::*;
use sim_disk::cache::{CacheConfig, SegmentCache};
use std::collections::BTreeSet;

/// LBNs the traffic touches; [`FAR`] and up are used only to push
/// segments out of a clone.
const SPACE: u64 = 72;
const FAR: u64 = 1_000;

// ---------------------------------------------------------------------
// The model.
// ---------------------------------------------------------------------

type Sectors = BTreeSet<u64>;

#[derive(Debug, Default)]
struct Model {
    segments: usize,
    /// Cached sector sets, least recently used first.
    segs: Vec<Sectors>,
}

fn range(start: u64, end: u64) -> Sectors {
    (start..end).collect()
}

/// True if `set` overlaps `[start, end)` or abuts it on either side.
fn touches(set: &Sectors, start: u64, end: u64) -> bool {
    set.iter().any(|&l| l + 1 >= start && l <= end)
}

impl Model {
    fn lookup(&mut self, tally: &mut Tally, start: u64, len: u64) -> bool {
        if self.segments == 0 {
            tally.note("disabled"); // a cache of zero segments
            return false;
        }
        let want = range(start, start + len);
        match self.segs.iter().position(|s| want.is_subset(s)) {
            Some(at) => {
                tally.note_if(at + 1 != self.segs.len(), "hit_refreshes_recency");
                let seg = self.segs.remove(at);
                self.segs.push(seg);
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, tally: &mut Tally, start: u64, end: u64) {
        if self.segments == 0 {
            tally.note("disabled");
            return;
        }
        if start >= end {
            return;
        }
        // One pass, oldest first, against the run as grown so far.
        let mut new = range(start, end);
        let mut absorbed = 0;
        let mut at = 0;
        while at < self.segs.len() {
            let (lo, hi) = (*new.first().unwrap(), *new.last().unwrap() + 1);
            if touches(&self.segs[at], lo, hi) {
                new.extend(self.segs.remove(at));
                absorbed += 1;
            } else {
                at += 1;
            }
        }
        tally.note_if(absorbed == 1, "absorb_one");
        tally.note_if(absorbed > 1, "absorb_several");
        tally.note_if(self.segs.len() >= self.segments, "evict");
        while self.segs.len() >= self.segments {
            self.segs.remove(0);
        }
        self.segs.push(new);
    }

    fn invalidate(&mut self, tally: &mut Tally, start: u64, len: u64) {
        let end = start + len;
        for seg in &mut self.segs {
            let left: Sectors = seg.iter().copied().filter(|&l| l < start).collect();
            let right: Sectors = seg.iter().copied().filter(|&l| l >= end).collect();
            if left.len() + right.len() == seg.len() {
                continue;
            }
            *seg = match (left.is_empty(), right.is_empty()) {
                (true, true) => {
                    tally.note("full_cover_drop");
                    Sectors::new()
                }
                (true, false) => {
                    tally.note("trim_left");
                    right
                }
                (false, true) => {
                    tally.note("trim_right");
                    left
                }
                (false, false) => {
                    tally.note_if(left.len() != right.len(), "split_keeps_larger_half");
                    if left.len() >= right.len() {
                        left
                    } else {
                        right
                    }
                }
            };
        }
        self.segs.retain(|s| !s.is_empty());
    }
}

// ---------------------------------------------------------------------
// What the cache holds, as seen through its public surface.
// ---------------------------------------------------------------------

/// Every LBN of the traffic's space that a one-sector read would hit.
fn cached(cache: &SegmentCache) -> Sectors {
    let mut probe = cache.clone();
    (0..SPACE).filter(|&l| probe.lookup(l, 1)).collect()
}

/// The cache's segments as sector sets, least recently used first: far
/// inserts (disjoint, not even adjacent) push them out of a clone one at
/// a time, and what disappears between two probes is one segment.
fn eviction_order(cache: &SegmentCache, segments: usize) -> Vec<Sectors> {
    let mut drain = cache.clone();
    let mut left = cached(&drain);
    let mut order = Vec::new();
    for k in 0..2 * segments as u64 {
        if left.is_empty() {
            break;
        }
        drain.insert(FAR + 2 * k, FAR + 2 * k + 1);
        let now = cached(&drain);
        if now != left {
            order.push(left.difference(&now).copied().collect());
            left = now;
        }
    }
    assert!(left.is_empty(), "sectors survived a full drain: {left:?}");
    order
}

// ---------------------------------------------------------------------
// Paths, cases, the property.
// ---------------------------------------------------------------------

/// `(kind, start, len)`: kinds 0–3 look up, 4–6 insert, 7–8 invalidate,
/// 9 inserts an empty run.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    prop::collection::vec((0u8..10, 0..SPACE, 1u64..20), 1..64)
}

#[test]
fn cache_matches_the_sector_set_model() {
    let mut tally = Tally::default();
    for_cases(
        "cache_matches_the_sector_set_model",
        512,
        (0usize..13, arb_ops()),
        |(segments, ops)| {
            let mut cache = SegmentCache::new(CacheConfig { segments });
            let mut model = Model {
                segments,
                ..Model::default()
            };
            for (kind, start, len) in ops {
                let len = len.min(SPACE - start);
                tally.note("steps");
                match kind {
                    0..=3 => {
                        let len = len.min(6);
                        assert_eq!(
                            cache.lookup(start, len),
                            model.lookup(&mut tally, start, len),
                            "lookup({start}, {len})"
                        );
                    }
                    4..=6 => {
                        cache.insert(start, start + len);
                        model.insert(&mut tally, start, start + len);
                    }
                    7..=8 => {
                        cache.invalidate(start, len);
                        model.invalidate(&mut tally, start, len);
                    }
                    _ => {
                        cache.insert(start + len, start);
                        model.insert(&mut tally, start + len, start);
                    }
                }
                assert_eq!(eviction_order(&cache, segments), model.segs);
            }
        },
    );
    tally.require(
        "cache_matches_the_sector_set_model",
        &[
            "hit_refreshes_recency",
            "absorb_one",
            "absorb_several",
            "evict",
            "trim_left",
            "trim_right",
            "split_keeps_larger_half",
            "full_cover_drop",
            "disabled",
        ],
    );
}
