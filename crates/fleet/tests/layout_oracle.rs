//! The flat stripe map against the record-based map it replaced.
//!
//! `VolumeLayout` keeps a 16-byte `LogicalUnit` a unit and one row of
//! member starts a round, and computes each unit's member, physical start,
//! round and confidence from its index. The map it replaced kept all six
//! fields in every unit record and a `RoundInfo` with its own `Vec` of
//! member starts per RAID-5 round; it lives on below as `RecordLayout`,
//! verbatim but for the lines marked *Changed*. On random member maps —
//! 3–6 members of uneven capacity whose tracks mix trusted and fuzzy runs
//! of several confidences — under both stripe policies and all three
//! kinds, every unit's six fields, every round's extent on every member
//! and its parity, every `split` and the published logical boundary map
//! must be equal, and a refused layout must be refused with the same
//! error.
//!
//! With `-- --nocapture` the test prints how often each branch ran and
//! fails if one ran fewer than 16 times.

use fleet::{Chunk, FleetError, StripePolicy, StripeUnit, VolumeKind, VolumeLayout};
use proptest::prelude::*;
use traxtent::boundaries::ConfidentBoundaries;
use traxtent::Extent;

// ---------------------------------------------------------------------
// The record-based map.
// ---------------------------------------------------------------------

/// `stripe_units` before it carved one unit at a time. *Changed*: the
/// policies drawn here are valid, so it neither validates nor fails.
fn stripe_units(map: &ConfidentBoundaries, policy: &StripePolicy) -> Vec<StripeUnit> {
    let table = map.table();
    let mut units = Vec::new();
    match *policy {
        StripePolicy::Fixed { sectors } => {
            let mut at = 0;
            let capacity = table.capacity();
            while at < capacity {
                let len = sectors.min(capacity - at);
                units.push(StripeUnit {
                    start: at,
                    len,
                    confidence: 1.0,
                });
                at += len;
            }
        }
        StripePolicy::Aligned {
            threshold,
            fallback_sectors,
        } => {
            let mut fuzzy: Option<(u64, f64)> = None; // (region start, min confidence)
            let flush = |units: &mut Vec<StripeUnit>, fuzzy: &mut Option<(u64, f64)>, end: u64| {
                if let Some((start, confidence)) = fuzzy.take() {
                    let mut at = start;
                    while at < end {
                        let len = fallback_sectors.min(end - at);
                        units.push(StripeUnit {
                            start: at,
                            len,
                            confidence,
                        });
                        at += len;
                    }
                }
            };
            for i in 0..table.num_tracks() {
                let ext = table.track_extent(i);
                if map.is_confident(i, threshold) {
                    flush(&mut units, &mut fuzzy, ext.start);
                    units.push(StripeUnit {
                        start: ext.start,
                        len: ext.len,
                        confidence: map.track_confidence(i),
                    });
                } else {
                    let conf = map.track_confidence(i);
                    match &mut fuzzy {
                        Some((_, min_conf)) => *min_conf = min_conf.min(conf),
                        None => fuzzy = Some((ext.start, conf)),
                    }
                }
            }
            flush(&mut units, &mut fuzzy, table.capacity());
        }
    }
    units
}

/// One logical stripe unit, every field stored.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LogicalUnit {
    lstart: u64,
    len: u64,
    member: usize,
    pstart: u64,
    round: usize,
    confidence: f64,
}

/// Per-round RAID-5 geometry.
#[derive(Debug, Clone, PartialEq)]
struct RoundInfo {
    len: u64,
    parity: usize,
    pstarts: Vec<u64>,
}

struct RecordLayout {
    kind: VolumeKind,
    members: usize,
    units: Vec<LogicalUnit>,
    logical: ConfidentBoundaries,
    member_caps: Vec<u64>,
    /// RAID-5 only; empty otherwise.
    rounds: Vec<RoundInfo>,
}

impl RecordLayout {
    fn new(
        kind: VolumeKind,
        maps: &[ConfidentBoundaries],
        policy: &StripePolicy,
    ) -> Result<Self, FleetError> {
        let need = match kind {
            VolumeKind::Striped | VolumeKind::Mirrored => 2,
            VolumeKind::Raid5 => 3,
        };
        if maps.len() < need {
            return Err(FleetError::TooFewMembers {
                kind: kind.label(),
                need,
                got: maps.len(),
            });
        }
        // *Changed*: `stripe_units` above cannot fail, and it carves every
        // map into at least one unit, so no kind returns `NoRounds`.
        let per_member: Vec<Vec<StripeUnit>> =
            maps.iter().map(|m| stripe_units(m, policy)).collect();
        let member_caps: Vec<u64> = maps.iter().map(|m| m.table().capacity()).collect();
        let n = maps.len();

        let mut units = Vec::new();
        let mut rounds = Vec::new();
        match kind {
            VolumeKind::Striped => {
                let nrounds = per_member.iter().map(Vec::len).min().unwrap_or(0);
                let mut lbn = 0;
                for r in 0..nrounds {
                    for (m, mu) in per_member.iter().enumerate() {
                        let u = mu[r];
                        units.push(LogicalUnit {
                            lstart: lbn,
                            len: u.len,
                            member: m,
                            pstart: u.start,
                            round: r,
                            confidence: u.confidence,
                        });
                        lbn += u.len;
                    }
                }
            }
            VolumeKind::Mirrored => {
                // Logical space is member 0's carve, clipped to the
                // smallest member; logical == physical on every member.
                let clip = member_caps.iter().copied().min().unwrap_or(0);
                let mut lbn = 0;
                for (r, u) in per_member[0].iter().enumerate() {
                    if lbn >= clip {
                        break;
                    }
                    let len = u.len.min(clip - lbn);
                    units.push(LogicalUnit {
                        lstart: lbn,
                        len,
                        member: r % n,
                        pstart: lbn,
                        round: r,
                        confidence: u.confidence,
                    });
                    lbn += len;
                }
            }
            VolumeKind::Raid5 => {
                let nrounds = per_member.iter().map(Vec::len).min().unwrap_or(0);
                let mut lbn = 0;
                for r in 0..nrounds {
                    let len = per_member.iter().map(|mu| mu[r].len).min().unwrap_or(0);
                    // Rotate parity backwards from the last member, the
                    // classic left-symmetric placement.
                    let parity = n - 1 - (r % n);
                    let pstarts: Vec<u64> = per_member.iter().map(|mu| mu[r].start).collect();
                    for (m, mu) in per_member.iter().enumerate() {
                        if m == parity {
                            continue;
                        }
                        units.push(LogicalUnit {
                            lstart: lbn,
                            len,
                            member: m,
                            pstart: mu[r].start,
                            round: r,
                            confidence: mu[r].confidence,
                        });
                        lbn += len;
                    }
                    rounds.push(RoundInfo {
                        len,
                        parity,
                        pstarts,
                    });
                }
            }
        }

        let spindles = (units.iter())
            .map(|u| u16::try_from(u.member))
            .collect::<Result<_, _>>()
            .map_err(|_| FleetError::TooManyMembers { got: n })?;
        let logical =
            ConfidentBoundaries::from_unit_lengths(units.iter().map(|u| (u.len, u.confidence)))
                .and_then(|map| map.with_spindles(spindles))
                .expect("every kind leaves at least one unit, none of them empty");
        Ok(RecordLayout {
            kind,
            members: n,
            units,
            logical,
            member_caps,
            rounds,
        })
    }

    fn round_start(&self, r: usize, m: usize) -> u64 {
        match self.kind {
            VolumeKind::Striped => self.units[r * self.members + m].pstart,
            VolumeKind::Mirrored => self.units[r].pstart,
            VolumeKind::Raid5 => self.rounds[r].pstarts[m],
        }
    }

    fn split(&self, lbn: u64, len: u64) -> Result<Vec<Chunk>, FleetError> {
        // *Changed*: `capacity()` and `unit_index` inlined.
        let capacity = self.logical.table().capacity();
        if len == 0 || lbn > capacity || len > capacity - lbn {
            return Err(FleetError::OutOfRange { lbn, len, capacity });
        }
        let mut chunks = Vec::new();
        let mut at = lbn;
        let end = lbn + len;
        let mut ui = self.logical.table().track_index(lbn);
        while at < end {
            let u = &self.units[ui];
            let take = (u.lstart + u.len - at).min(end - at);
            chunks.push(Chunk {
                unit: ui,
                member: u.member,
                pstart: u.pstart + (at - u.lstart),
                lstart: at,
                len: take,
                round: u.round,
            });
            at += take;
            ui += 1;
        }
        Ok(chunks)
    }

    /// The sectors of member `m` that round `r` uses. Not part of the
    /// record-based map: what its callers read off a unit or a `RoundInfo`.
    fn member_extent(&self, r: usize, m: usize) -> Extent {
        let len = match self.kind {
            VolumeKind::Striped => self.units[r * self.members + m].len,
            VolumeKind::Mirrored => self.units[r].len,
            VolumeKind::Raid5 => self.rounds[r].len,
        };
        Extent {
            start: self.round_start(r, m),
            len,
        }
    }
}

// ---------------------------------------------------------------------
// The property.
// ---------------------------------------------------------------------

/// Track confidences: three a threshold of 0.9 trusts, three it does not,
/// so members and runs differ in the confidence their units carry.
const CONFIDENCES: [f64; 6] = [1.0, 0.97, 0.92, 0.6, 0.35, 0.1];

/// A member map: 2–60 tracks of 1–400 sectors, each of any confidence.
fn arb_member() -> impl Strategy<Value = ConfidentBoundaries> {
    prop::collection::vec((1u64..400, 0usize..CONFIDENCES.len()), 2..60).prop_map(|tracks| {
        ConfidentBoundaries::from_unit_lengths(
            (tracks.into_iter()).map(|(len, c)| (len, CONFIDENCES[c])),
        )
        .expect("positive lengths are valid")
    })
}

fn arb_policy() -> impl Strategy<Value = StripePolicy> {
    prop_oneof![
        (1u64..200).prop_map(StripePolicy::fixed),
        (1u64..200, prop_oneof![Just(0.9), Just(0.5)]).prop_map(|(fallback_sectors, threshold)| {
            StripePolicy::Aligned {
                threshold,
                fallback_sectors,
            }
        }),
    ]
}

fn arb_kind() -> impl Strategy<Value = VolumeKind> {
    prop_oneof![
        Just(VolumeKind::Striped),
        Just(VolumeKind::Mirrored),
        Just(VolumeKind::Raid5),
    ]
}

/// Holds the flat layout to the record-based one over one drawn volume.
fn check(
    maps: &[ConfidentBoundaries],
    kind: VolumeKind,
    policy: StripePolicy,
    requests: &[(u64, u64)],
    tally: &mut Tally,
) {
    let (old, new) = match (
        RecordLayout::new(kind, maps, &policy),
        VolumeLayout::new(kind, maps, &policy),
    ) {
        (Ok(old), Ok(new)) => (old, new),
        (old, new) => {
            assert_eq!(new.err(), old.err(), "{kind:?} under {policy:?}");
            tally.note("refused");
            return;
        }
    };
    let n = old.members;
    assert_eq!((new.kind(), new.members()), (old.kind, n));
    assert_eq!(new.member_caps(), &old.member_caps[..]);
    assert_eq!(new.capacity(), old.logical.table().capacity());

    assert_eq!(new.units().len(), old.units.len());
    let logical = new.logical_boundaries();
    for (i, u) in old.units.iter().enumerate() {
        let flat = new.units()[i];
        let got = (
            flat.lstart,
            u64::from(flat.len),
            new.member(i),
            new.pstart(i),
        );
        assert_eq!(got, (u.lstart, u.len, u.member, u.pstart), "unit {i}");
        assert_eq!(new.round(i), u.round, "unit {i}'s round");
        let confidence = logical.track_confidence(i);
        assert_eq!(confidence, u.confidence, "unit {i}'s confidence");
    }

    let rounds = old.units.last().map_or(0, |u| u.round + 1);
    assert_eq!(new.rounds(), 0..rounds);
    for r in 0..rounds {
        for m in 0..n {
            assert_eq!(
                new.member_extent(r, m),
                old.member_extent(r, m),
                "round {r}, member {m}"
            );
        }
    }
    if kind == VolumeKind::Raid5 {
        assert_eq!(old.rounds.len(), rounds);
        for (r, info) in old.rounds.iter().enumerate() {
            assert_eq!(new.parity(r), info.parity, "round {r}'s parity");
        }
        tally.note_if(old.rounds.iter().any(|r| r.parity == 0), "parity_first");
        tally.note_if(old.rounds.iter().any(|r| r.parity == n - 1), "parity_last");
    }

    assert_eq!(new.logical_boundaries(), old.logical);

    let capacity = new.capacity();
    for &(at, len) in requests {
        let lbn = at % (capacity + 1);
        // A length that is a multiple of 8 runs the request to the
        // capacity; a start within reach of it lets the length run past.
        let len = if len % 8 == 0 { capacity - lbn } else { len };
        let want = old.split(lbn, len);
        assert_eq!(new.split(lbn, len), want, "split({lbn}, {len})");
        tally.note_if(want.is_err(), "split_refused");
        tally.note_if(want.is_ok_and(|c| c.len() > 1), "split_crosses_units");
    }

    tally.note(kind.label());
    tally.note(policy.label());
    if let StripePolicy::Aligned { threshold, .. } = policy {
        let fuzzy = old.units.iter().any(|u| u.confidence < threshold);
        tally.note_if(fuzzy, "fuzzy_run");
    }
    let clipped = old.member_caps.iter().any(|&cap| cap < old.member_caps[0]);
    tally.note_if(kind == VolumeKind::Mirrored && clipped, "mirrored_clipped");
}

#[test]
fn the_flat_map_matches_the_record_map() {
    let name = "the_flat_map_matches_the_record_map";
    let mut tally = Tally::default();
    let requests = prop::collection::vec((0u64..u64::MAX, 0u64..1200), 1..32);
    for_cases(
        name,
        384,
        (
            prop::collection::vec(arb_member(), 3..7),
            arb_kind(),
            arb_policy(),
            requests,
        ),
        |(maps, kind, policy, requests)| check(&maps, kind, policy, &requests, &mut tally),
    );
    tally.require(
        name,
        &[
            "striped",
            "mirrored",
            "raid5",
            "fixed",
            "aligned",
            "fuzzy_run",
            "mirrored_clipped",
            "parity_first",
            "parity_last",
            "split_crosses_units",
            "split_refused",
        ],
    );
}
