//! Property-based tests for the fleet layout and reconstruction math:
//! the logical↔physical map is a bijection, aligned stripe units respect
//! trusted member track boundaries, and RAID-5 reconstruction of any
//! single member is bit-exact — all over random heterogeneous member
//! geometries with mixed extraction confidence. `split`, whose unit lookup
//! goes through the bucket directory, is held to a walk over the units,
//! and the single-pass `fill_stores` to the two-pass fill it replaced;
//! every member's rounds ascend physically, which the range-split fill
//! rests on.

use fleet::{
    fill_stores, pattern_word, reconstruct_unit, stripe_units, Chunk, SectorStore, StripePolicy,
    VolumeKind, VolumeLayout,
};
use proptest::prelude::*;
use traxtent::boundaries::ConfidentBoundaries;

/// A random member boundary map: 2–60 tracks of 1–400 sectors, each
/// track trusted (confidence 1.0) or fuzzy (below any sane threshold).
fn arb_member() -> impl Strategy<Value = ConfidentBoundaries> {
    prop::collection::vec((1u64..400, 0u32..2), 2..60).prop_map(|tracks| {
        ConfidentBoundaries::from_unit_lengths(
            tracks
                .into_iter()
                .map(|(len, trusted)| (len, if trusted == 1 { 1.0 } else { 0.35 })),
        )
        .expect("positive lengths are valid")
    })
}

fn arb_members(min: usize) -> impl Strategy<Value = Vec<ConfidentBoundaries>> {
    prop::collection::vec(arb_member(), min..6)
}

fn arb_policy() -> impl Strategy<Value = StripePolicy> {
    prop_oneof![
        (1u64..200).prop_map(StripePolicy::fixed),
        (1u64..200).prop_map(|fallback_sectors| StripePolicy::Aligned {
            threshold: 0.9,
            fallback_sectors,
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

/// A volume kind's tally branch, in `VolumeKind` order.
const KINDS: [&str; 3] = ["striped", "mirrored", "raid5"];

/// The layout of `maps` as `kind` under `policy`, tallying the kind built
/// or the member set refused (too few members for the kind).
fn built(
    kind: VolumeKind,
    maps: &[ConfidentBoundaries],
    policy: &StripePolicy,
    tally: &mut Tally,
) -> Option<VolumeLayout> {
    let layout = VolumeLayout::new(kind, maps, policy).ok();
    tally.note(layout.as_ref().map_or("refused", |_| KINDS[kind as usize]));
    layout
}

/// (a) The units tile the logical space, every unit lies inside its
/// member, and distinct logical LBNs never share a physical home.
#[test]
fn mapping_is_a_bijection() {
    let name = "mapping_is_a_bijection";
    let mut tally = Tally::default();
    for_cases(
        name,
        96,
        (arb_members(1), arb_kind(), arb_policy()),
        |(maps, kind, policy)| {
            let Some(layout) = built(kind, &maps, &policy, &mut tally) else {
                return;
            };
            assert!(layout.capacity() > 0);
            let mut expected_lstart = 0;
            let mut seen = std::collections::HashSet::new();
            for (i, u) in layout.units().iter().enumerate() {
                let (member, pstart) = (layout.member(i), layout.pstart(i));
                assert_eq!(u.lstart, expected_lstart, "units tile the logical space");
                assert!(u.len > 0);
                assert!(pstart + u64::from(u.len) <= layout.member_caps()[member]);
                expected_lstart += u64::from(u.len);
                for o in 0..u64::from(u.len) {
                    assert!(
                        seen.insert((member, pstart + o)),
                        "physical sector owned by two logical LBNs"
                    );
                }
            }
            assert_eq!(expected_lstart, layout.capacity());
        },
    );
    tally.require(name, &["striped", "mirrored", "raid5", "refused"]);
}

/// (b) Under the aligned policy, no stripe unit crosses a *trusted*
/// member track boundary: each unit either is exactly one trusted track
/// or sits entirely inside low-confidence tracks.
#[test]
fn aligned_units_respect_trusted_boundaries() {
    let name = "aligned_units_respect_trusted_boundaries";
    let mut tally = Tally::default();
    for_cases(name, 96, (arb_member(), 1u64..200), |(map, fallback)| {
        let policy = StripePolicy::Aligned {
            threshold: 0.9,
            fallback_sectors: fallback,
        };
        let units = stripe_units(&map, &policy).expect("valid policy");
        let table = map.table();
        let mut at = 0;
        for u in units {
            assert_eq!(u.start, at, "units tile the member");
            at = u.start + u.len;
            let first = table.track_index(u.start);
            let last = table.track_index(at - 1);
            if map.is_confident(first, 0.9) {
                // A trusted track is carved as exactly itself.
                let ext = table.track_extent(first);
                assert_eq!((u.start, u.len), (ext.start, ext.len));
                tally.note("trusted_track_unit");
            } else {
                // A fallback unit may span fuzzy tracks but must stop at
                // the first trusted boundary.
                for t in first..=last {
                    assert!(
                        !map.is_confident(t, 0.9),
                        "fallback unit [{}, {}) crosses trusted track {t}",
                        u.start,
                        at
                    );
                }
                tally.note("fallback_unit");
            }
        }
        assert_eq!(at, table.capacity());
    });
    tally.require(name, &["trusted_track_unit", "fallback_unit"]);
}

/// (c) RAID-5 reconstruction of any single member — data or parity
/// column — is bit-exact against what the member actually held.
#[test]
fn raid5_reconstruction_is_bit_exact() {
    let name = "raid5_reconstruction_is_bit_exact";
    let mut tally = Tally::default();
    for_cases(
        name,
        96,
        (arb_members(1), arb_policy(), 0u64..u64::MAX, 0usize..16),
        |(maps, policy, seed, victim_pick)| {
            let Some(layout) = built(VolumeKind::Raid5, &maps, &policy, &mut tally) else {
                return;
            };
            let mut stores: Vec<SectorStore> = (layout.member_caps().iter())
                .map(|&c| SectorStore::new(c))
                .collect();
            fill_stores(&layout, &mut stores, seed);
            let victim = victim_pick % layout.members();
            for r in layout.rounds() {
                let rebuilt = reconstruct_unit(&layout, &stores, r, victim);
                let at = layout.member_extent(r, victim);
                let mut held = Vec::new();
                stores[victim].read_into(at.start, at.len, &mut held);
                assert_eq!(rebuilt, held, "round {r} of member {victim}");
                tally.note(if layout.parity(r) == victim {
                    "parity_column_rebuilt"
                } else {
                    "data_column_rebuilt"
                });
            }
        },
    );
    tally.require(
        name,
        &[
            "raid5",
            "refused",
            "parity_column_rebuilt",
            "data_column_rebuilt",
        ],
    );
}

/// The volume-wide boundary map published to the scheduler has one
/// "track" per logical unit and exactly the volume's capacity.
#[test]
fn logical_boundaries_mirror_units() {
    let name = "logical_boundaries_mirror_units";
    let mut tally = Tally::default();
    for_cases(
        name,
        96,
        (arb_members(1), arb_kind(), arb_policy()),
        |(maps, kind, policy)| {
            let Some(layout) = built(kind, &maps, &policy, &mut tally) else {
                return;
            };
            let lb = layout.logical_boundaries();
            assert_eq!(lb.table().capacity(), layout.capacity());
            assert_eq!(lb.table().num_tracks(), layout.units().len());
            for (i, u) in layout.units().iter().enumerate() {
                let ext = lb.table().track_extent(i);
                assert_eq!((ext.start, ext.len), (u.lstart, u64::from(u.len)));
            }
        },
    );
    tally.require(name, &["striped", "mirrored", "raid5", "refused"]);
}

// ---------------------------------------------------------------------
// `split` against a naive walk over the units.
// ---------------------------------------------------------------------

/// `split` with no lookup at all: every unit, in order, clipped to the
/// request.
fn walk(layout: &VolumeLayout, lbn: u64, len: u64) -> Option<Vec<Chunk>> {
    if len == 0
        || lbn
            .checked_add(len)
            .is_none_or(|end| end > layout.capacity())
    {
        return None;
    }
    let clip = |(unit, u): (usize, &fleet::LogicalUnit)| {
        let lstart = u.lstart.max(lbn);
        let end = (u.lstart + u64::from(u.len)).min(lbn + len);
        (lstart < end).then(|| Chunk {
            unit,
            member: layout.member(unit),
            pstart: layout.pstart(unit) + (lstart - u.lstart),
            lstart,
            len: end - lstart,
            round: layout.round(unit),
        })
    };
    Some(layout.units().iter().enumerate().filter_map(clip).collect())
}

fn check_split(
    layout: &VolumeLayout,
    fallback: Option<u64>,
    lbn: u64,
    len: u64,
    tally: &mut Tally,
) {
    let want = walk(layout, lbn, len);
    assert_eq!(layout.split(lbn, len).ok(), want, "split({lbn}, {len})");
    tally.note("requests");
    let Some(chunks) = want else {
        tally.note("rejected"); // past the end, or empty: an error from both
        return;
    };
    assert_eq!(layout.unit_index(lbn), chunks[0].unit);
    let first = &layout.units()[chunks[0].unit];
    // A fallback unit carved from a fuzzy run: many short units in one
    // directory bucket.
    let confidence = layout.logical_boundaries().track_confidence(chunks[0].unit);
    tally.note_if(
        confidence < 0.9 && Some(u64::from(first.len)) == fallback,
        "starts_in_fallback_unit",
    );
    tally.note(if chunks.len() == 1 {
        "one_chunk"
    } else {
        "many_chunks"
    });
    tally.note_if(lbn + len == layout.capacity(), "ends_at_capacity");
}

#[test]
fn split_matches_a_walk_over_the_units() {
    let mut tally = Tally::default();
    // `(lbn, len)` seeds: `len % 8 == 0` runs the request to the capacity,
    // and a start within 8 of it lets the length run past.
    let requests = prop::collection::vec((0u64..u64::MAX, 0u64..1200), 1..48);
    for_cases(
        "split_matches_a_walk_over_the_units",
        192,
        (arb_members(3), arb_kind(), arb_policy(), requests),
        |(maps, kind, policy, requests)| {
            let layout = VolumeLayout::new(kind, &maps, &policy).unwrap();
            let fallback = match policy {
                StripePolicy::Fixed { .. } => {
                    tally.note("fixed");
                    None
                }
                StripePolicy::Aligned {
                    fallback_sectors, ..
                } => {
                    tally.note("aligned");
                    Some(fallback_sectors)
                }
            };
            tally.note(KINDS[kind as usize]);
            for (at, len) in requests {
                let lbn = at % (layout.capacity() + 1);
                let len = if len % 8 == 0 {
                    layout.capacity() - lbn
                } else {
                    len
                };
                check_split(&layout, fallback, lbn, len, &mut tally);
            }
        },
    );
    // Boundary state: two one-track mirrors make a one-unit logical table.
    let one_track = ConfidentBoundaries::from_unit_lengths([(300, 1.0)]).expect("one track");
    let maps = [one_track.clone(), one_track];
    let layout = VolumeLayout::new(VolumeKind::Mirrored, &maps, &StripePolicy::aligned())
        .expect("two members mirror");
    assert_eq!(layout.units().len(), 1);
    for (lbn, len) in (0..=300).flat_map(|lbn| [(lbn, 1), (lbn, 300 - lbn), (lbn, 301 - lbn)]) {
        check_split(&layout, Some(64), lbn, len, &mut tally);
        tally.note("one_unit_volume");
    }
    tally.require(
        "split_matches_a_walk_over_the_units",
        &[
            "striped",
            "mirrored",
            "raid5",
            "fixed",
            "aligned",
            "starts_in_fallback_unit",
            "one_chunk",
            "many_chunks",
            "ends_at_capacity",
            "rejected",
            "one_unit_volume",
        ],
    );
}

// ---------------------------------------------------------------------
// `fill_stores` against the two-pass fill it replaced.
// ---------------------------------------------------------------------

/// `fill_stores` before its single pass, verbatim: each unit's pattern
/// goes into a temporary that is copied into its store, then every RAID-5
/// parity unit is rebuilt from its round's data columns.
fn two_pass_fill(layout: &VolumeLayout, stores: &mut [SectorStore], seed: u64) {
    assert_eq!(stores.len(), layout.members(), "one store per member");
    let mut words = Vec::new();
    for (i, u) in layout.units().iter().enumerate() {
        let pstart = layout.pstart(i);
        words.clear();
        words.extend((0..u64::from(u.len)).map(|o| pattern_word(seed, u.lstart + o)));
        match layout.kind() {
            VolumeKind::Mirrored => stores.iter_mut().for_each(|s| s.write(pstart, &words)),
            _ => stores[layout.member(i)].write(pstart, &words),
        }
    }
    // RAID-5 only: a parity unit is what reconstructing it from its
    // round's data columns yields.
    if layout.kind() != VolumeKind::Raid5 {
        return;
    }
    for r in layout.rounds() {
        let p = layout.parity(r);
        let parity = reconstruct_unit(layout, stores, r, p);
        stores[p].write(layout.member_extent(r, p).start, &parity);
    }
}

/// Each volume kind × stripe policy's tally branch, kinds in `VolumeKind`
/// order and the fixed policy first.
const KIND_POLICIES: [[&str; 2]; 3] = [
    ["striped_fixed", "striped_aligned"],
    ["mirrored_fixed", "mirrored_aligned"],
    ["raid5_fixed", "raid5_aligned"],
];

#[test]
fn fill_matches_the_two_pass_fill() {
    // Cases per volume kind (striped, mirrored, RAID-5) × policy (fixed,
    // aligned); cases whose stores held other words before the fill, where
    // what no unit maps must come through both fills as it was; and cases
    // with a failed member's empty store, which the fill must leave empty
    // while every survivor gets what the two-pass fill of all members
    // gives it.
    let name = "fill_matches_the_two_pass_fill";
    let mut tally = Tally::default();
    for_cases(
        name,
        192,
        (
            arb_members(3),
            arb_kind(),
            arb_policy(),
            0u64..u64::MAX,
            (0u32..2, 0usize..12),
        ),
        |(maps, kind, policy, seed, (old_words, dead))| {
            let layout = VolumeLayout::new(kind, &maps, &policy).unwrap();
            let before: Vec<SectorStore> = (layout.member_caps().iter().enumerate())
                .map(|(m, &cap)| {
                    let mut store = SectorStore::new(cap);
                    if old_words == 1 {
                        let old: Vec<u64> = (0..cap)
                            .map(|i| !pattern_word(seed ^ m as u64, i))
                            .collect();
                        store.write(0, &old);
                    }
                    store
                })
                .collect();
            let mut want = before.clone();
            two_pass_fill(&layout, &mut want, seed);
            let mut got = before;
            // Half the cases run with every member; the rest empty one.
            let dead = (dead >= 6).then(|| dead % layout.members());
            if let Some(d) = dead {
                got[d] = SectorStore::new(0);
                want[d] = SectorStore::new(0);
            }
            fill_stores(&layout, &mut got, seed);
            assert_eq!(got, want, "{kind:?} under {policy:?}, dead {dead:?}");
            let policy = usize::from(matches!(policy, StripePolicy::Aligned { .. }));
            tally.note(KIND_POLICIES[kind as usize][policy]);
            tally.note_if(old_words == 1, "over_old_words");
            tally.note_if(dead.is_some(), "dead_member");
        },
    );
    let mut branches: Vec<&str> = KIND_POLICIES.concat();
    branches.extend(["over_old_words", "dead_member"]);
    tally.require(name, &branches);
}

// ---------------------------------------------------------------------
// The precondition the range-split fill rests on.
// ---------------------------------------------------------------------

/// Each member's physical range of every round, in round order: a unit
/// on its member (every member, for a mirror) and a RAID-5 round's
/// parity unit on the parity member.
fn member_rounds(layout: &VolumeLayout) -> Vec<Vec<(usize, u64, u64)>> {
    let mut ranges = vec![Vec::new(); layout.members()];
    for (i, u) in layout.units().iter().enumerate() {
        let range = (
            layout.round(i),
            layout.pstart(i),
            layout.pstart(i) + u64::from(u.len),
        );
        match layout.kind() {
            VolumeKind::Mirrored => ranges.iter_mut().for_each(|m| m.push(range)),
            _ => ranges[layout.member(i)].push(range),
        }
    }
    if layout.kind() != VolumeKind::Raid5 {
        return ranges;
    }
    for r in layout.rounds() {
        let p = layout.parity(r);
        let at = layout.member_extent(r, p);
        let parity = &mut ranges[p];
        let i = parity.partition_point(|&(round, ..)| round < r);
        parity.insert(i, (r, at.start, at.end()));
    }
    ranges
}

#[test]
fn rounds_ascend_on_every_member() {
    // `fill_stores` splits every store where a round range begins on it,
    // which holds only if each member's round `r` ends at or before where
    // its round `r + 1` begins.
    let name = "rounds_ascend_on_every_member";
    let mut tally = Tally::default();
    for_cases(
        name,
        192,
        (arb_members(3), arb_kind(), arb_policy()),
        |(maps, kind, policy)| {
            let layout = VolumeLayout::new(kind, &maps, &policy).unwrap();
            let rounds = layout.rounds().len();
            for (m, ranges) in member_rounds(&layout).iter().enumerate() {
                let held: Vec<usize> = ranges.iter().map(|&(round, ..)| round).collect();
                assert_eq!(held, (0..rounds).collect::<Vec<_>>(), "member {m}");
                for pair in ranges.windows(2) {
                    let ((r, _, end), (_, next, _)) = (pair[0], pair[1]);
                    assert!(
                        end <= next,
                        "member {m}: round {r} ends at {end}, past {next}"
                    );
                    tally.note(if end < next { "gap" } else { "abutting" });
                }
            }
            let policy = usize::from(matches!(policy, StripePolicy::Aligned { .. }));
            tally.note(KIND_POLICIES[kind as usize][policy]);
        },
    );
    let mut branches: Vec<&str> = KIND_POLICIES.concat();
    branches.extend(["gap", "abutting"]);
    tally.require(name, &branches);
}
