//! Property-based tests for the fleet layout and reconstruction math:
//! the logical↔physical map is a bijection, aligned stripe units respect
//! trusted member track boundaries, and RAID-5 reconstruction of any
//! single member is bit-exact — all over random heterogeneous member
//! geometries with mixed extraction confidence.

use fleet::{
    fill_stores, reconstruct_unit, stripe_units, SectorStore, StripePolicy, VolumeKind,
    VolumeLayout,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (a) The units tile the logical space, every unit lies inside its
    /// member, and distinct logical LBNs never share a physical home.
    #[test]
    fn mapping_is_a_bijection(
        maps in arb_members(3),
        kind in arb_kind(),
        policy in arb_policy(),
    ) {
        let layout = match VolumeLayout::new(kind, &maps, &policy) {
            Ok(l) => l,
            Err(_) => return, // e.g. no complete round fits
        };
        prop_assert!(layout.capacity() > 0);
        let mut expected_lstart = 0;
        let mut seen = std::collections::HashSet::new();
        for u in layout.units() {
            prop_assert_eq!(u.lstart, expected_lstart, "units tile the logical space");
            prop_assert!(u.len > 0);
            prop_assert!(u.pstart + u.len <= layout.member_caps()[u.member]);
            expected_lstart += u.len;
            for o in 0..u.len {
                prop_assert!(
                    seen.insert((u.member, u.pstart + o)),
                    "physical sector owned by two logical LBNs"
                );
            }
        }
        prop_assert_eq!(expected_lstart, layout.capacity());
    }

    /// (b) Under the aligned policy, no stripe unit crosses a *trusted*
    /// member track boundary: each unit either is exactly one trusted
    /// track or sits entirely inside low-confidence tracks.
    #[test]
    fn aligned_units_respect_trusted_boundaries(
        map in arb_member(),
        fallback in 1u64..200,
    ) {
        let policy = StripePolicy::Aligned { threshold: 0.9, fallback_sectors: fallback };
        let units = stripe_units(&map, &policy).expect("valid policy");
        let table = map.table();
        let mut at = 0;
        for u in units {
            prop_assert_eq!(u.start, at, "units tile the member");
            at = u.end();
            let first = table.track_index(u.start);
            let last = table.track_index(u.end() - 1);
            if map.is_confident(first, 0.9) {
                // A trusted track is carved as exactly itself.
                let ext = table.track_extent(first);
                prop_assert_eq!((u.start, u.len), (ext.start, ext.len));
            } else {
                // A fallback unit may span fuzzy tracks but must stop at
                // the first trusted boundary.
                for t in first..=last {
                    prop_assert!(
                        !map.is_confident(t, 0.9),
                        "fallback unit [{}, {}) crosses trusted track {}",
                        u.start, u.end(), t
                    );
                }
            }
        }
        prop_assert_eq!(at, table.capacity());
    }

    /// (c) RAID-5 reconstruction of any single member — data or parity
    /// column — is bit-exact against what the member actually held.
    #[test]
    fn raid5_reconstruction_is_bit_exact(
        maps in arb_members(3),
        policy in arb_policy(),
        seed in 0u64..u64::MAX,
        victim_pick in 0usize..16,
    ) {
        let layout = match VolumeLayout::new(VolumeKind::Raid5, &maps, &policy) {
            Ok(l) => l,
            Err(_) => return,
        };
        let mut stores: Vec<SectorStore> =
            layout.member_caps().iter().map(|&c| SectorStore::new(c)).collect();
        fill_stores(&layout, &mut stores, seed);
        let victim = victim_pick % layout.members();
        for (r, info) in layout.rounds().iter().enumerate() {
            let rebuilt = reconstruct_unit(&layout, &stores, r, victim);
            prop_assert_eq!(rebuilt.len() as u64, info.len);
            for (o, &w) in rebuilt.iter().enumerate() {
                prop_assert_eq!(
                    w,
                    stores[victim].word(info.pstarts[victim] + o as u64),
                    "round {} offset {} of member {}", r, o, victim
                );
            }
        }
    }

    /// The volume-wide boundary map published to the scheduler has one
    /// "track" per logical unit and exactly the volume's capacity.
    #[test]
    fn logical_boundaries_mirror_units(
        maps in arb_members(2),
        kind in arb_kind(),
        policy in arb_policy(),
    ) {
        let layout = match VolumeLayout::new(kind, &maps, &policy) {
            Ok(l) => l,
            Err(_) => return,
        };
        let lb = layout.logical_boundaries();
        prop_assert_eq!(lb.table().capacity(), layout.capacity());
        prop_assert_eq!(lb.table().num_tracks(), layout.units().len());
        for (i, u) in layout.units().iter().enumerate() {
            let ext = lb.table().track_extent(i);
            prop_assert_eq!((ext.start, ext.len), (u.lstart, u.len));
        }
    }
}
