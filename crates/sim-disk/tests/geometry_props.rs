//! Property-based tests for the geometry engine: for arbitrary zoned
//! layouts, spare schemes, defect lists, and policies, the LBN↔physical
//! mapping must stay a bijection and the track map consistent —
//! `track_of_lbn`, whichever arm answers, agrees with a walk over the tracks,
//! and a geometry that shares its tables with a clone answers as if it did
//! not, whichever of the two grown defects are written to.

use proptest::prelude::*;
use sim_disk::defects::{DefectLocation, DefectPolicy, SpareScheme};
use sim_disk::disk::{Disk, DiskConfig};
use sim_disk::geometry::{DiskGeometry, GeometryError, GeometrySpec, Pba, TrackId, ZoneSpec};
use sim_disk::models;
use traxtent::TrackBoundaries;

/// An arbitrary small-but-varied geometry spec with defects the spare
/// scheme can plausibly absorb.
fn arb_spec() -> impl Strategy<Value = GeometrySpec> {
    let zones = prop::collection::vec(
        (2u32..6, 20u32..120, 0u32..12, 0u32..12).prop_map(|(cyls, spt, ts, cs)| ZoneSpec {
            cylinders: cyls,
            spt,
            track_skew: ts,
            cyl_skew: cs,
        }),
        1..4,
    );
    let scheme = prop_oneof![
        Just(SpareScheme::SectorsPerTrack(3)),
        Just(SpareScheme::SectorsPerCylinder(6)),
        Just(SpareScheme::TracksPerZone(2)),
        Just(SpareScheme::TracksAtEnd(3)),
    ];
    let policy = prop_oneof![Just(DefectPolicy::Slip), Just(DefectPolicy::Remap)];
    (
        1u32..5,
        zones,
        scheme,
        policy,
        prop::collection::vec((0u32..1000, 0u32..5, 0u32..120), 0..6),
    )
        .prop_map(|(surfaces, zones, spare, policy, raw_defects)| {
            let total_cyls: u32 = zones.iter().map(|z| z.cylinders).sum();
            let defects = raw_defects
                .into_iter()
                .map(|(c, h, s)| {
                    let cyl = c % total_cyls;
                    // Clamp the slot into the owning zone's track.
                    let mut acc = 0;
                    let mut spt = zones[0].spt;
                    for z in &zones {
                        if cyl < acc + z.cylinders {
                            spt = z.spt;
                            break;
                        }
                        acc += z.cylinders;
                    }
                    DefectLocation::new(cyl, h % surfaces, s % spt)
                })
                .collect();
            GeometrySpec {
                surfaces,
                zones,
                spare,
                policy,
                defects,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every LBN maps to a physical location and back to itself.
    #[test]
    fn lbn_mapping_is_a_bijection(spec in arb_spec()) {
        // Some random specs legitimately exceed their spare budget; those
        // must error cleanly, everything else must round-trip.
        if let Ok(geom) = spec.build() {
            let cap = geom.capacity_lbns();
            prop_assert!(cap > 0);
            // Check a stride of LBNs plus the edges.
            let stride = (cap / 257).max(1);
            for lbn in (0..cap).step_by(stride as usize).chain([cap - 1]) {
                let pba = geom.lbn_to_pba(lbn).expect("in range");
                prop_assert_eq!(geom.pba_to_lbn(pba), Some(lbn), "lbn {}", lbn);
            }
        }
    }

    /// Distinct LBNs never share a physical sector.
    #[test]
    fn no_two_lbns_share_a_slot(spec in arb_spec()) {
        if let Ok(geom) = spec.build() {
            let cap = geom.capacity_lbns().min(4000);
            let mut seen = std::collections::HashSet::new();
            for lbn in 0..cap {
                let pba = geom.lbn_to_pba(lbn).expect("in range");
                prop_assert!(seen.insert(pba), "slot {:?} assigned twice", pba);
            }
        }
    }

    /// Track bounds partition the LBN space: consecutive tracks with LBNs
    /// tile [0, capacity) without gaps or overlaps.
    #[test]
    fn tracks_tile_the_lbn_space(spec in arb_spec()) {
        if let Ok(geom) = spec.build() {
            let mut next = 0u64;
            for t in (0..geom.num_tracks()).map(|id| geom.track(id)) {
                prop_assert_eq!(t.first_lbn(), next);
                next = t.end_lbn();
            }
            prop_assert_eq!(next, geom.capacity_lbns());
        }
    }

    /// Defective slots hold no LBN, and under slipping every LBN of a
    /// defective track still lands on that track (no remap table entries).
    #[test]
    fn defects_hold_no_lbns(spec in arb_spec()) {
        let defects = spec.defects.clone();
        let policy = spec.policy;
        if let Ok(geom) = spec.build() {
            for d in defects {
                prop_assert_eq!(geom.pba_to_lbn(Pba::new(d.cyl, d.head, d.slot)), None);
            }
            if policy == DefectPolicy::Slip {
                prop_assert_eq!(geom.first_remap_in(0, geom.capacity_lbns()), None);
            }
        }
    }

    /// A grown defect relocates exactly one LBN and leaves every other
    /// mapping untouched.
    #[test]
    fn grown_defect_is_local(spec in arb_spec(), pick in 0u64..u64::MAX) {
        if let Ok(mut geom) = spec.build() {
            let cap = geom.capacity_lbns();
            let victim = pick % cap;
            let stride = (cap / 97).max(1);
            let before: Vec<(u64, Pba)> = (0..cap)
                .step_by(stride as usize)
                .map(|l| (l, geom.lbn_to_pba(l).expect("in range")))
                .collect();
            if geom.add_grown_defect(victim).is_ok() {
                for (l, pba) in before {
                    if l == victim {
                        prop_assert_ne!(geom.lbn_to_pba(l).expect("in range"), pba);
                    } else {
                        prop_assert_eq!(geom.lbn_to_pba(l).expect("in range"), pba);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// `track_of_lbn` against a linear walk over the tracks.
// ---------------------------------------------------------------------

/// Every LBN of the drive, looked up and compared with the one track whose
/// `[first_lbn, end_lbn)` holds it, found by walking the tracks in order.
fn check_every_lbn(geom: &DiskGeometry, tally: &mut Tally) {
    let tracks_per_zone = |z: usize| geom.zones()[z].cylinders * geom.surfaces();
    let uniform: Vec<bool> = (geom.zones().iter())
        .map(|z| {
            (z.first_cyl * geom.surfaces()..(z.first_cyl + z.cylinders) * geom.surfaces())
                .all(|t| geom.track(t).lbn_count() == z.spt)
        })
        .collect();
    tally.note("drives");
    let (mut t, mut zone) = (0u32, 0usize);
    for lbn in 0..geom.capacity_lbns() {
        while geom.track(t).end_lbn() <= lbn {
            t += 1;
        }
        let track = geom.track(t);
        assert!(track.first_lbn() <= lbn, "the tracks tile the LBN space");
        while track.cyl() >= geom.zones()[zone].first_cyl + geom.zones()[zone].cylinders {
            zone += 1;
        }
        assert_eq!(geom.track_of_lbn(lbn), Ok(TrackId(t)), "lbn {lbn}");
        tally.note("lookups");
        // A zone whose tracks all map `spt` LBNs is one divide; any other
        // goes through the bucket directory over the tracks' first LBNs.
        // An empty track before the answer shares its first LBN, and the
        // lookup must step past it.
        tally.note(if uniform[zone] { "divide" } else { "directory" });
        tally.note_if(
            t > 0 && geom.track(t - 1).lbn_count() == 0,
            "after_empty_track",
        );
        tally.note_if(tracks_per_zone(zone) == 1, "single_track_zone");
    }
    let end = geom.capacity_lbns();
    assert_eq!(
        geom.track_of_lbn(end),
        Err(GeometryError::LbnOutOfRange(end))
    );
}

#[test]
fn track_of_lbn_matches_a_walk_over_the_tracks() {
    let mut tally = Tally::default();
    let schemes = [
        SpareScheme::None,
        SpareScheme::SectorsPerTrack(3),
        SpareScheme::SectorsPerCylinder(6),
        SpareScheme::TracksPerZone(2),
        SpareScheme::TracksAtEnd(3),
    ];
    for_cases(
        "track_of_lbn_matches_a_walk_over_the_tracks",
        24,
        arb_spec(),
        |drawn| {
            for spare in schemes {
                for policy in [DefectPolicy::Slip, DefectPolicy::Remap] {
                    let mut spec = drawn.clone();
                    (spec.spare, spec.policy) = (spare, policy);
                    if spare == SpareScheme::None {
                        spec.defects.clear();
                    }
                    // A defect list the scheme cannot absorb is an error.
                    if let Ok(geom) = spec.build() {
                        check_every_lbn(&geom, &mut tally);
                    }
                }
            }
        },
    );
    // Boundary states: a drive of one track, and zones of one track each
    // (spare sectors keep them off the divide).
    let zone = |spt| ZoneSpec {
        cylinders: 1,
        spt,
        track_skew: 0,
        cyl_skew: 0,
    };
    for zones in [vec![zone(40)], vec![zone(50), zone(40), zone(30)]] {
        for spare in [SpareScheme::None, SpareScheme::SectorsPerTrack(3)] {
            let mut spec = GeometrySpec::pristine(1, zones.clone());
            spec.spare = spare;
            check_every_lbn(&spec.build().expect("no defects to absorb"), &mut tally);
        }
    }
    tally.require(
        "track_of_lbn_matches_a_walk_over_the_tracks",
        &[
            "divide",
            "directory",
            "after_empty_track",
            "single_track_zone",
        ],
    );
}

// ---------------------------------------------------------------------
// A shared geometry against fresh, unshared builds.
// ---------------------------------------------------------------------

/// `got` gives `want`'s answer to every translation question: each LBN's
/// physical location and track (one past the last LBN included), each
/// physical slot's LBN (one past each track's last slot included), and the
/// track starts.
fn assert_same_answers(got: &DiskGeometry, want: &DiskGeometry, what: &str) {
    assert_eq!(got.capacity_lbns(), want.capacity_lbns(), "{what}");
    for lbn in 0..=want.capacity_lbns() {
        assert_eq!(
            got.lbn_to_pba(lbn),
            want.lbn_to_pba(lbn),
            "{what}: lbn {lbn}"
        );
        assert_eq!(
            got.track_of_lbn(lbn),
            want.track_of_lbn(lbn),
            "{what}: lbn {lbn}"
        );
    }
    for t in (0..want.num_tracks()).map(|id| want.track(id)) {
        for slot in 0..=t.spt() {
            let pba = Pba::new(t.cyl(), t.head(), slot);
            assert_eq!(got.pba_to_lbn(pba), want.pba_to_lbn(pba), "{what}: {pba}");
        }
    }
    assert!(got.track_starts().eq(want.track_starts()), "{what}: starts");
}

/// The boundary table a drive over `geometry` hands out, against one
/// recomputed from the geometry's track starts.
fn assert_boundaries_match_the_starts(geometry: &DiskGeometry, what: &str) {
    let cfg = DiskConfig {
        geometry: geometry.clone(),
        ..models::small_test_disk()
    };
    let starts = geometry.track_starts().collect();
    let want = TrackBoundaries::new(starts, geometry.capacity_lbns()).expect("the starts tile");
    assert_eq!(Disk::new(cfg).track_boundaries(), want, "{what}");
}

/// A built geometry, a clone of it given 1–8 grown defects, and for each
/// of the two a fresh build of the same spec (given the same defects) that
/// never shared a table: the original must answer as its fresh build does,
/// the clone as its own, and each drive's boundary table must be the one
/// its track starts give.
#[test]
fn a_written_clone_leaves_its_original_as_built() {
    let mut tally = Tally::default();
    let picks = prop::collection::vec(0u64..u64::MAX, 1..9);
    for_cases(
        "a_written_clone_leaves_its_original_as_built",
        48,
        (arb_spec(), picks),
        |(drawn, picks)| {
            for policy in [DefectPolicy::Slip, DefectPolicy::Remap] {
                let spec = GeometrySpec {
                    policy,
                    ..drawn.clone()
                };
                // A defect list the scheme cannot absorb is an error.
                let Ok(original) = spec.clone().build() else {
                    continue;
                };
                let fresh = || spec.clone().build().expect("built once already");
                let (mut clone, mut twin) = (original.clone(), fresh());
                let mut written: Vec<(u64, Pba, Pba)> = Vec::new();
                for lbn in picks.iter().map(|p| p % original.capacity_lbns()) {
                    // A remapped LBN's old slot stays its remap target.
                    if clone.is_remapped(lbn) {
                        continue;
                    }
                    let old = clone.lbn_to_pba(lbn).expect("in range");
                    let got = clone.add_grown_defect(lbn);
                    assert_eq!(got, twin.add_grown_defect(lbn), "lbn {lbn}");
                    if let Ok(spare) = got {
                        tally.note(if written.is_empty() {
                            "first_write_copies"
                        } else {
                            "second_write_private"
                        });
                        written.push((lbn, old, spare));
                    }
                }
                if written.is_empty() {
                    continue;
                }
                for &(lbn, old, spare) in &written {
                    assert_eq!(clone.lbn_to_pba(lbn), Ok(spare), "lbn {lbn}");
                    assert_eq!(clone.pba_to_lbn(spare), Some(lbn), "lbn {lbn}");
                    assert_eq!(clone.pba_to_lbn(old), None, "lbn {lbn}");
                }
                assert_same_answers(&clone, &twin, "the written clone");
                assert_same_answers(&original, &fresh(), "the original");
                tally.note("untouched_sharer"); // checked after its clone was written
                assert_boundaries_match_the_starts(&clone, "the written clone");
                assert_boundaries_match_the_starts(&original, "the original");
                tally.note(match policy {
                    DefectPolicy::Slip => "slip_policy",
                    DefectPolicy::Remap => "remap_policy",
                });
            }
        },
    );
    tally.require(
        "a_written_clone_leaves_its_original_as_built",
        &[
            "untouched_sharer",
            "first_write_copies",
            "second_write_private",
            "slip_policy",
            "remap_policy",
        ],
    );
}
