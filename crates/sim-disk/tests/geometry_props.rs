//! Property-based tests for the geometry engine: for arbitrary zoned
//! layouts, spare schemes, defect lists, and policies, the LBN↔physical
//! mapping must stay a bijection and the track map consistent —
//! `track_of_lbn`, whichever arm answers, agrees with a walk over the tracks,
//! and a geometry that shares its tables with a clone answers as if it did
//! not, whichever of the two grown defects are written to.

use proptest::prelude::*;
use sim_disk::defects::{DefectLocation, DefectPolicy, SpareScheme};
use sim_disk::disk::{Disk, DiskConfig};
use sim_disk::geometry::{
    DiskGeometry, GeometryError, GeometrySpec, Pba, Track, TrackId, ZoneSpec,
};
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

// ---------------------------------------------------------------------
// Every track view against a rebuild from the spec.
// ---------------------------------------------------------------------

/// What a track view says, floats as bits.
#[derive(Debug, PartialEq)]
struct View {
    first_lbn: u64,
    count: u32,
    cyl: u32,
    head: u32,
    spt: u32,
    angle0: u64,
    inv_spt: u64,
    defect_slots: Vec<u32>,
    grown_slots: Vec<u32>,
    remap_targets: Vec<(u32, u64)>,
}

impl View {
    fn of(t: &Track) -> Self {
        View {
            first_lbn: t.first_lbn(),
            count: t.lbn_count(),
            cyl: t.cyl(),
            head: t.head(),
            spt: t.spt(),
            angle0: t.angle0().to_bits(),
            inv_spt: t.inv_spt().to_bits(),
            defect_slots: t.defect_slots().to_vec(),
            grown_slots: t.grown_slots().to_vec(),
            remap_targets: t.remap_targets().to_vec(),
        }
    }
}

/// The track `lbn_to_pba` puts `lbn` on, and the LBN's index among the
/// track's LBNs: its slot less the factory defects slipped before it.
fn placed(geom: &DiskGeometry, lbn: u64) -> (u32, u64) {
    let pba = geom.lbn_to_pba(lbn).expect("in range");
    let id = pba.cyl * geom.surfaces() + pba.head;
    let slipped = match geom.spec().policy {
        DefectPolicy::Slip => (geom.spec().defects.iter())
            .filter(|d| (d.cyl, d.head) == (pba.cyl, pba.head) && d.slot < pba.slot)
            .map(|d| d.slot)
            .collect::<std::collections::BTreeSet<_>>()
            .len() as u64,
        DefectPolicy::Remap => 0,
    };
    (id, u64::from(pba.slot) - slipped)
}

/// Each track's `(first LBN, LBN count)`, from walking `lbn_to_pba` over
/// the LBNs. A remapped LBN counts on the last track whose first LBN is at
/// or below it. Without remaps, the tracks come in LBN order and the walk
/// bisects each track's end instead of visiting every LBN.
fn walk_the_lbns(geom: &DiskGeometry) -> Vec<(u64, u32)> {
    let cap = geom.capacity_lbns();
    let mut starts: Vec<Option<u64>> = vec![None; geom.num_tracks() as usize];
    let mut counts = vec![0u32; starts.len()];
    let mut remapped = Vec::new();
    if geom.first_remap_in(0, cap).is_none() {
        let mut lbn = 0;
        while lbn < cap {
            let (id, index) = placed(geom, lbn);
            assert_eq!(index, 0, "lbn {lbn} opens track {id}");
            // The first LBN past the track, by bisection.
            let (mut lo, mut hi) = (lbn + 1, cap.min(lbn + u64::from(geom.track(id).spt())) + 1);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if mid < cap && placed(geom, mid).0 == id {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            starts[id as usize] = Some(lbn);
            counts[id as usize] = (lo - lbn) as u32;
            lbn = lo;
        }
    } else {
        for lbn in 0..cap {
            if geom.is_remapped(lbn) {
                remapped.push(lbn);
                continue;
            }
            let (id, index) = placed(geom, lbn);
            let start = *starts[id as usize].get_or_insert(lbn - index);
            assert_eq!(start, lbn - index, "lbn {lbn} on track {id}");
            counts[id as usize] += 1;
        }
        for lbn in remapped {
            let owner =
                (starts.iter().rposition(|s| s.is_some_and(|s| s <= lbn))).expect("track 0");
            counts[owner] += 1;
        }
    }
    // A track that maps nothing starts where the next one that does.
    let mut next = cap;
    let mut tracks: Vec<(u64, u32)> = (starts.iter().zip(&counts).rev())
        .map(|(start, &count)| {
            next = start.unwrap_or(next);
            (next, count)
        })
        .collect();
    tracks.reverse();
    tracks
}

/// Every view of `geom` against a rebuild from `spec`, `grown` (the
/// `(track, slot)` of each grown defect written) and the public
/// translation: counts and first LBNs from [`walk_the_lbns`], cylinder and
/// head from the id, `angle0` re-accumulated from the skews, the
/// per-zone floats recomputed, and the lists from the defect list and the
/// remapped LBNs' spare locations.
fn check_views(geom: &DiskGeometry, spec: &GeometrySpec, grown: &[(u32, u32)], tally: &mut Tally) {
    let surfaces = spec.surfaces;
    let zone_of_cyl: Vec<usize> = (spec.zones.iter().enumerate())
        .flat_map(|(z, zone)| std::iter::repeat_n(z, zone.cylinders as usize))
        .collect();
    let fracs: Vec<Vec<u64>> = (spec.zones.iter())
        .map(|z| {
            (0..z.spt)
                .map(|s| (f64::from(s) / f64::from(z.spt)).to_bits())
                .collect()
        })
        .collect();
    let mut targets: Vec<Vec<(u32, u64)>> = vec![Vec::new(); geom.num_tracks() as usize];
    let mut remapped = geom.first_remap_in(0, geom.capacity_lbns());
    while let Some(lbn) = remapped {
        let pba = geom.lbn_to_pba(lbn).expect("in range");
        targets[(pba.cyl * surfaces + pba.head) as usize].push((pba.slot, lbn));
        remapped = geom.first_remap_in(lbn + 1, geom.capacity_lbns());
    }
    let defects = geom.defect_list();
    let mut angle = 0.0f64;
    // The last slot-fraction table compared, and the zone it matched.
    let mut compared: Option<(*const f64, usize)> = None;
    assert_eq!(geom.num_tracks(), surfaces * spec.cylinders());
    for (id, (first_lbn, count)) in (0..geom.num_tracks()).zip(walk_the_lbns(geom)) {
        let (cyl, head) = (id / surfaces, id % surfaces);
        let zone = zone_of_cyl[cyl as usize];
        let z = spec.zones[zone];
        if id > 0 {
            let skew = if head == 0 { z.cyl_skew } else { z.track_skew };
            angle = (angle + f64::from(skew) / f64::from(z.spt)).fract();
        }
        let mut grown_slots: Vec<u32> = (grown.iter()).filter(|g| g.0 == id).map(|g| g.1).collect();
        grown_slots.sort_unstable();
        grown_slots.dedup();
        let mut remap_targets = std::mem::take(&mut targets[id as usize]);
        remap_targets.sort_unstable();
        let want = View {
            first_lbn,
            count,
            cyl,
            head,
            spt: z.spt,
            angle0: angle.to_bits(),
            inv_spt: (1.0 / f64::from(z.spt)).to_bits(),
            defect_slots: (defects.iter())
                .filter(|d| (d.cyl, d.head) == (cyl, head))
                .map(|d| d.slot)
                .collect(),
            grown_slots,
            remap_targets,
        };
        let t = geom.track(id);
        assert_eq!(View::of(&t), want, "track {id}");
        let key = (t.slot_fracs().as_ptr(), zone);
        if compared != Some(key) {
            let bits = t.slot_fracs().iter().map(|f| f.to_bits());
            assert!(
                bits.eq(fracs[zone].iter().copied()),
                "track {id}: slot fractions"
            );
            compared = Some(key);
        }
        let clean = want.defect_slots.is_empty()
            && want.grown_slots.is_empty()
            && want.remap_targets.is_empty();
        tally.note_if(clean && count > 0, "clean");
        tally.note_if(
            !want.defect_slots.is_empty() && spec.policy == DefectPolicy::Slip,
            "slipped_defect",
        );
        tally.note_if(!want.remap_targets.is_empty(), "remap_target");
        tally.note_if(count == 0, "empty_spare");
        tally.note_if(!want.grown_slots.is_empty(), "grown");
    }
}

/// Every track view equals a naive rebuild from the spec, on arbitrary
/// specs, after one and after two grown defects on a clone (its original
/// unchanged), and on the catalogued drives.
#[test]
fn track_views_match_a_walk_over_the_slots() {
    let name = "track_views_match_a_walk_over_the_slots";
    let mut tally = Tally::default();
    let picks = prop::collection::vec(0u64..u64::MAX, 2..3);
    for_cases(name, 64, (arb_spec(), picks), |(spec, picks)| {
        // A defect list the scheme cannot absorb is an error.
        let Ok(original) = spec.clone().build() else {
            return;
        };
        check_views(&original, &spec, &[], &mut tally);
        let mut clone = original.clone();
        let mut grown = Vec::new();
        for lbn in picks.iter().map(|p| p % original.capacity_lbns()) {
            if clone.is_remapped(lbn) {
                continue;
            }
            let old = clone.lbn_to_pba(lbn).expect("in range");
            if clone.add_grown_defect(lbn).is_ok() {
                grown.push((old.cyl * spec.surfaces + old.head, old.slot));
                check_views(&clone, &spec, &grown, &mut tally);
            }
        }
        check_views(&original, &spec, &[], &mut tally);
    });
    for sheet in models::table1_sheets() {
        let geometry = sheet.build().geometry;
        check_views(&geometry, &geometry.spec().clone(), &[], &mut tally);
    }
    tally.require(
        name,
        &[
            "clean",
            "slipped_defect",
            "remap_target",
            "empty_spare",
            "grown",
        ],
    );
}
