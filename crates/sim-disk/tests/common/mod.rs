//! What the property tests of the drive share: one generator of
//! geometry specs.

use proptest::prelude::*;
use sim_disk::defects::{DefectLocation, DefectPolicy, SpareScheme};
use sim_disk::geometry::{GeometrySpec, ZoneSpec};

/// An arbitrary small zoned spec with skews, spares and defects, so
/// tracks get varied `angle0` values and slipped slot tables. It draws
/// all four spare schemes: per track, per cylinder (what every RAID-5
/// member carries), per zone and at the end of the disk. Some specs
/// legitimately exceed their spare budget and fail to build; the tests
/// skip those.
pub fn arb_spec() -> impl Strategy<Value = GeometrySpec> {
    let zones = prop::collection::vec(
        (2u32..6, 5u32..200, 0u32..40, 0u32..40).prop_map(|(cyls, spt, ts, cs)| ZoneSpec {
            cylinders: cyls,
            spt,
            track_skew: ts % spt,
            cyl_skew: cs % spt,
        }),
        1..4,
    );
    let scheme = (0u32..4, 2u32..4).prop_map(|(kind, n)| match kind {
        0 => SpareScheme::SectorsPerTrack(n),
        1 => SpareScheme::SectorsPerCylinder(2 * n),
        2 => SpareScheme::TracksPerZone(n),
        _ => SpareScheme::TracksAtEnd(n),
    });
    let policy = prop_oneof![Just(DefectPolicy::Slip), Just(DefectPolicy::Remap)];
    (
        1u32..5,
        zones,
        scheme,
        policy,
        prop::collection::vec((0u32..1000, 0u32..5, 0u32..200), 0..6),
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
