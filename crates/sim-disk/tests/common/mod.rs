//! What the property tests of the rotation and bus kernels share.

use proptest::prelude::*;
use sim_disk::defects::{DefectLocation, DefectPolicy, SpareScheme};
use sim_disk::geometry::{GeometrySpec, ZoneSpec};

/// An arbitrary small zoned spec with skews, spares, and defects, so
/// tracks get varied `angle0` values and slipped slot tables. Some specs
/// legitimately exceed their spare budget and fail to build; the test
/// skips those.
pub fn arb_spec() -> impl Strategy<Value = GeometrySpec> {
    let zones = prop::collection::vec(
        (2u32..5, 5u32..200, 0u32..40, 0u32..40).prop_map(|(cyls, spt, ts, cs)| ZoneSpec {
            cylinders: cyls,
            spt,
            track_skew: ts % spt,
            cyl_skew: cs % spt,
        }),
        1..3,
    );
    let scheme = prop_oneof![
        Just(SpareScheme::SectorsPerTrack(2)),
        Just(SpareScheme::TracksAtEnd(2)),
    ];
    let policy = prop_oneof![Just(DefectPolicy::Slip), Just(DefectPolicy::Remap)];
    (
        1u32..4,
        zones,
        scheme,
        policy,
        prop::collection::vec((0u32..500, 0u32..4, 0u32..200), 0..4),
    )
        .prop_map(|(surfaces, zones, spare, policy, raw_defects)| {
            let total_cyls: u32 = zones.iter().map(|z| z.cylinders).sum();
            let defects = raw_defects
                .into_iter()
                .map(|(c, h, s)| {
                    let cyl = c % total_cyls;
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
