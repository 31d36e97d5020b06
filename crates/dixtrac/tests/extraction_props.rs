//! Property-based end-to-end test: for arbitrary slipping-policy
//! geometries (random zones, spare schemes, defect lists), the SCSI
//! extraction recovers the exact track-boundary table — and on a sample of
//! them, the timing-based general extractor agrees.

use dixtrac::{extract_general, extract_scsi, GeneralConfig};
use proptest::prelude::*;
use scsi::ScsiDisk;
use sim_disk::bus::BusConfig;
use sim_disk::cache::CacheConfig;
use sim_disk::defects::{DefectLocation, DefectPolicy, SpareScheme};
use sim_disk::disk::{Disk, DiskConfig};
use sim_disk::geometry::{GeometrySpec, ZoneSpec};
use sim_disk::mech::{SeekCurve, Spindle};
use sim_disk::SimDur;

fn arb_slip_spec() -> impl Strategy<Value = GeometrySpec> {
    let zones = prop::collection::vec(
        (6u32..12, 60u32..220).prop_map(|(cyls, spt)| ZoneSpec {
            cylinders: cyls,
            spt,
            track_skew: spt / 8 + 2,
            cyl_skew: spt / 6 + 2,
        }),
        1..3,
    );
    let scheme = prop_oneof![
        Just(SpareScheme::None),
        Just(SpareScheme::SectorsPerTrack(3)),
        Just(SpareScheme::SectorsPerCylinder(8)),
        Just(SpareScheme::TracksPerZone(2)),
        Just(SpareScheme::TracksAtEnd(2)),
    ];
    (
        2u32..5,
        zones,
        scheme,
        prop::collection::vec((0u32..10_000u32, 0u32..5, 0u32..60), 0..5),
    )
        .prop_map(|(surfaces, zones, spare, raw)| {
            let total_cyls: u32 = zones.iter().map(|z| z.cylinders).sum();
            let defects = if spare == SpareScheme::None {
                Vec::new()
            } else {
                raw.into_iter()
                    .map(|(c, h, s)| DefectLocation::new(c % total_cyls, h % surfaces, s))
                    .collect()
            };
            GeometrySpec {
                surfaces,
                zones,
                spare,
                policy: DefectPolicy::Slip,
                defects,
            }
        })
}

fn disk_for(spec: GeometrySpec) -> Option<Disk> {
    let geometry = spec.build().ok()?;
    let cylinders = geometry.cylinders();
    // A self-consistent linear seek curve for whatever (small) cylinder
    // count the random geometry produced: seek(d) = 0.8 + k·(d − 1) ms.
    let k = 0.002;
    let cmax = f64::from(cylinders - 1);
    let seek = SeekCurve::calibrate(0.8, 0.8 - k + k * cmax / 3.0, 0.8 - k + k * cmax, cylinders);
    Some(Disk::new(DiskConfig {
        name: "prop".into(),
        geometry,
        spindle: Spindle::new(10_000),
        seek,
        head_switch: SimDur::from_millis_f64(0.8),
        write_settle: SimDur::from_millis_f64(1.0),
        cmd_overhead: SimDur::from_micros_f64(100.0),
        zero_latency: true,
        bus: BusConfig::in_order(160.0),
        cache: CacheConfig::default(),
        tracer: None,
        fault: Default::default(),
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The SCSI extractor is exact on every slipping geometry.
    #[test]
    fn scsi_extraction_is_exact(spec in arb_slip_spec()) {
        if let Some(disk) = disk_for(spec) {
            let truth = disk.track_boundaries();
            let mut s = ScsiDisk::new(disk);
            let r = extract_scsi(&mut s).expect("fault-free extraction succeeds");
            prop_assert_eq!(r.boundaries, truth);
        }
    }
}

proptest! {
    // The general extractor exercises thousands of simulated I/Os per case;
    // a handful of random geometries is plenty on top of the unit matrix.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The timing-only extractor agrees with the geometry too.
    #[test]
    fn general_extraction_is_exact(spec in arb_slip_spec()) {
        if let Some(disk) = disk_for(spec) {
            let truth = disk.track_boundaries();
            let mut s = ScsiDisk::new(disk);
            let cfg = GeneralConfig { contexts: 16, ..GeneralConfig::default() };
            let g = extract_general(&mut s, &cfg).expect("fault-free extraction succeeds");
            prop_assert_eq!(g.boundaries, truth);
        }
    }

    /// Majority voting keeps the timing-only extractor exact under
    /// rotational jitter smaller than half a sector time — the noise regime
    /// where a single probe can land a measurement on the wrong side of the
    /// decision threshold but the vote cannot.
    #[test]
    fn majority_vote_converges_under_sub_sector_jitter(
        spec in arb_slip_spec(),
        seed in 1u64..u64::MAX,
    ) {
        let max_spt = spec.zones.iter().map(|z| z.spt).max().unwrap_or(1);
        if let Some(disk) = disk_for(spec) {
            let truth = disk.track_boundaries();
            // Rotational jitter is drawn as a fraction of one revolution;
            // cap the draw at 0.4 sector times, safely below half a sector.
            let mut cfg = disk.config().clone();
            cfg.fault.rot_jitter = sim_disk::fault::Jitter::Uniform(0.4 / f64::from(max_spt));
            cfg.fault.seed = seed;
            let mut s = ScsiDisk::new(Disk::new(cfg));
            let gcfg = GeneralConfig { contexts: 16, votes: 5 };
            let g = extract_general(&mut s, &gcfg).expect("jittered extraction succeeds");
            prop_assert_eq!(&g.boundaries, &truth);
            // Every boundary was carried by a majority, so no track's
            // confidence can sit at or below one half.
            for (i, c) in g.confidence.iter().enumerate() {
                prop_assert!(*c > 0.5, "track {} confidence {} not a majority", i, c);
            }
        }
    }
}

/// The three shrunk cases the properties above found in the timing
/// extractor, pinned: the disk's last track (measured with a zero slope,
/// it came out as slivers of three sectors), a boundary into a zone of
/// faster sectors (a long read past it came in under the linear model, so
/// the doubling search ran to the end of the disk), and a walk starting
/// just before a boundary on a drive whose tracks are phase-locked (no
/// slope window timed the first track alone; under rotational jitter the
/// slope came out several times too large and hid the next boundary).
#[test]
fn general_extraction_is_exact_at_the_disk_end_and_at_faster_zones() {
    let zone = |cylinders, spt: u32| ZoneSpec {
        cylinders,
        spt,
        track_skew: spt / 8 + 2,
        cyl_skew: spt / 6 + 2,
    };
    let spec = |surfaces, zones| GeometrySpec {
        surfaces,
        zones,
        spare: SpareScheme::None,
        policy: DefectPolicy::Slip,
        defects: Vec::new(),
    };
    let cases = [
        (spec(2, vec![zone(6, 60)]), 1),
        (spec(2, vec![zone(6, 60), zone(6, 124)]), 1),
        (spec(4, vec![zone(6, 211), zone(6, 60)]), 5),
    ];
    for (spec, votes) in cases {
        let disk = disk_for(spec.clone()).expect("a buildable spec");
        let truth = disk.track_boundaries();
        let mut cfg = disk.config().clone();
        if votes > 1 {
            cfg.fault.rot_jitter = sim_disk::fault::Jitter::Uniform(0.4 / 211.0);
            cfg.fault.seed = 1;
        }
        let mut s = ScsiDisk::new(Disk::new(cfg));
        let gcfg = GeneralConfig {
            contexts: 16,
            votes,
        };
        let g = extract_general(&mut s, &gcfg).unwrap();
        assert_eq!(g.boundaries, truth, "{spec:?}");
    }
}

/// Tracks of `truth` that `extracted` does not reproduce exactly.
fn misplaced(extracted: &traxtent::TrackBoundaries, truth: &traxtent::TrackBoundaries) -> usize {
    let found: std::collections::BTreeSet<_> = extracted.iter().collect();
    truth.iter().filter(|t| !found.contains(t)).count()
}

/// Neither extractor is exact on a drive that remaps its factory defects
/// into cylinder spares: the `extraction` figure's `cyl-spares+remap`
/// variant prints `exact = false` for both. This pins how many of the
/// drive's true tracks each one gets wrong today, so that a fix, or a
/// regression, shows as a changed number here.
#[test]
fn remapped_cylinder_spares_misplace_a_pinned_number_of_tracks() {
    let cfg = sim_disk::models::with_factory_defects(
        sim_disk::models::small_test_disk(),
        SpareScheme::SectorsPerCylinder(8),
        DefectPolicy::Remap,
        500,
        31,
    );
    let truth = Disk::new(cfg.clone()).track_boundaries();
    let scsi = extract_scsi(&mut ScsiDisk::new(Disk::new(cfg.clone()))).unwrap();
    let gcfg = GeneralConfig {
        contexts: 24,
        ..GeneralConfig::default()
    };
    let general = extract_general(&mut ScsiDisk::new(Disk::new(cfg)), &gcfg).unwrap();
    let counts = (
        truth.num_tracks(),
        misplaced(&scsi.boundaries, &truth),
        misplaced(&general.boundaries, &truth),
    );
    assert_eq!(
        counts,
        (480, 2, 41),
        "(tracks, scsi misplaced, general misplaced)"
    );
}
