//! Preset configurations for the seven drives of Table 1 of the paper.
//!
//! Each preset reproduces the published characteristics — RPM, head-switch
//! time, average seek, sectors-per-track range, track count — and derives
//! the rest (zone layout, skews, seek-curve calibration) the way the real
//! firmware would: skews sized to cover the head-switch and single-cylinder
//! seek times, zones interpolating linearly from the outer to the inner
//! sectors-per-track count.
//!
//! Presets are pristine (no factory defects). Use [`with_factory_defects`]
//! to format a drive with a deterministic pseudo-random defect list and a
//! per-cylinder spare scheme, which is what makes track-boundary extraction
//! non-trivial.
//!
//! A preset's geometry is built once per process and shared: asking for a
//! drive again costs a clone of its shared tables, not a rebuild of its
//! layout.

use crate::bus::BusConfig;
use crate::cache::CacheConfig;
use crate::defects::{DefectLocation, DefectPolicy, SpareScheme};
use crate::disk::DiskConfig;
use crate::fault::FaultConfig;
use crate::geometry::{DiskGeometry, GeometrySpec, ZoneSpec};
use crate::mech::{SeekCurve, Spindle};
use crate::SimDur;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, PoisonError};

/// Published characteristics of a drive, as in Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSheet {
    /// Model name.
    pub name: &'static str,
    /// Model year (for the Table 1 printout).
    pub year: u32,
    /// Spindle speed.
    pub rpm: u32,
    /// Head switch time, ms.
    pub head_switch_ms: f64,
    /// Average seek time, ms.
    pub avg_seek_ms: f64,
    /// Sectors per track, outermost zone.
    pub spt_outer: u32,
    /// Sectors per track, innermost zone.
    pub spt_inner: u32,
    /// Total number of tracks.
    pub tracks: u32,
    /// Advertised capacity, GB (informational).
    pub capacity_gb: f64,
    /// Number of media surfaces.
    pub surfaces: u32,
    /// Number of recording zones.
    pub zones: u32,
    /// Whether the firmware supports zero-latency access.
    pub zero_latency: bool,
    /// Host bus peak rate, MB/s.
    pub bus_mb_s: f64,
}

/// The seven rows of Table 1.
pub fn table1_sheets() -> Vec<ModelSheet> {
    vec![
        ModelSheet {
            name: "HP C2247",
            year: 1992,
            rpm: 5400,
            head_switch_ms: 1.0,
            avg_seek_ms: 10.0,
            spt_outer: 96,
            spt_inner: 56,
            tracks: 25649,
            capacity_gb: 1.0,
            surfaces: 13,
            zones: 8,
            zero_latency: false,
            bus_mb_s: 20.0,
        },
        ModelSheet {
            name: "Quantum Viking",
            year: 1997,
            rpm: 7200,
            head_switch_ms: 1.0,
            avg_seek_ms: 8.0,
            spt_outer: 216,
            spt_inner: 126,
            tracks: 49152,
            capacity_gb: 4.5,
            surfaces: 8,
            zones: 12,
            zero_latency: false,
            bus_mb_s: 40.0,
        },
        ModelSheet {
            name: "IBM Ultrastar 18 ES",
            year: 1998,
            rpm: 7200,
            head_switch_ms: 1.1,
            avg_seek_ms: 7.6,
            spt_outer: 390,
            spt_inner: 247,
            tracks: 57090,
            capacity_gb: 9.0,
            surfaces: 10,
            zones: 12,
            zero_latency: false,
            bus_mb_s: 80.0,
        },
        ModelSheet {
            name: "IBM Ultrastar 18LZX",
            year: 1999,
            rpm: 10000,
            head_switch_ms: 0.8,
            avg_seek_ms: 5.9,
            spt_outer: 382,
            spt_inner: 195,
            tracks: 116340,
            capacity_gb: 18.0,
            surfaces: 20,
            zones: 16,
            zero_latency: false,
            bus_mb_s: 80.0,
        },
        ModelSheet {
            name: "Quantum Atlas 10K",
            year: 1999,
            rpm: 10000,
            head_switch_ms: 0.8,
            avg_seek_ms: 5.0,
            spt_outer: 334,
            spt_inner: 224,
            tracks: 60126,
            capacity_gb: 9.0,
            surfaces: 6,
            zones: 16,
            zero_latency: true,
            bus_mb_s: 80.0,
        },
        ModelSheet {
            name: "Seagate Cheetah X15",
            year: 2000,
            rpm: 15000,
            head_switch_ms: 0.8,
            avg_seek_ms: 3.9,
            spt_outer: 386,
            spt_inner: 286,
            tracks: 103750,
            capacity_gb: 18.0,
            surfaces: 8,
            zones: 16,
            zero_latency: false,
            bus_mb_s: 100.0,
        },
        ModelSheet {
            name: "Quantum Atlas 10K II",
            year: 2000,
            rpm: 10000,
            head_switch_ms: 0.6,
            avg_seek_ms: 4.7,
            spt_outer: 528,
            spt_inner: 353,
            tracks: 52014,
            capacity_gb: 9.0,
            surfaces: 6,
            zones: 16,
            zero_latency: true,
            bus_mb_s: 160.0,
        },
    ]
}

impl ModelSheet {
    /// Single-cylinder seek time derived from the average (clamped to the
    /// settle-dominated 0.75–1.2 ms range typical of the era).
    pub fn single_cyl_seek_ms(&self) -> f64 {
        (0.17 * self.avg_seek_ms).clamp(0.75, 1.2)
    }

    /// Full-strobe seek time derived from the average.
    pub fn full_strobe_seek_ms(&self) -> f64 {
        1.9 * self.avg_seek_ms
    }

    /// Number of cylinders (tracks / surfaces).
    pub fn cylinders(&self) -> u32 {
        self.tracks / self.surfaces
    }

    /// Builds the pristine drive configuration for this sheet.
    ///
    /// # Panics
    ///
    /// Panics if the sheet describes no drive the geometry and the seek
    /// curve accept (no surfaces, say, or fewer than three cylinders).
    /// Every sheet of [`table1_sheets`] builds.
    pub fn build(&self) -> DiskConfig {
        let cylinders = self.cylinders();
        let spindle = Spindle::new(self.rpm);
        let rev_ms = spindle.revolution().as_millis_f64();
        let head_switch = SimDur::from_millis_f64(self.head_switch_ms);
        let single = self.single_cyl_seek_ms();

        // Zone layout: split cylinders into `zones` runs, sectors-per-track
        // interpolating linearly from outer to inner. Skews cover the head
        // switch (track skew) and a single-cylinder seek (cylinder skew),
        // plus a 2-slot controller margin.
        // Zone widths are proportional to their sectors-per-track (outer
        // zones are wider on real drives); sectors-per-track interpolates
        // linearly from the outer to the inner published count.
        let mut zone_specs = Vec::with_capacity(self.zones as usize);
        let spt_of = |z: u32| -> f64 {
            let f = if self.zones > 1 {
                f64::from(z) / f64::from(self.zones - 1)
            } else {
                0.0
            };
            f64::from(self.spt_outer) + f * (f64::from(self.spt_inner) - f64::from(self.spt_outer))
        };
        let weight_total: f64 = (0..self.zones).map(spt_of).sum();
        let mut assigned = 0u32;
        for z in 0..self.zones {
            let cyls = if z == self.zones - 1 {
                cylinders - assigned
            } else {
                ((f64::from(cylinders) * spt_of(z) / weight_total).round() as u32).max(1)
            };
            assigned += cyls;
            let spt = spt_of(z).round() as u32;
            let track_skew = ((self.head_switch_ms / rev_ms) * f64::from(spt)).ceil() as u32 + 2;
            let cyl_skew = ((single / rev_ms) * f64::from(spt)).ceil() as u32 + 2;
            zone_specs.push(ZoneSpec {
                cylinders: cyls,
                spt,
                track_skew,
                cyl_skew,
            });
        }

        DiskConfig {
            name: self.name.to_string(),
            geometry: catalogued(GeometrySpec::pristine(self.surfaces, zone_specs)),
            spindle,
            seek: SeekCurve::calibrate(
                single,
                self.avg_seek_ms,
                self.full_strobe_seek_ms(),
                cylinders,
            ),
            head_switch,
            write_settle: SimDur::from_millis_f64(1.2),
            cmd_overhead: SimDur::from_micros_f64(100.0),
            zero_latency: self.zero_latency,
            bus: BusConfig::in_order(self.bus_mb_s),
            cache: CacheConfig::default(),
            tracer: None,
            fault: FaultConfig::default(),
        }
    }
}

/// The geometry `spec` describes, built the first time the process asks
/// for it and shared from then on. A geometry is a pure function of its
/// spec, so every caller on every thread gets the same tables whichever
/// built them. The key is the whole spec, never a sheet's name: a modified
/// sheet gets a geometry of its own. The table keeps one geometry per
/// distinct spec asked for — the pristine drives of the catalogue;
/// defective ones are built fresh by [`with_factory_defects`].
#[expect(
    clippy::expect_used,
    reason = "ModelSheet::build's # Panics contract; every catalogued sheet builds \
              (all_presets_build), and so does small_test_disk"
)]
fn catalogued(spec: GeometrySpec) -> DiskGeometry {
    static BUILT: Mutex<Vec<DiskGeometry>> = Mutex::new(Vec::new());
    // The one write is a push of a whole geometry, so a panic while the
    // lock is held leaves the table valid and poisoning can be ignored.
    let mut built = BUILT.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(geometry) = built.iter().find(|g| *g.spec() == spec) {
        return geometry.clone();
    }
    let geometry = spec.build().expect("catalogued geometry is valid");
    built.push(geometry.clone());
    geometry
}

/// The Quantum Atlas 10K II — the paper's primary measurement platform.
pub fn quantum_atlas_10k_ii() -> DiskConfig {
    table1("Quantum Atlas 10K II")
}

/// The Quantum Atlas 10K — the FFS experiment platform.
pub fn quantum_atlas_10k() -> DiskConfig {
    table1("Quantum Atlas 10K")
}

/// The [`table1_sheets`] drive called `name`, built.
#[expect(clippy::expect_used, reason = "callers name a table1_sheets() row")]
fn table1(name: &str) -> DiskConfig {
    table1_sheets()
        .into_iter()
        .find(|s| s.name == name)
        .expect("table1_sheets() lists every preset")
        .build()
}

/// A small fast-to-build drive for unit and property tests: 2 zones,
/// 4 surfaces, 10 000 RPM, zero-latency, in the spirit of the Atlas family.
pub fn small_test_disk() -> DiskConfig {
    let spindle = Spindle::new(10_000);
    let geometry = catalogued(GeometrySpec::pristine(
        4,
        vec![
            ZoneSpec {
                cylinders: 60,
                spt: 200,
                track_skew: 30,
                cyl_skew: 36,
            },
            ZoneSpec {
                cylinders: 60,
                spt: 150,
                track_skew: 23,
                cyl_skew: 27,
            },
        ],
    ));
    DiskConfig {
        name: "SimTest 100".to_string(),
        geometry,
        spindle,
        seek: SeekCurve::calibrate(0.8, 2.5, 5.0, 120),
        head_switch: SimDur::from_millis_f64(0.8),
        write_settle: SimDur::from_millis_f64(1.2),
        cmd_overhead: SimDur::from_micros_f64(100.0),
        zero_latency: true,
        bus: BusConfig::in_order(160.0),
        cache: CacheConfig::default(),
        tracer: None,
        fault: FaultConfig::default(),
    }
}

/// Reformats a configuration with a deterministic pseudo-random factory
/// defect list (about `rate_per_million` defective sectors per million) and
/// the given spare scheme/policy. This is the variant used to exercise the
/// track-boundary extraction algorithms.
///
/// # Panics
///
/// Panics if the spare scheme cannot absorb the generated defect list
/// (choose a larger reserve).
#[expect(
    clippy::expect_used,
    reason = "the # Panics contract: too small a spare reserve is the caller's error"
)]
pub fn with_factory_defects(
    config: DiskConfig,
    spare: SpareScheme,
    policy: DefectPolicy,
    rate_per_million: u32,
    seed: u64,
) -> DiskConfig {
    let mut spec = config.geometry.spec().clone();
    spec.spare = spare;
    spec.policy = policy;
    spec.defects = random_defects(&spec, rate_per_million, seed);
    DiskConfig {
        geometry: spec.build().expect("defected geometry is valid"),
        ..config
    }
}

/// Generates a deterministic defect list at roughly `rate_per_million`
/// defective sectors per million, uniformly over the media.
pub fn random_defects(
    spec: &GeometrySpec,
    rate_per_million: u32,
    seed: u64,
) -> Vec<DefectLocation> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut defects = Vec::new();
    let mut cyl0 = 0u32;
    for z in &spec.zones {
        let slots_in_zone = u64::from(z.cylinders) * u64::from(spec.surfaces) * u64::from(z.spt);
        let expected = slots_in_zone * u64::from(rate_per_million) / 1_000_000;
        for _ in 0..expected {
            defects.push(DefectLocation::new(
                cyl0 + rng.gen_range(0..z.cylinders),
                rng.gen_range(0..spec.surfaces),
                rng.gen_range(0..z.spt),
            ));
        }
        cyl0 += z.cylinders;
    }
    defects.sort();
    defects.dedup();
    defects
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{Disk, Request};
    use crate::SimTime;

    #[test]
    fn all_presets_build() {
        for sheet in table1_sheets() {
            let cfg = sheet.build();
            assert!(cfg.geometry.capacity_lbns() > 0, "{}", sheet.name);
            assert_eq!(
                cfg.geometry.num_tracks() / sheet.surfaces * sheet.surfaces,
                cfg.geometry.num_tracks()
            );
            // Outer zone matches the published sectors-per-track.
            assert_eq!(
                cfg.geometry.zones()[0].spt,
                sheet.spt_outer,
                "{}",
                sheet.name
            );
            let last = cfg.geometry.zones().len() - 1;
            assert_eq!(
                cfg.geometry.zones()[last].spt,
                sheet.spt_inner,
                "{}",
                sheet.name
            );
        }
    }

    #[test]
    fn atlas_10k_ii_first_zone_track_is_264_kb() {
        let cfg = quantum_atlas_10k_ii();
        let track = cfg.geometry.track(0);
        assert_eq!(track.lbn_count(), 528);
        assert_eq!(
            u64::from(track.lbn_count()) * crate::SECTOR_BYTES,
            264 * 1024
        ); // 264 KB
    }

    #[test]
    fn atlas_10k_ii_first_zone_seek_is_about_2_2_ms() {
        // The paper reports a 2.2 ms average seek for random requests within
        // the Atlas 10K II's first zone.
        let cfg = quantum_atlas_10k_ii();
        let zone = cfg.geometry.zones()[0];
        let mut rng = StdRng::seed_from_u64(42);
        let mut sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let a = rng.gen_range(0..zone.cylinders);
            let b = rng.gen_range(0..zone.cylinders);
            sum += cfg.seek.seek_time(a.abs_diff(b)).as_millis_f64();
        }
        let avg = sum / f64::from(n);
        assert!((1.6..=2.8).contains(&avg), "first-zone avg seek {avg} ms");
    }

    #[test]
    fn streaming_bandwidth_is_about_40_mb_s() {
        // 528 sectors per 6 ms revolution plus a head switch per track.
        let cfg = quantum_atlas_10k_ii();
        let track_bytes = 528.0 * 512.0;
        let per_track_ms =
            cfg.spindle.revolution().as_millis_f64() + cfg.head_switch.as_millis_f64();
        let mb_s = track_bytes / 1e6 / (per_track_ms / 1e3);
        assert!(
            (38.0..=43.0).contains(&mb_s),
            "streaming bandwidth {mb_s} MB/s"
        );
    }

    #[test]
    fn factory_defects_preserve_service() {
        let cfg = with_factory_defects(
            small_test_disk(),
            SpareScheme::SectorsPerCylinder(8),
            DefectPolicy::Slip,
            500,
            7,
        );
        assert!(!cfg.geometry.spec().defects.is_empty());
        let mut disk = Disk::new(cfg);
        let c = disk.service(Request::read(0, 64), SimTime::ZERO);
        assert!(c.completion > SimTime::ZERO);
    }

    #[test]
    fn random_defects_are_deterministic() {
        let spec = small_test_disk().geometry.spec().clone();
        let a = random_defects(&spec, 1000, 3);
        let b = random_defects(&spec, 1000, 3);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn zero_latency_flags_match_table1() {
        assert!(quantum_atlas_10k_ii().zero_latency);
        assert!(quantum_atlas_10k().zero_latency);
        for sheet in table1_sheets() {
            if ["Seagate Cheetah X15", "IBM Ultrastar 18 ES"].contains(&sheet.name) {
                assert!(!sheet.zero_latency, "{}", sheet.name);
            }
        }
    }

    /// `got` answers as an uncached build of its own spec: capacity, every
    /// track start, and the physical location of a thousand LBNs.
    fn assert_built_fresh(got: &DiskGeometry, what: &str) {
        let want = got.spec().clone().build().expect("built once already");
        assert_eq!(got.capacity_lbns(), want.capacity_lbns(), "{what}");
        assert!(got.track_starts().eq(want.track_starts()), "{what}");
        let cap = want.capacity_lbns();
        for lbn in (0..cap).step_by(cap as usize / 997).chain([cap - 1]) {
            assert_eq!(got.lbn_to_pba(lbn), want.lbn_to_pba(lbn), "{what}: {lbn}");
        }
    }

    #[test]
    fn catalogued_drives_built_twice_match_an_uncached_build() {
        for sheet in table1_sheets() {
            assert_built_fresh(&sheet.build().geometry, sheet.name);
            assert_built_fresh(&sheet.build().geometry, sheet.name);
        }
        assert_built_fresh(&small_test_disk().geometry, "SimTest 100");
        assert_built_fresh(&small_test_disk().geometry, "SimTest 100");
    }

    #[test]
    fn a_modified_sheet_under_the_same_name_gets_its_own_geometry() {
        let sheet = table1_sheets().swap_remove(0);
        let fewer_zones = ModelSheet {
            zones: sheet.zones - 1,
            ..sheet.clone()
        };
        let denser = ModelSheet {
            spt_outer: sheet.spt_outer + 8,
            ..sheet.clone()
        };
        for modified in [&sheet, &fewer_zones, &denser, &sheet] {
            let geometry = modified.build().geometry;
            assert_eq!(geometry.zones().len() as u32, modified.zones);
            assert_eq!(geometry.zones()[0].spt, modified.spt_outer);
            assert_built_fresh(&geometry, modified.name);
        }
    }

    #[test]
    fn concurrent_builds_of_one_drive_are_equal() {
        let start = std::sync::Barrier::new(4);
        let built: Vec<DiskGeometry> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        quantum_atlas_10k_ii().geometry
                    })
                })
                .collect();
            let done = workers.into_iter().map(|w| w.join());
            done.map(|g| g.expect("a worker panicked")).collect()
        });
        for geometry in &built {
            assert_eq!(geometry.spec(), built[0].spec());
            assert_built_fresh(geometry, "Quantum Atlas 10K II");
        }
    }
}
