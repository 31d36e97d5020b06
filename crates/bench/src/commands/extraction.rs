//! §4.1: track-boundary extraction — accuracy and cost of the general
//! timing-based algorithm and the SCSI-specific (DIXtrac-style) algorithm,
//! across spare-scheme and defect-policy variants.
//!
//! Without `--full`, the general algorithm runs on the small test disk and
//! the SCSI algorithm on the full Atlas 10K II; `--full` also runs the
//! general algorithm on the full drive (minutes of wall time).

use crate::{Row, Run};
use dixtrac::{extract_general, extract_scsi, GeneralConfig};
use scsi::ScsiDisk;
use sim_disk::defects::{DefectPolicy, SpareScheme};
use sim_disk::disk::Disk;
use sim_disk::models;

/// Factory-defect variants of §4.1: `(name, Some((spares, policy,
/// rate_per_million, seed)))`, or `None` for the pristine drive.
type Variant = (&'static str, Option<(SpareScheme, DefectPolicy, u32, u64)>);

const VARIANTS: [Variant; 4] = [
    ("pristine", None),
    (
        "cyl-spares+slip",
        Some((
            SpareScheme::SectorsPerCylinder(8),
            DefectPolicy::Slip,
            500,
            17,
        )),
    ),
    (
        "track-spares+slip",
        Some((SpareScheme::SectorsPerTrack(2), DefectPolicy::Slip, 300, 23)),
    ),
    (
        "cyl-spares+remap",
        Some((
            SpareScheme::SectorsPerCylinder(8),
            DefectPolicy::Remap,
            500,
            31,
        )),
    ),
];

pub(crate) fn main(run: &Run) {
    run.header(
        "§4.1: track-boundary extraction",
        &["disk", "variant", "algorithm", "exact", "cost", "sim_time"],
    );

    // One extraction run per job: `(full Atlas 10K II or small test disk,
    // variant, general or SCSI algorithm)`.
    let mut jobs = Vec::new();
    for v in VARIANTS {
        jobs.push((false, v, true));
        jobs.push((false, v, false));
    }
    jobs.push((true, VARIANTS[0], false));
    if run.has("--full") {
        jobs.push((true, VARIANTS[0], true));
    }

    run.sweep(jobs, |_, (atlas, variant, general)| {
        let (name, mut cfg) = if atlas {
            ("Atlas 10K II", models::quantum_atlas_10k_ii())
        } else {
            ("SimTest", models::small_test_disk())
        };
        if let Some((spare, policy, rate, seed)) = variant.1 {
            cfg = models::with_factory_defects(cfg, spare, policy, rate, seed);
        }
        let disk = Disk::new(run.drive(cfg));
        let truth = disk.track_boundaries();
        let mut s = ScsiDisk::new(disk);
        let row = Row::new().col(name).col(variant.0).add("total_runs", 1);
        // The algorithm, exact, cost and sim_time columns of a finished run.
        let outcome = if general {
            let mut gcfg = GeneralConfig::default();
            if !atlas {
                gcfg.contexts = 24;
            }
            extract_general(&mut s, &gcfg).map(|g| {
                g.export_metrics(&run.reg);
                let secs = g.elapsed.as_secs_f64();
                (
                    "general (timing)".to_string(),
                    g.boundaries == truth,
                    Row::new().num(g.probes_per_track, 1).unit(" probes/track"),
                    if atlas {
                        format!("{secs:.0} s (paper: hours)")
                    } else {
                        format!("{secs:.1} s")
                    },
                )
            })
        } else {
            extract_scsi(&mut s).map(|r| {
                r.export_metrics(&run.reg);
                let cost = Row::new().num(r.translations_per_track, 2);
                (
                    if atlas {
                        "scsi".to_string()
                    } else {
                        format!("scsi ({:?}, {:?})", r.scheme, r.policy)
                    },
                    r.boundaries == truth,
                    // The full Atlas 10K II (paper: < 1 minute, ≈ 2.0–2.3
                    // translations per track for the expertise-free walk).
                    if atlas {
                        cost.unit(&format!(" translations/track ({} total)", r.translations))
                            .key("atlas_scsi_translations_per_track")
                    } else {
                        cost.unit(" translations/track")
                    },
                    format!("{:.1} s", s.elapsed().as_secs_f64()),
                )
            })
        };
        match outcome {
            Ok((algorithm, exact, cost, time)) => row
                .col(algorithm)
                .col(exact)
                .add("exact_runs", u8::from(exact))
                .join(cost)
                .col(time),
            // The drive refuses diagnostics, or faults defeated every retry.
            Err(e) => row
                .col(if general { "general (timing)" } else { "scsi" })
                .col(false)
                .add("exact_runs", 0)
                .col(format!("failed: {e}"))
                .col("-"),
        }
    });
}
