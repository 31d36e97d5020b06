//! §4.1: track-boundary extraction — accuracy and cost of the general
//! timing-based algorithm and the SCSI-specific (DIXtrac-style) algorithm,
//! across spare-scheme and defect-policy variants.
//!
//! Without `--full`, the general algorithm runs on the small test disk and
//! the SCSI algorithm on the full Atlas 10K II; `--full` also runs the
//! general algorithm on the full drive (minutes of wall time).

use dixtrac::{extract_general, extract_scsi, GeneralConfig};
use scsi::ScsiDisk;
use sim_disk::defects::{DefectPolicy, SpareScheme};
use sim_disk::disk::{Disk, DiskConfig};
use sim_disk::models;
use traxtent_bench::{header, row, row_string, Cli};

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

/// One extraction run: which drive, which variant, which algorithm.
enum Job {
    SmallGeneral(Variant),
    SmallScsi(Variant),
    AtlasScsi,
    AtlasGeneral,
}

/// Table row for an extraction run that reported an error (e.g. the drive
/// refuses diagnostics, or faults defeated every retry) instead of a table.
fn failed_row(disk: &str, variant: &str, algorithm: &str, err: &dixtrac::ExtractError) -> String {
    row_string([
        disk.into(),
        variant.into(),
        algorithm.into(),
        "false".into(),
        format!("failed: {err}"),
        "-".into(),
    ])
}

fn apply(variant: &Variant, cfg: DiskConfig) -> DiskConfig {
    match variant.1 {
        None => cfg,
        Some((spare, policy, rate, seed)) => {
            models::with_factory_defects(cfg, spare, policy, rate, seed)
        }
    }
}

fn main() {
    let cli = Cli::parse_with(&["--full"]);
    let probe = cli.probe();
    let reg = traxtent::obs::Registry::new();
    let mut rec = cli.recorder("extraction");

    header("§4.1: track-boundary extraction");
    row([
        "disk".into(),
        "variant".into(),
        "algorithm".into(),
        "exact".into(),
        "cost".into(),
        "sim_time".into(),
    ]);

    let mut jobs = Vec::new();
    for v in VARIANTS {
        jobs.push(Job::SmallGeneral(v));
        jobs.push(Job::SmallScsi(v));
    }
    jobs.push(Job::AtlasScsi);
    if cli.has("--full") {
        jobs.push(Job::AtlasGeneral);
    }

    let results = cli.executor().run(jobs, |_, job| match job {
        Job::SmallGeneral(v) => {
            let disk = Disk::new(probe.wrap(apply(&v, models::small_test_disk())));
            let truth = disk.track_boundaries();
            let mut s = ScsiDisk::new(disk);
            let gcfg = GeneralConfig {
                contexts: 24,
                ..GeneralConfig::default()
            };
            let g = match extract_general(&mut s, &gcfg) {
                Ok(g) => g,
                Err(e) => {
                    return (
                        failed_row("SimTest", v.0, "general (timing)", &e),
                        false,
                        None,
                    )
                }
            };
            g.export_metrics(&reg);
            let exact = g.boundaries == truth;
            let line = row_string([
                "SimTest".into(),
                v.0.into(),
                "general (timing)".into(),
                exact.to_string(),
                format!("{:.1} probes/track", g.probes_per_track),
                format!("{:.1} s", g.elapsed.as_secs_f64()),
            ]);
            (line, exact, None)
        }
        Job::SmallScsi(v) => {
            let disk = Disk::new(probe.wrap(apply(&v, models::small_test_disk())));
            let truth = disk.track_boundaries();
            let mut s = ScsiDisk::new(disk);
            let r = match extract_scsi(&mut s) {
                Ok(r) => r,
                Err(e) => return (failed_row("SimTest", v.0, "scsi", &e), false, None),
            };
            r.export_metrics(&reg);
            let exact = r.boundaries == truth;
            let line = row_string([
                "SimTest".into(),
                v.0.into(),
                format!("scsi ({:?}, {:?})", r.scheme, r.policy),
                exact.to_string(),
                format!("{:.2} translations/track", r.translations_per_track),
                format!("{:.1} s", s.elapsed().as_secs_f64()),
            ]);
            (line, exact, None)
        }
        Job::AtlasScsi => {
            // The full Atlas 10K II with the SCSI algorithm (paper: < 1
            // minute, ≈ 2.0–2.3 translations per track for the
            // expertise-free walk).
            let disk = Disk::new(probe.wrap(models::quantum_atlas_10k_ii()));
            let truth = disk.track_boundaries();
            let mut s = ScsiDisk::new(disk);
            let r = match extract_scsi(&mut s) {
                Ok(r) => r,
                Err(e) => {
                    return (
                        failed_row("Atlas 10K II", "pristine", "scsi", &e),
                        false,
                        None,
                    )
                }
            };
            r.export_metrics(&reg);
            let exact = r.boundaries == truth;
            let line = row_string([
                "Atlas 10K II".into(),
                "pristine".into(),
                "scsi".into(),
                exact.to_string(),
                format!(
                    "{:.2} translations/track ({} total)",
                    r.translations_per_track, r.translations
                ),
                format!("{:.1} s", s.elapsed().as_secs_f64()),
            ]);
            (line, exact, Some(r.translations_per_track))
        }
        Job::AtlasGeneral => {
            let disk = Disk::new(probe.wrap(models::quantum_atlas_10k_ii()));
            let truth = disk.track_boundaries();
            let mut s = ScsiDisk::new(disk);
            let g = match extract_general(&mut s, &GeneralConfig::default()) {
                Ok(g) => g,
                Err(e) => {
                    return (
                        failed_row("Atlas 10K II", "pristine", "general (timing)", &e),
                        false,
                        None,
                    )
                }
            };
            g.export_metrics(&reg);
            let exact = g.boundaries == truth;
            let line = row_string([
                "Atlas 10K II".into(),
                "pristine".into(),
                "general (timing)".into(),
                exact.to_string(),
                format!("{:.1} probes/track", g.probes_per_track),
                format!("{:.0} s (paper: hours)", g.elapsed.as_secs_f64()),
            ]);
            (line, exact, None)
        }
    });
    let mut exact_runs = 0usize;
    let total_runs = results.len();
    for (line, exact, atlas_tpt) in results {
        exact_runs += usize::from(exact);
        if let Some(tpt) = atlas_tpt {
            rec.headline("atlas_scsi_translations_per_track", tpt);
        }
        println!("{line}");
    }
    rec.headline("exact_runs", exact_runs as f64);
    rec.headline("total_runs", total_runs as f64);
    probe.finish();
    rec.finish(&reg);
}
