//! `dixtrac_extract`: track-boundary extraction, both algorithms, on an
//! Atlas 10K II with and without factory defects.
//!
//! `dixtrac` and `scsi` do the work. The paper's §4.1 cost (simulated
//! extraction time) and exactness are what a user of the extractor sees;
//! a track whose extracted boundary differs from the drive's true one is
//! a failed op.

use super::{add_fact, ratio, Outcome, Probe, Scale, Workload};
use dixtrac::{extract_general, extract_scsi, GeneralConfig};
use scsi::ScsiDisk;
use server::drive_boundaries;
use sim_disk::defects::{DefectPolicy, SpareScheme};
use sim_disk::disk::{Disk, DiskConfig};
use sim_disk::models;
use std::time::{Duration, Instant};
use traxtent::TrackBoundaries;

pub const WORKLOAD: Workload = Workload {
    name: "dixtrac_extract",
    why: "both extraction algorithms on pristine and defective drives: dixtrac and scsi do the work; extraction cost and exact boundaries are the results",
    op: "track extracted",
    slo_ms: None,
    drive_owner: "dixtrac",
    run,
};

/// The drives of one run: a pristine Atlas 10K II, and one with eight
/// spare sectors per cylinder and a slipped factory defect list drawn from
/// the seed. At 150 defects per million a cylinder expects half a defect,
/// so its eight spares absorb them whatever the seed and
/// `with_factory_defects` always builds. `--quick` keeps the pristine
/// drive only.
///
/// Two more variants were sized and left out. Spare sectors per track
/// leave every boundary where the pristine drive has it, so they add time
/// and no information. Remapped (not slipped) defects break both
/// extractors — at 150 per million the SCSI walk misplaces 19 of 52 014
/// boundaries and the general extractor 25 580, taking 95 times as long —
/// and a workload on which ops fail cannot gate anything else.
fn drives(seed: u64, scale: Scale) -> Vec<DiskConfig> {
    let mut drives = vec![
        models::quantum_atlas_10k_ii(),
        models::with_factory_defects(
            models::quantum_atlas_10k_ii(),
            SpareScheme::SectorsPerCylinder(8),
            DefectPolicy::Slip,
            150,
            seed,
        ),
    ];
    drives.truncate(scale.n(drives.len()));
    drives
}

/// Tracks of `truth` that `extracted` does not reproduce exactly.
fn inexact_tracks(extracted: &TrackBoundaries, truth: &TrackBoundaries) -> u64 {
    let found: std::collections::BTreeSet<_> = extracted.iter().collect();
    truth.iter().filter(|t| !found.contains(t)).count() as u64
}

fn run(seed: u64, scale: Scale, probe: &Probe) -> Result<Outcome, String> {
    let drives = drives(seed, scale);
    // Each extraction gets a drive of its own, built during set-up.
    let mut rigs: Vec<(ScsiDisk, ScsiDisk)> = drives
        .into_iter()
        .map(|config| {
            let rig = |c: DiskConfig| ScsiDisk::new(Disk::new(probe.drive(c)));
            (rig(config.clone()), rig(config))
        })
        .collect();

    let (mut general_host, mut scsi_host) = (Duration::ZERO, Duration::ZERO);
    let extractions = probe.timed(|| {
        rigs.iter_mut()
            .map(|(general, scsi)| {
                let t = Instant::now();
                let g = probe.call("dixtrac.extract_general", "dixtrac", || {
                    extract_general(general, &GeneralConfig::default())
                });
                general_host += t.elapsed();
                let t = Instant::now();
                let s = probe.call("dixtrac.extract_scsi", "dixtrac", || extract_scsi(scsi));
                scsi_host += t.elapsed();
                (g, s)
            })
            .collect::<Vec<_>>()
    });

    let mut out = Outcome::default();
    let (mut general_tracks, mut scsi_tracks) = (0.0, 0.0);
    let (mut probes, mut translations, mut mispredictions) = (0.0, 0.0, 0.0);
    let mut scsi_cmds = 0;
    for ((g, s), (general_rig, scsi_rig)) in extractions.into_iter().zip(&rigs) {
        let g = g.map_err(|e| format!("general extraction: {e}"))?;
        let s = s.map_err(|e| format!("SCSI extraction: {e}"))?;
        let truth = drive_boundaries(general_rig.ground_truth());
        for (boundaries, rig) in [(&g.boundaries, general_rig), (&s.boundaries, scsi_rig)] {
            let tracks = truth.num_tracks() as u64;
            out.attempted += tracks;
            out.succeeded += tracks - inexact_tracks(boundaries, &truth).min(tracks);
            out.sim_s += rig.elapsed().as_secs_f64();
            let c = rig.counts();
            scsi_cmds += c.reads + c.writes + c.translations + c.queries;
        }
        add_fact(
            &mut out.facts,
            "dixtrac.sim_s.general",
            general_rig.elapsed().as_secs_f64(),
        );
        add_fact(
            &mut out.facts,
            "dixtrac.sim_s.scsi",
            scsi_rig.elapsed().as_secs_f64(),
        );
        general_tracks += g.boundaries.num_tracks() as f64;
        scsi_tracks += s.boundaries.num_tracks() as f64;
        probes += g.probe_reads as f64;
        translations += s.translations as f64;
        mispredictions += (g.counters.mispredictions + s.mispredictions) as f64;
    }
    out.facts.extend([
        ("dixtrac.probes_per_track", ratio(probes, general_tracks)),
        (
            "dixtrac.translations_per_track",
            ratio(translations, scsi_tracks),
        ),
        (
            "dixtrac.mispredict_frac",
            ratio(mispredictions, general_tracks + scsi_tracks),
        ),
        (
            "dixtrac.exact_frac",
            ratio(out.succeeded as f64, out.attempted as f64),
        ),
        ("scsi.cmds", scsi_cmds as f64),
    ]);
    if probe.spans().is_some() {
        // Whole-call host time per algorithm, drive included; the layer's
        // self time with the drive carved out is `dixtrac.self_us_per_track`.
        let us_per_track = |host: Duration, tracks| ratio(host.as_secs_f64() * 1e6, tracks);
        out.observed = vec![
            (
                "dixtrac.general_us_per_track",
                us_per_track(general_host, general_tracks),
            ),
            (
                "dixtrac.scsi_us_per_track",
                us_per_track(scsi_host, scsi_tracks),
            ),
        ];
    }
    Ok(out)
}
