//! End-to-end fault tolerance of the extraction stack: the automatic
//! extractor prefers the exact SCSI path, degrades to timing probes when
//! the drive refuses diagnostics, and rides out transient command aborts
//! on both paths — never panicking, always reporting typed errors.

use dixtrac::{extract_auto, extract_scsi, ExtractError, Extraction, GeneralConfig};
use scsi::ScsiDisk;
use sim_disk::disk::Disk;
use sim_disk::fault::FaultConfig;
use sim_disk::models;

#[test]
fn auto_extraction_prefers_the_scsi_path() {
    let mut disk = ScsiDisk::new(Disk::new(models::small_test_disk()));
    let truth = disk.ground_truth().track_boundaries();
    let auto = extract_auto(&mut disk, &GeneralConfig::default()).expect("healthy drive");
    assert!(matches!(auto.report, Extraction::Scsi(_)));
    assert_eq!(auto.boundaries.table(), &truth);
    assert_eq!(auto.boundaries.mean_confidence(), 1.0);
}

#[test]
fn auto_extraction_falls_back_when_diagnostics_unsupported() {
    let mut cfg = models::small_test_disk();
    cfg.fault.diagnostics_unsupported = true;
    let truth;
    {
        let probe = Disk::new(cfg.clone());
        truth = probe.track_boundaries();
    }
    let mut disk = ScsiDisk::new(Disk::new(cfg));
    let auto = extract_auto(&mut disk, &GeneralConfig::default())
        .expect("fallback must absorb the diagnostics refusal");
    assert!(matches!(auto.report, Extraction::General(_)));
    assert_eq!(auto.boundaries.table(), &truth);
    // A noise-free fallback run is fully confident in every track.
    assert_eq!(auto.boundaries.mean_confidence(), 1.0);
}

#[test]
fn scsi_extraction_reports_rather_than_panics_without_diagnostics() {
    let mut cfg = models::small_test_disk();
    cfg.fault.diagnostics_unsupported = true;
    let mut disk = ScsiDisk::new(Disk::new(cfg));
    let err = extract_scsi(&mut disk).expect_err("diagnostics are off");
    assert!(matches!(err, ExtractError::DiagnosticsUnsupported { .. }));
}

#[test]
fn scsi_extraction_rides_out_transient_aborts() {
    let mut cfg = models::small_test_disk();
    cfg.fault = FaultConfig {
        transient_per_million: 100_000, // 10 % of commands abort
        seed: 0x7e57,
        ..FaultConfig::default()
    };
    let truth;
    {
        let probe = Disk::new(cfg.clone());
        truth = probe.track_boundaries();
    }
    let mut disk = ScsiDisk::new(Disk::new(cfg));
    let r = extract_scsi(&mut disk).expect("bounded retries absorb 10 % aborts");
    assert_eq!(r.boundaries, truth);
}

#[test]
fn auto_extraction_with_faults_and_fallback_still_finds_the_geometry() {
    let mut cfg = models::small_test_disk();
    cfg.fault = FaultConfig {
        diagnostics_unsupported: true,
        transient_per_million: 20_000, // 2 % of commands abort
        seed: 0xd15c,
        ..FaultConfig::default()
    };
    let truth;
    {
        let probe = Disk::new(cfg.clone());
        truth = probe.track_boundaries();
    }
    let mut disk = ScsiDisk::new(Disk::new(cfg));
    let gcfg = GeneralConfig {
        votes: 3,
        ..GeneralConfig::default()
    };
    let auto = extract_auto(&mut disk, &gcfg).expect("fallback plus retries");
    assert!(matches!(auto.report, Extraction::General(_)));
    assert_eq!(auto.boundaries.table(), &truth);
    assert!(auto.boundaries.mean_confidence() > 0.5);
}
