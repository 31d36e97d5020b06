//! Background self-healing: recovered media errors demote (or re-verify)
//! track confidence.
//!
//! The fault layer's recovered media errors are early warnings — a sector
//! that needed a firmware retry today may grow into a remapped defect
//! tomorrow, and a remap silently invalidates the extracted track
//! boundaries the allocator relies on. The [`Healer`] closes that loop:
//!
//! 1. each pass drains the drive's recovered-error LBN buffer
//!    ([`scsi::ScsiDisk::take_recent_error_lbns`]) and attributes the
//!    errors to tracks of the current boundary map;
//! 2. a track that accumulates [`HealConfig::suspect_threshold`] errors
//!    becomes *suspect*;
//! 3. suspect tracks are re-verified through the same vendor diagnostics
//!    dixtrac's extraction uses (translate the track's first and last LBN,
//!    confirm they share a physical track and that the next LBN leaves
//!    it). An intact track is promoted back to full confidence; a track
//!    that fails verification — or a drive that refuses diagnostics — is
//!    demoted to [`HealConfig::demote_floor`], so the allocator degrades
//!    that track to untracked placement instead of trusting stale
//!    boundaries.
//!
//! Every pass exports `heal.*` counters through the observability
//! registry, and the whole loop is deterministic: identical fault seeds
//! and workloads produce identical reports.

use scsi::ScsiDisk;
use std::collections::BTreeMap;
use traxtent::boundaries::ConfidentBoundaries;
use traxtent::obs::Registry;

/// Policy knobs for the self-healing loop.
#[derive(Debug, Clone, Copy)]
pub struct HealConfig {
    /// Recovered media errors a track must accumulate (across passes)
    /// before it is treated as suspect.
    pub suspect_threshold: u64,
    /// Confidence a suspect track is demoted to when re-verification
    /// fails or is unavailable.
    pub demote_floor: f64,
}

impl Default for HealConfig {
    fn default() -> Self {
        HealConfig {
            suspect_threshold: 2,
            demote_floor: 0.25,
        }
    }
}

/// What one [`Healer::pass`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealReport {
    /// Recovered-error LBNs drained from the drive this pass.
    pub drained_errors: u64,
    /// Tracks that crossed the suspect threshold this pass.
    pub suspect_tracks: Vec<usize>,
    /// Suspects whose boundaries re-verified intact (promoted back to
    /// full confidence).
    pub verified_intact: Vec<usize>,
    /// Suspects demoted to the floor (verification failed, or the drive
    /// refuses diagnostics).
    pub demoted: Vec<usize>,
    /// Address translations spent on re-verification.
    pub translations: u64,
}

/// Accumulates per-track error counts across passes and heals the
/// boundary map. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Healer {
    config: HealConfig,
    /// Cumulative recovered-error counts per track index; cleared for a
    /// track once the pass acts on it.
    errors: BTreeMap<usize, u64>,
}

impl Healer {
    /// Creates a healer with the given policy.
    pub fn new(config: HealConfig) -> Self {
        Healer {
            config,
            errors: BTreeMap::new(),
        }
    }

    /// Cumulative unacted-on error count currently attributed to `track`.
    pub fn pending_errors(&self, track: usize) -> u64 {
        self.errors.get(&track).copied().unwrap_or(0)
    }

    /// Runs one healing pass over `disk`, updating `map` in place and
    /// exporting `heal.*` counters to `reg`.
    pub fn pass(
        &mut self,
        disk: &mut ScsiDisk,
        map: &mut ConfidentBoundaries,
        reg: &Registry,
    ) -> HealReport {
        let drained = disk.take_recent_error_lbns();
        let capacity = map.table().capacity();
        for &lbn in &drained {
            if lbn < capacity {
                *self.errors.entry(map.table().track_index(lbn)).or_insert(0) += 1;
            }
        }

        let suspects: Vec<usize> = self
            .errors
            .iter()
            .filter(|(_, n)| **n >= self.config.suspect_threshold)
            .map(|(t, _)| *t)
            .collect();

        let mut verified_intact = Vec::new();
        let mut demoted = Vec::new();
        let mut translations = 0u64;
        for &track in &suspects {
            self.errors.remove(&track);
            let intact = if disk.diagnostics_supported() {
                let before = disk.counts().translations;
                let ok = verify_track(disk, map, track);
                translations += disk.counts().translations - before;
                ok
            } else {
                false
            };
            if intact {
                map.promote(track, 1.0);
                verified_intact.push(track);
            } else {
                map.demote(track, self.config.demote_floor);
                demoted.push(track);
            }
        }

        let report = HealReport {
            drained_errors: drained.len() as u64,
            suspect_tracks: suspects,
            verified_intact,
            demoted,
            translations,
        };
        reg.add("heal.passes", 1);
        reg.add("heal.recovered_errors", report.drained_errors);
        reg.add("heal.suspect_tracks", report.suspect_tracks.len() as u64);
        reg.add("heal.verified_intact", report.verified_intact.len() as u64);
        reg.add("heal.demoted_tracks", report.demoted.len() as u64);
        reg.add("heal.translations", report.translations);
        report
    }
}

/// Re-verifies one track of the map against the drive's address
/// translations: the track's first and last LBN must share a physical
/// (cylinder, head), and the following LBN (if any) must not. A failed
/// translation counts as a failed verification — the track stays suspect.
fn verify_track(disk: &mut ScsiDisk, map: &ConfidentBoundaries, track: usize) -> bool {
    let ext = map.table().track_extent(track);
    let first = match disk.translate_lbn(ext.start) {
        Ok(p) => p,
        Err(_) => return false,
    };
    let last = match disk.translate_lbn(ext.start + ext.len - 1) {
        Ok(p) => p,
        Err(_) => return false,
    };
    if (first.cyl, first.head) != (last.cyl, last.head) {
        return false;
    }
    let next = ext.start + ext.len;
    if next < map.table().capacity() {
        match disk.translate_lbn(next) {
            Ok(p) => (p.cyl, p.head) != (first.cyl, first.head),
            Err(_) => false,
        }
    } else {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract_scsi;
    use sim_disk::disk::Disk;
    use sim_disk::models;
    use traxtent::obs::Registry;

    fn faulty_disk(diagnostics: bool) -> ScsiDisk {
        let mut cfg = models::small_test_disk();
        cfg.fault.media_per_million = 20_000;
        cfg.fault.seed = 0x5eed;
        cfg.fault.diagnostics_unsupported = !diagnostics;
        ScsiDisk::new(Disk::new(cfg))
    }

    /// Drives the workload until the firmware reports recovered errors.
    fn provoke_errors(disk: &mut ScsiDisk) {
        for i in 0..200u64 {
            let lbn = (i * 977) % (disk.ground_truth().capacity_lbns() - 64);
            disk.read_at_time(lbn, 64, disk.elapsed())
                .expect("reads recover media errors");
        }
        assert!(
            disk.ground_truth().fault_stats().media_errors > 0,
            "workload must provoke recovered media errors"
        );
    }

    #[test]
    fn intact_suspect_tracks_are_reverified_and_promoted() {
        let mut disk = faulty_disk(true);
        let map0 = ConfidentBoundaries::certain(
            extract_scsi(&mut disk)
                .expect("extraction succeeds")
                .boundaries,
        );
        let mut map = map0.clone();
        provoke_errors(&mut disk);

        let reg = Registry::new();
        let mut healer = Healer::new(HealConfig {
            suspect_threshold: 1,
            demote_floor: 0.25,
        });
        let report = healer.pass(&mut disk, &mut map, &reg);
        assert!(report.drained_errors > 0);
        assert!(!report.suspect_tracks.is_empty());
        // Boundaries never actually moved, so every suspect re-verifies.
        assert_eq!(report.suspect_tracks, report.verified_intact);
        assert!(report.demoted.is_empty());
        assert!(report.translations > 0);
        assert_eq!(map, map0, "intact tracks keep full confidence");

        let snap = reg.snapshot();
        assert_eq!(snap.get("heal.passes"), Some(1));
        assert_eq!(
            snap.get("heal.recovered_errors"),
            Some(report.drained_errors)
        );
        assert_eq!(
            snap.get("heal.verified_intact"),
            Some(report.verified_intact.len() as u64)
        );

        // The buffer was drained: an immediate second pass is a no-op.
        let again = healer.pass(&mut disk, &mut map, &reg);
        assert_eq!(again.drained_errors, 0);
        assert!(again.suspect_tracks.is_empty());
    }

    #[test]
    fn without_diagnostics_suspects_are_demoted() {
        let mut disk = faulty_disk(false);
        // Diagnostics are refused, so build the map from ground truth the
        // way a prior general extraction would have.
        let healthy = Disk::new(models::small_test_disk());
        let mut probe = ScsiDisk::new(healthy);
        let mut map = ConfidentBoundaries::certain(
            extract_scsi(&mut probe)
                .expect("extraction succeeds")
                .boundaries,
        );
        provoke_errors(&mut disk);

        let reg = Registry::new();
        let mut healer = Healer::new(HealConfig {
            suspect_threshold: 1,
            demote_floor: 0.25,
        });
        let report = healer.pass(&mut disk, &mut map, &reg);
        assert!(!report.suspect_tracks.is_empty());
        assert_eq!(report.suspect_tracks, report.demoted);
        assert!(report.verified_intact.is_empty());
        assert_eq!(report.translations, 0);
        for &t in &report.demoted {
            assert_eq!(map.track_confidence(t), 0.25);
            assert!(
                !map.is_confident(t, 0.9),
                "allocator must distrust the track"
            );
        }
        // Demotion is sticky: promotion requires an actual re-verification.
        assert!(map.mean_confidence() < 1.0);
    }

    #[test]
    fn threshold_accumulates_across_passes() {
        let mut disk = faulty_disk(true);
        let mut map = ConfidentBoundaries::certain(
            extract_scsi(&mut disk)
                .expect("extraction succeeds")
                .boundaries,
        );
        let reg = Registry::new();
        let mut healer = Healer::new(HealConfig {
            suspect_threshold: u64::MAX,
            demote_floor: 0.25,
        });
        provoke_errors(&mut disk);
        let report = healer.pass(&mut disk, &mut map, &reg);
        // An unreachable threshold: errors accumulate, nobody acts.
        assert!(report.drained_errors > 0);
        assert!(report.suspect_tracks.is_empty());
        let pending: u64 = (0..map.table().num_tracks())
            .map(|t| healer.pending_errors(t))
            .sum();
        assert_eq!(pending, report.drained_errors);
    }

    #[test]
    fn healing_is_deterministic() {
        let run = || {
            let mut disk = faulty_disk(true);
            let mut map = ConfidentBoundaries::certain(
                extract_scsi(&mut disk)
                    .expect("extraction succeeds")
                    .boundaries,
            );
            provoke_errors(&mut disk);
            let reg = Registry::new();
            let mut healer = Healer::new(HealConfig::default());
            (healer.pass(&mut disk, &mut map, &reg), map)
        };
        assert_eq!(run(), run());
    }
}
