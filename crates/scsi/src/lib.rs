//! An emulated SCSI command layer over the simulated drive.
//!
//! The track-extraction algorithms must see the disk exactly the way DIXtrac
//! saw real drives: through the standard, opaque command set — never through
//! the simulator's internal geometry structures. This crate provides that
//! boundary:
//!
//! * `READ CAPACITY` → [`ScsiDisk::read_capacity`]
//! * `READ(10)` / `WRITE(10)` → [`ScsiDisk::read_at_time`] / [`ScsiDisk::write_at`]
//! * `SEND/RECEIVE DIAGNOSTIC` address translation →
//!   [`ScsiDisk::translate_lbn`] and [`ScsiDisk::translate_pba`]
//! * `READ DEFECT DATA` → [`ScsiDisk::read_defect_list`]
//! * `MODE SENSE` (rigid disk geometry & rotation rate pages) →
//!   [`ScsiDisk::mode_sense`]
//!
//! Every command advances a host-side clock and bumps per-command counters,
//! so extraction cost can be reported the way the paper reports it (§4.1.2:
//! "fewer than 30,000 LBN translations", "approximately 2.0–2.3 translations
//! per track").

#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use sim_disk::defects::DefectLocation;
use sim_disk::disk::{Disk, Request};
use sim_disk::fault::SenseKey;
use sim_disk::geometry::Pba;
use sim_disk::trace::TraceEvent;
use sim_disk::{Completion, SimDur, SimTime};
use std::fmt;

/// A failed SCSI command, the way a host sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScsiError {
    /// The drive returned CHECK CONDITION with sense data.
    Check {
        /// The sense key delivered with the condition.
        sense: SenseKey,
        /// The command that failed (e.g. `"read"`, `"translate_lbn"`).
        command: &'static str,
        /// The LBN the command addressed, when it addressed one.
        lbn: Option<u64>,
        /// Host time when the failure was delivered.
        at: SimTime,
    },
    /// The drive does not implement the command at all (vendor diagnostic
    /// pages disabled — ILLEGAL REQUEST / INVALID COMMAND OPERATION CODE).
    Unsupported {
        /// The unimplemented command.
        command: &'static str,
        /// Host time when the rejection was delivered.
        at: SimTime,
    },
}

impl ScsiError {
    /// Whether a fresh retry of the same command can succeed (ABORTED
    /// COMMAND — transport noise, not a property of the address).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ScsiError::Check {
                sense: SenseKey::AbortedCommand,
                ..
            }
        )
    }
}

impl fmt::Display for ScsiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScsiError::Check {
                sense,
                command,
                lbn: Some(lbn),
                at,
            } => write!(
                f,
                "{command} at LBN {lbn}: CHECK CONDITION {sense} (t={at})"
            ),
            ScsiError::Check {
                sense,
                command,
                lbn: None,
                at,
            } => write!(f, "{command}: CHECK CONDITION {sense} (t={at})"),
            ScsiError::Unsupported { command, at } => {
                write!(f, "{command}: command not supported by this drive (t={at})")
            }
        }
    }
}

impl std::error::Error for ScsiError {}

/// Shorthand for results of SCSI commands.
pub type ScsiResult<T> = Result<T, ScsiError>;

/// Per-command-type counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommandCounts {
    /// Media reads issued.
    pub reads: u64,
    /// Media writes issued.
    pub writes: u64,
    /// LBN↔physical address translations.
    pub translations: u64,
    /// READ CAPACITY / MODE SENSE / READ DEFECT DATA queries.
    pub queries: u64,
}

/// MODE SENSE data the drive reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeSense {
    /// Medium rotation rate, RPM (rigid disk geometry page).
    pub rpm: u32,
    /// Number of cylinders.
    pub cylinders: u32,
    /// Number of heads.
    pub heads: u32,
}

/// A simulated drive behind the SCSI command set.
///
/// Owns the drive and a host clock. Commands execute back to back on that
/// clock; [`ScsiDisk::elapsed`] reports how much (simulated) wall time an
/// extraction has consumed.
#[derive(Debug)]
pub struct ScsiDisk {
    disk: Disk,
    now: SimTime,
    counts: CommandCounts,
    /// Cost charged per non-media command (diagnostic, mode sense, …).
    diag_cost: SimDur,
}

impl ScsiDisk {
    /// Wraps a drive. Non-media commands are charged 0.5 ms each, the order
    /// of magnitude DIXtrac observed for diagnostic round trips.
    pub fn new(disk: Disk) -> Self {
        ScsiDisk {
            disk,
            now: SimTime::ZERO,
            counts: CommandCounts::default(),
            diag_cost: SimDur::from_micros_f64(500.0),
        }
    }

    /// The host clock.
    pub fn elapsed(&self) -> SimTime {
        self.now
    }

    /// Command counters so far.
    pub fn counts(&self) -> CommandCounts {
        self.counts
    }

    /// Resets the counters (not the clock).
    pub fn reset_counts(&mut self) {
        self.counts = CommandCounts::default();
    }

    /// Lets host time pass without issuing a command (retry backoff).
    pub fn wait(&mut self, dur: SimDur) {
        self.now += dur;
    }

    /// Consumes the wrapper, returning the drive.
    pub fn into_inner(self) -> Disk {
        self.disk
    }

    /// Read-only access to the underlying drive. Extraction code must not
    /// use this to peek at geometry; it exists for *verification* in tests
    /// and reports.
    pub fn ground_truth(&self) -> &Disk {
        &self.disk
    }

    /// Charges one non-media command: advances the clock by the diagnostic
    /// round-trip cost and, when the underlying drive carries a tracer,
    /// emits a [`TraceEvent::ScsiCommand`] naming the command.
    fn diag(&mut self, kind: &'static str) {
        if let Some(tracer) = self.disk.tracer() {
            tracer.record(&TraceEvent::ScsiCommand {
                t: self.now.as_ns(),
                dur: self.diag_cost.as_ns(),
                kind: kind.to_string(),
            });
        }
        self.now += self.diag_cost;
    }

    /// `READ CAPACITY`: total number of LBNs.
    pub fn read_capacity(&mut self) -> u64 {
        self.counts.queries += 1;
        self.diag("read_capacity");
        self.disk.geometry().capacity_lbns()
    }

    /// `MODE SENSE`: rotation rate and nominal physical geometry. (Real
    /// drives report these pages; like real drives, the *track layout* is
    /// not included.)
    pub fn mode_sense(&mut self) -> ModeSense {
        self.counts.queries += 1;
        self.diag("mode_sense");
        ModeSense {
            rpm: (60.0e9 / self.disk.spindle().revolution().as_ns() as f64).round() as u32,
            cylinders: self.disk.geometry().cylinders(),
            heads: self.disk.geometry().surfaces(),
        }
    }

    /// Runs one media command through the drive's fallible path, advancing
    /// the host clock whether it completes or fails.
    fn media(
        &mut self,
        command: &'static str,
        req: Request,
        at: SimTime,
    ) -> ScsiResult<Completion> {
        match self.disk.try_service(req, at) {
            Ok(c) => {
                self.now = c.completion;
                Ok(c)
            }
            Err(fault) => {
                // Sense delivery still costs the time the drive spent.
                self.now = self.now.max(fault.at);
                Err(ScsiError::Check {
                    sense: fault.sense,
                    command,
                    lbn: Some(req.lbn),
                    at: self.now,
                })
            }
        }
    }

    /// `READ(10)` issued at a chosen instant, [`Self::elapsed`] or later
    /// (for rotation-synchronized probing). The clock advances to the
    /// completion; the host can only observe the command's timing, not the
    /// breakdown — extraction code must use [`Completion::response_time`]
    /// only. Fails with CHECK CONDITION sense data when the drive aborts the
    /// command or rejects the address; an issue instant in the past is
    /// rejected with ILLEGAL REQUEST.
    pub fn read_at_time(&mut self, lbn: u64, len: u64, at: SimTime) -> ScsiResult<Completion> {
        if at < self.now {
            return Err(ScsiError::Check {
                sense: SenseKey::IllegalRequest,
                command: "read",
                lbn: Some(lbn),
                at: self.now,
            });
        }
        self.counts.reads += 1;
        self.media("read", Request::read(lbn, len), at)
    }

    /// `WRITE(10)` at the current host clock.
    pub fn write_at(&mut self, lbn: u64, len: u64) -> ScsiResult<Completion> {
        self.counts.writes += 1;
        self.media("write", Request::write(lbn, len), self.now)
    }

    /// Rejects a diagnostic command on drives without the vendor pages.
    fn diag_gate(&mut self, command: &'static str) -> ScsiResult<()> {
        if self.disk.config().fault.diagnostics_unsupported {
            // The rejection itself still takes a command round trip.
            self.diag(command);
            return Err(ScsiError::Unsupported {
                command,
                at: self.now,
            });
        }
        Ok(())
    }

    /// `SEND/RECEIVE DIAGNOSTIC` address translation: LBN → physical.
    ///
    /// Fails with [`ScsiError::Unsupported`] on drives without the vendor
    /// diagnostic pages, and with ILLEGAL REQUEST when `lbn` is beyond
    /// capacity.
    pub fn translate_lbn(&mut self, lbn: u64) -> ScsiResult<Pba> {
        self.counts.translations += 1;
        self.diag_gate("translate_lbn")?;
        self.diag("translate_lbn");
        self.disk
            .geometry()
            .lbn_to_pba(lbn)
            .map_err(|_| ScsiError::Check {
                sense: SenseKey::IllegalRequest,
                command: "translate_lbn",
                lbn: Some(lbn),
                at: self.now,
            })
    }

    /// `SEND/RECEIVE DIAGNOSTIC` address translation: physical → LBN.
    /// Returns `Ok(None)` for slots holding no LBN (spares, defects,
    /// reserved); fails with [`ScsiError::Unsupported`] on drives without
    /// the vendor diagnostic pages.
    pub fn translate_pba(&mut self, pba: Pba) -> ScsiResult<Option<u64>> {
        self.counts.translations += 1;
        self.diag_gate("translate_pba")?;
        self.diag("translate_pba");
        Ok(self.disk.geometry().pba_to_lbn(pba))
    }

    /// `READ DEFECT DATA`: the factory (P-list) defect list. Fails with
    /// [`ScsiError::Unsupported`] on drives that do not export it.
    pub fn read_defect_list(&mut self) -> ScsiResult<Vec<DefectLocation>> {
        self.counts.queries += 1;
        self.diag_gate("read_defect_list")?;
        self.diag("read_defect_list");
        Ok(self.disk.geometry().defect_list())
    }

    /// The spindle revolution period, measurable by the host from MODE
    /// SENSE's rotation rate.
    pub fn revolution(&mut self) -> SimDur {
        let rpm = self.mode_sense().rpm;
        SimDur::from_secs_f64(60.0 / f64::from(rpm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_disk::models;

    fn scsi() -> ScsiDisk {
        ScsiDisk::new(Disk::new(models::small_test_disk()))
    }

    #[test]
    fn capacity_and_mode_sense_match_geometry() {
        let mut s = scsi();
        let cap = s.read_capacity();
        assert_eq!(cap, s.ground_truth().geometry().capacity_lbns());
        let ms = s.mode_sense();
        assert_eq!(ms.rpm, 10_000);
        assert_eq!(ms.heads, 4);
        assert_eq!(ms.cylinders, 120);
        assert_eq!(s.counts().queries, 2);
    }

    #[test]
    fn reads_advance_the_clock() {
        let mut s = scsi();
        let t0 = s.elapsed();
        let c = s.read_at_time(0, 64, s.elapsed()).unwrap();
        assert!(s.elapsed() > t0);
        assert_eq!(s.elapsed(), c.completion);
        assert_eq!(s.counts().reads, 1);
    }

    #[test]
    fn translations_round_trip_and_cost_time() {
        let mut s = scsi();
        let before = s.elapsed();
        let pba = s.translate_lbn(1234).unwrap();
        let back = s.translate_pba(pba).unwrap();
        assert_eq!(back, Some(1234));
        assert_eq!(s.counts().translations, 2);
        assert!(s.elapsed() > before);
    }

    #[test]
    fn defect_list_matches_spec() {
        use sim_disk::defects::{DefectPolicy, SpareScheme};
        let cfg = models::with_factory_defects(
            models::small_test_disk(),
            SpareScheme::SectorsPerCylinder(8),
            DefectPolicy::Slip,
            800,
            11,
        );
        let expect = cfg.geometry.defect_list();
        let mut s = ScsiDisk::new(Disk::new(cfg));
        assert_eq!(s.read_defect_list().unwrap(), expect);
        assert!(!s.read_defect_list().unwrap().is_empty());
    }

    #[test]
    fn timed_read_waits_for_the_chosen_instant() {
        let mut s = scsi();
        let _ = s.read_at_time(0, 1, s.elapsed()).unwrap();
        let at = s.elapsed() + SimDur::from_millis_f64(5.0);
        let c = s.read_at_time(1000, 1, at).unwrap();
        assert!(c.issue == at);
        assert!(s.elapsed() >= at);
    }

    #[test]
    fn past_issue_is_rejected_with_illegal_request() {
        let mut s = scsi();
        let _ = s.read_at_time(0, 1, s.elapsed()).unwrap();
        let before = s.elapsed();
        let err = s.read_at_time(0, 1, SimTime::ZERO).unwrap_err();
        assert!(matches!(
            err,
            ScsiError::Check {
                sense: SenseKey::IllegalRequest,
                command: "read",
                ..
            }
        ));
        assert_eq!(s.elapsed(), before, "a rejected issue costs no time");
    }

    #[test]
    fn out_of_range_translation_returns_check_condition() {
        let mut s = scsi();
        let cap = s.read_capacity();
        let err = s.translate_lbn(cap + 10).unwrap_err();
        assert!(matches!(
            err,
            ScsiError::Check {
                sense: SenseKey::IllegalRequest,
                command: "translate_lbn",
                lbn: Some(l),
                ..
            } if l == cap + 10
        ));
        assert!(!err.is_transient());
        assert!(err.to_string().contains("translate_lbn"));
    }

    #[test]
    fn diagnostics_unsupported_drives_reject_vendor_commands() {
        let mut cfg = models::small_test_disk();
        cfg.fault.diagnostics_unsupported = true;
        let mut s = ScsiDisk::new(Disk::new(cfg));
        let t0 = s.elapsed();
        let err = s.translate_lbn(0).unwrap_err();
        assert!(matches!(
            err,
            ScsiError::Unsupported {
                command: "translate_lbn",
                ..
            }
        ));
        assert!(s.elapsed() > t0, "the rejection costs a round trip");
        assert!(s.translate_pba(Pba::new(0, 0, 0)).is_err());
        assert!(s.read_defect_list().is_err());
        // Mandatory commands still work.
        assert!(s.read_capacity() > 0);
        let _ = s.mode_sense();
        assert!(s.read_at_time(0, 8, s.elapsed()).is_ok());
    }

    #[test]
    fn transient_faults_surface_as_aborted_command() {
        use sim_disk::fault::FaultConfig;
        let mut cfg = models::small_test_disk();
        cfg.fault = FaultConfig {
            transient_per_million: 400_000,
            ..FaultConfig::default()
        };
        let mut s = ScsiDisk::new(Disk::new(cfg));
        let mut failures = 0;
        let mut successes = 0;
        for i in 0..100u64 {
            match s.read_at_time((i * 777) % 10_000, 16, s.elapsed()) {
                Ok(_) => successes += 1,
                Err(e) => {
                    assert!(e.is_transient());
                    failures += 1;
                }
            }
        }
        assert!(failures > 0 && successes > 0);
    }

    #[test]
    fn revolution_from_mode_sense() {
        let mut s = scsi();
        assert_eq!(s.revolution().as_ns(), 6_000_000);
    }

    #[test]
    fn diagnostic_commands_emit_trace_events() {
        use sim_disk::trace::{MemorySink, Tracer};
        use std::sync::{Arc, Mutex};

        let sink = Arc::new(Mutex::new(MemorySink::new()));
        let mut cfg = models::small_test_disk();
        cfg.tracer = Some(Tracer::new(sink.clone()));
        let mut s = ScsiDisk::new(Disk::new(cfg));
        let _ = s.read_capacity();
        let pba = s.translate_lbn(0).unwrap();
        let _ = s.translate_pba(pba).unwrap();
        let _ = s.read_at_time(0, 8, s.elapsed()).unwrap();

        let events = sink.lock().unwrap().events().to_vec();
        let kinds: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ScsiCommand { kind, .. } => Some(kind.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, ["read_capacity", "translate_lbn", "translate_pba"]);
        // The media read flowed through the drive's own instrumentation.
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Complete { .. })));
    }
}
