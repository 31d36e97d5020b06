//! Extraction failure modes and the host-side retry policy.
//!
//! Real DIXtrac runs against drives that time out, abort commands, and
//! refuse vendor diagnostics. Every fallible step of both extractors
//! reports through [`ExtractError`]; transient command aborts are retried
//! a bounded number of times with a deterministic backoff before being
//! surfaced.

use scsi::{ScsiDisk, ScsiError, ScsiResult};
use sim_disk::SimDur;
use std::fmt;

/// Why an extraction could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractError {
    /// The drive does not implement the vendor diagnostic commands the
    /// SCSI-specific extractor depends on. The general, timing-based
    /// extractor still applies — see `extract_auto`.
    DiagnosticsUnsupported {
        /// The rejected command.
        command: &'static str,
    },
    /// A command kept failing with a transient ABORTED COMMAND even after
    /// every retry.
    RetriesExhausted {
        /// The command that failed.
        command: &'static str,
        /// The LBN it addressed.
        lbn: u64,
        /// How many attempts were made.
        attempts: u32,
    },
    /// A command failed in a way retries cannot help (bad address, medium
    /// error on the probe target, …).
    Scsi(ScsiError),
    /// The drive reported zero capacity.
    ZeroCapacity,
    /// The discovered boundaries do not form a valid table.
    InvalidTable(&'static str),
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::DiagnosticsUnsupported { command } => {
                write!(f, "drive does not support diagnostic command {command}")
            }
            ExtractError::RetriesExhausted {
                command,
                lbn,
                attempts,
            } => write!(
                f,
                "{command} at LBN {lbn} still aborted after {attempts} attempts"
            ),
            ExtractError::Scsi(e) => write!(f, "extraction stopped by {e}"),
            ExtractError::ZeroCapacity => write!(f, "drive reports zero capacity"),
            ExtractError::InvalidTable(why) => {
                write!(f, "extracted boundaries are inconsistent: {why}")
            }
        }
    }
}

impl std::error::Error for ExtractError {}

impl From<ScsiError> for ExtractError {
    fn from(e: ScsiError) -> Self {
        match e {
            ScsiError::Unsupported { command, .. } => {
                ExtractError::DiagnosticsUnsupported { command }
            }
            other => ExtractError::Scsi(other),
        }
    }
}

/// Attempts per command before a transient abort is surfaced.
const MAX_ATTEMPTS: u32 = 8;

/// Deterministic backoff before retry `attempt` (0-based): 250 µs doubling
/// to a 4 ms ceiling — long enough to outlast transport glitches, short
/// enough not to distort extraction-cost reporting.
fn backoff(attempt: u32) -> SimDur {
    SimDur::from_micros_f64(250.0) * (1u64 << attempt.min(4))
}

/// Runs `op` until it succeeds or fails non-transiently, waiting out the
/// backoff between transient aborts. `command`/`lbn` label the error when
/// the retry budget runs dry.
pub(crate) fn with_retries<T>(
    disk: &mut ScsiDisk,
    command: &'static str,
    lbn: u64,
    mut op: impl FnMut(&mut ScsiDisk) -> ScsiResult<T>,
) -> Result<T, ExtractError> {
    let mut attempt = 0;
    loop {
        match op(disk) {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() => {
                attempt += 1;
                if attempt >= MAX_ATTEMPTS {
                    return Err(ExtractError::RetriesExhausted {
                        command,
                        lbn,
                        attempts: attempt,
                    });
                }
                disk.wait(backoff(attempt - 1));
            }
            Err(e) => return Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_disk::disk::Disk;
    use sim_disk::fault::{FaultConfig, SenseKey};
    use sim_disk::models;
    use sim_disk::SimTime;

    #[test]
    fn backoff_doubles_then_caps() {
        assert_eq!(backoff(0).as_ns(), 250_000);
        assert_eq!(backoff(1).as_ns(), 500_000);
        assert_eq!(backoff(4).as_ns(), 4_000_000);
        assert_eq!(backoff(10), backoff(4));
    }

    #[test]
    fn retries_recover_transient_aborts() {
        let mut cfg = models::small_test_disk();
        cfg.fault = FaultConfig {
            transient_per_million: 400_000,
            ..FaultConfig::default()
        };
        let mut disk = ScsiDisk::new(Disk::new(cfg));
        // 100 reads, all of which must come back despite ~40 % aborts.
        for i in 0..100u64 {
            let lbn = (i * 613) % 10_000;
            let c = with_retries(&mut disk, "read", lbn, |d| {
                d.read_at_time(lbn, 8, d.elapsed())
            })
            .expect("bounded retries must absorb transient aborts");
            assert!(c.completion > SimTime::ZERO);
        }
    }

    #[test]
    fn non_transient_errors_surface_immediately() {
        let mut disk = ScsiDisk::new(Disk::new(models::small_test_disk()));
        let cap = disk.read_capacity();
        let err = with_retries(&mut disk, "translate_lbn", cap, |d| d.translate_lbn(cap))
            .expect_err("out of range is not retryable");
        assert!(matches!(
            err,
            ExtractError::Scsi(ScsiError::Check {
                sense: SenseKey::IllegalRequest,
                ..
            })
        ));
    }

    #[test]
    fn unsupported_diagnostics_map_to_fallback_signal() {
        let mut cfg = models::small_test_disk();
        cfg.fault.diagnostics_unsupported = true;
        let mut disk = ScsiDisk::new(Disk::new(cfg));
        let err = with_retries(&mut disk, "translate_lbn", 0, |d| d.translate_lbn(0))
            .expect_err("diagnostics are off");
        assert_eq!(
            err,
            ExtractError::DiagnosticsUnsupported {
                command: "translate_lbn"
            }
        );
        assert!(err.to_string().contains("translate_lbn"));
    }
}
