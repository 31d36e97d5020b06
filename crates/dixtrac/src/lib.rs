//! Automatic track-boundary extraction (§4.1 of the paper).
//!
//! Two algorithms discover the LBN-to-track mapping through the standard,
//! opaque block interface:
//!
//! * [`scsi_probe`] — the DIXtrac-style five-step algorithm using SCSI
//!   `SEND/RECEIVE DIAGNOSTIC` address translations, `READ DEFECT DATA`, and
//!   `READ CAPACITY`. Fast (≈ 2–3 translations per track thanks to
//!   predict-and-verify) and exact.
//! * [`general`] — the interface-agnostic algorithm that infers boundaries
//!   purely from `READ` timing: it synchronizes probes with the rotation,
//!   interleaves probe streams across 100 widespread locations to defeat the
//!   firmware cache, and binary-searches for the request size at which
//!   response time jumps by a head-switch.
//!
//! Both produce a [`traxtent::TrackBoundaries`] table plus a report of what
//! the extraction cost.

#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod error;
pub mod general;
pub mod scsi_probe;

pub use error::ExtractError;
pub use general::{extract_general, GeneralConfig, GeneralExtraction};
pub use scsi_probe::{extract_scsi, SchemeGuess, ScsiExtraction};

use scsi::ScsiDisk;
use traxtent::boundaries::ConfidentBoundaries;

/// Which extractor ran to completion, with its report.
#[derive(Debug, Clone)]
pub enum Extraction {
    /// The SCSI-specific five-step extraction succeeded.
    Scsi(ScsiExtraction),
    /// The drive refused diagnostics; the general timing-based extraction
    /// ran instead.
    General(GeneralExtraction),
}

/// The result of [`extract_auto`]: boundaries with per-track confidence,
/// plus the report of the path that produced them.
#[derive(Debug, Clone)]
pub struct AutoExtraction {
    /// The extracted boundary table with per-track confidence.
    pub boundaries: ConfidentBoundaries,
    /// The extractor that ran, and what it cost.
    pub report: Extraction,
}

/// Extracts track boundaries the way a deployment would: try the fast,
/// exact SCSI-specific extractor first, and when the drive refuses the
/// vendor diagnostic commands, degrade gracefully to the general
/// timing-based extractor. Only a diagnostics refusal triggers the
/// fallback; drive misbehavior that defeats retries on either path is
/// reported, never papered over.
pub fn extract_auto(
    disk: &mut ScsiDisk,
    config: &GeneralConfig,
) -> Result<AutoExtraction, ExtractError> {
    match extract_scsi(disk) {
        Ok(scsi) => Ok(AutoExtraction {
            boundaries: ConfidentBoundaries::certain(scsi.boundaries.clone()),
            report: Extraction::Scsi(scsi),
        }),
        Err(ExtractError::DiagnosticsUnsupported { .. }) => {
            let general = extract_general(disk, config)?;
            let boundaries =
                ConfidentBoundaries::new(general.boundaries.clone(), general.confidence.clone())
                    .map_err(|_| {
                        ExtractError::InvalidTable("confidence table does not match boundaries")
                    })?;
            Ok(AutoExtraction {
                boundaries,
                report: Extraction::General(general),
            })
        }
        Err(other) => Err(other),
    }
}
