//! Typed errors for the LFS segment and log paths.
//!
//! Accounting violations in the cleaner and segment table used to abort
//! with `panic!`/`expect`; they are now surfaced as [`LfsError`] so
//! harnesses (fault-injected runs in particular) can observe which
//! invariant broke instead of unwinding.

use std::error::Error;
use std::fmt;

/// Everything that can go wrong on the LFS segment-accounting and log
/// I/O paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LfsError {
    /// Adding live sectors would exceed the segment's length.
    SegmentOverfilled {
        /// The segment.
        segment: usize,
        /// Live sectors currently accounted.
        live: u64,
        /// The segment's capacity.
        len: u64,
        /// Sectors the caller tried to add.
        add: u64,
    },
    /// Removing live sectors would drive the segment's count negative.
    SegmentUnderflowed {
        /// The segment.
        segment: usize,
        /// Live sectors currently accounted.
        live: u64,
        /// Sectors the caller tried to remove.
        remove: u64,
    },
    /// The cleaner needed a victim but every candidate segment is empty,
    /// open, or entirely live — cleaning one of those frees no space, and
    /// the closed segments whose last live sector was overwritten are not
    /// reclaimed, so a tiny hot set can leak the log into this state.
    NoCleaningVictim,
    /// The cleaning reserve ran dry mid-clean: no empty segment was
    /// available to receive relocated live data.
    ReserveExhausted,
    /// An appended log batch does not fit between the log head and the
    /// end of the device.
    LogFull {
        /// Sectors the batch needs (summary + data).
        needed: u64,
        /// Sectors remaining past the head.
        remaining: u64,
    },
}

impl fmt::Display for LfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LfsError::SegmentOverfilled {
                segment,
                live,
                len,
                add,
            } => write!(
                f,
                "segment {segment} over-filled: {live} live + {add} > {len} sectors"
            ),
            LfsError::SegmentUnderflowed {
                segment,
                live,
                remove,
            } => write!(
                f,
                "segment {segment} under-flowed: {remove} removed with {live} live"
            ),
            LfsError::NoCleaningVictim => write!(f, "no segment whose cleaning frees space"),
            LfsError::ReserveExhausted => write!(f, "cleaning reserve exhausted mid-clean"),
            LfsError::LogFull { needed, remaining } => {
                write!(
                    f,
                    "log full: batch needs {needed} sectors, {remaining} remain"
                )
            }
        }
    }
}

impl Error for LfsError {}
