//! An event-driven disk drive simulator faithful to the mechanisms that the
//! FAST 2002 track-aligned-extents paper exploits.
//!
//! The simulator models a single disk drive behind a SCSI-like block
//! interface:
//!
//! * **Zoned geometry** ([`geometry`]): multiple zones with different
//!   sectors-per-track, track and cylinder skew, several spare-space schemes,
//!   and media defects handled by either *slipping* or *remapping*.
//! * **Mechanics** ([`mech`]): a three-coefficient seek curve calibrated to a
//!   drive's published single-cylinder / average / full-strobe times,
//!   constant-rate rotation, and head-switch time.
//! * **Firmware** ([`disk`]): zero-latency (access-on-arrival) or ordinary
//!   in-order media access, a segmented read cache with track read-ahead
//!   ([`cache`]), command queueing, and an in-order delivery bus model
//!   ([`bus`]).
//! * **Drive presets** ([`models`]): the seven drives of Table 1 of the
//!   paper, calibrated so first-zone microbenchmarks land where the paper's
//!   measurements do.
//!
//! # Example
//!
//! ```
//! use sim_disk::models;
//! use sim_disk::disk::{Disk, Op, Request};
//! use sim_disk::SimTime;
//!
//! let mut disk = Disk::new(models::quantum_atlas_10k_ii());
//! // Read the whole first track, starting from an idle disk at t=0.
//! let track_len = disk.geometry().track(0).lbn_count() as u64;
//! let done = disk.service(Request::new(Op::Read, 0, track_len), SimTime::ZERO);
//! assert!(done.completion > SimTime::ZERO);
//! ```
//!
//! # Observability
//!
//! Setting [`disk::DiskConfig::tracer`] streams typed [`trace::TraceEvent`]s
//! for every mechanical phase of every request into a [`trace::TraceSink`]
//! (a JSONL file, an in-memory buffer, causal spans via
//! [`trace::DiskSpanBridge`], or any combination via [`trace::Fanout`]).
//! With no tracer attached the entire subsystem costs one branch per
//! request.

#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod bus;
pub mod cache;
pub mod crash;
pub mod defects;
pub mod disk;
pub mod fault;
pub mod geometry;
pub mod mech;
pub mod models;
mod obs;
pub mod request;
pub mod rotation;
pub mod trace;

pub use disk::{Backend, Disk};
pub use geometry::{DiskGeometry, GeometrySpec, Pba, TrackId, ZoneSpec};
pub use request::{Breakdown, Completion, TraceRecord};

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant of simulated time, in integer nanoseconds since simulation
/// start.
///
/// Integer nanoseconds keep event ordering exact and runs reproducible;
/// physics is computed in `f64` and quantized once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in integer nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `ns` nanoseconds after the epoch.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since the epoch, as a float (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    #[expect(clippy::expect_used, reason = "the # Panics contract")]
    pub fn since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.checked_sub(earlier.0).expect("time went backwards"))
    }

    /// The duration since `earlier`, or zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }
}

impl SimDur {
    /// The zero-length duration.
    pub const ZERO: SimDur = SimDur(0);

    /// Creates a duration of `ns` nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDur(ns)
    }

    /// Creates a duration from a float number of seconds, rounding to the
    /// nearest nanosecond. Negative or non-finite inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_finite() && secs > 0.0 {
            SimDur((secs * 1e9).round() as u64)
        } else {
            SimDur(0)
        }
    }

    /// Creates a duration from a float number of milliseconds.
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    /// Creates a duration from a float number of microseconds.
    pub fn from_micros_f64(us: f64) -> Self {
        Self::from_secs_f64(us / 1e6)
    }

    /// Nanoseconds in this duration.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Seconds, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds, as a float (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDur) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDur> for SimTime {
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDur> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDur) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDur;
    fn sub(self, rhs: SimTime) -> SimDur {
        self.since(rhs)
    }
}

impl Add<SimDur> for SimDur {
    type Output = SimDur;
    fn add(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 + rhs.0)
    }
}

impl AddAssign<SimDur> for SimDur {
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

/// # Panics
///
/// Panics if `rhs` is longer than `self`: durations are never negative.
impl Sub<SimDur> for SimDur {
    type Output = SimDur;
    #[expect(clippy::expect_used, reason = "the # Panics contract")]
    fn sub(self, rhs: SimDur) -> SimDur {
        SimDur(self.0.checked_sub(rhs.0).expect("negative duration"))
    }
}

impl SubAssign<SimDur> for SimDur {
    fn sub_assign(&mut self, rhs: SimDur) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDur {
    type Output = SimDur;
    fn mul(self, rhs: u64) -> SimDur {
        SimDur(self.0 * rhs)
    }
}

impl Div<u64> for SimDur {
    type Output = SimDur;
    fn div(self, rhs: u64) -> SimDur {
        SimDur(self.0 / rhs)
    }
}

impl Sum for SimDur {
    fn sum<I: Iterator<Item = SimDur>>(iter: I) -> SimDur {
        SimDur(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// Bytes per 512-byte sector, the unit every LBN addresses.
pub const SECTOR_BYTES: u64 = 512;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_ns(1_000_000);
        let d = SimDur::from_millis_f64(2.0);
        assert_eq!((t + d).as_ns(), 3_000_000);
        assert_eq!(((t + d) - t).as_ns(), 2_000_000);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn dur_from_floats_rounds() {
        assert_eq!(SimDur::from_secs_f64(1.5e-9).as_ns(), 2);
        assert_eq!(SimDur::from_secs_f64(-1.0).as_ns(), 0);
        assert_eq!(SimDur::from_secs_f64(f64::NAN).as_ns(), 0);
        assert_eq!(SimDur::from_micros_f64(3.0).as_ns(), 3_000);
    }

    #[test]
    fn saturating_ops() {
        let a = SimTime::from_ns(5);
        let b = SimTime::from_ns(9);
        assert_eq!(a.saturating_since(b), SimDur::ZERO);
        assert_eq!(b.saturating_since(a).as_ns(), 4);
        assert_eq!(
            SimDur::from_ns(3).saturating_sub(SimDur::from_ns(7)),
            SimDur::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn since_panics_when_reversed() {
        let _ = SimTime::from_ns(1).since(SimTime::from_ns(2));
    }

    #[test]
    fn display_formats_millis() {
        assert_eq!(format!("{}", SimDur::from_millis_f64(1.5)), "1.500ms");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDur = (1..=4).map(SimDur::from_ns).sum();
        assert_eq!(total.as_ns(), 10);
    }
}
