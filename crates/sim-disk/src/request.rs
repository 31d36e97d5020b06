//! Request and completion types, with the per-component service-time
//! breakdown used to reproduce the paper's Figure 7.

use crate::{SimDur, SimTime};

/// The direction of a media access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Transfer from media to host.
    Read,
    /// Transfer from host to media.
    Write,
}

impl Op {
    /// The lowercase name every trace, span and report spells the
    /// direction with: `"read"` or `"write"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Read => "read",
            Op::Write => "write",
        }
    }
}

/// A block-level request: `len` sectors starting at `lbn`.
///
/// `len` is as wide as a SCSI transfer length can be: READ(10)/WRITE(10)
/// carry 16 bits of it and READ(16)/WRITE(16) 32, so no command the
/// drive could be sent is longer. That keeps a request at 16 bytes,
/// which every trace record and queue entry carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Direction.
    pub op: Op,
    /// First logical block number.
    pub lbn: u64,
    /// Number of sectors (must be positive).
    pub len: u32,
}

// Every trace record and queue entry holds one; widening it is a
// decision, not a drift.
const _: () = assert!(std::mem::size_of::<Request>() == 16);

impl Request {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or above `u32::MAX`, the longest transfer
    /// a READ(16) can ask for.
    #[expect(
        clippy::expect_used,
        reason = "documented: a length no SCSI command can carry is a caller's bug, as zero is"
    )]
    pub fn new(op: Op, lbn: u64, len: u64) -> Self {
        assert!(len > 0, "request length must be positive");
        let len = u32::try_from(len).expect("request length must fit a 32-bit transfer length");
        Request { op, lbn, len }
    }

    /// A read request.
    pub fn read(lbn: u64, len: u64) -> Self {
        Request::new(Op::Read, lbn, len)
    }

    /// A write request.
    pub fn write(lbn: u64, len: u64) -> Self {
        Request::new(Op::Write, lbn, len)
    }

    /// One past the last LBN touched.
    pub fn end(&self) -> u64 {
        self.lbn + u64::from(self.len)
    }

    /// True if the request lies within a device of `capacity` sectors.
    /// Compares without adding, so no `lbn` / `len` from outside the
    /// program can wrap its way past the check.
    pub fn fits(&self, capacity: u64) -> bool {
        self.lbn <= capacity && u64::from(self.len) <= capacity - self.lbn
    }

    /// Request size in bytes.
    pub fn bytes(&self) -> u64 {
        u64::from(self.len) * crate::SECTOR_BYTES
    }
}

/// One timestamped request of an arrival trace: what a workload generator
/// or trace parser produces and an open-loop server consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Arrival time relative to trace start.
    pub arrival: SimTime,
    /// The block-level request.
    pub request: Request,
}

// A trace holds one a request (a 10⁷-request trace is 240 MB of them).
const _: () = assert!(std::mem::size_of::<TraceRecord>() == 24);

/// Where each nanosecond of a request's service went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Breakdown {
    /// Queueing: waiting for the mechanism to finish the previous command
    /// (zero for a request issued against an idle drive).
    pub queue: SimDur,
    /// Command processing overhead.
    pub overhead: SimDur,
    /// Arm movement (including any mid-request cylinder crossings).
    pub seek: SimDur,
    /// Head switches between surfaces.
    pub head_switch: SimDur,
    /// Rotational delay waiting for needed sectors.
    pub rot_latency: SimDur,
    /// Media transfer (sweeping sectors under the head).
    pub media: SimDur,
    /// Bus transfer time not overlapped with the above.
    pub bus: SimDur,
    /// Extra settle time charged to writes.
    pub write_settle: SimDur,
}

/// The result of servicing one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request serviced.
    pub request: Request,
    /// When the host issued the command.
    pub issue: SimTime,
    /// When the drive began working on it (after queueing and command
    /// processing).
    pub service_start: SimTime,
    /// When the mechanism (arm + media) finished with this request; the head
    /// is free for the next command from this instant.
    pub media_end: SimTime,
    /// When the host observed completion (all data across the bus).
    pub completion: SimTime,
    /// True if the read was serviced entirely from the firmware cache.
    pub cache_hit: bool,
    /// Component accounting.
    pub breakdown: Breakdown,
}

impl Completion {
    /// Response time as seen by the host driver.
    pub fn response_time(&self) -> SimDur {
        self.completion - self.issue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_accessors() {
        let r = Request::read(100, 8);
        assert_eq!(r.end(), 108);
        assert_eq!(r.bytes(), 8 * 512);
        assert_eq!(Request::write(0, 1).op, Op::Write);
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn zero_length_requests_rejected() {
        let _ = Request::read(0, 0);
    }

    #[test]
    fn the_longest_transfer_length_is_kept_whole() {
        let r = Request::write(7, u64::from(u32::MAX));
        assert_eq!(r.len, u32::MAX);
        assert_eq!(r.end(), 7 + u64::from(u32::MAX));
        assert_eq!(r.bytes(), u64::from(u32::MAX) * 512);
    }

    #[test]
    #[should_panic(expected = "32-bit transfer length")]
    fn lengths_past_a_32_bit_transfer_are_rejected() {
        // Truncated, 2³² would be a zero-length request.
        let _ = Request::read(0, 1 << 32);
    }
}
