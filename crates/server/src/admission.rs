//! Bounded admission queue with typed overload rejection.
//!
//! The server's front end: arrivals are offered in trace order; when the
//! queue is at its configured depth bound the arrival is refused with a
//! typed [`AdmissionError`] rather than queued without limit, so overload
//! shows up as an explicit rejection count instead of unbounded latency.

use crate::sched::Scheduler;
use sim_disk::disk::Request;
use sim_disk::SimTime;
use std::error::Error;
use std::fmt;

/// A client request waiting in the server's admission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Queued {
    /// Stable client-request identity: its index in the arrival trace.
    /// Ids are assigned in arrival order, so later arrivals always carry
    /// larger ids — schedulers use `(lbn, id)` as a total order.
    pub id: u64,
    /// When the request arrived at the server.
    pub arrival: SimTime,
    /// The block-level request.
    pub request: Request,
}

// A server holds one a queued request; widening it is a decision.
const _: () = assert!(std::mem::size_of::<Queued>() == 32);

/// Why an arrival was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The queue was already at its configured depth bound.
    QueueFull {
        /// Queue depth at the instant of rejection (equals the bound).
        depth: usize,
        /// The configured bound.
        limit: usize,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { depth, limit } => {
                write!(f, "admission queue full ({depth} of {limit})")
            }
        }
    }
}

impl Error for AdmissionError {}

/// The bounded queue fronting the server loop: one lane per spindle
/// under one depth bound.
///
/// A lane is kept in the order its policy admits in
/// ([`Scheduler::admit`]): arrival order under FIFO, sweep order under the
/// elevators, whose rounds then take entries out through
/// [`lane_mut`](AdmissionQueue::lane_mut) without reordering the rest.
/// The queue tracks its high-water depth, summed over the lanes.
#[derive(Debug)]
pub struct AdmissionQueue {
    limit: usize,
    lanes: Vec<Vec<Queued>>,
    max_depth: usize,
}

impl AdmissionQueue {
    /// Creates `lanes` empty lanes bounded at `limit` entries in total.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero — a server that can hold no request at
    /// all would reject every arrival. [`serve`](crate::serve) checks its
    /// config first and returns a typed error instead.
    pub fn new(limit: usize, lanes: usize) -> Self {
        assert!(limit > 0, "queue limit must be positive");
        AdmissionQueue {
            limit,
            lanes: vec![Vec::new(); lanes],
            max_depth: 0,
        }
    }

    /// Offers one arrival to `lane`; admits it where the lane's `policy`
    /// places it, or returns the typed rejection.
    pub fn offer(
        &mut self,
        lane: usize,
        q: Queued,
        policy: &dyn Scheduler,
    ) -> Result<(), AdmissionError> {
        let depth = self.len();
        if depth >= self.limit {
            return Err(AdmissionError::QueueFull {
                depth,
                limit: self.limit,
            });
        }
        policy.admit(&mut self.lanes[lane], q);
        self.max_depth = self.max_depth.max(depth + 1);
        Ok(())
    }

    /// Current queue depth, all lanes together.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }

    /// Whether every lane is empty.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(Vec::is_empty)
    }

    /// The configured depth bound.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// The entries queued on `lane`, in its policy's order.
    pub fn lane(&self, lane: usize) -> &[Queued] {
        &self.lanes[lane]
    }

    /// Mutable access for the lane's scheduler, which removes the entries
    /// it dispatches. Depth accounting reads the lengths afterwards, so
    /// schedulers only need to take entries out, never push.
    pub fn lane_mut(&mut self, lane: usize) -> &mut Vec<Queued> {
        &mut self.lanes[lane]
    }

    /// High-water queue depth.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Fifo;

    fn q(id: u64) -> Queued {
        Queued {
            id,
            arrival: SimTime::from_ns(id * 1000),
            request: Request::read(id * 8, 8),
        }
    }

    #[test]
    fn admits_until_full_then_rejects_typed() {
        // Two lanes share the one bound.
        let mut queue = AdmissionQueue::new(2, 2);
        queue.offer(0, q(0), &Fifo).unwrap();
        queue.offer(1, q(1), &Fifo).unwrap();
        let err = queue.offer(0, q(2), &Fifo).unwrap_err();
        assert_eq!(err, AdmissionError::QueueFull { depth: 2, limit: 2 });
        assert_eq!(err.to_string(), "admission queue full (2 of 2)");
        assert_eq!(queue.max_depth(), 2);
    }

    #[test]
    fn draining_reopens_admission() {
        let mut queue = AdmissionQueue::new(1, 1);
        queue.offer(0, q(0), &Fifo).unwrap();
        assert!(queue.offer(0, q(1), &Fifo).is_err());
        queue.lane_mut(0).clear();
        queue.offer(0, q(2), &Fifo).unwrap();
        assert_eq!(queue.lane(0)[0].id, 2);
        assert_eq!(queue.max_depth(), 1);
    }
}
