//! Pluggable I/O schedulers: FIFO, C-LOOK, and the traxtent-aware
//! batcher.
//!
//! A scheduler's job is purely combinatorial: given the queued client
//! requests, pick which to dispatch next and as which disk commands. The
//! server loop owns time; schedulers never see the clock, which keeps
//! their invariants (exactly-once dispatch, bounded starvation, batches
//! inside trusted tracks) testable without a drive.
//!
//! * [`Fifo`] dispatches in arrival order — the baseline, maximally fair
//!   and maximally seek-bound;
//! * [`CLook`] runs a circular elevator: ascending LBN sweeps that wrap
//!   to the lowest pending request when the sweep runs dry;
//! * [`Traxtent`] rides the C-LOOK sweep but, on tracks whose extracted
//!   boundary is trusted (per [`ConfidentBoundaries`]), gathers every
//!   queued request on the anchor's track and coalesces adjacent same-op
//!   runs into single track-aligned disk commands — never building a
//!   command that crosses the track boundary. On low-confidence tracks it
//!   degrades to plain C-LOOK, mirroring how the allocator degrades to
//!   untracked placement.
//!
//! A scheduler is one elevator over one queue. On a multi-drive volume the
//! server loop runs one instance per spindle, each over the requests of
//! its own member, so no policy here knows about spindles.

use crate::admission::Queued;
use sim_disk::disk::Request;
use std::sync::Arc;
use traxtent::ConfidentBoundaries;

/// One disk command plus the client requests it serves.
///
/// FIFO and C-LOOK always map one client request to one command; the
/// traxtent batcher may merge several contiguous same-op client requests
/// into one command, in which case every part completes when the merged
/// command completes.
#[derive(Debug, Clone)]
pub struct Dispatch {
    /// The (possibly coalesced) request handed to the drive.
    pub request: Request,
    /// The client request at the command's first LBN.
    pub first: Queued,
    /// The client requests merged behind `first`, in ascending-LBN order.
    /// Empty for an unmerged command, which therefore allocates nothing.
    pub rest: Vec<Queued>,
}

impl Dispatch {
    fn single(q: Queued) -> Self {
        Dispatch {
            request: q.request,
            first: q,
            rest: Vec::new(),
        }
    }

    /// The client requests this command serves, in ascending-LBN order.
    pub fn parts(&self) -> impl Iterator<Item = &Queued> {
        std::iter::once(&self.first).chain(&self.rest)
    }

    /// Whether this command serves more than one client request.
    pub fn coalesced(&self) -> bool {
        !self.rest.is_empty()
    }
}

/// A dispatch policy over the admission queue.
pub trait Scheduler {
    /// Places an admitted arrival in its lane. The default appends, which
    /// keeps arrival order; the elevators insert at the arrival's place in
    /// sweep order — `(lbn, id)` — so that `select` never has to sort.
    fn admit(&self, pending: &mut Vec<Queued>, q: Queued) {
        pending.push(q);
    }

    /// Removes up to `max_batch` client requests from `pending` and
    /// returns the disk commands to issue, in issue order. Must make
    /// progress: returns at least one dispatch whenever `pending` is
    /// non-empty and `max_batch` is positive.
    ///
    /// `pending` may be in any order: the result is that of a lane built
    /// through [`admit`](Scheduler::admit), which merely spares the
    /// elevators a sort. They leave the survivors in sweep order; FIFO
    /// leaves them as they were.
    fn select(&mut self, pending: &mut Vec<Queued>, max_batch: usize) -> Vec<Dispatch>;

    /// Completed sweep wrap-arounds so far (always 0 for FIFO).
    fn wraps(&self) -> u64 {
        0
    }
}

/// Which scheduler the server runs; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Arrival-order dispatch.
    Fifo,
    /// Circular elevator (ascending sweeps, wrap at the top).
    CLook,
    /// C-LOOK plus track-aligned coalescing on trusted tracks.
    Traxtent,
}

impl SchedulerKind {
    /// Stable lowercase label for output rows and manifests.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Fifo => "fifo",
            SchedulerKind::CLook => "clook",
            SchedulerKind::Traxtent => "traxtent",
        }
    }

    /// All kinds, in the order figures print them.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::Fifo,
        SchedulerKind::CLook,
        SchedulerKind::Traxtent,
    ];
}

/// The elevator's total order: ascending LBN, ties by id (arrival order).
fn sweep_key(q: &Queued) -> (u64, u64) {
    (q.request.lbn, q.id)
}

/// [`Scheduler::admit`] for an elevator: `q` goes where the sweep will
/// meet it, so a lane built through `admit` is always in sweep order.
/// The lane is bounded by the queue limit, so this is a short memmove.
fn admit_in_sweep_order(pending: &mut Vec<Queued>, q: Queued) {
    let key = sweep_key(&q);
    let at = pending.partition_point(|p| sweep_key(p) < key);
    pending.insert(at, q);
}

/// A circular elevator's state. Its lane is kept in sweep order — by
/// [`Scheduler::admit`], and by every round, which takes entries out and
/// never reorders the rest — so a round costs a binary search and the
/// entries it dispatches, not a sort of the lane.
#[derive(Debug, Default, Clone)]
struct Sweep {
    pos: u64,
    wraps: u64,
}

impl Sweep {
    /// Returns where in the (non-empty) lane the ascending sweep resumes:
    /// the first entry at or above `pos`. When nothing lies there the
    /// sweep wraps: `wraps` is incremented and it restarts from the lowest
    /// pending LBN. A lane that was not built through `admit` is put in
    /// sweep order first; ids are unique, so the order is the same
    /// whatever order the lane arrived in.
    fn start(&mut self, pending: &mut [Queued]) -> usize {
        if !pending.is_sorted_by_key(sweep_key) {
            pending.sort_unstable_by_key(sweep_key);
        }
        let start = pending.partition_point(|q| q.request.lbn < self.pos);
        if start < pending.len() {
            start
        } else {
            self.wraps += 1;
            self.pos = 0;
            0
        }
    }

    /// One plain elevator round: up to `max_batch` entries from `start`,
    /// one command each, leaving the sweep at the last of them.
    fn round(
        &mut self,
        pending: &mut Vec<Queued>,
        start: usize,
        max_batch: usize,
    ) -> Vec<Dispatch> {
        let end = pending.len().min(start + max_batch);
        if let Some(last) = pending[start..end].last() {
            self.pos = last.request.lbn;
        }
        pending.drain(start..end).map(Dispatch::single).collect()
    }
}

/// Arrival-order dispatch.
#[derive(Debug, Default)]
pub struct Fifo;

impl Scheduler for Fifo {
    fn select(&mut self, pending: &mut Vec<Queued>, max_batch: usize) -> Vec<Dispatch> {
        let n = max_batch.min(pending.len());
        pending.drain(..n).map(Dispatch::single).collect()
    }
}

/// Circular elevator: ascending-LBN sweeps, wrapping to the lowest
/// pending request when nothing remains above the head position.
///
/// Starvation is bounded: a queued request is dispatched within two
/// wrap-arounds of its admission, because the sweep position never
/// passes a pending request's LBN without dispatching it.
#[derive(Debug, Default)]
pub struct CLook {
    sweep: Sweep,
}

impl CLook {
    /// A fresh elevator starting at LBN 0.
    pub fn new() -> Self {
        CLook::default()
    }
}

impl Scheduler for CLook {
    fn admit(&self, pending: &mut Vec<Queued>, q: Queued) {
        admit_in_sweep_order(pending, q);
    }

    fn select(&mut self, pending: &mut Vec<Queued>, max_batch: usize) -> Vec<Dispatch> {
        if pending.is_empty() {
            return Vec::new();
        }
        let start = self.sweep.start(pending);
        self.sweep.round(pending, start, max_batch)
    }

    fn wraps(&self) -> u64 {
        self.sweep.wraps
    }
}

/// C-LOOK plus track-aligned coalescing on trusted tracks, one track per
/// round.
///
/// The anchor — the next request along the C-LOOK sweep — picks the
/// round's track; when that track's boundary is trusted the round gathers
/// every queued request lying wholly inside it (within the batch bound)
/// and the sweep position advances over that track alone. The table's
/// spindle ids play no part: on a volume [`serve`](crate::serve) gives
/// every spindle its own instance, which only ever sees the requests of
/// that member. Clones share the boundary table.
///
/// Requests that lie inside one track keep C-LOOK's starvation bound: the
/// sweep never passes one. A request that straddles a trusted boundary has
/// no such bound — when it sits in the middle of a gathered track the
/// sweep moves past it and it waits for the next.
#[derive(Debug, Clone)]
pub struct Traxtent {
    sweep: Sweep,
    boundaries: Arc<ConfidentBoundaries>,
    threshold: f64,
}

impl Traxtent {
    /// A traxtent batcher over the given boundary table; tracks whose
    /// confidence is below `threshold` are treated as unknown and served
    /// with plain C-LOOK.
    pub fn new(boundaries: ConfidentBoundaries, threshold: f64) -> Self {
        Traxtent {
            sweep: Sweep::default(),
            boundaries: Arc::new(boundaries),
            threshold,
        }
    }
}

impl Scheduler for Traxtent {
    fn admit(&self, pending: &mut Vec<Queued>, q: Queued) {
        admit_in_sweep_order(pending, q);
    }

    fn select(&mut self, pending: &mut Vec<Queued>, max_batch: usize) -> Vec<Dispatch> {
        if pending.is_empty() {
            return Vec::new();
        }
        let sweep = &mut self.sweep;
        let start = sweep.start(pending);
        if pending.len() == 1 {
            // A lone request goes out as it is wherever the boundaries lie,
            // so an idle lane's round costs no (cold) table lookup.
            return sweep.round(pending, start, max_batch);
        }
        let table = self.boundaries.table();
        let anchor = pending[start].request;
        let track = table.track_index(anchor.lbn);
        let ext = table.track_extent(track);
        if !(self.boundaries.is_confident(track, self.threshold) && anchor.end() <= ext.end()) {
            // Unknown boundary (or a client request that itself straddles
            // one): no coalescing is safe, serve this round as C-LOOK.
            return sweep.round(pending, start, max_batch);
        }
        // Gather from the lowest queued request on the anchor's track.
        let mut lo = start;
        while lo > 0 && pending[lo - 1].request.lbn >= ext.start {
            lo -= 1;
        }
        let mut round: Vec<Dispatch> = Vec::new();
        let mut taken = 0;
        // The walk covers `lo..at`; the entries it passes over (they run
        // past the track's end) are moved down to `lo..kept`, in order.
        let (mut kept, mut at) = (lo, lo);
        while at < pending.len() && taken < max_batch {
            let q = pending[at];
            if q.request.lbn >= ext.end() {
                break;
            }
            at += 1;
            if q.request.end() > ext.end() {
                pending[kept] = q;
                kept += 1;
                continue;
            }
            sweep.pos = q.request.lbn;
            taken += 1;
            match round.last_mut() {
                // Only exactly adjacent same-op requests merge;
                // overlapping or gapped neighbours stay separate commands
                // (still within the track).
                Some(d) if d.request.op == q.request.op && d.request.end() == q.request.lbn => {
                    // A `u32` sum, bounded by one track's extent: both
                    // requests lie inside `ext`.
                    d.request.len += q.request.len;
                    d.rest.push(q);
                }
                _ => round.push(Dispatch::single(q)),
            }
        }
        pending.drain(kept..at);
        round
    }

    fn wraps(&self) -> u64 {
        self.sweep.wraps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_disk::SimTime;
    use traxtent::TrackBoundaries;

    fn q(id: u64, lbn: u64, len: u64) -> Queued {
        Queued {
            id,
            arrival: SimTime::from_ns(id),
            request: Request::read(lbn, len),
        }
    }

    fn qw(id: u64, lbn: u64, len: u64) -> Queued {
        Queued {
            id,
            arrival: SimTime::from_ns(id),
            request: Request::write(lbn, len),
        }
    }

    #[test]
    fn fifo_dispatches_in_arrival_order() {
        let mut pending = vec![q(0, 900, 8), q(1, 100, 8), q(2, 500, 8)];
        let ds = Fifo.select(&mut pending, 2);
        assert_eq!(ds.iter().map(|d| d.first.id).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(pending.len(), 1);
    }

    #[test]
    fn clook_sweeps_ascending_and_wraps() {
        let mut sched = CLook::new();
        let mut pending = vec![q(0, 900, 8), q(1, 100, 8), q(2, 500, 8)];
        let ds = sched.select(&mut pending, 2);
        assert_eq!(
            ds.iter().map(|d| d.request.lbn).collect::<Vec<_>>(),
            [100, 500]
        );
        assert_eq!(sched.wraps(), 0);
        // 900 is still ahead: same sweep, no wrap.
        let ds = sched.select(&mut pending, 2);
        assert_eq!(ds[0].request.lbn, 900);
        assert_eq!(sched.wraps(), 0);
        // Now only a low request remains: the sweep must wrap once.
        pending.push(q(3, 50, 8));
        let ds = sched.select(&mut pending, 2);
        assert_eq!(ds[0].request.lbn, 50);
        assert_eq!(sched.wraps(), 1);
    }

    #[test]
    fn traxtent_coalesces_contiguous_same_op_runs_within_a_track() {
        // One 100-sector track starting at 0, another at 100.
        let table = TrackBoundaries::uniform(4, 100);
        let mut sched = Traxtent::new(ConfidentBoundaries::certain(table), 0.9);
        let mut pending = vec![
            q(0, 0, 25),
            q(1, 25, 25),
            qw(2, 50, 25), // op changes: breaks the run
            q(3, 75, 25),
            q(4, 100, 10), // next track: not gathered this round
        ];
        let ds = sched.select(&mut pending, 16);
        assert_eq!(ds.len(), 3);
        assert_eq!((ds[0].request.lbn, ds[0].request.len), (0, 50));
        assert!(ds[0].coalesced());
        assert_eq!(ds[0].parts().map(|p| p.id).collect::<Vec<_>>(), [0, 1]);
        assert_eq!((ds[1].request.lbn, ds[1].request.len), (50, 25));
        assert_eq!((ds[2].request.lbn, ds[2].request.len), (75, 25));
        assert_eq!(pending.len(), 1, "the next-track request stays queued");
    }

    #[test]
    fn traxtent_degrades_to_clook_on_low_confidence_tracks() {
        let table = TrackBoundaries::uniform(4, 100);
        let conf = ConfidentBoundaries::new(table, vec![0.2, 1.0, 1.0, 1.0]).unwrap();
        let mut sched = Traxtent::new(conf, 0.9);
        let mut pending = vec![q(0, 0, 25), q(1, 25, 25), q(2, 120, 10)];
        let ds = sched.select(&mut pending, 16);
        // Anchor lands on the untrusted track 0: C-LOOK round, no merge.
        assert_eq!(ds.len(), 3);
        assert!(ds.iter().all(|d| !d.coalesced()));
    }

    #[test]
    fn traxtent_never_merges_across_the_track_boundary() {
        let table = TrackBoundaries::uniform(4, 100);
        let mut sched = Traxtent::new(ConfidentBoundaries::certain(table), 0.9);
        // Contiguous run that spans the 100-boundary as two aligned halves.
        let mut pending = vec![q(0, 60, 40), q(1, 100, 40)];
        let ds = sched.select(&mut pending, 16);
        assert_eq!(ds.len(), 1, "only the track-0 half is gathered");
        assert_eq!((ds[0].request.lbn, ds[0].request.len), (60, 40));
        let ds = sched.select(&mut pending, 16);
        assert_eq!((ds[0].request.lbn, ds[0].request.len), (100, 40));
    }
}
