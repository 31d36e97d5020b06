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
//!   command that crosses the track boundary — and then does the same
//!   for one trusted track on every other spindle the table names, so a
//!   multi-drive volume works on all its members at once. On
//!   low-confidence tracks it degrades to plain C-LOOK, mirroring how the
//!   allocator degrades to untracked placement.

use crate::admission::Queued;
use sim_disk::disk::Request;
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
    /// The client requests this command serves, in ascending-LBN order.
    pub parts: Vec<Queued>,
}

impl Dispatch {
    fn single(q: Queued) -> Self {
        Dispatch {
            request: q.request,
            parts: vec![q],
        }
    }

    /// Whether this command serves more than one client request.
    pub fn coalesced(&self) -> bool {
        self.parts.len() > 1
    }
}

/// A dispatch policy over the admission queue.
pub trait Scheduler {
    /// Removes up to `max_batch` client requests from `pending` and
    /// returns the disk commands to issue, in issue order. Must make
    /// progress: returns at least one dispatch whenever `pending` is
    /// non-empty.
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

/// One queued request's place in the sweep. Ordering is `(lbn, id)` —
/// the elevator's order — with the request's index in the queue last, so
/// sorting slots equals a stable sort of the queue by `(lbn, id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Slot {
    lbn: u64,
    id: u64,
    at: usize,
}

/// The whole queue in sweep order. Every elevator round derives its
/// anchor and everything it gathers from this one sort.
fn sweep_order(pending: &[Queued]) -> Vec<Slot> {
    let mut order: Vec<Slot> = pending
        .iter()
        .enumerate()
        .map(|(at, q)| Slot {
            lbn: q.request.lbn,
            id: q.id,
            at,
        })
        .collect();
    order.sort_unstable();
    order
}

/// Where in the (non-empty) `order` the ascending sweep resumes: the first
/// slot at or above `*pos`. When nothing lies there the sweep wraps:
/// `*wraps` is incremented and it restarts from the lowest pending LBN.
fn sweep_start(order: &[Slot], pos: &mut u64, wraps: &mut u64) -> usize {
    let start = order.partition_point(|s| s.lbn < *pos);
    if start < order.len() {
        start
    } else {
        *wraps += 1;
        *pos = 0;
        0
    }
}

/// Removes the queue entries at the indices `at` (distinct and in
/// bounds), preserving the relative order of the survivors.
fn remove_at(pending: &mut Vec<Queued>, mut at: Vec<usize>) {
    at.sort_unstable();
    debug_assert!(at.windows(2).all(|w| w[0] < w[1]), "duplicate dispatch");
    let mut gone = at.iter().peekable();
    let mut i = 0;
    pending.retain(|_| {
        let hit = gone.next_if_eq(&&i).is_some();
        i += 1;
        !hit
    });
}

/// One plain elevator round: up to `max_batch` slots of `order` from
/// `start`, one command each, leaving the sweep at the last of them.
fn sweep_round(
    pending: &mut Vec<Queued>,
    order: &[Slot],
    start: usize,
    max_batch: usize,
    pos: &mut u64,
) -> Vec<Dispatch> {
    let run = &order[start..order.len().min(start + max_batch)];
    if let Some(last) = run.last() {
        *pos = last.lbn;
    }
    let round = run
        .iter()
        .map(|s| Dispatch::single(pending[s.at]))
        .collect();
    remove_at(pending, run.iter().map(|s| s.at).collect());
    round
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
    pos: u64,
    wraps: u64,
}

impl CLook {
    /// A fresh elevator starting at LBN 0.
    pub fn new() -> Self {
        CLook::default()
    }
}

impl Scheduler for CLook {
    fn select(&mut self, pending: &mut Vec<Queued>, max_batch: usize) -> Vec<Dispatch> {
        if pending.is_empty() {
            return Vec::new();
        }
        let order = sweep_order(pending);
        let start = sweep_start(&order, &mut self.pos, &mut self.wraps);
        sweep_round(pending, &order, start, max_batch, &mut self.pos)
    }

    fn wraps(&self) -> u64 {
        self.wraps
    }
}

/// C-LOOK plus track-aligned coalescing on trusted tracks, one track per
/// spindle per round.
///
/// The anchor — the next request along the C-LOOK sweep — picks the
/// round's first track, and the sweep position advances over that track
/// alone. When the boundary table says its tracks live on several
/// spindles ([`ConfidentBoundaries::with_spindles`]: a `fleet` volume's
/// logical map names the member holding each stripe unit), the round then
/// carries on along the cyclic sweep order and claims, for every spindle
/// it has no track on yet, the first trusted track with a request lying
/// wholly inside it — so every member of a volume gets its own
/// track-aligned batch instead of idling while one member works. A table
/// without spindle ids is one spindle, and the round ends with the
/// anchor's track.
///
/// Requests that lie inside one track keep C-LOOK's starvation bound: the
/// walk only ever takes requests early, and the sweep never passes one.
/// A request that straddles a trusted boundary has no such bound — when
/// it sits in the middle of a gathered track the sweep moves past it and
/// it waits for the next, with one spindle as with several.
#[derive(Debug)]
pub struct Traxtent {
    pos: u64,
    wraps: u64,
    boundaries: ConfidentBoundaries,
    threshold: f64,
    /// Distinct spindles in `boundaries`: a round can claim no more tracks.
    spindles: usize,
}

impl Traxtent {
    /// A traxtent batcher over the given boundary table; tracks whose
    /// confidence is below `threshold` are treated as unknown and served
    /// with plain C-LOOK.
    pub fn new(boundaries: ConfidentBoundaries, threshold: f64) -> Self {
        Traxtent {
            pos: 0,
            wraps: 0,
            spindles: boundaries.num_spindles(),
            boundaries,
            threshold,
        }
    }
}

impl Scheduler for Traxtent {
    fn select(&mut self, pending: &mut Vec<Queued>, max_batch: usize) -> Vec<Dispatch> {
        if pending.is_empty() {
            return Vec::new();
        }
        let order = sweep_order(pending);
        let start = sweep_start(&order, &mut self.pos, &mut self.wraps);
        let table = self.boundaries.table();
        let anchor = pending[order[start].at].request;
        let track = table.track_index(anchor.lbn);
        let ext = table.track_extent(track);
        if !(self.boundaries.is_confident(track, self.threshold) && anchor.end() <= ext.end()) {
            // Unknown boundary (or a client request that itself straddles
            // one): no coalescing is safe, serve this round as C-LOOK.
            return sweep_round(pending, &order, start, max_batch, &mut self.pos);
        }
        // Walk the cyclic sweep order from the lowest queued request on
        // the anchor's track. A track is looked up once, when the walk
        // first leaves the previous one; whether its requests are gathered
        // (`claim`) or passed over is then a range check per request.
        let mut lo = start;
        while lo > 0 && order[lo - 1].lbn >= ext.start {
            lo -= 1;
        }
        let mut round: Vec<Dispatch> = Vec::new();
        let mut taken: Vec<usize> = Vec::new();
        let mut claimed: Vec<u16> = Vec::new();
        let (mut from, mut to) = (ext.start, ext.end());
        // The spindle to claim with the walk's current track, if that
        // track is trusted and the spindle has no track this round yet.
        let mut claim = Some(self.boundaries.spindle(track));
        // Where the current track's commands begin in `round`: requests
        // coalesce within a track, never across two.
        let mut first_cmd = 0;
        for slot in order[lo..].iter().chain(&order[..lo]) {
            if taken.len() == max_batch {
                break;
            }
            if !(from..to).contains(&slot.lbn) {
                if claimed.len() == self.spindles {
                    break;
                }
                let t = table.track_index(slot.lbn);
                let e = table.track_extent(t);
                (from, to) = (e.start, e.end());
                let spindle = self.boundaries.spindle(t);
                let free =
                    self.boundaries.is_confident(t, self.threshold) && !claimed.contains(&spindle);
                claim = free.then_some(spindle);
                first_cmd = round.len();
            }
            let Some(spindle) = claim else { continue };
            let q = pending[slot.at];
            if q.request.end() > to {
                continue;
            }
            if claimed.last() != Some(&spindle) {
                claimed.push(spindle);
            }
            if claimed.len() == 1 {
                self.pos = slot.lbn;
            }
            taken.push(slot.at);
            match round[first_cmd..].last_mut() {
                // Only exactly adjacent same-op requests merge;
                // overlapping or gapped neighbours stay separate commands
                // (still within the track).
                Some(d) if d.request.op == q.request.op && d.request.end() == slot.lbn => {
                    d.request.len += q.request.len;
                    d.parts.push(q);
                }
                _ => round.push(Dispatch::single(q)),
            }
        }
        remove_at(pending, taken);
        round
    }

    fn wraps(&self) -> u64 {
        self.wraps
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
        assert_eq!(ds.iter().map(|d| d.parts[0].id).collect::<Vec<_>>(), [0, 1]);
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
        assert_eq!(ds[0].parts.iter().map(|p| p.id).collect::<Vec<_>>(), [0, 1]);
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
    fn traxtent_fills_one_track_per_spindle_and_coalesces_per_track() {
        // Four 100-sector tracks striped over two spindles.
        let striped = |spindles| {
            ConfidentBoundaries::certain(TrackBoundaries::uniform(4, 100))
                .with_spindles(spindles)
                .unwrap()
        };
        // A contiguous run across the 100-boundary is two tracks on two
        // different spindles: one round, two commands, never one.
        let mut sched = Traxtent::new(striped(vec![0, 1, 0, 1]), 0.9);
        let mut pending = vec![q(0, 60, 40), q(1, 100, 40)];
        let ds = sched.select(&mut pending, 16);
        assert_eq!(
            ds.iter()
                .map(|d| (d.request.lbn, d.request.len))
                .collect::<Vec<_>>(),
            [(60, 40), (100, 40)]
        );
        assert!(pending.is_empty());

        // The walk is cyclic and skips spindles already claimed: anchored
        // on track 2 (spindle 0) it passes nothing above, wraps to track 0
        // (spindle 0 again: passed over) and claims track 1 for spindle 1.
        let mut sched = Traxtent::new(striped(vec![0, 1, 0, 1]), 0.9);
        sched.pos = 200;
        let mut pending = vec![q(0, 10, 10), q(1, 120, 10), q(2, 130, 10), q(3, 210, 10)];
        let ds = sched.select(&mut pending, 16);
        assert_eq!(
            ds.iter()
                .map(|d| (d.request.lbn, d.request.len))
                .collect::<Vec<_>>(),
            [(210, 10), (120, 20)]
        );
        assert_eq!(
            (sched.pos, sched.wraps()),
            (210, 0),
            "the anchor alone moves the sweep"
        );
        assert_eq!(pending.iter().map(|p| p.id).collect::<Vec<_>>(), [0]);

        // The batch bound covers the whole round, not each track.
        let mut sched = Traxtent::new(striped(vec![0, 1, 2, 3]), 0.9);
        let mut pending = vec![q(0, 0, 10), q(1, 20, 10), q(2, 100, 10), q(3, 200, 10)];
        let ds = sched.select(&mut pending, 3);
        assert_eq!(ds.iter().map(|d| d.parts.len()).sum::<usize>(), 3);
        assert_eq!(pending.iter().map(|p| p.id).collect::<Vec<_>>(), [3]);
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
