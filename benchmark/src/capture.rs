//! Capture each drive's command stream through the public
//! [`DiskConfig::tracer`] hook, then replay it on a bare [`Disk`].
//!
//! This is how the drive model is priced from outside: the replayed disk
//! sees exactly the commands the full stack sent it, at the same issue
//! instants, and nothing else runs. Replay also proves the capture is
//! faithful — every completion instant must match.

use server::drive_boundaries;
use sim_disk::disk::{Disk, DiskConfig, Op, Request};
use sim_disk::trace::{SharedSink, TraceEvent, TraceSink, Tracer};
use sim_disk::{Completion, SimTime};
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One command a drive serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cmd {
    pub issue_ns: u64,
    pub done_ns: u64,
    pub request: Request,
}

/// Simulated nanoseconds by phase, summed over a drive's commands, plus
/// the counts the per-layer ratios need.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSums {
    pub queue: u64,
    pub seek: u64,
    pub rot: u64,
    pub media: u64,
    pub head_switch: u64,
    /// Command overhead, un-overlapped bus time and write settle.
    pub overhead_bus: u64,
    pub reads: u64,
    pub read_cache_hits: u64,
}

impl PhaseSums {
    /// Service time excluding queueing: the denominator of the five phase
    /// fractions.
    pub fn service(&self) -> u64 {
        self.seek + self.rot + self.media + self.head_switch + self.overhead_bus
    }

    pub fn add(&mut self, o: &PhaseSums) {
        self.queue += o.queue;
        self.seek += o.seek;
        self.rot += o.rot;
        self.media += o.media;
        self.head_switch += o.head_switch;
        self.overhead_bus += o.overhead_bus;
        self.reads += o.reads;
        self.read_cache_hits += o.read_cache_hits;
    }
}

/// The [`TraceSink`] attached to one drive.
#[derive(Debug, Default)]
struct Sink {
    recording: bool,
    cmds: Vec<Cmd>,
    phases: PhaseSums,
    issued_at: u64,
}

impl TraceSink for Sink {
    fn record(&mut self, event: &TraceEvent) {
        if !self.recording {
            return;
        }
        match *event {
            // The drive delivers a request's events as one batch that
            // starts with `Issue` and ends with `Complete`, so the pending
            // issue instant always belongs to the next completion.
            TraceEvent::Issue { t, .. } => self.issued_at = t,
            TraceEvent::Complete {
                t,
                op,
                lbn,
                len,
                cache_hit,
                queue,
                overhead,
                seek,
                head_switch,
                rot_latency,
                media,
                bus,
                write_settle,
                ..
            } => {
                self.cmds.push(Cmd {
                    issue_ns: self.issued_at,
                    done_ns: t,
                    request: Request::new(op, lbn, len),
                });
                let p = &mut self.phases;
                p.queue += queue;
                p.seek += seek;
                p.rot += rot_latency;
                p.media += media;
                p.head_switch += head_switch;
                p.overhead_bus += overhead + bus + write_settle;
                p.reads += u64::from(op == Op::Read);
                p.read_cache_hits += u64::from(cache_hit);
            }
            _ => {}
        }
    }
}

/// Everything captured from one drive, with the config to rebuild it.
#[derive(Debug)]
pub struct Stream {
    pub config: DiskConfig,
    pub cmds: Vec<Cmd>,
    pub phases: PhaseSums,
}

/// Hands out capture tracers, one stream per drive.
#[derive(Default)]
pub struct Capture {
    drives: RefCell<Vec<(DiskConfig, Arc<Mutex<Sink>>)>>,
}

impl Capture {
    /// Returns `config` with a fresh capture sink on its tracer hook; every
    /// drive built from the result reports into that one stream.
    pub fn attach(&self, config: DiskConfig) -> DiskConfig {
        let sink = Arc::new(Mutex::new(Sink::default()));
        let shared: SharedSink = sink.clone();
        self.drives.borrow_mut().push((config.clone(), sink));
        DiskConfig {
            tracer: Some(Tracer::new(shared)),
            ..config
        }
    }

    /// Starts or stops recording on every attached drive. Only the timed
    /// section is recorded, so the streams hold exactly the commands the
    /// timed section's spans contain.
    pub fn set_recording(&self, on: bool) {
        for (_, sink) in self.drives.borrow().iter() {
            sink.lock().expect("capture sink poisoned").recording = on;
        }
    }

    /// Ends the capture and returns the streams in attach order.
    pub fn finish(self) -> Vec<Stream> {
        self.drives
            .into_inner()
            .into_iter()
            .map(|(config, sink)| {
                let sink = std::mem::take(&mut *sink.lock().expect("capture sink poisoned"));
                Stream {
                    config,
                    cmds: sink.cmds,
                    phases: sink.phases,
                }
            })
            .collect()
    }
}

/// What replaying one stream cost and showed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Replay {
    pub cmds: u64,
    pub host_ns: u64,
    /// Mechanical occupancy of the replayed drive, simulated ns.
    pub busy_ns: u64,
    /// Simulated time the stream spans, summed over power cycles.
    pub span_ns: u64,
    /// Commands that lie within one physical track.
    pub track_local: u64,
}

/// Commands handed to the drive per `service_batch_into` call during
/// replay — the same figure `workloads::replay` uses, so a replayed drive
/// is driven the way the cheapest real caller drives it.
const BATCH: usize = 1024;

/// Re-issues `stream` on a fresh identically-configured disk under a
/// timer. Issue time running backwards means the original drive was
/// power-cycled there (`ffs::FileSystem::remount`), so the replay calls
/// [`Disk::reset`] at the same point. Fails if any completion instant
/// differs from the captured one.
pub fn replay(stream: &Stream) -> Result<Replay, String> {
    let mut disk = Disk::new(stream.config.clone());
    let truth = drive_boundaries(&disk);
    let mut out = Replay {
        cmds: stream.cmds.len() as u64,
        ..Replay::default()
    };
    // Split at every regression, then into batches, before the timer
    // starts: the timed part is the drive model and nothing else.
    let mut cycles: Vec<Vec<(Request, SimTime)>> = Vec::new();
    let mut last = 0;
    for c in &stream.cmds {
        if cycles.is_empty() || c.issue_ns < last {
            cycles.push(Vec::new());
        }
        last = c.issue_ns;
        let cycle = cycles.last_mut().expect("pushed above");
        cycle.push((c.request, SimTime::from_ns(c.issue_ns)));
        let (_, track_end) = truth.track_bounds(c.request.lbn);
        out.track_local += u64::from(c.request.end() <= track_end);
    }
    // Completions are checked batch by batch in a buffer that is reused:
    // holding a million of them would make the replay pay for page faults
    // the original caller never took.
    let mut done: Vec<Completion> = Vec::with_capacity(BATCH);
    let mut expected = stream.cmds.iter();
    let mut diverged = None;
    let start = Instant::now();
    for (i, cycle) in cycles.iter().enumerate() {
        if i > 0 {
            disk.reset();
        }
        let mut cycle_end = 0;
        for batch in cycle.chunks(BATCH) {
            done.clear();
            disk.service_batch_into(batch, &mut done);
            for (d, c) in done.iter().zip(&mut expected) {
                let at = d.completion.as_ns();
                cycle_end = cycle_end.max(at);
                if at != c.done_ns && diverged.is_none() {
                    diverged = Some((*c, at));
                }
            }
        }
        out.span_ns += cycle_end;
    }
    out.host_ns = start.elapsed().as_nanos() as u64;
    out.busy_ns = disk.busy_ns();
    if let Some((c, at)) = diverged {
        return Err(format!(
            "replay diverged at {:?} issued at {} ns: completed at {at} ns, captured {} ns",
            c.request, c.issue_ns, c.done_ns
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_disk::models::small_test_disk;

    /// Drives a captured disk through `script` — `(issue_ns, request)`, with
    /// `None` standing for a power cycle — and returns the streams.
    fn capture(script: &[Option<(u64, Request)>]) -> Vec<Stream> {
        let cap = Capture::default();
        let mut disk = Disk::new(cap.attach(small_test_disk()));
        // Set-up traffic stays out of the stream.
        disk.service(Request::read(0, 8), SimTime::ZERO);
        disk.reset();
        cap.set_recording(true);
        for step in script {
            match *step {
                Some((t, req)) => {
                    disk.service(req, SimTime::from_ns(t));
                }
                None => disk.reset(),
            }
        }
        cap.finish()
    }

    #[test]
    fn replay_reproduces_every_completion_instant() {
        let script: Vec<_> = (0..400u64)
            .map(|i| {
                let lbn = (i * 7919) % 80_000;
                let req = if i % 3 == 0 {
                    Request::write(lbn, 64)
                } else {
                    Request::read(lbn, 200)
                };
                Some((i * 2_000_000, req))
            })
            .collect();
        let streams = capture(&script);
        assert_eq!(streams.len(), 1);
        let s = &streams[0];
        assert_eq!(s.cmds.len(), 400);
        assert!(s.cmds.windows(2).all(|w| w[0].issue_ns <= w[1].issue_ns));
        assert!(s.phases.service() > 0 && s.phases.reads > 0);
        let r = replay(s).unwrap();
        assert_eq!(r.cmds, 400);
        assert!(r.busy_ns > 0 && r.busy_ns <= r.span_ns);
        // 200-sector reads on 200- and 150-sector tracks mostly straddle.
        assert!(r.track_local > 0 && r.track_local < 400);
    }

    #[test]
    fn replay_power_cycles_where_issue_time_regresses() {
        let mut script = vec![
            Some((0, Request::read(1000, 64))),
            Some((9_000_000, Request::write(50_000, 128))),
            Some((30_000_000, Request::read(50_000, 128))),
        ];
        // `remount` resets the drive and restarts the clock at zero.
        script.push(None);
        script.push(Some((0, Request::read(1000, 64))));
        script.push(Some((5_000_000, Request::read(70_000, 32))));
        let streams = capture(&script);
        let s = &streams[0];
        assert!(s.cmds[3].issue_ns < s.cmds[2].issue_ns);
        let r = replay(s).unwrap();
        // The span covers both power cycles, each from its own time zero.
        assert!(r.span_ns > s.cmds[2].done_ns);
        assert_eq!(
            r.span_ns,
            s.cmds[2].done_ns.max(s.cmds[1].done_ns) + s.cmds[4].done_ns
        );

        // Without the reset the first post-cycle read would hit the warm
        // firmware cache and the arm would start elsewhere: the fidelity
        // check must notice a stream whose regression was smoothed away.
        let mut flat = Stream {
            config: s.config.clone(),
            cmds: s.cmds.clone(),
            phases: s.phases,
        };
        for c in &mut flat.cmds[3..] {
            c.issue_ns += 40_000_000;
            c.done_ns += 40_000_000;
        }
        assert!(replay(&flat).unwrap_err().contains("diverged at"));
    }
}
