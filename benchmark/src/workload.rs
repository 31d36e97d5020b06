//! What a workload is to the harness, and the glue every workload shares.

use crate::calibrate::{mix, Calibrator, REFERENCE_S};
use crate::capture::Capture;
use crate::spans::Spans;
use server::drive_boundaries;
use sim_disk::disk::{Disk, DiskConfig};
use sim_disk::models;
use std::cell::Cell;
use std::time::Instant;
use traxtent::TrackBoundaries;

pub mod disk_replay;
pub mod dixtrac_extract;
pub mod ffs_apps;
pub mod lfs_clean;
pub mod serve;

/// Divides every request count: 1 for a real run, 50 under `--quick`.
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub usize);

impl Scale {
    pub fn n(self, full: usize) -> usize {
        (full / self.0).max(1)
    }
}

/// Simulated and counted facts a pass establishes about a layer, by
/// per-layer metric name. Insertion-ordered; every value is a pure function
/// of (code, seed) and takes part in the bit-identity checks.
pub type Facts = Vec<(&'static str, f64)>;

/// The result of one pass over a workload's inputs.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops offered to the system.
    pub attempted: u64,
    /// Ops that succeeded.
    pub succeeded: u64,
    /// Simulated seconds the modelled hardware needed for them.
    pub sim_s: f64,
    /// Simulated response time of each completed request, ms. Open-loop
    /// workloads only; closed-loop workloads leave it empty.
    pub responses_ms: Vec<f64>,
    pub facts: Facts,
    /// What only the timed sub-pass of the traced pass can see — counts
    /// kept by a benchmark wrapper, and host prices of single public
    /// functions called directly after the timed section. Empty on every
    /// other pass, and not part of the digest.
    pub observed: Facts,
}

/// One of the seven workloads.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// What one "op" is, for the report.
    pub op: &'static str,
    /// Response-time limit of an open-loop workload, ms; `None` marks a
    /// closed loop.
    pub slo_ms: Option<f64>,
    /// The layer whose spans contain the calls into the drive, and
    /// therefore the layer the replayed drive time is carved out of.
    pub drive_owner: &'static str,
    /// Builds the inputs from the seed, runs the timed section, checks the
    /// outputs. `Err` is a failed correctness gate.
    pub run: fn(u64, Scale, &Probe) -> Result<Outcome, String>,
}

pub const WORKLOADS: [Workload; 7] = [
    disk_replay::WORKLOAD,
    serve::DISK,
    serve::RAID5,
    serve::RAID5_DEGRADED,
    ffs_apps::WORKLOAD,
    lfs_clean::WORKLOAD,
    dixtrac_extract::WORKLOAD,
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How a pass is being observed. The workload code is the same in every
/// mode; the probe decides whether its hooks do anything.
pub struct Probe<'a> {
    spans: Option<&'a Spans>,
    capture: Option<&'a Capture>,
    started: Instant,
    setup_s: Cell<f64>,
    host_s: Cell<f64>,
    speed: Cell<f64>,
}

impl<'a> Probe<'a> {
    /// `started` is when set-up began (the child's start for a plain rep).
    pub fn new(started: Instant, spans: Option<&'a Spans>, capture: Option<&'a Capture>) -> Self {
        Probe {
            spans,
            capture,
            started,
            setup_s: Cell::new(0.0),
            host_s: Cell::new(0.0),
            speed: Cell::new(1.0),
        }
    }

    pub fn spans(&self) -> Option<&'a Spans> {
        self.spans
    }

    /// The config every drive of the workload is built from: unchanged,
    /// or with a capture sink on its tracer hook.
    pub fn drive(&self, config: DiskConfig) -> DiskConfig {
        match self.capture {
            Some(c) => c.attach(config),
            None => config,
        }
    }

    /// A call into `layer`, under a span when spans are on.
    pub fn call<R>(&self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        match self.spans {
            Some(s) => s.scope(name, layer, f),
            None => f(),
        }
    }

    /// The timed section: everything before it is set-up, everything
    /// after it is checking. The machine's speed is measured on either
    /// side of it (see [`crate::calibrate`]).
    pub fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        self.setup_s.set(self.started.elapsed().as_secs_f64());
        // A capture pass is untimed: it records instead of calibrating.
        if let Some(capture) = self.capture {
            capture.set_recording(true);
            let r = f();
            capture.set_recording(false);
            return r;
        }
        let mut calibrator = Calibrator::new();
        let before = calibrator.measure();
        let t = Instant::now();
        let r = self.call("timed_section", "bench", f);
        self.host_s.set(t.elapsed().as_secs_f64());
        let after = calibrator.measure();
        self.speed.set(REFERENCE_S / ((before + after) / 2.0));
        r
    }

    pub fn setup_s(&self) -> f64 {
        self.setup_s.get()
    }

    pub fn host_s(&self) -> f64 {
        self.host_s.get()
    }

    /// Machine speed around the timed section: 1 is the sizing machine.
    pub fn speed(&self) -> f64 {
        self.speed.get()
    }
}

impl Outcome {
    /// Everything simulated in this outcome folded into one word, so
    /// "bit-identical" can be checked across processes.
    pub fn digest(&self) -> u64 {
        let head = [self.attempted, self.succeeded, self.sim_s.to_bits()];
        let responses = self.responses_ms.iter().map(|r| r.to_bits());
        let facts = self.facts.iter().map(|(_, v)| v.to_bits());
        head.into_iter()
            .chain(responses)
            .chain(facts)
            .fold(0xcbf2_9ce4_8422_2325, |h, word| mix(h ^ word))
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean host nanoseconds per call of `f` over `calls` calls.
pub fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// Adds `value` to the fact called `name`, creating it at zero.
pub fn add_fact(facts: &mut Facts, name: &'static str, value: f64) {
    match facts.iter_mut().find(|(n, _)| *n == name) {
        Some((_, sum)) => *sum += value,
        None => facts.push((name, value)),
    }
}

/// Ground-truth track boundaries of the Atlas 10K II, for the workloads
/// and direct-call prices that need a real boundary table but no drive.
pub fn atlas_table() -> TrackBoundaries {
    drive_boundaries(&Disk::new(models::quantum_atlas_10k_ii()))
}

/// The first `tracks` tracks of `table`, as a table of their own.
pub fn prefix(table: &TrackBoundaries, tracks: usize) -> TrackBoundaries {
    let starts = table.iter().take(tracks).map(|e| e.start).collect();
    TrackBoundaries::new(starts, table.track_extent(tracks - 1).end())
        .expect("a prefix of a valid table is valid")
}
