//! The run protocol.
//!
//! The parent runs repetitions round-robin — rep 1 of every workload, then
//! rep 2, … — and each (workload, rep) in a fresh child process, one child
//! at a time, single-threaded. A child is this same executable re-run as
//! `one <workload>`. Fresh processes give every rep the same cold
//! allocator and page-fault behaviour and its own `VmHWM`; interleaving
//! spreads seconds-long machine noise over all workloads instead of
//! letting it land on one. The median over reps is what is reported.
//!
//! After the plain reps, one traced child per workload makes the three
//! sub-passes that price the layers: timed (spans), capture, replay.

use crate::capture::{replay, Capture, PhaseSums, Replay};
use crate::json::{self, Value};
use crate::metrics::SHARE_LAYERS;
use crate::spans::{carve_out_drive, self_ns_by_layer, write_jsonl, Spans};
use crate::stats::{percentile, sorted};
use crate::workload::{ratio, Outcome, Probe, Scale, Workload};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// What one plain repetition reports to the parent.
#[derive(Debug, Clone)]
pub struct Rep {
    pub attempted: u64,
    pub succeeded: u64,
    /// Timed section and set-up, in measured seconds.
    pub host_s: f64,
    pub setup_s: f64,
    /// Machine speed around the timed section (1 = the sizing machine);
    /// measured seconds × speed = reference seconds.
    pub speed: f64,
    pub sim_s: f64,
    pub peak_rss_mb: f64,
    /// Median and 99th percentile of simulated response time, and how
    /// many completed requests they are over. Open-loop workloads only.
    pub latency: Option<(f64, f64, u64)>,
    /// Requests rejected, failed, or answered later than the limit.
    pub slo_missed: u64,
    /// Digest of every simulated result, as hex.
    pub digest: String,
}

/// The child's peak resident set, from its own `/proc` entry.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn rep_of(w: &Workload, out: &Outcome, probe: &Probe) -> Rep {
    let limit = w.slo_ms.unwrap_or(f64::INFINITY);
    let late = out.responses_ms.iter().filter(|&&r| r > limit).count() as u64;
    let latency = w.slo_ms.map(|_| {
        let v = sorted(out.responses_ms.clone());
        (percentile(&v, 0.5), percentile(&v, 0.99), v.len() as u64)
    });
    Rep {
        attempted: out.attempted,
        succeeded: out.succeeded,
        host_s: probe.host_s(),
        setup_s: probe.setup_s(),
        speed: probe.speed(),
        sim_s: out.sim_s,
        peak_rss_mb: peak_rss_mb(),
        latency,
        slo_missed: out.attempted - out.succeeded + late,
        digest: format!("{:016x}", out.digest()),
    }
}

impl Rep {
    fn to_json(&self) -> Value {
        let (p50, p99, n) = self.latency.unwrap_or((0.0, 0.0, 0));
        Value::obj([
            ("attempted", Value::from(self.attempted)),
            ("succeeded", Value::from(self.succeeded)),
            ("host_s", Value::from(self.host_s)),
            ("setup_s", Value::from(self.setup_s)),
            ("speed", Value::from(self.speed)),
            ("sim_s", Value::from(self.sim_s)),
            ("peak_rss_mb", Value::from(self.peak_rss_mb)),
            ("latency_n", Value::from(n)),
            ("p50_ms", Value::from(p50)),
            ("p99_ms", Value::from(p99)),
            ("slo_missed", Value::from(self.slo_missed)),
            ("digest", Value::from(self.digest.as_str())),
        ])
    }

    fn from_json(v: &Value) -> Result<Rep, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("child report lacks `{k}`"))
        };
        let n = num("latency_n")? as u64;
        Ok(Rep {
            attempted: num("attempted")? as u64,
            succeeded: num("succeeded")? as u64,
            host_s: num("host_s")?,
            setup_s: num("setup_s")?,
            speed: num("speed")?,
            sim_s: num("sim_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            latency: (n > 0).then_some((num("p50_ms")?, num("p99_ms")?, n)),
            slo_missed: num("slo_missed")? as u64,
            digest: v
                .get("digest")
                .and_then(Value::as_str)
                .ok_or("child report lacks `digest`")?
                .to_string(),
        })
    }
}

/// Child: one plain repetition. `started` is the child's own start, so
/// set-up time is everything from there to the timed section.
pub fn one(w: &Workload, seed: u64, scale: Scale, started: Instant) -> Result<Value, String> {
    let probe = Probe::new(started, None, None);
    let out = (w.run)(seed, scale, &probe)?;
    Ok(rep_of(w, &out, &probe).to_json())
}

/// The layer each `*.self_*` metric divides, and the factor from
/// nanoseconds per op to the metric's unit.
const SELF_METRICS: [(&str, &str, f64); 5] = [
    ("server", "server.self_ns_per_req", 1.0),
    ("fleet", "fleet.self_ns_per_req", 1.0),
    ("ffs", "ffs.self_ns_per_op", 1.0),
    ("lfs", "lfs.self_ns_per_update", 1.0),
    ("dixtrac", "dixtrac.self_us_per_track", 1e-3),
];

/// Child: the traced pass. Three sub-passes over identical inputs whose
/// simulated results must agree bit for bit; returns the per-layer
/// metrics, the timed sub-pass's timed section in reference seconds, and
/// the digest.
pub fn traced(w: &Workload, seed: u64, scale: Scale, out_dir: &Path) -> Result<Value, String> {
    // (1) Timed: benchmark-owned spans around each call into a layer.
    let spans = Spans::new();
    let probe = Probe::new(Instant::now(), Some(&spans), None);
    let timed = (w.run)(seed, scale, &probe)?;
    let traced_ref_s = probe.host_s() * probe.speed();
    let spans = spans.into_vec();

    // (2) Capture: the same run with a sink on every drive, untimed.
    let capture = Capture::default();
    let captured = (w.run)(
        seed,
        scale,
        &Probe::new(Instant::now(), None, Some(&capture)),
    )?;
    if captured.digest() != timed.digest() {
        return Err(format!(
            "simulated results differ between the timed ({:016x}) and capture ({:016x}) sub-passes",
            timed.digest(),
            captured.digest()
        ));
    }

    // (3) Replay: each stream on a bare disk, under a timer. The drive's
    // price is subtracted from a layer's, so it is the median of three
    // replays: a single one is off by the machine's noise, and a noisy
    // subtrahend can push a thin layer's share below zero.
    let mut drive = Replay::default();
    let mut phases = PhaseSums::default();
    for stream in capture.finish() {
        let mut runs = [replay(&stream)?, replay(&stream)?, replay(&stream)?];
        runs.sort_by_key(|r| r.host_ns);
        let r = runs[1];
        drive.cmds += r.cmds;
        drive.host_ns += r.host_ns;
        drive.busy_ns += r.busy_ns;
        drive.span_ns += r.span_ns;
        drive.track_local += r.track_local;
        phases.add(&stream.phases);
    }

    let mut by_layer = self_ns_by_layer(&spans);
    carve_out_drive(&mut by_layer, w.drive_owner, drive.host_ns);
    let total_ns = spans[0].duration_ns() as f64;
    let ops = timed.succeeded as f64;

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| m.insert(name.to_string(), value);
    for &(name, value) in timed.facts.iter().chain(&timed.observed) {
        put(name, value);
    }
    let mut share_sum = 0.0;
    for (layer, &ns) in &by_layer {
        if !SHARE_LAYERS.contains(layer) {
            return Err(format!("span layer `{layer}` has no host_share metric"));
        }
        share_sum += ns as f64 / total_ns;
        put(&format!("{layer}.host_share"), ns as f64 / total_ns);
    }
    if (share_sum - 1.0).abs() > 1e-6 {
        return Err(format!("host shares sum to {share_sum}, not 1"));
    }
    for (layer, metric, factor) in SELF_METRICS {
        if let Some(&ns) = by_layer.get(layer) {
            put(metric, ratio(ns as f64 * factor, ops));
        }
    }

    let cmds = drive.cmds as f64;
    put("sim_disk.cmds", cmds);
    put(
        "sim_disk.host_ns_per_cmd",
        ratio(drive.host_ns as f64, cmds),
    );
    let service = phases.service() as f64;
    let fractions = [
        ("sim_disk.sim_seek_frac", phases.seek),
        ("sim_disk.sim_rot_frac", phases.rot),
        ("sim_disk.sim_media_frac", phases.media),
        ("sim_disk.sim_head_switch_frac", phases.head_switch),
        ("sim_disk.sim_overhead_bus_frac", phases.overhead_bus),
    ];
    let phase_sum: f64 = fractions.iter().map(|&(_, ns)| ns as f64 / service).sum();
    if drive.cmds > 0 && (phase_sum - 1.0).abs() > 1e-6 {
        return Err(format!("drive phase fractions sum to {phase_sum}, not 1"));
    }
    for (name, ns) in fractions {
        put(name, ratio(ns as f64, service));
    }
    put(
        "sim_disk.sim_queue_ms_mean",
        ratio(phases.queue as f64 / 1e6, cmds),
    );
    put(
        "sim_disk.sim_busy_frac",
        ratio(drive.busy_ns as f64, drive.span_ns as f64),
    );
    put(
        "sim_disk.cache_hit_frac",
        ratio(phases.read_cache_hits as f64, phases.reads as f64),
    );
    put(
        "sim_disk.track_local_frac",
        ratio(drive.track_local as f64, cmds),
    );

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("spans_{}.jsonl", w.name));
    let file = File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut file = BufWriter::new(file);
    write_jsonl(&mut file, &spans, w.name, 0)
        .and_then(|()| std::io::Write::flush(&mut file))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    Ok(Value::obj([
        ("traced_ref_s", Value::from(traced_ref_s)),
        (
            "digest",
            Value::from(format!("{:016x}", timed.digest()).as_str()),
        ),
        (
            "per_layer",
            Value::obj(m.into_iter().map(|(k, v)| (k, Value::from(v)))),
        ),
    ]))
}

/// What the parent was asked to do.
pub struct Plan {
    pub workloads: Vec<&'static Workload>,
    pub seed: u64,
    /// Stop a workload after this many reps …
    pub reps: usize,
    /// … or when the next rep would not fit in this many seconds,
    /// whichever comes first. At least [`MIN_REPS`] reps always run.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
}

/// A median needs three values to mean anything.
const MIN_REPS: usize = 3;

/// Everything measured for one workload.
pub struct Measured {
    pub workload: &'static Workload,
    pub reps: Vec<Rep>,
    /// Per-layer metrics of the traced pass, if it ran.
    pub per_layer: Option<BTreeMap<String, f64>>,
}

fn spawn(plan: &Plan, w: &Workload, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["one", w.name, "--seed", &plan.seed.to_string()]);
    if plan.quick {
        cmd.arg("--quick");
    }
    if traced {
        cmd.arg("--traced").arg("--out").arg(&plan.out);
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child for {}: {e}", w.name))?;
    if !output.status.success() {
        return Err(format!("{}: child failed ({})", w.name, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    json::parse(line).map_err(|e| format!("{}: unreadable child report: {e}", w.name))
}

/// Parent: plain reps round-robin, then the traced pass per workload.
pub fn run(plan: &Plan) -> Result<Vec<Measured>, String> {
    struct Progress {
        reps: Vec<Rep>,
        spent_s: f64,
        longest_s: f64,
    }
    let mut progress: Vec<Progress> = plan
        .workloads
        .iter()
        .map(|_| Progress {
            reps: Vec::new(),
            spent_s: 0.0,
            longest_s: 0.0,
        })
        .collect();
    loop {
        let mut ran = false;
        for (w, p) in plan.workloads.iter().zip(&mut progress) {
            let min = MIN_REPS.min(plan.reps);
            let fits = p.reps.len() < plan.reps && p.spent_s + p.longest_s <= plan.seconds;
            if p.reps.len() >= min && !fits {
                continue;
            }
            let t = Instant::now();
            let rep = Rep::from_json(&spawn(plan, w, false)?)?;
            let took = t.elapsed().as_secs_f64();
            p.spent_s += took;
            p.longest_s = p.longest_s.max(took);
            if let Some(first) = p.reps.first() {
                if first.digest != rep.digest {
                    return Err(format!(
                        "{}: simulated results differ between reps ({} vs {})",
                        w.name, first.digest, rep.digest
                    ));
                }
            }
            p.reps.push(rep);
            ran = true;
        }
        if !ran {
            break;
        }
    }

    let mut measured = Vec::new();
    for (w, p) in plan.workloads.iter().zip(progress) {
        let per_layer = if plan.trace {
            let report = spawn(plan, w, true)?;
            let digest = report.get("digest").and_then(Value::as_str);
            if digest != Some(p.reps[0].digest.as_str()) {
                return Err(format!(
                    "{}: simulated results differ between the plain reps and the traced pass",
                    w.name
                ));
            }
            let mut m: BTreeMap<String, f64> = report
                .get("per_layer")
                .map(Value::entries)
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect();
            let traced_ref_s = report
                .get("traced_ref_s")
                .and_then(Value::as_f64)
                .ok_or("traced child reported no host time")?;
            let plain: Vec<f64> = p.reps.iter().map(|r| r.host_s * r.speed).collect();
            m.insert(
                "bench.trace_overhead_frac".into(),
                traced_ref_s / crate::stats::median(&plain) - 1.0,
            );
            Some(m)
        } else {
            None
        };
        measured.push(Measured {
            workload: w,
            reps: p.reps,
            per_layer,
        });
    }
    Ok(measured)
}
