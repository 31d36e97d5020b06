//! Fault sweep: how the stack degrades as injected fault intensity rises.
//!
//! Each level of the sweep runs two experiments against drives configured
//! with that level's [`sim_disk::fault::FaultConfig`]:
//!
//! * **extraction** — [`dixtrac::extract_auto`] on the defect-laden small
//!   test disk: which path ran (SCSI or the timing fallback), whether the
//!   recovered table matches the geometry exactly, and the mean per-track
//!   confidence the majority vote assigned;
//! * **alignment win** — the §5.2 aligned-vs-unaligned efficiency gain at
//!   track size on the Atlas 10K II, showing how much of the traxtent win
//!   survives a flaky drive.
//!
//! Fault decisions are pure functions of the fault seed and request
//! identity, so the sweep is bit-reproducible at any `--threads`. The
//! fault seed derives from `--seed`, so one flag replays the whole sweep
//! on a different fault stream; a `--faults` spec passed to this figure is
//! rejected since the sweep sets its own per level.

use crate::{Row, Run};
use dixtrac::{extract_auto, Extraction, GeneralConfig};
use scsi::ScsiDisk;
use sim_disk::defects::{DefectPolicy, SpareScheme};
use sim_disk::disk::Disk;
use sim_disk::fault::FaultConfig;
use sim_disk::models;
use workloads::microbench::{run_random_io, Alignment, QueueDepth, RandomIoSpec};

/// The swept fault levels, mildest first: `(name, --faults spec)`. The
/// empty spec is the fault-free control.
const LEVELS: [(&str, &str); 7] = [
    ("off", ""),
    ("jitter-lo", "seek=gauss:0.01,rot=uniform:0.002"),
    (
        "jitter-hi",
        "seek=gauss:0.05,hs=gauss:0.05,rot=uniform:0.005",
    ),
    ("media", "media=1000,grown=100000"),
    ("transient", "transient=20000"),
    ("nodiag", "nodiag,transient=5000"),
    (
        "worst",
        "media=2000,grown=100000,transient=20000,seek=gauss:0.05,rot=uniform:0.005,nodiag",
    ),
];

fn run_level(run: &Run, name: &str, spec: &str) -> Row {
    let mut fault = if spec.is_empty() {
        FaultConfig::default()
    } else {
        FaultConfig::parse_spec(spec).expect("level specs are valid")
    };
    fault.seed = run.seed ^ 0xfa17;

    // Extraction robustness on the defect-laden small disk. Three votes
    // per boundary decision everywhere, so the only swept variable is the
    // fault level itself.
    let mut cfg = run.drive(models::with_factory_defects(
        models::small_test_disk(),
        SpareScheme::SectorsPerCylinder(8),
        DefectPolicy::Slip,
        500,
        17,
    ));
    cfg.fault = fault;
    let truth = Disk::new(cfg.clone()).track_boundaries();
    let mut s = ScsiDisk::new(Disk::new(cfg));
    let gcfg = GeneralConfig {
        contexts: 16,
        votes: 3,
    };
    let (method, exact, mean_conf) = match extract_auto(&mut s, &gcfg) {
        Ok(auto) => {
            let method = match &auto.report {
                Extraction::Scsi(r) => {
                    r.export_metrics(&run.reg);
                    "scsi"
                }
                Extraction::General(g) => {
                    g.export_metrics(&run.reg);
                    "fallback"
                }
            };
            (
                method,
                auto.boundaries.table() == &truth,
                auto.boundaries.mean_confidence(),
            )
        }
        Err(_) => ("failed", false, 0.0),
    };

    // The §5.2 alignment win under the same faults.
    let mut cfg = run.drive(models::quantum_atlas_10k_ii());
    cfg.fault = fault;
    let mut disk = Disk::new(cfg);
    let io = |disk: &mut Disk, alignment| {
        let spec = RandomIoSpec {
            count: if run.quick { 200 } else { 800 },
            seed: run.seed,
            ..RandomIoSpec::reads(528, alignment, QueueDepth::Two)
        };
        run_random_io(disk, &spec).efficiency(QueueDepth::Two)
    };
    let aligned = io(&mut disk, Alignment::TrackAligned);
    let unaligned = io(&mut disk, Alignment::Unaligned);
    let gain = aligned / unaligned - 1.0;
    let stats = disk.fault_stats();

    Row::new()
        .col(name)
        .col(if spec.is_empty() { "-" } else { spec })
        .col(method)
        .add("fallback_levels", u8::from(method == "fallback"))
        .col(exact)
        .add("exact_levels", u8::from(exact))
        .num(mean_conf, 3)
        .key(format!("{name}_mean_conf"))
        .col(format!("{:+.1} %", gain * 100.0))
        .set(format!("{name}_gain"), gain)
        .col(format!(
            "{} media / {} transient",
            stats.media_errors,
            stats.transient_recovered + stats.transient_surfaced
        ))
}

pub(crate) fn main(run: &Run) {
    run.no_faults(
        "fault_sweep sweeps its own fault specs per level; \
         vary --seed to replay the sweep on a different fault stream",
    );
    run.header(
        "fault sweep: extraction robustness and the alignment win",
        &[
            "level",
            "spec",
            "extraction",
            "exact",
            "mean_conf",
            "aligned_gain",
            "injected",
        ],
    );
    run.sweep(LEVELS.to_vec(), |_, (name, spec)| {
        run_level(run, name, spec)
    });
}
