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
//! on a different fault stream; a `--faults` spec passed to this binary is
//! rejected since the sweep sets its own per level.

use dixtrac::{extract_auto, ExtractionMethod, GeneralConfig};
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

/// One level's results, ready for printing and the manifest.
struct LevelResult {
    line: String,
    exact: bool,
    fallback: bool,
    mean_conf: f64,
    gain: f64,
}

fn run_level(
    probe: &traxtent_bench::Probe,
    reg: &traxtent::obs::Registry,
    name: &str,
    spec: &str,
    fault_seed: u64,
    io_count: usize,
    seed: u64,
) -> LevelResult {
    let mut fault = if spec.is_empty() {
        FaultConfig::default()
    } else {
        FaultConfig::parse_spec(spec).expect("level specs are valid")
    };
    fault.seed = fault_seed;

    // Extraction robustness on the defect-laden small disk. Three votes
    // per boundary decision everywhere, so the only swept variable is the
    // fault level itself.
    let mut cfg = probe.wrap(models::with_factory_defects(
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
        ..GeneralConfig::default()
    };
    let (method, exact, mean_conf) = match extract_auto(&mut s, &gcfg) {
        Ok(auto) => {
            if let Some(r) = &auto.scsi {
                r.export_metrics(reg);
            }
            if let Some(g) = &auto.general {
                g.export_metrics(reg);
            }
            (
                match auto.method {
                    ExtractionMethod::Scsi => "scsi",
                    ExtractionMethod::GeneralFallback => "fallback",
                },
                auto.boundaries.table() == &truth,
                auto.boundaries.mean_confidence(),
            )
        }
        Err(_) => ("failed", false, 0.0),
    };

    // The §5.2 alignment win under the same faults.
    let mut cfg = probe.wrap(models::quantum_atlas_10k_ii());
    cfg.fault = fault;
    let mut disk = Disk::new(cfg);
    let run = |disk: &mut Disk, alignment| {
        let spec = RandomIoSpec {
            count: io_count,
            seed,
            ..RandomIoSpec::reads(528, alignment, QueueDepth::Two)
        };
        run_random_io(disk, &spec).efficiency(QueueDepth::Two)
    };
    let aligned = run(&mut disk, Alignment::TrackAligned);
    let unaligned = run(&mut disk, Alignment::Unaligned);
    let gain = aligned / unaligned - 1.0;
    let stats = disk.fault_stats();

    let line = traxtent_bench::row_string([
        name.into(),
        if spec.is_empty() {
            "-".into()
        } else {
            spec.into()
        },
        method.into(),
        exact.to_string(),
        format!("{mean_conf:.3}"),
        format!("{:+.1} %", gain * 100.0),
        format!(
            "{} media / {} transient",
            stats.media_errors,
            stats.transient_recovered + stats.transient_surfaced
        ),
    ]);
    LevelResult {
        line,
        exact,
        fallback: method == "fallback",
        mean_conf,
        gain,
    }
}

fn main() {
    let cli = traxtent_bench::Cli::parse();
    if cli.fault.is_some() {
        eprintln!(
            "error: fault_sweep sweeps its own fault specs per level; \
             vary --seed to replay the sweep on a different fault stream"
        );
        std::process::exit(2);
    }
    let probe = cli.probe();
    let reg = traxtent::obs::Registry::new();
    let mut rec = cli.recorder("fault_sweep");
    let fault_seed = cli.seed ^ 0xfa17;
    let io_count = if cli.quick { 200 } else { 800 };

    traxtent_bench::header("fault sweep: extraction robustness and the alignment win");
    traxtent_bench::row([
        "level".into(),
        "spec".into(),
        "extraction".into(),
        "exact".into(),
        "mean_conf".into(),
        "aligned_gain".into(),
        "injected".into(),
    ]);

    let results = cli.executor().run(LEVELS.to_vec(), |_, (name, spec)| {
        run_level(&probe, &reg, name, spec, fault_seed, io_count, cli.seed)
    });

    let mut exact_levels = 0usize;
    let mut fallback_levels = 0usize;
    for ((name, _), r) in LEVELS.iter().zip(&results) {
        exact_levels += usize::from(r.exact);
        fallback_levels += usize::from(r.fallback);
        rec.headline(&format!("{name}_mean_conf"), r.mean_conf);
        rec.headline(&format!("{name}_gain"), r.gain);
        println!("{}", r.line);
    }
    rec.headline("exact_levels", exact_levels as f64);
    rec.headline("fallback_levels", fallback_levels as f64);
    probe.finish();
    rec.finish(&reg);
}
