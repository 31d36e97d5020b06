//! Shared helpers for the figure/table regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! and prints the same rows/series the paper reports:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — representative disk characteristics |
//! | `fig1` | Figure 1 — disk efficiency vs I/O size, aligned vs unaligned |
//! | `fig3` | Figure 3 — rotational latency vs request size |
//! | `fig6` | Figure 6 — head time, onereq/tworeq (+ §5.2 writes via `--writes`) |
//! | `fig7` | Figure 7 — response-time breakdown |
//! | `fig8` | Figure 8 — response time ± σ, infinitely fast bus |
//! | `table2` | Table 2 — FFS application benchmarks |
//! | `fig9` | Figure 9 — video-server startup latency (+ §5.4.2 via `--hard`) |
//! | `fig10` | Figure 10 — LFS overall write cost vs segment size |
//! | `extraction` | §4.1 — track-boundary extraction cost and accuracy |
//! | `ablation` | §5.2 ablations — zero-latency / queueing in isolation |
//! | `server_sweep` | open-loop server: response latency vs offered load per scheduler |
//!
//! Every binary accepts `--seed <n>`, `--threads <n>`, and a `--quick` flag
//! that shrinks sample counts for smoke testing. Simulation cells fan out
//! across a worker pool (see [`exec`]); output is byte-identical at any
//! thread count because results are merged back in submission order.
//!
//! Every binary also accepts `--faults <spec>` / `--fault-seed <n>` to run
//! its figure against a deliberately unreliable drive (see
//! [`sim_disk::fault::FaultConfig::parse_spec`] for the spec grammar).
//! Fault decisions are a pure function of the fault seed and request
//! identity, so faulty runs stay bit-reproducible at any `--threads`. The
//! `fault_sweep` binary sweeps this axis systematically.

#![warn(missing_docs)]

pub mod diff;
pub mod exec;
pub mod manifest;

use sim_disk::disk::DiskConfig;
use sim_disk::fault::FaultConfig;
use sim_disk::metrics::MetricsRegistry;
use sim_disk::trace::{Fanout, JsonlSink, SharedSink, Tracer};
use std::sync::{Arc, Mutex};
use traxtent::obs::span::{self, Span};

/// Command-line convention shared by the binaries: `--quick`, `--seed N`,
/// `--threads N`, `--trace <path>`, `--metrics`, `--faults <spec>`,
/// `--fault-seed N`, plus binary-specific boolean flags.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Reduced sample counts for fast smoke runs.
    pub quick: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for independent simulation cells (1 = sequential).
    /// Defaults to 1 when `--trace` or `--metrics` is given, so the event
    /// stream is deterministic; combining either flag with an explicit
    /// `--threads N > 1` is a usage error.
    pub threads: usize,
    /// JSONL trace output path (`--trace <path>`), if requested.
    pub trace: Option<String>,
    /// Whether `--metrics` was given: print a per-phase latency table to
    /// stderr when the run finishes.
    pub metrics: bool,
    /// Directory for the run manifest (`--manifest <dir>`), if requested.
    pub manifest: Option<String>,
    /// Fault injection requested via `--faults <spec>` (see
    /// [`FaultConfig::parse_spec`] for the grammar), with the seed from
    /// `--fault-seed <n>`. `None` when the flag was absent: drives keep
    /// their configs' own (default, fault-free) settings.
    pub fault: Option<FaultConfig>,
    /// Binary-specific boolean flags that were passed (e.g. `--writes`).
    flags: Vec<String>,
    /// Binary-specific value options that were passed (e.g. `--input x`).
    values: Vec<(String, String)>,
}

impl Cli {
    /// Parses `std::env::args` accepting only the common flags. Exits with
    /// a usage message on malformed or unknown arguments.
    pub fn parse() -> Self {
        Self::parse_with(&[])
    }

    /// Parses `std::env::args`, additionally accepting the given
    /// binary-specific boolean flags (e.g. `&["--writes"]`). Exits with a
    /// usage message on malformed or unknown arguments.
    pub fn parse_with(known: &[&str]) -> Self {
        Self::parse_with_values(known, &[])
    }

    /// Like [`Cli::parse_with`], additionally accepting binary-specific
    /// options that take a value (e.g. `&["--input"]`), retrievable with
    /// [`Cli::value`].
    pub fn parse_with_values(known: &[&str], known_values: &[&str]) -> Self {
        match Self::parse_args_values(std::env::args().skip(1), known, known_values) {
            Ok(cli) => cli,
            Err(msg) => {
                let name = std::env::args().next().unwrap_or_else(|| "bench".into());
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: {name} [--quick] [--seed <n>] [--threads <n>] \
                     [--trace <path>] [--metrics] [--manifest <dir>] \
                     [--faults <spec>] [--fault-seed <n>]{}{}",
                    {
                        let extra: String = known.iter().map(|f| format!(" [{f}]")).collect();
                        extra
                    },
                    {
                        let extra: String = known_values
                            .iter()
                            .map(|f| format!(" [{f} <value>]"))
                            .collect();
                        extra
                    }
                );
                std::process::exit(2);
            }
        }
    }

    /// Pure parser behind [`Cli::parse_with`], separated for testing.
    pub fn parse_args<I>(args: I, known: &[&str]) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        Self::parse_args_values(args, known, &[])
    }

    /// Pure parser behind [`Cli::parse_with_values`], separated for
    /// testing.
    pub fn parse_args_values<I>(
        args: I,
        known: &[&str],
        known_values: &[&str],
    ) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut cli = Cli {
            quick: false,
            seed: 0x5eed,
            threads: default_threads(),
            trace: None,
            metrics: false,
            manifest: None,
            fault: None,
            flags: Vec::new(),
            values: Vec::new(),
        };
        let mut explicit_threads = false;
        let mut fault_seed: Option<u64> = None;
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => cli.quick = true,
                "--seed" => {
                    cli.seed = parse_value(args.next(), "--seed")?;
                }
                "--threads" => {
                    cli.threads = parse_value(args.next(), "--threads")?;
                    if cli.threads == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    explicit_threads = true;
                }
                "--trace" => {
                    cli.trace = Some(args.next().ok_or("--trace requires a path")?);
                }
                "--metrics" => cli.metrics = true,
                "--manifest" => {
                    cli.manifest = Some(args.next().ok_or("--manifest requires a directory")?);
                }
                "--faults" => {
                    let spec = args
                        .next()
                        .ok_or("--faults requires a spec, e.g. `media=500,rot=gauss:0.05`")?;
                    cli.fault =
                        Some(FaultConfig::parse_spec(&spec).map_err(|e| format!("--faults: {e}"))?);
                }
                "--fault-seed" => {
                    fault_seed = Some(parse_value(args.next(), "--fault-seed")?);
                }
                flag if known.contains(&flag) => cli.flags.push(a),
                opt if known_values.contains(&opt) => {
                    let value = args.next().ok_or_else(|| format!("{a} requires a value"))?;
                    cli.values.push((a, value));
                }
                _ => return Err(format!("unrecognized argument `{a}`")),
            }
        }
        if cli.trace.is_some() || cli.metrics {
            // One worker: requests then hit the shared sink in a stable
            // order, and the hot path never contends on the sink lock.
            if explicit_threads && cli.threads > 1 {
                return Err(
                    "--trace/--metrics need a deterministic event stream and run \
                     single-threaded; drop --threads or pass --threads 1"
                        .into(),
                );
            }
            cli.threads = 1;
        }
        match (&mut cli.fault, fault_seed) {
            (Some(f), Some(seed)) => f.seed = seed,
            (None, Some(_)) => {
                return Err("--fault-seed only makes sense with --faults <spec>".into());
            }
            _ => {}
        }
        Ok(cli)
    }

    /// Whether a flag like `--writes` was passed.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|a| a == flag)
    }

    /// The value of a binary-specific option like `--input`, if passed
    /// (last occurrence wins).
    pub fn value(&self, opt: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(o, _)| o == opt)
            .map(|(_, v)| v.as_str())
    }

    /// A worker pool sized by `--threads`.
    pub fn executor(&self) -> exec::Executor {
        exec::Executor::new(self.threads)
    }

    /// A manifest recorder for `figure`, writing into the `--manifest`
    /// directory on [`manifest::Recorder::finish`] (or nowhere without the
    /// flag). Recording headline values is always free.
    pub fn recorder(&self, figure: &str) -> manifest::Recorder {
        manifest::Recorder::new(
            figure,
            self.quick,
            self.seed,
            self.threads,
            self.manifest.as_deref(),
        )
    }

    /// Exports a traced sweep's merged span trees (distinct per-cell salts
    /// keep ids unique) next to the `--trace` file, as `<base>.spans.jsonl`
    /// and `<base>.chrome.json`; does nothing without `--trace`. Status
    /// goes to stderr so stdout stays byte-identical with an untraced run.
    ///
    /// # Panics
    ///
    /// Panics if either export file cannot be written.
    pub fn export_spans(&self, binary: &str, mut spans: Vec<Span>) {
        let Some(path) = self.trace.as_deref() else {
            return;
        };
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let base = path.strip_suffix(".jsonl").unwrap_or(path);
        let jsonl: String = spans.iter().map(|s| s.to_json() + "\n").collect();
        std::fs::write(format!("{base}.spans.jsonl"), jsonl).expect("span export writable");
        std::fs::write(format!("{base}.chrome.json"), span::chrome_trace(&spans))
            .expect("chrome export writable");
        eprintln!(
            "{binary}: {} spans -> {base}.spans.jsonl, {base}.chrome.json",
            spans.len()
        );
    }

    /// Builds the observability sinks requested by `--trace`/`--metrics`.
    /// With neither flag, the probe is inert and attaching it leaves
    /// configurations untouched.
    ///
    /// # Panics
    ///
    /// Panics if the `--trace` file cannot be created.
    pub fn probe(&self) -> Probe {
        let metrics = (self.metrics).then(|| Arc::new(Mutex::new(MetricsRegistry::new())));
        let mut sinks: Vec<SharedSink> = Vec::new();
        if let Some(path) = &self.trace {
            let sink = JsonlSink::create(path)
                .unwrap_or_else(|e| panic!("cannot create trace file `{path}`: {e}"));
            sinks.push(Arc::new(Mutex::new(sink)));
        }
        if let Some(reg) = &metrics {
            sinks.push(reg.clone() as SharedSink);
        }
        let tracer = match sinks.len() {
            0 => None,
            1 => Some(Tracer::new(sinks.pop().expect("one sink"))),
            _ => Some(Tracer::from_sink(Fanout::new(sinks))),
        };
        Probe {
            tracer,
            metrics,
            fault: self.fault,
        }
    }
}

/// The per-run observability harness behind `--trace` and `--metrics`:
/// holds the shared trace sink (JSONL file, metrics registry, or both) and
/// attaches it to drive configurations as they are built.
///
/// Figure binaries create one probe per run, [`Probe::attach`] it to every
/// [`DiskConfig`] they construct, and call [`Probe::finish`] before
/// exiting; the metrics table goes to **stderr** so a figure's stdout
/// stays byte-identical with the probe disabled.
pub struct Probe {
    tracer: Option<Tracer>,
    metrics: Option<Arc<Mutex<MetricsRegistry>>>,
    fault: Option<FaultConfig>,
}

impl Probe {
    /// An inert probe (no tracing, no metrics, no fault injection).
    pub fn disabled() -> Self {
        Probe {
            tracer: None,
            metrics: None,
            fault: None,
        }
    }

    /// Whether any sink is attached.
    pub fn enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Points `config` at the probe's sink (no-op for an inert probe), so
    /// every drive built from it — directly or deep inside a file-system
    /// layer — reports there. When the run asked for fault injection
    /// (`--faults`), the fault config is stamped on here too, so every
    /// drive the binary builds misbehaves identically.
    pub fn attach(&self, config: &mut DiskConfig) {
        if let Some(t) = &self.tracer {
            config.tracer = Some(t.clone());
        }
        if let Some(f) = self.fault {
            config.fault = f;
        }
    }

    /// [`Probe::attach`] as a by-value adapter, for builder-style call
    /// sites.
    pub fn wrap(&self, mut config: DiskConfig) -> DiskConfig {
        self.attach(&mut config);
        config
    }

    /// Flushes the trace file and, when `--metrics` was given, prints the
    /// per-phase latency table to stderr.
    pub fn finish(&self) {
        if let Some(t) = &self.tracer {
            t.flush();
        }
        if let Some(reg) = &self.metrics {
            eprint!("{}", reg.lock().expect("metrics registry").report());
        }
    }
}

fn parse_value<T: std::str::FromStr>(arg: Option<String>, flag: &str) -> Result<T, String> {
    let raw = arg.ok_or_else(|| format!("{flag} requires an integer"))?;
    raw.parse()
        .map_err(|_| format!("{flag} requires an integer, got `{raw}`"))
}

/// Default worker count: all available cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Prints a header in the common format.
pub fn header(title: &str) {
    println!("# {title}");
}

/// Formats a row of tab-separated columns without printing it.
pub fn row_string<I: IntoIterator<Item = String>>(cols: I) -> String {
    cols.into_iter().collect::<Vec<_>>().join("\t")
}

/// Prints a row of tab-separated columns.
pub fn row<I: IntoIterator<Item = String>>(cols: I) {
    println!("{}", row_string(cols));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> std::vec::IntoIter<String> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn parse_defaults() {
        let cli = Cli::parse_args(args(&[]), &[]).unwrap();
        assert!(!cli.quick);
        assert_eq!(cli.seed, 0x5eed);
        assert_eq!(cli.threads, default_threads());
        assert!(cli.flags.is_empty());
    }

    #[test]
    fn parse_common_and_known_flags() {
        let cli = Cli::parse_args(
            args(&["--quick", "--seed", "42", "--threads", "3", "--writes"]),
            &["--writes"],
        )
        .unwrap();
        assert!(cli.quick);
        assert_eq!(cli.seed, 42);
        assert_eq!(cli.threads, 3);
        assert!(cli.has("--writes"));
        assert!(!cli.has("--hard"));
    }

    #[test]
    fn malformed_seed_is_an_error_not_a_panic() {
        let err = Cli::parse_args(args(&["--seed", "banana"]), &[]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        let err = Cli::parse_args(args(&["--seed"]), &[]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = Cli::parse_args(args(&["--writes"]), &[]).unwrap_err();
        assert!(err.contains("--writes"), "{err}");
        let err = Cli::parse_args(args(&["--frobnicate"]), &["--writes"]).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
    }

    #[test]
    fn value_options_are_parsed_and_validated() {
        let cli = Cli::parse_args_values(
            args(&["--input", "traces/sample.trc", "--quick"]),
            &[],
            &["--input", "--count"],
        )
        .unwrap();
        assert_eq!(cli.value("--input"), Some("traces/sample.trc"));
        assert_eq!(cli.value("--count"), None);
        assert!(cli.quick);

        // A missing value is an error, not a silent swallow.
        let err = Cli::parse_args_values(args(&["--input"]), &[], &["--input"]).unwrap_err();
        assert!(err.contains("--input"), "{err}");
        // Unknown value options are still rejected.
        assert!(Cli::parse_args_values(args(&["--input", "x"]), &[], &[]).is_err());
        // Last occurrence wins.
        let cli =
            Cli::parse_args_values(args(&["--count", "5", "--count", "9"]), &[], &["--count"])
                .unwrap();
        assert_eq!(cli.value("--count"), Some("9"));
    }

    #[test]
    fn zero_threads_is_rejected() {
        assert!(Cli::parse_args(args(&["--threads", "0"]), &[]).is_err());
    }

    #[test]
    fn trace_and_metrics_default_to_one_thread() {
        let cli = Cli::parse_args(args(&["--metrics"]), &[]).unwrap();
        assert!(cli.metrics);
        assert_eq!(cli.threads, 1);
        let cli = Cli::parse_args(args(&["--trace", "/tmp/t.jsonl"]), &[]).unwrap();
        assert_eq!(cli.trace.as_deref(), Some("/tmp/t.jsonl"));
        assert_eq!(cli.threads, 1);
        assert!(Cli::parse_args(args(&["--trace"]), &[]).is_err());
    }

    #[test]
    fn explicit_parallel_threads_with_trace_or_metrics_is_an_error() {
        // Silently forcing one thread would make `--threads 8` a lie; the
        // combination is rejected with an actionable message instead.
        let err = Cli::parse_args(args(&["--threads", "8", "--metrics"]), &[]).unwrap_err();
        assert!(err.contains("--threads 1"), "{err}");
        let err =
            Cli::parse_args(args(&["--trace", "/tmp/t.jsonl", "--threads", "2"]), &[]).unwrap_err();
        assert!(err.contains("single-threaded"), "{err}");
        // An explicit `--threads 1` is consistent and accepted.
        let cli = Cli::parse_args(args(&["--threads", "1", "--metrics"]), &[]).unwrap();
        assert_eq!(cli.threads, 1);
    }

    #[test]
    fn manifest_flag_is_parsed() {
        let cli = Cli::parse_args(args(&["--manifest", "results/manifest"]), &[]).unwrap();
        assert_eq!(cli.manifest.as_deref(), Some("results/manifest"));
        assert!(Cli::parse_args(args(&["--manifest"]), &[]).is_err());
        // Manifests do not constrain the thread count.
        let cli = Cli::parse_args(args(&["--manifest", "m", "--threads", "4"]), &[]).unwrap();
        assert_eq!(cli.threads, 4);
    }

    #[test]
    fn fault_flags_parse_into_a_config() {
        let cli = Cli::parse_args(args(&[]), &[]).unwrap();
        assert!(cli.fault.is_none());

        let cli = Cli::parse_args(
            args(&[
                "--faults",
                "media=500,rot=gauss:0.05,nodiag",
                "--fault-seed",
                "99",
            ]),
            &[],
        )
        .unwrap();
        let f = cli.fault.expect("fault config parsed");
        assert_eq!(f.media_per_million, 500);
        assert_eq!(f.rot_jitter, sim_disk::fault::Jitter::Gaussian(0.05));
        assert!(f.diagnostics_unsupported);
        assert_eq!(f.seed, 99);

        // Flag order must not matter for the seed.
        let cli = Cli::parse_args(
            args(&["--fault-seed", "7", "--faults", "transient=100"]),
            &[],
        )
        .unwrap();
        assert_eq!(cli.fault.unwrap().seed, 7);
    }

    #[test]
    fn malformed_fault_flags_are_errors_not_panics() {
        let err = Cli::parse_args(args(&["--faults"]), &[]).unwrap_err();
        assert!(err.contains("--faults"), "{err}");
        let err = Cli::parse_args(args(&["--faults", "media=lots"]), &[]).unwrap_err();
        assert!(err.contains("per-million"), "{err}");
        let err = Cli::parse_args(args(&["--fault-seed", "3"]), &[]).unwrap_err();
        assert!(err.contains("--faults"), "{err}");
        let err =
            Cli::parse_args(args(&["--faults", "media=1", "--fault-seed", "x"]), &[]).unwrap_err();
        assert!(err.contains("--fault-seed"), "{err}");
    }

    #[test]
    fn probe_stamps_the_fault_config_on_attach() {
        let cli = Cli::parse_args(args(&["--faults", "media=250,nodiag"]), &[]).unwrap();
        let probe = cli.probe();
        let cfg = probe.wrap(sim_disk::models::small_test_disk());
        assert_eq!(cfg.fault.media_per_million, 250);
        assert!(cfg.fault.diagnostics_unsupported);
        // Without the flag, attach leaves the config's own faults alone.
        let cli = Cli::parse_args(args(&[]), &[]).unwrap();
        let mut cfg = sim_disk::models::small_test_disk();
        cfg.fault.transient_per_million = 42;
        let cfg = cli.probe().wrap(cfg);
        assert_eq!(cfg.fault.transient_per_million, 42);
    }

    #[test]
    fn disabled_probe_leaves_configs_untouched() {
        let probe = Probe::disabled();
        assert!(!probe.enabled());
        let cfg = probe.wrap(sim_disk::models::small_test_disk());
        assert!(cfg.tracer.is_none());
        probe.finish(); // must be a no-op, not a panic
    }

    #[test]
    fn metrics_probe_collects_from_attached_drives() {
        let cli = Cli::parse_args(args(&["--metrics"]), &[]).unwrap();
        let probe = cli.probe();
        assert!(probe.enabled());
        let cfg = probe.wrap(sim_disk::models::small_test_disk());
        let mut disk = sim_disk::Disk::new(cfg);
        let c = disk.service(
            sim_disk::disk::Request::read(0, 64),
            sim_disk::SimTime::ZERO,
        );
        let reg = probe.metrics.as_ref().unwrap().lock().unwrap();
        assert_eq!(reg.requests(), 1);
        let resp = reg.phase("response").unwrap();
        assert_eq!(resp.max_ns(), c.response_time().as_ns());
    }
}
