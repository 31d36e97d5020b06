//! The figure runner and its binary.
//!
//! `bench <subcommand> [args]` runs one row of [`COMMANDS`]: a figure
//! regenerates one table or figure of the paper (or one experiment of this
//! repo's own) and prints the same rows/series the paper reports; a tool
//! reads what the figures wrote. `bench` alone lists the rows.
//!
//! # The runner
//!
//! A figure is its cell function, its column list and its closing prose;
//! everything else is [`Run`], which the dispatcher opens under the row's
//! name and finishes after it:
//!
//! ```text
//! pub(crate) fn main(run: &Run) {   // flags, sinks, output paths, registry, clock
//!     let cfg = run.drive(models::quantum_atlas_10k_ii());  // every DiskConfig passes through here
//!     run.header("Figure 3: …", &["pct_of_track", "zero_latency_sim_ms"]);
//!     run.sweep(vec![5u32, 100], |_, pct| {  // worker pool, merged in submission order
//!         let ms = simulate(&cfg, pct, run.seed, &run.reg);
//!         Row::new().col(pct).num(ms, 2).key_if(pct == 100, "zero_latency_ms_at_track")
//!     });
//! }                                 // then run.finish(): span export, trace flush, manifest
//! ```
//!
//! * **Flags.** [`dispatch`] parses the common flags — `--quick`,
//!   `--seed <n>`, `--threads <n>`, `--trace <path>`, `--manifest <dir>`,
//!   `--faults <spec>`, `--fault-seed <n>` — plus the figure's own,
//!   through the one pure parser [`Cli::parse_args`] (the tools use the
//!   same parser with a [`Grammar`] of their own).
//!   A usage error, an uncreatable `--trace` file or an uncreatable
//!   `--manifest` directory exits 2 with a one-line message before any
//!   cell runs.
//! * **Attachment.** [`Run::drive`] points a
//!   [`DiskConfig`](sim_disk::disk::DiskConfig) at the `--trace` sink
//!   and stamps the `--faults` config on it (see
//!   [`sim_disk::fault::FaultConfig::parse_spec`] for the grammar), so
//!   every drive built from it — directly or deep inside a file-system
//!   layer — reports there and misbehaves identically. Fault decisions are
//!   a pure function of the fault seed and request identity, so faulty
//!   runs stay bit-reproducible at any `--threads`.
//! * **Cells and rows.** [`Run::sweep`] and [`Run::grid`] fan independent
//!   cells across `--threads` workers ([`traxtent::par::map`]) and merge
//!   the [`Row`]s back in submission order, so stdout is byte-identical
//!   at any thread count (`--trace` forces one thread so the event stream
//!   is deterministic too). A row states each number once: [`Row::num`] is
//!   the formatted column, and [`Row::key`]/[`Row::sum`] make the same
//!   number a manifest headline, which closing prose reads back with
//!   [`Run::get`].
//! * **Telemetry.** The two sweeps ask [`Run::observe`] for a per-cell
//!   [`CellObs`]: a salted span recorder woven into the drive's tracer
//!   under `--trace`, the windowed sampler under `--timeline`. The rows
//!   carry the results back; [`Run::print_timelines`] prints the
//!   `## timeline` sections and [`Run::finish`] exports the merged span
//!   trees next to the trace file.
//! * **Epilogue.** [`Run::finish`] flushes the trace and writes
//!   `<dir>/<figure>.json` (see [`manifest`]) when `--manifest` was given.
//!   Where a request's time went is read back from the trace file:
//!   `bench trace_report <trace.jsonl>` prints the per-phase table with
//!   exact percentiles.

#![warn(missing_docs)]

mod commands;
pub mod crossings;
pub mod diff;
pub mod manifest;
mod run;

pub use commands::{dispatch, Command, COMMANDS};
pub use run::{die, CellObs, Row, Run, Telemetry};

use sim_disk::fault::FaultConfig;

/// What one subcommand accepts on its command line.
#[derive(Debug, Clone, Copy)]
pub struct Grammar<'a> {
    /// A tool's usage line after its name, e.g. `<trace.jsonl> [--top <n>]`.
    /// `None` marks a figure: it also accepts the common flags, and its
    /// usage line is generated.
    pub usage: Option<&'a str>,
    /// Boolean flags, e.g. `--full`.
    pub flags: &'a [&'a str],
    /// Options that take a value, e.g. `--input`; repeatable.
    pub values: &'a [&'a str],
    /// Exactly how many positional arguments are required.
    pub positionals: usize,
}

/// The common boolean flags of the figures.
const COMMON_FLAGS: [&str; 1] = ["--quick"];

/// The common value options of the figures, and what each requires.
const COMMON_VALUES: [(&str, &str); 6] = [
    ("--seed", "an integer"),
    ("--threads", "an integer"),
    ("--trace", "a path"),
    ("--manifest", "a directory"),
    ("--faults", "a spec, e.g. `media=500,rot=gauss:0.05`"),
    ("--fault-seed", "an integer"),
];

impl Grammar<'_> {
    /// A figure's grammar: the common flags plus its own.
    pub const fn figure<'a>(flags: &'a [&'a str], values: &'a [&'a str]) -> Grammar<'a> {
        Grammar {
            usage: None,
            flags,
            values,
            positionals: 0,
        }
    }

    /// A tool's grammar: exactly `positionals` positional arguments and its
    /// own `values` options, with `usage` as its usage line.
    pub(crate) const fn tool<'a>(
        usage: &'a str,
        values: &'a [&'a str],
        positionals: usize,
    ) -> Grammar<'a> {
        Grammar {
            usage: Some(usage),
            flags: &[],
            values,
            positionals,
        }
    }

    /// The usage line after the subcommand's name.
    fn usage(&self) -> String {
        match self.usage {
            Some(fixed) => fixed.to_string(),
            None => {
                let own = self.flags.iter().map(|f| format!(" [{f}]"));
                let own = own.chain(self.values.iter().map(|v| format!(" [{v} <value>]")));
                "[--quick] [--seed <n>] [--threads <n>] [--trace <path>] \
                 [--manifest <dir>] [--faults <spec>] [--fault-seed <n>]"
                    .to_string()
                    + &own.collect::<String>()
            }
        }
    }
}

/// Prints the error and the usage line, then exits 2.
fn usage_exit(msg: &str, usage: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: {usage}");
    std::process::exit(2);
}

/// A parsed command line: the common flags of the figures (defaults for a
/// tool, whose grammar does not admit them) plus whatever the subcommand's
/// own [`Grammar`] accepted.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Reduced sample counts for fast smoke runs.
    pub quick: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for independent simulation cells (1 = sequential).
    /// Defaults to 1 when `--trace` is given, so the event stream is
    /// deterministic; combining it with an explicit `--threads N > 1` is a
    /// usage error.
    pub threads: usize,
    /// JSONL trace output path (`--trace <path>`), if requested.
    pub trace: Option<String>,
    /// Directory for the run manifest (`--manifest <dir>`), if requested.
    pub manifest: Option<String>,
    /// Fault injection requested via `--faults <spec>` (see
    /// [`FaultConfig::parse_spec`] for the grammar), with the seed from
    /// `--fault-seed <n>`. `None` when the flag was absent: drives keep
    /// their configs' own (default, fault-free) settings.
    pub fault: Option<FaultConfig>,
    flags: Vec<String>,
    values: Vec<(String, String)>,
    positionals: Vec<String>,
    /// The usage line a malformed [`Cli::number`] prints: `bench <name> …`
    /// once [`dispatch`] has parsed it.
    usage: String,
}

impl Cli {
    /// Parses `args`, the words after the subcommand, against `grammar`;
    /// a malformed or unknown argument is an error naming it.
    pub fn parse_args<I>(args: I, grammar: &Grammar) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let common = grammar.usage.is_none();
        let mut cli = Cli {
            quick: false,
            seed: 0x5eed,
            threads: traxtent::par::cores(),
            trace: None,
            manifest: None,
            fault: None,
            flags: Vec::new(),
            values: Vec::new(),
            positionals: Vec::new(),
            usage: grammar.usage(),
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let requires = COMMON_VALUES
                .iter()
                .find(|(opt, _)| common && *opt == a)
                .map(|(_, what)| *what)
                .or_else(|| grammar.values.contains(&a.as_str()).then_some("a value"));
            if let Some(what) = requires {
                let value = args.next().ok_or(format!("{a} requires {what}"))?;
                cli.values.push((a, value));
            } else if grammar.flags.contains(&a.as_str())
                || (common && COMMON_FLAGS.contains(&a.as_str()))
            {
                cli.flags.push(a);
            } else if !a.starts_with('-') && cli.positionals.len() < grammar.positionals {
                cli.positionals.push(a);
            } else {
                return Err(format!("unrecognized argument `{a}`"));
            }
        }
        if cli.positionals.len() < grammar.positionals {
            return Err(format!(
                "expected {} positional argument(s), got {}",
                grammar.positionals,
                cli.positionals.len()
            ));
        }
        if !common {
            return Ok(cli);
        }

        cli.quick = cli.has("--quick");
        cli.seed = cli.parsed("--seed")?.unwrap_or(cli.seed);
        cli.trace = cli.value("--trace").map(str::to_string);
        cli.manifest = cli.value("--manifest").map(str::to_string);
        let threads: Option<usize> = cli.parsed("--threads")?;
        if threads == Some(0) {
            return Err("--threads must be at least 1".into());
        }
        if cli.trace.is_some() {
            // One worker: requests then hit the shared sink in a stable
            // order, and the hot path never contends on the sink lock.
            if threads.is_some_and(|t| t > 1) {
                return Err("--trace needs a deterministic event stream and runs \
                     single-threaded; drop --threads or pass --threads 1"
                    .into());
            }
            cli.threads = 1;
        } else if let Some(t) = threads {
            cli.threads = t;
        }
        if let Some(spec) = cli.value("--faults") {
            cli.fault = Some(FaultConfig::parse_spec(spec).map_err(|e| format!("--faults: {e}"))?);
        }
        let fault_seed: Option<u64> = cli.parsed("--fault-seed")?;
        match (&mut cli.fault, fault_seed) {
            (Some(f), Some(seed)) => f.seed = seed,
            (None, Some(_)) => {
                return Err("--fault-seed only makes sense with --faults <spec>".into());
            }
            _ => {}
        }
        Ok(cli)
    }

    /// Whether a flag like `--full` was passed.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|a| a == flag)
    }

    /// Every value passed for an option like `--only`, in order.
    pub fn values(&self, opt: &str) -> Vec<&str> {
        let of_opt = self.values.iter().filter(|(o, _)| o == opt);
        of_opt.map(|(_, v)| v.as_str()).collect()
    }

    /// The value of an option like `--input`, if passed (last occurrence
    /// wins).
    pub fn value(&self, opt: &str) -> Option<&str> {
        self.values(opt).pop()
    }

    /// The `index`-th positional argument; the parser has checked that the
    /// grammar's count of them is present.
    pub fn positional(&self, index: usize) -> &str {
        &self.positionals[index]
    }

    /// [`Cli::value`] parsed as a number; a malformed value is an error.
    pub fn parsed<T: std::str::FromStr>(&self, opt: &str) -> Result<Option<T>, String> {
        self.value(opt)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("{opt} requires a number, got `{raw}`"))
            })
            .transpose()
    }

    /// [`Cli::parsed`] for a subcommand's own options: a malformed value
    /// prints the error and the usage line, and exits 2.
    pub fn number<T: std::str::FromStr>(&self, opt: &str) -> Option<T> {
        self.parsed(opt)
            .unwrap_or_else(|e| usage_exit(&e, &self.usage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str], flags: &[&str], values: &[&str]) -> Result<Cli, String> {
        Cli::parse_args(
            list.iter().map(|s| s.to_string()),
            &Grammar::figure(flags, values),
        )
    }

    #[test]
    fn parse_defaults() {
        let cli = parse(&[], &[], &[]).unwrap();
        assert!(!cli.quick);
        assert_eq!(cli.seed, 0x5eed);
        assert_eq!(cli.threads, traxtent::par::cores());
        assert!(cli.flags.is_empty());
    }

    #[test]
    fn parse_common_and_known_flags() {
        let cli = parse(
            &["--quick", "--seed", "42", "--threads", "3", "--full"],
            &["--full"],
            &[],
        )
        .unwrap();
        assert!(cli.quick);
        assert_eq!(cli.seed, 42);
        assert_eq!(cli.threads, 3);
        assert!(cli.has("--full"));
        assert!(!cli.has("--timeline"));
    }

    #[test]
    fn malformed_seed_is_an_error_not_a_panic() {
        let err = parse(&["--seed", "banana"], &[], &[]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        let err = parse(&["--seed"], &[], &[]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = parse(&["--full"], &[], &[]).unwrap_err();
        assert!(err.contains("--full"), "{err}");
        let err = parse(&["--frobnicate"], &["--full"], &[]).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
        // A figure takes no positional arguments.
        assert!(parse(&["stray"], &[], &[]).is_err());
    }

    #[test]
    fn value_options_are_parsed_and_validated() {
        let own = ["--input", "--count"];
        let cli = parse(&["--input", "traces/sample.trc", "--quick"], &[], &own).unwrap();
        assert_eq!(cli.value("--input"), Some("traces/sample.trc"));
        assert_eq!(cli.value("--count"), None);
        assert!(cli.quick);

        // A missing value is an error, not a silent swallow.
        let err = parse(&["--input"], &[], &own).unwrap_err();
        assert!(err.contains("--input"), "{err}");
        // Unknown value options are still rejected.
        assert!(parse(&["--input", "x"], &[], &[]).is_err());
        // Last occurrence wins.
        let cli = parse(&["--count", "5", "--count", "9"], &[], &own).unwrap();
        assert_eq!(cli.value("--count"), Some("9"));
        assert_eq!(cli.parsed::<usize>("--count"), Ok(Some(9)));
        assert!(parse(&["--count", "x"], &[], &own)
            .unwrap()
            .parsed::<usize>("--count")
            .is_err());
    }

    #[test]
    fn tool_grammars_take_positionals_and_not_the_common_flags() {
        let tool = Grammar::tool(
            "<a> <b> [--tol <frac>] [--only <figure>]...",
            &["--tol", "--only", "--manifest"],
            2,
        );
        let parse = |list: &[&str]| Cli::parse_args(list.iter().map(|s| s.to_string()), &tool);
        let cli = parse(&["base", "--only", "x", "cur", "--only", "y", "--tol", "0.5"]).unwrap();
        assert_eq!((cli.positional(0), cli.positional(1)), ("base", "cur"));
        assert_eq!(cli.values("--only"), ["x", "y"]);
        assert_eq!(cli.parsed::<f64>("--tol"), Ok(Some(0.5)));
        // A tool's own `--manifest` is its own business, not the run's.
        assert_eq!(
            parse(&["a", "b", "--manifest", "m.json"]).unwrap().manifest,
            None
        );
        for bad in [
            &["base"][..],
            &["a", "b", "c"],
            &["a", "b", "--quick"],
            &["a", "b", "--seed", "1"],
            &["a", "b", "--tol"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn zero_threads_is_rejected() {
        assert!(parse(&["--threads", "0"], &[], &[]).is_err());
    }

    #[test]
    fn trace_defaults_to_one_thread() {
        let cli = parse(&["--trace", "/tmp/t.jsonl"], &[], &[]).unwrap();
        assert_eq!(cli.trace.as_deref(), Some("/tmp/t.jsonl"));
        assert_eq!(cli.threads, 1);
        assert!(parse(&["--trace"], &[], &[]).is_err());
    }

    #[test]
    fn explicit_parallel_threads_with_trace_is_an_error() {
        // Silently forcing one thread would make `--threads 8` a lie; the
        // combination is rejected with an actionable message instead.
        let err = parse(&["--trace", "/tmp/t.jsonl", "--threads", "2"], &[], &[]).unwrap_err();
        assert!(err.contains("single-threaded"), "{err}");
        assert!(err.contains("--threads 1"), "{err}");
        // An explicit `--threads 1` is consistent and accepted.
        let cli = parse(&["--threads", "1", "--trace", "/tmp/t.jsonl"], &[], &[]).unwrap();
        assert_eq!(cli.threads, 1);
    }

    #[test]
    fn manifest_flag_is_parsed() {
        let cli = parse(&["--manifest", "results/manifest"], &[], &[]).unwrap();
        assert_eq!(cli.manifest.as_deref(), Some("results/manifest"));
        assert!(parse(&["--manifest"], &[], &[]).is_err());
        // Manifests do not constrain the thread count.
        let cli = parse(&["--manifest", "m", "--threads", "4"], &[], &[]).unwrap();
        assert_eq!(cli.threads, 4);
    }

    #[test]
    fn fault_flags_parse_into_a_config() {
        assert!(parse(&[], &[], &[]).unwrap().fault.is_none());

        let spec = "media=500,rot=gauss:0.05,nodiag";
        let cli = parse(&["--faults", spec, "--fault-seed", "99"], &[], &[]).unwrap();
        let f = cli.fault.expect("fault config parsed");
        assert_eq!(f.media_per_million, 500);
        assert_eq!(f.rot_jitter, sim_disk::fault::Jitter::Gaussian(0.05));
        assert!(f.diagnostics_unsupported);
        assert_eq!(f.seed, 99);

        // Flag order must not matter for the seed.
        let cli = parse(
            &["--fault-seed", "7", "--faults", "transient=100"],
            &[],
            &[],
        )
        .unwrap();
        assert_eq!(cli.fault.unwrap().seed, 7);
    }

    #[test]
    fn malformed_fault_flags_are_errors_not_panics() {
        let err = parse(&["--faults"], &[], &[]).unwrap_err();
        assert!(err.contains("--faults"), "{err}");
        let err = parse(&["--faults", "media=lots"], &[], &[]).unwrap_err();
        assert!(err.contains("per-million"), "{err}");
        let err = parse(&["--fault-seed", "3"], &[], &[]).unwrap_err();
        assert!(err.contains("--faults"), "{err}");
        let err = parse(&["--faults", "media=1", "--fault-seed", "x"], &[], &[]).unwrap_err();
        assert!(err.contains("--fault-seed"), "{err}");
    }
}
