//! The repo benchmark. See `README.md` beside this package.
//!
//! ```text
//! benchmark run [--workload W] [--seed 42] [--reps 7] [--seconds S]
//!               [--trace 0|1] [--quick] [--out benchmark/out]
//! benchmark compare <a.json> <b.json>
//! benchmark describe                      # prints BENCHMARK.json
//! ```

mod calibrate;
mod capture;
mod compare;
mod json;
mod metrics;
mod report;
mod runner;
mod spans;
mod stats;
mod workload;

use runner::Plan;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Scale, WORKLOADS};

const USAGE: &str = "usage: benchmark run [--workload W] [--seed N] [--reps N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
       benchmark compare <a.json> <b.json>
       benchmark describe";

/// Counts are divided by this under `--quick`.
const QUICK_DIVISOR: usize = 50;

/// Flags after the subcommand: `--name value` pairs, bare switches, and
/// positional arguments.
struct Args {
    rest: Vec<String>,
}

impl Args {
    fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        match self.rest.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) if i + 1 < self.rest.len() => {
                self.rest.remove(i);
                Ok(Some(self.rest.remove(i)))
            }
            Some(_) => Err(format!("{flag} needs a value")),
        }
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot read `{v}`")),
        }
    }

    fn switch(&mut self, flag: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != flag);
        self.rest.len() != before
    }

    fn done(self) -> Result<Vec<String>, String> {
        match self.rest.iter().find(|a| a.starts_with("--")) {
            Some(flag) => Err(format!("unknown flag {flag}")),
            None => Ok(self.rest),
        }
    }
}

fn workload_named(name: &str) -> Result<&'static workload::Workload, String> {
    workload::find(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; one of {}", names.join(", "))
    })
}

fn run(mut args: Args) -> Result<ExitCode, String> {
    let workload = args.value("--workload")?;
    let seed = args.parsed("--seed")?.unwrap_or(42);
    let reps: Option<usize> = args.parsed("--reps")?;
    let seconds: Option<f64> = args.parsed("--seconds")?;
    let quick = args.switch("--quick");
    // The traced pass is on by default when every workload runs; the
    // acceptance driver, which names one workload, always says which.
    let trace = args
        .parsed::<u8>("--trace")?
        .map_or(workload.is_none(), |t| t != 0);
    let out = PathBuf::from(args.value("--out")?.unwrap_or("benchmark/out".into()));
    if !args.done()?.is_empty() {
        return Err("run takes no positional arguments".into());
    }
    let workloads = match &workload {
        Some(name) => vec![workload_named(name)?],
        None => WORKLOADS.iter().collect(),
    };
    // Seven reps unless told otherwise; a time budget alone means "as many
    // as fit"; `--quick` is one rep.
    let reps = match (reps, seconds) {
        (Some(r), _) => r.max(1),
        (None, _) if quick => 1,
        (None, Some(_)) => usize::MAX,
        (None, None) => 7,
    };
    let plan = Plan {
        workloads,
        seed,
        reps,
        seconds: seconds.unwrap_or(f64::INFINITY),
        trace,
        quick,
        out,
    };
    let measured = runner::run(&plan)?;
    report::print(&measured);

    std::fs::create_dir_all(&plan.out).map_err(|e| format!("{}: {e}", plan.out.display()))?;
    let path = plan.out.join("results.json");
    let results = report::results_json(&measured, seed, quick);
    std::fs::write(&path, results.render_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if workload.is_some() {
        println!("{}", report::driver_line(&measured[0]).render());
    }
    Ok(ExitCode::SUCCESS)
}

/// The child half of the run protocol: `one <workload> --seed N [--quick]
/// [--traced --out DIR]`. Prints its report as one JSON line.
fn one(mut args: Args, started: Instant) -> Result<ExitCode, String> {
    let seed = args.parsed("--seed")?.unwrap_or(42);
    let scale = Scale(if args.switch("--quick") {
        QUICK_DIVISOR
    } else {
        1
    });
    let traced = args.switch("--traced");
    let out = PathBuf::from(args.value("--out")?.unwrap_or("benchmark/out".into()));
    let positional = args.done()?;
    let [name] = positional.as_slice() else {
        return Err("one takes exactly one workload name".into());
    };
    let w = workload_named(name)?;
    let report = if traced {
        runner::traced(w, seed, scale, &out)?
    } else {
        runner::one(w, seed, scale, started)?
    };
    println!("{}", report.render());
    Ok(ExitCode::SUCCESS)
}

fn compare(args: Args) -> Result<ExitCode, String> {
    let paths = args.done()?;
    let [a, b] = paths.as_slice() else {
        return Err("compare takes two result files".into());
    };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let worse = compare::compare(&read(a)?, &read(b)?)?;
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let args = Args {
        rest: argv.collect(),
    };
    let result = match command.as_str() {
        "run" => run(args),
        "one" => one(args, started),
        "compare" => compare(args),
        "describe" => {
            print!("{}", metrics::describe().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}");
        ExitCode::from(2)
    })
}
