//! Compares two manifest directories and fails on regressions.
//!
//! ```text
//! bench bench_diff results/baseline results/manifest
//! bench bench_diff results/baseline results/manifest --tol 0.05 --wall-tol 2.0
//! bench bench_diff results/baseline results/manifest --only replay_synthetic --wall-tol 3.0
//! ```
//!
//! Every figure present in the baseline must appear in the current run with
//! each headline value within `--tol` (relative). Wall time is reported but
//! only judged when `--wall-tol` is given (relative increase). `--only`
//! (repeatable) restricts the comparison to the named figures, so a gate
//! with a different tolerance — e.g. the engine-throughput smoke — can run
//! beside the strict full-set diff. Exits 0 when everything is within
//! tolerance, 1 on any regression, 2 on usage errors.

use crate::diff::{diff_dirs_only, Tolerances};
use crate::{die, Cli};

pub(crate) fn main(cli: &Cli) {
    let tol = Tolerances {
        headline_rel: cli
            .number("--tol")
            .unwrap_or(Tolerances::default().headline_rel),
        wall_rel: cli.number("--wall-tol"),
    };
    let only: Vec<String> = cli.values("--only").into_iter().map(String::from).collect();

    let (baseline, current) = (cli.positional(0), cli.positional(1));
    match diff_dirs_only(baseline.as_ref(), current.as_ref(), &tol, &only) {
        Ok(report) => {
            print!("{}", report.render());
            std::process::exit(if report.passed() { 0 } else { 1 });
        }
        Err(e) => die(&e),
    }
}
