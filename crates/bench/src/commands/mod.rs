//! The `bench` binary's subcommands: one row of [`COMMANDS`] each.

use crate::{die, usage_exit, Cli, Grammar, Run};
use sim_disk::disk::Disk;
use std::io::{BufRead, BufReader};
use workloads::microbench::{run_random_io, RandomIoResult, RandomIoSpec};
use Entry::{Figure, Tool};

mod ablation;
mod bench_diff;
mod crash_sweep;
mod extraction;
mod fault_sweep;
mod fig1;
mod fig10;
mod fig3;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod fleet_sweep;
mod replay;
mod server_sweep;
mod table1;
mod table2;
mod trace_report;
mod trace_timeline;

/// One subcommand of `bench`.
pub struct Command {
    /// The subcommand, e.g. `fig6_writes`. A figure's run, manifest,
    /// golden and `results/*.txt` capture carry this name.
    pub name: &'static str,
    /// What it reproduces or does, in one line.
    pub about: &'static str,
    /// What it accepts after its name; `usage: None` marks a figure.
    pub grammar: Grammar<'static>,
    entry: Entry,
}

/// What a row runs once its arguments parse.
enum Entry {
    /// Prints into the [`Run`] opened under the row's name, then the
    /// dispatcher finishes it.
    Figure(fn(&Run)),
    /// Reads its parsed [`Cli`] and exits as it sees fit.
    Tool(fn(&Cli)),
}

/// A figure's row: it takes the common flags and none of its own.
const fn figure(name: &'static str, about: &'static str, main: fn(&Run)) -> Command {
    Command {
        name,
        about,
        grammar: Grammar::figure(&[], &[]),
        entry: Figure(main),
    }
}

/// Every subcommand of `bench`, in listing order: the paper's tables and
/// figures, this repo's own experiments, then the tools that read their
/// output.
#[rustfmt::skip]
pub static COMMANDS: [Command; 21] = [
    figure("table1", "Table 1: representative disk characteristics", table1::main),
    figure("fig1", "Figure 1: disk efficiency vs I/O size, aligned vs unaligned", fig1::main),
    figure("fig3", "Figure 3: rotational latency vs request size", fig3::main),
    figure("fig6", "Figure 6: head time of onereq/tworeq reads", fig6::main),
    figure("fig6_writes", "§5.2: head time of onereq/tworeq writes", fig6::writes),
    figure("fig7", "Figure 7: response-time breakdown", fig7::main),
    figure("fig8", "Figure 8: response time ± σ, infinitely fast bus", fig8::main),
    figure("table2", "Table 2: FFS application benchmarks", table2::main),
    figure("fig9", "Figure 9: video-server startup latency", fig9::main),
    figure("fig9_hard", "§5.4.2: hard real-time streams per disk", fig9::hard_real_time),
    figure("fig10", "Figure 10: LFS overall write cost vs segment size", fig10::main),
    Command { name: "extraction", about: "§4.1: track-boundary extraction cost and accuracy",
        grammar: Grammar::figure(&["--full"], &[]), entry: Figure(extraction::main) },
    figure("ablation", "§5.2 ablations: zero-latency and queueing in isolation", ablation::main),
    figure("fault_sweep", "extraction robustness and the alignment win vs injected fault level",
        fault_sweep::main),
    Command { name: "replay", about: "trace replay through the batched service path",
        grammar: Grammar::figure(&[], &["--input", "--count", "--emit"]),
        entry: Figure(replay::main) },
    Command { name: "server_sweep",
        about: "open-loop server: response latency vs offered load per scheduler",
        grammar: Grammar::figure(&["--timeline"], &[]), entry: Figure(server_sweep::main) },
    Command { name: "fleet_sweep",
        about: "multi-disk volumes: aligned vs fixed stripe units, healthy vs degraded",
        grammar: Grammar::figure(&["--timeline"], &[]), entry: Figure(fleet_sweep::main) },
    figure("crash_sweep", "power-cut grid × {ffs fsck, lfs roll-forward, RAID-5 scrub repair}",
        crash_sweep::main),
    Command { name: "bench_diff", about: "compare two manifest directories, exit 1 on a regression",
        grammar: Grammar::tool(
            "<baseline_dir> <current_dir> [--tol <frac>] [--wall-tol <frac>] [--only <figure>]...",
            &["--tol", "--wall-tol", "--only"], 2),
        entry: Tool(bench_diff::main) },
    Command { name: "trace_report", about: "census and phase breakdown of a --trace JSONL file",
        grammar: Grammar::tool("<trace.jsonl> [--top <n>]", &["--top"], 1),
        entry: Tool(trace_report::main) },
    Command { name: "trace_timeline", about: "validate and summarise a sweep's span export",
        grammar: Grammar::tool("<spans.jsonl> [--top <n>] [--chrome <file>] [--manifest <file>]",
            &["--top", "--chrome", "--manifest"], 1),
        entry: Tool(trace_timeline::main) },
];

/// Runs the row `args` names with the arguments after it: a figure gets
/// the [`Run`] opened under its name and finished after it, a tool its
/// parsed [`Cli`]. A usage error exits 2 with the row's usage line; no
/// subcommand, or an unknown one, exits 2 with the table.
pub fn dispatch(mut args: impl Iterator<Item = String>) {
    let name = args.next();
    let Some(command) = COMMANDS.iter().find(|c| Some(c.name) == name.as_deref()) else {
        match name {
            Some(name) => eprintln!("error: unknown subcommand `{name}`"),
            None => eprintln!("error: no subcommand given"),
        }
        eprintln!("usage: bench <subcommand> [args], one of:");
        for c in &COMMANDS {
            eprintln!("  {:<15} {}", c.name, c.about);
        }
        std::process::exit(2);
    };
    let usage = format!("bench {} {}", command.name, command.grammar.usage());
    let mut cli =
        Cli::parse_args(args, &command.grammar).unwrap_or_else(|e| usage_exit(&e, &usage));
    cli.usage = usage;
    match &command.entry {
        Figure(main) => {
            let run = Run::new(command.name, cli).unwrap_or_else(|e| die(&e));
            main(&run);
            run.finish();
        }
        Tool(main) => main(&cli),
    }
}

/// The non-blank lines of the file at `path`, numbered from 1. A file
/// that cannot be opened or read exits 2 through [`die`], like every
/// input a subcommand cannot read.
fn input_lines(path: &str) -> impl Iterator<Item = (usize, String)> {
    let file =
        std::fs::File::open(path).unwrap_or_else(|e| die(&format!("cannot open `{path}`: {e}")));
    let lines = BufReader::new(file).lines().enumerate().map(|(i, line)| {
        let line = line.unwrap_or_else(|e| die(&format!("read failure at line {}: {e}", i + 1)));
        (i + 1, line)
    });
    lines.filter(|(_, line)| !line.trim().is_empty())
}

/// The text of the file at `path`; one that cannot be read exits 2
/// through [`die`].
fn read_input(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read `{path}`: {e}")))
}

/// Runs `count` requests of `spec` on `disk` at the run's seed, and
/// exports the result to the run's registry: the random-I/O cell of the
/// microbenchmark figures.
fn random_io(run: &Run, disk: &mut Disk, count: usize, spec: RandomIoSpec) -> RandomIoResult {
    let spec = RandomIoSpec {
        count,
        seed: run.seed,
        ..spec
    };
    let r = run_random_io(disk, &spec);
    r.export_metrics(&run.reg, spec.queue);
    r
}
