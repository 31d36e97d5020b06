//! Offline analyzer for `--trace` JSONL files: event census, per-phase
//! latency percentiles, a Figure-3/7-style mean breakdown of where the
//! response time went, and an accounting check that the per-phase sums
//! reproduce the host-observed response times.
//!
//! ```text
//! fig3 --quick --trace /tmp/fig3.jsonl
//! trace_report /tmp/fig3.jsonl
//! ```

use sim_disk::metrics::{MetricsRegistry, PHASES};
use sim_disk::trace::{peek_event_name, TraceEvent};
use std::collections::BTreeMap;
use std::io::BufRead;
use traxtent_bench::{Cli, Grammar};

/// The worst request rows printed by default; override with `--top <n>`.
const DEFAULT_TOP: usize = 5;

fn main() {
    let cli = Cli::from_env(&Grammar {
        usage: Some("<trace.jsonl> [--top <n>]"),
        flags: &[],
        values: &["--top"],
        positionals: 1,
    });
    let path = cli.positional(0);
    let top: usize = cli.number("--top").unwrap_or(DEFAULT_TOP);

    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("error: cannot open `{path}`: {e}");
        std::process::exit(1);
    });

    let mut census: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut registry = MetricsRegistry::new();
    let mut completes: Vec<TraceEvent> = Vec::new();
    let mut scsi: BTreeMap<String, u64> = BTreeMap::new();
    // A well-formed line whose event kind this build does not know (a
    // newer producer, or span records mixed into the stream) is counted
    // and skipped. Only a malformed line — the producing run interrupted
    // mid-write, leaving a truncated tail — stops the scan.
    let mut unknown: BTreeMap<String, u64> = BTreeMap::new();
    let mut truncated_at: Option<usize> = None;
    for (i, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = line.unwrap_or_else(|e| {
            eprintln!("error: read failure at line {}: {e}", i + 1);
            std::process::exit(1);
        });
        if line.trim().is_empty() {
            continue;
        }
        let event = match TraceEvent::parse_json(&line) {
            Ok(event) => event,
            Err(_) => match peek_event_name(&line) {
                Some(kind) => {
                    *unknown.entry(kind).or_insert(0) += 1;
                    continue;
                }
                None => {
                    truncated_at = Some(i + 1);
                    break;
                }
            },
        };
        *census.entry(event.name()).or_insert(0) += 1;
        match &event {
            TraceEvent::Complete { .. } => {
                registry.observe_complete(&event);
                completes.push(event);
            }
            TraceEvent::ScsiCommand { kind, .. } => {
                *scsi.entry(kind.clone()).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    if census.is_empty() && unknown.is_empty() {
        match truncated_at {
            Some(line_no) => {
                println!("trace `{path}` holds no usable events (truncated at line {line_no})")
            }
            None => println!("trace `{path}` is empty: nothing to report"),
        }
        return;
    }

    println!("# Trace report: {path}");
    if let Some(line_no) = truncated_at {
        let events: u64 = census.values().sum();
        println!(
            "note: trace truncated at line {line_no}; reporting the {events} events before it"
        );
    }
    println!("## Event census");
    for (name, count) in &census {
        println!("{name:<12} {count:>10}");
    }
    if !unknown.is_empty() {
        println!("## Unrecognized event kinds (skipped)");
        for (kind, count) in &unknown {
            println!("{kind:<12} {count:>10}");
        }
    }
    if completes.is_empty() && census.is_empty() {
        println!("no recognized events in trace");
        return;
    }
    if !scsi.is_empty() {
        println!("## SCSI diagnostic commands");
        for (kind, count) in &scsi {
            println!("{kind:<17} {count:>5}");
        }
    }

    if completes.is_empty() {
        println!("no completed requests in trace");
        return;
    }

    // Figure-3/7-style mean breakdown: where the average response went.
    let n = completes.len() as f64;
    let mut sums = [0u128; PHASES.len()];
    let mut worst_residual = 0u64;
    for c in &completes {
        for (k, phase) in PHASES.iter().enumerate() {
            sums[k] += u128::from(phase_ns(c, phase));
        }
        let accounted: u64 = PHASES[..PHASES.len() - 1]
            .iter()
            .map(|p| phase_ns(c, p))
            .sum();
        let response = phase_ns(c, "response");
        worst_residual = worst_residual.max(response.abs_diff(accounted));
    }
    let mean_ms = |k: usize| sums[k] as f64 / n / 1e6;
    let response_ms = mean_ms(PHASES.len() - 1);
    println!(
        "## Mean response-time breakdown ({} requests)",
        completes.len()
    );
    println!("{:<13} {:>9} {:>7}", "phase", "mean_ms", "share");
    for (k, phase) in PHASES.iter().enumerate().take(PHASES.len() - 1) {
        println!(
            "{:<13} {:>9.4} {:>6.1}%",
            phase,
            mean_ms(k),
            100.0 * mean_ms(k) / response_ms
        );
    }
    println!("{:<13} {:>9.4} {:>6.1}%", "response", response_ms, 100.0);
    println!(
        "phase sums reproduce response within {:.1} µs worst-case (rounding residual)",
        worst_residual as f64 / 1e3
    );

    // Percentile table — the same one `--metrics` prints at run time.
    print!("{}", registry.report());

    // The slowest requests, with their individual breakdowns.
    completes.sort_by_key(|c| std::cmp::Reverse(phase_ns(c, "response")));
    println!("## Slowest {} requests (ms)", top.min(completes.len()));
    println!(
        "{:<8} {:<5} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "req", "op", "response", "queue", "seek", "rot", "media", "bus"
    );
    for c in completes.iter().take(top) {
        if let TraceEvent::Complete {
            req,
            op,
            queue,
            seek,
            rot_latency,
            media,
            bus,
            response,
            ..
        } = c
        {
            println!(
                "{:<8} {:<5} {:>9.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
                req,
                format!("{op:?}").to_lowercase(),
                *response as f64 / 1e6,
                *queue as f64 / 1e6,
                *seek as f64 / 1e6,
                *rot_latency as f64 / 1e6,
                *media as f64 / 1e6,
                *bus as f64 / 1e6,
            );
        }
    }
}

/// One named phase of a [`TraceEvent::Complete`], in nanoseconds.
fn phase_ns(c: &TraceEvent, phase: &str) -> u64 {
    let TraceEvent::Complete {
        queue,
        overhead,
        seek,
        head_switch,
        rot_latency,
        media,
        bus,
        write_settle,
        response,
        ..
    } = c
    else {
        return 0;
    };
    match phase {
        "queue" => *queue,
        "overhead" => *overhead,
        "seek" => *seek,
        "head_switch" => *head_switch,
        "rot_latency" => *rot_latency,
        "media" => *media,
        "bus" => *bus,
        "write_settle" => *write_settle,
        "response" => *response,
        _ => 0,
    }
}
