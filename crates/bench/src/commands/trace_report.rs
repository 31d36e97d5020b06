//! Offline analyzer for `--trace` JSONL files: event census, one per-phase
//! table folded over the requests' closing `complete` events (a
//! Figure-3/7-style mean breakdown of where the response time went, with
//! exact percentiles), an accounting check that the per-phase sums
//! reproduce the host-observed response times, and the track crossings
//! the drives saw, by request kind and by drive ([`Crossings`]).
//!
//! ```text
//! bench fig3 --quick --trace /tmp/fig3.jsonl
//! bench trace_report /tmp/fig3.jsonl
//! ```

use super::input_lines;
use crate::crossings::Crossings;
use crate::Cli;
use sim_disk::disk::Op;
use sim_disk::trace::{peek_event_name, TraceEvent};
use std::collections::BTreeMap;
use traxtent::stats::percentiles;

/// The phases of a [`TraceEvent::Complete`], in report order: eight
/// additive components, then the host-observed `response` they sum to.
const PHASES: [&str; 9] = [
    "queue",
    "overhead",
    "seek",
    "head_switch",
    "rot_latency",
    "media",
    "bus",
    "write_settle",
    "response",
];

/// The index of `response` in [`PHASES`].
const RESPONSE: usize = PHASES.len() - 1;

/// What the report reads of a request's closing `complete` event.
struct Done {
    req: u64,
    op: Op,
    cache_hit: bool,
    /// The [`PHASES`], in nanoseconds.
    ns: [u64; PHASES.len()],
}

/// The worst request rows printed by default; override with `--top <n>`.
const DEFAULT_TOP: usize = 5;

pub(crate) fn main(cli: &Cli) {
    let path = cli.positional(0);
    let top: usize = cli.number("--top").unwrap_or(DEFAULT_TOP);

    let mut census: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut completes: Vec<Done> = Vec::new();
    let mut scsi: BTreeMap<String, u64> = BTreeMap::new();
    // A well-formed line whose event kind this build does not know (a
    // newer producer, or span records mixed into the stream) is counted
    // and skipped. Only a malformed line — the producing run interrupted
    // mid-write, leaving a truncated tail — stops the scan.
    let mut unknown: BTreeMap<String, u64> = BTreeMap::new();
    let mut truncated_at: Option<usize> = None;
    let mut crossings = Crossings::default();
    for (line_no, line) in input_lines(path) {
        let event = match TraceEvent::parse_json(&line) {
            Ok(event) => event,
            Err(_) => match peek_event_name(&line) {
                Some(kind) => {
                    *unknown.entry(kind).or_insert(0) += 1;
                    continue;
                }
                None => {
                    truncated_at = Some(line_no);
                    break;
                }
            },
        };
        *census.entry(event.name()).or_insert(0) += 1;
        crossings.read(&event);
        match event {
            TraceEvent::Complete {
                req,
                op,
                cache_hit,
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
            } => completes.push(Done {
                req,
                op,
                cache_hit,
                ns: [
                    queue,
                    overhead,
                    seek,
                    head_switch,
                    rot_latency,
                    media,
                    bus,
                    write_settle,
                    response,
                ],
            }),
            TraceEvent::ScsiCommand { kind, .. } => *scsi.entry(kind).or_insert(0) += 1,
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

    print_crossings(&crossings);
    if completes.is_empty() {
        println!("no completed requests in trace");
        return;
    }

    // Figure-3/7-style breakdown: where the response time went, per phase.
    let by_phase: Vec<[u64; PHASES.len()]> = completes.iter().map(|d| d.ns).collect();
    let ms = |ns: f64| ns / 1e6;
    let mean_ms: Vec<f64> = (0..PHASES.len())
        .map(|k| {
            let sum: u128 = by_phase.iter().map(|p| u128::from(p[k])).sum();
            ms(sum as f64 / by_phase.len() as f64)
        })
        .collect();
    println!("## Response-time breakdown by phase");
    println!(
        "{:<13} {:>9} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "phase", "mean_ms", "share", "p50_ms", "p95_ms", "p99_ms", "max_ms"
    );
    for (k, phase) in PHASES.iter().enumerate() {
        let samples: Vec<f64> = by_phase.iter().map(|p| p[k] as f64).collect();
        let [p50, p95, p99, max] = percentiles(&samples, [0.50, 0.95, 0.99, 1.0]).map(ms);
        let share = 100.0 * mean_ms[k] / mean_ms[RESPONSE];
        println!(
            "{phase:<13} {:>9.4} {share:>6.1}% {p50:>9.4} {p95:>9.4} {p99:>9.4} {max:>9.4}",
            mean_ms[k]
        );
    }
    let reads = completes.iter().filter(|d| d.op == Op::Read).count();
    let hits = completes.iter().filter(|d| d.cache_hit).count();
    let n = completes.len();
    println!(
        "requests {n} (reads {reads}, writes {}, cache hits {hits})",
        n - reads
    );
    let worst_residual = by_phase
        .iter()
        .map(|p| p[RESPONSE].abs_diff(p[..RESPONSE].iter().sum()))
        .max()
        .unwrap_or(0);
    println!(
        "phase sums reproduce response within {:.1} µs worst-case (rounding residual)",
        worst_residual as f64 / 1e3
    );

    // The slowest requests, with their individual breakdowns.
    completes.sort_by_key(|d| std::cmp::Reverse(d.ns[RESPONSE]));
    println!("## Slowest {} requests (ms)", top.min(completes.len()));
    println!(
        "{:<8} {:<5} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "req", "op", "response", "queue", "seek", "rot", "media", "bus"
    );
    for d in completes.iter().take(top) {
        let [queue, _, seek, _, rot, media, bus, _, response] = d.ns.map(|ns| ns as f64 / 1e6);
        let op = format!("{:?}", d.op).to_lowercase();
        println!(
            "{:<8} {:<5} {:>9.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
            d.req, op, response, queue, seek, rot, media, bus
        );
    }
}

/// The track crossings table: by request kind, then by drive.
fn print_crossings(crossings: &Crossings) {
    let Some(longest) = crossings.longest() else {
        return;
    };
    // (requests, crossing) by kind and by drive.
    let mut kinds: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut drives = vec![(0u64, 0u64); crossings.drives()];
    for r in crossings.requests().iter().filter(|r| r.tracks > 0) {
        let kind = if r.op == Op::Read { "read" } else { "write" };
        let crosses = u64::from(crossings.crosses(r));
        for tally in [kinds.entry(kind).or_default(), &mut drives[r.drive]] {
            *tally = (tally.0 + 1, tally.1 + crosses);
        }
    }
    println!("## Track crossings");
    println!(
        "a request crosses when its media phases touch more than ⌈len / {longest}⌉ tracks \
         ({longest} sectors: the longest visit in the trace)"
    );
    let row = |name: String, (n, crossing): (u64, u64)| {
        let share = 100.0 * crossing as f64 / n.max(1) as f64;
        println!("{name:<8} {n:>9} {crossing:>9} {share:>7.2}%");
    };
    println!(
        "{:<8} {:>9} {:>9} {:>8}",
        "kind", "requests", "crossing", "share"
    );
    kinds.into_iter().for_each(|(k, t)| row(k.to_string(), t));
    println!(
        "{:<8} {:>9} {:>9} {:>8}",
        "drive", "requests", "crossing", "share"
    );
    (drives.into_iter().enumerate()).for_each(|(d, t)| row(d.to_string(), t));
}
