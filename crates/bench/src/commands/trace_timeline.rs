//! Offline analyzer for causal span exports (`--trace` on the sweeps):
//! validates the span trees, prints a per-layer breakdown of
//! where request time went — the Figure-3 view rebuilt from spans rather
//! than from drive phase events — and renders the slowest request trees.
//! Optionally cross-checks the sibling Chrome export and prints the
//! time-series tables from a `--timeline` manifest.
//!
//! ```text
//! bench server_sweep --quick --trace /tmp/sweep.jsonl --timeline --manifest /tmp/m
//! bench trace_timeline /tmp/sweep.spans.jsonl --chrome /tmp/sweep.chrome.json \
//!     --manifest /tmp/m/server_timeline.json
//! ```

use super::{input_lines, read_input};
use crate::manifest::Manifest;
use crate::Cli;
use std::collections::BTreeMap;
use traxtent::obs::json;
use traxtent::obs::span::{self, Span};

/// The worst request trees printed by default; override with `--top <n>`.
const DEFAULT_TOP: usize = 3;

/// Prints a one-line verdict against the input and exits 1; an input that
/// cannot be read at all exits 2 (see [`input_lines`]).
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

pub(crate) fn main(cli: &Cli) {
    let path = cli.positional(0);
    let top: usize = cli.number("--top").unwrap_or(DEFAULT_TOP);

    let spans: Vec<Span> = input_lines(path)
        .map(|(line_no, line)| {
            Span::parse_json(&line)
                .unwrap_or_else(|e| fail(&format!("malformed span at line {line_no}: {e}")))
        })
        .collect();
    if spans.is_empty() {
        println!("span export `{path}` is empty: nothing to report");
        return;
    }
    let stats =
        span::validate(&spans).unwrap_or_else(|e| fail(&format!("invalid span trees: {e}")));

    println!("# Span report: {path}");
    println!(
        "{} spans in {} trees, max depth {}",
        stats.spans, stats.roots, stats.max_depth
    );

    // Census: count and total simulated time per span kind.
    let mut census: BTreeMap<&str, (u64, u128)> = BTreeMap::new();
    for s in &spans {
        let e = census.entry(s.name.as_str()).or_insert((0, 0));
        e.0 += 1;
        e.1 += u128::from(s.duration_ns());
    }
    println!("## Span census");
    println!("{:<12} {:>8} {:>12}", "span", "count", "total_ms");
    for (name, (count, total)) in &census {
        println!("{name:<12} {count:>8} {:>12.3}", *total as f64 / 1e6);
    }

    // Figure-3-style layer breakdown: mean time per *request* spent in
    // each span kind, as a share of the mean request response. Fan-out
    // layers (member commands running in parallel) can exceed 100% — the
    // share is of wall time, summed across members.
    let requests: Vec<&Span> = spans.iter().filter(|s| s.name == "request").collect();
    if !requests.is_empty() {
        let n = requests.len() as f64;
        let mean_ms = |name: &str| {
            census
                .get(name)
                .map_or(0.0, |(_, total)| *total as f64 / n / 1e6)
        };
        let response_ms = mean_ms("request");
        println!(
            "## Mean per-request layer breakdown ({} requests)",
            requests.len()
        );
        println!("{:<12} {:>9} {:>7}", "layer", "mean_ms", "share");
        for layer in [
            "queue_wait",
            "dispatch",
            "vol_cmd",
            "reconstruct",
            "member_cmd",
            "disk_cmd",
            "seek",
            "rot_wait",
            "media",
            "bus",
        ] {
            if census.contains_key(layer) {
                println!(
                    "{layer:<12} {:>9.4} {:>6.1}%",
                    mean_ms(layer),
                    100.0 * mean_ms(layer) / response_ms.max(1e-12)
                );
            }
        }
        println!("{:<12} {response_ms:>9.4} {:>6.1}%", "request", 100.0);

        // The slowest request trees, rendered as indented outlines.
        let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in &spans {
            children.entry(s.parent).or_default().push(s);
        }
        let mut worst = requests.clone();
        worst.sort_by_key(|s| std::cmp::Reverse(s.duration_ns()));
        println!("## Slowest {} request trees", top.min(worst.len()));
        for root in worst.iter().take(top) {
            render(root, &children, 0);
        }
    }

    if let Some(chrome_path) = cli.value("--chrome") {
        check_chrome(chrome_path, stats.spans);
    }
    if let Some(manifest_path) = cli.value("--manifest") {
        print_manifest_timelines(manifest_path);
    }
}

/// Prints one span subtree as an indented outline.
fn render(s: &Span, children: &BTreeMap<u64, Vec<&Span>>, depth: usize) {
    println!(
        "{:indent$}{} {:.3} ms @ {:.3} ms{}{}",
        "",
        s.name,
        s.duration_ns() as f64 / 1e6,
        s.start_ns as f64 / 1e6,
        if s.track > 0 {
            format!(" [m{}]", s.track - 1)
        } else {
            String::new()
        },
        if s.attrs.is_empty() {
            String::new()
        } else {
            format!(" ({})", s.attrs)
        },
        indent = depth * 2
    );
    for c in children.get(&s.id).into_iter().flatten() {
        render(c, children, depth + 1);
    }
}

/// Validates the sibling Chrome `trace_event` export: well-formed JSON
/// with a `traceEvents` array of objects, one complete event per span.
fn check_chrome(path: &str, spans: usize) {
    let value = json::parse(&read_input(path))
        .unwrap_or_else(|e| fail(&format!("chrome export `{path}` is not valid JSON: {e}")));
    let events = value
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| fail(&format!("chrome export `{path}` lacks a traceEvents array")));
    let complete = events
        .iter()
        .filter_map(|e| e.as_object())
        .filter(|o| o.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .count();
    if complete != spans {
        fail(&format!(
            "chrome export `{path}` holds {complete} complete events for {spans} spans"
        ));
    }
    println!(
        "chrome export `{path}`: {} events ({complete} complete) — ok",
        events.len()
    );
}

/// Prints every time-series recorded in a `--timeline` manifest.
fn print_manifest_timelines(path: &str) {
    let m = Manifest::parse_json(&read_input(path))
        .unwrap_or_else(|e| fail(&format!("cannot load manifest `{path}`: {e}")));
    if m.timeline.is_empty() {
        println!("manifest `{path}` records no timelines");
        return;
    }
    for (name, rows) in &m.timeline {
        println!("## Manifest timeline {name} ({} windows)", rows.len());
        let cols: Vec<&String> = rows.first().map(|r| r.keys().collect()).unwrap_or_default();
        let header: Vec<String> = cols.iter().map(|c| format!("{c:>10}")).collect();
        println!("{}", header.join(" "));
        for row in rows {
            let value = |c: &&String| row.get(*c).copied().unwrap_or(f64::NAN);
            let cells: Vec<String> = cols.iter().map(|c| format!("{:>10.3}", value(c))).collect();
            println!("{}", cells.join(" "));
        }
    }
}
