//! End-to-end tests of the `bench` binary: every figure's stdout against
//! its golden, every row's usage error, a figure run emitting a manifest,
//! `bench_diff` passing on an unchanged run and failing on a perturbed
//! headline, and `trace_report` printing exact percentiles and degrading
//! gracefully on empty or truncated traces.
//!
//! `table1` stands in for the figures because it is the cheapest
//! (geometry construction only, ~0.1 s in a debug build) while exercising
//! the whole `Run` path the others share.

mod common;

use common::{bench, golden, repo, scratch, stdout, BENCH};
use sim_disk::disk::Op;
use sim_disk::trace::TraceEvent;
use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};
use traxtent_bench::manifest::Manifest;
use traxtent_bench::COMMANDS;

/// One syntactically valid trace line, as a figure run would emit it.
fn valid_trace_line() -> String {
    TraceEvent::Issue {
        req: 1,
        t: 0,
        op: Op::Read,
        lbn: 100,
        len: 8,
    }
    .to_json()
}

#[test]
fn trace_report_reports_empty_trace_and_exits_zero() {
    let dir = scratch("trace-empty");
    let path = dir.join("empty.jsonl");
    fs::write(&path, "").unwrap();
    let out = bench("trace_report", &[path.to_str().unwrap()]);
    assert!(out.status.success(), "exit: {:?}", out.status);
    assert!(
        stdout(&out).contains("is empty: nothing to report"),
        "stdout: {}",
        stdout(&out)
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_report_reports_truncated_trace_and_exits_zero() {
    let dir = scratch("trace-trunc");

    // A file holding nothing parseable: report the truncation, exit 0.
    let garbage = dir.join("garbage.jsonl");
    fs::write(&garbage, "{\"ev\": \"iss").unwrap();
    let out = bench("trace_report", &[garbage.to_str().unwrap()]);
    assert!(out.status.success(), "exit: {:?}", out.status);
    assert!(
        stdout(&out).contains("no usable events (truncated at line 1)"),
        "stdout: {}",
        stdout(&out)
    );

    // A valid prefix followed by a torn tail: census the prefix, note the
    // truncation point, exit 0.
    let torn = dir.join("torn.jsonl");
    fs::write(
        &torn,
        format!("{}\n{}", valid_trace_line(), "{\"ev\": \"se"),
    )
    .unwrap();
    let out = bench("trace_report", &[torn.to_str().unwrap()]);
    assert!(out.status.success(), "exit: {:?}", out.status);
    let text = stdout(&out);
    assert!(text.contains("trace truncated at line 2"), "stdout: {text}");
    assert!(text.contains("issue"), "census missing from: {text}");

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_report_percentiles_are_exact() {
    let dir = scratch("trace-exact");
    let path = dir.join("four.jsonl");
    let responses = [1_000_001u64, 2_000_003, 3_000_007, 40_000_009];
    let text: String = responses
        .iter()
        .enumerate()
        .map(|(i, &response)| {
            let complete = TraceEvent::Complete {
                req: i as u64,
                t: response,
                op: if i == 3 { Op::Write } else { Op::Read },
                lbn: 0,
                len: 8,
                cache_hit: i == 0,
                queue: 0,
                overhead: 0,
                seek: 0,
                head_switch: 0,
                rot_latency: 0,
                media: response,
                bus: 0,
                write_settle: 0,
                response,
            };
            complete.to_json() + "\n"
        })
        .collect();
    fs::write(&path, text).unwrap();
    let out = bench("trace_report", &[path.to_str().unwrap()]);
    assert!(out.status.success(), "exit: {:?}", out.status);
    let text = stdout(&out);
    let row: Vec<&str> = text
        .lines()
        .find(|l| l.starts_with("response "))
        .unwrap_or_else(|| panic!("no response row in: {text}"))
        .split_whitespace()
        .collect();
    let samples = responses.map(|ns| ns as f64);
    let p99 = format!("{:.4}", traxtent::stats::percentile(&samples, 0.99) / 1e6);
    // share, p50 (midway between the 2nd and 3rd values), p99, max.
    assert_eq!(
        [row[2], row[3], row[5], row[6]],
        ["100.0%", "2.5000", p99.as_str(), "40.0000"],
        "{text}"
    );
    assert!(
        text.contains("requests 4 (reads 3, writes 1, cache hits 1)"),
        "{text}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// Runs `table1 --quick --manifest <dir>` and returns its stdout.
fn run_table1(manifest_dir: &Path, extra: &[&str]) -> String {
    let mut args = vec!["--quick", "--manifest", manifest_dir.to_str().unwrap()];
    args.extend_from_slice(extra);
    let out = bench("table1", &args);
    assert!(out.status.success(), "table1 failed: {:?}", out.status);
    stdout(&out)
}

#[test]
fn manifest_pipeline_passes_unchanged_and_fails_when_perturbed() {
    let dir = scratch("diff");
    let baseline = dir.join("baseline");
    let current = dir.join("current");
    let text_a = run_table1(&baseline, &[]);
    let text_b = run_table1(&current, &[]);
    assert_eq!(text_a, text_b, "reruns must be byte-identical");

    // A run without --manifest prints exactly the same report.
    let plain = bench("table1", &["--quick"]);
    assert_eq!(text_a, stdout(&plain), "--manifest must not change stdout");

    // Unchanged runs pass the diff.
    let out = bench(
        "bench_diff",
        &[baseline.to_str().unwrap(), current.to_str().unwrap()],
    );
    assert!(out.status.success(), "diff of identical runs must pass");
    assert!(stdout(&out).contains("PASS"), "stdout: {}", stdout(&out));

    // Perturb one headline beyond the default ±2 % tolerance: exit 1.
    let path = current.join("table1.json");
    let mut m = Manifest::load(&path).expect("manifest parses");
    let (key, value) = {
        let (k, v) = m.headline.iter().next().expect("has a headline");
        (k.clone(), *v)
    };
    m.headline.insert(key.clone(), value * 1.10);
    m.write_to(&current).unwrap();
    let out = bench(
        "bench_diff",
        &[baseline.to_str().unwrap(), current.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(1), "perturbed run must fail");
    let text = stdout(&out);
    assert!(text.contains("FAIL"), "stdout: {text}");
    assert!(text.contains(&key), "regression must name `{key}`: {text}");

    // A loose tolerance forgives the same perturbation.
    let out = bench(
        "bench_diff",
        &[
            baseline.to_str().unwrap(),
            current.to_str().unwrap(),
            "--tol",
            "0.5",
        ],
    );
    assert!(out.status.success(), "10% change is within --tol 0.5");

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn manifests_are_identical_across_thread_counts() {
    let dir = scratch("threads");
    let one = dir.join("t1");
    let four = dir.join("t4");
    let text_one = run_table1(&one, &["--threads", "1"]);
    let text_four = run_table1(&four, &["--threads", "4"]);
    assert_eq!(text_one, text_four, "stdout must not depend on threads");

    let a = Manifest::load(&one.join("table1.json")).unwrap();
    let b = Manifest::load(&four.join("table1.json")).unwrap();
    assert_eq!(a.headline, b.headline);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(b.threads, 4);

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_report_counts_unknown_kinds_without_truncating() {
    use traxtent::obs::span::Span;
    let dir = scratch("trace-unknown");
    let path = dir.join("mixed.jsonl");
    // Recognized events surrounding a future event kind and a span
    // record: both are well-formed JSONL, so the report counts and skips
    // them instead of treating the file as truncated.
    let mut text = valid_trace_line() + "\n";
    text += "{\"ev\": \"warp_drive\", \"req\": 9, \"t\": 5}\n";
    text += &(Span::new(0x2a, 0, "request", 0, 10, 20).to_json() + "\n");
    // Escaped quotes and backslashes inside a string are legal JSON too.
    let mut quoted = Span::new(0x2b, 0x2a, "vol_cmd", 0, 12, 18);
    quoted.push_attr("note", r#"a"b\c"#);
    text += &(quoted.to_json() + "\n");
    text += &(valid_trace_line() + "\n");
    fs::write(&path, text).unwrap();

    let out = bench("trace_report", &[path.to_str().unwrap()]);
    assert!(out.status.success(), "exit: {:?}", out.status);
    let text = stdout(&out);
    assert!(text.contains("issue"), "census keeps known events: {text}");
    assert!(
        text.contains("Unrecognized event kinds"),
        "unknown section: {text}"
    );
    assert!(text.contains("warp_drive"), "stdout: {text}");
    assert!(text.contains("span:request"), "stdout: {text}");
    assert!(text.contains("span:vol_cmd"), "stdout: {text}");
    let issues = text.lines().find(|l| l.starts_with("issue")).unwrap();
    assert!(
        issues.ends_with(" 2"),
        "events after it still count: {text}"
    );
    assert!(!text.contains("truncated"), "no truncation note: {text}");

    // A malformed line still truncates — after the events before it.
    fs::write(&path, valid_trace_line() + "\n{\"ev\": \"se").unwrap();
    let out = bench("trace_report", &[path.to_str().unwrap()]);
    assert!(out.status.success(), "exit: {:?}", out.status);
    assert!(
        stdout(&out).contains("truncated at line 2"),
        "stdout: {}",
        stdout(&out)
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sweep_trace_exports_chain_into_trace_timeline() {
    let dir = scratch("span-export");
    let trace = dir.join("sweep.jsonl");
    let manifests = dir.join("m");

    // The acceptance chain: a traced+timed sweep writes the span export,
    // the Chrome export, and the timeline manifest...
    let out = bench(
        "server_sweep",
        &[
            "--quick",
            "--seed",
            "42",
            "--timeline",
            "--trace",
            trace.to_str().unwrap(),
            "--manifest",
            manifests.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "exit: {:?}", out.status);
    assert!(
        stdout(&out).contains("## timeline s6_"),
        "timeline sections on stdout"
    );
    let spans = dir.join("sweep.spans.jsonl");
    let chrome = dir.join("sweep.chrome.json");
    let timeline_manifest = manifests.join("server_timeline.json");
    assert!(spans.exists() && chrome.exists() && timeline_manifest.exists());
    let m = Manifest::load(&timeline_manifest).unwrap();
    assert!(!m.timeline.is_empty(), "timeline rows recorded");

    // ...and trace_timeline validates all three together.
    let out = bench(
        "trace_timeline",
        &[
            spans.to_str().unwrap(),
            "--chrome",
            chrome.to_str().unwrap(),
            "--manifest",
            timeline_manifest.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "exit: {:?}", out.status);
    let text = stdout(&out);
    assert!(text.contains("trees, max depth"), "validation line: {text}");
    assert!(text.contains("queue_wait"), "layer breakdown: {text}");
    assert!(text.contains("— ok"), "chrome check: {text}");
    assert!(
        text.contains("Manifest timeline"),
        "manifest tables: {text}"
    );

    // A corrupted span line is a hard error, unlike trace_report's
    // tolerant event stream: span exports are written atomically by the
    // sweeps, so damage means the file cannot be trusted.
    let mut lines = fs::read_to_string(&spans).unwrap();
    lines.insert_str(0, "{\"span\": \"req");
    fs::write(&spans, lines).unwrap();
    let out = bench("trace_timeline", &[spans.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "malformed span must fail");

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn figure_stdout_matches_the_committed_goldens() {
    // (golden name, subcommand, extra flags): every figure row under its
    // own name, plus `replay` on the committed trace. The two sweeps are
    // checked by their determinism tests, on the `--threads 1` run those
    // already make.
    let sample = repo("traces/sample.trc");
    let mut figures: Vec<(&str, &str, Vec<&str>)> = COMMANDS
        .iter()
        .filter(|c| c.grammar.usage.is_none())
        .filter(|c| !matches!(c.name, "server_sweep" | "fleet_sweep"))
        .map(|c| (c.name, c.name, Vec::new()))
        .collect();
    figures.push((
        "replay_input",
        "replay",
        vec!["--input", sample.to_str().unwrap()],
    ));
    // All at once: the slowest unoptimized (fig9, fig10, table2) take 2.0,
    // 1.5 and 1.4 s.
    let children: Vec<_> = figures
        .iter()
        .map(|(_, subcommand, extra)| {
            Command::new(BENCH)
                .arg(subcommand)
                .args(["--quick", "--threads", "1"])
                .args(extra)
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .unwrap_or_else(|e| panic!("cannot spawn `bench {subcommand}`: {e}"))
        })
        .collect();
    for ((name, ..), child) in figures.iter().zip(children) {
        let out = child.wait_with_output().expect("child runs to completion");
        assert!(out.status.success(), "{name}: {:?}", out.status);
        assert_eq!(stdout(&out), golden(name), "{name}: stdout moved");
    }
}

#[test]
fn every_row_rejects_an_unknown_flag_with_its_usage_line() {
    for c in &COMMANDS {
        let out = bench(c.name, &["--frobnicate"]);
        assert_eq!(out.status.code(), Some(2), "{}: {:?}", c.name, out.status);
        assert!(out.stdout.is_empty(), "{}: nothing ran", c.name);
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("`--frobnicate`"), "{}: {err}", c.name);
        let usage = format!("usage: bench {} ", c.name);
        assert!(err.contains(&usage), "{}: {err}", c.name);
    }
}

#[test]
fn no_subcommand_or_an_unknown_one_lists_every_row() {
    for args in [&[][..], &["nope"]] {
        let out = Command::new(BENCH).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {:?}", out.status);
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
        let err = String::from_utf8(out.stderr).unwrap();
        let mut lines = err.lines();
        assert!(lines.next().unwrap().starts_with("error: "), "{err}");
        for c in &COMMANDS {
            assert!(
                lines
                    .clone()
                    .any(|l| l.split_whitespace().next() == Some(c.name)),
                "{args:?}: `{}` missing from {err}",
                c.name
            );
        }
    }
}

#[test]
fn a_missing_input_file_exits_2_with_one_line() {
    let dir = scratch("missing-input");
    let missing = dir.join("missing");
    let missing = missing.to_str().unwrap();
    for (subcommand, args) in [
        ("trace_report", &[missing][..]),
        ("trace_timeline", &[missing]),
        ("replay", &["--quick", "--input", missing]),
    ] {
        let out = bench(subcommand, args);
        assert_eq!(out.status.code(), Some(2), "{subcommand}: {:?}", out.status);
        assert!(out.stdout.is_empty(), "{subcommand}: nothing ran");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(err.lines().count(), 1, "{subcommand}: one line, got {err}");
        assert!(err.contains(missing), "{subcommand}: {err}");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_sweep_traces_its_drives_without_moving_stdout() {
    let dir = scratch("crash-trace");
    let trace = dir.join("crash.jsonl");
    let plain = bench("crash_sweep", &["--quick"]);
    let traced = bench(
        "crash_sweep",
        &["--quick", "--trace", trace.to_str().unwrap()],
    );
    assert!(plain.status.success() && traced.status.success());
    assert_eq!(stdout(&plain), stdout(&traced), "tracing moved stdout");
    let first = fs::read_to_string(&trace).unwrap();
    let first = first.lines().next().expect("the drives report to --trace");
    TraceEvent::parse_json(first).expect("a trace event");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unwritable_output_paths_exit_2_before_any_cell() {
    // A path under a regular file cannot be created even by root.
    let dir = scratch("bad-paths");
    let file = dir.join("file");
    fs::write(&file, "").unwrap();
    let under = file.join("sub");
    for flag in ["--manifest", "--trace"] {
        let out = bench("table1", &["--quick", flag, under.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{flag}: {:?}", out.status);
        assert!(out.stdout.is_empty(), "{flag}: nothing ran");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(err.lines().count(), 1, "{flag}: one line, got {err}");
        assert!(err.starts_with("error: cannot create"), "{flag}: {err}");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replay_rejects_a_trace_the_drive_cannot_hold() {
    // A range that wraps past 2^64 (it used to be served as a 1-sector
    // request) and one merely past the last sector (it used to panic).
    let dir = scratch("bad-trace");
    let trace = dir.join("bad.trc");
    for (line, why) in [
        ("0.000 R 18446744073709551615 2\n", "overflows"),
        ("0.000 R 99999999999 2\n", "exceed the drive's"),
    ] {
        fs::write(&trace, line).unwrap();
        let out = bench("replay", &["--quick", "--input", trace.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{line}: {:?}", out.status);
        assert!(out.stdout.is_empty(), "{line}: nothing ran");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(err.lines().count(), 1, "{line}: one line, got {err}");
        assert!(err.contains(why), "{line}: {err}");
    }
    fs::remove_dir_all(&dir).unwrap();
}
