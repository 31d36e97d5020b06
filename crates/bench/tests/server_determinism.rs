//! End-to-end determinism of the open-loop server figure:
//!
//! * `server_sweep` prints byte-identical stdout and records identical
//!   manifest headline values at `--threads 1`, `2`, and `8` for the same
//!   seed — simulated time owes nothing to the host thread count;
//! * replaying the committed `traces/sample.trc` through the server
//!   matches the hand-computed completion count for every scheduler.

mod common;

use common::{bench, golden, repo, scratch};
use server::{serve, SchedulerKind, ServerConfig};
use sim_disk::disk::Disk;
use sim_disk::models;
use std::fs;
use std::path::Path;
use std::process::Output;
use traxtent::ConfidentBoundaries;
use traxtent_bench::manifest::Manifest;
use workloads::replay::parse_trace;

fn run_sweep(manifest_dir: &Path, threads: &str) -> Output {
    let dir = manifest_dir.to_str().unwrap();
    bench(
        "server_sweep",
        &[
            "--quick",
            "--seed",
            "42",
            "--threads",
            threads,
            "--manifest",
            dir,
        ],
    )
}

#[test]
fn server_sweep_is_thread_count_invariant() {
    let base = scratch("server-threads");
    let mut seen: Option<(String, Manifest)> = None;
    for threads in ["1", "2", "8"] {
        let dir = base.join(format!("t{threads}"));
        fs::create_dir_all(&dir).unwrap();
        let out = run_sweep(&dir, threads);
        assert!(out.status.success(), "server_sweep --threads {threads}");
        let text = String::from_utf8(out.stdout).unwrap();
        let manifest = Manifest::load(&dir.join("server_sweep.json")).unwrap();
        assert_eq!(manifest.threads, threads.parse::<usize>().unwrap());
        match &seen {
            None => {
                assert_eq!(
                    text,
                    golden("server_sweep"),
                    "stdout moved since the golden"
                );
                seen = Some((text, manifest));
            }
            Some((text1, m1)) => {
                assert_eq!(text1, &text, "stdout differs at --threads {threads}");
                assert_eq!(
                    m1.headline, manifest.headline,
                    "headline values differ at --threads {threads}"
                );
            }
        }
    }
    let (_, m) = seen.unwrap();
    assert!(
        m.headline.contains_key("traxtent_p99_gain_hiload"),
        "summary headline present"
    );
    fs::remove_dir_all(&base).unwrap();
}

#[test]
fn sample_trace_replay_matches_hand_computed_completions() {
    // traces/sample.trc holds 2000 requests arriving roughly every 30 ms
    // (~33 req/s) against a ~13 ms random track-sized service time —
    // utilization ~0.45, so the 128-deep admission queue can never fill:
    // by hand, completions = 2000 and rejections = 0, for every policy.
    let text = fs::read_to_string(repo("traces/sample.trc")).expect("committed trace exists");
    let records = parse_trace(&text).expect("committed trace parses");
    assert_eq!(records.len(), 2000, "trace length is part of the contract");

    for kind in SchedulerKind::ALL {
        let mut disk = Disk::new(models::quantum_atlas_10k_ii());
        let mut cfg = ServerConfig::new(kind);
        if kind == SchedulerKind::Traxtent {
            cfg.boundaries = Some(ConfidentBoundaries::certain(disk.track_boundaries()));
        }
        let res = serve(&mut disk, &records, &cfg).unwrap();
        assert_eq!(res.completed(), 2000, "{kind:?} completes every request");
        assert_eq!(res.rejected(), 0, "{kind:?} rejects nothing at this load");
        // Sanity: one response per record, in trace order, each
        // completing (at the arrival plus the response) after it arrived.
        assert_eq!(res.responses.len(), records.len());
        for (&d, r) in res.responses.iter().zip(&records) {
            assert!(r.arrival + d > r.arrival);
        }
    }
}
