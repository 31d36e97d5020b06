//! End-to-end determinism of the fleet figure: `fleet_sweep` prints
//! byte-identical stdout and records identical manifest headline values
//! at `--threads 1`, `2`, and `8` for the same seed — volume service,
//! degraded-mode reconstruction, rebuild, and scrub all run on the
//! simulated clock and owe nothing to the host thread count.

mod common;

use common::{bench, golden, scratch};
use std::fs;
use std::path::Path;
use std::process::Output;
use traxtent_bench::manifest::Manifest;

fn run_sweep(manifest_dir: &Path, threads: &str) -> Output {
    let dir = manifest_dir.to_str().unwrap();
    bench(
        "fleet_sweep",
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
fn fleet_sweep_is_thread_count_invariant() {
    let base = scratch("fleet-threads");
    let mut seen: Option<(String, Manifest)> = None;
    for threads in ["1", "2", "8"] {
        let dir = base.join(format!("t{threads}"));
        fs::create_dir_all(&dir).unwrap();
        let out = run_sweep(&dir, threads);
        assert!(out.status.success(), "fleet_sweep --threads {threads}");
        let text = String::from_utf8(out.stdout).unwrap();
        let manifest = Manifest::load(&dir.join("fleet_sweep.json")).unwrap();
        assert_eq!(manifest.threads, threads.parse::<usize>().unwrap());
        match &seen {
            None => {
                assert_eq!(text, golden("fleet_sweep"), "stdout moved since the golden");
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
    // The acceptance headlines are present and hold: aligned stripe
    // units beat fixed on the healthy path of every shape, the traxtent
    // scheduler's per-member lanes compound with them, and every
    // degraded redundant cell served bit-exact data.
    let (_, m) = seen.unwrap();
    for shape in ["stripedx2", "stripedx4", "mirroredx2", "raid5x3", "raid5x5"] {
        let headline = |key: String| {
            *m.headline
                .get(&key)
                .unwrap_or_else(|| panic!("{key} headline present"))
        };
        let gain = headline(format!("aligned_gain_{shape}"));
        assert!(gain > 1.0, "{shape}: aligned must beat fixed, got {gain}x");
        let compound = headline(format!("compound_gain_{shape}"));
        assert!(
            compound > gain,
            "{shape}: aligned + traxtent ({compound}x) must beat aligned alone ({gain}x)"
        );
    }
    assert_eq!(
        m.headline.get("degraded_scrub_mismatches"),
        Some(&0.0),
        "rebuilt redundancy scrubs clean"
    );
    fs::remove_dir_all(&base).unwrap();
}
