//! Helpers shared by the integration tests that drive the built `bench`.
#![allow(dead_code)] // each test crate uses its own subset

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh scratch directory under the system temp dir.
pub fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("traxtent-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The `bench` binary.
pub const BENCH: &str = env!("CARGO_BIN_EXE_bench");

/// Runs `bench <subcommand> <args>` to completion.
pub fn bench(subcommand: &str, args: &[&str]) -> Output {
    Command::new(BENCH)
        .arg(subcommand)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn `{BENCH} {subcommand}`: {e}"))
}

pub fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

/// A path under the repository root.
pub fn repo(path: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path)
}

/// The stdout the parent commit's `<figure> --quick` printed, committed
/// under `results/baseline/stdout/`: what pins a figure's text across
/// commits, not only across thread counts.
pub fn golden(figure: &str) -> String {
    let path = repo("results/baseline/stdout").join(format!("{figure}.txt"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read `{}`: {e}", path.display()))
}
