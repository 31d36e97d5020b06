//! Application-level workloads on the FFS prototype — the six columns of
//! Table 2.
//!
//! Each workload has a *setup* phase (file creation on a fresh file system)
//! and a *measured* phase that runs from a simulated fresh boot
//! ([`ffs::FileSystem::remount`]): cold buffer cache, cold drive cache,
//! clock at zero — exactly how the paper ran each test "on a freshly-booted
//! system".

use ffs::{FileId, FileSystem, Personality};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_disk::disk::Disk;
use sim_disk::SimDur;

/// One Table 2 row's worth of results for a single FFS personality.
#[derive(Debug, Clone, Copy)]
pub struct AppResult {
    /// Simulated run time of the measured phase.
    pub elapsed: SimDur,
    /// Disk reads + writes issued during the measured phase.
    pub requests: u64,
    /// Mean request size during the measured phase, bytes.
    pub mean_request_bytes: f64,
}

impl AppResult {
    /// Publishes the result under `workloads.app.*`, tagged with the
    /// workload `name` (e.g. `workloads.app.scan.requests`). Request counts
    /// and elapsed simulated time sum; the mean request size is recorded as
    /// a high-water mark so parallel personalities exporting the same
    /// workload commute.
    pub fn export_metrics(&self, reg: &traxtent::obs::Registry, name: &str) {
        reg.add(&format!("workloads.app.{name}.requests"), self.requests);
        reg.add(
            &format!("workloads.app.{name}.elapsed_us"),
            self.elapsed.as_ns() / 1_000,
        );
        reg.set_max(
            &format!("workloads.app.{name}.max_mean_request_bytes"),
            self.mean_request_bytes as u64,
        );
    }
}

fn result_of(fs: &FileSystem, elapsed: SimDur) -> AppResult {
    let s = fs.stats();
    AppResult {
        elapsed,
        requests: s.disk_reads + s.disk_writes,
        mean_request_bytes: s.mean_request_bytes(),
    }
}

/// Builds a fresh file system of the given personality on `disk`.
///
/// # Panics
///
/// Panics if `disk` holds 2³² blocks or more, which
/// [`FileSystem::format`] refuses; every drive model is far smaller.
#[expect(clippy::expect_used, reason = "the # Panics contract")]
pub fn mkfs(disk: Disk, personality: Personality) -> FileSystem {
    FileSystem::format(disk, personality).expect("the drive holds under 2^32 blocks")
}

/// Sequential scan of one large file (the paper's 4 GB scan; size here is a
/// parameter so small test disks can run it too), reading `chunk` bytes at
/// a time.
///
/// # Panics
///
/// Panics if `file_bytes` does not fit the free space of `fs`: the caller
/// sizes the file to the image it formatted.
#[expect(clippy::expect_used, reason = "the file fits the caller's image")]
pub fn scan(fs: &mut FileSystem, file_bytes: u64, chunk: u64) -> AppResult {
    let f = fs.create();
    fs.write(f, 0, file_bytes).expect("setup write fits");
    let ((), elapsed) = fs.timed(|fs| {
        let mut at = 0;
        while at < file_bytes {
            let n = chunk.min(file_bytes - at);
            fs.read(f, at, n).expect("in range");
            at += n;
        }
    });
    result_of(fs, elapsed)
}

/// `diff` of two large files: interleaved sequential reads of both, `chunk`
/// bytes from each in turn (the application compares them in memory).
///
/// # Panics
///
/// Panics if two files of `file_bytes` do not fit the free space of `fs`:
/// the caller sizes them to the image it formatted.
#[expect(clippy::expect_used, reason = "both files fit the caller's image")]
pub fn diff(fs: &mut FileSystem, file_bytes: u64, chunk: u64) -> AppResult {
    let a = fs.create();
    fs.write(a, 0, file_bytes).expect("setup write fits");
    let b = fs.create();
    fs.write(b, 0, file_bytes).expect("setup write fits");
    let ((), elapsed) = fs.timed(|fs| {
        let mut at = 0;
        while at < file_bytes {
            let n = chunk.min(file_bytes - at);
            fs.read(a, at, n).expect("in range");
            fs.read(b, at, n).expect("in range");
            at += n;
        }
    });
    result_of(fs, elapsed)
}

/// Copy of one large file to a new file in the same directory: sequential
/// reads feeding buffered writes, two interleaved request streams at the
/// disk.
///
/// # Panics
///
/// Panics if two files of `file_bytes` do not fit the free space of `fs`:
/// the caller sizes the source and its copy to the image it formatted.
#[expect(clippy::expect_used, reason = "the file and its copy fit the image")]
pub fn copy(fs: &mut FileSystem, file_bytes: u64, chunk: u64) -> AppResult {
    let src = fs.create();
    fs.write(src, 0, file_bytes).expect("setup write fits");
    let (_dst, elapsed) = fs.timed(|fs| {
        let dst = fs.create();
        let mut at = 0;
        while at < file_bytes {
            let n = chunk.min(file_bytes - at);
            fs.read(src, at, n).expect("in range");
            fs.write(dst, at, n).expect("space available");
            at += n;
        }
        dst
    });
    result_of(fs, elapsed)
}

/// Postmark-like small-file transactions (v1.11 defaults: 5–10 KB files,
/// 1:1 read/write and create/delete mixes). Returns the result plus the
/// transactions-per-second rate the Postmark tool reports.
///
/// # Panics
///
/// Panics if `initial_files` is zero, or if the pool, grown by
/// `transactions` appends and creates of at most 10 KB each, does not fit
/// the free space of `fs`.
#[expect(clippy::expect_used, reason = "the pool and its growth fit the image")]
pub fn postmark(
    fs: &mut FileSystem,
    initial_files: usize,
    transactions: usize,
    seed: u64,
) -> (AppResult, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<(FileId, u64)> = Vec::new();
    for _ in 0..initial_files {
        let size = rng.gen_range(5 * 1024..=10 * 1024);
        let f = fs.create();
        fs.write(f, 0, size).expect("setup write fits");
        pool.push((f, size));
    }
    let mut rng2 = StdRng::seed_from_u64(seed ^ 0xdead_beef);
    let ((), elapsed) = fs.timed(|fs| {
        for i in 0..transactions {
            // Alternate read/append and create/delete pairs (1:1 ratios).
            let pick = rng2.gen_range(0..pool.len());
            let (f, size) = pool[pick];
            if i % 2 == 0 {
                if i % 4 == 0 {
                    fs.read(f, 0, size).expect("in range");
                } else {
                    let extra = rng2.gen_range(1024..=4096);
                    fs.write(f, size, extra).expect("space available");
                    pool[pick].1 = size + extra;
                }
            } else if i % 4 == 1 {
                let size = rng2.gen_range(5 * 1024..=10 * 1024);
                let f = fs.create();
                fs.write(f, 0, size).expect("space available");
                pool.push((f, size));
            } else {
                let victim = rng2.gen_range(0..pool.len());
                let (f, _) = pool.swap_remove(victim);
                fs.delete(f).expect("exists");
            }
        }
    });
    let tps = transactions as f64 / elapsed.as_secs_f64();
    (result_of(fs, elapsed), tps)
}

/// SSH-build-like three-phase software-build workload: unpack (create many
/// small files), configure (read a subset, write small outputs), build
/// (read sources, write objects). Dominated by small synchronous writes and
/// cache hits, as in the paper.
///
/// # Panics
///
/// Panics if the build's files, at most 21 MB of sources, outputs and
/// objects, do not fit the free space of `fs`.
#[expect(clippy::expect_used, reason = "the caller's image holds the build")]
pub fn ssh_build(fs: &mut FileSystem, seed: u64) -> AppResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let ((), elapsed) = fs.timed(|fs| {
        // Phase 1: unpack ~400 source files of 1–32 KB.
        let mut sources = Vec::new();
        for _ in 0..400 {
            let size = rng.gen_range(1024..=32 * 1024);
            let f = fs.create();
            fs.write(f, 0, size).expect("space available");
            sources.push((f, size));
        }
        // Phase 2: configure — read headers, write small config outputs.
        for i in 0..60 {
            let (f, size) = sources[i % sources.len()];
            fs.read(f, 0, size.min(4096)).expect("in range");
            let out = fs.create();
            fs.write(out, 0, 2048).expect("space available");
        }
        // Phase 3: build — read each source fully, write a ~60 % object.
        for &(f, size) in &sources {
            fs.read(f, 0, size).expect("in range");
            let obj = fs.create();
            fs.write(obj, 0, (size * 3 / 5).max(1024))
                .expect("space available");
        }
    });
    result_of(fs, elapsed)
}

/// `head*`: read the first byte of many medium files — the traxtent
/// worst-case (§5.3), because the traxtent FFS fetches the whole first
/// traxtent where stock FFS fetches one block plus one read-ahead block.
///
/// # Panics
///
/// Panics if `files` files of `file_bytes` do not fit the free space of
/// `fs`: the caller sizes them to the image it formatted.
#[expect(clippy::expect_used, reason = "the files fit the caller's image")]
pub fn head_star(fs: &mut FileSystem, files: usize, file_bytes: u64) -> AppResult {
    let mut ids = Vec::new();
    for _ in 0..files {
        let f = fs.create();
        fs.write(f, 0, file_bytes).expect("setup write fits");
        ids.push(f);
    }
    let ((), elapsed) = fs.timed(|fs| {
        for &f in &ids {
            fs.read(f, 0, 1).expect("in range");
        }
    });
    result_of(fs, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_disk::models;

    const MB: u64 = 1 << 20;

    fn fs(p: Personality) -> FileSystem {
        mkfs(Disk::new(models::small_test_disk()), p)
    }

    /// The Table 2 platform: gains only show when clusters span multiple
    /// tracks, so these tests use the real Atlas 10K geometry (167 KB
    /// first-zone tracks vs 256 KB clusters) with scaled-down files.
    fn atlas(p: Personality) -> FileSystem {
        mkfs(Disk::new(models::quantum_atlas_10k()), p)
    }

    #[test]
    fn export_metrics_tags_the_workload() {
        let r = scan(&mut fs(Personality::Unmodified), 4 * MB, 64 * 1024);
        let reg = traxtent::obs::Registry::new();
        r.export_metrics(&reg, "scan");
        let snap = reg.snapshot();
        assert_eq!(snap.get("workloads.app.scan.requests"), Some(r.requests));
        assert_eq!(
            snap.get("workloads.app.scan.elapsed_us"),
            Some(r.elapsed.as_ns() / 1_000)
        );
        assert_eq!(
            snap.get("workloads.app.scan.max_mean_request_bytes"),
            Some(r.mean_request_bytes as u64)
        );
    }

    #[test]
    fn scan_penalty_for_traxtents_is_small() {
        // Table 2: single-stream scan is ~5 % slower with traxtents
        // (excluded blocks shrink effective streaming bandwidth).
        let u = scan(&mut fs(Personality::Unmodified), 24 * MB, 64 * 1024);
        let t = scan(&mut fs(Personality::Traxtent), 24 * MB, 64 * 1024);
        let ratio = t.elapsed.as_secs_f64() / u.elapsed.as_secs_f64();
        assert!((1.0..=1.15).contains(&ratio), "scan ratio {ratio}");
    }

    #[test]
    fn diff_gains_from_traxtents() {
        // Table 2: interleaved two-file reads are ~19 % faster with
        // traxtents.
        let u = diff(&mut atlas(Personality::Unmodified), 32 * MB, 64 * 1024);
        let t = diff(&mut atlas(Personality::Traxtent), 32 * MB, 64 * 1024);
        let ratio = u.elapsed.as_secs_f64() / t.elapsed.as_secs_f64();
        assert!(ratio > 1.08, "diff speedup {ratio}");
    }

    #[test]
    fn copy_gains_from_traxtents() {
        let u = copy(&mut atlas(Personality::Unmodified), 32 * MB, 64 * 1024);
        let t = copy(&mut atlas(Personality::Traxtent), 32 * MB, 64 * 1024);
        let ratio = u.elapsed.as_secs_f64() / t.elapsed.as_secs_f64();
        assert!(ratio > 1.05, "copy speedup {ratio}");
    }

    #[test]
    fn head_star_is_the_traxtent_worst_case() {
        let u = head_star(&mut atlas(Personality::Unmodified), 120, 200 * 1024);
        let t = head_star(&mut atlas(Personality::Traxtent), 120, 200 * 1024);
        let ratio = t.elapsed.as_secs_f64() / u.elapsed.as_secs_f64();
        assert!(ratio > 1.15, "head* penalty {ratio}");
    }

    #[test]
    fn postmark_is_roughly_unaffected() {
        let (_, u_tps) = postmark(&mut fs(Personality::Unmodified), 100, 400, 7);
        let (_, t_tps) = postmark(&mut fs(Personality::Traxtent), 100, 400, 7);
        let ratio = t_tps / u_tps;
        assert!((0.9..=1.25).contains(&ratio), "postmark ratio {ratio}");
    }

    #[test]
    fn ssh_build_is_roughly_unaffected() {
        let u = ssh_build(&mut fs(Personality::Unmodified), 3);
        let t = ssh_build(&mut fs(Personality::Traxtent), 3);
        let ratio = t.elapsed.as_secs_f64() / u.elapsed.as_secs_f64();
        assert!((0.85..=1.15).contains(&ratio), "ssh-build ratio {ratio}");
    }

    #[test]
    fn results_are_deterministic() {
        let a = diff(&mut fs(Personality::Traxtent), 4 * MB, 64 * 1024);
        let b = diff(&mut fs(Personality::Traxtent), 4 * MB, 64 * 1024);
        assert_eq!(a.elapsed, b.elapsed);
    }
}
