//! `ffs_apps`: Table 2's six applications on the traxtent FFS.
//!
//! `ffs` and the `core` allocator and planner do the work on top of
//! `sim-disk`; `server` and `fleet` do none. Simulated time is Table 2's
//! run time.

use super::{add_fact, atlas_table, ns_per_call, ratio, Facts, Outcome, Probe, Scale, Workload};
use ffs::{FileSystem, Personality};
use sim_disk::disk::Disk;
use sim_disk::models;
use std::hint::black_box;
use std::time::Instant;
use traxtent::{RequestPlanner, TrackBoundaries, TraxtentAllocator};
use workloads::apps::{self, AppResult};

pub const WORKLOAD: Workload = Workload {
    name: "ffs_apps",
    why: "Table 2's six applications on the traxtent FFS: ffs and the core allocator and planner do the work, server and fleet none; simulated time is Table 2's run time",
    op: "application step",
    slo_ms: None,
    drive_owner: "ffs",
    run,
};

const CHUNK: u64 = 64 << 10;
/// `scan` reads this many 64 KB chunks of one file (1 GB).
const SCAN_CHUNKS: usize = 16_384;
/// `diff` compares, and `copy` copies, this many chunks (512 MB files).
const PAIR_CHUNKS: usize = 8192;
const POSTMARK_FILES: usize = 5000;
const POSTMARK_TRANSACTIONS: usize = 100_000;
const SSH_BUILDS: usize = 4;
/// File operations `workloads::apps::ssh_build` performs: 400 unpacked,
/// 60 configured, 400 compiled.
const SSH_BUILD_STEPS: usize = 860;
const HEAD_FILES: usize = 2000;
const HEAD_FILE_BYTES: u64 = 200 << 10;

/// One application: the metric its simulated run time is reported under,
/// its closed-form step count (which does not depend on how many disk
/// requests the file system turns it into), and the call.
type App = (
    &'static str,
    usize,
    Box<dyn Fn(&mut FileSystem) -> AppResult>,
);

fn apps(seed: u64, scale: Scale) -> Vec<App> {
    let scan = scale.n(SCAN_CHUNKS);
    let pair = scale.n(PAIR_CHUNKS);
    let files = scale.n(POSTMARK_FILES);
    let transactions = scale.n(POSTMARK_TRANSACTIONS);
    let heads = scale.n(HEAD_FILES);
    let mut list: Vec<App> = vec![
        (
            "ffs.sim_s.scan",
            scan,
            Box::new(move |fs| apps::scan(fs, scan as u64 * CHUNK, CHUNK)),
        ),
        (
            "ffs.sim_s.diff",
            pair,
            Box::new(move |fs| apps::diff(fs, pair as u64 * CHUNK, CHUNK)),
        ),
        (
            "ffs.sim_s.copy",
            pair,
            Box::new(move |fs| apps::copy(fs, pair as u64 * CHUNK, CHUNK)),
        ),
        (
            "ffs.sim_s.postmark",
            transactions,
            Box::new(move |fs| apps::postmark(fs, files, transactions, seed).0),
        ),
    ];
    for build in 0..scale.n(SSH_BUILDS) as u64 {
        list.push((
            "ffs.sim_s.ssh_build",
            SSH_BUILD_STEPS,
            Box::new(move |fs| apps::ssh_build(fs, seed ^ ((build + 1) << 32))),
        ));
    }
    list.push((
        "ffs.sim_s.head_star",
        heads,
        Box::new(move |fs| apps::head_star(fs, heads, HEAD_FILE_BYTES)),
    ));
    list
}

fn run(seed: u64, scale: Scale, probe: &Probe) -> Result<Outcome, String> {
    let apps = apps(seed, scale);
    // A fresh file system per application, all formatted during set-up.
    let mut systems: Vec<FileSystem> = apps
        .iter()
        .map(|_| {
            let disk = Disk::new(probe.drive(models::quantum_atlas_10k()));
            apps::mkfs(disk, Personality::Traxtent)
        })
        .collect();

    let results: Vec<AppResult> = probe.timed(|| {
        apps.iter()
            .zip(&mut systems)
            .map(|((_, _, app), fs)| probe.call("workloads.apps", "ffs", || app(fs)))
            .collect()
    });

    let steps: usize = apps.iter().map(|(_, steps, _)| steps).sum();
    let mut sim_s_by_app: Facts = Vec::new();
    let (mut requests, mut bytes, mut hits, mut lookups) = (0.0, 0.0, 0.0, 0.0);
    for (((metric, _, _), result), fs) in apps.iter().zip(&results).zip(&systems) {
        add_fact(&mut sim_s_by_app, metric, result.elapsed.as_secs_f64());
        requests += result.requests as f64;
        bytes += result.requests as f64 * result.mean_request_bytes;
        let (h, m) = fs.cache_stats();
        hits += h as f64;
        lookups += (h + m) as f64;
    }
    let mut out = Outcome {
        attempted: steps as u64,
        succeeded: steps as u64,
        sim_s: results.iter().map(|r| r.elapsed.as_secs_f64()).sum(),
        facts: vec![
            ("ffs.disk_reqs_per_op", ratio(requests, steps as f64)),
            ("ffs.mean_request_kb", ratio(bytes, requests) / 1024.0),
            // Buffer-cache hits over each application's whole call, file
            // creation included; the cache starts empty.
            ("ffs.cache_hit_frac", ratio(hits, lookups)),
        ],
        ..Outcome::default()
    };
    out.facts.extend(sim_s_by_app);

    if probe.spans().is_some() {
        let table = atlas_table();
        out.observed = vec![
            ("core.alloc_ns_per_call", price_allocator(&table)),
            ("core.planner_ns_per_call", price_planner(&table)),
        ];
        // Paper anchor: Table 2's diff, stock FFS against traxtent FFS.
        let diff = &apps[1].2;
        let stock = Disk::new(models::quantum_atlas_10k());
        let stock = diff(&mut apps::mkfs(stock, Personality::Unmodified));
        out.observed.push((
            "ffs.anchor.diff_speedup",
            ratio(
                stock.elapsed.as_secs_f64(),
                results[1].elapsed.as_secs_f64(),
            ),
        ));
    }
    Ok(out)
}

/// Host nanoseconds per allocator call over a mix of whole-traxtent
/// allocations, small allocations near them, and the frees that undo both.
fn price_allocator(table: &TrackBoundaries) -> f64 {
    let mut alloc = TraxtentAllocator::new(table.clone());
    let rounds = table.num_tracks().min(4000);
    let mut held = Vec::with_capacity(2 * rounds);
    let t = Instant::now();
    for i in 0..rounds {
        let near = table.track_extent(i * 7919 % table.num_tracks()).start;
        held.extend(alloc.alloc_traxtent(near));
        held.extend(alloc.alloc_near(16, near));
    }
    let calls = 2 * rounds + held.len();
    for extent in held {
        alloc.free(extent);
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

fn price_planner(table: &TrackBoundaries) -> f64 {
    let planner = RequestPlanner::new(table.clone());
    let stride = table.capacity() / 100_003;
    ns_per_call(100_000, |i| {
        black_box(planner.plan_prefetch(i as u64 * stride, 64, 256));
    })
}
