//! Trace replay: engine-throughput measurement for the event-driven
//! service path.
//!
//! ```text
//! bench replay                              # synthetic trace (manifest `replay_synthetic`)
//! bench replay --input traces/sample.trc   # a committed/external trace (manifest `replay`)
//! bench replay --count 200000              # synthetic trace of a given length
//! bench replay --count 500 --emit out.trc  # write the synthetic trace, don't replay
//! ```
//!
//! Reads a timestamped block trace (see [`workloads::replay`] for the line
//! format) or generates a deterministic synthetic one, replays it through
//! [`workloads::replay::replay`] on the Atlas 10K II — one
//! [`sim_disk::Disk::service`] call a request, each folded into 16 bytes
//! as it is served — and prints the simulation outcome. Stdout is a
//! deterministic function of the trace and seed; the replay *rate*
//! (simulated requests per wall-clock second) is inherently
//! machine-dependent, so it goes to stderr and into the manifest — wall
//! time is judged by `bench_diff` only under an explicit `--wall-tol`.

use super::read_input;
use crate::{die, Row, Run};
use sim_disk::disk::Disk;
use sim_disk::models;
use workloads::replay::{parse_trace, render_trace, replay, synthetic_trace, SyntheticSpec};

pub(crate) fn main(run: &Run) {
    let cfg = run.drive(models::quantum_atlas_10k_ii());

    let capacity = cfg.geometry.capacity_lbns();
    let default_count = if run.quick { 20_000 } else { 200_000 };
    let count: usize = run.number("--count").unwrap_or(default_count);
    let records = match run.value("--input") {
        Some(path) => {
            let records =
                parse_trace(&read_input(path)).unwrap_or_else(|e| die(&format!("`{path}`: {e}")));
            if let Some(i) = records.iter().position(|r| !r.request.fits(capacity)) {
                let r = records[i].request;
                die(&format!(
                    "`{path}`: request {}: {} sectors at {} exceed the drive's {capacity}",
                    i + 1,
                    r.len,
                    r.lbn
                ));
            }
            records
        }
        None => {
            run.rename("replay_synthetic");
            synthetic_trace(&SyntheticSpec::default_for(capacity, count, run.seed))
        }
    };
    if records.is_empty() {
        die("trace contains no requests");
    }

    if let Some(path) = run.value("--emit") {
        std::fs::write(path, render_trace(&records))
            .unwrap_or_else(|e| die(&format!("cannot write trace `{path}`: {e}")));
        eprintln!("wrote {} requests to {path}", records.len());
        return;
    }

    let mut disk = Disk::new(cfg);
    let wall_start = std::time::Instant::now();
    let result = replay(&mut disk, &records);
    let wall = wall_start.elapsed().as_secs_f64();
    result.export_metrics(&run.reg);

    run.header(
        &format!(
            "Trace replay: {} requests on the Atlas 10K II",
            result.requests()
        ),
        &["metric", "value"],
    );
    run.row(Row::new().col("requests").col(result.requests()));
    for (metric, value, decimals) in [
        ("sim_span_s", result.sim_span().as_secs_f64(), 3),
        ("mean_response_ms", result.mean_response_ms(), 3),
        ("max_response_ms", result.max_response_ms(), 3),
        ("cache_hit_fraction", result.cache_hit_fraction(), 4),
    ] {
        run.row(Row::new().col(metric).num(value, decimals).key(metric));
    }

    // Wall-dependent numbers stay off stdout so the figure output is
    // byte-reproducible across machines and thread counts.
    let req_per_sec = result.requests() as f64 / wall.max(1e-9);
    eprintln!(
        "replayed {} requests in {:.3}s wall ({:.0} simulated requests/sec)",
        result.requests(),
        wall,
        req_per_sec
    );
    run.reg
        .set_gauge("replay.requests_per_sec", req_per_sec as u64);
}
