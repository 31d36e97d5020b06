//! `disk_replay`: two synthetic traces replayed on a bare Atlas 10K II.
//!
//! `sim-disk` does all the work and no upper layer does any. This is the
//! bottom row of the ledger, and the workload on which a change to
//! `server`, `fleet` or `ffs` must show no movement. It stands in for a
//! real PC trace (Boukhobza, PAPERS.md) until one is committed.

use super::{ns_per_call, ratio, Facts, Outcome, Probe, Scale, Workload};
use sim_disk::disk::Disk;
use sim_disk::models;
use std::time::Instant;
use workloads::arrivals::{poisson_trace, PoissonSpec};
use workloads::microbench::{run_random_io, Alignment, QueueDepth, RandomIoSpec};
use workloads::replay::{parse_trace, render_trace, replay, synthetic_trace, SyntheticSpec};

pub const WORKLOAD: Workload = Workload {
    name: "disk_replay",
    why: "sim-disk does all the work and no upper layer any: the bottom row of the ledger, where a change to server, fleet or ffs must show no movement",
    op: "drive request",
    slo_ms: Some(50.0),
    drive_owner: "workloads",
    run,
};

/// Part A: 128-sector requests, 70 % reads, one every 14 ms on average.
const SMALL_REQUESTS: usize = 500_000;
/// Part B: `SyntheticSpec::default_for` — track-sized, unaligned, 80 %
/// reads — slowed from one request every 18 ms to one every 26 ms. At 18 ms
/// the drive is busy enough that the 99th percentile is a queueing tail
/// which moves 6 % from seed to seed; at 26 ms it moves under 1 %.
const TRACK_REQUESTS: usize = 125_000;

fn run(seed: u64, scale: Scale, probe: &Probe) -> Result<Outcome, String> {
    let config = models::quantum_atlas_10k_ii();
    let capacity = config.geometry.capacity_lbns();
    let gen = Instant::now();
    let small = synthetic_trace(&SyntheticSpec {
        count: scale.n(SMALL_REQUESTS),
        capacity_lbns: capacity,
        io_sectors: 128,
        read_fraction: 0.7,
        interarrival_ms: 14.0,
        seed,
    });
    let track = synthetic_trace(&SyntheticSpec {
        interarrival_ms: 26.0,
        ..SyntheticSpec::default_for(capacity, scale.n(TRACK_REQUESTS), seed ^ 0xb)
    });
    let offered = small.len() + track.len();
    let gen_ns_per_req = gen.elapsed().as_nanos() as f64 / offered as f64;
    let mut disk_a = Disk::new(probe.drive(config.clone()));
    let mut disk_b = Disk::new(probe.drive(config));

    let (a, b) = probe.timed(|| {
        (
            probe.call("workloads.replay", "workloads", || {
                replay(&mut disk_a, &small)
            }),
            probe.call("workloads.replay", "workloads", || {
                replay(&mut disk_b, &track)
            }),
        )
    });

    if a.requests() + b.requests() != offered {
        return Err(format!(
            "replayed {} of {offered} requests",
            a.requests() + b.requests()
        ));
    }
    // A replay is open: each request is issued at its trace arrival, so
    // the drive's response time is already measured from the scheduled
    // arrival and the generator is never late.
    let responses_ms = a
        .completions
        .iter()
        .chain(&b.completions)
        .map(|c| c.response_time().as_millis_f64())
        .collect();
    let mut observed = Vec::new();
    if probe.spans().is_some() {
        observed.push(("workloads.gen_ns_per_req", gen_ns_per_req));
        observed.extend(direct_prices(seed, scale)?);
    }
    Ok(Outcome {
        attempted: offered as u64,
        succeeded: offered as u64,
        sim_s: a.sim_span().as_secs_f64() + b.sim_span().as_secs_f64(),
        responses_ms,
        observed,
        ..Outcome::default()
    })
}

/// Records in the text-format round trip.
const PARSE_RECORDS: usize = 100_000;

/// The `workloads` text format and the paper's headline ratio, which have
/// no workload of their own.
fn direct_prices(seed: u64, scale: Scale) -> Result<Facts, String> {
    let config = models::quantum_atlas_10k_ii();
    // Poisson arrivals are whole microseconds, which the text format
    // carries exactly; the synthetic generator's nanosecond arrivals are
    // not meant to round-trip.
    let records = poisson_trace(&PoissonSpec {
        rate_per_sec: 100.0,
        count: scale.n(PARSE_RECORDS),
        capacity_lbns: config.geometry.capacity_lbns(),
        io_sectors: 64,
        read_fraction: 0.5,
        seed,
    });
    let text = render_trace(&records);
    let mut parsed = Vec::new();
    let parse_ns = ns_per_call(1, |_| {
        parsed = parse_trace(&text).expect("rendered traces parse")
    });
    if parsed != records {
        return Err("render_trace -> parse_trace did not round-trip".into());
    }

    // Paper anchor: Figure 1's point A, track-sized random reads with two
    // requests outstanding, aligned against unaligned.
    let mut disk = Disk::new(config);
    let mut efficiency = |alignment| {
        let spec = RandomIoSpec {
            count: scale.n(5000).max(100),
            seed,
            ..RandomIoSpec::reads(528, alignment, QueueDepth::Two)
        };
        run_random_io(&mut disk, &spec).efficiency(QueueDepth::Two)
    };
    let aligned = efficiency(Alignment::TrackAligned);
    let unaligned = efficiency(Alignment::Unaligned);
    Ok(vec![
        (
            "workloads.parse_ns_per_line",
            parse_ns / records.len() as f64,
        ),
        (
            "sim_disk.anchor.aligned_efficiency_gain",
            ratio(aligned, unaligned),
        ),
    ])
}
