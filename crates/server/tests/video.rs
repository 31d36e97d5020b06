//! The §5.4 video server's admission maths and round measurement: the
//! paper's soft (measured) and hard (worst-case) stream counts, deadline
//! accounting and its `videoserver.*` registry keys.

use server::video::{hard, measure_rounds, soft, VideoConfig};
use sim_disk::models;
use sim_disk::SimDur;

/// A short measurement config for the tests; they measure 20 streams.
fn spec(aligned: bool, bit_rate_mbps: f64) -> VideoConfig {
    VideoConfig {
        aligned,
        rounds: 60,
        quantile: 0.99,
        bit_rate_mbps,
        seed: 1,
        ..Default::default()
    }
}

#[test]
fn aligned_rounds_are_shorter() {
    let cfg = models::quantum_atlas_10k_ii();
    let io = cfg.geometry.track(0).lbn_count() as u64;
    let a = measure_rounds(&cfg, &spec(true, 4.0), 20, io);
    let u = measure_rounds(&cfg, &spec(false, 4.0), 20, io);
    assert!(
        a.mean_round < u.mean_round,
        "{:?} !< {:?}",
        a.mean_round,
        u.mean_round
    );
    assert!(a.quantile_round >= a.mean_round);
    assert!(a.max_round >= a.quantile_round);
}

#[test]
#[should_panic(expected = "must be shorter than zone 0")]
fn a_zone_sized_request_is_refused_up_front() {
    let cfg = models::small_test_disk();
    let zone = cfg.geometry.zones()[0].lbn_count;
    measure_rounds(&cfg, &spec(false, 4.0), 20, zone);
}

#[test]
fn overloaded_rounds_miss_deadlines() {
    let cfg = models::quantum_atlas_10k_ii();
    let io = cfg.geometry.track(0).lbn_count() as u64;
    // 20 streams at track-sized I/Os are comfortable at 4 Mb/s; at an
    // absurd 400 Mb/s bit rate every round overruns the interval.
    let ok = measure_rounds(&cfg, &spec(true, 4.0), 20, io);
    let bad = measure_rounds(&cfg, &spec(true, 400.0), 20, io);
    assert_eq!(ok.deadline_misses, 0, "feasible point misses nothing");
    assert!(ok.min_buffer_ppm > 0);
    assert_eq!(bad.deadline_misses, bad.rounds);
    assert_eq!(bad.min_buffer_ppm, 0, "buffer fully drained");
    let reg = traxtent::obs::Registry::new();
    ok.export_metrics(&reg);
    let snap = reg.snapshot();
    assert_eq!(snap.get("videoserver.rounds"), Some(ok.rounds));
    assert_eq!(snap.get("videoserver.deadline_misses"), Some(0));
    assert_eq!(
        snap.get("videoserver.buffer_drain_ppm"),
        Some(1_000_000 - ok.min_buffer_ppm)
    );
}

#[test]
fn hard_admission_matches_paper_264kb() {
    // §5.4.2: 264 KB I/Os at 4 Mb/s — 36 streams unaligned vs 67
    // aligned per disk.
    let cfg = models::quantum_atlas_10k_ii();
    let io = 528; // 264 KB
    let aligned = hard::max_streams(&cfg, 4.0, io, true);
    let unaligned = hard::max_streams(&cfg, 4.0, io, false);
    assert!((60..=75).contains(&aligned), "aligned {aligned}");
    assert!((30..=42).contains(&unaligned), "unaligned {unaligned}");
    assert!(aligned > unaligned + 20);
}

#[test]
fn hard_admission_matches_paper_528kb() {
    // 528 KB I/Os: 52 unaligned vs 75 aligned.
    let cfg = models::quantum_atlas_10k_ii();
    let io = 1056;
    let aligned = hard::max_streams(&cfg, 4.0, io, true);
    let unaligned = hard::max_streams(&cfg, 4.0, io, false);
    assert!((68..=82).contains(&aligned), "aligned {aligned}");
    assert!((45..=58).contains(&unaligned), "unaligned {unaligned}");
}

#[test]
fn soft_admission_prefers_aligned() {
    // At a 0.5 s round cap with track-sized I/Os the aligned server
    // supports many more streams (paper: 70 vs 45).
    let cfg = models::quantum_atlas_10k_ii();
    let server_a = VideoConfig {
        rounds: 60,
        quantile: 0.98,
        aligned: true,
        ..Default::default()
    };
    let server_u = VideoConfig {
        rounds: 60,
        quantile: 0.98,
        aligned: false,
        ..Default::default()
    };
    let io = 528;
    let cap = SimDur::from_secs_f64(0.5);
    let a = soft::max_streams_at_round(&cfg, &server_a, io, cap);
    let u = soft::max_streams_at_round(&cfg, &server_u, io, cap);
    assert!(a > u, "aligned {a} streams vs unaligned {u}");
    assert!((55..=80).contains(&a), "aligned {a}");
    assert!((35..=55).contains(&u), "unaligned {u}");
}

#[test]
fn operating_point_latency_grows_with_streams() {
    let cfg = models::quantum_atlas_10k_ii();
    let server = VideoConfig {
        rounds: 40,
        quantile: 0.95,
        ..Default::default()
    };
    let low = soft::operating_point(&cfg, &server, 20).expect("feasible");
    let high = soft::operating_point(&cfg, &server, 60).expect("feasible");
    assert!(high.startup_latency > low.startup_latency);
    assert_eq!(
        low.startup_latency.as_ns(),
        low.measurement.quantile_round.as_ns() * 11
    );
}

#[test]
fn worst_case_monotone_in_io_size() {
    let cfg = models::quantum_atlas_10k_ii();
    let a = hard::worst_case_request(&cfg, 10, 528, false);
    let b = hard::worst_case_request(&cfg, 10, 1056, false);
    assert!(b > a);
}
