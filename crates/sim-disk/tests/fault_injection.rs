//! Integration tests of the fault-injection layer against a real drive
//! run: determinism, zero-perturbation when off, media-error accounting,
//! grown-defect remapping, transient recovery vs. surfacing, and trace
//! accounting under faults.

use sim_disk::disk::{Disk, Request};
use sim_disk::fault::{FaultConfig, Jitter, SenseKey};
use sim_disk::models;
use sim_disk::trace::{MemorySink, Phase, TraceEvent, Tracer, Value};
use sim_disk::{SimDur, SimTime};
use std::sync::{Arc, Mutex};

/// A deterministic mixed workload; returns the completion stream.
fn run(disk: &mut Disk, count: u64) -> Vec<(SimTime, u64)> {
    let cap = disk.geometry().capacity_lbns();
    let mut t = SimTime::ZERO;
    let mut out = Vec::new();
    for i in 0..count {
        let lbn = (i * 2_654_435_761) % (cap - 1024);
        let req = if i % 4 == 3 {
            Request::write(lbn, 16 + (i * 37) % 512)
        } else {
            Request::read(lbn, 16 + (i * 37) % 512)
        };
        let c = disk.service(req, t);
        t = c.completion;
        out.push((c.completion, c.breakdown.total().as_ns()));
    }
    out
}

fn faulty_config() -> FaultConfig {
    FaultConfig {
        media_per_million: 2000,
        grown_per_million: 500_000,
        transient_per_million: 20_000,
        seek_jitter: Jitter::Gaussian(0.05),
        head_switch_jitter: Jitter::Uniform(0.05),
        rot_jitter: Jitter::Gaussian(0.02),
        seed: 0xfa17,
        ..FaultConfig::default()
    }
}

#[test]
fn try_service_equals_service_with_faults_off() {
    let mut a = Disk::new(models::small_test_disk());
    let mut b = Disk::new(models::small_test_disk());
    let mut t = SimTime::ZERO;
    for i in 0..100u64 {
        let req = Request::read((i * 977) % 10_000, 64);
        let ca = a.service(req, t);
        let cb = b.try_service(req, t).expect("no faults configured");
        assert_eq!(ca.completion, cb.completion);
        assert_eq!(ca.breakdown, cb.breakdown);
        t = ca.completion;
    }
    assert_eq!(a.fault_stats(), Default::default());
}

#[test]
fn fault_runs_replay_bit_identically() {
    let mk = || {
        let mut cfg = models::small_test_disk();
        cfg.fault = faulty_config();
        Disk::new(cfg)
    };
    let (mut a, mut b) = (mk(), mk());
    assert_eq!(run(&mut a, 400), run(&mut b, 400));
    assert_eq!(a.fault_stats(), b.fault_stats());
    assert!(a.fault_stats().media_errors > 0, "workload must hit faults");
}

#[test]
fn different_fault_seeds_draw_different_faults() {
    let mk = |seed| {
        let mut cfg = models::small_test_disk();
        cfg.fault = FaultConfig {
            seed,
            ..faulty_config()
        };
        Disk::new(cfg)
    };
    let (mut a, mut b) = (mk(1), mk(2));
    assert_ne!(run(&mut a, 400), run(&mut b, 400));
}

#[test]
fn media_errors_cost_revolutions_and_are_counted() {
    let mut cfg = models::small_test_disk();
    cfg.fault = FaultConfig {
        media_per_million: 20_000,
        ..FaultConfig::default()
    };
    let rev = cfg.spindle.revolution();
    let mut faulty = Disk::new(cfg);
    let mut clean = Disk::new(models::small_test_disk());
    let base: u64 = run(&mut clean, 300).iter().map(|(_, b)| b).sum();
    let with_faults: u64 = run(&mut faulty, 300).iter().map(|(_, b)| b).sum();
    let stats = faulty.fault_stats();
    assert!(stats.media_errors > 0);
    assert!(
        with_faults >= base + stats.media_errors * rev.as_ns(),
        "each media error must cost at least one revolution \
         ({with_faults} vs {base} + {} revs)",
        stats.media_errors
    );
}

#[test]
fn grown_defects_remap_sectors_mid_run() {
    let mut cfg = models::small_test_disk();
    // Give the drive spare space so reallocation can succeed.
    let mut spec = cfg.geometry.spec().clone();
    spec.spare = sim_disk::defects::SpareScheme::SectorsPerCylinder(8);
    cfg.geometry = spec.build().unwrap();
    cfg.fault = FaultConfig {
        media_per_million: 50_000,
        grown_per_million: 1_000_000,
        ..FaultConfig::default()
    };
    let mut d = Disk::new(cfg);
    let _ = run(&mut d, 300);
    let stats = d.fault_stats();
    assert!(stats.media_errors > 0);
    assert!(
        stats.grown_defects > 0,
        "every media error escalates at grown=1000000: {stats:?}"
    );
    // The geometry now carries the remaps (an LBN that errors twice is
    // re-remapped, so distinct remapped LBNs can be fewer than grow events).
    let cap = d.geometry().capacity_lbns();
    let remapped = (0..cap).filter(|&l| d.geometry().is_remapped(l)).count() as u64;
    assert!(remapped > 0 && remapped <= stats.grown_defects);
}

#[test]
fn transients_recover_in_service_and_surface_in_try_service() {
    let mut cfg = models::small_test_disk();
    cfg.fault = FaultConfig {
        transient_per_million: 300_000, // ~30 % per command
        transient_retry: SimDur::from_micros_f64(500.0),
        ..FaultConfig::default()
    };
    let overhead = cfg.cmd_overhead;

    // service(): never fails, charges retries to overhead.
    let mut d = Disk::new(cfg.clone());
    let mut t = SimTime::ZERO;
    let mut retried = 0;
    for i in 0..200u64 {
        let c = d.service(Request::read((i * 523) % 20_000, 32), t);
        if c.breakdown.overhead > overhead {
            retried += 1;
        }
        t = c.completion;
    }
    assert_eq!(d.fault_stats().transient_surfaced, 0);
    assert!(d.fault_stats().transient_recovered > 0);
    assert!(retried > 0, "some commands must show retry overhead");

    // try_service(): surfaces ABORTED COMMAND; the host retry (a fresh
    // command) eventually succeeds.
    let mut d = Disk::new(cfg);
    let mut t = SimTime::ZERO;
    let mut aborted = 0;
    for i in 0..200u64 {
        let mut attempts = 0;
        loop {
            match d.try_service(Request::read((i * 523) % 20_000, 32), t) {
                Ok(c) => {
                    t = c.completion;
                    break;
                }
                Err(fault) => {
                    assert_eq!(fault.sense, SenseKey::AbortedCommand);
                    assert!(fault.at >= t);
                    t = fault.at;
                    aborted += 1;
                    attempts += 1;
                    assert!(attempts < 50, "fresh draws must eventually succeed");
                }
            }
        }
    }
    assert!(aborted > 0);
    assert_eq!(d.fault_stats().transient_surfaced, aborted);
}

#[test]
fn try_service_rejects_out_of_range_requests() {
    let mut d = Disk::new(models::small_test_disk());
    let cap = d.geometry().capacity_lbns();
    let err = d.try_service(Request::read(cap - 1, 2), SimTime::ZERO);
    assert_eq!(err.unwrap_err().sense, SenseKey::IllegalRequest);
    // The drive is still usable afterwards.
    assert!(d.try_service(Request::read(0, 8), SimTime::ZERO).is_ok());
}

#[test]
fn jitter_perturbs_timings_but_preserves_accounting() {
    let sink = Arc::new(Mutex::new(MemorySink::new()));
    let mut cfg = models::small_test_disk();
    cfg.fault = faulty_config();
    cfg.tracer = Some(Tracer::new(sink.clone()));
    let mut d = Disk::new(cfg);
    let _ = run(&mut d, 200);

    let events = sink.lock().unwrap().events().to_vec();
    let mut fault_events = 0;
    let mut completes = 0;
    for e in &events {
        match e {
            TraceEvent::Phase(Phase {
                name: "fault",
                attrs,
                ..
            }) => {
                let [("kind", Value::Text(kind)), ("lbn", Value::Num(_))] = &attrs[..] else {
                    panic!("fault fields: {attrs:?}");
                };
                assert!(
                    [
                        "media_retry",
                        "grown_defect",
                        "grown_defect_unspared",
                        "transient_retry",
                        "transient_abort"
                    ]
                    .contains(&kind.as_str()),
                    "unexpected fault kind {kind}"
                );
                fault_events += 1;
            }
            TraceEvent::Complete {
                queue,
                overhead,
                seek,
                head_switch,
                rot_latency,
                media,
                bus,
                write_settle,
                response,
                ..
            } => {
                completes += 1;
                let sum = queue
                    + overhead
                    + seek
                    + head_switch
                    + rot_latency
                    + media
                    + bus
                    + write_settle;
                assert!(
                    response.abs_diff(sum) <= 20_000,
                    "under faults, phases sum to {sum} but response is {response}"
                );
            }
            _ => {}
        }
    }
    assert_eq!(completes, 200);
    assert!(fault_events > 0, "the fault stream must be visible");
    // Fault events survive the JSONL round trip.
    for e in events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Phase(p) if p.name == "fault"))
    {
        let back = TraceEvent::parse_json(&e.to_json()).expect("fault event parses");
        assert_eq!(&back, e);
    }
}
