//! Behavioural tests of the drive engine across firmware and bus
//! configurations: the invariants every figure harness relies on.

use sim_disk::bus::BusConfig;
use sim_disk::disk::{Disk, DiskConfig, Request};
use sim_disk::models;
use sim_disk::{SimDur, SimTime};

fn atlas(bus: BusConfig, zero_latency: bool) -> Disk {
    let base = models::quantum_atlas_10k_ii();
    Disk::new(DiskConfig {
        bus,
        zero_latency,
        ..base
    })
}

/// Time never runs backwards: completions are ordered with issues, and the
/// mechanism is never double-booked.
#[test]
fn completions_are_causally_ordered() {
    let mut d = atlas(BusConfig::in_order(160.0), true);
    let mut t = SimTime::ZERO;
    let mut last_media_end = SimTime::ZERO;
    for i in 0..200u64 {
        let lbn = (i * 1_234_567) % 4_000_000;
        let c = d.service(Request::read(lbn, 64 + (i % 512)), t);
        assert!(c.service_start >= c.issue);
        assert!(c.media_end >= c.service_start || c.cache_hit);
        assert!(c.completion >= c.media_end);
        // FCFS: the mechanism serves requests in order.
        assert!(c.media_end >= last_media_end);
        last_media_end = c.media_end;
        t = c.issue.max(c.media_end);
    }
}

/// An infinitely fast bus means completion == media end for reads.
#[test]
fn infinite_bus_has_no_tail() {
    let mut d = atlas(BusConfig::infinite(), true);
    let c = d.service(Request::read(100_000, 528), SimTime::ZERO);
    assert_eq!(c.completion, c.media_end);
    assert_eq!(c.breakdown.bus, SimDur::ZERO);
}

/// Out-of-order delivery never makes a read slower than in-order delivery.
#[test]
fn out_of_order_bus_dominates_in_order() {
    for i in 0..40u64 {
        let lbn = (i * 999_331) % 4_000_000;
        let mut in_order = atlas(BusConfig::in_order(160.0), true);
        let mut ooo = atlas(BusConfig::out_of_order(160.0), true);
        let a = in_order.service(Request::read(lbn, 528), SimTime::ZERO);
        let b = ooo.service(Request::read(lbn, 528), SimTime::ZERO);
        assert!(
            b.completion <= a.completion,
            "lbn {lbn}: out-of-order {} should not exceed in-order {}",
            b.completion,
            a.completion
        );
    }
}

/// A zero-latency drive never services a single-track read slower than the
/// same drive without zero-latency support.
#[test]
fn zero_latency_dominates_ordinary() {
    for i in 0..40u64 {
        let track = (i * 97) % 1000;
        let start = track * 528;
        let mut zl = atlas(BusConfig::infinite(), true);
        let mut ord = atlas(BusConfig::infinite(), false);
        // Same arrival conditions: single read from idle state.
        let a = zl.service(Request::read(start, 528), SimTime::ZERO);
        let b = ord.service(Request::read(start, 528), SimTime::ZERO);
        assert!(a.completion <= b.completion, "track {track}");
    }
}

/// Reads spanning a zone change (different sectors per track) service
/// correctly and account every sector.
#[test]
fn cross_zone_reads_work() {
    let mut d = atlas(BusConfig::in_order(160.0), true);
    let zone0 = d.geometry().zones()[0];
    let boundary = zone0.first_lbn + zone0.lbn_count;
    let c = d.service(Request::read(boundary - 600, 1200), SimTime::ZERO);
    assert!(c.completion > SimTime::ZERO);
    // Media time must cover at least the larger zone's transfer rate for
    // 1200 sectors.
    let min_media = d.spindle().sweep(1200.0 / 528.0 / 2.0);
    assert!(c.breakdown.media > min_media);
}

/// Disabling the firmware cache turns every repeat read into mechanical
/// work.
#[test]
fn disabled_cache_never_hits() {
    let mut cfg = models::quantum_atlas_10k_ii();
    cfg.cache.segments = 0;
    let mut d = Disk::new(cfg);
    let a = d.service(Request::read(0, 64), SimTime::ZERO);
    let b = d.service(Request::read(0, 64), a.completion);
    assert!(!a.cache_hit && !b.cache_hit);
}

/// The breakdown accounts for the whole response time of an isolated
/// request (no queueing): components sum to completion − issue.
#[test]
fn breakdown_sums_to_response() {
    let mut d = atlas(BusConfig::in_order(160.0), true);
    for i in 0..60u64 {
        d.reset();
        let lbn = (i * 777_777) % 4_000_000;
        let c = d.service(Request::read(lbn, 300), SimTime::ZERO);
        let b = &c.breakdown;
        let parts = [
            b.queue,
            b.overhead,
            b.seek,
            b.head_switch,
            b.rot_latency,
            b.media,
            b.bus,
            b.write_settle,
        ];
        let total: u64 = parts.iter().map(|d| d.as_ns()).sum();
        let resp = c.response_time().as_ns();
        assert!(
            total.abs_diff(resp) < 20_000, // ≤ 20 µs of rounding across components
            "lbn {lbn}: breakdown {total} ns vs response {resp} ns"
        );
    }
}

/// Writes on every Table-1 drive complete and pay the settle penalty
/// exactly once.
#[test]
fn writes_work_on_all_eval_drives() {
    for cfg in models::table1_sheets().iter().map(|sheet| sheet.build()) {
        let settle = cfg.write_settle;
        let mut d = Disk::new(cfg);
        let c = d.service(Request::write(10_000, 700), SimTime::ZERO);
        assert_eq!(c.breakdown.write_settle, settle);
        assert_eq!(c.completion, c.media_end);
    }
}

/// The drive can service every sector of a small disk, first to last.
#[test]
fn whole_disk_sweep() {
    let mut d = Disk::new(models::small_test_disk());
    let cap = d.geometry().capacity_lbns();
    let mut t = SimTime::ZERO;
    let mut at = 0;
    while at < cap {
        let len = 997.min(cap - at);
        let c = d.service(Request::read(at, len), t);
        t = c.completion;
        at += len;
    }
    assert_eq!(at, cap);
}

/// Requests of one sector have sane sub-revolution media components.
#[test]
fn single_sector_read_is_fast() {
    let mut d = atlas(BusConfig::infinite(), true);
    let c = d.service(Request::read(1_000_000, 1), SimTime::ZERO);
    assert!(c.breakdown.media < d.spindle().sweep(2.0 / 353.0));
    assert!(c.breakdown.rot_latency < d.spindle().revolution());
}
