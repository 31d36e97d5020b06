//! The benchmark's vocabulary: every metric and workload by name, with its
//! unit, clock, direction and — for end-to-end metrics — regression bound.
//!
//! `BENCHMARK.json` at the repo root is `describe()` written to a file; a
//! unit test keeps the two equal.

use crate::json::Value;
use crate::workload::WORKLOADS;

/// Which clock a number is read from. Simulated values are a pure
/// function of (code, seed) and repeat exactly; host values are this
/// machine's and carry its noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Sim,
    /// A count of ops, neither clock.
    None,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::None => "-",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// The share of the baseline's median by which the metric may worsen
    /// before a change counts as a regression. End-to-end metrics only.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
        bound,
    }
}

/// The eight end-to-end metrics, reported by every workload.
///
/// Every bound is about three times the widest quartile spread seen over
/// ten runs at ten seeds, capped at the contract's 0.25. Simulated metrics
/// repeat exactly at a fixed seed, where 1 % would do; theirs are wider
/// because the acceptance driver compares runs across seeds. The two host
/// times sit at the cap because that is what the sizing machine's noise
/// leaves resolvable in one run (see `calibrate.rs`).
pub const END_TO_END: [Metric; 8] = [
    e2e("host_ops_per_s", "ops/s", Clock::Host, Better::Higher, 0.25),
    e2e("sim_ops_per_s", "ops/s", Clock::Sim, Better::Higher, 0.04),
    e2e("sim_p50_ms", "ms", Clock::Sim, Better::Lower, 0.06),
    e2e("sim_p99_ms", "ms", Clock::Sim, Better::Lower, 0.18),
    e2e(
        "sim_slo_met_frac",
        "fraction",
        Clock::Sim,
        Better::Higher,
        0.01,
    ),
    e2e(
        "succeeded_frac",
        "fraction",
        Clock::None,
        Better::Higher,
        0.001,
    ),
    e2e("setup_s", "s", Clock::Host, Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Clock::Host, Better::Lower, 0.10),
];

/// A per-layer metric: reported, never gated.
const fn layer(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> Metric {
    e2e(name, unit, clock, better, 0.0)
}

use Better::{Higher, Lower};
use Clock::{Host, Sim};

/// The per-layer ledger. A workload reports the rows its layers produce;
/// the rest read 0 for it.
pub const PER_LAYER: [Metric; 78] = [
    layer("sim_disk.cmds", "count", Sim, Lower),
    layer("sim_disk.host_ns_per_cmd", "ns", Host, Lower),
    layer("sim_disk.host_share", "fraction", Host, Lower),
    layer("sim_disk.sim_seek_frac", "fraction", Sim, Lower),
    layer("sim_disk.sim_rot_frac", "fraction", Sim, Lower),
    layer("sim_disk.sim_media_frac", "fraction", Sim, Higher),
    layer("sim_disk.sim_head_switch_frac", "fraction", Sim, Lower),
    layer("sim_disk.sim_overhead_bus_frac", "fraction", Sim, Lower),
    layer("sim_disk.sim_queue_ms_mean", "ms", Sim, Lower),
    layer("sim_disk.sim_busy_frac", "fraction", Sim, Lower),
    layer("sim_disk.cache_hit_frac", "fraction", Sim, Higher),
    layer("sim_disk.track_local_frac", "fraction", Sim, Higher),
    layer(
        "sim_disk.anchor.aligned_efficiency_gain",
        "ratio",
        Sim,
        Higher,
    ),
    layer("server.self_ns_per_req", "ns", Host, Lower),
    layer("server.host_share", "fraction", Host, Lower),
    layer("server.sched_select_ns", "ns", Host, Lower),
    layer("server.rounds", "count", Sim, Lower),
    layer("server.cmds_per_round", "count", Sim, Higher),
    layer("server.coalesced_frac", "fraction", Sim, Higher),
    layer("server.sim_mean_depth", "count", Sim, Lower),
    layer("server.sim_max_depth", "count", Sim, Lower),
    layer("server.reject_frac", "fraction", Sim, Lower),
    layer("server.overload_reject_frac", "fraction", Sim, Lower),
    layer("fleet.self_ns_per_req", "ns", Host, Lower),
    layer("fleet.host_share", "fraction", Host, Lower),
    layer("fleet.xor_ns_per_sector", "ns", Host, Lower),
    layer("fleet.member_cmds_per_req", "count", Sim, Lower),
    layer("fleet.degraded_read_frac", "fraction", Sim, Lower),
    layer("fleet.reconstructed_sectors_per_req", "count", Sim, Lower),
    layer("fleet.sim_busy_min_frac", "fraction", Sim, Higher),
    layer("fleet.sim_busy_max_frac", "fraction", Sim, Higher),
    layer("fleet.overload_busy_min_frac", "fraction", Sim, Higher),
    layer("fleet.rebuild_host_ms", "ms", Host, Lower),
    layer("fleet.sim_rebuild_s", "s", Sim, Lower),
    layer("fleet.scrub_host_ms", "ms", Host, Lower),
    layer("ffs.self_ns_per_op", "ns", Host, Lower),
    layer("ffs.host_share", "fraction", Host, Lower),
    layer("ffs.disk_reqs_per_op", "count", Sim, Lower),
    layer("ffs.mean_request_kb", "KB", Sim, Higher),
    layer("ffs.cache_hit_frac", "fraction", Sim, Higher),
    layer("ffs.sim_s.scan", "s", Sim, Lower),
    layer("ffs.sim_s.diff", "s", Sim, Lower),
    layer("ffs.sim_s.copy", "s", Sim, Lower),
    layer("ffs.sim_s.postmark", "s", Sim, Lower),
    layer("ffs.sim_s.ssh_build", "s", Sim, Lower),
    layer("ffs.sim_s.head_star", "s", Sim, Lower),
    layer("ffs.anchor.diff_speedup", "ratio", Sim, Higher),
    layer("core.alloc_ns_per_call", "ns", Host, Lower),
    layer("core.planner_ns_per_call", "ns", Host, Lower),
    layer("core.boundary_lookup_ns", "ns", Host, Lower),
    layer("core.span_overhead_frac", "fraction", Host, Lower),
    layer("core.spans_per_req", "count", Sim, Lower),
    layer("lfs.self_ns_per_update", "ns", Host, Lower),
    layer("lfs.host_share", "fraction", Host, Lower),
    layer("lfs.cleaner_passes", "count", Sim, Lower),
    layer("lfs.write_cost", "ratio", Sim, Lower),
    layer("lfs.ti_aligned", "ratio", Sim, Lower),
    layer("lfs.ti_unaligned", "ratio", Sim, Lower),
    layer("lfs.owc_aligned", "ratio", Sim, Lower),
    layer("lfs.log_append_ns_per_batch", "ns", Host, Lower),
    layer("lfs.recover_host_ms", "ms", Host, Lower),
    layer("lfs.anchor.owc_reduction", "fraction", Sim, Higher),
    layer("dixtrac.self_us_per_track", "us", Host, Lower),
    layer("dixtrac.host_share", "fraction", Host, Lower),
    layer("dixtrac.general_us_per_track", "us", Host, Lower),
    layer("dixtrac.scsi_us_per_track", "us", Host, Lower),
    layer("dixtrac.probes_per_track", "count", Sim, Lower),
    layer("dixtrac.translations_per_track", "count", Sim, Lower),
    layer("dixtrac.mispredict_frac", "fraction", Sim, Lower),
    layer("dixtrac.exact_frac", "fraction", Sim, Higher),
    layer("dixtrac.sim_s.general", "s", Sim, Lower),
    layer("dixtrac.sim_s.scsi", "s", Sim, Lower),
    layer("scsi.cmds", "count", Sim, Lower),
    layer("workloads.gen_ns_per_req", "ns", Host, Lower),
    layer("workloads.parse_ns_per_line", "ns", Host, Lower),
    layer("workloads.host_share", "fraction", Host, Lower),
    layer("bench.host_share", "fraction", Host, Lower),
    layer("bench.trace_overhead_frac", "fraction", Host, Lower),
];

/// The layers a host share is reported for; per workload they sum to 1.
pub const SHARE_LAYERS: [&str; 8] = [
    "sim_disk",
    "server",
    "fleet",
    "ffs",
    "lfs",
    "dixtrac",
    "workloads",
    "bench",
];

/// What the paper reports for each anchor metric, printed beside the
/// simulated value so a simulated gain has a stated error. Beyond these
/// three the model is unvalidated against hardware.
pub const PAPER_ANCHORS: [(&str, f64, &str); 3] = [
    (
        "sim_disk.anchor.aligned_efficiency_gain",
        1.43,
        "Figure 1 point A: efficiency 0.73 aligned / 0.51 unaligned at the track size",
    ),
    (
        "ffs.anchor.diff_speedup",
        1.23,
        "Table 2: diff takes 69.7 s on stock FFS, 56.6 s on traxtent FFS",
    ),
    (
        "lfs.anchor.owc_reduction",
        0.44,
        "Figure 10: overall write cost 44 % lower at the track size",
    ),
];

/// How long one driver run measures, and the command that makes it.
pub const RUN_SECONDS: u64 = 15;
const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// The contents of `BENCHMARK.json`.
pub fn describe() -> Value {
    let strings = |xs: &[&str]| Value::Arr(xs.iter().map(|&s| Value::from(s)).collect());
    Value::obj([
        ("command", strings(&COMMAND)),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj([("name", Value::from(w.name)), ("why", Value::from(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better.label())),
                            ("bound", Value::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_describe_written_out() {
        let committed = crate::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert!(
            committed == describe(),
            "BENCHMARK.json is stale: regenerate it with `benchmark describe > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for layer in SHARE_LAYERS {
            let share = format!("{layer}.host_share");
            assert!(PER_LAYER.iter().any(|m| m.name == share), "{share}");
        }
    }
}
