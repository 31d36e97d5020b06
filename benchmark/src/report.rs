//! From repetitions to the named metrics, and the three ways they are
//! written: a table for people, `results.json` for `compare`, and the one
//! JSON line the acceptance driver reads.

use crate::json::Value;
use crate::metrics::{Metric, END_TO_END, PAPER_ANCHORS, PER_LAYER};
use crate::runner::{Measured, Rep};
use crate::stats::{median, Summary};

/// The end-to-end metrics of one workload, in `END_TO_END` order.
pub fn end_to_end(m: &Measured) -> Vec<(&'static Metric, Summary)> {
    let reps = &m.reps;
    // Simulated results are identical across reps (checked when they were
    // collected), so the first rep speaks for all.
    let sim = &reps[0];
    let ops = sim.succeeded as f64;
    let constant = |value: f64| Summary {
        median: value,
        p25: value,
        p75: value,
        n: reps.len(),
    };
    let over = |f: fn(&Rep) -> f64| Summary::of(&reps.iter().map(f).collect::<Vec<_>>());
    // A closed loop has no response-time distribution: with one op in
    // flight, latency is the reciprocal of throughput, and that mean is
    // what its two latency rows carry.
    let mean_ms = 1e3 * sim.sim_s / ops;
    let (p50, p99, _) = sim.latency.unwrap_or((mean_ms, mean_ms, 0));
    let peak_rss = reps.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max);
    END_TO_END
        .iter()
        .map(|metric| {
            let summary = match metric.name {
                "host_ops_per_s" => over(|r| r.succeeded as f64 / (r.host_s * r.speed)),
                "sim_ops_per_s" => constant(ops / sim.sim_s),
                "sim_p50_ms" => constant(p50),
                "sim_p99_ms" => constant(p99),
                "sim_slo_met_frac" => constant(1.0 - sim.slo_missed as f64 / sim.attempted as f64),
                "succeeded_frac" => constant(ops / sim.attempted as f64),
                "setup_s" => over(|r| r.setup_s * r.speed),
                "peak_rss_mb" => Summary {
                    median: peak_rss,
                    ..over(|r| r.peak_rss_mb)
                },
                other => unreachable!("no definition for end-to-end metric {other}"),
            };
            (metric, summary)
        })
        .collect()
}

/// Prints one line per (workload, metric), then the per-layer table.
pub fn print(measured: &[Measured]) {
    println!(
        "{:<21} {:<17} {:>14} {:<9} {:<5} {:<7} {:>3} {:>14} {:>14}",
        "workload", "metric", "value", "unit", "clock", "better", "n", "p25", "p75"
    );
    for m in measured {
        for (metric, s) in end_to_end(m) {
            println!(
                "{:<21} {:<17} {:>14.6} {:<9} {:<5} {:<7} {:>3} {:>14.6} {:>14.6}",
                m.workload.name,
                metric.name,
                s.median,
                metric.unit,
                metric.clock.label(),
                metric.better.label(),
                s.n,
                s.p25,
                s.p75
            );
        }
        let w = m.workload;
        let sim = &m.reps[0];
        match (w.slo_ms, sim.latency) {
            (Some(limit), Some((_, _, n))) => println!(
                "  op = {}; open loop on the simulated clock (generator lateness 0), limit {limit} ms; percentiles over n = {n} completed, {} beyond p99",
                w.op,
                n / 100
            ),
            _ => println!(
                "  op = {}; closed loop: the latency rows carry mean simulated ms per op, and every completed op meets the limit",
                w.op
            ),
        }
        println!(
            "  host rows are in reference seconds; machine speed over the reps was {:.3} (1 = the sizing machine)",
            machine_speed(m)
        );
    }
    if measured.iter().all(|m| m.per_layer.is_none()) {
        return;
    }
    println!();
    println!("per-layer ledger (traced pass; 0 = layer not on that workload's path;");
    println!("modelled caches — drive firmware, ffs buffer cache — start empty)");
    print!("{:<40} {:<9} {:<5}", "metric", "unit", "clock");
    for m in measured {
        print!(" {:>20}", m.workload.name);
    }
    println!();
    for metric in &PER_LAYER {
        print!(
            "{:<40} {:<9} {:<5}",
            metric.name,
            metric.unit,
            metric.clock.label()
        );
        for m in measured {
            print!(" {:>20.6}", layer_value(m, metric.name));
        }
        if let Some((_, paper, source)) = PAPER_ANCHORS.iter().find(|a| a.0 == metric.name) {
            print!("   paper: {paper} ({source})");
        }
        println!();
    }
}

/// Median machine speed over a workload's reps.
fn machine_speed(m: &Measured) -> f64 {
    median(&m.reps.iter().map(|r| r.speed).collect::<Vec<_>>())
}

fn layer_value(m: &Measured, name: &str) -> f64 {
    m.per_layer
        .as_ref()
        .and_then(|p| p.get(name))
        .copied()
        .unwrap_or(0.0)
}

/// `results.json`: everything `compare` needs, and the run's parameters.
pub fn results_json(measured: &[Measured], seed: u64, quick: bool) -> Value {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let workloads = measured.iter().map(|m| {
        let e2e = end_to_end(m).into_iter().map(|(metric, s)| {
            (
                metric.name,
                Value::obj([
                    ("value", Value::from(s.median)),
                    ("p25", Value::from(s.p25)),
                    ("p75", Value::from(s.p75)),
                    ("n", Value::from(s.n as u64)),
                    ("unit", Value::from(metric.unit)),
                    ("clock", Value::from(metric.clock.label())),
                    ("better", Value::from(metric.better.label())),
                    ("bound", Value::from(metric.bound)),
                ]),
            )
        });
        let per_layer = m.per_layer.iter().flatten();
        (
            m.workload.name,
            Value::obj([
                ("op", Value::from(m.workload.op)),
                ("attempted", Value::from(m.reps[0].attempted)),
                ("digest", Value::from(m.reps[0].digest.as_str())),
                ("machine_speed", Value::from(machine_speed(m))),
                ("end_to_end", Value::obj(e2e)),
                (
                    "per_layer",
                    Value::obj(per_layer.map(|(k, v)| (k.as_str(), Value::from(*v)))),
                ),
            ]),
        )
    });
    Value::obj([
        ("seed", Value::from(seed)),
        ("quick", Value::from(quick)),
        ("cores", Value::from(cores as u64)),
        ("claim", Value::Null),
        ("workloads", Value::obj(workloads)),
    ])
}

/// The acceptance driver's line for one workload: every end-to-end metric
/// without tracing, every per-layer metric with.
pub fn driver_line(m: &Measured) -> Value {
    let attempted: u64 = m.reps.iter().map(|r| r.attempted).sum();
    let succeeded: u64 = m.reps.iter().map(|r| r.succeeded).sum();
    let entry = |unit: &str, value: f64| {
        Value::obj([("value", Value::from(value)), ("unit", Value::from(unit))])
    };
    let metrics = match &m.per_layer {
        None => Value::obj(
            end_to_end(m)
                .into_iter()
                .map(|(metric, s)| (metric.name, entry(metric.unit, s.median))),
        ),
        Some(_) => Value::obj(
            PER_LAYER
                .iter()
                .map(|metric| (metric.name, entry(metric.unit, layer_value(m, metric.name)))),
        ),
    };
    Value::obj([
        ("correct", Value::from(true)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(attempted - succeeded)),
        ("metrics", metrics),
    ])
}
