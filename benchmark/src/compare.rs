//! `compare <a.json> <b.json>`: is run B worse than run A?
//!
//! Used A/A to show the benchmark agrees with itself, and by later PRs
//! parent-against-change. One row per (workload, end-to-end metric).

use crate::json::Value;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The medians differ by more than the bound, but the two quartile
    /// ranges overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// B's median relative to A's, as a signed share of A's.
pub fn delta(a: &Summary, b: &Summary) -> f64 {
    if a.median == b.median {
        0.0
    } else {
        (b.median - a.median) / a.median.abs()
    }
}

pub fn verdict(a: &Summary, b: &Summary, higher_is_better: bool, bound: f64) -> Verdict {
    let d = delta(a, b);
    if d.abs() <= bound {
        return Verdict::Same;
    }
    if a.p25 <= b.p75 && b.p25 <= a.p75 {
        return Verdict::Unresolved;
    }
    if (d > 0.0) == higher_is_better {
        Verdict::Better
    } else {
        Verdict::Worse
    }
}

/// Prints the comparison; returns how many rows were `worse`.
pub fn compare(a: &Value, b: &Value) -> Result<usize, String> {
    let side = |m: &Value| -> Option<Summary> {
        Some(Summary {
            median: m.get("value")?.as_f64()?,
            p25: m.get("p25")?.as_f64()?,
            p75: m.get("p75")?.as_f64()?,
            n: m.get("n")?.as_f64()? as usize,
        })
    };
    println!(
        "{:<21} {:<17} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "delta", "bound"
    );
    let (mut worse, mut unresolved, mut rows) = (0, 0, 0);
    let workloads = a.get("workloads").ok_or("a: no `workloads`")?;
    for (name, wa) in workloads.entries() {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<21} only in a");
            continue;
        };
        let metrics = wa.get("end_to_end").ok_or("a: no `end_to_end`")?;
        for (metric, ma) in metrics.entries() {
            let mb = wb.get("end_to_end").and_then(|e| e.get(metric));
            let (Some(sa), Some(sb)) = (side(ma), mb.and_then(side)) else {
                return Err(format!("{name}.{metric}: missing or malformed on one side"));
            };
            let bound = ma.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let higher = ma.get("better").and_then(Value::as_str) == Some("higher");
            let v = verdict(&sa, &sb, higher, bound);
            worse += usize::from(v == Verdict::Worse);
            unresolved += usize::from(v == Verdict::Unresolved);
            rows += 1;
            println!(
                "{name:<21} {metric:<17} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}%  {}",
                sa.median,
                sb.median,
                100.0 * delta(&sa, &sb),
                100.0 * bound,
                v.label()
            );
        }
    }
    println!("{rows} rows: {worse} worse, {unresolved} unresolved");
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, p25: f64, p75: f64) -> Summary {
        Summary {
            median,
            p25,
            p75,
            n: 7,
        }
    }

    #[test]
    fn verdict_table() {
        use Verdict::*;
        let a = side(100.0, 98.0, 102.0);
        // (b, higher is better, bound) -> verdict
        let cases = [
            (side(100.0, 100.0, 100.0), true, 0.0, Same),
            (side(95.0, 94.0, 96.0), true, 0.10, Same),
            (side(80.0, 79.0, 81.0), true, 0.10, Worse),
            (side(80.0, 79.0, 81.0), false, 0.10, Better),
            (side(120.0, 119.0, 121.0), true, 0.10, Better),
            (side(120.0, 119.0, 121.0), false, 0.10, Worse),
            // Past the bound, but the quartile ranges touch.
            (side(88.0, 70.0, 99.0), true, 0.10, Unresolved),
            (side(112.0, 101.0, 130.0), false, 0.10, Unresolved),
        ];
        for (b, higher, bound, want) in cases {
            assert_eq!(
                verdict(&a, &b, higher, bound),
                want,
                "{b:?} {higher} {bound}"
            );
        }
        // Simulated metrics have p25 = p75 = median: any move past the
        // bound resolves.
        let sim = side(10.0, 10.0, 10.0);
        assert_eq!(verdict(&sim, &side(10.2, 10.2, 10.2), false, 0.01), Worse);
        assert_eq!(verdict(&sim, &sim, false, 0.01), Same);
    }

    #[test]
    fn compare_counts_worse_rows() {
        let run = |host: f64| {
            let metric = Value::obj([
                ("value", Value::from(host)),
                ("p25", Value::from(host * 0.99)),
                ("p75", Value::from(host * 1.01)),
                ("n", Value::from(7u64)),
                ("better", Value::from("higher")),
                ("bound", Value::from(0.1)),
            ]);
            let e2e = Value::obj([("host_ops_per_s", metric)]);
            let w = Value::obj([("end_to_end", e2e)]);
            Value::obj([("workloads", Value::obj([("disk_replay", w)]))])
        };
        assert_eq!(compare(&run(100.0), &run(101.0)), Ok(0));
        assert_eq!(compare(&run(100.0), &run(50.0)), Ok(1));
        assert!(compare(&run(100.0), &Value::obj([("workloads", Value::Null)])).is_ok());
        assert!(compare(&Value::Null, &run(1.0)).is_err());
    }
}
