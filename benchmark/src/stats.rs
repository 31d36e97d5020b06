//! Order statistics for the benchmark's own reporting.
//!
//! Kept inside the benchmark on purpose: the program under test has three
//! percentile implementations that ROADMAP item 3 wants merged, and the
//! yardstick must not move when they do.

/// Sorts `xs` ascending. Samples are host timings or simulated results,
/// never NaN.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    xs
}

/// The `p`-quantile (0 ≤ p ≤ 1) of an ascending sample by linear
/// interpolation between the two nearest order statistics.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    let w = rank - lo as f64;
    sorted[lo] * (1.0 - w) + sorted[hi] * w
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs.to_vec()), 0.5)
}

/// First and third quartile of an unsorted sample, computed the way
/// Python's `statistics.quantiles(values, n=4)` does (the "exclusive"
/// method: rank `i·(n+1)/4`, clamped to the sample), because that is what
/// the acceptance driver computes its spreads with. A single sample is its
/// own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs.to_vec());
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Median, quartiles and count of one metric over the repetitions of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Self {
        let (p25, p75) = quartiles(xs);
        Summary {
            median: median(xs),
            p25,
            p75,
            n: xs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert!((percentile(&v, 0.99) - 3.97).abs() < 1e-12);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let xs: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.0, 6.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn summary_reports_median_quartiles_and_count() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.n), (2.0, 3));
        assert_eq!((s.p25, s.p75), (1.0, 3.0));
    }
}
