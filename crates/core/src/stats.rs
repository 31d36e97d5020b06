//! Small statistics helpers used by the evaluation harness: mean, standard
//! deviation, and percentiles over `f64` samples.

/// Online mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Running {
    /// An empty accumulator.
    pub fn new() -> Self {
        Running::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Population standard deviation (0 with fewer than two samples).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }
}

impl Extend<f64> for Running {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Running {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut r = Running::new();
        r.extend(iter);
        r
    }
}

/// Mean of a slice (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation of a slice (0 for fewer than two samples).
pub fn std_dev(xs: &[f64]) -> f64 {
    xs.iter().copied().collect::<Running>().std_dev()
}

/// The `p`-quantile (0 ≤ p ≤ 1) by linear interpolation between order
/// statistics: [`percentiles`] with one rank.
///
/// # Panics
///
/// Panics if `xs` is empty or `p` is outside `[0, 1]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let [q] = percentiles(xs, [p]);
    q
}

/// The `p`-quantile (0 ≤ p ≤ 1) of every `p` in `ps`, by linear
/// interpolation between order statistics, from one sort of a copy of
/// the input by [`f64::total_cmp`] (so a NaN sample sorts to an end
/// instead of panicking). Asking for several ranks at once is what saves
/// the sorts: each answer is bit-equal to its own [`percentile`].
///
/// # Panics
///
/// Panics if `xs` is empty or a `p` is outside `[0, 1]`.
pub fn percentiles<const N: usize>(xs: &[f64], ps: [f64; N]) -> [f64; N] {
    assert!(!xs.is_empty(), "percentile of empty sample");
    assert!(
        ps.iter().all(|p| (0.0..=1.0).contains(p)),
        "p must be in [0, 1]"
    );
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    ps.map(|p| {
        let rank = p * (v.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            v[lo]
        } else {
            let w = rank - lo as f64;
            v[lo] * (1.0 - w) + v[hi] * w
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_matches_batch() {
        let xs = [1.0, 2.0, 3.0, 4.0, 10.0];
        let r: Running = xs.iter().copied().collect();
        assert_eq!(r.n, 5);
        assert!((r.mean - mean(&xs)).abs() < 1e-12);
        assert!((r.std_dev() - std_dev(&xs)).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        let r = Running::new();
        assert_eq!(r.mean, 0.0);
        assert_eq!(r.std_dev(), 0.0);
        let mut one = Running::new();
        one.push(7.0);
        assert_eq!(one.mean, 7.0);
        assert_eq!(one.std_dev(), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert!((percentile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_answer_each_rank_as_one_rank_would() {
        let xs = [0.3, 9.0, -2.5, 7.25, 7.25, 1e-9, 4.0, f64::NAN, 3.5];
        let ps = [0.0, 0.25, 0.5, 0.95, 0.99, 0.999, 1.0, 0.5];
        for (p, q) in ps.into_iter().zip(percentiles(&xs, ps)) {
            assert_eq!(q.to_bits(), percentile(&xs, p).to_bits(), "p = {p}");
        }
        assert_eq!(percentiles(&xs, [0.5, 0.25]), [4.0, 0.3]);
        assert!(percentile(&xs, 1.0).is_nan(), "NaN sorts last");
    }

    #[test]
    #[should_panic(expected = "p must be in [0, 1]")]
    fn every_rank_is_checked() {
        let _ = percentiles(&[1.0, 2.0], [0.5, 1.5]);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_of_empty_panics() {
        let _ = percentile(&[], 0.5);
    }

    #[test]
    fn known_std_dev() {
        // Variance of {2, 4, 4, 4, 5, 5, 7, 9} is 4.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }
}
