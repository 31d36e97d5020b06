//! Mechanical timing: seek curve, rotation, and head switches.
//!
//! The seek curve uses the classic three-coefficient model
//! `seek(d) = a·√d + b·d + c` (for cylinder distance `d > 0`), with the
//! coefficients solved from three published numbers — single-cylinder,
//! average, and full-strobe seek time. The average constraint uses the exact
//! expectations for a uniformly random pair of cylinders on `[0, C]`:
//! `E[d] = C/3` and `E[√d] = (8/15)·√C`.

use crate::{SimDur, SimTime};

/// A calibrated seek-time curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeekCurve {
    a: f64, // ms per sqrt(cylinder)
    b: f64, // ms per cylinder
    c: f64, // ms constant
    max_dist: f64,
}

impl SeekCurve {
    /// Calibrates a curve from published characteristics.
    ///
    /// * `single_ms` — time for a one-cylinder seek.
    /// * `avg_ms` — average seek time over uniformly random start/end pairs.
    /// * `full_ms` — full-strobe (edge-to-edge) seek time.
    /// * `cylinders` — number of cylinders on the drive.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer than three cylinders (two have one seek
    /// distance), if the inputs are non-positive, non-finite, or mutually
    /// inconsistent (e.g. `avg >= full`), or if the solved curve would not be
    /// monotonically non-decreasing.
    #[expect(
        clippy::expect_used,
        reason = "with C = cylinders - 1 >= 2 the system is regular: its determinant \
                  is sqrt(C)(3 sqrt(C) - 7)(sqrt(C) - 1)/15, zero only at C = 1 and 49/9"
    )]
    pub fn calibrate(single_ms: f64, avg_ms: f64, full_ms: f64, cylinders: u32) -> Self {
        assert!(cylinders >= 3, "need at least three cylinders");
        assert!(
            single_ms > 0.0 && avg_ms > single_ms && full_ms > avg_ms,
            "seek characteristics must satisfy 0 < single < avg < full \
             (got {single_ms}, {avg_ms}, {full_ms})"
        );
        let cmax = f64::from(cylinders - 1);
        // Solve:
        //   a·√1   + b·1      + c = single
        //   a·E√d  + b·E d    + c = avg      (E√d = 8/15·√C, E d = C/3)
        //   a·√C   + b·C      + c = full
        let rows = [
            [1.0, 1.0, 1.0, single_ms],
            [(8.0 / 15.0) * cmax.sqrt(), cmax / 3.0, 1.0, avg_ms],
            [cmax.sqrt(), cmax, 1.0, full_ms],
        ];
        let sol = solve3(rows).expect("seek calibration system is singular");
        let curve = SeekCurve {
            a: sol[0],
            b: sol[1],
            c: sol[2],
            max_dist: cmax,
        };
        // Monotonicity sanity: derivative a/(2√d)+b ≥ 0 on [1, C]. It is
        // enough to check both ends when a and b have opposite signs.
        let deriv = |d: f64| curve.a / (2.0 * d.sqrt()) + curve.b;
        assert!(
            deriv(1.0) >= -1e-9 && deriv(cmax) >= -1e-9,
            "calibrated seek curve is not monotone; inputs are inconsistent"
        );
        curve
    }

    /// Seek time for a move of `distance` cylinders (0 means no seek).
    pub fn seek_time(&self, distance: u32) -> SimDur {
        if distance == 0 {
            return SimDur::ZERO;
        }
        let d = f64::from(distance).min(self.max_dist.max(1.0));
        SimDur::from_millis_f64(self.a * d.sqrt() + self.b * d + self.c)
    }
}

/// Solves a 3×3 linear system given as rows `[a, b, c | rhs]` by Gaussian
/// elimination with partial pivoting. Returns `None` if singular.
fn solve3(mut m: [[f64; 4]; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        let pivot = (col..3).max_by(|&i, &j| m[i][col].abs().total_cmp(&m[j][col].abs()))?;
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        for row in 0..3 {
            if row != col {
                let f = m[row][col] / m[col][col];
                let prow = m[col];
                for (cell, p) in m[row].iter_mut().zip(&prow).skip(col) {
                    *cell -= f * p;
                }
            }
        }
    }
    Some([m[0][3] / m[0][0], m[1][3] / m[1][1], m[2][3] / m[2][2]])
}

/// The spindle: constant-rate rotation shared by all surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spindle {
    period_ns: u64,
}

impl Spindle {
    /// Creates a spindle rotating at `rpm` revolutions per minute.
    ///
    /// # Panics
    ///
    /// Panics if `rpm` is zero.
    pub fn new(rpm: u32) -> Self {
        assert!(rpm > 0, "rpm must be positive");
        Spindle {
            period_ns: (60.0e9 / f64::from(rpm)).round() as u64,
        }
    }

    /// One full revolution.
    pub fn revolution(&self) -> SimDur {
        SimDur::from_ns(self.period_ns)
    }

    /// The spindle phase angle at `t`, in revolutions `[0, 1)`.
    pub fn angle_at(&self, t: SimTime) -> f64 {
        (t.as_ns() % self.period_ns) as f64 / self.period_ns as f64
    }

    /// The time to sweep `frac` of a revolution (e.g. to pass under `n`
    /// sector slots: `frac = n / spt`).
    pub fn sweep(&self, frac: f64) -> SimDur {
        SimDur::from_ns((frac * self.period_ns as f64).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_hits_all_three_points() {
        let c = SeekCurve::calibrate(0.8, 4.7, 9.5, 8660);
        assert!((c.seek_time(1).as_millis_f64() - 0.8).abs() < 1e-6);
        assert!((c.seek_time(8659).as_millis_f64() - 9.5).abs() < 1e-6);
        // The mean over uniform random pairs of cylinders.
        let cmax = 8659.0_f64;
        let average = c.a * (8.0 / 15.0) * cmax.sqrt() + c.b * cmax / 3.0 + c.c;
        assert!((average - 4.7).abs() < 1e-9);
    }

    #[test]
    fn seek_curve_is_monotone() {
        let c = SeekCurve::calibrate(0.8, 4.7, 9.5, 8660);
        let mut last = SimDur::ZERO;
        for d in [0u32, 1, 2, 5, 10, 100, 1000, 4000, 8659] {
            let t = c.seek_time(d);
            assert!(t >= last, "seek({d}) regressed");
            last = t;
        }
    }

    #[test]
    fn zero_distance_is_free() {
        let c = SeekCurve::calibrate(1.0, 5.0, 10.0, 1000);
        assert_eq!(c.seek_time(0), SimDur::ZERO);
    }

    #[test]
    fn distances_beyond_max_clamp() {
        let c = SeekCurve::calibrate(1.0, 5.0, 10.0, 1000);
        assert_eq!(c.seek_time(5000), c.seek_time(999));
    }

    #[test]
    #[should_panic(expected = "seek characteristics")]
    fn inconsistent_inputs_panic() {
        let _ = SeekCurve::calibrate(5.0, 4.0, 10.0, 1000);
    }

    #[test]
    #[should_panic(expected = "three cylinders")]
    fn two_cylinders_panic() {
        let _ = SeekCurve::calibrate(1.0, 2.0, 3.0, 2);
    }

    #[test]
    fn empirical_average_matches_analytic() {
        // Monte-Carlo check of the E[d], E[sqrt d] identities.
        let c = SeekCurve::calibrate(0.8, 4.7, 9.5, 8660);
        let mut sum = 0.0;
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rnd = || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as u32 % 8660
        };
        let n = 200_000;
        for _ in 0..n {
            let (x, y) = (rnd(), rnd());
            sum += c.seek_time(x.abs_diff(y)).as_millis_f64();
        }
        let avg = sum / f64::from(n);
        assert!((avg - 4.7).abs() < 0.05, "monte-carlo average {avg} != 4.7");
    }

    #[test]
    fn spindle_angles_and_delays() {
        let s = Spindle::new(10_000); // 6 ms per revolution
        assert_eq!(s.revolution().as_ns(), 6_000_000);
        let t = SimTime::from_ns(1_500_000); // quarter turn
        assert!((s.angle_at(t) - 0.25).abs() < 1e-12);
        assert_eq!(s.angle_at(SimTime::from_ns(6_000_000)), 0.0);
    }

    #[test]
    fn slot_time_divides_revolution() {
        let s = Spindle::new(10_000);
        assert_eq!(
            s.sweep(1.0 / 528.0).as_ns(),
            (6_000_000.0 / 528.0_f64).round() as u64
        );
        assert_eq!(s.sweep(1.0), s.revolution());
    }
}
