//! A fixed piece of work that says how fast the machine is right now, so
//! that host times can be reported in **reference seconds**.
//!
//! The sandbox this benchmark is run in is a two-core virtual machine whose
//! speed wanders. Over seconds a core runs 10–25 % slower and recovers;
//! over minutes the whole machine can be 1.3–1.5 × slower, compute-bound
//! and memory-bound code alike, with CPU time tracking wall time and steal
//! time near zero — what a busy sibling hyperthread looks like from inside.
//! Repetition averages the first kind down slowly and the second not at
//! all, and either is larger than a 10 % bound.
//!
//! So every child times this kernel just before and just after its timed
//! section, and a rep's host seconds are scaled by the speed it found:
//! reference seconds = measured seconds × ([`REFERENCE_S`] ÷ the kernel's
//! time just now). Over a quarter of an hour of alternating reps the
//! run-level correlation between a workload's time and the kernel's was
//! 0.82–0.84, and scaling cut the run-to-run quartile spread of
//! `host_ops_per_s` from 9 % to 6 %; what it is really for is the
//! minutes-long slow phases, which it cancels.
//!
//! The kernel mixes what the simulator does: dependent loads over a table
//! larger than the second-level cache, integer mixing, and sorting short
//! runs. It belongs to the benchmark, which a change that claims a gain
//! may not edit.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one kernel run takes on the sizing machine (two virtual 2.1 GHz
/// Xeon cores), median over a quarter of an hour. A fixed constant: it only
/// sets the scale of reference seconds, so that they read like seconds
/// there.
pub const REFERENCE_S: f64 = 0.025;

const TABLE_WORDS: usize = 1 << 19;
const WALK_STEPS: usize = 400_000;
const SORTS: usize = 12_000;
/// Kernel runs per measurement: ≈ 100 ms each side of a timed section.
const RUNS: usize = 4;

pub struct Calibrator {
    table: Vec<u64>,
}

impl Calibrator {
    /// Builds (and so touches) the table; not part of any timing.
    pub fn new() -> Self {
        Calibrator {
            table: (0..TABLE_WORDS as u64).map(mix).collect(),
        }
    }

    /// Seconds per kernel run, right now.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..RUNS {
            self.kernel();
        }
        t.elapsed().as_secs_f64() / RUNS as f64
    }

    fn kernel(&mut self) {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..WALK_STEPS {
            let slot = x as usize & (TABLE_WORDS - 1);
            x = mix(x ^ self.table[slot]);
            self.table[slot] = x;
        }
        let mut run = [0u64; 48];
        for _ in 0..SORTS {
            for slot in &mut run {
                x = mix(x);
                *slot = x;
            }
            run.sort_unstable();
            x ^= run[17];
        }
        black_box(x);
    }
}

/// SplitMix64's finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
