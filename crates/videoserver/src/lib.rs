//! A round-based streaming video server over simulated disks (§5.4).
//!
//! The server fetches one interval of video per stream per *round*. Streams
//! are spread over `D` disks; each disk serves `V` streams per round, with
//! the per-round requests sorted by LBN (the scan order a real server's
//! scheduler would use) and kept queued at the drive.
//!
//! * **Soft real-time** ([`soft`]): round times are *measured* over many
//!   simulated rounds; admission uses the 99.99th-percentile round time,
//!   RIO-style. A stream set `V` at I/O size `S` is feasible when that
//!   round time does not exceed the interval the fetched data lasts
//!   (`S × 8 / bit_rate`).
//! * **Hard real-time** ([`hard`]): admission from closed-form worst cases
//!   — worst scheduled seek route, a full revolution of rotational latency
//!   for unaligned access (none for track-aligned), and at least one head
//!   switch per unaligned request.
//!
//! Worst-case startup latency for a newly admitted stream is
//! `round_time × (D + 1)` (Santos et al., as used in the paper).

#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_disk::disk::{Disk, DiskConfig, Request};
use sim_disk::{SimDur, SimTime};
use traxtent::stats;

/// Server-wide parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of disks video is striped across.
    pub disks: usize,
    /// Per-stream bit rate, megabits per second.
    pub bit_rate_mbps: f64,
    /// Whether per-round requests are track-aligned (traxtent server) or
    /// placed without regard to track boundaries.
    pub aligned: bool,
    /// Rounds to simulate per measurement.
    pub rounds: usize,
    /// Deadline quantile for soft real-time admission (the paper uses
    /// 0.9999).
    pub quantile: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            disks: 10,
            bit_rate_mbps: 4.0,
            aligned: true,
            rounds: 400,
            quantile: 0.9999,
            seed: 0x5eed,
        }
    }
}

impl ServerConfig {
    /// The measurement spec for one (streams-per-disk, I/O size) point
    /// under this server's policy parameters.
    pub fn round_spec(&self, v: usize, io_sectors: u64) -> RoundSpec {
        RoundSpec {
            v,
            io_sectors,
            aligned: self.aligned,
            rounds: self.rounds,
            quantile: self.quantile,
            bit_rate_mbps: self.bit_rate_mbps,
            seed: self.seed,
        }
    }
}

/// Everything one [`measure_rounds`] call needs besides the disk.
#[derive(Debug, Clone, Copy)]
pub struct RoundSpec {
    /// Streams per disk (requests per round).
    pub v: usize,
    /// Per-request size, sectors.
    pub io_sectors: u64,
    /// Track-aligned placement (traxtent server) or free placement.
    pub aligned: bool,
    /// Rounds to simulate.
    pub rounds: usize,
    /// Quantile reported as the admission round time.
    pub quantile: f64,
    /// Per-stream bit rate, megabits per second — sets the deadline.
    pub bit_rate_mbps: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Measured behaviour of one (streams-per-disk, I/O size) operating point.
#[derive(Debug, Clone, Copy)]
pub struct RoundMeasurement {
    /// Streams per disk.
    pub streams_per_disk: usize,
    /// Per-request size, sectors.
    pub io_sectors: u64,
    /// Mean round time.
    pub mean_round: SimDur,
    /// Admission round time (the configured quantile).
    pub quantile_round: SimDur,
    /// Longest observed round.
    pub max_round: SimDur,
    /// Rounds simulated.
    pub rounds: u64,
    /// Rounds that overran the playback interval of one fetched I/O — each
    /// is a glitch for every stream on the disk.
    pub deadline_misses: u64,
    /// Worst-case remaining stream-buffer occupancy, in parts per million
    /// of one interval: `min over rounds of (playback − round) / playback`,
    /// floored at zero. A healthy server stays near 1e6.
    pub min_buffer_ppm: u64,
}

impl RoundMeasurement {
    /// Publishes the measurement under `videoserver.*`. Round counts and
    /// misses are counters (summed across measurements); the worst round
    /// and worst buffer drain are commutative high-water marks, so
    /// concurrent exporters agree.
    pub fn export_metrics(&self, reg: &traxtent::obs::Registry) {
        reg.add("videoserver.rounds", self.rounds);
        reg.add("videoserver.deadline_misses", self.deadline_misses);
        reg.set_max("videoserver.max_round_us", self.max_round.as_ns() / 1_000);
        reg.set_max(
            "videoserver.buffer_drain_ppm",
            1_000_000 - self.min_buffer_ppm.min(1_000_000),
        );
    }
}

/// Simulates `spec.rounds` rounds of `spec.v` random requests of
/// `spec.io_sectors` each on one disk and returns the round-time
/// distribution summary.
///
/// Requests are drawn from the outermost zone — video servers place content
/// on the outer, highest-bandwidth cylinders (as the Tiger server did), and
/// that is also where request size equals track size for the aligned
/// server. Requests within a round are sorted by LBN and issued together
/// (queued at the drive); the round time is the completion of the last.
///
/// `spec.bit_rate_mbps` sets the playback deadline: a round that takes
/// longer than the interval one I/O sustains (`io_sectors × 512 × 8 /
/// bit_rate`) counts as a deadline miss, and per-round slack feeds the
/// `min_buffer_ppm` high-water mark.
///
/// # Panics
///
/// Panics unless a request is shorter than the outermost zone
/// ([`DiskGeometry::track_starts_fitting`](sim_disk::geometry::DiskGeometry::track_starts_fitting)).
pub fn measure_rounds(config: &DiskConfig, spec: &RoundSpec) -> RoundMeasurement {
    let &RoundSpec {
        v,
        io_sectors,
        aligned,
        rounds,
        quantile,
        bit_rate_mbps,
        seed,
    } = spec;
    assert!(v > 0 && rounds > 0);
    let mut disk = Disk::new(config.clone());
    let zone = disk.geometry().zones()[0];
    let track_starts = disk.geometry().track_starts_fitting(0, io_sectors);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut round_times = Vec::with_capacity(rounds);
    let mut now = SimTime::ZERO;
    for _ in 0..rounds {
        let mut lbns: Vec<u64> = (0..v)
            .map(|_| {
                if aligned {
                    track_starts[rng.gen_range(0..track_starts.len())]
                } else {
                    zone.first_lbn + rng.gen_range(0..zone.lbn_count - io_sectors)
                }
            })
            .collect();
        lbns.sort_unstable();
        let start = now;
        let mut last = start;
        for lbn in lbns {
            // All round requests are issued up front (queued at the drive).
            let c = disk.service(Request::read(lbn, io_sectors), start);
            last = c.completion;
        }
        round_times.push((last - start).as_secs_f64());
        now = last;
    }
    let playback = io_sectors as f64 * 512.0 * 8.0 / (bit_rate_mbps * 1e6);
    let deadline_misses = round_times.iter().filter(|&&r| r > playback).count() as u64;
    let min_slack = round_times
        .iter()
        .map(|&r| ((playback - r) / playback).max(0.0))
        .fold(1.0f64, f64::min);
    let max_round = round_times.iter().copied().fold(0.0f64, f64::max);
    RoundMeasurement {
        streams_per_disk: v,
        io_sectors,
        mean_round: SimDur::from_secs_f64(stats::mean(&round_times)),
        quantile_round: SimDur::from_secs_f64(stats::percentile(&round_times, quantile)),
        max_round: SimDur::from_secs_f64(max_round),
        rounds: rounds as u64,
        deadline_misses,
        min_buffer_ppm: (min_slack * 1e6) as u64,
    }
}

/// Soft real-time analysis.
pub mod soft {
    use super::*;

    /// One point of Figure 9: the smallest feasible I/O size for `v`
    /// streams per disk, its round time, and the worst-case startup latency
    /// for the whole array.
    #[derive(Debug, Clone, Copy)]
    pub struct OperatingPoint {
        /// Streams per disk.
        pub streams_per_disk: usize,
        /// Chosen I/O size, sectors.
        pub io_sectors: u64,
        /// Admission (quantile) round time.
        pub round_time: SimDur,
        /// `round_time × (disks + 1)`.
        pub startup_latency: SimDur,
        /// The measurement behind the admission decision (deadline misses,
        /// buffer occupancy) at the chosen I/O size.
        pub measurement: RoundMeasurement,
    }

    /// Finds the smallest I/O size supporting `v` streams per disk: the
    /// quantile round time must not exceed the playback duration of one
    /// fetched interval. Aligned servers use whole-track multiples; the
    /// unaligned server sweeps 64 KB steps. Returns `None` if even the
    /// largest size tried (4 MB) fails.
    pub fn operating_point(
        disk: &DiskConfig,
        server: &ServerConfig,
        v: usize,
    ) -> Option<OperatingPoint> {
        let track = disk.geometry.track(0).lbn_count() as u64;
        let candidates: Vec<u64> = if server.aligned {
            (1..=16).map(|k| k * track).collect()
        } else {
            (1..=64).map(|k| k * 128).collect() // 64 KB steps up to 4 MB
        };
        for io in candidates {
            if io * 512 * 8 > (1 << 33) {
                break;
            }
            let m = measure_rounds(disk, &server.round_spec(v, io));
            let playback =
                SimDur::from_secs_f64(io as f64 * 512.0 * 8.0 / (server.bit_rate_mbps * 1e6));
            if m.quantile_round <= playback {
                return Some(OperatingPoint {
                    streams_per_disk: v,
                    io_sectors: io,
                    round_time: m.quantile_round,
                    startup_latency: SimDur::from_ns(
                        m.quantile_round.as_ns() * (server.disks as u64 + 1),
                    ),
                    measurement: m,
                });
            }
        }
        None
    }

    /// The maximum streams per disk serviceable at a given round-time cap
    /// with a fixed I/O size (the paper's "70 vs 45 at a 0.5 s round").
    pub fn max_streams_at_round(
        disk: &DiskConfig,
        server: &ServerConfig,
        io_sectors: u64,
        round_cap: SimDur,
    ) -> usize {
        let mut best = 0;
        let mut v = 1;
        while v <= 90 {
            let m = measure_rounds(disk, &server.round_spec(v, io_sectors));
            let playback = SimDur::from_secs_f64(
                io_sectors as f64 * 512.0 * 8.0 / (server.bit_rate_mbps * 1e6),
            );
            if m.quantile_round <= round_cap && m.quantile_round <= playback {
                best = v;
                v += 1;
            } else {
                break;
            }
        }
        best
    }
}

/// Hard real-time admission from closed-form worst cases (§5.4.2).
pub mod hard {
    use super::*;

    /// Worst-case per-request service time for `v` streams per disk.
    ///
    /// The scheduler sorts each round's requests, so the worst total seek
    /// route across `v` requests is one full sweep; each request is charged
    /// `seek(cylinders / v)`. Unaligned requests add a full revolution of
    /// rotational latency and one head switch per track crossed; aligned
    /// requests pay neither (zero-latency firmware, whole-track transfers).
    pub fn worst_case_request(
        disk: &DiskConfig,
        v: usize,
        io_sectors: u64,
        aligned: bool,
    ) -> SimDur {
        assert!(v > 0);
        let cyls = disk.geometry.cylinders();
        let seek = disk.seek.seek_time((cyls as f64 / v as f64).ceil() as u32);
        let rev = disk.spindle.revolution();
        let spt = u64::from(disk.geometry.track(0).lbn_count());
        let tracks = io_sectors.div_ceil(spt);
        let media = disk.spindle.sweep(io_sectors as f64 / spt as f64);
        let switches = disk.head_switch * tracks.max(1);
        if aligned && disk.zero_latency {
            // Full-track transfers: no rotational latency; switches between
            // the tracks of a multi-track request only.
            seek + media + disk.head_switch * (tracks - 1) + disk.cmd_overhead
        } else {
            seek + rev + media + switches + disk.cmd_overhead
        }
    }

    /// Maximum streams per disk under hard guarantees: the largest `v` with
    /// `v × worst_case_request ≤ playback duration of one interval`.
    pub fn max_streams(
        disk: &DiskConfig,
        bit_rate_mbps: f64,
        io_sectors: u64,
        aligned: bool,
    ) -> usize {
        let playback = io_sectors as f64 * 512.0 * 8.0 / (bit_rate_mbps * 1e6);
        let mut v = 0;
        loop {
            let next = v + 1;
            let wc = worst_case_request(disk, next, io_sectors, aligned);
            if wc.as_secs_f64() * next as f64 <= playback {
                v = next;
            } else {
                return v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_disk::models;

    /// A short 20-stream measurement spec for the tests.
    fn spec(io_sectors: u64, aligned: bool, bit_rate_mbps: f64) -> RoundSpec {
        RoundSpec {
            v: 20,
            io_sectors,
            aligned,
            rounds: 60,
            quantile: 0.99,
            bit_rate_mbps,
            seed: 1,
        }
    }

    #[test]
    fn aligned_rounds_are_shorter() {
        let cfg = models::quantum_atlas_10k_ii();
        let io = cfg.geometry.track(0).lbn_count() as u64;
        let a = measure_rounds(&cfg, &spec(io, true, 4.0));
        let u = measure_rounds(&cfg, &spec(io, false, 4.0));
        assert!(
            a.mean_round < u.mean_round,
            "{} !< {}",
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
        measure_rounds(&cfg, &spec(zone, false, 4.0));
    }

    #[test]
    fn overloaded_rounds_miss_deadlines() {
        let cfg = models::quantum_atlas_10k_ii();
        let io = cfg.geometry.track(0).lbn_count() as u64;
        // 20 streams at track-sized I/Os are comfortable at 4 Mb/s; at an
        // absurd 400 Mb/s bit rate every round overruns the interval.
        let ok = measure_rounds(&cfg, &spec(io, true, 4.0));
        let bad = measure_rounds(&cfg, &spec(io, true, 400.0));
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
        let server_a = ServerConfig {
            rounds: 60,
            quantile: 0.98,
            aligned: true,
            ..Default::default()
        };
        let server_u = ServerConfig {
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
        let server = ServerConfig {
            rounds: 40,
            quantile: 0.95,
            ..Default::default()
        };
        let low = soft::operating_point(&cfg, &server, 20).expect("feasible");
        let high = soft::operating_point(&cfg, &server, 60).expect("feasible");
        assert!(high.startup_latency > low.startup_latency);
        assert_eq!(low.startup_latency.as_ns(), low.round_time.as_ns() * 11);
    }

    #[test]
    fn worst_case_monotone_in_io_size() {
        let cfg = models::quantum_atlas_10k_ii();
        let a = hard::worst_case_request(&cfg, 10, 528, false);
        let b = hard::worst_case_request(&cfg, 10, 1056, false);
        assert!(b > a);
    }
}
