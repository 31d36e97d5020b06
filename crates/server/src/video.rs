//! A round-based streaming video server over the simulated drive (§5.4).
//!
//! The server fetches one interval of video per stream per *round*. Streams
//! are spread over `D` disks; each disk serves `V` streams per round. A
//! round is `V` reads that all arrive at the round start, served by
//! [`serve`] under C-LOOK with the whole round in one batch
//! — the scan order a real server's scheduler would use, with every
//! request queued at the drive.
//!
//! * **Soft real-time** ([`soft`]): round times are *measured* over many
//!   simulated rounds; admission uses the 99.99th-percentile round time,
//!   RIO-style. A stream set `V` at I/O size `S` is feasible when that
//!   round time does not exceed the interval the fetched data lasts
//!   (`S × 512 × 8 / bit_rate` seconds).
//! * **Hard real-time** ([`hard`]): admission from closed-form worst cases
//!   — worst scheduled seek route, a full revolution of rotational latency
//!   for unaligned access (none for track-aligned), and at least one head
//!   switch per unaligned request.
//!
//! Worst-case startup latency for a newly admitted stream is
//! `round_time × (D + 1)` (Santos et al., as used in the paper).

use crate::{serve, SchedulerKind, ServerConfig, ServerError, ServerResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_disk::disk::{Disk, DiskConfig, Request};
use sim_disk::{SimDur, SimTime, TraceRecord};
use traxtent::stats;

/// Video-server parameters.
#[derive(Debug, Clone)]
pub struct VideoConfig {
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

impl Default for VideoConfig {
    fn default() -> Self {
        VideoConfig {
            disks: 10,
            bit_rate_mbps: 4.0,
            aligned: true,
            rounds: 400,
            quantile: 0.9999,
            seed: 0x5eed,
        }
    }
}

/// How long one fetched I/O of `io_sectors` plays at `bit_rate_mbps`, in
/// seconds: the deadline of the round that fetches it.
fn playback_secs(io_sectors: u64, bit_rate_mbps: f64) -> f64 {
    io_sectors as f64 * 512.0 * 8.0 / (bit_rate_mbps * 1e6)
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

/// Serves one round: a read of `io_sectors` at each of `lbns`, all
/// arriving at `start`, through [`serve`] under C-LOOK with the whole
/// round admitted and dispatched as one batch. A fresh elevator sweeps up
/// from LBN 0, so the drive sees the round in ascending-LBN order; the
/// round ends at the result's `sim_end`.
///
/// # Errors
///
/// [`ServerError::ZeroConfig`] for an empty round, and
/// [`ServerError::BeyondCapacity`] for a read past the drive's end.
pub fn round(
    disk: &mut Disk,
    start: SimTime,
    lbns: &[u64],
    io_sectors: u64,
) -> Result<ServerResult, ServerError> {
    let records: Vec<TraceRecord> = (lbns.iter())
        .map(|&lbn| TraceRecord {
            arrival: start,
            request: Request::read(lbn, io_sectors),
        })
        .collect();
    let mut cfg = ServerConfig::new(SchedulerKind::CLook);
    (cfg.queue_limit, cfg.max_batch) = (lbns.len(), lbns.len());
    serve(disk, &records, &cfg)
}

/// Simulates `video.rounds` rounds of `v` random requests of
/// `io_sectors` each on one disk and returns the round-time distribution
/// summary.
///
/// Requests are drawn from the outermost zone — video servers place content
/// on the outer, highest-bandwidth cylinders (as the Tiger server did), and
/// that is also where request size equals track size for the aligned
/// server. Each round is one [`round`]; the next starts when it ends.
///
/// `video.bit_rate_mbps` sets the playback deadline: a round that takes
/// longer than the interval one I/O sustains (`io_sectors × 512 × 8 /
/// bit_rate`) counts as a deadline miss, and per-round slack feeds the
/// `min_buffer_ppm` high-water mark.
///
/// # Panics
///
/// Panics if `v` or `video.rounds` is zero, or unless a request is shorter
/// than the outermost zone
/// ([`DiskGeometry::track_starts_fitting`](sim_disk::geometry::DiskGeometry::track_starts_fitting)).
#[expect(
    clippy::expect_used,
    reason = "v > 0 is asserted and every read lies inside zone 0, so `round` cannot fail"
)]
pub fn measure_rounds(
    config: &DiskConfig,
    video: &VideoConfig,
    v: usize,
    io_sectors: u64,
) -> RoundMeasurement {
    let VideoConfig {
        aligned,
        rounds,
        quantile,
        bit_rate_mbps,
        seed,
        ..
    } = *video;
    assert!(v > 0 && rounds > 0);
    let mut disk = Disk::new(config.clone());
    let zone = disk.geometry().zones()[0];
    let track_starts = disk.geometry().track_starts_fitting(0, io_sectors);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut round_times = Vec::with_capacity(rounds);
    let mut lbns = Vec::with_capacity(v);
    let mut now = SimTime::ZERO;
    for _ in 0..rounds {
        lbns.clear();
        lbns.extend((0..v).map(|_| {
            if aligned {
                track_starts[rng.gen_range(0..track_starts.len())]
            } else {
                zone.first_lbn + rng.gen_range(0..zone.lbn_count - io_sectors)
            }
        }));
        let end = round(&mut disk, now, &lbns, io_sectors)
            .expect("a non-empty round inside zone 0")
            .sim_end;
        round_times.push((end - now).as_secs_f64());
        now = end;
    }
    let playback = playback_secs(io_sectors, bit_rate_mbps);
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
        video: &VideoConfig,
        v: usize,
    ) -> Option<OperatingPoint> {
        let track = disk.geometry.track(0).lbn_count() as u64;
        let candidates: Vec<u64> = if video.aligned {
            (1..=16).map(|k| k * track).collect()
        } else {
            (1..=64).map(|k| k * 128).collect() // 64 KB steps up to 4 MB
        };
        for io in candidates {
            if io * 512 * 8 > (1 << 33) {
                break;
            }
            let m = measure_rounds(disk, video, v, io);
            let playback = SimDur::from_secs_f64(playback_secs(io, video.bit_rate_mbps));
            if m.quantile_round <= playback {
                return Some(OperatingPoint {
                    streams_per_disk: v,
                    io_sectors: io,
                    round_time: m.quantile_round,
                    startup_latency: SimDur::from_ns(
                        m.quantile_round.as_ns() * (video.disks as u64 + 1),
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
        video: &VideoConfig,
        io_sectors: u64,
        round_cap: SimDur,
    ) -> usize {
        let playback = SimDur::from_secs_f64(playback_secs(io_sectors, video.bit_rate_mbps));
        let mut best = 0;
        let mut v = 1;
        while v <= 90 {
            let m = measure_rounds(disk, video, v, io_sectors);
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
        let playback = playback_secs(io_sectors, bit_rate_mbps);
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
