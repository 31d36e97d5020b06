//! The `onereq` and `tworeq` microbenchmarks of §5.2.
//!
//! Each workload issues `n` random constant-size requests within one zone of
//! the disk. `onereq` keeps a single request outstanding; `tworeq` always
//! keeps one request queued at the disk in addition to the one being
//! serviced, which lets the next request's seek overlap the current
//! request's bus transfer.
//!
//! *Head time* — the time the mechanism is dedicated to a request — is the
//! reciprocal of throughput: for `onereq` it equals response time; for
//! `tworeq` it is the spacing between consecutive completions (Figure 5).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_disk::disk::{Disk, Op, Request};
use sim_disk::{Completion, SimDur, SimTime};
use traxtent::stats;

/// Whether request starts coincide with track boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alignment {
    /// Requests start at a track boundary.
    TrackAligned,
    /// Request starts are uniform over the zone (track-unaware).
    Unaligned,
}

/// How many requests the host keeps outstanding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDepth {
    /// One outstanding request (`onereq`).
    One,
    /// Two outstanding requests (`tworeq`).
    Two,
}

/// Parameters of a microbenchmark run.
#[derive(Debug, Clone, Copy)]
pub struct RandomIoSpec {
    /// Zone to draw request locations from (0 = outermost).
    pub zone: usize,
    /// Request size, sectors.
    pub io_sectors: u64,
    /// Number of requests.
    pub count: usize,
    /// Read or write.
    pub op: Op,
    /// Alignment policy.
    pub alignment: Alignment,
    /// Outstanding-request policy.
    pub queue: QueueDepth,
    /// RNG seed.
    pub seed: u64,
}

impl RandomIoSpec {
    /// A 5000-request read spec in zone 0, like the paper's.
    pub fn reads(io_sectors: u64, alignment: Alignment, queue: QueueDepth) -> Self {
        RandomIoSpec {
            zone: 0,
            io_sectors,
            count: 5000,
            op: Op::Read,
            alignment,
            queue,
            seed: 0x5eed,
        }
    }
}

/// The measured outcome of a microbenchmark run.
#[derive(Debug, Clone)]
pub struct RandomIoResult {
    /// Per-request completions, in issue order.
    pub completions: Vec<Completion>,
    /// Ideal media transfer time for one request (sectors / SPT revolutions)
    /// — the numerator of the disk-efficiency metric.
    pub ideal_media: SimDur,
}

impl RandomIoResult {
    /// Mean head time: response time for `onereq`, completion spacing for
    /// `tworeq` (computed from the spacing whenever more than one request
    /// was in flight).
    pub fn mean_head_time(&self, queue: QueueDepth) -> SimDur {
        match queue {
            QueueDepth::One => {
                SimDur::from_millis_f64(self.mean_component_ms(Completion::response_time))
            }
            QueueDepth::Two => {
                let spacings: Vec<f64> = self
                    .completions
                    .windows(2)
                    .map(|w| (w[1].completion - w[0].completion).as_millis_f64())
                    .collect();
                SimDur::from_millis_f64(stats::mean(&spacings))
            }
        }
    }

    /// Disk efficiency: the fraction of per-request head time spent moving
    /// data to or from the media (Figure 1's y-axis).
    pub fn efficiency(&self, queue: QueueDepth) -> f64 {
        let ht = self.mean_head_time(queue);
        if ht == SimDur::ZERO {
            return 0.0;
        }
        self.ideal_media.as_secs_f64() / ht.as_secs_f64()
    }

    /// Standard deviation of response time, ms.
    pub fn response_std_dev_ms(&self) -> f64 {
        stats::std_dev(
            &self
                .completions
                .iter()
                .map(|c| c.response_time().as_millis_f64())
                .collect::<Vec<_>>(),
        )
    }

    /// Mean of a breakdown component, ms, selected by `f`.
    pub fn mean_component_ms(&self, f: impl Fn(&Completion) -> SimDur) -> f64 {
        stats::mean(
            &self
                .completions
                .iter()
                .map(|c| f(c).as_millis_f64())
                .collect::<Vec<_>>(),
        )
    }

    /// Publishes the run under `workloads.randio.*`: the request count as a
    /// counter, and the worst response time and disk efficiency as
    /// commutative high-water marks (concurrent benchmark cells exporting
    /// into one registry agree on the result).
    pub fn export_metrics(&self, reg: &traxtent::obs::Registry, queue: QueueDepth) {
        reg.add("workloads.randio.requests", self.completions.len() as u64);
        let worst = self
            .completions
            .iter()
            .map(|c| c.response_time().as_ns())
            .max()
            .unwrap_or(0);
        reg.set_max("workloads.randio.max_response_us", worst / 1_000);
        reg.set_max(
            "workloads.randio.max_efficiency_ppm",
            (self.efficiency(queue) * 1e6) as u64,
        );
    }
}

/// Runs a random-I/O microbenchmark on a fresh state of `disk`.
///
/// The firmware cache is left enabled but is irrelevant: successive random
/// request locations are drawn over a whole zone, so hits essentially never
/// occur (the paper's workloads behave the same way).
///
/// # Panics
///
/// Panics if the zone index is out of range or the request is not shorter
/// than the zone.
pub fn run_random_io(disk: &mut Disk, spec: &RandomIoSpec) -> RandomIoResult {
    disk.reset();
    // Track starts within the zone, for aligned placement.
    let track_starts = disk
        .geometry()
        .track_starts_fitting(spec.zone, spec.io_sectors);
    let zone = disk.geometry().zones()[spec.zone];

    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut completions: Vec<Completion> = Vec::with_capacity(spec.count);

    // Request issue schedule: onereq issues when the previous completes;
    // tworeq issues request i when request i-2 completes (always one queued
    // behind the one in service).
    for i in 0..spec.count {
        let lbn = match spec.alignment {
            Alignment::TrackAligned => track_starts[rng.gen_range(0..track_starts.len())],
            Alignment::Unaligned => {
                zone.first_lbn + rng.gen_range(0..zone.lbn_count - spec.io_sectors + 1)
            }
        };
        let issue = match spec.queue {
            QueueDepth::One => completions
                .last()
                .map(|c| c.completion)
                .unwrap_or(SimTime::ZERO),
            QueueDepth::Two => {
                if i < 2 {
                    SimTime::ZERO
                } else {
                    completions[i - 2].completion
                }
            }
        };
        completions.push(disk.service(Request::new(spec.op, lbn, spec.io_sectors), issue));
    }

    let spt = zone.spt;
    let ideal_media = disk
        .spindle()
        .sweep(spec.io_sectors as f64 / f64::from(spt));
    RandomIoResult {
        completions,
        ideal_media,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_disk::models;

    fn atlas() -> Disk {
        Disk::new(models::quantum_atlas_10k_ii())
    }

    #[test]
    fn export_metrics_summarizes_the_run() {
        let mut d = atlas();
        let spec = RandomIoSpec {
            count: 50,
            ..RandomIoSpec::reads(528, Alignment::TrackAligned, QueueDepth::Two)
        };
        let r = run_random_io(&mut d, &spec);
        let reg = traxtent::obs::Registry::new();
        r.export_metrics(&reg, QueueDepth::Two);
        let snap = reg.snapshot();
        assert_eq!(snap.get("workloads.randio.requests"), Some(50));
        assert!(snap.get("workloads.randio.max_response_us").unwrap() > 0);
        assert_eq!(
            snap.get("workloads.randio.max_efficiency_ppm"),
            Some((r.efficiency(QueueDepth::Two) * 1e6) as u64)
        );
    }

    #[test]
    fn aligned_track_reads_hit_paper_efficiency() {
        // Point A of Figure 1: tworeq track-aligned reads reach ≈ 0.73
        // efficiency, about 82 % of the streaming maximum (0.909).
        let mut d = atlas();
        let spec = RandomIoSpec {
            count: 1500,
            ..RandomIoSpec::reads(528, Alignment::TrackAligned, QueueDepth::Two)
        };
        let r = run_random_io(&mut d, &spec);
        let eff = r.efficiency(QueueDepth::Two);
        assert!(
            (0.66..=0.80).contains(&eff),
            "track-aligned tworeq efficiency {eff}"
        );
    }

    #[test]
    fn unaligned_track_reads_are_much_less_efficient() {
        let mut d = atlas();
        let spec = RandomIoSpec {
            count: 1500,
            ..RandomIoSpec::reads(528, Alignment::Unaligned, QueueDepth::Two)
        };
        let r = run_random_io(&mut d, &spec);
        let eff = r.efficiency(QueueDepth::Two);
        assert!(
            (0.42..=0.60).contains(&eff),
            "unaligned tworeq efficiency {eff}"
        );
    }

    #[test]
    fn tworeq_beats_onereq_for_aligned_track_reads() {
        // §5.2: head time 8.3 ms (tworeq) vs ≈ 9.2 ms (onereq-ish response).
        let mut d = atlas();
        let one = run_random_io(
            &mut d,
            &RandomIoSpec {
                count: 1200,
                ..RandomIoSpec::reads(528, Alignment::TrackAligned, QueueDepth::One)
            },
        );
        let two = run_random_io(
            &mut d,
            &RandomIoSpec {
                count: 1200,
                ..RandomIoSpec::reads(528, Alignment::TrackAligned, QueueDepth::Two)
            },
        );
        let h1 = one.mean_head_time(QueueDepth::One).as_millis_f64();
        let h2 = two.mean_head_time(QueueDepth::Two).as_millis_f64();
        assert!((8.2..=10.0).contains(&h1), "onereq aligned head time {h1}");
        assert!((7.4..=8.8).contains(&h2), "tworeq aligned head time {h2}");
        assert!(h2 < h1);
    }

    #[test]
    fn aligned_response_variance_is_tiny() {
        // Figure 8: at track size, σ_aligned ≈ 0.4 ms (all from the seek)
        // while σ_unaligned ≈ 1.5 ms.
        let mut cfg = models::quantum_atlas_10k_ii();
        cfg.bus = sim_disk::bus::BusConfig::infinite();
        let mut d = Disk::new(cfg);
        let aligned = run_random_io(
            &mut d,
            &RandomIoSpec {
                count: 1500,
                ..RandomIoSpec::reads(528, Alignment::TrackAligned, QueueDepth::One)
            },
        );
        let unaligned = run_random_io(
            &mut d,
            &RandomIoSpec {
                count: 1500,
                ..RandomIoSpec::reads(528, Alignment::Unaligned, QueueDepth::One)
            },
        );
        let sa = aligned.response_std_dev_ms();
        let su = unaligned.response_std_dev_ms();
        assert!(sa < 0.8, "aligned σ {sa}");
        assert!(su > 1.0, "unaligned σ {su}");
        assert!(su > 2.0 * sa, "σ ratio {su}/{sa}");
    }

    #[test]
    fn write_head_times_track_paper() {
        // §5.2 writes, onereq: aligned ≈ 10.0 ms vs unaligned ≈ 13.9 ms.
        let mut d = atlas();
        let aligned = run_random_io(
            &mut d,
            &RandomIoSpec {
                count: 800,
                op: Op::Write,
                ..RandomIoSpec::reads(528, Alignment::TrackAligned, QueueDepth::One)
            },
        );
        let unaligned = run_random_io(
            &mut d,
            &RandomIoSpec {
                count: 800,
                op: Op::Write,
                ..RandomIoSpec::reads(528, Alignment::Unaligned, QueueDepth::One)
            },
        );
        let ha = aligned.mean_head_time(QueueDepth::One).as_millis_f64();
        let hu = unaligned.mean_head_time(QueueDepth::One).as_millis_f64();
        assert!((8.5..=11.0).contains(&ha), "aligned write head time {ha}");
        assert!(
            (12.0..=15.0).contains(&hu),
            "unaligned write head time {hu}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut d = atlas();
        let spec = RandomIoSpec {
            count: 100,
            ..RandomIoSpec::reads(256, Alignment::Unaligned, QueueDepth::One)
        };
        let a = run_random_io(&mut d, &spec);
        let b = run_random_io(&mut d, &spec);
        assert_eq!(a.completions, b.completions);
    }

    #[test]
    #[should_panic(expected = "zone")]
    fn bad_zone_panics() {
        let mut d = atlas();
        let spec = RandomIoSpec {
            zone: 99,
            ..RandomIoSpec::reads(1, Alignment::Unaligned, QueueDepth::One)
        };
        let _ = run_random_io(&mut d, &spec);
    }
}
