//! Open-loop arrival generators for the storage-server experiments.
//!
//! Closed-loop figures keep a fixed number of requests in flight, so the
//! drive never sees a queue deeper than the thinktime allows; the paper's
//! service-time predictability argument only bites under an *open-loop*
//! arrival process, where requests keep arriving whether or not the drive
//! is keeping up. This module generates such processes as plain
//! [`TraceRecord`] vectors — the PR 6 replay format — so the same traces
//! feed the server loop, the replay driver, and on-disk `.trc` files
//! interchangeably:
//!
//! * [`poisson_trace`] — memoryless arrivals at a fixed rate, the
//!   baseline M/G/1-style offered load;
//! * [`bursty_trace`] — an ON/OFF modulated Poisson process with
//!   exponentially distributed dwell times, for traffic with long-range
//!   burstiness;
//! * [`diurnal_trace`] — several tenants with sinusoidally modulated
//!   rates and disjoint address regions, a daily-cycle multi-tenant mix;
//! * [`ramp_trace`] — a linearly increasing arrival rate, for driving a
//!   server from idle through its saturation knee in one run (the
//!   timeline telemetry's natural test signal);
//! * [`stream_trace`] — N concurrent video-style clients issuing
//!   sequential track-aligned chunk reads/writes on a fixed period, the
//!   track-aligned workload where the traxtent scheduler should win.
//!
//! All arrival instants are quantized to whole microseconds so generated
//! traces survive a [`render_trace`](crate::replay::render_trace) /
//! [`parse_trace`](crate::replay::parse_trace) round trip bit-exactly
//! (the text format carries milliseconds with three decimals). Every
//! generator is a pure function of its spec — same spec, same trace, on
//! any machine.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_disk::disk::{Op, Request};
use sim_disk::{SimTime, TraceRecord};
use traxtent::TrackBoundaries;

/// Golden-ratio increment used to derive independent per-purpose RNG
/// streams from one user-facing seed.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Draws an exponential interarrival gap at `rate_per_sec`, rounded to a
/// whole number of microseconds and returned in nanoseconds.
fn exp_gap_ns(rng: &mut StdRng, rate_per_sec: f64) -> u64 {
    let u: f64 = rng.gen();
    let dt_s = -(1.0 - u).ln() / rate_per_sec;
    ((dt_s * 1e6).round() as u64).saturating_mul(1000)
}

/// Draws a request start uniformly so `io_sectors` fits below `capacity`.
fn draw_lbn(rng: &mut StdRng, capacity_lbns: u64, io_sectors: u64) -> u64 {
    assert!(
        capacity_lbns > io_sectors,
        "capacity too small for the request size"
    );
    rng.gen_range(0..capacity_lbns - io_sectors)
}

/// Draws read vs write with the given read probability.
fn draw_op(rng: &mut StdRng, read_fraction: f64) -> Op {
    if rng.gen::<f64>() < read_fraction {
        Op::Read
    } else {
        Op::Write
    }
}

/// Spec for [`poisson_trace`]: memoryless arrivals at a fixed rate.
#[derive(Debug, Clone)]
pub struct PoissonSpec {
    /// Mean arrival rate, requests per second of simulated time.
    pub rate_per_sec: f64,
    /// Number of requests to generate.
    pub count: usize,
    /// Drive capacity; request starts are uniform below it.
    pub capacity_lbns: u64,
    /// Sectors per request.
    pub io_sectors: u64,
    /// Probability a request is a read.
    pub read_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Generates a Poisson arrival process: i.i.d. exponential interarrival
/// gaps with mean `1 / rate_per_sec`, uniformly random request starts.
pub fn poisson_trace(spec: &PoissonSpec) -> Vec<TraceRecord> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut records = Vec::with_capacity(spec.count);
    let mut t_ns = 0u64;
    for _ in 0..spec.count {
        t_ns += exp_gap_ns(&mut rng, spec.rate_per_sec);
        let lbn = draw_lbn(&mut rng, spec.capacity_lbns, spec.io_sectors);
        let op = draw_op(&mut rng, spec.read_fraction);
        records.push(TraceRecord {
            arrival: SimTime::from_ns(t_ns),
            request: Request::new(op, lbn, spec.io_sectors),
        });
    }
    records
}

/// Spec for [`bursty_trace`]: an ON/OFF modulated Poisson process.
///
/// The source alternates between ON dwells (arrivals at `rate_per_sec`)
/// and OFF dwells (silence); both dwell lengths are exponentially
/// distributed with the configured means, so the long-run fraction of
/// time spent ON is `mean_on_ms / (mean_on_ms + mean_off_ms)`.
#[derive(Debug, Clone)]
pub struct BurstySpec {
    /// Arrival rate while ON, requests per second.
    pub rate_per_sec: f64,
    /// Mean ON dwell, milliseconds.
    pub mean_on_ms: f64,
    /// Mean OFF dwell, milliseconds.
    pub mean_off_ms: f64,
    /// Number of requests to generate.
    pub count: usize,
    /// Drive capacity; request starts are uniform below it.
    pub capacity_lbns: u64,
    /// Sectors per request.
    pub io_sectors: u64,
    /// Probability a request is a read.
    pub read_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl BurstySpec {
    /// The first `n` ON windows as `(start, end)` instants.
    ///
    /// Dwells come from a dedicated RNG stream derived from the seed, so
    /// the window sequence is independent of how many arrivals land in
    /// each window — [`bursty_trace`] walks this exact sequence, which is
    /// what lets tests check that every arrival falls inside an ON window
    /// and that realized dwell fractions match the configured means.
    pub fn windows(&self, n: usize) -> Vec<(SimTime, SimTime)> {
        let mut dwell = StdRng::seed_from_u64(self.seed.wrapping_add(SEED_STRIDE));
        let mut out = Vec::with_capacity(n);
        let mut t = 0u64;
        for _ in 0..n {
            let on = exp_gap_ns(&mut dwell, 1000.0 / self.mean_on_ms);
            let off = exp_gap_ns(&mut dwell, 1000.0 / self.mean_off_ms);
            out.push((SimTime::from_ns(t), SimTime::from_ns(t + on)));
            t += on + off;
        }
        out
    }
}

/// Generates an ON/OFF burst process per [`BurstySpec`].
///
/// Arrivals are drawn at the ON rate inside each window; a draw that
/// lands past the window end is discarded and the next window starts
/// fresh (the exponential is memoryless, so this does not bias the
/// within-window process).
pub fn bursty_trace(spec: &BurstySpec) -> Vec<TraceRecord> {
    let mut dwell = StdRng::seed_from_u64(spec.seed.wrapping_add(SEED_STRIDE));
    let mut arr = StdRng::seed_from_u64(spec.seed);
    let mut records = Vec::with_capacity(spec.count);
    let mut win_start = 0u64;
    while records.len() < spec.count {
        let on = exp_gap_ns(&mut dwell, 1000.0 / spec.mean_on_ms);
        let off = exp_gap_ns(&mut dwell, 1000.0 / spec.mean_off_ms);
        let win_end = win_start + on;
        let mut t = win_start;
        loop {
            t += exp_gap_ns(&mut arr, spec.rate_per_sec);
            if t >= win_end || records.len() == spec.count {
                break;
            }
            let lbn = draw_lbn(&mut arr, spec.capacity_lbns, spec.io_sectors);
            let op = draw_op(&mut arr, spec.read_fraction);
            records.push(TraceRecord {
                arrival: SimTime::from_ns(t),
                request: Request::new(op, lbn, spec.io_sectors),
            });
        }
        win_start = win_end + off;
    }
    records
}

/// One tenant in a [`DiurnalSpec`] mix.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Peak arrival rate, requests per second (the sinusoid's crest).
    pub peak_rate_per_sec: f64,
    /// Phase offset as a fraction of the period in `[0, 1)`; tenants with
    /// different phases peak at different "times of day".
    pub phase: f64,
    /// First LBN of this tenant's address region.
    pub first_lbn: u64,
    /// Length of the region in LBNs; request starts stay inside it.
    pub span_lbns: u64,
    /// Sectors per request.
    pub io_sectors: u64,
    /// Probability a request is a read.
    pub read_fraction: f64,
}

/// Spec for [`diurnal_trace`]: tenants with sinusoidally modulated rates.
#[derive(Debug, Clone)]
pub struct DiurnalSpec {
    /// The tenant mix.
    pub tenants: Vec<TenantSpec>,
    /// Modulation period, milliseconds (a scaled-down "day").
    pub period_ms: f64,
    /// Trace length, milliseconds.
    pub duration_ms: f64,
    /// RNG seed; each tenant derives an independent stream from it.
    pub seed: u64,
}

/// Generates a multi-tenant diurnal mix per [`DiurnalSpec`].
///
/// Each tenant is a non-homogeneous Poisson process with instantaneous
/// rate `peak · (1 + sin(2π(t/period + phase))) / 2`, realized by
/// thinning a homogeneous process at the peak rate. Tenant streams are
/// generated independently and stably merged by arrival time.
pub fn diurnal_trace(spec: &DiurnalSpec) -> Vec<TraceRecord> {
    let dur_ns = (spec.duration_ms * 1e6) as u64;
    let period_ns = spec.period_ms * 1e6;
    let mut records = Vec::new();
    for (i, tenant) in spec.tenants.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(
            spec.seed
                .wrapping_add(SEED_STRIDE.wrapping_mul(i as u64 + 1)),
        );
        let mut t_ns = 0u64;
        loop {
            t_ns += exp_gap_ns(&mut rng, tenant.peak_rate_per_sec);
            if t_ns > dur_ns {
                break;
            }
            let cycle = t_ns as f64 / period_ns + tenant.phase;
            let accept = 0.5 * (1.0 + (cycle * std::f64::consts::TAU).sin());
            if rng.gen::<f64>() >= accept {
                continue;
            }
            assert!(
                tenant.span_lbns > tenant.io_sectors,
                "tenant region too small for the request size"
            );
            let off = rng.gen_range(0..tenant.span_lbns - tenant.io_sectors);
            let op = draw_op(&mut rng, tenant.read_fraction);
            records.push(TraceRecord {
                arrival: SimTime::from_ns(t_ns),
                request: Request::new(op, tenant.first_lbn + off, tenant.io_sectors),
            });
        }
    }
    records.sort_by_key(|r| r.arrival);
    records
}

/// Spec for [`ramp_trace`]: a linearly ramping arrival rate.
#[derive(Debug, Clone)]
pub struct RampSpec {
    /// Arrival rate at t = 0, requests per second.
    pub start_rate_per_sec: f64,
    /// Arrival rate at `duration_ms`, requests per second.
    pub end_rate_per_sec: f64,
    /// Trace length, milliseconds.
    pub duration_ms: f64,
    /// Drive capacity; request starts are uniform below it.
    pub capacity_lbns: u64,
    /// Sectors per request.
    pub io_sectors: u64,
    /// Probability a request is a read.
    pub read_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Generates a linearly ramping Poisson process per [`RampSpec`].
///
/// The instantaneous rate interpolates from `start_rate_per_sec` to
/// `end_rate_per_sec` across the duration, realized by thinning a
/// homogeneous process at the faster of the two endpoint rates (so the
/// ramp may also descend). One run walks the server from an idle queue
/// through its saturation knee — the signal the windowed timeline
/// sampler and SLO burn-rate monitor are built to resolve.
pub fn ramp_trace(spec: &RampSpec) -> Vec<TraceRecord> {
    assert!(
        spec.start_rate_per_sec > 0.0 && spec.end_rate_per_sec > 0.0,
        "ramp endpoint rates must be positive"
    );
    let peak = spec.start_rate_per_sec.max(spec.end_rate_per_sec);
    let dur_ns = (spec.duration_ms * 1e6) as u64;
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut records = Vec::new();
    let mut t_ns = 0u64;
    loop {
        t_ns += exp_gap_ns(&mut rng, peak);
        if t_ns > dur_ns {
            break;
        }
        let frac = t_ns as f64 / dur_ns as f64;
        let rate =
            spec.start_rate_per_sec + frac * (spec.end_rate_per_sec - spec.start_rate_per_sec);
        if rng.gen::<f64>() >= rate / peak {
            continue;
        }
        let lbn = draw_lbn(&mut rng, spec.capacity_lbns, spec.io_sectors);
        let op = draw_op(&mut rng, spec.read_fraction);
        records.push(TraceRecord {
            arrival: SimTime::from_ns(t_ns),
            request: Request::new(op, lbn, spec.io_sectors),
        });
    }
    records
}

/// Spec for [`stream_trace`]: N concurrent sequential-stream clients.
#[derive(Debug, Clone)]
pub struct StreamsSpec {
    /// Number of playback clients (sequential chunk reads).
    pub read_streams: usize,
    /// Number of ingest clients (sequential chunk writes).
    pub write_streams: usize,
    /// Nominal chunk length in sectors; the last chunk of a track is
    /// clipped so no request ever crosses a track boundary.
    pub chunk_sectors: u64,
    /// Per-stream inter-chunk period, milliseconds (isochronous clients).
    pub chunk_period_ms: f64,
    /// Chunks each stream issues.
    pub chunks_per_stream: usize,
    /// RNG seed; picks each stream's starting track and phase.
    pub seed: u64,
}

/// Generates N concurrent video-style client streams per [`StreamsSpec`].
///
/// Each stream starts at the first LBN of a uniformly random track of
/// `table` and walks forward sequentially in `chunk_sectors` pieces,
/// clipping the last piece of each track to the boundary (requests are
/// track-aligned by construction) and wrapping from the last track to the
/// first. Chunk `k` of a stream arrives at `phase + k · period` where the
/// phase is uniform in one period, so the merged trace interleaves all
/// clients. Streams are stably merged by arrival time.
pub fn stream_trace(spec: &StreamsSpec, table: &TrackBoundaries) -> Vec<TraceRecord> {
    assert!(spec.chunk_sectors > 0, "chunk length must be positive");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let streams = spec.read_streams + spec.write_streams;
    let period_us = (spec.chunk_period_ms * 1e3).round() as u64;
    let mut records = Vec::with_capacity(streams * spec.chunks_per_stream);
    for s in 0..streams {
        let op = if s < spec.read_streams {
            Op::Read
        } else {
            Op::Write
        };
        let track = rng.gen_range(0..table.num_tracks());
        let mut pos = table.track_extent(track).start;
        let phase_ns = rng.gen_range(0..period_us.max(1)) * 1000;
        for k in 0..spec.chunks_per_stream {
            let (_, track_end) = table.track_bounds(pos);
            let len = spec.chunk_sectors.min(track_end - pos);
            records.push(TraceRecord {
                arrival: SimTime::from_ns(phase_ns + k as u64 * period_us * 1000),
                request: Request::new(op, pos, len),
            });
            pos += len;
            if pos >= table.capacity() {
                pos = 0;
            }
        }
    }
    records.sort_by_key(|r| r.arrival);
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{parse_trace, render_trace};

    fn poisson_spec() -> PoissonSpec {
        PoissonSpec {
            rate_per_sec: 200.0,
            count: 4000,
            capacity_lbns: 1_000_000,
            io_sectors: 64,
            read_fraction: 0.7,
            seed: 7,
        }
    }

    #[test]
    fn poisson_interarrival_mean_tracks_rate() {
        let spec = poisson_spec();
        let trace = poisson_trace(&spec);
        assert_eq!(trace.len(), spec.count);
        let gaps: Vec<f64> = trace
            .windows(2)
            .map(|w| w[1].arrival.since(w[0].arrival).as_millis_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let expect = 1000.0 / spec.rate_per_sec;
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean interarrival {mean:.3} ms, expected ~{expect:.3} ms"
        );
    }

    #[test]
    fn poisson_arrivals_are_sorted_and_quantized() {
        let trace = poisson_trace(&poisson_spec());
        for w in trace.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        for r in &trace {
            assert_eq!(r.arrival.as_ns() % 1000, 0, "arrivals are µs-quantized");
        }
    }

    fn bursty_spec() -> BurstySpec {
        BurstySpec {
            rate_per_sec: 500.0,
            mean_on_ms: 40.0,
            mean_off_ms: 60.0,
            count: 3000,
            capacity_lbns: 1_000_000,
            io_sectors: 64,
            read_fraction: 0.5,
            seed: 11,
        }
    }

    #[test]
    fn bursty_dwell_fractions_match_config() {
        let spec = bursty_spec();
        let windows = spec.windows(500);
        let on: f64 = windows
            .iter()
            .map(|(s, e)| e.since(*s).as_millis_f64())
            .sum();
        // Span to the last ON edge: every counted window contributes its
        // full ON dwell and all but the last its OFF dwell, so the ratio
        // converges on the configured dwell fractions.
        let total = windows.last().unwrap().1.as_millis_f64();
        let frac = on / total;
        let expect = spec.mean_on_ms / (spec.mean_on_ms + spec.mean_off_ms);
        assert!(
            (frac - expect).abs() < 0.05,
            "ON fraction {frac:.3}, expected ~{expect:.3}"
        );
    }

    #[test]
    fn bursty_arrivals_fall_inside_on_windows() {
        let spec = bursty_spec();
        let trace = bursty_trace(&spec);
        assert_eq!(trace.len(), spec.count);
        let windows = spec.windows(100_000);
        let mut w = 0;
        for r in &trace {
            while r.arrival >= windows[w].1 {
                w += 1;
            }
            assert!(
                r.arrival >= windows[w].0 && r.arrival < windows[w].1,
                "arrival {} ms outside ON window",
                r.arrival.as_millis_f64()
            );
        }
    }

    #[test]
    fn diurnal_tenants_stay_in_their_regions() {
        let spec = DiurnalSpec {
            tenants: vec![
                TenantSpec {
                    peak_rate_per_sec: 300.0,
                    phase: 0.0,
                    first_lbn: 0,
                    span_lbns: 100_000,
                    io_sectors: 32,
                    read_fraction: 1.0,
                },
                TenantSpec {
                    peak_rate_per_sec: 300.0,
                    phase: 0.5,
                    first_lbn: 500_000,
                    span_lbns: 100_000,
                    io_sectors: 128,
                    read_fraction: 0.0,
                },
            ],
            period_ms: 2000.0,
            duration_ms: 4000.0,
            seed: 3,
        };
        let trace = diurnal_trace(&spec);
        assert!(!trace.is_empty());
        for w in trace.windows(2) {
            assert!(w[0].arrival <= w[1].arrival, "merged trace is sorted");
        }
        for r in &trace {
            let in_a = r.request.lbn < 100_000 && r.request.len == 32;
            let in_b = (500_000..600_000).contains(&r.request.lbn) && r.request.len == 128;
            assert!(in_a || in_b, "request belongs to exactly one tenant region");
        }
        // Antiphase tenants: tenant A's first-half-period share of its own
        // arrivals should exceed tenant B's (B peaks in the second half).
        let half = SimTime::from_ns(1_000 * 1_000_000);
        let in_cycle = |r: &TraceRecord| r.arrival.as_ns() % 2_000_000_000 < half.as_ns();
        let a: Vec<_> = trace.iter().filter(|r| r.request.len == 32).collect();
        let b: Vec<_> = trace.iter().filter(|r| r.request.len == 128).collect();
        let a_frac = a.iter().filter(|r| in_cycle(r)).count() as f64 / a.len() as f64;
        let b_frac = b.iter().filter(|r| in_cycle(r)).count() as f64 / b.len() as f64;
        assert!(
            a_frac > b_frac + 0.2,
            "phase separation visible: A={a_frac:.2} vs B={b_frac:.2}"
        );
    }

    #[test]
    fn ramp_rate_rises_across_the_run() {
        let spec = RampSpec {
            start_rate_per_sec: 50.0,
            end_rate_per_sec: 450.0,
            duration_ms: 8000.0,
            capacity_lbns: 1_000_000,
            io_sectors: 64,
            read_fraction: 0.6,
            seed: 13,
        };
        let trace = ramp_trace(&spec);
        assert!(!trace.is_empty());
        for w in trace.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        for r in &trace {
            assert_eq!(r.arrival.as_ns() % 1000, 0, "arrivals are µs-quantized");
        }
        // Realized counts per half track the rate integral: the second
        // half's mean rate (350/s) is 2.33× the first half's (150/s).
        let half = SimTime::from_ns(4_000 * 1_000_000);
        let first = trace.iter().filter(|r| r.arrival < half).count() as f64;
        let second = trace.len() as f64 - first;
        let ratio = second / first;
        assert!(
            (ratio - 350.0 / 150.0).abs() < 0.35,
            "half-to-half ratio {ratio:.2}, expected ~2.33"
        );
        // A descending ramp works too and lands near its own integral.
        let down = ramp_trace(&RampSpec {
            start_rate_per_sec: 450.0,
            end_rate_per_sec: 50.0,
            ..spec
        });
        let expect = 250.0 * 8.0; // mean rate × seconds
        assert!(
            (down.len() as f64 - expect).abs() / expect < 0.1,
            "descending ramp generated {} arrivals, expected ~{expect}",
            down.len()
        );
    }

    #[test]
    fn stream_chunks_never_cross_track_boundaries() {
        let table = TrackBoundaries::from_track_lengths((0..64).map(|i| 100 + i % 7)).unwrap();
        let spec = StreamsSpec {
            read_streams: 4,
            write_streams: 2,
            chunk_sectors: 48,
            chunk_period_ms: 12.0,
            chunks_per_stream: 200,
            seed: 9,
        };
        let trace = stream_trace(&spec, &table);
        assert_eq!(trace.len(), 6 * 200);
        for r in &trace {
            let (start, end) = table.track_bounds(r.request.lbn);
            assert!(r.request.lbn >= start && r.request.lbn + r.request.len <= end);
        }
        for w in trace.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
    }

    #[test]
    fn generated_traces_round_trip_through_replay() {
        let table = TrackBoundaries::uniform(128, 400);
        let traces = [
            poisson_trace(&poisson_spec()),
            bursty_trace(&bursty_spec()),
            stream_trace(
                &StreamsSpec {
                    read_streams: 3,
                    write_streams: 1,
                    chunk_sectors: 100,
                    chunk_period_ms: 8.0,
                    chunks_per_stream: 50,
                    seed: 21,
                },
                &table,
            ),
        ];
        for trace in &traces {
            let parsed = parse_trace(&render_trace(trace)).expect("round trip parses");
            assert_eq!(&parsed, trace, "render → parse is lossless");
        }
    }
}
