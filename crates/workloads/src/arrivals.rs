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
            assert!(r.request.lbn >= start && r.request.end() <= end);
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
