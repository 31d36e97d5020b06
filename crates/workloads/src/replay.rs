//! Block-level trace replay: the engine-throughput workload.
//!
//! Feeds a timestamped request stream — parsed from a trace file or
//! generated synthetically — through [`Disk::service`] one request at a
//! time and reports both simulation results (response times, simulated
//! span) and the replay rate itself (requests simulated per wall-clock
//! second), which is the headline number for the event-driven engine
//! rework. A replay keeps 8 bytes a request ([`Replayed`]): each
//! [`Completion`](sim_disk::Completion) is folded into its response time,
//! a running latest completion and three counters as it is served, so
//! the results cost a third of the trace's 24 bytes a record.
//!
//! # Trace format
//!
//! One request per line, whitespace-separated:
//!
//! ```text
//! <arrival_ms> <R|W> <lbn> <sectors>
//! ```
//!
//! * `arrival_ms` — request arrival time in milliseconds since trace
//!   start, a non-negative decimal of at most `1e12` (about 31.7 years,
//!   which leaves the simulated clock's 584 years of nanoseconds ample
//!   room for the requests' service); lines must be sorted by arrival;
//! * `R`/`W` — read or write (lowercase accepted);
//! * `lbn` — first logical block, decimal;
//! * `sectors` — request length in sectors, decimal, positive and at most
//!   `u32::MAX` (a SCSI READ(16)'s transfer length).
//!
//! Blank lines and lines starting with `#` are skipped. This is the same
//! shape as the ASCII traces distributed with DiskSim-era tooling, kept
//! deliberately minimal so real traces convert with one `awk` line.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_disk::disk::{Disk, Op, Request};
use sim_disk::{SimDur, SimTime};
use std::error::Error;
use std::fmt;
use traxtent::stats;

// `TraceRecord` lives in `sim-disk` so that servers need not depend on
// the generators; this old path stays because `benchmark/` names it (see
// benchmark/README.md § "Public functions the benchmark calls").
pub use sim_disk::TraceRecord;

/// What was wrong with a trace line (see [`ParseError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// A required field was absent; carries the field name.
    MissingField(&'static str),
    /// A field did not parse as its expected type; carries the field name.
    BadField(&'static str),
    /// `arrival_ms` was negative, NaN, or infinite.
    NegativeArrival,
    /// `arrival_ms` was past `1e12` (about 31.7 years): serving it could
    /// run the simulated clock past its last nanosecond.
    FarArrival,
    /// The op column was neither `R` nor `W`; carries the offending token.
    BadOp(String),
    /// `sectors` was zero.
    ZeroSectors,
    /// `sectors` was above `u32::MAX`, the longest transfer a SCSI
    /// command can carry (READ(16)'s 32-bit transfer length).
    TooManySectors,
    /// `lbn + sectors` does not fit in 64 bits: no device holds it.
    RangeOverflow,
    /// Extra fields after `sectors`.
    TrailingFields,
    /// The line's arrival precedes its predecessor's.
    NonMonotoneArrival,
}

/// A typed trace-parse failure naming the offending line (1-based).
///
/// [`fmt::Display`] renders the same `line N: reason` text the parser has
/// always produced, so error messages stay stable; callers that need to
/// react programmatically match on [`ParseError::kind`] instead of
/// grepping strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub kind: ParseErrorKind,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            ParseErrorKind::MissingField(name) => write!(f, "missing {name}"),
            ParseErrorKind::BadField("arrival_ms") => write!(f, "arrival_ms is not a number"),
            ParseErrorKind::BadField(name) => write!(f, "{name} is not an integer"),
            ParseErrorKind::NegativeArrival => write!(f, "arrival_ms must be non-negative"),
            ParseErrorKind::FarArrival => write!(f, "arrival_ms must be at most 1e12"),
            ParseErrorKind::BadOp(tok) => write!(f, "op must be R or W, got `{tok}`"),
            ParseErrorKind::ZeroSectors => write!(f, "sectors must be positive"),
            ParseErrorKind::TooManySectors => write!(f, "sectors must be at most {}", u32::MAX),
            ParseErrorKind::RangeOverflow => write!(f, "lbn + sectors overflows"),
            ParseErrorKind::TrailingFields => write!(f, "trailing fields"),
            ParseErrorKind::NonMonotoneArrival => write!(f, "arrivals must be sorted by time"),
        }
    }
}

impl Error for ParseError {}

/// The latest arrival a trace line may carry, in milliseconds: about 31.7
/// years, an 18th of what the nanosecond clock holds.
const MAX_ARRIVAL_MS: f64 = 1e12;

/// Parses a trace in the module's line format.
///
/// Returns the records in file order. Errors name the offending line
/// (1-based) and what was wrong with it; an arrival time earlier than its
/// predecessor's is an error because [`Disk::service`] requires issue
/// times in order.
pub fn parse_trace(text: &str) -> Result<Vec<TraceRecord>, ParseError> {
    let mut records = Vec::new();
    let mut last_arrival = SimTime::ZERO;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let err = |kind| ParseError { line: lineno, kind };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let mut field = |name: &'static str| {
            fields.next().ok_or(ParseError {
                line: lineno,
                kind: ParseErrorKind::MissingField(name),
            })
        };
        let arrival_ms: f64 = field("arrival_ms")?
            .parse()
            .map_err(|_| err(ParseErrorKind::BadField("arrival_ms")))?;
        if !arrival_ms.is_finite() || arrival_ms < 0.0 {
            return Err(err(ParseErrorKind::NegativeArrival));
        }
        if arrival_ms > MAX_ARRIVAL_MS {
            return Err(err(ParseErrorKind::FarArrival));
        }
        let op = match field("op")? {
            "R" | "r" => Op::Read,
            "W" | "w" => Op::Write,
            other => return Err(err(ParseErrorKind::BadOp(other.to_string()))),
        };
        let lbn: u64 = field("lbn")?
            .parse()
            .map_err(|_| err(ParseErrorKind::BadField("lbn")))?;
        let sectors: u64 = field("sectors")?
            .parse()
            .map_err(|_| err(ParseErrorKind::BadField("sectors")))?;
        if sectors == 0 {
            return Err(err(ParseErrorKind::ZeroSectors));
        }
        if sectors > u64::from(u32::MAX) {
            return Err(err(ParseErrorKind::TooManySectors));
        }
        if lbn.checked_add(sectors).is_none() {
            return Err(err(ParseErrorKind::RangeOverflow));
        }
        if fields.next().is_some() {
            return Err(err(ParseErrorKind::TrailingFields));
        }
        let arrival = SimTime::ZERO + SimDur::from_millis_f64(arrival_ms);
        if arrival < last_arrival {
            return Err(err(ParseErrorKind::NonMonotoneArrival));
        }
        last_arrival = arrival;
        records.push(TraceRecord {
            arrival,
            request: Request::new(op, lbn, sectors),
        });
    }
    Ok(records)
}

/// Renders records back into the line format [`parse_trace`] reads,
/// prefixed with a comment header. `parse_trace(&render_trace(&r))`
/// round-trips exactly for millisecond-quantized arrivals.
pub fn render_trace(records: &[TraceRecord]) -> String {
    let mut out = String::from("# <arrival_ms> <R|W> <lbn> <sectors>\n");
    for r in records {
        let op = match r.request.op {
            Op::Read => 'R',
            Op::Write => 'W',
        };
        out.push_str(&format!(
            "{:.3} {op} {} {}\n",
            r.arrival.as_millis_f64(),
            r.request.lbn,
            r.request.len
        ));
    }
    out
}

/// Parameters of the synthetic trace generator.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticSpec {
    /// Number of requests.
    pub count: usize,
    /// Capacity to draw start LBNs from (exclusive upper bound for
    /// `lbn + sectors`).
    pub capacity_lbns: u64,
    /// Request size, sectors.
    pub io_sectors: u64,
    /// Fraction of reads, in `[0, 1]`; the rest are writes.
    pub read_fraction: f64,
    /// Mean interarrival time, milliseconds (uniform on `[0, 2·mean]`).
    pub interarrival_ms: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticSpec {
    /// A read-mostly open workload sized for `capacity_lbns`: track-sized
    /// requests arriving slightly slower than the drive's random-access
    /// service rate (~13 ms), so the queue breathes but never diverges.
    pub fn default_for(capacity_lbns: u64, count: usize, seed: u64) -> Self {
        SyntheticSpec {
            count,
            capacity_lbns,
            io_sectors: 528,
            read_fraction: 0.8,
            interarrival_ms: 18.0,
            seed,
        }
    }
}

/// Generates a deterministic synthetic trace: uniform start LBNs, fixed
/// request size, uniform interarrivals with the given mean.
pub fn synthetic_trace(spec: &SyntheticSpec) -> Vec<TraceRecord> {
    assert!(
        spec.capacity_lbns > spec.io_sectors,
        "capacity too small for the request size"
    );
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut records = Vec::with_capacity(spec.count);
    let mut arrival_ns = 0u64;
    let span = spec.capacity_lbns - spec.io_sectors;
    for _ in 0..spec.count {
        arrival_ns += rng.gen_range(0..=(2e6 * spec.interarrival_ms) as u64);
        let lbn = rng.gen_range(0..span);
        let op = if rng.gen::<f64>() < spec.read_fraction {
            Op::Read
        } else {
            Op::Write
        };
        records.push(TraceRecord {
            arrival: SimTime::from_ns(arrival_ns),
            request: Request::new(op, lbn, spec.io_sectors),
        });
    }
    records
}

/// One replayed request: its response time, the one thing any caller of
/// [`replay`] reads of a [`Completion`](sim_disk::Completion). Its issue
/// is the record's arrival, so its completion is the arrival plus this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replayed(SimDur);

// A replay holds one of these a request; widening it is a decision, not
// a drift (a 10⁷-request trace holds 80 MB of them).
const _: () = assert!(std::mem::size_of::<Replayed>() == 8);

impl Replayed {
    /// Response time as seen by the host driver.
    pub fn response_time(&self) -> SimDur {
        self.0
    }
}

/// The measured outcome of a replay run.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Per-request response times, in trace order.
    pub completions: Vec<Replayed>,
    first_arrival: SimTime,
    last_completion: SimTime,
    reads: u64,
    cache_hits: u64,
    sectors: u64,
}

impl ReplayResult {
    /// Number of requests replayed.
    pub fn requests(&self) -> usize {
        self.completions.len()
    }

    /// Simulated span from the first arrival to the last completion (zero
    /// for an empty trace, whose two instants are both zero).
    pub fn sim_span(&self) -> SimDur {
        self.last_completion.since(self.first_arrival)
    }

    /// Mean response time, milliseconds.
    pub fn mean_response_ms(&self) -> f64 {
        let times: Vec<f64> = self
            .completions
            .iter()
            .map(|c| c.response_time().as_millis_f64())
            .collect();
        stats::mean(&times)
    }

    /// Worst response time, milliseconds.
    pub fn max_response_ms(&self) -> f64 {
        self.completions
            .iter()
            .map(|c| c.response_time().as_millis_f64())
            .fold(0.0, f64::max)
    }

    /// Fraction of reads serviced from the firmware cache.
    pub fn cache_hit_fraction(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.reads as f64
    }

    /// Exports run counters to the observability registry.
    pub fn export_metrics(&self, reg: &traxtent::obs::Registry) {
        reg.add("workloads.replay.requests", self.requests() as u64);
        reg.add("workloads.replay.sectors", self.sectors);
        reg.add("workloads.replay.cache_hits", self.cache_hits);
        reg.set_max(
            "workloads.replay.sim_span_ms",
            self.sim_span().as_ns() / 1_000_000,
        );
    }
}

/// Replays `records` against `disk` in arrival order.
///
/// Requests are issued at their recorded arrival times — an *open* replay:
/// the drive's own queueing model decides how an arrival during a busy
/// period is absorbed, exactly as with back-to-back
/// [`Disk::service`] calls, which is what serves each one. Each
/// [`Completion`](sim_disk::Completion) is folded as it is served: its
/// response time is kept, its completion instant joins the running
/// maximum, its op, length and cache flag are counted, the rest is
/// dropped.
///
/// # Panics
///
/// Panics if a record reaches beyond the disk's capacity or arrivals are
/// out of order (a parsed trace has already validated ordering).
pub fn replay(disk: &mut Disk, records: &[TraceRecord]) -> ReplayResult {
    let first_arrival = records.first().map_or(SimTime::ZERO, |r| r.arrival);
    let mut result = ReplayResult {
        completions: Vec::with_capacity(records.len()),
        first_arrival,
        last_completion: first_arrival,
        reads: 0,
        cache_hits: 0,
        sectors: 0,
    };
    for r in records {
        let c = disk.service(r.request, r.arrival);
        result.reads += u64::from(c.request.op == Op::Read);
        result.cache_hits += u64::from(c.cache_hit);
        result.sectors += u64::from(c.request.len);
        result.last_completion = result.last_completion.max(c.completion);
        result.completions.push(Replayed(c.response_time()));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_disk::models;

    fn atlas() -> Disk {
        Disk::new(models::quantum_atlas_10k_ii())
    }

    #[test]
    fn parse_accepts_comments_blanks_and_both_cases() {
        let text = "# header\n\n0.0 R 100 8\n1.5 w 200 16\n";
        let recs = parse_trace(text).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].request, Request::read(100, 8));
        assert_eq!(recs[1].request, Request::write(200, 16));
        assert_eq!(recs[1].arrival.as_ns(), 1_500_000);
    }

    #[test]
    fn parse_errors_name_the_line() {
        for (text, needle) in [
            ("0.0 R 100", "line 1"),
            ("0.0 X 100 8", "R or W"),
            ("0.0 R 100 0", "positive"),
            ("0.0 R 18446744073709551615 2", "overflows"),
            ("0.0 R 100 8 9", "trailing"),
            ("-1 R 100 8", "non-negative"),
            ("5.0 R 1 1\n2.0 R 1 1", "sorted"),
            ("zz R 1 1", "not a number"),
        ] {
            let err = parse_trace(text).unwrap_err().to_string();
            assert!(err.contains(needle), "`{text}` -> {err}");
        }
    }

    #[test]
    fn parse_errors_are_typed_with_the_offending_line() {
        // Non-monotone arrivals report the *second* line, the one at fault.
        let err = parse_trace("# hdr\n5.0 R 1 1\n\n2.0 R 1 1\n").unwrap_err();
        assert_eq!(err.line, 4);
        assert_eq!(err.kind, ParseErrorKind::NonMonotoneArrival);

        // Zero-sector requests are their own kind, not a generic bad field.
        let err = parse_trace("0.0 R 100 0").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.kind, ParseErrorKind::ZeroSectors);

        // So are requests longer than any SCSI transfer; the longest is not.
        let err = parse_trace("0.0 R 100 4294967296").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooManySectors);
        assert_eq!(
            err.to_string(),
            "line 1: sectors must be at most 4294967295"
        );
        let longest = parse_trace("0.0 W 100 4294967295").unwrap();
        assert_eq!(longest[0].request.len, u32::MAX);

        // A range that wraps past 2^64 is rejected here, before any
        // capacity check could add it up; the last representable one is not.
        let err = parse_trace("0.0 R 1 1\n1.0 R 18446744073709551615 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.kind, ParseErrorKind::RangeOverflow);
        assert!(parse_trace("0.0 R 18446744073709551614 1").is_ok());

        // Trailing garbage after a well-formed prefix.
        let err = parse_trace("0.0 R 100 8\n1.0 W 200 16 junk\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.kind, ParseErrorKind::TrailingFields);

        // The bad op token is carried verbatim.
        let err = parse_trace("0.0 Q 100 8").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::BadOp("Q".to_string()));

        // Missing and malformed fields name the field.
        let err = parse_trace("0.0 R").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::MissingField("lbn"));
        let err = parse_trace("0.0 R ten 8").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::BadField("lbn"));
        let err = parse_trace("0.0 R 100 eight").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::BadField("sectors"));

        // Equal arrivals are fine; only a step backwards is non-monotone.
        assert!(parse_trace("3.0 R 1 1\n3.0 R 2 1\n").is_ok());
    }

    #[test]
    fn a_far_future_arrival_is_refused_before_it_can_wrap_the_clock() {
        // 1e300 ms saturates to the clock's last nanosecond, and
        // 18446744073709.552 ms is that nanosecond exactly: serving either
        // would add the command overhead past it.
        for line in [
            "1e300 R 0 8",
            "18446744073709.552 R 0 8",
            "1000000000000.001 R 0 8",
        ] {
            let err = parse_trace(line).unwrap_err();
            assert_eq!(err.kind, ParseErrorKind::FarArrival, "{line}");
            assert_eq!(err.to_string(), "line 1: arrival_ms must be at most 1e12");
        }
        let last = parse_trace("1e12 R 0 8").unwrap();
        assert_eq!(last[0].arrival.as_ns(), 1_000_000_000_000_000_000);
        let completions = replay(&mut atlas(), &last).completions;
        assert!(completions[0].response_time() > SimDur::ZERO);
    }

    #[test]
    fn render_round_trips() {
        let spec = SyntheticSpec::default_for(1_000_000, 50, 7);
        let recs = synthetic_trace(&spec);
        // Quantize arrivals to the format's millisecond precision first.
        let quantized: Vec<TraceRecord> = recs
            .iter()
            .map(|r| TraceRecord {
                arrival: SimTime::ZERO
                    + SimDur::from_millis_f64(
                        format!("{:.3}", r.arrival.as_millis_f64()).parse().unwrap(),
                    ),
                ..*r
            })
            .collect();
        assert_eq!(parse_trace(&render_trace(&quantized)).unwrap(), quantized);
    }

    #[test]
    fn synthetic_is_deterministic_and_in_range() {
        let spec = SyntheticSpec::default_for(4_000_000, 200, 42);
        let a = synthetic_trace(&spec);
        let b = synthetic_trace(&spec);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.iter().all(|r| r.request.end() <= 4_000_000));
    }

    #[test]
    fn export_metrics_counts_requests() {
        let records = synthetic_trace(&SyntheticSpec::default_for(1_000_000, 64, 3));
        let r = replay(&mut atlas(), &records);
        let reg = traxtent::obs::Registry::new();
        r.export_metrics(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.get("workloads.replay.requests"), Some(64));
    }
}
