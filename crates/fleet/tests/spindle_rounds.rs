//! ROADMAP item 4's observational proof, end to end: the traxtent
//! scheduler, fed a volume's logical boundary map, puts one track-aligned
//! command on every member each round instead of one on the whole volume.

use fleet::{member_boundaries, pattern_word, StripePolicy, Volume};
use server::{serve, Backend, SchedulerKind, ServerConfig, ServerResult, TimelineConfig};
use sim_disk::disk::{Disk, Request};
use sim_disk::models::small_test_disk;
use sim_disk::trace::{DiskSpanBridge, Tracer};
use sim_disk::{Completion, SimTime, TraceRecord};
use traxtent::obs::span::{self, SpanRecorder};
use traxtent::ConfidentBoundaries;
use workloads::arrivals::{poisson_trace, PoissonSpec};

const MEMBERS: usize = 5;
const FILL_SEED: u64 = 0x5eed;
/// `fleet_sweep`'s offered load, which C-LOOK carries.
const RATE_PER_MEMBER_RPS: f64 = 45.0;

/// An aligned RAID-5 × 5 of test drives; with a recorder, every layer
/// records spans into it.
fn raid5(rec: Option<&SpanRecorder>) -> Volume {
    let members = (0..MEMBERS)
        .map(|_| {
            let mut config = small_test_disk();
            config.tracer = rec.map(|r| Tracer::from_sink(DiskSpanBridge::new(r.clone())));
            let disk = Disk::new(config);
            let map = member_boundaries(&disk);
            (disk, map)
        })
        .collect();
    let mut volume = Volume::raid5(members, StripePolicy::aligned()).unwrap();
    volume.format(FILL_SEED);
    if let Some(rec) = rec {
        volume.attach_spans(rec.clone());
    }
    volume
}

/// Poisson reads of random whole stripe units.
fn whole_unit_reads(volume: &Volume, rate_per_sec: f64, count: usize) -> Vec<TraceRecord> {
    let layout = volume.layout();
    let mut trace = poisson_trace(&PoissonSpec {
        rate_per_sec,
        count,
        capacity_lbns: volume.capacity(),
        io_sectors: 1,
        read_fraction: 1.0,
        seed: 0xa11,
    });
    for r in &mut trace {
        let unit = &layout.units()[layout.unit_index(r.request.lbn)];
        r.request = Request::read(unit.lstart, unit.len);
    }
    trace
}

/// Counts scheduling rounds from below: without spans `serve` hands the
/// backend one batch per round.
struct Rounds<'a> {
    volume: &'a mut Volume,
    rounds: u64,
}

impl Backend for Rounds<'_> {
    fn capacity_lbns(&self) -> u64 {
        self.volume.capacity_lbns()
    }

    fn service_batch_into(&mut self, batch: &[(Request, SimTime)], out: &mut Vec<Completion>) {
        self.rounds += 1;
        self.volume.service_batch_into(batch, out);
    }

    fn member_busy_ns(&self) -> Vec<u64> {
        self.volume.member_busy_ns()
    }
}

/// Serves `trace` on a fresh volume under the traxtent scheduler;
/// returns the result, the rounds it took, and the volume.
fn run(
    trace: &[TraceRecord],
    boundaries: impl Fn(&Volume) -> ConfidentBoundaries,
    timeline: bool,
) -> (ServerResult, u64, Volume) {
    let mut volume = raid5(None);
    let mut cfg = ServerConfig::new(SchedulerKind::Traxtent).with_boundaries(boundaries(&volume));
    if timeline {
        cfg = cfg.with_timeline(TimelineConfig::new(250.0));
    }
    let mut counted = Rounds {
        volume: &mut volume,
        rounds: 0,
    };
    let res = serve(&mut counted, trace, &cfg).unwrap();
    let rounds = counted.rounds;
    (res, rounds, volume)
}

/// The logical map with its spindle ids stripped: the whole volume
/// presented as one spindle, as before the ids existed.
fn one_spindle(volume: &Volume) -> ConfidentBoundaries {
    let map = volume.logical_boundaries();
    ConfidentBoundaries::new(map.table().clone(), map.confidence().to_vec()).unwrap()
}

#[test]
fn a_round_puts_a_track_on_every_member() {
    let probe = raid5(None);
    let trace = whole_unit_reads(&probe, RATE_PER_MEMBER_RPS * MEMBERS as f64, 1500);

    let (res, rounds, mut volume) = run(&trace, Volume::logical_boundaries, false);
    assert_eq!(res.rejected(), 0, "the volume carries what C-LOOK carries");
    assert!(
        res.dispatches > rounds,
        "{} commands in {rounds} rounds",
        res.dispatches
    );

    // The same trace with the volume presented as one spindle: one track
    // per round (more than one command only when the queue holds the
    // same unit twice), four members idle, and a tail to match.
    let (serial, serial_rounds, _) = run(&trace, one_spindle, false);
    assert!(
        res.dispatches * serial_rounds > serial.dispatches * rounds,
        "{}/{rounds} commands per round with spindle ids, {}/{serial_rounds} without",
        res.dispatches,
        serial.dispatches
    );
    assert!(
        res.percentile_ms(0.99) < serial.percentile_ms(0.99),
        "p99 {} ms with spindle ids, {} ms without",
        res.percentile_ms(0.99),
        serial.percentile_ms(0.99)
    );

    // The trace is read-only: every sector still holds the fill pattern.
    for i in 0..32 {
        let lbn = i * (volume.capacity() - 64) / 31;
        let (_, words) = volume.read(lbn, 64, SimTime::ZERO).unwrap();
        for (o, &w) in words.iter().enumerate() {
            assert_eq!(w, pattern_word(FILL_SEED, lbn + o as u64), "lbn {lbn}+{o}");
        }
    }

    // Bit-identical on a second run.
    let (again, again_rounds, _) = run(&trace, Volume::logical_boundaries, false);
    assert_eq!(again_rounds, rounds);
    assert_eq!(again.sim_end, res.sim_end);
    assert_eq!(again.response_ms(), res.response_ms());
}

#[test]
fn saturation_keeps_every_member_about_equally_busy() {
    let probe = raid5(None);
    // Ten times the cruising rate: the queue stays full and every round
    // has a track for every member.
    let trace = whole_unit_reads(&probe, 10.0 * RATE_PER_MEMBER_RPS * MEMBERS as f64, 4000);
    let (res, _, _) = run(&trace, Volume::logical_boundaries, true);
    assert!(res.rejected() > 0, "the offered load saturates the volume");
    let timeline = res.timeline.expect("timeline requested");
    // Whole windows only: the last one is cut short by the end of the run.
    let windows = &timeline.buckets[..timeline.buckets.len() - 1];
    let busy: Vec<f64> = (0..MEMBERS)
        .map(|m| windows.iter().map(|b| b.busy_frac[m]).sum::<f64>() / windows.len() as f64)
        .collect();
    let busiest = busy.iter().copied().fold(0.0, f64::max);
    assert!(busiest > 0.5, "busiest member only {busiest} busy");
    for (m, &b) in busy.iter().enumerate() {
        assert!(
            b >= 0.75 * busiest,
            "member {m} is {b} busy, the busiest {busiest}: {busy:?}"
        );
    }
}

#[test]
fn multi_track_rounds_still_export_one_valid_forest() {
    let rec = SpanRecorder::new();
    rec.set_salt(0x5b1d);
    let mut volume = raid5(Some(&rec));
    let trace = whole_unit_reads(&volume, RATE_PER_MEMBER_RPS * MEMBERS as f64, 300);
    let cfg = ServerConfig::new(SchedulerKind::Traxtent)
        .with_boundaries(volume.logical_boundaries())
        .with_spans(rec.clone());
    let res = serve(&mut volume, &trace, &cfg).unwrap();
    let spans = rec.take_sorted();
    let stats = span::validate(&spans).unwrap();
    // One tree per request and one per round, and the serial issue of a
    // multi-command round still chains each command down to the media.
    let rounds = spans.iter().filter(|s| s.name == "round").count();
    assert_eq!(stats.roots, trace.len() + rounds);
    assert!(stats.max_depth >= 6, "depth {}", stats.max_depth);
    assert!(
        spans
            .iter()
            .any(|s| s.name == "round" && s.attr("cmds").is_some_and(|c| c != "1")),
        "no round carried more than one command"
    );
    assert!((rounds as u64) < res.dispatches);
}
