//! ROADMAP item 4's observational proof, end to end: fed a volume's
//! logical boundary map, `serve` keeps one lane per member, so commands on
//! different members overlap in simulated time and no member waits for
//! another's round.

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
        r.request = Request::read(unit.lstart, u64::from(unit.len));
    }
    trace
}

/// One command as the backend saw it: the member holding its first
/// sector, its issue instant and its completion.
type Command = (usize, SimTime, SimTime);

/// Watches `serve` from below: without spans it hands the backend one
/// batch per dispatch instant. Panics if a batch reaches a member whose
/// previous round has not completed.
struct Watched<'a> {
    volume: &'a mut Volume,
    rounds: u64,
    commands: Vec<Command>,
    busy_until: [SimTime; MEMBERS],
}

impl Backend for Watched<'_> {
    fn capacity_lbns(&self) -> u64 {
        self.volume.capacity_lbns()
    }

    fn service_batch_into(&mut self, batch: &[(Request, SimTime)], out: &mut Vec<Completion>) {
        self.rounds += 1;
        let from = out.len();
        self.volume.service_batch_into(batch, out);
        let layout = self.volume.layout();
        let round = self.commands.len();
        for ((req, at), done) in batch.iter().zip(&out[from..]) {
            let member = layout.member(layout.unit_index(req.lbn));
            assert!(
                *at >= self.busy_until[member],
                "member {member} dispatched to at {at:?}, busy until {:?}",
                self.busy_until[member]
            );
            self.commands.push((member, *at, done.completion));
        }
        for &(member, _, done) in &self.commands[round..] {
            self.busy_until[member] = self.busy_until[member].max(done);
        }
    }

    fn member_busy_ns(&self) -> Vec<u64> {
        self.volume.member_busy_ns()
    }
}

/// What one run under the traxtent scheduler leaves behind.
struct Run {
    res: ServerResult,
    rounds: u64,
    commands: Vec<Command>,
    volume: Volume,
}

/// Serves `trace` on a fresh volume under the traxtent scheduler.
fn run(
    trace: &[TraceRecord],
    boundaries: impl Fn(&Volume) -> ConfidentBoundaries,
    timeline: bool,
) -> Run {
    let mut volume = raid5(None);
    let mut cfg = ServerConfig::new(SchedulerKind::Traxtent).with_boundaries(boundaries(&volume));
    if timeline {
        cfg = cfg.with_timeline(TimelineConfig::new(250.0));
    }
    let mut watched = Watched {
        volume: &mut volume,
        rounds: 0,
        commands: Vec::new(),
        busy_until: [SimTime::ZERO; MEMBERS],
    };
    let res = serve(&mut watched, trace, &cfg).unwrap();
    let (rounds, commands) = (watched.rounds, watched.commands);
    Run {
        res,
        rounds,
        commands,
        volume,
    }
}

/// How many commands were issued while a command on another member was
/// still in flight. Commands arrive in issue order.
fn overlapping(commands: &[Command]) -> usize {
    let mut busy_until = [SimTime::ZERO; MEMBERS];
    let mut count = 0;
    for &(member, at, done) in commands {
        let others = (0..MEMBERS).filter(|&m| m != member);
        count += usize::from(others.map(|m| busy_until[m]).any(|t| t > at));
        busy_until[member] = busy_until[member].max(done);
    }
    count
}

/// The logical map with its spindle ids stripped: the whole volume
/// presented as one spindle, as before the ids existed.
fn one_spindle(volume: &Volume) -> ConfidentBoundaries {
    let map = volume.logical_boundaries();
    ConfidentBoundaries::new(map.table().clone(), map.confidence().collect()).unwrap()
}

#[test]
fn members_work_at_the_same_time() {
    let probe = raid5(None);
    let trace = whole_unit_reads(&probe, RATE_PER_MEMBER_RPS * MEMBERS as f64, 1500);

    let mut lanes = run(&trace, Volume::logical_boundaries, false);
    assert_eq!(
        lanes.res.rejected(),
        0,
        "the volume carries what C-LOOK carries"
    );
    // At 45 requests a second a member is busy about half the time, so
    // most commands start while some other member is still working.
    let overlaps = overlapping(&lanes.commands);
    assert!(
        2 * overlaps > lanes.commands.len(),
        "only {overlaps} of {} commands overlap another member's",
        lanes.commands.len()
    );

    // The same trace with the volume presented as one spindle: one lane,
    // so a command is issued only when the last round is over — nothing
    // overlaps, four members idle, and a tail to match.
    let serial = run(&trace, one_spindle, false);
    assert_eq!(overlapping(&serial.commands), 0);
    let ([lanes_p99], [serial_p99]) = (
        lanes.res.percentiles_ms([0.99]),
        serial.res.percentiles_ms([0.99]),
    );
    assert!(
        lanes_p99 < serial_p99,
        "p99 {lanes_p99} ms with spindle ids, {serial_p99} ms without"
    );

    // The trace is read-only: every sector still holds the fill pattern.
    let volume = &mut lanes.volume;
    for i in 0..32 {
        let lbn = i * (volume.capacity() - 64) / 31;
        let (_, words) = volume.read(lbn, 64, SimTime::ZERO).unwrap();
        for (o, &w) in words.iter().enumerate() {
            assert_eq!(w, pattern_word(FILL_SEED, lbn + o as u64), "lbn {lbn}+{o}");
        }
    }

    // Bit-identical on a second run.
    let again = run(&trace, Volume::logical_boundaries, false);
    assert_eq!(again.rounds, lanes.rounds);
    assert_eq!(again.commands, lanes.commands);
    assert_eq!(again.res.sim_end, lanes.res.sim_end);
    assert_eq!(again.res.response_ms(), lanes.res.response_ms());
}

#[test]
fn saturation_keeps_every_member_about_equally_busy() {
    let probe = raid5(None);
    // Ten times the cruising rate: the queue stays full, so every lane has
    // work whenever its member comes free.
    let trace = whole_unit_reads(&probe, 10.0 * RATE_PER_MEMBER_RPS * MEMBERS as f64, 4000);
    let res = run(&trace, Volume::logical_boundaries, true).res;
    assert!(res.rejected() > 0, "the offered load saturates the volume");
    let timeline = res.timeline.expect("timeline requested");
    // Whole windows only: the last one is cut short by the end of the run.
    let windows = &timeline.buckets[..timeline.buckets.len() - 1];
    let busy: Vec<f64> = (0..MEMBERS)
        .map(|m| windows.iter().map(|b| b.busy_frac[m]).sum::<f64>() / windows.len() as f64)
        .collect();
    // With a round barrier the members ran 0.80 to 0.86 busy.
    for (m, &b) in busy.iter().enumerate() {
        assert!(b >= 0.90, "member {m} is only {b} busy: {busy:?}");
    }
}

#[test]
fn overlapping_rounds_still_export_one_valid_forest() {
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
    // One tree per request and one per round — a round being one instant's
    // dispatch — and every command still chains down to the media.
    let rounds: Vec<_> = spans.iter().filter(|s| s.name == "round").collect();
    assert_eq!(stats.roots, trace.len() + rounds.len());
    assert!(stats.max_depth >= 6, "depth {}", stats.max_depth);
    assert!(rounds.len() as u64 <= res.dispatches);
    // Rounds no longer queue behind each other: most start before the
    // round before them has ended.
    let overlaps = rounds
        .windows(2)
        .filter(|w| w[1].start_ns < w[0].end_ns)
        .count();
    assert!(
        2 * overlaps > rounds.len(),
        "{overlaps} of {} rounds overlap",
        rounds.len()
    );
}
