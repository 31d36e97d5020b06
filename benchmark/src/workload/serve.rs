//! The three open-loop server workloads: `serve_disk`, `serve_raid5` and
//! `serve_raid5_degraded`.

use super::{ns_per_call, prefix, ratio, Facts, Outcome, Probe, Scale, Workload};
use crate::spans::Timed;
use dixtrac::{extract_auto, GeneralConfig};
use fleet::{fill_stores, pattern_word, reconstruct_unit, SectorStore, StripePolicy, Volume};
use scsi::ScsiDisk;
use server::{
    drive_boundaries, serve, Backend, CLook, DiskSpanBridge, Queued, Scheduler, SchedulerKind,
    ServerConfig, ServerResult, TimelineConfig, Traxtent,
};
use sim_disk::defects::{DefectPolicy, SpareScheme};
use sim_disk::disk::{Disk, DiskConfig};
use sim_disk::models;
use sim_disk::trace::Tracer;
use sim_disk::SimTime;
use std::hint::black_box;
use std::time::Instant;
use traxtent::obs::span::SpanRecorder;
use traxtent::obs::Registry;
use traxtent::{ConfidentBoundaries, TrackBoundaries};
use workloads::arrivals::{poisson_trace, stream_trace, PoissonSpec, StreamsSpec};
use workloads::replay::TraceRecord;

pub const DISK: Workload = Workload {
    name: "serve_disk",
    why: "one drive behind the traxtent scheduler with a deep queue: the per-round sort-and-gather makes server the largest share of host time, and fleet does nothing",
    op: "client request",
    slo_ms: Some(400.0),
    drive_owner: "server",
    run: run_disk,
};

pub const RAID5: Workload = Workload {
    name: "serve_raid5",
    why: "the north-star configuration, aligned RAID-5 striping under the traxtent scheduler: fleet's healthy read path, with ROADMAP item 4's idle spindles in its latency",
    op: "client request",
    slo_ms: Some(150.0),
    drive_owner: "fleet",
    run: run_raid5,
};

pub const RAID5_DEGRADED: Workload = Workload {
    name: "serve_raid5_degraded",
    why: "a dead member and 70 % writes make fleet reconstruct, read-modify-write and XOR, so a gain for healthy reads that costs degraded writes shows",
    op: "client request",
    slo_ms: Some(250.0),
    drive_owner: "fleet",
    run: run_raid5_degraded,
};

/// Runs `serve` as the timed section. With spans on, the backend is
/// wrapped so every round is a child span charged to `backend_layer`, and
/// the wrapper's round and command counts come back as observed facts.
fn serve_timed<B: Backend>(
    backend: &mut B,
    backend_layer: &'static str,
    trace: &[TraceRecord],
    config: &ServerConfig,
    probe: &Probe,
) -> Result<(ServerResult, Facts), String> {
    let (result, observed) = match probe.spans() {
        None => (probe.timed(|| serve(backend, trace, config)), Vec::new()),
        Some(spans) => {
            let mut timed = Timed::new(backend, spans, backend_layer);
            let result = probe.timed(|| {
                probe.call("server.serve", "server", || {
                    serve(&mut timed, trace, config)
                })
            });
            let observed = vec![
                ("server.rounds", timed.rounds as f64),
                (
                    "server.cmds_per_round",
                    ratio(timed.cmds as f64, timed.rounds as f64),
                ),
            ];
            (result, observed)
        }
    };
    let result = result.map_err(|e| format!("serve refused the generated trace: {e}"))?;
    if result.completed() + result.rejected() != trace.len() as u64 {
        return Err(format!(
            "completed {} + rejected {} != offered {}",
            result.completed(),
            result.rejected(),
            trace.len()
        ));
    }
    Ok((result, observed))
}

/// The outcome of a `serve` run: a rejected request is a failed op.
fn outcome(result: &ServerResult) -> Outcome {
    let completed = result.completed() as f64;
    Outcome {
        attempted: result.completed() + result.rejected(),
        succeeded: result.completed(),
        sim_s: result.sim_end.as_secs_f64(),
        responses_ms: result.response_ms(),
        facts: vec![
            (
                "server.coalesced_frac",
                ratio(result.coalesced_requests as f64, completed),
            ),
            ("server.sim_mean_depth", result.mean_depth()),
            ("server.sim_max_depth", result.max_depth as f64),
            ("server.reject_frac", result.rejection_fraction()),
        ],
        ..Outcome::default()
    }
}

/// Host nanoseconds per `Scheduler::select` on a 128-deep queue (the
/// default admission bound) drawn from consecutive windows of `trace`.
fn price_select(mut sched: impl Scheduler, trace: &[TraceRecord]) -> f64 {
    let mut queues: Vec<Vec<Queued>> = trace
        .chunks_exact(128)
        .take(2000)
        .enumerate()
        .map(|(w, window)| {
            window
                .iter()
                .enumerate()
                .map(|(i, r)| Queued {
                    id: (w * 128 + i) as u64,
                    arrival: r.arrival,
                    request: r.request,
                })
                .collect()
        })
        .collect();
    if queues.is_empty() {
        return 0.0;
    }
    ns_per_call(queues.len(), |i| {
        black_box(sched.select(&mut queues[i], 32));
    })
}

/// `serve_disk`: 16 readers and 16 writers, each walking forward in
/// 132-sector chunks (a quarter of an outer track) at its own fixed period
/// around 120 ms.
///
/// With 32 streams the elevator's sweep over their tracks takes longer
/// than a period, so every visit to a track finds a chunk or two to
/// coalesce and the queue settles some 40 deep: the regime in which the
/// scheduler's sort-and-gather is the largest share of host time. Two
/// choices make the simulated results depend little on the seed. Every
/// stream has its own period (half a millisecond apart), so relative
/// phases drift through all values instead of being frozen by the seed.
/// And the streams stay in the outermost zone, as the paper's Figures 1
/// and 6 do, so the seed moves positions and phases but not the mix of
/// track sizes.
const STREAMS: usize = 32;
const STREAM_CHUNKS: usize = 15_625;
const STREAM_PERIOD_MS: f64 = 120.0;
const STREAM_PERIOD_STEP_MS: f64 = 0.5;
/// Tracks of the Atlas 10K II's outermost zone the streams are placed in.
const STREAM_BAND_TRACKS: usize = 3000;

fn stream_clients(table: &TrackBoundaries, seed: u64, scale: Scale) -> Vec<TraceRecord> {
    let band = prefix(table, STREAM_BAND_TRACKS);
    let mut trace = Vec::new();
    for i in 0..STREAMS {
        let period = STREAM_PERIOD_MS + STREAM_PERIOD_STEP_MS * (i as f64 - STREAMS as f64 / 2.0);
        trace.extend(stream_trace(
            &StreamsSpec {
                read_streams: (i + 1) % 2,
                write_streams: i % 2,
                chunk_sectors: 132,
                chunk_period_ms: period,
                // Every stream ends at about the same simulated instant.
                chunks_per_stream: (scale.n(STREAM_CHUNKS) as f64 * STREAM_PERIOD_MS / period)
                    as usize,
                seed: seed ^ ((i as u64) << 32),
            },
            &band,
        ));
    }
    trace.sort_by_key(|r| r.arrival);
    trace
}

fn run_disk(seed: u64, scale: Scale, probe: &Probe) -> Result<Outcome, String> {
    let mut disk = Disk::new(probe.drive(models::quantum_atlas_10k_ii()));
    let table = drive_boundaries(&disk);
    let gen = Instant::now();
    let trace = stream_clients(&table, seed, scale);
    let gen_ns_per_req = gen.elapsed().as_nanos() as f64 / trace.len() as f64;
    let boundaries = ConfidentBoundaries::certain(table.clone());
    let config = ServerConfig::new(SchedulerKind::Traxtent).with_boundaries(boundaries.clone());

    let (result, observed) = serve_timed(&mut disk, "server", &trace, &config, probe)?;

    let mut out = outcome(&result);
    out.observed = observed;
    if probe.spans().is_some() {
        out.observed
            .push(("workloads.gen_ns_per_req", gen_ns_per_req));
        let sched = Traxtent::new(boundaries, config.confidence_threshold);
        out.observed
            .push(("server.sched_select_ns", price_select(sched, &trace)));
        out.observed.push((
            "core.boundary_lookup_ns",
            ns_per_call(trace.len(), |i| {
                black_box(table.track_bounds(trace[i].request.lbn));
            }),
        ));
    }
    Ok(out)
}

/// The volume of both RAID workloads: five Atlas 10K II members whose
/// factory defect lists differ (fixed seeds, so the drives are the same on
/// every run), boundaries extracted by `dixtrac`, stripe units aligned to
/// them.
const MEMBERS: usize = 5;
const MEMBER_DEFECT_SEEDS: [u64; MEMBERS] = [0x6d30, 0x6d31, 0x6d32, 0x6d33, 0x6d34];
const FILL_SEED: u64 = 0xf1ee7;

fn member_config(m: usize) -> DiskConfig {
    models::with_factory_defects(
        models::quantum_atlas_10k_ii(),
        SpareScheme::SectorsPerCylinder(8),
        DefectPolicy::Slip,
        150 + 50 * m as u32,
        MEMBER_DEFECT_SEEDS[m],
    )
}

/// Builds and formats the volume. `wire` sees each member's config before
/// its drive is built (to hang a tracer on it); extraction always runs on
/// an unobserved twin, so set-up traffic never reaches a sink.
fn build_volume(wire: impl Fn(DiskConfig) -> DiskConfig) -> Result<Volume, String> {
    let mut members = Vec::with_capacity(MEMBERS);
    for m in 0..MEMBERS {
        let config = member_config(m);
        let mut scsi = ScsiDisk::new(Disk::new(config.clone()));
        let map = extract_auto(&mut scsi, &GeneralConfig::default())
            .map_err(|e| format!("member {m}: extraction failed: {e}"))?
            .boundaries;
        members.push((Disk::new(wire(config)), map));
    }
    let mut volume = Volume::raid5(members, StripePolicy::aligned()).map_err(|e| e.to_string())?;
    volume.format(FILL_SEED);
    Ok(volume)
}

/// Poisson arrivals over the volume: 16-sector requests at uniform LBNs,
/// except that the i-th is widened to the whole stripe unit it falls in
/// when `whole_unit(i)` says so.
fn volume_trace(
    volume: &Volume,
    rate_per_sec: f64,
    count: usize,
    read_fraction: f64,
    seed: u64,
    whole_unit: impl Fn(usize) -> bool,
) -> Vec<TraceRecord> {
    let layout = volume.layout();
    let mut trace = poisson_trace(&PoissonSpec {
        rate_per_sec,
        count,
        capacity_lbns: volume.capacity(),
        io_sectors: 16,
        read_fraction,
        seed,
    });
    for (i, r) in trace.iter_mut().enumerate() {
        if whole_unit(i) {
            let unit = &layout.units()[layout.unit_index(r.request.lbn)];
            r.request.lbn = unit.lstart;
            r.request.len = unit.len;
        }
    }
    trace
}

/// Least and most busy member: mechanical occupancy ÷ the run's span.
fn busy_range(volume: &Volume, result: &ServerResult) -> (f64, f64) {
    let span = result.sim_end.as_ns() as f64;
    let busy = volume.member_busy_ns();
    let fracs = busy.iter().map(|&b| ratio(b as f64, span));
    (
        fracs.clone().fold(f64::INFINITY, f64::min),
        fracs.fold(0.0, f64::max),
    )
}

fn volume_facts(volume: &Volume, result: &ServerResult) -> Facts {
    let stats = volume.stats();
    let requests = result.completed() as f64;
    let (busy_min, busy_max) = busy_range(volume, result);
    vec![
        (
            "fleet.member_cmds_per_req",
            ratio(stats.member_cmds as f64, requests),
        ),
        (
            "fleet.degraded_read_frac",
            ratio(stats.degraded_reads as f64, requests),
        ),
        (
            "fleet.reconstructed_sectors_per_req",
            ratio(stats.reconstructed_sectors as f64, requests),
        ),
        ("fleet.sim_busy_min_frac", busy_min),
        ("fleet.sim_busy_max_frac", busy_max),
    ]
}

/// `serve_raid5` offers whole aligned stripe units at 70 requests a
/// second. The traxtent scheduler dispatches one track — here one member
/// command — per round, so the volume behaves like a single server with
/// about 110 requests a second of capacity: 70 is two thirds of that,
/// where nobody is refused and the tail is a queueing tail. The overload
/// probe offers the rate `fleet_sweep` runs five members at (45/s each),
/// which C-LOOK carries and the traxtent scheduler does not.
const RAID5_RATE: f64 = 70.0;
const RAID5_REQUESTS: usize = 100_000;
const OVERLOAD_RATE: f64 = 225.0;

fn traxtent_config(volume: &Volume) -> ServerConfig {
    ServerConfig::new(SchedulerKind::Traxtent).with_boundaries(volume.logical_boundaries())
}

fn run_raid5(seed: u64, scale: Scale, probe: &Probe) -> Result<Outcome, String> {
    let mut volume = build_volume(|c| probe.drive(c))?;
    let count = scale.n(RAID5_REQUESTS);
    let trace = volume_trace(&volume, RAID5_RATE, count, 1.0, seed, |_| true);
    let config = traxtent_config(&volume);

    let (result, observed) = serve_timed(&mut volume, "fleet", &trace, &config, probe)?;

    let mut out = outcome(&result);
    out.facts.extend(volume_facts(&volume, &result));
    out.observed = observed;
    verify_pattern(&mut volume)?;
    if probe.spans().is_some() {
        let sched = Traxtent::new(volume.logical_boundaries(), config.confidence_threshold);
        out.observed
            .push(("server.sched_select_ns", price_select(sched, &trace)));
        drop(volume);
        out.observed
            .extend(price_program_spans(&trace, probe.host_s())?);
        out.observed.extend(overload_probe(seed, count)?);
    }
    Ok(out)
}

/// The trace is read-only, so every sector still holds the fill pattern:
/// 32 evenly spaced extents must read back equal to it.
fn verify_pattern(volume: &mut Volume) -> Result<(), String> {
    const EXTENTS: u64 = 32;
    const SECTORS: u64 = 64;
    for i in 0..EXTENTS {
        let lbn = i * (volume.capacity() - SECTORS) / (EXTENTS - 1);
        let (_, words) = volume
            .read(lbn, SECTORS, SimTime::ZERO)
            .map_err(|e| format!("verification read at {lbn}: {e}"))?;
        let intact = words
            .iter()
            .enumerate()
            .all(|(o, &w)| w == pattern_word(FILL_SEED, lbn + o as u64));
        if !intact {
            return Err(format!(
                "extent at LBN {lbn} does not hold the fill pattern"
            ));
        }
    }
    Ok(())
}

/// One more pass with the program's own observability attached —
/// `SpanRecorder`, a `DiskSpanBridge` on every member, a timeline — to
/// price it against the pass without (ROADMAP item 6's cost line).
fn price_program_spans(trace: &[TraceRecord], plain_host_s: f64) -> Result<Facts, String> {
    let recorder = SpanRecorder::new();
    let mut volume = build_volume(|config| DiskConfig {
        tracer: Some(Tracer::from_sink(DiskSpanBridge::new(recorder.clone()))),
        ..config
    })?;
    volume.attach_spans(recorder.clone());
    let config = traxtent_config(&volume)
        .with_spans(recorder.clone())
        .with_timeline(TimelineConfig::new(500.0));
    let t = Instant::now();
    let result = serve(&mut volume, trace, &config).map_err(|e| e.to_string())?;
    let host_s = t.elapsed().as_secs_f64();
    Ok(vec![
        ("core.span_overhead_frac", host_s / plain_host_s - 1.0),
        (
            "core.spans_per_req",
            ratio(recorder.len() as f64, result.completed() as f64),
        ),
    ])
}

/// ROADMAP item 4's gap, kept out of the gated numbers because it is made
/// of refused requests: the same volume and scheduler offered
/// [`OVERLOAD_RATE`].
fn overload_probe(seed: u64, count: usize) -> Result<Facts, String> {
    let mut volume = build_volume(|c| c)?;
    let trace = volume_trace(&volume, OVERLOAD_RATE, count, 1.0, seed, |_| true);
    let config = traxtent_config(&volume);
    let result = serve(&mut volume, &trace, &config).map_err(|e| e.to_string())?;
    Ok(vec![
        ("server.overload_reject_frac", result.rejection_fraction()),
        (
            "fleet.overload_busy_min_frac",
            busy_range(&volume, &result).0,
        ),
    ])
}

/// `serve_raid5_degraded`: member 1 is dead, 70 % of requests are writes,
/// and requests alternate between a whole stripe unit and 16 sectors — so
/// the volume reconstructs from parity, read-modify-writes and
/// reconstruct-writes, under C-LOOK.
const FAILED_MEMBER: usize = 1;
const DEGRADED_RATE: f64 = 80.0;
const DEGRADED_REQUESTS: usize = 80_000;

fn run_raid5_degraded(seed: u64, scale: Scale, probe: &Probe) -> Result<Outcome, String> {
    let mut volume = build_volume(|c| probe.drive(c))?;
    volume
        .fail_member(FAILED_MEMBER)
        .map_err(|e| e.to_string())?;
    let count = scale.n(DEGRADED_REQUESTS);
    let trace = volume_trace(&volume, DEGRADED_RATE, count, 0.3, seed, |i| i % 2 == 0);
    let config = ServerConfig::new(SchedulerKind::CLook);

    let (result, observed) = serve_timed(&mut volume, "fleet", &trace, &config, probe)?;

    let mut out = outcome(&result);
    out.facts.extend(volume_facts(&volume, &result));
    out.observed = observed;
    if probe.spans().is_some() {
        out.observed
            .push(("server.sched_select_ns", price_select(CLook::new(), &trace)));
        out.observed.extend(rebuild_and_scrub(&mut volume)?);
        out.observed
            .push(("fleet.xor_ns_per_sector", price_xor(volume)));
    }
    Ok(out)
}

/// After degraded writes, rebuilding the dead member and scrubbing must
/// leave every stripe consistent.
fn rebuild_and_scrub(volume: &mut Volume) -> Result<Facts, String> {
    let registry = Registry::new();
    let t = Instant::now();
    let rebuild = volume
        .rebuild_member(FAILED_MEMBER, &registry, SimTime::ZERO)
        .map_err(|e| format!("rebuild: {e}"))?;
    let rebuild_host_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let scrub = volume.scrub(&registry);
    let scrub_host_ms = t.elapsed().as_secs_f64() * 1e3;
    if scrub.mismatches != 0 {
        return Err(format!(
            "scrub found {} mismatched sectors after rebuild",
            scrub.mismatches
        ));
    }
    Ok(vec![
        ("fleet.rebuild_host_ms", rebuild_host_ms),
        (
            "fleet.sim_rebuild_s",
            rebuild.finished.since(rebuild.started).as_secs_f64(),
        ),
        ("fleet.scrub_host_ms", scrub_host_ms),
    ])
}

/// Host nanoseconds per sector of `fleet::reconstruct_unit`, over stores
/// formatted like the volume's own (which are private to it).
fn price_xor(volume: Volume) -> f64 {
    let layout = volume.layout().clone();
    drop(volume);
    let mut stores: Vec<SectorStore> = layout
        .member_caps()
        .iter()
        .map(|&cap| SectorStore::new(cap))
        .collect();
    fill_stores(&layout, &mut stores, FILL_SEED);
    let rounds = layout.rounds().len().min(4000);
    let mut sectors = 0;
    let per_round = ns_per_call(rounds, |round| {
        let unit = black_box(reconstruct_unit(&layout, &stores, round, FAILED_MEMBER));
        sectors += unit.len();
    });
    ratio(per_round * rounds as f64, sectors as f64)
}
