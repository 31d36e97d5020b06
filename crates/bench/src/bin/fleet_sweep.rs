//! Fleet sweep: multi-disk volumes, track-aligned vs fixed stripe units,
//! healthy vs one-member-degraded.
//!
//! ```text
//! fleet_sweep            # full grid
//! fleet_sweep --quick    # CI grid (fewer requests per cell)
//! ```
//!
//! Builds volumes — RAID-0 ×2/×4, RAID-1 ×2, RAID-5 ×3/×5 — out of
//! heterogeneous defect-laden small test drives, with each member's track
//! boundaries recovered by real `dixtrac` extraction, and serves the same
//! open-loop Poisson trace of *random whole-stripe-unit reads* — the
//! volume-level analogue of the paper's random track-sized access —
//! through the PR 7 server under two placement policies:
//!
//! * **aligned** — stripe units snapped to each member's extracted track
//!   boundaries ([`fleet::StripePolicy::aligned`]): a stripe-unit read is
//!   one whole-track member command, which the zero-latency firmware
//!   serves with no rotational latency and no head switch;
//! * **fixed** — naive 64-sector units carved with no drive knowledge:
//!   the same logical read fans out into several per-member commands,
//!   each paying command overhead, rotational latency, and possible
//!   head switches.
//!
//! Those cells run the C-LOOK scheduler, whose rounds of up to 32
//! commands keep every member busy whatever the layout, so the
//! aligned-vs-fixed comparison isolates stripe *geometry*, not dispatch
//! policy. Each shape then gets one more healthy cell, **aligned ×
//! traxtent**: the same aligned volume under the traxtent scheduler, fed
//! the volume's logical boundary map ([`Volume::logical_boundaries`]),
//! whose spindle ids give every member its own lane in `serve`, so a
//! track-aligned command waits only for its own member.
//! `compound_gain_<shape>` is p99(fixed × C-LOOK) ÷ p99(aligned ×
//! traxtent): placement and dispatch both drive-aware against neither —
//! the two wins compound. These cells come last, so the rows, span ids
//! and registry totals of the C-LOOK grid are what they were without
//! them.
//!
//! Every policy and health state of a given volume shape sees the
//! *identical* logical trace (the trace seed mixes in the shape only, and
//! requests are clipped to the smaller of the two layouts' capacities),
//! so latency differences are pure placement policy. Degraded cells fail
//! one member before serving: mirrors and RAID-5 reconstruct every read
//! bit-exactly (verified against the canonical fill pattern after the
//! run, and again after an in-place rebuild + scrub), while RAID-0 rows
//! report data loss. Each cell simulates independently and rows merge in
//! submission order, so stdout is byte-identical at any `--threads`.

use dixtrac::extract_auto;
use fleet::{pattern_word, StripePolicy, Volume, VolumeKind, VolumeLayout};
use scsi::ScsiDisk;
use server::{serve, SchedulerKind, ServerConfig, TimelineConfig};
use sim_disk::defects::{DefectPolicy, SpareScheme};
use sim_disk::disk::Disk;
use sim_disk::models;
use sim_disk::trace::{DiskSpanBridge, Fanout, SharedSink, Tracer};
use sim_disk::SimTime;
use std::sync::{Arc, Mutex};
use traxtent::boundaries::ConfidentBoundaries;
use traxtent::obs::span::{self, Span, SpanRecorder};
use workloads::arrivals::{poisson_trace, PoissonSpec};

/// The volume shapes on the sweep's outer axis.
const SHAPES: [(VolumeKind, usize); 5] = [
    (VolumeKind::Striped, 2),
    (VolumeKind::Striped, 4),
    (VolumeKind::Mirrored, 2),
    (VolumeKind::Raid5, 3),
    (VolumeKind::Raid5, 5),
];

/// Offered load scales with the member count: each member drive sees a
/// mean of this many stripe-unit reads per second. Sized so the aligned
/// volume cruises (a whole-track read costs one revolution plus a seek,
/// ~115 reads/s/member) while naive fixed striping — which fans each
/// stripe-unit read into ~3 partial-track commands, each paying its own
/// rotational window — runs past its knee (~43 reads/s/member).
const RATE_PER_MEMBER_RPS: f64 = 45.0;

/// The member failed in degraded cells.
const FAILED: usize = 1;

/// Post-run data verification: extents read back against the fill
/// pattern.
const VERIFY_EXTENTS: u64 = 32;
const VERIFY_SECTORS: u64 = 64;

/// Sampler window for `--timeline` cells (the fleet runs are shorter
/// than the server sweep's, so the windows are finer).
const TIMELINE_WINDOW_MS: f64 = 500.0;

/// SLO monitored on `--timeline` cells.
const SLO_THRESHOLD_MS: f64 = 60.0;
const SLO_BREACH_FRACTION: f64 = 0.05;

struct CellResult {
    line: String,
    served: bool,
    p99_ms: f64,
    verified: u64,
    scrub_mismatches: u64,
    timeline: Option<server::Timeline>,
    slo: Option<server::SloSummary>,
    spans: Vec<Span>,
}

/// One cell of the sweep.
#[derive(Clone, Copy)]
struct Cell {
    kind: VolumeKind,
    n: usize,
    aligned: bool,
    degraded: bool,
    sched: SchedulerKind,
}

impl Cell {
    /// The policy column: placement, plus dispatch where it is not C-LOOK.
    fn policy_label(&self) -> &'static str {
        match (self.aligned, self.sched) {
            (true, SchedulerKind::Traxtent) => "aligned+traxtent",
            (true, _) => "aligned",
            (false, _) => "fixed",
        }
    }

    /// Manifest key prefix, e.g. `raid5x5_aligned_healthy`.
    fn tag(&self) -> String {
        format!(
            "{}x{}_{}_{}",
            self.kind.label(),
            self.n,
            self.policy_label().replace('+', "_"),
            fail_label(self.degraded)
        )
    }
}

/// Per-cell observability requests (RAID-5 aligned C-LOOK cells only): a
/// windowed timeline (`--timeline`) and a causal span tree (`--trace`).
#[derive(Clone, Copy)]
struct ObsOpts {
    timeline: bool,
    spans: bool,
}

fn fail_label(degraded: bool) -> &'static str {
    if degraded {
        "degraded"
    } else {
        "healthy"
    }
}

/// Builds the cell's member drives (heterogeneous defect slippage, so no
/// two members share exact track lengths) and their dixtrac-extracted
/// boundary maps.
fn build_members(
    probe: &traxtent_bench::Probe,
    n: usize,
    seed: u64,
    rec: Option<&SpanRecorder>,
) -> Vec<(Disk, ConfidentBoundaries)> {
    (0..n)
        .map(|m| {
            let mut cfg = probe.wrap(models::with_factory_defects(
                models::small_test_disk(),
                SpareScheme::SectorsPerCylinder(8),
                DefectPolicy::Slip,
                400 + 250 * m as u32,
                seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(m as u64 + 1),
            ));
            // The span bridge rides alongside any --trace/--metrics sink;
            // it only records while the volume holds a request context, so
            // the dixtrac extraction below stays invisible to it.
            if let Some(rec) = rec {
                let bridge: SharedSink = Arc::new(Mutex::new(DiskSpanBridge::new(rec.clone())));
                cfg.tracer = Some(match cfg.tracer.take() {
                    Some(t) => Tracer::from_sink(Fanout::new(vec![t.sink(), bridge])),
                    None => Tracer::new(bridge),
                });
            }
            let mut scsi = ScsiDisk::new(Disk::new(cfg.clone()));
            let map = extract_auto(&mut scsi, &dixtrac::GeneralConfig::default())
                .expect("the test drive answers diagnostics")
                .boundaries;
            (Disk::new(cfg), map)
        })
        .collect()
}

fn run_cell(
    probe: &traxtent_bench::Probe,
    reg: &traxtent::obs::Registry,
    cell: Cell,
    requests: usize,
    seed: u64,
    cell_index: usize,
    obs: ObsOpts,
) -> CellResult {
    let Cell {
        kind,
        n,
        aligned,
        degraded,
        sched,
    } = cell;
    // A per-cell recorder with a per-cell salt, so merged span ids never
    // collide across cells and the export is identical at any --threads.
    let rec = obs.spans.then(|| {
        let rec = SpanRecorder::new();
        rec.set_salt(span::derive_id(seed, 0xF1EE, cell_index as u64, 0));
        rec
    });
    let members = build_members(probe, n, seed, rec.as_ref());
    let policy = if aligned {
        StripePolicy::aligned()
    } else {
        StripePolicy::fixed(64)
    };
    let maps: Vec<ConfidentBoundaries> = members.iter().map(|(_, m)| m.clone()).collect();
    // Both policies' layouts, so the shared trace fits either volume.
    let aligned_layout = VolumeLayout::new(kind, &maps, &StripePolicy::aligned())
        .expect("extracted maps build a layout");
    let fixed_layout = VolumeLayout::new(kind, &maps, &StripePolicy::fixed(64))
        .expect("extracted maps build a layout");
    let min_cap = aligned_layout.capacity().min(fixed_layout.capacity());

    let mut volume = match kind {
        VolumeKind::Striped => Volume::striped(members, policy),
        VolumeKind::Mirrored => Volume::mirrored(members, policy),
        VolumeKind::Raid5 => Volume::raid5(members, policy),
    }
    .expect("members validated by construction");
    let fill_seed = seed ^ 0xf1ee7;
    volume.format(fill_seed);
    if let Some(rec) = &rec {
        volume.attach_spans(rec.clone());
    }
    if degraded {
        volume.fail_member(FAILED).expect("member exists");
    }

    if !volume.can_serve() {
        // RAID-0 with a dead member: no redundancy, nothing to measure.
        let line = traxtent_bench::row_string([
            kind.label().into(),
            n.to_string(),
            cell.policy_label().into(),
            fail_label(degraded).into(),
            "0".into(),
            "0".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "0".into(),
            "0".into(),
            "0".into(),
            "data-loss".into(),
        ]);
        return CellResult {
            line,
            served: false,
            p99_ms: 0.0,
            verified: 0,
            scrub_mismatches: 0,
            timeline: None,
            slo: None,
            spans: Vec::new(),
        };
    }

    // The identical logical trace for every policy and health state of
    // this shape: Poisson arrivals of *random whole stripe units* of the
    // aligned layout — the volume-level analogue of the paper's random
    // track-sized access, where alignment pays and no firmware cache can
    // help. Each raw arrival snaps to the aligned unit containing its
    // start; units past the smaller layout's capacity are dropped so the
    // trace fits both volumes.
    let spec = PoissonSpec {
        rate_per_sec: RATE_PER_MEMBER_RPS * n as f64,
        count: requests,
        capacity_lbns: min_cap,
        io_sectors: 1,
        read_fraction: 1.0,
        seed: seed ^ ((kind.label().len() as u64) << 16) ^ ((n as u64) << 8),
    };
    let mut trace = poisson_trace(&spec);
    for r in &mut trace {
        let u = &aligned_layout.units()[aligned_layout.unit_index(r.request.lbn)];
        r.request.lbn = u.lstart;
        r.request.len = u.len;
    }
    trace.retain(|r| r.request.end() <= min_cap);

    let mut server_cfg = ServerConfig::new(sched);
    if sched == SchedulerKind::Traxtent {
        server_cfg = server_cfg.with_boundaries(volume.logical_boundaries());
    }
    if obs.timeline {
        server_cfg = server_cfg.with_timeline(
            TimelineConfig::new(TIMELINE_WINDOW_MS).with_slo(SLO_THRESHOLD_MS, SLO_BREACH_FRACTION),
        );
    }
    if let Some(rec) = &rec {
        server_cfg = server_cfg.with_spans(rec.clone());
    }
    let res = serve(&mut volume, &trace, &server_cfg).expect("generated traces are valid");
    // The registry totals describe the C-LOOK grid.
    let grid = sched == SchedulerKind::CLook;
    if grid {
        res.export_metrics(reg);
    }
    // Capture the spans now: the verification reads and rebuild below run
    // outside the served workload and stay out of the export.
    let spans = rec.map(|r| r.take_sorted()).unwrap_or_default();
    let stats = *volume.stats();

    // Data verification: evenly spaced extents read back against the
    // canonical fill pattern (the trace is read-only, so every sector
    // still holds it). Degraded cells thus prove reconstruction returns
    // bit-exact data, not just plausible timing.
    let mut verified = 0;
    for i in 0..VERIFY_EXTENTS {
        let lbn = i * (min_cap - VERIFY_SECTORS) / (VERIFY_EXTENTS - 1);
        let (_, words) = volume
            .read(lbn, VERIFY_SECTORS, SimTime::ZERO)
            .expect("volume can serve");
        if words
            .iter()
            .enumerate()
            .all(|(o, &w)| w == pattern_word(fill_seed, lbn + o as u64))
        {
            verified += 1;
        }
    }

    // Degraded cells finish the story: rebuild the failed member in
    // place, then scrub the redundancy invariant.
    let (rebuild_ms, scrub_mismatches) = if degraded {
        let report = volume
            .rebuild_member(FAILED, reg, SimTime::ZERO)
            .expect("peers are healthy");
        let scrub = volume.scrub(reg);
        (
            report.finished.since(report.started).as_millis_f64(),
            scrub.mismatches,
        )
    } else {
        (0.0, 0)
    };
    if grid {
        volume.export_metrics(reg);
    }

    let line = traxtent_bench::row_string([
        kind.label().into(),
        n.to_string(),
        cell.policy_label().into(),
        fail_label(degraded).into(),
        res.completed().to_string(),
        res.rejected().to_string(),
        format!("{:.2}", res.percentile_ms(0.50)),
        format!("{:.2}", res.percentile_ms(0.99)),
        format!("{:.1}", res.throughput_rps()),
        format!("{:.0}", stats.member_cmds as f64),
        stats.degraded_reads.to_string(),
        format!("{verified}/{VERIFY_EXTENTS}"),
        format!("{rebuild_ms:.1}"),
        if degraded {
            format!("scrub:{scrub_mismatches}")
        } else {
            "-".into()
        },
    ]);
    CellResult {
        line,
        served: true,
        p99_ms: res.percentile_ms(0.99),
        verified,
        scrub_mismatches,
        timeline: res.timeline,
        slo: res.slo,
        spans,
    }
}

fn main() {
    let cli = traxtent_bench::Cli::parse_with(&["--timeline"]);
    let probe = cli.probe();
    let reg = traxtent::obs::Registry::new();
    let mut rec = cli.recorder("fleet_sweep");
    let timeline = cli.has("--timeline");
    let tracing = cli.trace.is_some();
    let requests = if cli.quick { 900 } else { 3600 };

    traxtent_bench::header(
        "fleet volumes: track-aligned vs fixed stripe units, healthy vs degraded",
    );
    traxtent_bench::row([
        "volume".into(),
        "members".into(),
        "policy".into(),
        "health".into(),
        "completed".into(),
        "rejected".into(),
        "p50_ms".into(),
        "p99_ms".into(),
        "thr_rps".into(),
        "member_cmds".into(),
        "deg_reads".into(),
        "verified".into(),
        "rebuild_ms".into(),
        "integrity".into(),
    ]);

    let grid = SHAPES.iter().flat_map(|&(kind, n)| {
        [true, false].into_iter().flat_map(move |aligned| {
            [false, true].into_iter().map(move |degraded| Cell {
                kind,
                n,
                aligned,
                degraded,
                sched: SchedulerKind::CLook,
            })
        })
    });
    let compound = SHAPES.iter().map(|&(kind, n)| Cell {
        kind,
        n,
        aligned: true,
        degraded: false,
        sched: SchedulerKind::Traxtent,
    });
    let cells: Vec<Cell> = grid.chain(compound).collect();
    // RAID-5 aligned C-LOOK cells carry the extra observability: their
    // service path exercises every span kind (fan-out, parity,
    // reconstruction).
    let results = cli.executor().run(cells.clone(), |i, cell| {
        let interesting =
            cell.kind == VolumeKind::Raid5 && cell.aligned && cell.sched == SchedulerKind::CLook;
        let obs = ObsOpts {
            timeline: timeline && interesting,
            spans: tracing && interesting,
        };
        run_cell(&probe, &reg, cell, requests, cli.seed, i, obs)
    });

    let mut degraded_verified = 0;
    let mut degraded_mismatches = 0;
    for (cell, r) in cells.iter().zip(&results) {
        println!("{}", r.line);
        let tag = cell.tag();
        if r.served {
            rec.headline(&format!("{tag}_p99_ms"), r.p99_ms);
            rec.headline(&format!("{tag}_verified"), r.verified as f64);
            if cell.degraded {
                degraded_verified += r.verified;
                degraded_mismatches += r.scrub_mismatches;
            }
        } else {
            rec.headline(&format!("{tag}_unservable"), 1.0);
        }
    }

    // The acceptance headlines: aligned stripe units beat naive fixed
    // units on the healthy path of every shape, the traxtent scheduler
    // on top of them beats both, and every degraded redundant cell
    // served bit-exact data.
    let healthy_p99 = |kind: VolumeKind, n: usize, aligned: bool, sched: SchedulerKind| {
        cells
            .iter()
            .zip(&results)
            .find(|(c, _)| {
                (c.kind, c.n, c.aligned, c.sched) == (kind, n, aligned, sched) && !c.degraded
            })
            .map(|(_, r)| r.p99_ms)
            .expect("healthy cells always serve")
    };
    for &(kind, n) in &SHAPES {
        let aligned = healthy_p99(kind, n, true, SchedulerKind::CLook);
        let fixed = healthy_p99(kind, n, false, SchedulerKind::CLook);
        let gain = fixed / aligned.max(1e-9);
        println!(
            "{}x{n}: aligned p99 {aligned:.2} ms vs fixed {fixed:.2} ms ({gain:.2}x)",
            kind.label(),
        );
        rec.headline(&format!("aligned_gain_{}x{n}", kind.label()), gain);
    }
    for &(kind, n) in &SHAPES {
        let both = healthy_p99(kind, n, true, SchedulerKind::Traxtent);
        let neither = healthy_p99(kind, n, false, SchedulerKind::CLook);
        let gain = neither / both.max(1e-9);
        println!(
            "{}x{n}: aligned+traxtent p99 {both:.2} ms vs fixed {neither:.2} ms ({gain:.2}x)",
            kind.label(),
        );
        rec.headline(&format!("compound_gain_{}x{n}", kind.label()), gain);
    }
    println!(
        "degraded service: {degraded_verified} extents verified bit-exact, \
         {degraded_mismatches} scrub mismatches after rebuild"
    );
    rec.headline("degraded_verified_extents", degraded_verified as f64);
    rec.headline("degraded_scrub_mismatches", degraded_mismatches as f64);

    if timeline {
        // Windowed telemetry for the instrumented cells; the rows ride in
        // this figure's own manifest (the timeline section serializes only
        // when present, so runs without --timeline are unchanged).
        for (cell, r) in cells.iter().zip(&results) {
            let Some(t) = &r.timeline else { continue };
            let tag = cell.tag();
            println!(
                "## timeline {tag} (window {TIMELINE_WINDOW_MS:.0} ms, {} buckets)",
                t.buckets.len()
            );
            print!("{t}");
            if let Some(slo) = &r.slo {
                println!("{slo}");
            }
            rec.timeline(&tag, t.rows());
        }
    }

    cli.export_spans(
        "fleet_sweep",
        results.iter().flat_map(|r| r.spans.clone()).collect(),
    );

    probe.finish();
    rec.finish(&reg);
}
