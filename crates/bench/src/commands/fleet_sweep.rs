//! Fleet sweep: multi-disk volumes, track-aligned vs fixed stripe units,
//! healthy vs one-member-degraded.
//!
//! ```text
//! bench fleet_sweep            # full grid
//! bench fleet_sweep --quick    # CI grid (fewer requests per cell)
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

use crate::{CellObs, Row, Run};
use dixtrac::extract_auto;
use fleet::{pattern_word, StripePolicy, Volume, VolumeKind, VolumeLayout};
use scsi::ScsiDisk;
use server::{serve, SchedulerKind, ServerConfig, TimelineConfig};
use sim_disk::defects::{DefectPolicy, SpareScheme};
use sim_disk::disk::Disk;
use sim_disk::models;
use sim_disk::SimTime;
use traxtent::boundaries::ConfidentBoundaries;
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

    fn health_label(&self) -> &'static str {
        if self.degraded {
            "degraded"
        } else {
            "healthy"
        }
    }

    /// Manifest key prefix, e.g. `raid5x5_aligned_healthy`.
    fn tag(&self) -> String {
        format!(
            "{}x{}_{}_{}",
            self.kind.label(),
            self.n,
            self.policy_label().replace('+', "_"),
            self.health_label()
        )
    }
}

/// Builds the cell's member drives (heterogeneous defect slippage, so no
/// two members share exact track lengths) and their dixtrac-extracted
/// boundary maps.
fn build_members(obs: &CellObs, n: usize, seed: u64) -> Vec<(Disk, ConfidentBoundaries)> {
    (0..n)
        .map(|m| {
            let cfg = obs.drive(models::with_factory_defects(
                models::small_test_disk(),
                SpareScheme::SectorsPerCylinder(8),
                DefectPolicy::Slip,
                400 + 250 * m as u32,
                seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(m as u64 + 1),
            ));
            let mut scsi = ScsiDisk::new(Disk::new(cfg.clone()));
            let map = extract_auto(&mut scsi, &dixtrac::GeneralConfig::default())
                .expect("the test drive answers diagnostics")
                .boundaries;
            (Disk::new(cfg), map)
        })
        .collect()
}

fn run_cell(run: &Run, cell_index: usize, cell: Cell) -> Row {
    let Cell {
        kind,
        n,
        aligned,
        degraded,
        sched,
    } = cell;
    // The registry totals, and the extra observability, describe the
    // C-LOOK grid; of it, the RAID-5 aligned cells are observed: their
    // service path exercises every span kind (fan-out, parity,
    // reconstruction).
    let grid = sched == SchedulerKind::CLook;
    let obs = run.observe(
        cell_index,
        0xF1EE,
        kind == VolumeKind::Raid5 && aligned && grid,
    );
    let members = build_members(&obs, n, run.seed);
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
    let fill_seed = run.seed ^ 0xf1ee7;
    volume.format(fill_seed);
    if let Some(rec) = obs.spans() {
        volume.attach_spans(rec.clone());
    }
    if degraded {
        volume.fail_member(FAILED).expect("member exists");
    }

    let tag = cell.tag();
    let row = Row::new()
        .col(kind.label())
        .col(n)
        .col(cell.policy_label())
        .col(cell.health_label());
    if !volume.can_serve() {
        // RAID-0 with a dead member: no redundancy, nothing to measure.
        let blank = ["0", "0", "-", "-", "-", "-", "0", "0", "0", "data-loss"];
        return blank
            .iter()
            .fold(row, Row::col)
            .set(format!("{tag}_unservable"), 1);
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
        count: if run.quick { 900 } else { 3600 },
        capacity_lbns: min_cap,
        io_sectors: 1,
        read_fraction: 1.0,
        seed: run.seed ^ ((kind.label().len() as u64) << 16) ^ ((n as u64) << 8),
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
    let server_cfg = obs.server(
        server_cfg,
        TimelineConfig::new(TIMELINE_WINDOW_MS).with_slo(SLO_THRESHOLD_MS, SLO_BREACH_FRACTION),
    );
    let mut res = serve(&mut volume, &trace, &server_cfg).expect("generated traces are valid");
    if grid {
        res.export_metrics(&run.reg);
    }
    // Capture the spans now: the verification reads and rebuild below run
    // outside the served workload and stay out of the export.
    let telemetry = obs.telemetry(tag.clone(), res.timeline.take(), res.slo);
    let stats = *volume.stats();

    // Data verification: evenly spaced extents read back against the
    // canonical fill pattern (the trace is read-only, so every sector
    // still holds it). Degraded cells thus prove reconstruction returns
    // bit-exact data, not just plausible timing.
    let mut verified = 0u64;
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
            .rebuild_member(FAILED, &run.reg, SimTime::ZERO)
            .expect("peers are healthy");
        let scrub = volume.scrub(&run.reg);
        (
            report.finished.since(report.started).as_millis_f64(),
            scrub.mismatches,
        )
    } else {
        (0.0, 0)
    };
    if grid {
        volume.export_metrics(&run.reg);
    }

    let [p50, p99] = res.percentiles_ms([0.50, 0.99]);
    row.col(res.completed())
        .col(res.rejected())
        .num(p50, 2)
        .num(p99, 2)
        .key(format!("{tag}_p99_ms"))
        .num(res.throughput_rps(), 1)
        .col(stats.member_cmds)
        .col(stats.degraded_reads)
        .count(verified)
        .unit(&format!("/{VERIFY_EXTENTS}"))
        .key(format!("{tag}_verified"))
        .add(
            "degraded_verified_extents",
            if degraded { verified as f64 } else { 0.0 },
        )
        .num(rebuild_ms, 1)
        .col(if degraded {
            format!("scrub:{scrub_mismatches}")
        } else {
            "-".into()
        })
        .add("degraded_scrub_mismatches", scrub_mismatches as f64)
        .telemetry(telemetry)
}

pub(crate) fn main(run: &Run) {
    run.header(
        "fleet volumes: track-aligned vs fixed stripe units, healthy vs degraded",
        &[
            "volume",
            "members",
            "policy",
            "health",
            "completed",
            "rejected",
            "p50_ms",
            "p99_ms",
            "thr_rps",
            "member_cmds",
            "deg_reads",
            "verified",
            "rebuild_ms",
            "integrity",
        ],
    );

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
    run.sweep(grid.chain(compound).collect(), |i, cell| {
        run_cell(run, i, cell)
    });

    // The acceptance headlines: aligned stripe units beat naive fixed
    // units on the healthy path of every shape, the traxtent scheduler
    // on top of them beats both, and every degraded redundant cell
    // served bit-exact data.
    for (name, policy) in [("aligned", "aligned"), ("compound", "aligned+traxtent")] {
        for &(kind, n) in &SHAPES {
            let shape = format!("{}x{n}", kind.label());
            let healthy_p99 = |policy: &str| {
                run.get(&format!(
                    "{shape}_{}_healthy_p99_ms",
                    policy.replace('+', "_")
                ))
            };
            let (ours, fixed) = (healthy_p99(policy), healthy_p99("fixed"));
            let gain = fixed / ours.max(1e-9);
            println!("{shape}: {policy} p99 {ours:.2} ms vs fixed {fixed:.2} ms ({gain:.2}x)");
            run.set(&format!("{name}_gain_{shape}"), gain);
        }
    }
    println!(
        "degraded service: {} extents verified bit-exact, {} scrub mismatches after rebuild",
        run.get("degraded_verified_extents"),
        run.get("degraded_scrub_mismatches")
    );

    // Windowed telemetry for the observed cells; the rows ride in this
    // figure's own manifest (the timeline section serializes only when
    // present, so runs without --timeline are unchanged).
    run.print_timelines(None);
}
