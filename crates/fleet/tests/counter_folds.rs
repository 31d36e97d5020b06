//! Every exported `fleet.*` and `server.*` counter equals a fold over the
//! same run's spans, as its doc states it.
//!
//! Cells shaped like `bench fleet_sweep`'s (a defect-laden small-drive
//! volume of each kind, aligned or fixed units, healthy or with member 1
//! failed, served a Poisson trace of whole aligned units through
//! `serve()`) and like `bench server_sweep`'s (track-aligned read and
//! write streams on one Atlas 10K II under each scheduler) run with spans
//! on and no background pass (no rebuild, no scrub), and then:
//!
//! * `fleet.member_cmds` is the accepted `member_cmd` spans (no `failed`
//!   attr);
//! * `fleet.degraded_reads` is one span a read chunk served from
//!   redundancy: a `reconstruct` span (RAID-5) or an accepted
//!   `member_cmd` with `role=mirror`;
//! * `fleet.degraded_writes` is one a RAID-5 chunk write that took a
//!   degraded path. A `vol_cmd`'s `mode` attrs are deduplicated per
//!   access, so they cannot count chunks; the member commands can. A
//!   healthy chunk (read-modify-write) reads its parity once and writes
//!   twice, a reconstruct-write writes its parity once and a parity-skip
//!   writes its data once, and neither reads parity: the degraded chunks
//!   are the RAID-5 writes less twice the parity reads;
//! * `server.dispatches` is the `dispatch` spans of primary requests
//!   (those without a `primary` attr);
//! * `server.rejected` is the `reject` spans.

use fleet::{member_boundaries, StripePolicy, Volume, VolumeKind, VolumeLayout};
use proptest::prelude::*;
use server::{serve, SchedulerKind, ServerConfig};
use sim_disk::defects::{DefectPolicy, SpareScheme};
use sim_disk::disk::Disk;
use sim_disk::models;
use traxtent::obs::span::{Span, SpanRecorder};
use traxtent::obs::Registry;
use traxtent::ConfidentBoundaries;
use workloads::arrivals::{poisson_trace, stream_trace, PoissonSpec, StreamsSpec};

/// The member a degraded cell fails, as `fleet_sweep` does.
const FAILED: usize = 1;

/// The volume shapes `fleet_sweep` builds, by kind.
const SHAPES: [(VolumeKind, [usize; 2]); 3] = [
    (VolumeKind::Striped, [2, 4]),
    (VolumeKind::Mirrored, [2, 2]),
    (VolumeKind::Raid5, [3, 5]),
];

fn count(spans: &[Span], name: &str, keep: impl Fn(&Span) -> bool) -> u64 {
    spans.iter().filter(|s| s.name == name && keep(s)).count() as u64
}

fn accepted(s: &Span) -> bool {
    s.attr("failed").is_none()
}

/// Folds the server's spans and holds its two counters to them.
fn check_server(reg: &Registry, spans: &[Span]) {
    let snap = reg.snapshot();
    let primaries = count(spans, "dispatch", |s| s.attr("primary").is_none());
    assert_eq!(snap.get("server.dispatches"), Some(primaries));
    let rejects = count(spans, "reject", |_| true);
    assert_eq!(snap.get("server.rejected"), Some(rejects));
}

/// Notes the server branches a cell reached.
fn note_server(tally: &mut Tally, spans: &[Span]) {
    tally.note_if(count(spans, "reject", |_| true) > 0, "rejections");
    tally.note_if(count(spans, "reject", |_| true) == 0, "no_rejections");
    tally.note_if(
        count(spans, "dispatch", |s| s.attr("primary").is_some()) > 0,
        "coalesced",
    );
}

#[test]
fn volume_counters_are_folds_over_their_spans() {
    let strategy = (
        (0..SHAPES.len(), 0usize..2, 0u32..3, 0u32..3),
        (0u32..=4, 30usize..120, 0u32..3, 0u64..u64::MAX),
    );
    let mut tally = Tally::default();
    for_cases(
        "volume_counters_are_folds_over_their_spans",
        384,
        strategy,
        |((shape, size, aligned, degraded), (reads, requests, limit, seed))| {
            let (kind, n) = (SHAPES[shape].0, SHAPES[shape].1[size]);
            // Two thirds of the cells fail a member (a failed RAID-0
            // member leaves nothing to serve) and two thirds stripe fixed
            // units, where a request spans several chunks.
            let degraded = degraded > 0 && kind != VolumeKind::Striped;
            let members: Vec<(Disk, ConfidentBoundaries)> = (0..n)
                .map(|m| {
                    let disk = Disk::new(models::with_factory_defects(
                        models::small_test_disk(),
                        SpareScheme::SectorsPerCylinder(8),
                        DefectPolicy::Slip,
                        400 + 250 * m as u32,
                        seed ^ (m as u64 + 1),
                    ));
                    let map = member_boundaries(&disk);
                    (disk, map)
                })
                .collect();
            let maps: Vec<ConfidentBoundaries> = members.iter().map(|(_, m)| m.clone()).collect();
            let units = VolumeLayout::new(kind, &maps, &StripePolicy::aligned()).unwrap();
            let policy = if aligned == 0 {
                StripePolicy::aligned()
            } else {
                StripePolicy::fixed(64)
            };
            let mut volume = match kind {
                VolumeKind::Striped => Volume::striped(members, policy),
                VolumeKind::Mirrored => Volume::mirrored(members, policy),
                VolumeKind::Raid5 => Volume::raid5(members, policy),
            }
            .unwrap();
            volume.format(seed);
            let rec = SpanRecorder::new();
            rec.set_salt(seed);
            volume.attach_spans(rec.clone());
            if degraded {
                volume.fail_member(FAILED).unwrap();
            }

            // Random whole aligned units, as fleet_sweep reads them (so a
            // fixed-unit volume splits each into several chunks), a
            // quarter of a cell's requests per step of `reads` reading.
            let capacity = units.capacity().min(volume.capacity());
            let mut trace = poisson_trace(&PoissonSpec {
                rate_per_sec: 45.0 * n as f64,
                count: requests,
                capacity_lbns: capacity,
                io_sectors: 1,
                read_fraction: f64::from(reads) / 4.0,
                seed,
            });
            for r in &mut trace {
                let u = &units.units()[units.unit_index(r.request.lbn)];
                (r.request.lbn, r.request.len) = (u.lstart, u.len);
            }
            trace.retain(|r| r.request.end() <= capacity);
            let mut cfg = ServerConfig::new(SchedulerKind::CLook).with_spans(rec.clone());
            // A third of the cells admit so few requests that some are
            // refused.
            if limit == 0 {
                cfg.queue_limit = 2;
            }
            let res = serve(&mut volume, &trace, &cfg).unwrap();
            let reg = Registry::new();
            volume.export_metrics(&reg);
            res.export_metrics(&reg);
            let spans = rec.take_sorted();
            let snap = reg.snapshot();

            let member_cmds = count(&spans, "member_cmd", accepted);
            assert_eq!(snap.get("fleet.member_cmds"), Some(member_cmds));
            let mirrored = count(&spans, "member_cmd", |s| {
                accepted(s) && s.attr("role") == Some("mirror")
            });
            let degraded_reads = count(&spans, "reconstruct", |_| true) + mirrored;
            assert_eq!(snap.get("fleet.degraded_reads"), Some(degraded_reads));
            let raid5_writes = count(&spans, "member_cmd", |s| {
                accepted(s)
                    && s.attr("op") == Some("write")
                    && matches!(s.attr("role"), Some("data" | "parity"))
            });
            let parity_reads = count(&spans, "member_cmd", |s| {
                accepted(s) && s.attr("op") == Some("read") && s.attr("role") == Some("parity")
            });
            let degraded_writes = if kind == VolumeKind::Raid5 {
                raid5_writes - 2 * parity_reads
            } else {
                0
            };
            assert_eq!(snap.get("fleet.degraded_writes"), Some(degraded_writes));
            check_server(&reg, &spans);

            let health = if degraded { "degraded" } else { "healthy" };
            for op in ["read", "write"] {
                if count(&spans, "vol_cmd", |s| s.attr("op") == Some(op)) > 0 {
                    tally.note(match (kind, health, op) {
                        (VolumeKind::Striped, _, "read") => "striped_healthy_read",
                        (VolumeKind::Striped, _, _) => "striped_healthy_write",
                        (VolumeKind::Mirrored, "healthy", "read") => "mirrored_healthy_read",
                        (VolumeKind::Mirrored, "healthy", _) => "mirrored_healthy_write",
                        (VolumeKind::Mirrored, _, "read") => "mirrored_degraded_read",
                        (VolumeKind::Mirrored, _, _) => "mirrored_degraded_write",
                        (VolumeKind::Raid5, "healthy", "read") => "raid5_healthy_read",
                        (VolumeKind::Raid5, "healthy", _) => "raid5_healthy_write",
                        (VolumeKind::Raid5, _, "read") => "raid5_degraded_read",
                        (VolumeKind::Raid5, _, _) => "raid5_degraded_write",
                    });
                }
            }
            tally.note_if(degraded_reads > 0, "degraded_reads");
            tally.note_if(degraded_writes > 0, "degraded_writes");
            // An access whose chunks took one degraded mode more than
            // once: its `vol_cmd` names the mode once, the counter counts
            // every chunk.
            let modes = count(&spans, "vol_cmd", |s| {
                s.attr("mode") == Some("reconstruct_write") || s.attr("mode") == Some("parity_skip")
            });
            tally.note_if(degraded_writes > modes, "chunks_outnumber_modes");
            note_server(&mut tally, &spans);
        },
    );
    tally.require(
        "volume_counters_are_folds_over_their_spans",
        &[
            "striped_healthy_read",
            "striped_healthy_write",
            "mirrored_healthy_read",
            "mirrored_healthy_write",
            "mirrored_degraded_read",
            "mirrored_degraded_write",
            "raid5_healthy_read",
            "raid5_healthy_write",
            "raid5_degraded_read",
            "raid5_degraded_write",
            "degraded_reads",
            "degraded_writes",
            "chunks_outnumber_modes",
            "rejections",
            "no_rejections",
        ],
    );
}

#[test]
fn server_counters_are_folds_over_their_spans() {
    let strategy = (
        0..SchedulerKind::ALL.len(),
        1usize..7,
        10usize..40,
        0u32..3,
        0u64..u64::MAX,
    );
    let mut tally = Tally::default();
    for_cases(
        "server_counters_are_folds_over_their_spans",
        192,
        strategy,
        |(sched, streams, chunks, limit, seed)| {
            let sched = SchedulerKind::ALL[sched];
            let mut disk = Disk::new(models::quantum_atlas_10k_ii());
            let table = disk.track_boundaries();
            let trace = stream_trace(
                &StreamsSpec {
                    read_streams: streams,
                    write_streams: streams,
                    chunk_sectors: 132,
                    chunk_period_ms: 40.0,
                    chunks_per_stream: chunks,
                    seed,
                },
                &table,
            );
            let rec = SpanRecorder::new();
            rec.set_salt(seed);
            let mut cfg = ServerConfig::new(sched)
                .with_boundaries(ConfidentBoundaries::certain(table))
                .with_spans(rec.clone());
            if limit == 0 {
                cfg.queue_limit = streams;
            }
            let res = serve(&mut disk, &trace, &cfg).unwrap();
            let reg = Registry::new();
            res.export_metrics(&reg);
            let spans = rec.take_sorted();
            check_server(&reg, &spans);
            tally.note(sched.label());
            note_server(&mut tally, &spans);
        },
    );
    let mut branches: Vec<&str> = SchedulerKind::ALL.iter().map(|s| s.label()).collect();
    branches.extend(["rejections", "no_rejections", "coalesced"]);
    tally.require("server_counters_are_folds_over_their_spans", &branches);
}
