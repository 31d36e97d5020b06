//! Crash sweep: a cut-point grid × {ffs, lfs, RAID-5} × recovery on/off.
//!
//! For each cut fraction of the run's durability horizon, the sweep
//! resolves the exact durable media state (torn writes and all) and then
//! measures each subsystem twice:
//!
//! * **ffs** — is the raw post-cut image mountable without repair, how
//!   many repairs does fsck make, and does the repaired image mount;
//! * **lfs** — how much does trusting only the checkpoint lose (no
//!   recovery) versus rolling the log forward past it;
//! * **RAID-5** — how many parity mismatches (write holes) does the cut
//!   leave, and does `scrub_repair` close every one.
//!
//! Every number is a pure function of (seed, cut): the grid is
//! bit-reproducible at any `--threads`, and the committed baseline
//! manifest turns any drift into a `bench_diff` failure.

use crate::{Row, Run};
use ffs::fsck::{check, fsck};
use ffs::image::is_meta_block;
use ffs::{FileId, FileSystem, Personality, BLOCK_SECTORS};
use fleet::{member_boundaries, StripePolicy, Volume};
use lfs::recovery::{recover, LogDisk};
use sim_disk::crash::{pattern_payload, replay, CrashLog, SectorImage, SECTOR_USIZE};
use sim_disk::disk::Disk;
use sim_disk::{models, SimTime};
use traxtent::hash::splitmix64;
use traxtent::obs::Registry;

const MB: u64 = 1 << 20;
const LFS_CAPACITY: u64 = 4096;

/// The splitmix stream after `seed`: each call returns the next draw.
fn draws(mut h: u64) -> impl FnMut() -> u64 {
    move || {
        h = splitmix64(h);
        h
    }
}

/// Deterministic ffs workload (creates, appends, deletes, syncs), kept
/// well inside the small test disk.
fn ffs_workload(fs: &mut FileSystem, seed: u64) {
    let mut next = draws(seed);
    let mut live: Vec<FileId> = Vec::new();
    for _ in 0..30 {
        match next() % 10 {
            0..=2 => {
                if live.len() < 10 {
                    live.push(fs.create());
                }
            }
            3..=7 => {
                if live.is_empty() {
                    continue;
                }
                let f = live[(next() % live.len() as u64) as usize];
                let size = fs.size_of(f).expect("file is live");
                if size < 2 * MB {
                    let len = 64 * 1024 + next() % (MB / 2);
                    fs.write(f, size, len).expect("disk has room");
                }
            }
            8 => {
                if live.len() > 1 {
                    let f = live.swap_remove((next() % live.len() as u64) as usize);
                    fs.delete(f).expect("file is live");
                }
            }
            _ => {
                if next().is_multiple_of(2) {
                    fs.sync();
                } else {
                    fs.checkpoint_metadata();
                }
            }
        }
    }
}

/// One ffs run: the mkfs image, the write log, and the layout needed to
/// fsck any cut of it.
struct FfsRun {
    initial: SectorImage,
    log: CrashLog,
    layout: ffs::Layout,
}

fn build_ffs(run: &Run, seed: u64) -> FfsRun {
    let disk = Disk::new(run.drive(models::small_test_disk()));
    let mut fs = FileSystem::format(disk, Personality::Traxtent);
    fs.enable_crash_shadow(seed ^ 0x0ff5_cafe);
    let initial = fs.format_image();
    ffs_workload(&mut fs, seed);
    assert!(
        fs.shadow_error().is_none(),
        "crash shadow must track every write: {:?}",
        fs.shadow_error()
    );
    let layout = fs.layout().clone();
    let log = fs.disk_mut().take_crash_log().expect("shadow arms the log");
    FfsRun {
        initial,
        log,
        layout,
    }
}

/// One lfs run: the append/checkpoint write log (the log disk starts
/// blank, so the replay base is the empty image).
fn build_lfs(run: &Run, seed: u64) -> CrashLog {
    let disk = Disk::new(run.drive(models::small_test_disk()));
    let mut log = LogDisk::new(disk, LFS_CAPACITY);
    let mut next = draws(seed);
    for i in 0..40u64 {
        if next().is_multiple_of(5) {
            log.checkpoint();
        } else {
            let sectors = 1 + next() % 16;
            let data = pattern_payload(seed ^ (i + 1), log.head() + 1, sectors);
            log.append(&data).expect("40 small batches fit");
        }
    }
    log.disk_mut()
        .take_crash_log()
        .expect("LogDisk arms the log")
}

/// Builds a RAID-5 volume, arms capture, and runs a deterministic mixed
/// workload whose multi-chunk writes fan out asymmetrically enough to
/// open real write holes under a cut.
fn build_raid5(run: &Run, seed: u64) -> Volume {
    // Heterogeneous spindles: identical phase-locked members would tear
    // data and parity writes in lockstep, hiding the write hole.
    let members: Vec<_> = [10_000u32, 12_000, 15_000]
        .iter()
        .map(|&rpm| {
            let mut cfg = run.drive(models::small_test_disk());
            cfg.spindle = sim_disk::mech::Spindle::new(rpm);
            let d = Disk::new(cfg);
            let b = member_boundaries(&d);
            (d, b)
        })
        .collect();
    let mut v = Volume::raid5(members, StripePolicy::aligned()).unwrap();
    v.format(seed);
    v.arm_crash();
    let mut next = draws(seed);
    let cap = v.capacity();
    let mut t = SimTime::ZERO;
    for _ in 0..20 {
        let len = 1 + next() % 256;
        let lbn = next() % (cap - len);
        let words: Vec<u64> = (0..len).map(|o| splitmix64(seed ^ (lbn + o))).collect();
        let c = v
            .write(lbn, &words, t)
            .expect("healthy volume serves writes");
        t = c.completion;
    }
    v
}

/// Mid-record durable instants: for every logged write of at least two
/// sectors, the instant its middle sector hit media. Cutting exactly
/// there tears the write (earlier sectors durable, later ones not), so
/// snapping a grid point to the nearest candidate guarantees the cut
/// lands somewhere recovery has real work to do.
fn mid_record_instants(log: &CrashLog, out: &mut Vec<SimTime>) {
    for rec in &log.records {
        if rec.durable.len() >= 2 {
            out.push(rec.durable[rec.durable.len() / 2]);
        }
    }
}

/// Like [`mid_record_instants`], but only for metadata writes whose torn
/// tail would actually change the on-media bytes. ffs checkpoints rewrite
/// every group, changed or not, and tearing a byte-identical rewrite is
/// semantically invisible — only a tear across *changed* tail sectors can
/// leave a dirty image for fsck to repair.
fn mid_meta_instants(initial: &SectorImage, log: &CrashLog, out: &mut Vec<SimTime>) {
    use std::collections::HashMap;
    let mut media: HashMap<u64, Vec<u8>> = HashMap::new();
    for rec in &log.records {
        let Some(payload) = &rec.payload else {
            continue;
        };
        let touches_meta =
            (rec.lbn..rec.lbn + rec.len).any(|lbn| is_meta_block(lbn / BLOCK_SECTORS));
        if touches_meta && rec.durable.len() >= 2 {
            for mid in 1..rec.durable.len() {
                let tail_changed = (mid..rec.durable.len()).any(|i| {
                    let lbn = rec.lbn + i as u64;
                    let new = &payload[i * SECTOR_USIZE..(i + 1) * SECTOR_USIZE];
                    match media.get(&lbn) {
                        Some(old) => old != new,
                        None => initial.read(lbn)[..] != *new,
                    }
                });
                if tail_changed {
                    out.push(rec.durable[mid]);
                }
            }
        }
        for i in 0..rec.durable.len() {
            media.insert(
                rec.lbn + i as u64,
                payload[i * SECTOR_USIZE..(i + 1) * SECTOR_USIZE].to_vec(),
            );
        }
    }
}

/// The cut `frac` thousandths of the way to `horizon`, snapped to the
/// nearest candidate instant; endpoint fractions (nothing durable /
/// everything durable) pass through untouched.
fn snap_cut(cands: &[SimTime], horizon: SimTime, frac: u64) -> SimTime {
    let target = SimTime::from_ns(horizon.as_ns() * frac / 1000);
    if frac == 0 || frac == 1000 || cands.is_empty() {
        return target;
    }
    *cands
        .iter()
        .min_by_key(|c| c.as_ns().abs_diff(target.as_ns()))
        .expect("candidates nonempty")
}

/// Everything one grid point measures; the headlines total each column
/// over the grid.
fn run_cut(run: &Run, ffs_run: &FfsRun, lfs_log: &CrashLog, seed: u64, frac: u64) -> Row {
    // ffs: replay the durable image, try to mount raw, then fsck.
    let mut cands = Vec::new();
    mid_meta_instants(&ffs_run.initial, &ffs_run.log, &mut cands);
    if cands.is_empty() {
        mid_record_instants(&ffs_run.log, &mut cands);
    }
    let cut = snap_cut(&cands, ffs_run.log.horizon(), frac);
    let mut img = replay(&ffs_run.initial, &ffs_run.log, cut).expect("payloads attached");
    let mountable_norec = check(&img, &ffs_run.layout).is_ok();
    let report = fsck(&mut img, &ffs_run.layout);
    let repairs = report.bitmaps_rebuilt
        + report.bad_inode_sectors
        + report.duplicate_inodes
        + report.truncated_files
        + report.double_refs
        + report.leaked_blocks
        + report.lost_blocks
        + report.free_counts_fixed;
    let mountable_rec = check(&img, &ffs_run.layout).is_ok();

    // lfs: "no recovery" trusts only the newest durable checkpoint;
    // roll-forward replays every durable sealed batch past it.
    let mut cands = Vec::new();
    mid_record_instants(lfs_log, &mut cands);
    let lcut = snap_cut(&cands, lfs_log.horizon(), frac);
    let limg = replay(&SectorImage::new(), lfs_log, lcut).expect("payloads attached");
    let recovered = recover(&limg, LFS_CAPACITY);

    // RAID-5: cut the armed volume mid-run, count the write holes a
    // read-only scrub sees, repair, and re-scrub.
    let mut v = build_raid5(run, seed);
    let mut cands = Vec::new();
    for m in 0..3 {
        if let Some(log) = v.member_crash_log(m) {
            mid_record_instants(log, &mut cands);
        }
    }
    cands.sort_unstable();
    let vcut = snap_cut(&cands, v.crash_horizon(), frac);
    let rep = v.power_cut(vcut).expect("payloads attached");
    let reg = Registry::new();
    let before = v.scrub(&reg);
    let repair = v
        .scrub_repair(&reg, SimTime::ZERO)
        .expect("members healthy");
    assert_eq!(
        repair.mismatched_sectors, before.mismatches,
        "repair must see exactly what the read-only scrub saw"
    );
    let after = v.scrub(&reg);

    Row::new()
        .col(format!("{:.1} %", frac as f64 / 10.0))
        .add("grid_points", 1)
        .col(if mountable_norec { "clean" } else { "dirty" })
        .add("ffs_dirty_without_recovery", u8::from(!mountable_norec))
        .count(repairs)
        .sum("ffs_repairs")
        .col(mountable_rec)
        .add("ffs_mountable_after_fsck", u8::from(mountable_rec))
        .count(report.files)
        .sum("ffs_files_survived")
        .count(recovered.checkpoint_seq)
        .sum("lfs_seq_checkpoint_only")
        .count(recovered.seq)
        .sum("lfs_seq_rolled_forward")
        .count(rep.torn_writes)
        .sum("raid5_torn_writes")
        .count(before.mismatches)
        .sum("raid5_holes_before_repair")
        .count(after.mismatches)
        .sum("raid5_holes_after_repair")
}

pub(crate) fn main(run: &Run) {
    run.no_faults(
        "crash_sweep injects power cuts, not drive faults; \
         vary --seed to replay the sweep on a different workload",
    );
    let seed = run.seed ^ 0xc0a7;

    // Cut fractions of the durability horizon, in permille.
    let grid: Vec<u64> = if run.quick {
        vec![0, 100, 250, 500, 750, 900, 1000]
    } else {
        (0..=20).map(|i| i * 50).collect()
    };

    let ffs_run = build_ffs(run, seed);
    let lfs_log = build_lfs(run, seed);

    run.header(
        "crash sweep: cut-point grid x {ffs, lfs, raid5} x recovery on/off",
        &[
            "cut",
            "ffs_raw",
            "fsck_fixes",
            "mountable",
            "files",
            "lfs_ckpt_seq",
            "lfs_rolled_seq",
            "r5_torn",
            "r5_holes",
            "r5_after",
        ],
    );
    run.sweep(grid, |_, frac| run_cut(run, &ffs_run, &lfs_log, seed, frac));
}
