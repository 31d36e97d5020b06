//! `lfs_clean`: the LFS segment cleaner under a hot/cold update stream,
//! with track-matched segments, priced as Figure 10's overall write cost.
//!
//! `lfs` alone does the work. Simulated seconds are the time the drive
//! would need for the sectors the cleaner and the writer moved: updates ×
//! write cost × aligned transfer inefficiency × (revolution ÷ track size).

use super::{atlas_table, prefix, ratio, Facts, Outcome, Probe, Scale, Workload};
use lfs::cleaner::{LfsConfig, LfsSim};
use lfs::recovery::{recover, LogDisk, LOG_START};
use lfs::transfer_inefficiency;
use sim_disk::crash::{pattern_payload, replay, SectorImage};
use sim_disk::disk::Disk;
use sim_disk::models;
use sim_disk::SimTime;
use std::time::Instant;

pub const WORKLOAD: Workload = Workload {
    name: "lfs_clean",
    why: "the LFS cleaner under a hot/cold update stream with track-matched segments: lfs alone, priced as Figure 10's overall write cost turned into a rate",
    op: "user sector update",
    slo_ms: None,
    drive_owner: "lfs",
    run,
};

/// The log covers the first 248 tracks of the Atlas 10K II (≈ 64 MB), and
/// the update stream overwrites its live data some ten times over. That
/// is what fits in a second while letting the cleaner cycle through the
/// log often enough for write cost to come within a tenth of its plateau
/// (4.1 here, 4.6 in the limit); on twice the log the same second ends at
/// 2.2, still climbing.
const TRACKS: usize = 248;
const UPDATES: usize = 750_000;
/// Outer-zone track size of the Atlas 10K II, the segment size Figure 10
/// is about.
const TRACK_SECTORS: u64 = 528;
const TI_SAMPLES: usize = 400;

fn run(seed: u64, scale: Scale, probe: &Probe) -> Result<Outcome, String> {
    let table = prefix(&atlas_table(), TRACKS);
    let lfs_config = LfsConfig {
        seed,
        ..LfsConfig::default()
    };
    let mut sim = LfsSim::track_matched(&table, lfs_config);
    let live = sim.live_sectors();
    let updates = scale.n(UPDATES) as u64;
    let drive = models::quantum_atlas_10k_ii();
    let revolution_s = drive.spindle.revolution().as_secs_f64();
    // A config per measurement, so a captured stream is one drive's.
    let (aligned_drive, unaligned_drive) = (probe.drive(drive.clone()), probe.drive(drive));

    let (tally, ti_aligned, ti_unaligned) = probe.timed(|| {
        let tally = probe.call("lfs.run_updates", "lfs", || sim.run_updates(updates));
        let ti = |config, aligned| {
            probe.call("lfs.transfer_inefficiency", "lfs", || {
                transfer_inefficiency(config, TRACK_SECTORS, aligned, TI_SAMPLES, seed)
            })
        };
        (tally, ti(&aligned_drive, true), ti(&unaligned_drive, false))
    });

    let tally = tally.map_err(|e| format!("run_updates: {e}"))?;
    sim.check_consistency()?;
    if sim.live_sectors() != live {
        return Err(format!(
            "live sectors not conserved: {live} before, {} after",
            sim.live_sectors()
        ));
    }
    if tally.new_written != updates {
        return Err(format!(
            "{} of {updates} updates written",
            tally.new_written
        ));
    }
    let write_cost = tally.write_cost();
    let owc_aligned = write_cost * ti_aligned;
    let mut out = Outcome {
        attempted: updates,
        succeeded: updates,
        sim_s: updates as f64 * owc_aligned * revolution_s / TRACK_SECTORS as f64,
        facts: vec![
            ("lfs.cleaner_passes", sim.cleaner_passes() as f64),
            ("lfs.write_cost", write_cost),
            ("lfs.ti_aligned", ti_aligned),
            ("lfs.ti_unaligned", ti_unaligned),
            ("lfs.owc_aligned", owc_aligned),
        ],
        ..Outcome::default()
    };
    if probe.spans().is_some() {
        // Paper anchor: Figure 10, aligned against unaligned segments at
        // the track size (the write-cost factor is common to both).
        out.observed = vec![(
            "lfs.anchor.owc_reduction",
            1.0 - ratio(ti_aligned, ti_unaligned),
        )];
        out.observed.extend(log_recovery(seed, scale)?);
    }
    Ok(out)
}

/// The crash-recovery half of `lfs`, outside the timed section: append to
/// a `LogDisk`, cut the power three quarters of the way through, recover.
/// What comes back must be exactly the batches that were wholly durable
/// at the cut, byte for byte.
fn log_recovery(seed: u64, scale: Scale) -> Result<Facts, String> {
    const BATCH_SECTORS: u64 = 32;
    const CHECKPOINT_EVERY: usize = 64;
    let batches = scale.n(4096);
    let capacity = LOG_START + batches as u64 * (1 + BATCH_SECTORS) + 1;
    let payload = |batch: usize| pattern_payload(seed, batch as u64 * BATCH_SECTORS, BATCH_SECTORS);

    let mut log = LogDisk::new(Disk::new(models::quantum_atlas_10k_ii()), capacity);
    let t = Instant::now();
    for batch in 0..batches {
        log.append(&payload(batch))
            .map_err(|e| format!("append {batch}: {e}"))?;
        if (batch + 1) % CHECKPOINT_EVERY == 0 {
            log.checkpoint();
        }
    }
    let append_ns = t.elapsed().as_nanos() as f64 / batches as f64;

    let crash_log = log
        .disk_mut()
        .take_crash_log()
        .ok_or("LogDisk did not arm the crash log")?;
    let cut = SimTime::from_ns(crash_log.horizon().as_ns() / 4 * 3);
    // Log order is media order, so the durable prefix ends at the first
    // batch with a sector not yet on the media.
    let durable = crash_log
        .records
        .iter()
        .filter(|r| r.lbn >= LOG_START)
        .take_while(|r| r.durable_count(cut) == r.len as usize)
        .count();
    let t = Instant::now();
    let image = replay(&SectorImage::new(), &crash_log, cut).map_err(|e| e.to_string())?;
    let recovered = recover(&image, capacity);
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;

    if recovered.seq != durable as u64 {
        return Err(format!(
            "recovery returned {} batches, the durable prefix has {durable}",
            recovered.seq
        ));
    }
    for b in &recovered.batches {
        if b.data != payload(b.seq as usize - 1) {
            return Err(format!("recovered batch {} is not bit-exact", b.seq));
        }
    }
    Ok(vec![
        ("lfs.log_append_ns_per_batch", append_ns),
        ("lfs.recover_host_ms", recover_ms),
    ])
}
