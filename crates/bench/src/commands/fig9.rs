//! Figure 9: worst-case startup latency of a video stream vs number of
//! concurrent streams on a 10-disk Atlas 10K II array, for track-aligned
//! and unaligned access; `fig9_hard` prints the §5.4.2 hard-real-time
//! admission numbers.

use crate::{Row, Run};
use server::video::{hard, soft, VideoConfig};
use sim_disk::models;
use sim_disk::SimDur;

/// §5.4.2: hard real-time streams per disk.
pub(crate) fn hard_real_time(run: &Run) {
    let cfg = run.drive(models::quantum_atlas_10k_ii());
    let track = cfg.geometry.track(0).lbn_count() as u64;
    run.header(
        "§5.4.2: hard real-time streams per disk (4 Mb/s)",
        &["io_size", "unaligned", "track-aligned"],
    );
    let sizes = vec![("264 KB", "264kb", track), ("528 KB", "528kb", 2 * track)];
    run.sweep(sizes, |_, (label, key, io)| {
        Row::new()
            .col(label)
            .num(hard::max_streams(&cfg, 4.0, io, false) as f64, 0)
            .key(format!("unaligned_streams_{key}"))
            .num(hard::max_streams(&cfg, 4.0, io, true) as f64, 0)
            .key(format!("aligned_streams_{key}"))
    });
    println!("paper: 264 KB → 36 vs 67; 528 KB → 52 vs 75");
}

/// Figure 9: startup latency vs concurrent streams.
pub(crate) fn main(run: &Run) {
    let cfg = run.drive(models::quantum_atlas_10k_ii());
    let track = cfg.geometry.track(0).lbn_count() as u64;

    let (rounds, quantile) = if run.quick { (60, 0.98) } else { (400, 0.9999) };
    run.header(
        "Figure 9: startup latency vs concurrent streams (10-disk array)",
        &[
            "streams_total",
            "aligned_io_KB",
            "aligned_latency_s",
            "unaligned_io_KB",
            "unaligned_latency_s",
        ],
    );
    let per_disk: &[usize] = if run.quick {
        &[20, 40, 55, 65]
    } else {
        &[10, 20, 30, 40, 45, 55, 60, 65, 70, 75]
    };
    let video = |aligned| VideoConfig {
        aligned,
        rounds,
        quantile,
        seed: run.seed,
        ..Default::default()
    };

    // One job per (streams, alignment) cell; the server simulation is the
    // dominant cost, so fan the whole grid out.
    run.grid(
        per_disk,
        &[true, false],
        |v| Row::new().col(v * 10),
        |&v, &aligned| match soft::operating_point(&cfg, &video(aligned), v) {
            Some(p) => {
                p.measurement.export_metrics(&run.reg);
                Row::new()
                    .col(p.io_sectors * 512 / 1024)
                    .num(p.startup_latency.as_secs_f64(), 2)
            }
            None => Row::new().col("-").col("unsupportable"),
        },
    );

    // The 0.5 s round-time comparison.
    let cap = SimDur::from_secs_f64(0.5);
    let counts = run.map(vec![true, false], |_, aligned| {
        soft::max_streams_at_round(&cfg, &video(aligned), track, cap)
    });
    println!(
        "at a 0.5 s round with track-sized I/Os: aligned {} vs unaligned {} streams/disk (paper: 70 vs 45)",
        counts[0], counts[1]
    );
    run.set("aligned_streams_at_half_s_round", counts[0] as f64);
    run.set("unaligned_streams_at_half_s_round", counts[1] as f64);
}
