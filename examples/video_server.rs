//! A streaming video server sizing exercise: how many 4 Mb/s streams can a
//! 10-disk array admit, and at what startup latency, with and without
//! track-aligned I/O?
//!
//! Run with: `cargo run --release -p traxtent-bench --example video_server`

use server::video::{hard, soft, VideoConfig};
use sim_disk::models;
use sim_disk::SimDur;

fn main() {
    let disk = models::quantum_atlas_10k_ii();
    let track = disk.geometry.track(0).lbn_count() as u64;

    // Hard real-time admission: closed-form worst cases.
    println!("hard real-time admission, 4 Mb/s streams per disk:");
    for (label, io) in [("264 KB", track), ("528 KB", 2 * track)] {
        println!(
            "  {label} I/Os: {} unaligned vs {} track-aligned",
            hard::max_streams(&disk, 4.0, io, false),
            hard::max_streams(&disk, 4.0, io, true)
        );
    }

    // Soft real-time: measured round-time distributions.
    let mk = |aligned| VideoConfig {
        aligned,
        rounds: 120,
        quantile: 0.99,
        ..Default::default()
    };
    let cap = SimDur::from_secs_f64(0.5);
    println!(
        "soft real-time at a 0.5 s round (track-sized I/Os): {} aligned vs {} unaligned \
         streams per disk",
        soft::max_streams_at_round(&disk, &mk(true), track, cap),
        soft::max_streams_at_round(&disk, &mk(false), track, cap)
    );

    // The latency a subscriber sees when the array runs near capacity.
    for v in [40usize, 60] {
        if let Some(p) = soft::operating_point(&disk, &mk(true), v) {
            println!(
                "{} aligned streams on the array: {} KB I/Os, startup latency {:.2} s",
                v * 10,
                p.io_sectors * 512 / 1024,
                p.startup_latency.as_secs_f64()
            );
        }
    }
}
