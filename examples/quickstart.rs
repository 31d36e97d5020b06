//! Quickstart: discover a disk's track boundaries through its SCSI
//! interface, then see what track-aligned access buys you.
//!
//! Run with: `cargo run --release -p traxtent-bench --example quickstart`

use dixtrac::extract_scsi;
use scsi::ScsiDisk;
use sim_disk::disk::{Disk, Request};
use sim_disk::models;
use sim_disk::SimTime;

fn main() {
    // A Quantum Atlas 10K II — the paper's measurement platform.
    let mut scsi = ScsiDisk::new(Disk::new(models::quantum_atlas_10k_ii()));

    // Extract the track boundaries through the command interface (the
    // DIXtrac-style five-step algorithm).
    let extraction = extract_scsi(&mut scsi).expect("the simulated drive supports diagnostics");
    println!(
        "extracted {} tracks in {} zones using {:.2} translations/track",
        extraction.boundaries.num_tracks(),
        extraction.zones.len(),
        extraction.translations_per_track
    );

    // Plan requests against the boundaries: a 256 KB transfer at an
    // arbitrary location is split so no piece crosses a track.
    let pieces: Vec<_> = extraction
        .boundaries
        .split_extent(traxtent::Extent::new(1_000_000, 512))
        .collect();
    println!(
        "256 KB at LBN 1000000 becomes {} track-local request(s):",
        pieces.len()
    );
    for p in &pieces {
        println!("  {p}");
    }

    // Compare, on a fresh drive: one full-track aligned read vs the same
    // size unaligned.
    let mut disk = Disk::new(models::quantum_atlas_10k_ii());
    let track = extraction.boundaries.track_extent(1000);
    let aligned = disk.service(Request::read(track.start, track.len), SimTime::ZERO);
    let unaligned = disk.service(
        Request::read(track.start + track.len / 2, track.len),
        aligned.completion,
    );
    println!(
        "track-sized read: aligned {:.2} ms vs unaligned {:.2} ms",
        aligned.response_time().as_millis_f64(),
        unaligned.response_time().as_millis_f64()
    );
}
