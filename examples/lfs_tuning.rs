//! Tune an LFS segment size against a drive: sweep the overall write cost
//! and confirm the minimum sits at the track size, then show the
//! variable-segment table that matches segments to tracks.
//!
//! Run with: `cargo run --release -p traxtent-bench --example lfs_tuning`

use lfs::cleaner::{LfsConfig, LfsSim};
use lfs::segments::SegmentTable;
use lfs::transfer_inefficiency;
use sim_disk::models;
use traxtent::TrackBoundaries;

fn main() {
    let disk = models::quantum_atlas_10k_ii();
    let track = disk.geometry.track(0).lbn_count() as u64;
    let capacity = 1 << 16;

    println!("segment  write_cost  TI_aligned  OWC");
    let mut best = (u64::MAX, f64::INFINITY);
    for sectors in [128u64, 256, track, 1024, 2048] {
        let cap = capacity.max(sectors * 32);
        let mut sim = LfsSim::fixed(cap, sectors, LfsConfig::default());
        let wc = sim
            .run_updates(cap * 2)
            .expect("sweep capacities leave cleaning headroom")
            .write_cost();
        let ti = transfer_inefficiency(&disk, sectors, true, 150, 1);
        let owc = wc * ti;
        if owc < best.1 {
            best = (sectors, owc);
        }
        println!(
            "{:>6} KB  {wc:>8.2}  {ti:>8.2}  {owc:>6.2}",
            sectors * 512 / 1024
        );
    }
    println!(
        "best segment size: {} KB (track = {} KB)",
        best.0 * 512 / 1024,
        track * 512 / 1024
    );

    // Variable segments that exactly match the (varying) track sizes.
    let mut starts: Vec<u64> = disk.geometry.track_starts().take(257).collect();
    let end = starts.pop().expect("the drive has more than 256 tracks");
    let boundaries = TrackBoundaries::new(starts, end).expect("valid boundary table");
    let table = SegmentTable::track_matched(&boundaries);
    println!(
        "track-matched segment table: {} segments, sizes {}..{} sectors",
        table.len(),
        (0..table.len()).map(|i| table.get(i).len).min().unwrap(),
        (0..table.len()).map(|i| table.get(i).len).max().unwrap()
    );
}
