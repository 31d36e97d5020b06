//! A file-server workload mix on the three FFS personalities: large-file
//! streaming, an interleaved two-file comparison, and a small-file
//! transaction mix — Table 2 in miniature.
//!
//! Run with: `cargo run --release -p traxtent-bench --example file_server`

use ffs::{FileSystem, Personality};
use sim_disk::disk::Disk;
use sim_disk::models;
use workloads::apps;

const MB: u64 = 1 << 20;

fn main() {
    println!("workload            unmodified   fast-start    traxtent");
    let personalities = [
        Personality::Unmodified,
        Personality::FastStart,
        Personality::Traxtent,
    ];

    let line = |name: &str, f: &dyn Fn(&mut FileSystem) -> f64| {
        let mut cols = format!("{name:<18}");
        for p in personalities {
            let mut fs = apps::mkfs(Disk::new(models::quantum_atlas_10k()), p);
            cols += &format!("  {:>9.2}s", f(&mut fs));
        }
        println!("{cols}");
    };

    line("256 MB scan", &|fs| {
        apps::scan(fs, 256 * MB, 64 * 1024).elapsed.as_secs_f64()
    });
    line("2x128 MB diff", &|fs| {
        apps::diff(fs, 128 * MB, 64 * 1024).elapsed.as_secs_f64()
    });
    line("256 MB copy", &|fs| {
        apps::copy(fs, 256 * MB, 64 * 1024).elapsed.as_secs_f64()
    });
    line("postmark 600tx", &|fs| {
        let (r, _) = apps::postmark(fs, 150, 600, 7);
        r.elapsed.as_secs_f64()
    });
    line("head* 300 files", &|fs| {
        apps::head_star(fs, 300, 200 * 1024).elapsed.as_secs_f64()
    });

    let fs = apps::mkfs(
        Disk::new(models::quantum_atlas_10k()),
        Personality::Traxtent,
    );
    println!(
        "\ntraxtent layout excludes {:.1}% of blocks (paper: ~5% on the Atlas 10K)",
        100.0 * fs.layout().excluded_fraction()
    );
}
