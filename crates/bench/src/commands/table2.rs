//! Table 2: FreeBSD FFS application results for the unmodified, fast-start,
//! and traxtent-aware personalities on the Quantum Atlas 10K.
//!
//! `--quick` scales the large-file sizes down 8× (ratios are preserved —
//! these workloads are streaming-dominated).

use crate::{Row, Run};
use ffs::Personality;
use sim_disk::disk::Disk;
use sim_disk::models;
use workloads::apps;

const MB: u64 = 1 << 20;
const GB: u64 = 1 << 30;

const PERSONALITIES: [Personality; 3] = [
    Personality::Unmodified,
    Personality::FastStart,
    Personality::Traxtent,
];

/// Manifest key stems for the six applications, in column order.
const APP_KEYS: [&str; 6] = [
    "scan_s",
    "diff_s",
    "copy_s",
    "postmark_tps",
    "ssh_build_s",
    "head_star_s",
];

pub(crate) fn main(run: &Run) {
    let scale = if run.quick { 8 } else { 1 };
    let (scan_bytes, diff_bytes, copy_bytes) = (4 * GB / scale, 512 * MB / scale, GB / scale);
    let (pm_files, pm_tx) = if run.quick { (120, 400) } else { (500, 2000) };
    let head_files = if run.quick { 200 } else { 1000 };

    run.header(
        "Table 2: FFS application benchmarks (Quantum Atlas 10K)",
        &[
            "FFS",
            &format!("{}GB scan (s)", 4 / scale.min(4)),
            "diff (s)",
            "copy (s)",
            "Postmark (tr/s)",
            "SSH-build (s)",
            "head* (s)",
        ],
    );

    // One job per (personality, application) cell; every application run
    // formats its own fresh file system, so cells are independent.
    run.grid(
        &PERSONALITIES,
        &APP_KEYS,
        |p| Row::new().col(format!("{p:?}")),
        |&p, &key| {
            let disk = Disk::new(run.drive(models::quantum_atlas_10k()));
            let mut fs = apps::mkfs(disk, p);
            // Postmark reports transactions per second; the rest, run time.
            let mut tps = None;
            let r = match key {
                "scan_s" => apps::scan(&mut fs, scan_bytes, 64 * 1024),
                "diff_s" => apps::diff(&mut fs, diff_bytes, 64 * 1024),
                "copy_s" => apps::copy(&mut fs, copy_bytes, 64 * 1024),
                "postmark_tps" => {
                    let (r, per_sec) = apps::postmark(&mut fs, pm_files, pm_tx, run.seed);
                    tps = Some(per_sec);
                    r
                }
                "ssh_build_s" => apps::ssh_build(&mut fs, run.seed),
                "head_star_s" => apps::head_star(&mut fs, head_files, 200 * 1024),
                other => unreachable!("no application `{other}`"),
            };
            r.export_metrics(&run.reg, key.rsplit_once('_').expect("stem_unit").0);
            fs.export_metrics(&run.reg);
            let personality = format!("{p:?}").to_lowercase();
            match tps {
                Some(tps) => Row::new().num(tps, 0),
                None => Row::new().num(r.elapsed.as_secs_f64(), 1),
            }
            .key(format!("{key}_{personality}"))
        },
    );
    println!(
        "paper (unmodified / fast start / traxtents): scan 189.6/188.9/199.8, diff 69.7/70.0/56.6, \
         copy 156.9/155.3/124.9, Postmark 53/53/55, SSH-build 72.0/71.5/71.5, head* 4.6/5.5/5.2"
    );
}
