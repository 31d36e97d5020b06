//! Table 1: representative disk characteristics, printed from the model
//! presets alongside what the built geometries actually provide.

use crate::{Row, Run};
use sim_disk::models;

pub(crate) fn main(run: &Run) {
    run.header(
        "Table 1: representative disk characteristics",
        &[
            "Disk",
            "Year",
            "RPM",
            "HeadSwitch",
            "AvgSeek",
            "SectorsPerTrack",
            "Tracks",
            "Capacity",
            "BuiltCapacityGB",
        ],
    );
    // Building a full geometry is the expensive part; build each sheet's in
    // its own job.
    run.sweep(models::table1_sheets(), |_, sheet| {
        let cfg = run.drive(sheet.build());
        let tracks = cfg.geometry.num_tracks();
        run.reg.add("bench.table1.drives_built", 1);
        run.reg.add("bench.table1.tracks_built", tracks as u64);
        Row::new()
            .col(sheet.name)
            .col(sheet.year)
            .col(sheet.rpm)
            .num(sheet.head_switch_ms, 1)
            .unit(" ms")
            .num(sheet.avg_seek_ms, 1)
            .unit(" ms")
            .col(format!("{}–{}", sheet.spt_outer, sheet.spt_inner))
            .col(tracks)
            .num(sheet.capacity_gb, 1)
            .unit(" GB")
            .num(cfg.geometry.capacity_lbns() as f64 * 512.0 / 1e9, 1)
            .sum("total_built_gb")
    });
}
