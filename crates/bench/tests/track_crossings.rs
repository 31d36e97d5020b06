//! The paper's mechanism, audited from what the drives saw: a traxtent
//! request touches one track. Each test traces a figure, folds the trace
//! with [`Crossings`] (what `bench trace_report` prints as its "track
//! crossings" table, whose totals are checked against the fold), asserts
//! that no request meant to be track-aligned crossed, names and counts
//! each exception, and asserts that the figure's unaligned cells do cross,
//! so the audit can fail.

mod common;

use common::{bench, scratch, stdout};
use sim_disk::disk::Op;
use sim_disk::trace::TraceEvent;
use std::fs;
use traxtent_bench::crossings::Crossings;

/// `bench <figure> --quick --trace`, folded. With `report`, the crossing
/// counts `trace_report` prints by kind must sum to the fold's.
fn traced(figure: &str, report: bool) -> Crossings {
    let dir = scratch(&format!("crossings-{figure}"));
    let path = dir.join("trace.jsonl");
    let path = path.to_str().unwrap();
    let out = bench(figure, &["--quick", "--trace", path]);
    assert!(out.status.success(), "{figure} failed: {:?}", out.status);
    let mut crossings = Crossings::default();
    // The fold reads only `issue` and `media` events.
    let read = |l: &&str| l.starts_with(r#"{"ev":"issue""#) || l.starts_with(r#"{"ev":"media""#);
    for line in fs::read_to_string(path).unwrap().lines().filter(read) {
        crossings.read(&TraceEvent::parse_json(line).unwrap());
    }
    if report {
        let report = stdout(&bench("trace_report", &[path]));
        let kinds = report.lines().skip_while(|l| !l.starts_with("kind "));
        let printed: u64 = (kinds.skip(1).take_while(|l| !l.starts_with("drive ")))
            .map(|l| l.split_whitespace().nth(2).unwrap().parse::<u64>().unwrap())
            .sum();
        let crossing = crossings.requests().iter().filter(|r| crossings.crosses(r));
        assert_eq!(printed, crossing.count() as u64, "{report}");
    }
    fs::remove_dir_all(&dir).unwrap();
    crossings
}

/// Table 2: no data request of the traxtent personality crosses. Its one
/// exception is a group's metadata block, which sits where the group
/// starts, whatever the tracks; the unmodified personality's requests do
/// cross.
#[test]
fn table2_traxtent_data_requests_stay_on_their_tracks() {
    let crossings = traced("table2", true);
    // One drive per cell, personality-major: unmodified, fast start,
    // traxtent, six applications each.
    assert_eq!(crossings.drives(), 18);
    let (mut metadata, mut unmodified) = (0, 0);
    for r in crossings.requests().iter().filter(|r| crossings.crosses(r)) {
        match r.drive / 6 {
            0 => unmodified += 1,
            2 => {
                let group = ffs::image::meta_lbn(r.lbn / ffs::image::meta_lbn(1));
                let block = ffs::layout::BLOCK_SECTORS;
                let metadata_block = r.op == Op::Write && r.lbn == group && r.len == block;
                assert!(metadata_block, "a traxtent data request crossed: {r:?}");
                metadata += 1;
            }
            _ => {}
        }
    }
    println!("table2 traxtent cells: data requests crossing 0; metadata-block writes {metadata}");
    assert!(unmodified > 0, "the unmodified personality never crossed");
}

/// Figure 9: a drive whose every request starts at a track start and ends
/// inside that track — an aligned cell's — never crosses; the unaligned
/// cells do.
#[test]
fn fig9_aligned_streams_stay_on_their_tracks() {
    let crossings = traced("fig9", false);
    let geometry = sim_disk::models::quantum_atlas_10k_ii().geometry;
    let mut aligned = vec![true; crossings.drives()];
    for r in crossings.requests() {
        let (start, end) = geometry.track_bounds(r.lbn).unwrap();
        aligned[r.drive] &= r.lbn == start && r.lbn + r.len <= end;
    }
    let mut unaligned = 0;
    for r in crossings.requests().iter().filter(|r| crossings.crosses(r)) {
        assert!(
            !aligned[r.drive],
            "an aligned stream's request crossed: {r:?}"
        );
        unaligned += 1;
    }
    let drives = aligned.iter().filter(|&&a| a).count();
    println!("fig9: {drives} aligned drives crossing 0; unaligned requests crossing {unaligned}");
    // The four aligned cells of the grid, at least.
    assert!(drives >= 4, "only {drives} aligned drives");
    assert!(unaligned > 0, "no unaligned cell crossed");
}

/// The fleet sweep's cells in run order (`fleet_sweep.rs`): each shape's
/// C-LOOK grid — aligned then fixed, healthy then degraded — then each
/// shape's aligned × traxtent cell, as `(kind, aligned, drives)`. Every
/// member of a cell that serves issues commands (a degraded cell's dead
/// member when it is rebuilt); a striped volume with a dead member
/// serves nothing.
fn fleet_cells() -> Vec<(&'static str, bool, usize)> {
    let shapes = [
        ("striped", 2),
        ("striped", 4),
        ("mirrored", 2),
        ("raid5", 3),
        ("raid5", 5),
    ];
    let grid = shapes.iter().flat_map(|&(kind, n)| {
        [(true, false), (true, true), (false, false), (false, true)].map(|(aligned, degraded)| {
            (
                kind,
                aligned,
                if degraded && kind == "striped" { 0 } else { n },
            )
        })
    });
    grid.chain(shapes.map(|(kind, n)| (kind, true, n)))
        .collect()
}

/// The fleet sweep: an aligned volume's member commands are whole stripe
/// units, one track each and longer than the fixed policy's 64-sector
/// unit, and none crosses, with one named exception: a mirror's units
/// follow member 0's tracks, which its other member's defects need not
/// share. The 64-sector verification reads may cross anywhere, and the
/// fixed cells do.
#[test]
fn fleet_aligned_member_commands_stay_on_their_tracks() {
    const FIXED_UNIT: u64 = 64;
    let crossings = traced("fleet_sweep", false);
    // Each drive's cell: the cells' drives come in run order.
    let cells = fleet_cells();
    let cell_of: Vec<usize> = (cells.iter().enumerate())
        .flat_map(|(c, cell)| std::iter::repeat_n(c, cell.2))
        .collect();
    assert_eq!(cell_of.len(), crossings.drives());
    let (mut whole_units, mut mirror, mut verify, mut fixed) = (0, 0, 0, 0);
    for r in crossings.requests().iter().filter(|r| r.tracks > 0) {
        let (kind, aligned, _) = cells[cell_of[r.drive]];
        let unit = aligned && r.len > FIXED_UNIT;
        whole_units += u64::from(unit && kind != "mirrored");
        if !crossings.crosses(r) {
            continue;
        }
        match (aligned, unit) {
            (false, _) => fixed += 1,
            (true, false) => verify += 1,
            (true, true) => {
                assert_eq!(kind, "mirrored", "an aligned unit crossed: {r:?}");
                mirror += 1;
            }
        }
    }
    println!(
        "fleet_sweep: {whole_units} whole-unit commands of striped and RAID-5 volumes crossing 0; \
         crossing: mirror copies off member 0's tracks {mirror}, verification-read pieces \
         {verify}, fixed-unit cells {fixed}"
    );
    assert!(whole_units > 0, "no aligned member command was traced");
    assert!(fixed > 0, "no fixed-unit command crossed");
}
