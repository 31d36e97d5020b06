//! Cross-crate integration tests: the full pipeline from disk model through
//! extraction, file system, and the application-level results the paper
//! reports.

use dixtrac::{extract_general, extract_scsi, GeneralConfig};
use ffs::{FileSystem, Personality};
use scsi::ScsiDisk;
use sim_disk::defects::{DefectPolicy, SpareScheme};
use sim_disk::disk::Disk;
use sim_disk::models;
use traxtent::{RequestPlanner, TraxtentAllocator};
use workloads::apps;
use workloads::microbench::{run_random_io, Alignment, QueueDepth, RandomIoSpec};

const MB: u64 = 1 << 20;

/// Both extraction algorithms agree with each other and the geometry on a
/// drive with spares and slipped defects, and the extracted table drives
/// the allocator and planner without violating track-locality.
#[test]
fn extract_then_allocate_then_plan() {
    let cfg = models::with_factory_defects(
        models::small_test_disk(),
        SpareScheme::SectorsPerCylinder(8),
        DefectPolicy::Slip,
        500,
        3,
    );
    let truth = Disk::new(cfg.clone()).track_boundaries();

    let mut s = ScsiDisk::new(Disk::new(cfg.clone()));
    let scsi_result = extract_scsi(&mut s).expect("extraction succeeds");
    assert_eq!(scsi_result.boundaries, truth);

    let mut s = ScsiDisk::new(Disk::new(cfg));
    let general = extract_general(
        &mut s,
        &GeneralConfig {
            contexts: 16,
            ..GeneralConfig::default()
        },
    )
    .expect("extraction succeeds");
    assert_eq!(general.boundaries, truth);

    // Allocate whole traxtents and plan requests inside them: nothing
    // crosses a track.
    let mut alloc = TraxtentAllocator::new(truth.clone());
    let planner = RequestPlanner::new(scsi_result.boundaries);
    for i in 0..50 {
        let e = alloc.alloc_traxtent(i * 1009).expect("space available");
        assert_eq!(e, truth.track_extent(truth.track_index(e.start)));
        let mid = e.start + e.len / 2;
        assert_eq!(planner.plan_writeback(mid, 4 * e.len), e.end() - mid);
        assert_eq!(planner.plan_prefetch(e.start, 8, u64::MAX), e.len);
    }
}

/// The headline §5.2 result holds end to end: track-aligned track-sized
/// reads with queueing are ≈ 45–50 % more efficient than unaligned ones.
#[test]
fn aligned_access_wins_at_track_size() {
    let mut disk = Disk::new(models::quantum_atlas_10k_ii());
    let run = |disk: &mut Disk, alignment| {
        let spec = RandomIoSpec {
            count: 800,
            ..RandomIoSpec::reads(528, alignment, QueueDepth::Two)
        };
        run_random_io(disk, &spec).efficiency(QueueDepth::Two)
    };
    let aligned = run(&mut disk, Alignment::TrackAligned);
    let unaligned = run(&mut disk, Alignment::Unaligned);
    let gain = aligned / unaligned - 1.0;
    assert!(
        (0.30..=0.65).contains(&gain),
        "efficiency gain {gain:.2} out of the paper's range (aligned {aligned:.2}, unaligned {unaligned:.2})"
    );
}

/// Zero-latency firmware is what converts alignment into a big win; disks
/// without it (Cheetah X15) only save the head switch (§5.2).
#[test]
fn non_zero_latency_disks_gain_little() {
    let sheets = models::table1_sheets();
    let cheetah = sheets.iter().find(|s| s.name == "Seagate Cheetah X15");
    let mut disk = Disk::new(cheetah.expect("a Table 1 drive").build());
    let spt = disk.geometry().track(0).lbn_count() as u64;
    let run = |disk: &mut Disk, alignment| {
        let spec = RandomIoSpec {
            count: 600,
            ..RandomIoSpec::reads(spt, alignment, QueueDepth::One)
        };
        run_random_io(disk, &spec)
            .mean_head_time(QueueDepth::One)
            .as_millis_f64()
    };
    let aligned = run(&mut disk, Alignment::TrackAligned);
    let unaligned = run(&mut disk, Alignment::Unaligned);
    let reduction = 1.0 - aligned / unaligned;
    assert!(
        (0.02..=0.20).contains(&reduction),
        "head-time reduction {reduction:.2} should be small without zero-latency support"
    );
}

/// Table 2's directional results on a scaled workload: traxtents lose a
/// little on single-stream scans, win on interleaved streams, and pay on
/// head*.
#[test]
fn ffs_personalities_match_table2_directions() {
    let fresh = |p| FileSystem::format(Disk::new(models::quantum_atlas_10k()), p);

    let scan_u = apps::scan(&mut fresh(Personality::Unmodified), 64 * MB, 64 * 1024);
    let scan_t = apps::scan(&mut fresh(Personality::Traxtent), 64 * MB, 64 * 1024);
    let scan_ratio = scan_t.elapsed.as_secs_f64() / scan_u.elapsed.as_secs_f64();
    assert!(
        (1.0..=1.12).contains(&scan_ratio),
        "scan ratio {scan_ratio}"
    );

    let diff_u = apps::diff(&mut fresh(Personality::Unmodified), 32 * MB, 64 * 1024);
    let diff_t = apps::diff(&mut fresh(Personality::Traxtent), 32 * MB, 64 * 1024);
    let diff_gain = diff_u.elapsed.as_secs_f64() / diff_t.elapsed.as_secs_f64();
    assert!(diff_gain > 1.10, "diff gain {diff_gain}");

    let head_u = apps::head_star(&mut fresh(Personality::Unmodified), 100, 200 * 1024);
    let head_t = apps::head_star(&mut fresh(Personality::Traxtent), 100, 200 * 1024);
    assert!(
        head_t.elapsed > head_u.elapsed,
        "head* must be the traxtent worst case"
    );
}

/// Graceful degradation end to end: a drive that refuses diagnostics is
/// extracted by the timing fallback; regions whose confidence falls below
/// threshold are served untracked by both the extent allocator and the
/// traxtent FFS, while trusted regions keep aligned placement.
#[test]
fn low_confidence_extraction_degrades_to_untracked_allocation() {
    // Fallback extraction on a diagnostics-refusing, transiently-faulty
    // drive still recovers the exact table, with per-track confidence.
    let mut cfg = models::small_test_disk();
    cfg.fault.diagnostics_unsupported = true;
    cfg.fault.transient_per_million = 10_000;
    cfg.fault.seed = 0xdecade;
    let truth = Disk::new(cfg.clone()).track_boundaries();
    let mut s = ScsiDisk::new(Disk::new(cfg));
    let auto = dixtrac::extract_auto(
        &mut s,
        &dixtrac::GeneralConfig {
            contexts: 16,
            votes: 3,
        },
    )
    .expect("fallback extraction succeeds");
    assert_eq!(auto.method, dixtrac::ExtractionMethod::GeneralFallback);
    assert_eq!(auto.boundaries.table(), &truth);

    // Simulate a noisier run: mark a band of tracks low-confidence (the
    // extraction above is too clean to produce any on its own).
    let n = truth.num_tracks();
    let mut conf: Vec<f64> = auto.boundaries.confidence().collect();
    let weak: Vec<usize> = (n / 3..n / 2).collect();
    for &i in &weak {
        conf[i] = 0.4;
    }
    let degraded = traxtent::ConfidentBoundaries::new(truth.clone(), conf).expect("valid");

    // The extent allocator never hands out aligned space on weak tracks.
    let capacity = truth.capacity();
    let trust = Some((&degraded, 0.75));
    let mut alloc = TraxtentAllocator::in_units(truth.clone(), 1, capacity, trust);
    let untrusted = (0..n).filter(|&i| !alloc.is_trusted(truth.track_extent(i).start));
    assert!(untrusted.eq(weak.iter().copied()));
    let weak_mid = truth.track_extent(weak[weak.len() / 2]).start;
    for _ in 0..8 {
        let e = alloc.alloc_traxtent(weak_mid).expect("trusted space left");
        let idx = truth.track_index(e.start);
        assert!(!weak.contains(&idx), "aligned alloc on weak track {idx}");
    }
    // The untracked fallback still serves the weak region itself.
    let e = alloc.alloc_near(64, weak_mid).expect("space");
    assert_eq!(truth.track_index(e.start), weak[weak.len() / 2]);
}

/// The traxtent FFS on a partially-trusted table keeps working, excludes
/// no blocks on weak tracks, and places via the untracked fallback there.
#[test]
fn confident_ffs_reverts_to_untracked_placement_on_weak_tracks() {
    let disk = Disk::new(models::quantum_atlas_10k());
    let truth = disk.track_boundaries();
    let n = truth.num_tracks();
    // First half of the disk untrusted, second half certain.
    let conf: Vec<f64> = (0..n).map(|i| if i < n / 2 { 0.5 } else { 1.0 }).collect();
    let cb = traxtent::ConfidentBoundaries::new(truth.clone(), conf).expect("valid");
    let mut fs = FileSystem::format_confident(disk, Personality::Traxtent, &cb, 0.9);

    // Writing files works and the system stays consistent.
    let scan = apps::scan(&mut fs, 16 * MB, 64 * 1024);
    assert!(scan.elapsed.as_secs_f64() > 0.0);
    let stats = fs.layout().alloc_stats();
    // Aligned placements only ever target the trusted half.
    let layout = fs.layout();
    assert!(!layout.block_trusted(0) && layout.block_trusted(layout.blocks() - 1));
    assert!(stats.sequential + stats.track_aligned + stats.fallback > 0);

    // A fully untrusted table degrades to untracked behaviour wholesale:
    // no exclusions, no aligned placements — yet everything still runs.
    let disk = Disk::new(models::quantum_atlas_10k());
    let cb = traxtent::ConfidentBoundaries::new(truth.clone(), vec![0.0; n]).expect("valid");
    let mut fs = FileSystem::format_confident(disk, Personality::Traxtent, &cb, 0.5);
    assert_eq!(fs.layout().excluded_fraction(), 0.0);
    let _ = apps::scan(&mut fs, 16 * MB, 64 * 1024);
    assert_eq!(fs.layout().alloc_stats().track_aligned, 0);
}

/// Grown defects change boundaries only locally: after remapping one LBN,
/// re-extraction differs from the old table in at most a few tracks.
#[test]
fn grown_defect_changes_little() {
    let mut cfg = models::with_factory_defects(
        models::small_test_disk(),
        SpareScheme::SectorsPerCylinder(8),
        DefectPolicy::Slip,
        200,
        5,
    );
    let before = Disk::new(cfg.clone()).track_boundaries();
    cfg.geometry
        .add_grown_defect(12_345)
        .expect("spare available");
    let after = Disk::new(cfg).track_boundaries();
    // Slip-mapped boundaries are untouched by a remap-style grown defect.
    assert_eq!(before, after);
}

/// The LFS economics close the loop: overall write cost at the track size
/// is lower with aligned segments.
#[test]
fn lfs_prefers_track_sized_aligned_segments() {
    let cfg = models::quantum_atlas_10k_ii();
    let track = cfg.geometry.track(0).lbn_count() as u64;
    let ti_aligned = lfs::transfer_inefficiency(&cfg, track, true, 150, 1);
    let ti_unaligned = lfs::transfer_inefficiency(&cfg, track, false, 150, 1);
    assert!(ti_aligned < ti_unaligned);
    let wc = lfs::cleaner::LfsSim::fixed(1 << 16, track, lfs::cleaner::LfsConfig::default())
        .run_updates(1 << 17)
        .expect("a well-formed config never breaks accounting")
        .write_cost();
    assert!(wc >= 1.0);
    assert!(wc * ti_aligned < wc * ti_unaligned);
}

/// The crate graph ARCHITECTURE.md draws, as each crate's `[dependencies]`
/// table (`bench` may use everything). A new edge needs a one-line change
/// here in the PR that adds it — the review hook for the layering.
#[test]
fn crate_graph_matches_the_layering() {
    let expected: [(&str, &[&str]); 9] = [
        ("core", &[]),
        ("sim-disk", &["rand", "traxtent"]),
        ("scsi", &["sim-disk"]),
        ("dixtrac", &["scsi", "sim-disk", "traxtent"]),
        ("ffs", &["sim-disk", "traxtent"]),
        ("lfs", &["rand", "sim-disk", "traxtent"]),
        ("workloads", &["ffs", "rand", "sim-disk", "traxtent"]),
        ("server", &["rand", "sim-disk", "traxtent"]),
        ("fleet", &["sim-disk", "traxtent"]),
    ];
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/bench has a parent");
    for (dir, want) in expected {
        let manifest = std::fs::read_to_string(crates.join(dir).join("Cargo.toml")).unwrap();
        let mut got: Vec<&str> = manifest
            .lines()
            .skip_while(|l| l.trim() != "[dependencies]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter_map(|l| l.split(['.', '=', ' ']).next())
            .filter(|key| !key.is_empty() && !key.starts_with('#'))
            .collect();
        got.sort_unstable();
        assert_eq!(got, want, "crates/{dir}/Cargo.toml [dependencies]");
    }
    let dirs = std::fs::read_dir(crates).unwrap().count();
    assert_eq!(dirs, expected.len() + 1, "a new crate needs a row above");
}

/// Public items no other production source names, and why each stays:
/// each row names one item that tests call on purpose.
#[rustfmt::skip]
const UNCALLED: &[(&str, &str)] = &[
    ("uniform", "test fake: the boundary table of 13 unit tests in five crates and two doctests"),
    ("attr", "observer for fleet span_tree and the sim-disk span tests: one attribute of a span"),
    ("time_ns", "observer for trace_invariants: every event lies inside its request's lifetime"),
    ("set_cache_blocks", "test knob for fs_behavior: a cache small enough to evict"),
    ("reset_stats", "observer for fs_behavior: the largest read after a warm-up"),
    ("live_files", "proptest oracle for crash_fsck: the in-memory truth a recovered image must equal"),
    ("clean", "observer for crash_fsck: a second fsck repairs nothing"),
    ("free_blocks", "observer for fs_behavior and the layout tests: churn leaks no block"),
    ("member_store", "observer for fleet plane_oracle: a member's contents, and whether a format is still implicit"),
];

/// `src` with comments, literals and `#[cfg(test)]` items blanked out.
fn production_text(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let blank = |out: &mut [u8], from: usize, to: usize| {
        out[from..to]
            .iter_mut()
            .filter(|c| **c != b'\n')
            .for_each(|c| *c = b' ');
    };
    let mut i = 0;
    while i < b.len() {
        let rest = &b[i..];
        let end = if rest.starts_with(b"//") {
            i + rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len())
        } else if rest.starts_with(b"r#\"") {
            i + 3
                + rest[3..]
                    .windows(2)
                    .position(|w| w == b"\"#")
                    .expect("closed raw string")
                + 2
        } else if b[i] == b'"' {
            let mut j = i + 1;
            while b[j] != b'"' {
                j += 1 + usize::from(b[j] == b'\\');
            }
            j + 1
        } else if b[i] == b'\'' && rest.len() > 2 && (b[i + 1] == b'\\' || b[i + 2] == b'\'') {
            // A char literal, not a lifetime.
            let skip = if b[i + 1] == b'\\' { 3 } else { 2 };
            i + skip
                + rest[skip..]
                    .iter()
                    .position(|&c| c == b'\'')
                    .expect("closed char")
                + 1
        } else {
            i += 1;
            continue;
        };
        blank(&mut out, i, end);
        i = end;
    }
    // A `#[cfg(test)]` item runs to its `;` or to the brace closing its body.
    const CFG_TEST: &[u8] = b"#[cfg(test)]";
    while let Some(at) = out.windows(CFG_TEST.len()).position(|w| w == CFG_TEST) {
        let (mut j, mut depth) = (at + CFG_TEST.len(), 0usize);
        loop {
            match out[j] {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                _ => {}
            }
            j += 1;
            if depth == 0 && matches!(out[j - 1], b'}' | b';') {
                break;
            }
        }
        blank(&mut out, at, j);
    }
    String::from_utf8(out).expect("blanking keeps UTF-8 boundaries")
}

/// The narrow interface between layers is "what production calls": a
/// `pub fn / struct / enum / trait / const / type` in `crates/*/src` is
/// named somewhere else in non-test source (any crate, any binary, the
/// benchmark) or has a row in [`UNCALLED`]. Matching is by name, so a
/// common name never fails; what does fail has no caller to serve.
#[test]
fn every_public_item_has_a_production_caller() {
    use std::collections::BTreeMap;
    use std::path::{Path, PathBuf};
    fn rust_files(dir: &Path, into: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
            if entry.is_dir() {
                rust_files(&entry, into);
            } else if entry.extension().is_some_and(|e| e == "rs") {
                into.push(entry);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap();
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        rust_files(&krate.unwrap().path().join("src"), &mut files);
    }
    rust_files(&root.join("benchmark/src"), &mut files);
    files.sort();

    let mut mentions: BTreeMap<String, usize> = BTreeMap::new();
    let mut declared: Vec<(String, String, usize)> = Vec::new();
    for path in &files {
        let text = production_text(&std::fs::read_to_string(path).unwrap());
        let rel = path
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let is_ident = |c: char| c.is_alphanumeric() || c == '_';
        for (row, line) in text.lines().enumerate() {
            let words: Vec<&str> = line
                .split(|c| !is_ident(c))
                .filter(|w| !w.is_empty())
                .collect();
            for (i, word) in words.iter().enumerate() {
                *mentions.entry(word.to_string()).or_default() += 1;
                // `pub(crate)` splits into `pub crate ..` and matches nothing.
                if *word != "pub" || !rel.starts_with("crates/") {
                    continue;
                }
                let mut after = words[i + 1..]
                    .iter()
                    .skip_while(|w| matches!(**w, "unsafe" | "async"));
                let name = match (after.next(), after.next(), after.next()) {
                    (Some(&"const"), Some(&"fn"), Some(name)) => name,
                    (
                        Some(&("fn" | "struct" | "enum" | "trait" | "const" | "type")),
                        Some(name),
                        _,
                    ) => name,
                    _ => continue,
                };
                declared.push((name.to_string(), rel.clone(), row + 1));
            }
        }
    }

    assert!(
        UNCALLED.len() <= 25,
        "the allowlist is short or it is not an allowlist"
    );
    let declarations = |name: &str| declared.iter().filter(|d| d.0 == name).count();
    let mut used_rows = vec![false; UNCALLED.len()];
    let mut dead = Vec::new();
    for (name, file, line) in &declared {
        if mentions[name] > declarations(name) {
            continue;
        }
        match UNCALLED.iter().position(|(key, _)| key == name) {
            Some(row) => used_rows[row] = true,
            None => dead.push(format!("{file}:{line}: {name}")),
        }
    }
    assert!(
        dead.is_empty(),
        "public items with no production caller:\n{}",
        dead.join("\n")
    );
    for (row, used) in UNCALLED.iter().zip(used_rows) {
        assert!(
            used,
            "allowlist row {:?} exempts nothing any more: delete it",
            row.0
        );
    }
}
