//! Cross-crate integration tests: the full pipeline from disk model through
//! extraction, file system, and the application-level results the paper
//! reports.

use dixtrac::{extract_general, extract_scsi, GeneralConfig};
use ffs::Personality;
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
    let fresh = |p| apps::mkfs(Disk::new(models::quantum_atlas_10k()), p);

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
/// threshold get untracked stripe units from the fleet's aligned carve,
/// while trusted regions keep one unit a track.
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
    assert!(matches!(auto.report, dixtrac::Extraction::General(_)));
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

    // The aligned carve cuts the weak band into fallback units and every
    // other track into exactly itself.
    let policy = fleet::StripePolicy::Aligned {
        threshold: 0.75,
        fallback_sectors: 64,
    };
    let band = truth.track_extent(weak[0]).start..truth.track_extent(n / 2).start;
    for u in fleet::stripe_units(&degraded, &policy).expect("valid policy") {
        let track = truth.track_extent(truth.track_index(u.start));
        if band.contains(&u.start) {
            assert!(
                u.len <= 64 && u.start + u.len <= band.end,
                "{u:?} leaves the weak band"
            );
        } else {
            assert_eq!((u.start, u.len), (track.start, track.len));
        }
    }
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

/// The rows of `tests/reachability/allowlist.txt`, which the compiler's
/// check (`tests/reachability/run.sh`) reads too: `(Type::name, reason)`.
fn allowlist() -> Vec<(&'static str, &'static str)> {
    include_str!("reachability/allowlist.txt")
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let row = l.split_once(' ').filter(|(_, why)| !why.trim().is_empty());
            row.unwrap_or_else(|| panic!("{l:?}: a row is `Type::name` and a reason"))
        })
        .collect()
}

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
/// benchmark) or has an [`allowlist`] row whose part after the last `::`
/// is its name. Matching is by name, so a common name never fails (the
/// compiler's check, `tests/reachability/run.sh`, is what catches a
/// function with a namesake); what does fail has no caller to serve. A
/// mention inside the body of a `fn` of the same name does not count: it
/// is the item calling itself, or a namesake it delegates to, and a
/// delegating pair would otherwise vouch for itself. Nor does a type's
/// mention in the header or the body of its own `impl … Type` or
/// `impl … for Type` block: a type's methods and trait impls do not use
/// it.
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
        // One entry a `{` still open: the name of the `fn` whose body it
        // opens, or `None` for any other block.
        let mut open: Vec<Option<&str>> = Vec::new();
        // A `fn` whose body has not opened, and its `(`/`[` depth: a `;`
        // outside them ends a declaration without a body.
        let mut signature: Option<(&str, usize)> = None;
        let mut after_fn = false;
        // An `impl` item from `impl` to its `{`: its `<>` depth, whether a
        // `where` has begun, the words it names (counted at the `{`), and
        // the last word outside `<>` before any `where`, which is the type
        // it implements.
        let mut header: Option<(usize, bool, Vec<&str>, &str)> = None;
        for (row, line) in text.lines().enumerate() {
            let mut tokens = Vec::new();
            let mut word_at = None;
            for (at, c) in line.char_indices() {
                if is_ident(c) {
                    word_at.get_or_insert(at);
                    continue;
                }
                tokens.extend(word_at.take().map(|from| &line[from..at]));
                if "{}()[];<>".contains(c) && !line[..at].ends_with('-') {
                    tokens.push(&line[at..at + 1]);
                }
            }
            tokens.extend(word_at.map(|from| &line[from..]));
            let words: Vec<&str> = tokens
                .iter()
                .copied()
                .filter(|t| t.starts_with(is_ident))
                .collect();
            let mut i = 0;
            for token in tokens {
                let named = std::mem::replace(&mut after_fn, token == "fn");
                if let Some((depth, bounded, _, ty)) = header.as_mut() {
                    match token {
                        "<" => *depth += 1,
                        ">" => *depth -= 1,
                        "where" => *bounded = true,
                        "for" => {}
                        w if w.starts_with(is_ident) && *depth == 0 && !*bounded => *ty = w,
                        _ => {}
                    }
                }
                match token {
                    "{" => open.push(match header.take() {
                        Some((_, _, words, ty)) => {
                            let counted = |&w: &&str| w != ty && !open.contains(&Some(w));
                            for w in words.into_iter().filter(counted) {
                                *mentions.entry(w.to_string()).or_default() += 1;
                            }
                            Some(ty)
                        }
                        None => signature.take_if(|s| s.1 == 0).map(|s| s.0),
                    }),
                    "}" => {
                        open.pop();
                    }
                    ";" => {
                        signature.take_if(|s| s.1 == 0);
                    }
                    "(" | "[" => signature.iter_mut().for_each(|s| s.1 += 1),
                    ")" | "]" => signature
                        .iter_mut()
                        .for_each(|s| s.1 = s.1.saturating_sub(1)),
                    _ => {}
                }
                if !token.starts_with(is_ident) {
                    continue;
                }
                let word = token;
                i += 1;
                if named {
                    signature = Some((word, 0));
                }
                if word == "impl" && signature.is_none() {
                    header = Some((0, false, Vec::new(), word));
                }
                if let Some((_, _, words, _)) = header.as_mut() {
                    words.push(word);
                } else if !open.contains(&Some(word)) {
                    *mentions.entry(word.to_string()).or_default() += 1;
                }
                // `pub(crate)` splits into `pub crate ..` and matches nothing.
                if word != "pub" || !rel.starts_with("crates/") {
                    continue;
                }
                let mut after = words[i..]
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

    let rows = allowlist();
    assert!(
        rows.len() <= 25,
        "the allowlist is short or it is not an allowlist"
    );
    let item = |row: &str| row.rsplit("::").next().unwrap_or(row).to_string();
    let declarations = |name: &str| declared.iter().filter(|d| d.0 == name).count();
    let mut used_rows = vec![false; rows.len()];
    let mut dead = Vec::new();
    for (name, file, line) in &declared {
        if mentions[name] > declarations(name) {
            continue;
        }
        match rows.iter().position(|(row, _)| item(row) == *name) {
            Some(row) => used_rows[row] = true,
            None => dead.push(format!("{file}:{line}: {name}")),
        }
    }
    assert!(
        dead.is_empty(),
        "public items with no production caller:\n{}",
        dead.join("\n")
    );
    // A function's row is the compiler's check to prune: a name this scan
    // passes may still have no caller.
    for ((row, _), used) in rows.iter().zip(used_rows) {
        assert!(
            used || item(row).starts_with(char::is_lowercase),
            "allowlist row {row:?} exempts nothing any more: delete it"
        );
    }
}
