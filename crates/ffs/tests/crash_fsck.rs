//! End-to-end crash-consistency properties: random workloads, a power
//! cut at a random instant, then fsck must hand back a mountable image
//! whose surviving data is bit-exact — all of it reproducible from
//! (seed, cut) alone.

use ffs::fsck::{check, fsck, mount};
use ffs::image::is_meta_block;
use ffs::{FileId, FileSystem, Personality, BLOCK_SECTORS};
use proptest::prelude::*;
use sim_disk::crash::{replay, CrashLog, SectorImage, SECTOR_USIZE};
use sim_disk::disk::Disk;
use sim_disk::{models, SimTime};
use std::collections::HashMap;
use traxtent::hash::splitmix64;

const MB: u64 = 1 << 20;

/// Drives a deterministic pseudo-random workload: creates, sequential
/// appends, deletes, syncs, and metadata checkpoints, sized to stay
/// well inside the 41 MB test disk and the shadow's slot/extent limits.
fn workload(fs: &mut FileSystem, seed: u64) {
    let mut h = seed;
    let mut next = move || {
        h = splitmix64(h);
        h
    };
    let mut live: Vec<FileId> = Vec::new();
    for _ in 0..30 {
        match next() % 10 {
            0..=2 => {
                if live.len() < 10 {
                    live.push(fs.create());
                }
            }
            3..=7 => {
                if live.is_empty() {
                    continue;
                }
                let f = live[(next() % live.len() as u64) as usize];
                let size = fs.size_of(f).expect("file is live");
                if size < 2 * MB {
                    let len = 64 * 1024 + next() % (MB / 2);
                    fs.write(f, size, len).expect("disk has room");
                }
            }
            8 => {
                if live.len() > 1 {
                    let f = live.swap_remove((next() % live.len() as u64) as usize);
                    fs.delete(f).expect("file is live");
                }
            }
            _ => {
                if next() % 2 == 0 {
                    fs.sync();
                } else {
                    fs.checkpoint_metadata();
                }
            }
        }
    }
}

/// Formats, arms the crash shadow, runs the workload, then syncs and
/// checkpoints the metadata; returns the file system, the mkfs-state
/// image a crash replay starts from, and the instant the final sync
/// returned (every data write is durable from then on).
fn build(seed: u64, personality: Personality) -> (FileSystem, SectorImage, SimTime) {
    let mut fs = FileSystem::format(Disk::new(models::small_test_disk()), personality).unwrap();
    fs.enable_crash_shadow(seed ^ 0x0ff5_cafe);
    let initial = fs.format_image();
    workload(&mut fs, seed);
    let synced = fs.sync();
    fs.checkpoint_metadata();
    (fs, initial, synced)
}

/// Ground truth computed independently of `crash::durable_sectors`: for
/// every sector, the payload of the last write covering it that was
/// durable by `cut` (writes are FCFS, so log order is media order).
fn expected_sectors(log: &CrashLog, cut: SimTime) -> HashMap<u64, &[u8]> {
    let mut out = HashMap::new();
    for rec in &log.records {
        let payload = rec
            .payload
            .as_ref()
            .expect("every ffs write carries a payload");
        for (lbn, (&durable, sector)) in
            (rec.lbn..).zip(rec.durable.iter().zip(payload.chunks(SECTOR_USIZE)))
        {
            if durable <= cut {
                out.insert(lbn, sector);
            }
        }
    }
    out
}

/// Whether a logged write is a group's metadata block.
fn is_metadata(lbn: u64, len: u64) -> bool {
    lbn.is_multiple_of(BLOCK_SECTORS) && is_meta_block(lbn / BLOCK_SECTORS) && len == BLOCK_SECTORS
}

/// The cut classes a crash suite is about, by personality: before any
/// sector is durable, inside a metadata write (some of its sectors on
/// media, some not), and after the last `sync` returned.
const CLASSES: [[&str; 2]; 3] = [
    [
        "before_any_durable_write/unmodified",
        "before_any_durable_write/traxtent",
    ],
    ["torn_metadata/unmodified", "torn_metadata/traxtent"],
    ["after_sync/unmodified", "after_sync/traxtent"],
];

/// Boundary state: a freshly formatted file system, before any write.
/// Every personality's mkfs image passes `check`, needs no repair, and
/// mounts with no files.
#[test]
fn freshly_formatted_image_is_clean_and_empty() {
    for p in [
        Personality::Unmodified,
        Personality::FastStart,
        Personality::Traxtent,
    ] {
        let mut fs = FileSystem::format(Disk::new(models::small_test_disk()), p).unwrap();
        fs.enable_crash_shadow(0x0ff5_cafe);
        let mut img = fs.format_image();
        if let Err(e) = check(&img, fs.layout()) {
            panic!("{p:?}: fresh image not mountable: {e}");
        }
        let fresh = img.clone();
        let report = fsck(&mut img, fs.layout());
        assert!(
            report.clean(),
            "{p:?}: fresh image needed repair: {report:?}"
        );
        assert_eq!(img, fresh, "{p:?}: fsck rewrote a fresh image");
        let recovered = mount(&img, fs.layout()).expect("checked above");
        assert!(recovered.files.is_empty(), "{p:?}: {:?}", recovered.files);
    }
}

/// The tentpole invariant: for ANY workload and ANY cut point, fsck
/// yields a mountable image (check passes), is idempotent (a second pass
/// repairs nothing and rewrites nothing), never touches data sectors,
/// every mounted file's bytes match an independent durability oracle,
/// and the whole pipeline is bit-reproducible from (seed, cut). Each case
/// cuts both personalities' runs four times: before any durable write,
/// inside a metadata write, after the final sync, and anywhere.
#[test]
fn any_cut_recovers_to_a_mountable_consistent_image() {
    let name = "any_cut_recovers_to_a_mountable_consistent_image";
    let mut tally = Tally::default();
    for_cases(
        name,
        20,
        (0u64..u64::MAX, prop::collection::vec(0u64..u64::MAX, 4..5)),
        |(seed, picks)| {
            for (pi, p) in [Personality::Unmodified, Personality::Traxtent]
                .into_iter()
                .enumerate()
            {
                let (mut fs, initial, synced) = build(seed, p);
                assert!(fs.shadow_error().is_none(), "{:?}", fs.shadow_error());
                let log = fs
                    .disk_mut()
                    .take_crash_log()
                    .expect("shadow attaches a log");
                let horizon = log.horizon().as_ns();
                let first = log
                    .records
                    .iter()
                    .flat_map(|r| r.durable.iter())
                    .min()
                    .expect("the workload writes")
                    .as_ns();
                let torn: Vec<(u64, u64)> = log
                    .records
                    .iter()
                    .filter(|r| is_metadata(r.lbn, r.len))
                    .map(|r| {
                        let ns = r.durable.iter().map(|d| d.as_ns());
                        (ns.clone().min().unwrap_or(0), ns.max().unwrap_or(0))
                    })
                    .filter(|(lo, hi)| lo < hi)
                    .collect();
                let (lo, hi) = torn[(picks[1] % torn.len() as u64) as usize];
                let cuts = [
                    picks[0] % first,
                    lo + picks[1] % (hi - lo),
                    synced.as_ns() + picks[2] % (horizon - synced.as_ns() + 1),
                    horizon * (picks[3] % 1001) / 1000,
                ];
                for (k, cut) in cuts.into_iter().enumerate() {
                    let cut = SimTime::from_ns(cut);
                    let durable = log.records.iter().any(|r| r.durable_count(cut) > 0);
                    tally.note_if(!durable, CLASSES[0][pi]);
                    let torn_meta = log
                        .records
                        .iter()
                        .any(|r| is_metadata(r.lbn, r.len) && r.torn_at(cut));
                    tally.note_if(torn_meta, CLASSES[1][pi]);
                    tally.note_if(cut >= synced, CLASSES[2][pi]);

                    let mut img = replay(&initial, &log, cut).expect("payloads are complete");
                    let pre_fsck = img.clone();
                    let report = fsck(&mut img, fs.layout());
                    if let Err(e) = check(&img, fs.layout()) {
                        panic!("image not mountable after fsck: {e} ({report:?})");
                    }
                    if !durable {
                        assert_eq!(img, initial, "nothing durable, yet the image moved");
                    }

                    let mut again = img.clone();
                    let second = fsck(&mut again, fs.layout());
                    assert!(second.clean(), "second fsck repaired: {second:?}");
                    assert_eq!(&again, &img, "second fsck rewrote the image");

                    let want = expected_sectors(&log, cut);
                    let recovered = mount(&img, fs.layout()).expect("checked above");
                    for f in recovered.files.values() {
                        for b in f.extents.iter().flat_map(|&(s, l)| s..s + l) {
                            let base = b * BLOCK_SECTORS;
                            for s in base..base + BLOCK_SECTORS {
                                let got = img.read(s);
                                assert_eq!(got, pre_fsck.read(s), "fsck touched data sector {s}");
                                match want.get(&s) {
                                    Some(want) => assert_eq!(
                                        &got[..],
                                        &want[..],
                                        "file {} sector {s} diverges from the durability oracle",
                                        f.id
                                    ),
                                    None => assert!(
                                        got.iter().all(|&x| x == 0),
                                        "file {} sector {s} was never durably written but is nonzero",
                                        f.id
                                    ),
                                }
                            }
                        }
                    }

                    // Bit-reproducibility: an identical run cut at the same
                    // instant recovers to the identical image and report.
                    if k == 3 {
                        let (mut fs2, initial2, _) = build(seed, p);
                        let log2 = fs2
                            .disk_mut()
                            .take_crash_log()
                            .expect("shadow attaches a log");
                        let mut img2 =
                            replay(&initial2, &log2, cut).expect("payloads are complete");
                        let report2 = fsck(&mut img2, fs2.layout());
                        assert_eq!(report2, report);
                        assert_eq!(img2, img);
                    }
                }
            }
        },
    );
    let required: Vec<&str> = CLASSES.iter().flatten().copied().collect();
    tally.require(name, &required);
}

/// A clean shutdown (sync + metadata checkpoint, cut after everything is
/// durable) needs no repair and recovers every file exactly: ids, sizes,
/// and extents match the in-memory truth.
#[test]
fn clean_shutdown_recovers_everything() {
    let name = "clean_shutdown_recovers_everything";
    let mut tally = Tally::default();
    for_cases(name, 24, (0u64..u64::MAX, 0u8..2), |(seed, trax)| {
        let p = if trax == 1 {
            Personality::Traxtent
        } else {
            Personality::Unmodified
        };
        let (mut fs, initial, _) = build(seed, p);
        assert!(fs.shadow_error().is_none(), "{:?}", fs.shadow_error());
        let truth = fs.live_files();
        let log = fs
            .disk_mut()
            .take_crash_log()
            .expect("shadow attaches a log");
        let cut = log.horizon();

        let mut img = replay(&initial, &log, cut).expect("payloads are complete");
        let report = fsck(&mut img, fs.layout());
        assert!(report.clean(), "clean shutdown needed repair: {report:?}");
        let recovered = mount(&img, fs.layout()).expect("clean image mounts");

        assert_eq!(recovered.files.len(), truth.len());
        for rec in truth {
            let f = &recovered.files[&rec.id];
            assert_eq!((f.size_bytes, &f.extents), (rec.size_bytes, &rec.extents));
            tally.note_if(rec.extents.len() > 1, "several_extents");
        }
    });
    tally.require(name, &["several_extents"]);
}
