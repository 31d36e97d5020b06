//! End-to-end crash-consistency properties: random workloads, a power
//! cut at a random instant, then fsck must hand back a mountable image
//! whose surviving data is bit-exact — all of it reproducible from
//! (seed, cut) alone.

use ffs::fsck::{check, fsck, mount};
use ffs::{FileId, FileSystem, Personality, BLOCK_SECTORS};
use proptest::prelude::*;
use sim_disk::crash::{replay, CrashLog, SectorImage, SECTOR_USIZE};
use sim_disk::disk::Disk;
use sim_disk::{models, SimTime};
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

/// Formats, arms the crash shadow, runs the workload; returns the file
/// system and the mkfs-state image a crash replay starts from.
fn build(seed: u64, personality: Personality, finish_clean: bool) -> (FileSystem, SectorImage) {
    let mut fs = FileSystem::format(Disk::new(models::small_test_disk()), personality);
    fs.enable_crash_shadow(seed ^ 0x0ff5_cafe);
    let initial = fs.format_image();
    workload(&mut fs, seed);
    if finish_clean {
        fs.sync();
        fs.checkpoint_metadata();
    }
    (fs, initial)
}

/// Ground truth computed independently of `crash::durable_sectors`: the
/// payload of the last write covering `lbn` that was durable by `cut`
/// (writes are FCFS, so log order is media order).
fn expected_sector(log: &CrashLog, cut: SimTime, lbn: u64) -> Option<Vec<u8>> {
    let mut out = None;
    for rec in &log.records {
        if lbn < rec.lbn || lbn >= rec.lbn + rec.len {
            continue;
        }
        let i = (lbn - rec.lbn) as usize;
        if rec.durable[i] <= cut {
            let p = rec
                .payload
                .as_ref()
                .expect("every ffs write carries a payload");
            out = Some(p[i * SECTOR_USIZE..(i + 1) * SECTOR_USIZE].to_vec());
        }
    }
    out
}

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
        let mut fs = FileSystem::format(Disk::new(models::small_test_disk()), p);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant: for ANY workload and ANY cut point, fsck
    /// yields a mountable image (check passes), is idempotent (a second
    /// pass repairs nothing and rewrites nothing), never touches data
    /// sectors, every mounted file's bytes match an independent
    /// durability oracle, and the whole pipeline is bit-reproducible
    /// from (seed, cut).
    #[test]
    fn any_cut_recovers_to_a_mountable_consistent_image(
        seed in 0u64..u64::MAX,
        frac in 0u64..=1000,
        trax in 0u64..2,
    ) {
        let p = if trax == 1 { Personality::Traxtent } else { Personality::Unmodified };
        let (mut fs, initial) = build(seed, p, false);
        prop_assert!(fs.shadow_error().is_none(), "{:?}", fs.shadow_error());
        let log = fs.disk_mut().take_crash_log().expect("shadow attaches a log");
        let cut = SimTime::from_ns(log.horizon().as_ns() * frac / 1000);

        let mut img = replay(&initial, &log, cut).expect("payloads are complete");
        let pre_fsck = img.clone();
        let report = fsck(&mut img, fs.layout());
        if let Err(e) = check(&img, fs.layout()) {
            prop_assert!(false, "image not mountable after fsck: {e} ({report:?})");
        }

        let mut again = img.clone();
        let second = fsck(&mut again, fs.layout());
        prop_assert!(second.clean(), "second fsck repaired: {second:?}");
        prop_assert_eq!(&again, &img, "second fsck rewrote the image");

        let recovered = mount(&img, fs.layout()).expect("checked above");
        for f in recovered.files.values() {
            for b in f.extents.iter().flat_map(|&(s, l)| s..s + l) {
                let base = b * BLOCK_SECTORS;
                for s in base..base + BLOCK_SECTORS {
                    let got = img.read(s);
                    prop_assert_eq!(got, pre_fsck.read(s), "fsck touched data sector {}", s);
                    match expected_sector(&log, cut, s) {
                        Some(want) => prop_assert_eq!(
                            &got[..], &want[..],
                            "file {} sector {} diverges from the durability oracle", f.id, s
                        ),
                        None => prop_assert!(
                            got.iter().all(|&x| x == 0),
                            "file {} sector {} was never durably written but is nonzero", f.id, s
                        ),
                    }
                }
            }
        }

        // Bit-reproducibility: an identical run cut at the same instant
        // recovers to the identical image and report.
        let (mut fs2, initial2) = build(seed, p, false);
        let log2 = fs2.disk_mut().take_crash_log().expect("shadow attaches a log");
        let mut img2 = replay(&initial2, &log2, cut).expect("payloads are complete");
        let report2 = fsck(&mut img2, fs2.layout());
        prop_assert_eq!(report2, report);
        prop_assert_eq!(img2, img);
    }

    /// A clean shutdown (sync + metadata checkpoint, cut after
    /// everything is durable) needs no repair and recovers every file
    /// exactly: ids, sizes, and block lists match the in-memory truth.
    #[test]
    fn clean_shutdown_recovers_everything(seed in 0u64..u64::MAX, trax in 0u64..2) {
        let p = if trax == 1 { Personality::Traxtent } else { Personality::Unmodified };
        let (mut fs, initial) = build(seed, p, true);
        prop_assert!(fs.shadow_error().is_none(), "{:?}", fs.shadow_error());
        let truth = fs.live_files();
        let log = fs.disk_mut().take_crash_log().expect("shadow attaches a log");
        let cut = log.horizon();

        let mut img = replay(&initial, &log, cut).expect("payloads are complete");
        let report = fsck(&mut img, fs.layout());
        prop_assert!(report.clean(), "clean shutdown needed repair: {report:?}");
        let recovered = mount(&img, fs.layout()).expect("clean image mounts");

        prop_assert_eq!(recovered.files.len(), truth.len());
        for (id, size, blocks) in truth {
            let f = &recovered.files[&id];
            prop_assert_eq!(f.size_bytes, size);
            let got: Vec<u64> = f.extents.iter().flat_map(|&(s, l)| s..s + l).collect();
            prop_assert_eq!(got, blocks);
        }
    }
}
