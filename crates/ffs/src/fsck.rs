//! fsck: verify and repair a crashed FFS image back to a mountable state.
//!
//! A power cut leaves the [`crate::image`] metadata in whatever mix of
//! old and new sectors the head had committed (see [`sim_disk::crash`]).
//! The damage fsck must handle is exactly what real FFS fsck handles:
//!
//! * **Torn metadata blocks** — a summary, bitmap, or inode sector from
//!   mid-write; every sector self-validates, so tearing is detected per
//!   sector, never silently decoded.
//! * **Stale bitmaps** — blocks allocated (or freed) after the group's
//!   last metadata write: *leaked* blocks (marked allocated, referenced
//!   by no inode) and *lost* blocks (referenced by an inode, marked
//!   free).
//! * **Cross-group skew** — an inode checkpointed in group A referencing
//!   blocks in group B whose bitmap is older (or newer) than A's.
//! * **Conflicting references** — double-referenced, out-of-range,
//!   excluded, or metadata-reserved blocks in an extent list.
//!
//! The repair policy is references-win: valid inodes are the source of
//! truth and bitmaps are rebuilt from them (conflicting references
//! truncate the later file, in deterministic group/slot order). The
//! *mountable-image invariant* — [`check`] returns `Ok` — then holds:
//! every metadata sector decodes, every reference is exclusive and in
//! range, and every bitmap and free count agrees exactly with the
//! reference map. [`fsck`] is idempotent: a second pass on its output
//! repairs nothing and rewrites nothing.

use crate::image::{
    self, decode_group, group_blocks, is_meta_block, ngroups, InodeRec, SlotState, INODE_SLOTS,
};
use crate::layout::{Layout, BLOCKS_PER_GROUP, BYTES_PER_BLOCK};
use sim_disk::crash::SectorImage;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// What [`fsck`] found and repaired. All-zero counters (see
/// [`clean`](FsckReport::clean)) mean the image already satisfied the
/// mountable invariant and was not modified.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Groups whose summary or bitmap sector was torn; their bitmaps
    /// were rebuilt from the reference map.
    pub bitmaps_rebuilt: u64,
    /// Inode sectors that failed validation; their files are lost.
    pub bad_inode_sectors: u64,
    /// Inode slots dropped because an earlier slot already holds the
    /// same file id.
    pub duplicate_inodes: u64,
    /// Files truncated at a conflicting reference (double-referenced,
    /// out-of-range, excluded, or reserved block).
    pub truncated_files: u64,
    /// Blocks that were referenced by more than one inode (kept by the
    /// first referencer, truncating the later one).
    pub double_refs: u64,
    /// Blocks marked allocated in a valid bitmap but referenced by no
    /// inode; freed.
    pub leaked_blocks: u64,
    /// Blocks referenced by an inode but marked free in a valid bitmap;
    /// marked allocated.
    pub lost_blocks: u64,
    /// Valid summaries whose free count disagreed with the (otherwise
    /// correct) bitmap.
    pub free_counts_fixed: u64,
    /// Files that survived (after any truncation).
    pub files: u64,
}

impl FsckReport {
    /// Whether the image needed no repair at all.
    pub fn clean(&self) -> bool {
        self.bitmaps_rebuilt == 0
            && self.bad_inode_sectors == 0
            && self.duplicate_inodes == 0
            && self.truncated_files == 0
            && self.double_refs == 0
            && self.leaked_blocks == 0
            && self.lost_blocks == 0
            && self.free_counts_fixed == 0
    }
}

/// Why an image is not mountable (the invariant [`check`] enforces and
/// [`fsck`] restores).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MountError {
    /// Group `group`'s summary sector does not validate.
    BadSummary {
        /// The group.
        group: u64,
    },
    /// Group `group`'s bitmap sector does not match its summary checksum.
    BadBitmap {
        /// The group.
        group: u64,
    },
    /// An inode sector fails validation.
    BadInode {
        /// The group.
        group: u64,
        /// The slot within the group.
        slot: u64,
    },
    /// Two inode slots carry the same file id.
    DuplicateFileId {
        /// The duplicated id.
        id: u64,
    },
    /// File `id` references a block it must not (out of range, excluded,
    /// metadata-reserved, or already referenced by another file).
    BadReference {
        /// The referencing file.
        id: u64,
        /// The offending block.
        block: u64,
    },
    /// Group `group`'s bitmap disagrees with the reference map at
    /// `block`.
    BitmapMismatch {
        /// The group.
        group: u64,
        /// The first disagreeing block.
        block: u64,
    },
    /// Group `group`'s recorded free count disagrees with its bitmap.
    FreeCountMismatch {
        /// The group.
        group: u64,
    },
}

impl fmt::Display for MountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MountError::BadSummary { group } => write!(f, "group {group}: summary sector torn"),
            MountError::BadBitmap { group } => write!(f, "group {group}: bitmap sector torn"),
            MountError::BadInode { group, slot } => {
                write!(f, "group {group} slot {slot}: inode sector torn")
            }
            MountError::DuplicateFileId { id } => write!(f, "file id {id} appears twice"),
            MountError::BadReference { id, block } => {
                write!(f, "file {id} references unusable block {block}")
            }
            MountError::BitmapMismatch { group, block } => {
                write!(f, "group {group}: bitmap wrong at block {block}")
            }
            MountError::FreeCountMismatch { group } => {
                write!(f, "group {group}: free count disagrees with bitmap")
            }
        }
    }
}

impl Error for MountError {}

/// A file as recovered from a mountable image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredFile {
    /// The file's raw id.
    pub id: u64,
    /// Recovered size in bytes.
    pub size_bytes: u64,
    /// Recovered extents, in file order.
    pub extents: Vec<(u64, u64)>,
}

impl RecoveredFile {
    /// The file's blocks in file order.
    pub fn blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.extents.iter().flat_map(|&(s, l)| s..s + l)
    }
}

/// The result of mounting a recovered image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveredFs {
    /// Recovered files by raw id.
    pub files: BTreeMap<u64, RecoveredFile>,
}

/// One surviving inode: its slot, and its record once references are
/// resolved.
struct LiveInode {
    group: u64,
    slot: usize,
    rec: InodeRec,
}

/// What one decoding pass finds in an image. [`check`], [`fsck`] and
/// [`mount`] all read it, so the invariant the first enforces is the one
/// the second restores and the third relies on.
struct Diagnosis {
    /// Surviving inodes in (group, slot) order, each truncated at its
    /// first unusable reference.
    live: Vec<LiveInode>,
    /// The reference map: blocks the surviving inodes hold.
    claimed: Vec<bool>,
    /// Groups whose metadata must be rewritten, as (group, generation
    /// the rewrite carries).
    dirty: Vec<(u64, u64)>,
    report: FsckReport,
    /// The first violation of the mountable-image invariant.
    first: Option<MountError>,
}

/// A group's metadata block as the first half of [`diagnose`] leaves it.
struct GroupFound {
    /// The generation a rewrite carries: one past the recorded one.
    generation: u64,
    /// The recorded free count and bitmap, when both sectors validate.
    recorded: Option<(u64, Vec<bool>)>,
    /// Whether the group's metadata must be rewritten.
    dirty: bool,
}

impl Diagnosis {
    fn violates(&mut self, e: MountError) {
        self.first.get_or_insert(e);
    }
}

/// Whether block `b` may ever hold file data in a layout `layout`.
/// Metadata-reserved and excluded blocks may not; neither may anything
/// past the end of the file system.
fn data_usable(layout: &Layout, b: u64) -> bool {
    b < layout.blocks() && !is_meta_block(b) && !layout.is_excluded(b)
}

/// Decodes every group once and resolves references in deterministic
/// (group, slot) order. Violations are noted in the order [`check`]
/// reports them: per group the summary, the bitmap, then each slot (a
/// torn inode, a duplicate id, its first unusable reference); then per
/// group the bitmap against the reference map and the free count.
fn diagnose(image: &SectorImage, layout: &Layout) -> Diagnosis {
    let blocks = layout.blocks();
    let mut d = Diagnosis {
        live: Vec::new(),
        claimed: vec![false; blocks as usize],
        dirty: Vec::new(),
        report: FsckReport::default(),
        first: None,
    };
    let mut groups: Vec<GroupFound> = Vec::new();
    let mut seen = BTreeSet::new();
    for g in 0..ngroups(blocks) {
        let decoded = decode_group(image, g, blocks);
        let generation = decoded.summary.map_or(0, |s| s.generation) + 1;
        let recorded = match decoded.summary {
            Some(s) if decoded.bitmap_valid => Some((s.free_in_group, decoded.bitmap)),
            torn => {
                d.violates(match torn {
                    None => MountError::BadSummary { group: g },
                    Some(_) => MountError::BadBitmap { group: g },
                });
                d.report.bitmaps_rebuilt += 1;
                None
            }
        };
        let mut dirty = recorded.is_none();
        for (slot, state) in decoded.slots.into_iter().enumerate() {
            let mut rec = match state {
                SlotState::Empty => continue,
                SlotState::Bad => {
                    d.violates(MountError::BadInode {
                        group: g,
                        slot: slot as u64,
                    });
                    d.report.bad_inode_sectors += 1;
                    dirty = true;
                    continue;
                }
                SlotState::Inode(rec) => rec,
            };
            if !seen.insert(rec.id) {
                d.violates(MountError::DuplicateFileId { id: rec.id });
                d.report.duplicate_inodes += 1;
                dirty = true;
                continue;
            }
            // References win: the file keeps its blocks in file order up
            // to the first one it may not hold.
            let mut kept: Vec<u64> = Vec::new();
            let mut truncated = false;
            for b in rec.blocks() {
                let usable = data_usable(layout, b);
                if !usable || d.claimed[b as usize] {
                    d.violates(MountError::BadReference {
                        id: rec.id,
                        block: b,
                    });
                    d.report.double_refs += u64::from(usable);
                    truncated = true;
                    break;
                }
                d.claimed[b as usize] = true;
                kept.push(b);
            }
            if truncated {
                d.report.truncated_files += 1;
                dirty = true;
                rec.size_bytes = rec.size_bytes.min(kept.len() as u64 * BYTES_PER_BLOCK);
                rec.extents = image::extents_of(&kept);
            }
            d.live.push(LiveInode {
                group: g,
                slot,
                rec,
            });
        }
        groups.push(GroupFound {
            generation,
            recorded,
            dirty,
        });
    }
    d.report.files = d.live.len() as u64;

    for (g, mut found) in (0..).zip(groups) {
        if let Some((free, bitmap)) = &found.recorded {
            let expected = expected_bitmap(layout, &d.claimed, g);
            let mut mismatch = None;
            for (b, (&on, &want)) in (g * BLOCKS_PER_GROUP..).zip(bitmap.iter().zip(&expected)) {
                if on != want {
                    mismatch.get_or_insert(b);
                    if on {
                        d.report.leaked_blocks += 1;
                    } else {
                        d.report.lost_blocks += 1;
                        debug_assert!(d.claimed[b as usize], "lost block must be referenced");
                    }
                }
            }
            if let Some(block) = mismatch {
                d.violates(MountError::BitmapMismatch { group: g, block });
                found.dirty = true;
            } else if *free != expected.iter().filter(|&&a| !a).count() as u64 {
                d.violates(MountError::FreeCountMismatch { group: g });
                d.report.free_counts_fixed += 1;
                found.dirty = true;
            }
        }
        if found.dirty {
            d.dirty.push((g, found.generation));
        }
    }
    d
}

/// The bitmap a group must carry once references win: excluded blocks,
/// metadata-reserved blocks, and every block claimed by a surviving
/// inode.
fn expected_bitmap(layout: &Layout, claimed: &[bool], g: u64) -> Vec<bool> {
    let base = g * BLOCKS_PER_GROUP;
    (0..group_blocks(g, layout.blocks()))
        .map(|i| {
            let b = base + i;
            !data_usable(layout, b) || claimed[b as usize]
        })
        .collect()
}

/// Verifies and repairs `image` in place, returning what was done.
/// `layout` supplies the geometry (block count and excluded set — both
/// crash-invariant); the live post-workload layout or a freshly
/// formatted twin both work.
///
/// It rewrites every group the diagnosis [`check`] also reads found
/// wanting, so after `fsck` returns, [`check`] passes and a second `fsck`
/// reports [`FsckReport::clean`] and leaves the image byte-identical.
/// Data sectors are never touched.
#[expect(
    clippy::expect_used,
    reason = "every surviving inode came from a valid sector, and a kept prefix of its blocks \
              compresses to no more extents than it had (crash_fsck's \
              any_cut_recovers_to_a_mountable_consistent_image and the fsck oracle truncate files)"
)]
pub fn fsck(image: &mut SectorImage, layout: &Layout) -> FsckReport {
    let d = diagnose(image, layout);
    for &(g, generation) in &d.dirty {
        let mut slots: Vec<Option<InodeRec>> = vec![None; INODE_SLOTS];
        for f in d.live.iter().filter(|f| f.group == g) {
            slots[f.slot] = Some(f.rec.clone());
        }
        let bitmap = expected_bitmap(layout, &d.claimed, g);
        let bytes = image::encode_group(g, generation, &bitmap, &slots)
            .expect("recovered extents fit: they came from valid inode sectors");
        image::write_group(image, g, &bytes);
    }
    d.report
}

/// The mountable-image invariant: every metadata sector decodes, file
/// ids are unique, every reference is exclusive and usable, and every
/// bitmap and free count agrees exactly with the reference map. Returns
/// the first violation found (in deterministic group/slot order).
pub fn check(image: &SectorImage, layout: &Layout) -> Result<(), MountError> {
    diagnose(image, layout).first.map_or(Ok(()), Err)
}

/// Mounts a mountable image, returning its files. Run [`fsck`] first
/// after a crash; mounting a damaged image fails with the violation.
pub fn mount(image: &SectorImage, layout: &Layout) -> Result<RecoveredFs, MountError> {
    let d = diagnose(image, layout);
    if let Some(e) = d.first {
        return Err(e);
    }
    let files = d.live.into_iter().map(|f| {
        let rec = f.rec;
        let file = RecoveredFile {
            id: rec.id,
            size_bytes: rec.size_bytes,
            extents: rec.extents,
        };
        (rec.id, file)
    });
    Ok(RecoveredFs {
        files: files.collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::meta_lbn;
    use crate::layout::Personality;
    use traxtent::TrackBoundaries;

    /// 400 tracks × 200 sectors = 5000 blocks: one full group plus a
    /// 904-block trailing partial group.
    fn layout() -> Layout {
        let mut l = Layout::format(
            Personality::Unmodified,
            TrackBoundaries::uniform(400, 200),
            400 * 200,
        );
        l.reserve_group_metadata();
        l
    }

    /// A clean image: both groups encoded with `files` claiming blocks.
    fn clean_image(layout: &Layout, files: &[InodeRec]) -> SectorImage {
        let blocks = layout.blocks();
        let mut claimed = vec![false; blocks as usize];
        for f in files {
            for b in f.blocks().filter(|&b| b < blocks) {
                claimed[b as usize] = true;
            }
        }
        let mut image = SectorImage::new();
        for g in 0..ngroups(blocks) {
            let bitmap = expected_bitmap(layout, &claimed, g);
            // All inodes live in group 0's slots; the trailing partial
            // group carries only its bitmap.
            let mut slots: Vec<Option<InodeRec>> = vec![None; INODE_SLOTS];
            for (i, f) in files.iter().enumerate() {
                if g == 0 {
                    slots[i] = Some(f.clone());
                }
            }
            image::write_group(
                &mut image,
                g,
                &image::encode_group(g, 1, &bitmap, &slots).unwrap(),
            );
        }
        image
    }

    fn file(id: u64, extents: Vec<(u64, u64)>) -> InodeRec {
        let nb: u64 = extents.iter().map(|&(_, l)| l).sum();
        InodeRec {
            id,
            size_bytes: nb * BYTES_PER_BLOCK,
            extents,
        }
    }

    #[test]
    fn clean_image_mounts_and_fsck_is_a_noop() {
        let l = layout();
        let mut img = clean_image(
            &l,
            &[file(1, vec![(10, 4)]), file(2, vec![(20, 2), (30, 1)])],
        );
        check(&img, &l).unwrap();
        let before = img.clone();
        let report = fsck(&mut img, &l);
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.files, 2);
        assert_eq!(img, before, "clean fsck must not rewrite anything");
        let fs = mount(&img, &l).unwrap();
        assert_eq!(fs.files.len(), 2);
        assert_eq!(
            fs.files[&1].blocks().collect::<Vec<_>>(),
            vec![10, 11, 12, 13]
        );
    }

    #[test]
    fn torn_bitmap_is_rebuilt_from_references() {
        let l = layout();
        let mut img = clean_image(&l, &[file(1, vec![(10, 4)])]);
        // Tear group 0's bitmap sector mid-write.
        let mut torn = img.read(meta_lbn(0) + 1);
        torn[0] ^= 0xaa;
        img.write(meta_lbn(0) + 1, &torn);
        assert_eq!(check(&img, &l), Err(MountError::BadBitmap { group: 0 }));

        let report = fsck(&mut img, &l);
        assert_eq!(report.bitmaps_rebuilt, 1);
        assert_eq!(report.files, 1);
        check(&img, &l).unwrap();
        let again = fsck(&mut img.clone(), &l);
        assert!(again.clean());
    }

    #[test]
    fn leaked_and_lost_blocks_are_reconciled() {
        let l = layout();
        let f = file(1, vec![(10, 4)]);
        let mut img = clean_image(&l, std::slice::from_ref(&f));
        // Rewrite group 0's bitmap claiming block 50 (leaked) and freeing
        // block 12 (lost: file 1 references it).
        let blocks = l.blocks();
        let mut claimed = vec![false; blocks as usize];
        for b in f.blocks() {
            claimed[b as usize] = true;
        }
        let mut bitmap = expected_bitmap(&l, &claimed, 0);
        bitmap[50] = true;
        bitmap[12] = false;
        let bytes = image::encode_group(0, 2, &bitmap, &{
            let mut s: Vec<Option<InodeRec>> = vec![None; INODE_SLOTS];
            s[0] = Some(f.clone());
            s
        })
        .unwrap();
        image::write_group(&mut img, 0, &bytes);
        assert!(matches!(
            check(&img, &l),
            Err(MountError::BitmapMismatch { group: 0, .. })
        ));

        let report = fsck(&mut img, &l);
        assert_eq!(report.leaked_blocks, 1);
        assert_eq!(report.lost_blocks, 1);
        check(&img, &l).unwrap();
        let fs = mount(&img, &l).unwrap();
        assert_eq!(fs.files[&1].blocks().count(), 4);
    }

    #[test]
    fn double_referenced_block_truncates_the_later_file() {
        let l = layout();
        // File 2's second block collides with file 1's extent.
        let mut img = clean_image(
            &l,
            &[file(1, vec![(10, 4)]), file(2, vec![(20, 1), (11, 1)])],
        );
        assert!(matches!(
            check(&img, &l),
            Err(MountError::BadReference { id: 2, block: 11 })
        ));
        let report = fsck(&mut img, &l);
        assert_eq!(report.double_refs, 1);
        assert_eq!(report.truncated_files, 1);
        check(&img, &l).unwrap();
        let fs = mount(&img, &l).unwrap();
        assert_eq!(
            fs.files[&1].blocks().count(),
            4,
            "first referencer keeps the block"
        );
        assert_eq!(fs.files[&2].blocks().collect::<Vec<_>>(), vec![20]);
        assert_eq!(fs.files[&2].size_bytes, BYTES_PER_BLOCK);
    }

    #[test]
    fn torn_inode_sector_loses_the_file_and_frees_its_blocks() {
        let l = layout();
        let mut img = clean_image(&l, &[file(1, vec![(10, 4)]), file(2, vec![(20, 2)])]);
        // Tear file 2's inode sector (slot 1 → sector 3 of the block).
        let mut torn = img.read(meta_lbn(0) + 3);
        torn[100] ^= 0x01;
        img.write(meta_lbn(0) + 3, &torn);
        assert_eq!(
            check(&img, &l),
            Err(MountError::BadInode { group: 0, slot: 1 })
        );

        let report = fsck(&mut img, &l);
        assert_eq!(report.bad_inode_sectors, 1);
        assert_eq!(report.files, 1);
        // File 2's blocks were marked allocated in the (valid) bitmap but
        // are no longer referenced: leaked, and freed.
        assert_eq!(report.leaked_blocks, 2);
        check(&img, &l).unwrap();
        let fs = mount(&img, &l).unwrap();
        assert!(!fs.files.contains_key(&2));
    }

    #[test]
    fn out_of_range_reference_truncates() {
        let l = layout();
        let beyond = l.blocks() + 5;
        let mut img = clean_image(&l, &[file(1, vec![(10, 2), (beyond, 1)])]);
        let report = fsck(&mut img, &l);
        assert_eq!(report.truncated_files, 1);
        check(&img, &l).unwrap();
        let fs = mount(&img, &l).unwrap();
        assert_eq!(fs.files[&1].blocks().collect::<Vec<_>>(), vec![10, 11]);
    }
}
