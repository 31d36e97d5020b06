//! The FFS on-media metadata format used by crash simulation and fsck.
//!
//! The timing model in [`crate::fs`] never materializes bytes; crash
//! consistency needs them. When a [`crate::fs::FileSystem`] runs with its
//! crash shadow enabled, every metadata write it issues carries a payload
//! in this format, so a power cut resolves to a concrete, decodable image
//! (see [`sim_disk::crash`]).
//!
//! Each block group owns one reserved *metadata block* (its first block,
//! [`meta_lbn`]), encoded sector by sector so that tearing is visible at
//! exactly the granularity the drive commits data:
//!
//! | sector | contents |
//! |---|---|
//! | 0 | summary: magic, group, generation, free count, bitmap checksum, self checksum |
//! | 1 | the group's allocation bitmap (one bit per block, LSB first) |
//! | 2..16 | 14 inode slots, each self-contained with magic + checksum |
//!
//! A torn metadata write leaves some sectors old and some new; every
//! sector is independently validatable (the summary checksums itself and
//! the bitmap, each inode sector checksums itself), which is what lets
//! [`crate::fsck`](mod@crate::fsck) decide per sector what survived.

use crate::layout::{BLOCKS_PER_GROUP, BLOCK_SECTORS};
use sim_disk::crash::{checksum, SectorImage, SECTOR_USIZE};
use std::fmt;

/// Sectors in one group's metadata block.
pub const META_SECTORS: u64 = BLOCK_SECTORS;

/// Inode slots per group (metadata block sectors minus summary + bitmap).
pub const INODE_SLOTS: usize = (META_SECTORS as usize) - 2;

/// Maximum extents one inode sector can hold:
/// `(512 − 32-byte header − 8-byte checksum) / 16 bytes per extent`.
pub const MAX_EXTENTS: usize = (SECTOR_USIZE - 32 - 8) / 16;

const MAGIC_SUMMARY: u64 = 0x5452_4158_4646_5331; // "TRAXFFS1"
const MAGIC_INODE: u64 = 0x5452_4158_494e_4f44; // "TRAXINOD"

/// Number of block groups an FFS of `blocks` blocks has on media. The
/// trailing partial group (if any) gets a metadata block too — its
/// bitmap covers the tail blocks even though no inodes live there.
pub fn ngroups(blocks: u64) -> u64 {
    blocks.div_ceil(BLOCKS_PER_GROUP)
}

/// Blocks covered by group `g`'s bitmap.
pub fn group_blocks(g: u64, blocks: u64) -> u64 {
    (blocks - g * BLOCKS_PER_GROUP).min(BLOCKS_PER_GROUP)
}

/// First sector of group `g`'s metadata block.
pub fn meta_lbn(g: u64) -> u64 {
    g * BLOCKS_PER_GROUP * BLOCK_SECTORS
}

/// Whether block `b` is a reserved metadata block (the first block of a
/// group). Reserved blocks are taken at shadow-format time
/// ([`crate::layout::Layout::reserve_group_metadata`]) so data never
/// lands on them.
pub fn is_meta_block(b: u64) -> bool {
    b.is_multiple_of(BLOCKS_PER_GROUP)
}

/// A decoded inode: the per-file metadata one slot sector holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InodeRec {
    /// File id (never 0; 0 marks an empty slot).
    pub id: u64,
    /// File size in bytes.
    pub size_bytes: u64,
    /// Allocated blocks as `(start_block, len)` extents, in file order.
    pub extents: Vec<(u64, u64)>,
}

impl InodeRec {
    /// The blocks in file order.
    pub fn blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.extents.iter().flat_map(|&(s, l)| s..s + l)
    }
}

/// Compresses a file's block list into extents.
pub fn extents_of(blocks: &[u64]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for &b in blocks {
        match out.last_mut() {
            Some((s, l)) if *s + *l == b => *l += 1,
            _ => out.push((b, 1)),
        }
    }
    out
}

/// The decoded state of one inode slot sector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotState {
    /// All-zeros: no inode here.
    Empty,
    /// A valid inode.
    Inode(InodeRec),
    /// The sector fails its magic/checksum/shape validation — torn or
    /// scribbled; the inode it held (if any) is lost.
    Bad,
}

/// The decoded summary sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Group number as recorded on media.
    pub group: u64,
    /// Metadata generation (bumped on every metadata write of the group).
    pub generation: u64,
    /// Free blocks in the group as recorded on media.
    pub free_in_group: u64,
    /// Checksum the bitmap sector must match.
    pub bitmap_checksum: u64,
}

/// One group's metadata block as found on media: each component decoded
/// and validated independently, so a torn write degrades per sector.
#[derive(Debug, Clone)]
pub struct GroupDecode {
    /// The summary, if its sector validated.
    pub summary: Option<Summary>,
    /// Whether the bitmap sector matches the summary's checksum (always
    /// false when the summary itself is invalid).
    pub bitmap_valid: bool,
    /// The raw bitmap bits (meaningful only when `bitmap_valid`).
    pub bitmap: Vec<bool>,
    /// The inode slots.
    pub slots: Vec<SlotState>,
}

/// Errors from encoding metadata into the on-media format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// A file's block list needs more extents than one inode sector
    /// holds; its on-media inode would be lossy.
    TooManyExtents {
        /// The file id.
        id: u64,
        /// The extents the file actually has.
        have: usize,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::TooManyExtents { id, have } => write!(
                f,
                "file {id} spans {have} extents; an inode sector holds at most {MAX_EXTENTS}"
            ),
        }
    }
}

impl std::error::Error for EncodeError {}

fn put(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn get(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(std::array::from_fn(|i| buf[off + i]))
}

/// Encodes one inode slot sector.
pub fn encode_inode(rec: &InodeRec) -> Result<[u8; SECTOR_USIZE], EncodeError> {
    if rec.extents.len() > MAX_EXTENTS {
        return Err(EncodeError::TooManyExtents {
            id: rec.id,
            have: rec.extents.len(),
        });
    }
    let mut s = [0u8; SECTOR_USIZE];
    put(&mut s, 0, MAGIC_INODE);
    put(&mut s, 8, rec.id);
    put(&mut s, 16, rec.size_bytes);
    put(&mut s, 24, rec.extents.len() as u64);
    for (i, &(start, len)) in rec.extents.iter().enumerate() {
        put(&mut s, 32 + 16 * i, start);
        put(&mut s, 40 + 16 * i, len);
    }
    let ck = checksum(&s[..SECTOR_USIZE - 8]);
    put(&mut s, SECTOR_USIZE - 8, ck);
    Ok(s)
}

/// Decodes one inode slot sector.
pub fn decode_slot(s: &[u8; SECTOR_USIZE]) -> SlotState {
    if s.iter().all(|&b| b == 0) {
        return SlotState::Empty;
    }
    if get(s, 0) != MAGIC_INODE || get(s, SECTOR_USIZE - 8) != checksum(&s[..SECTOR_USIZE - 8]) {
        return SlotState::Bad;
    }
    let id = get(s, 8);
    let n = get(s, 24) as usize;
    if id == 0 || n > MAX_EXTENTS {
        return SlotState::Bad;
    }
    let mut extents = Vec::with_capacity(n);
    for i in 0..n {
        let start = get(s, 32 + 16 * i);
        let len = get(s, 40 + 16 * i);
        if len == 0 {
            return SlotState::Bad;
        }
        extents.push((start, len));
    }
    SlotState::Inode(InodeRec {
        id,
        size_bytes: get(s, 16),
        extents,
    })
}

/// Encodes the bitmap sector for `alloc` (true → allocated).
pub fn encode_bitmap(alloc: &[bool]) -> [u8; SECTOR_USIZE] {
    assert!(alloc.len() as u64 <= BLOCKS_PER_GROUP, "bitmap too wide");
    let mut s = [0u8; SECTOR_USIZE];
    for (b, &a) in alloc.iter().enumerate() {
        if a {
            s[b / 8] |= 1 << (b % 8);
        }
    }
    s
}

/// Decodes the bitmap sector into `nblocks` bools.
pub fn decode_bitmap(s: &[u8; SECTOR_USIZE], nblocks: u64) -> Vec<bool> {
    (0..nblocks as usize)
        .map(|b| s[b / 8] & (1 << (b % 8)) != 0)
        .collect()
}

/// Encodes a whole metadata block: summary + bitmap + inode slots, as
/// the `META_SECTORS * 512` byte payload of one metadata write.
/// `alloc[b]` covers the group's blocks (true → allocated); `slots`
/// must have exactly [`INODE_SLOTS`] entries.
pub fn encode_group(
    group: u64,
    generation: u64,
    alloc: &[bool],
    slots: &[Option<InodeRec>],
) -> Result<Vec<u8>, EncodeError> {
    assert_eq!(slots.len(), INODE_SLOTS, "one entry per slot");
    let bitmap = encode_bitmap(alloc);
    let free = alloc.iter().filter(|&&a| !a).count() as u64;
    let mut summary = [0u8; SECTOR_USIZE];
    put(&mut summary, 0, MAGIC_SUMMARY);
    put(&mut summary, 8, group);
    put(&mut summary, 16, generation);
    put(&mut summary, 24, free);
    put(&mut summary, 32, checksum(&bitmap));
    let self_ck = checksum(&summary[..40]);
    put(&mut summary, 40, self_ck);

    let mut out = Vec::with_capacity(META_SECTORS as usize * SECTOR_USIZE);
    out.extend_from_slice(&summary);
    out.extend_from_slice(&bitmap);
    for slot in slots {
        match slot {
            Some(rec) => out.extend_from_slice(&encode_inode(rec)?),
            None => out.extend_from_slice(&[0u8; SECTOR_USIZE]),
        }
    }
    Ok(out)
}

/// Decodes group `g`'s metadata block out of `image` (an FFS of
/// `blocks` blocks), validating every sector independently.
pub fn decode_group(image: &SectorImage, g: u64, blocks: u64) -> GroupDecode {
    let base = meta_lbn(g);
    let s0 = image.read(base);
    let summary =
        (get(&s0, 0) == MAGIC_SUMMARY && get(&s0, 8) == g && get(&s0, 40) == checksum(&s0[..40]))
            .then(|| Summary {
                group: get(&s0, 8),
                generation: get(&s0, 16),
                free_in_group: get(&s0, 24),
                bitmap_checksum: get(&s0, 32),
            });
    let s1 = image.read(base + 1);
    let bitmap_valid = summary.is_some_and(|s| checksum(&s1) == s.bitmap_checksum);
    let bitmap = decode_bitmap(&s1, group_blocks(g, blocks));
    let slots = (0..INODE_SLOTS as u64)
        .map(|i| decode_slot(&image.read(base + 2 + i)))
        .collect();
    GroupDecode {
        summary,
        bitmap_valid,
        bitmap,
        slots,
    }
}

/// Writes `bytes`, a metadata block as [`encode_group`] lays it out, into
/// `image` as group `g`'s metadata sectors: what [`decode_group`] reads.
pub fn write_group(image: &mut SectorImage, g: u64, bytes: &[u8]) {
    for (lbn, sector) in (meta_lbn(g)..).zip(bytes.as_chunks::<SECTOR_USIZE>().0) {
        image.write(lbn, sector);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inode_round_trips() {
        let rec = InodeRec {
            id: 7,
            size_bytes: 123_456,
            extents: vec![(10, 5), (100, 1), (4000, 96)],
        };
        let s = encode_inode(&rec).unwrap();
        assert_eq!(decode_slot(&s), SlotState::Inode(rec));
    }

    #[test]
    fn torn_inode_sector_is_bad_not_garbage() {
        let rec = InodeRec {
            id: 9,
            size_bytes: 1,
            extents: vec![(1, 1)],
        };
        let mut s = encode_inode(&rec).unwrap();
        s[40] ^= 0xff; // flip a bit in the extent list
        assert_eq!(decode_slot(&s), SlotState::Bad);
        assert_eq!(decode_slot(&[0u8; SECTOR_USIZE]), SlotState::Empty);
    }

    #[test]
    fn extent_overflow_is_typed() {
        let rec = InodeRec {
            id: 3,
            size_bytes: 0,
            extents: (0..(MAX_EXTENTS as u64 + 1)).map(|i| (i * 2, 1)).collect(),
        };
        assert!(matches!(
            encode_inode(&rec),
            Err(EncodeError::TooManyExtents { id: 3, .. })
        ));
    }

    #[test]
    fn group_round_trips_through_an_image() {
        let alloc: Vec<bool> = (0..BLOCKS_PER_GROUP).map(|b| b % 3 == 0).collect();
        let mut slots: Vec<Option<InodeRec>> = vec![None; INODE_SLOTS];
        slots[2] = Some(InodeRec {
            id: 11,
            size_bytes: 8192,
            extents: vec![(3, 2)],
        });
        let bytes = encode_group(5, 42, &alloc, &slots).unwrap();
        let mut image = SectorImage::new();
        write_group(&mut image, 5, &bytes);
        let blocks = 6 * BLOCKS_PER_GROUP;
        let d = decode_group(&image, 5, blocks);
        let sum = d.summary.expect("summary decodes");
        assert_eq!(sum.group, 5);
        assert_eq!(sum.generation, 42);
        assert!(d.bitmap_valid);
        assert_eq!(d.bitmap, alloc);
        assert!(matches!(&d.slots[2], SlotState::Inode(r) if r.id == 11));
        assert!(matches!(&d.slots[0], SlotState::Empty));

        // Tear the bitmap sector: the summary survives but the bitmap is
        // flagged invalid.
        let mut torn = [0u8; SECTOR_USIZE];
        torn[0] = 1;
        image.write(meta_lbn(5) + 1, &torn);
        let d = decode_group(&image, 5, blocks);
        assert!(d.summary.is_some());
        assert!(!d.bitmap_valid);
    }

    #[test]
    fn extents_compress_block_lists() {
        assert_eq!(extents_of(&[]), vec![]);
        assert_eq!(
            extents_of(&[5, 6, 7, 9, 10, 20]),
            vec![(5, 3), (9, 2), (20, 1)]
        );
    }

    #[test]
    fn trailing_group_geometry() {
        let blocks = BLOCKS_PER_GROUP + 1154;
        assert_eq!(ngroups(blocks), 2);
        assert_eq!(group_blocks(0, blocks), BLOCKS_PER_GROUP);
        assert_eq!(group_blocks(1, blocks), 1154);
        assert!(is_meta_block(0));
        assert!(is_meta_block(BLOCKS_PER_GROUP));
        assert!(!is_meta_block(1));
    }
}
