//! The volume data plane: one `u64` word per sector.
//!
//! Timing lives in the member [`sim_disk::disk::Disk`]s; *contents* live
//! here, so parity is real XOR arithmetic and "degraded reads return the
//! right bytes" is checkable bit-for-bit, not asserted. Like the layout,
//! this module is pure — reconstruction math is property-testable with no
//! drives in sight.

use crate::layout::{Chunk, LogicalUnit, VolumeKind, VolumeLayout};
use traxtent::hash::{splitmix64, GOLDEN_GAMMA};

/// A volume's data plane: every member's store, or — from a format until
/// the first operation that changes or snapshots contents — only the
/// format's seed.
///
/// A member is failed if and only if its store is empty (capacity 0): a
/// dead drive holds nothing, and a rebuild installs a whole new store
/// when it marks the member healthy. Nothing indexes an empty store,
/// because `Volume::read_member` refuses a failed member before any
/// caller takes words from its store, no write arm writes a failed
/// member's store, and `Volume::xor_survivors` reads a member (and so
/// refuses a failed one) before it folds that member's column. A stray
/// read of a dead member panics on the empty store instead of returning
/// words.
#[derive(Debug)]
pub(crate) enum Plane {
    /// Exactly what [`fill_stores`] writes under this seed into fresh
    /// stores, empty for the failed members, with nothing allocated or
    /// filled yet.
    Implicit(u64),
    /// One store per member.
    Filled(Vec<SectorStore>),
}

impl Plane {
    /// Every member's store, filled first if the plane is still implicit
    /// (`failed(m)` names the members left empty): the one way to the
    /// stores, so no store read can see an unfilled plane.
    pub(crate) fn stores(
        &mut self,
        layout: &VolumeLayout,
        failed: impl Fn(usize) -> bool,
    ) -> &mut [SectorStore] {
        if let Plane::Implicit(seed) = *self {
            *self = Plane::fill(layout, seed, &failed);
        }
        match self {
            Plane::Filled(stores) => stores,
            Plane::Implicit(_) => unreachable!("filled above"),
        }
    }

    /// What `Implicit(seed)` stands for. Cold: it runs once per format,
    /// and kept out of line it leaves the store accessors small.
    #[cold]
    #[inline(never)]
    fn fill(layout: &VolumeLayout, seed: u64, failed: &dyn Fn(usize) -> bool) -> Plane {
        let mut stores: Vec<SectorStore> = (layout.member_caps().iter().enumerate())
            .map(|(m, &capacity)| SectorStore::new(if failed(m) { 0 } else { capacity }))
            .collect();
        fill_stores(layout, &mut stores, seed);
        Plane::Filled(stores)
    }

    /// Appends chunk `chunk`'s words, as member `source` holds them, to
    /// `out` — the healthy-read copy, the one read an implicit plane
    /// answers without filling: a copy of the pattern is the pattern.
    pub(crate) fn read_into(&self, source: usize, chunk: &Chunk, out: &mut Vec<u64>) {
        match self {
            Plane::Implicit(seed) => {
                let lbns = chunk.lstart..chunk.lstart + chunk.len;
                out.extend(lbns.map(|lbn| pattern_word(*seed, lbn)));
            }
            Plane::Filled(stores) => stores[source].read_into(chunk.pstart, chunk.len, out),
        }
    }
}

/// A zero-filled store for every member of `layout`.
pub(crate) fn zeroed_stores(layout: &VolumeLayout) -> Vec<SectorStore> {
    (layout.member_caps().iter())
        .map(|&capacity| SectorStore::new(capacity))
        .collect()
}

/// Per-member sector contents: one 64-bit word per physical LBN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectorStore {
    words: Vec<u64>,
}

impl SectorStore {
    /// A zero-filled store for a drive of `capacity` sectors.
    pub fn new(capacity: u64) -> Self {
        SectorStore {
            words: vec![0; capacity as usize],
        }
    }

    /// Capacity in sectors.
    pub fn capacity(&self) -> u64 {
        self.words.len() as u64
    }

    /// The word stored at physical LBN `pba`.
    pub fn word(&self, pba: u64) -> u64 {
        self.words[pba as usize]
    }

    /// Overwrites the word at physical LBN `pba`.
    pub fn set_word(&mut self, pba: u64, word: u64) {
        self.words[pba as usize] = word;
    }

    /// Appends the `len` words starting at `pba` to `out`.
    pub fn read_into(&self, pba: u64, len: u64, out: &mut Vec<u64>) {
        out.extend_from_slice(&self.words[pba as usize..(pba + len) as usize]);
    }

    /// Writes `data` starting at physical LBN `pba`.
    pub fn write(&mut self, pba: u64, data: &[u64]) {
        self.words[pba as usize..pba as usize + data.len()].copy_from_slice(data);
    }

    /// XORs the `out.len()` words starting at `pba` into `out` — the one
    /// parity kernel: reconstruction, parity update, syndrome and (into
    /// zeroes) a plain copy are all folds of this over member columns.
    pub fn xor_into(&self, pba: u64, out: &mut [u64]) {
        let column = &self.words[pba as usize..pba as usize + out.len()];
        for (o, w) in out.iter_mut().zip(column) {
            *o ^= w;
        }
    }
}

/// The canonical content of logical LBN `lbn` under fill seed `seed`: a
/// SplitMix64 draw, so every sector of every volume is distinct and
/// any read can be verified against first principles.
pub fn pattern_word(seed: u64, lbn: u64) -> u64 {
    splitmix64(seed.wrapping_mul(GOLDEN_GAMMA).wrapping_add(lbn))
}

/// Fills member stores with the canonical pattern for every logical LBN
/// and establishes the redundancy invariant: mirrors get full copies,
/// RAID-5 parity units get the XOR of their round's data columns. One
/// pass: each data word is written once, straight into its store, and a
/// round's parity is folded in one unit-sized buffer as its data columns
/// are written. Sectors no unit maps are left as they were.
///
/// An empty store (capacity 0) is a failed member's, and is left empty:
/// its data columns still fold into their round's parity, but nothing of
/// it is stored.
pub fn fill_stores(layout: &VolumeLayout, stores: &mut [SectorStore], seed: u64) {
    assert_eq!(stores.len(), layout.members(), "one store per member");
    let live = |store: &SectorStore| store.capacity() > 0;
    match layout.kind() {
        VolumeKind::Striped => {
            for u in layout.units() {
                if live(&stores[u.member]) {
                    fill_unit(&mut stores[u.member], u, seed);
                }
            }
        }
        VolumeKind::Mirrored => {
            for u in layout.units() {
                for store in stores.iter_mut().filter(|s| live(s)) {
                    fill_unit(store, u, seed);
                }
            }
        }
        VolumeKind::Raid5 => {
            // A round is its `members - 1` data units, in member order.
            let rounds = layout.units().chunks(layout.members() - 1);
            let mut parity = Vec::new();
            for (info, units) in layout.rounds().iter().zip(rounds) {
                parity.clear();
                parity.resize(info.len as usize, 0);
                for u in units {
                    let store = &mut stores[u.member];
                    if live(store) {
                        let column = fill_unit(store, u, seed);
                        for (p, w) in parity.iter_mut().zip(column) {
                            *p ^= w;
                        }
                    } else {
                        for (p, lbn) in parity.iter_mut().zip(u.lstart..) {
                            *p ^= pattern_word(seed, lbn);
                        }
                    }
                }
                if live(&stores[info.parity]) {
                    stores[info.parity].write(info.pstarts[info.parity], &parity);
                }
            }
        }
    }
}

/// Writes unit `u`'s canonical words into its column of `store`, and
/// returns the column.
fn fill_unit<'a>(store: &'a mut SectorStore, u: &LogicalUnit, seed: u64) -> &'a [u64] {
    let column = &mut store.words[u.pstart as usize..][..u.len as usize];
    for (w, lbn) in column.iter_mut().zip(u.lstart..) {
        *w = pattern_word(seed, lbn);
    }
    column
}

/// Reconstructs member `member`'s round-`round` unit from the surviving
/// columns: XOR of every other member's column for RAID-5 (data and
/// parity reconstruct identically), a copy from `source` for mirrors.
/// Returns the unit's words; pure, so the XOR algebra is testable
/// without drives.
///
/// # Panics
///
/// Panics for [`VolumeKind::Striped`] — RAID-0 has no redundancy.
pub fn reconstruct_unit(
    layout: &VolumeLayout,
    stores: &[SectorStore],
    round: usize,
    member: usize,
) -> Vec<u64> {
    match layout.kind() {
        VolumeKind::Striped => panic!("a striped volume cannot reconstruct anything"),
        VolumeKind::Mirrored => {
            let u = &layout.units()[round];
            let source = (member + 1) % layout.members();
            let mut out = Vec::with_capacity(u.len as usize);
            stores[source].read_into(u.pstart, u.len, &mut out);
            out
        }
        VolumeKind::Raid5 => {
            let info = &layout.rounds()[round];
            let mut out = vec![0u64; info.len as usize];
            for (m, store) in stores.iter().enumerate() {
                if m != member {
                    store.xor_into(info.pstarts[m], &mut out);
                }
            }
            out
        }
    }
}
