//! The volume data plane: one `u64` word per sector.
//!
//! Timing lives in the member [`sim_disk::disk::Disk`]s; *contents* live
//! here, so parity is real XOR arithmetic and "degraded reads return the
//! right bytes" is checkable bit-for-bit, not asserted. Like the layout,
//! this module is pure — reconstruction math is property-testable with no
//! drives in sight.

use crate::layout::{Chunk, LogicalUnit, VolumeKind, VolumeLayout};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::{panic, thread};
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
    #[expect(
        clippy::unreachable,
        reason = "an implicit plane is replaced by a filled one just above"
    )]
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
///
/// The rounds are cut into one range per core, each filled on its own
/// thread into its own share of every store; what lands in the stores
/// depends on `(layout, seed)` alone, never on how many ranges there are.
pub fn fill_stores(layout: &VolumeLayout, stores: &mut [SectorStore], seed: u64) {
    fill_in_parts(layout, stores, seed, cores());
}

/// How many round ranges a fill or a scrub cuts a volume into: one per
/// core the process may run on.
pub(crate) fn cores() -> usize {
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// [`fill_stores`] over `parts` round ranges.
pub(crate) fn fill_in_parts(
    layout: &VolumeLayout,
    stores: &mut [SectorStore],
    seed: u64,
    parts: usize,
) {
    assert_eq!(stores.len(), layout.members(), "one store per member");
    let ranges = round_ranges(layout, parts);
    let shares = carve(layout, &ranges, stores);
    let jobs = ranges.into_iter().zip(shares).collect();
    in_parallel(jobs, |(rounds, mut columns)| {
        fill_range(layout, rounds, &mut columns, seed);
    });
}

/// The rounds of `layout` cut into `min(parts, rounds)` contiguous,
/// nonempty ranges of about equal logical sectors, and so of about equal
/// words: a round holds its logical sectors' words times a factor fixed
/// by the kind (a parity column more for RAID-5, a copy a member for a
/// mirror).
fn round_ranges(layout: &VolumeLayout, parts: usize) -> Vec<Range<usize>> {
    let units = layout.units();
    let rounds = layout.rounds().len();
    let parts = parts.clamp(1, rounds.max(1));
    let mut start = 0;
    (1..=parts)
        .map(|i| {
            let mut end = rounds;
            if i < parts {
                let lbn = layout.capacity() / parts as u64 * i as u64;
                let at = units.partition_point(|u| u.lstart < lbn);
                let round = if at < units.len() {
                    layout.round(at)
                } else {
                    rounds
                };
                end = round.clamp(start + 1, rounds - (parts - i));
            }
            let range = start..end;
            start = end;
            range
        })
        .collect()
}

/// One live member's share of a round range: `words[0]` is its physical
/// LBN `base`.
struct Column<'a> {
    base: u64,
    words: &'a mut [u64],
}

impl Column<'_> {
    /// The member's words `[pba, pba + len)`.
    fn at(&mut self, pba: u64, len: u64) -> &mut [u64] {
        &mut self.words[(pba - self.base) as usize..][..len as usize]
    }
}

/// Every range's share of every store, one column a member, `None` for
/// a failed member's empty store. A range's column on member `m` runs
/// from where its first round begins on `m` (LBN 0 for the first range)
/// to where the next range's does (the store's end for the last range):
/// every member's units ascend physically with the round, so the column
/// holds all of the range's units on `m` and nothing of another range's.
fn carve<'a>(
    layout: &VolumeLayout,
    ranges: &[Range<usize>],
    stores: &'a mut [SectorStore],
) -> Vec<Vec<Option<Column<'a>>>> {
    let mut shares: Vec<Vec<Option<Column>>> = ranges
        .iter()
        .map(|_| Vec::with_capacity(stores.len()))
        .collect();
    for (m, store) in stores.iter_mut().enumerate() {
        if store.capacity() == 0 {
            shares.iter_mut().for_each(|columns| columns.push(None));
            continue;
        }
        let (mut base, mut rest) = (0, store.words.as_mut_slice());
        for (i, columns) in shares.iter_mut().enumerate() {
            let end = (ranges.get(i + 1)).map_or(base + rest.len() as u64, |next| {
                layout.member_extent(next.start, m).start
            });
            let (words, tail) = std::mem::take(&mut rest).split_at_mut((end - base) as usize);
            columns.push(Some(Column { base, words }));
            (base, rest) = (end, tail);
        }
    }
    shares
}

/// Fills the rounds `rounds` of `layout` into their columns, one a
/// member: the whole-volume fill's loop, with every store offset by its
/// column's base.
fn fill_range(
    layout: &VolumeLayout,
    rounds: Range<usize>,
    columns: &mut [Option<Column>],
    seed: u64,
) {
    let units = layout.units();
    match layout.kind() {
        VolumeKind::Striped => {
            for i in layout.units_of(rounds) {
                if let Some(column) = &mut columns[layout.member(i)] {
                    fill_unit(
                        column.at(layout.pstart(i), u64::from(units[i].len)),
                        &units[i],
                        seed,
                    );
                }
            }
        }
        VolumeKind::Mirrored => {
            for u in &units[layout.units_of(rounds)] {
                for column in columns.iter_mut().flatten() {
                    fill_unit(column.at(u.lstart, u64::from(u.len)), u, seed);
                }
            }
        }
        VolumeKind::Raid5 => {
            let mut parity = Vec::new();
            for r in rounds {
                let holder = layout.parity(r);
                let at = layout.member_extent(r, holder);
                parity.clear();
                parity.resize(at.len as usize, 0);
                for i in layout.units_of(r..r + 1) {
                    let u = &units[i];
                    if let Some(column) = &mut columns[layout.member(i)] {
                        let column = column.at(layout.pstart(i), u64::from(u.len));
                        fill_unit(column, u, seed);
                        for (p, w) in parity.iter_mut().zip(column) {
                            *p ^= *w;
                        }
                    } else {
                        for (p, lbn) in parity.iter_mut().zip(u.lstart..) {
                            *p ^= pattern_word(seed, lbn);
                        }
                    }
                }
                if let Some(column) = &mut columns[holder] {
                    column.at(at.start, at.len).copy_from_slice(&parity);
                }
            }
        }
    }
}

/// Writes unit `u`'s canonical words into `column`, its words on its
/// member.
fn fill_unit(column: &mut [u64], u: &LogicalUnit, seed: u64) {
    for (w, lbn) in column.iter_mut().zip(u.lstart..) {
        *w = pattern_word(seed, lbn);
    }
}

/// Runs `work` on every job, each on its own scoped thread but the last,
/// which runs on the calling thread, and returns the results in job
/// order. A panicking job panics the caller with its payload.
fn in_parallel<J: Send, R: Send>(jobs: Vec<J>, work: impl Fn(J) -> R + Sync) -> Vec<R> {
    let mut jobs = jobs.into_iter();
    let last = jobs.next_back();
    thread::scope(|scope| {
        let work = &work;
        let spawned: Vec<_> = jobs.map(|job| scope.spawn(move || work(job))).collect();
        let last = last.map(work);
        (spawned.into_iter())
            .map(|handle| handle.join().unwrap_or_else(|e| panic::resume_unwind(e)))
            .chain(last)
            .collect()
    })
}

/// What [`crate::Volume::scrub`] verifies, folded over `parts` round
/// ranges: the sectors checked, and those whose redundancy fails. A
/// RAID-5 round is checked only when no store is empty, and fails where
/// its columns do not XOR to zero; every live mirror copy but
/// `reference` is compared with `reference`'s (no copy is compared
/// without one). RAID-0 has nothing to check.
pub(crate) fn scrub_in_parts(
    layout: &VolumeLayout,
    stores: &[SectorStore],
    reference: Option<usize>,
    parts: usize,
) -> (u64, u64) {
    let ranges = round_ranges(layout, parts);
    let counts = in_parallel(ranges, |rounds| {
        scrub_range(layout, stores, reference, rounds)
    });
    (counts.into_iter()).fold((0, 0), |(c, m), (checked, bad)| (c + checked, m + bad))
}

/// [`scrub_in_parts`] over the rounds `rounds` alone.
fn scrub_range(
    layout: &VolumeLayout,
    stores: &[SectorStore],
    reference: Option<usize>,
    rounds: Range<usize>,
) -> (u64, u64) {
    let live = |store: &SectorStore| store.capacity() > 0;
    let (mut checked, mut mismatches) = (0, 0);
    let mut syndrome = Vec::new();
    match (layout.kind(), reference) {
        (VolumeKind::Striped, _) | (VolumeKind::Mirrored, None) => {}
        (VolumeKind::Mirrored, Some(reference)) => {
            for u in &layout.units()[layout.units_of(rounds)] {
                for (m, store) in stores.iter().enumerate() {
                    if m == reference || !live(store) {
                        continue;
                    }
                    syndrome.clear();
                    stores[reference].read_into(u.lstart, u64::from(u.len), &mut syndrome);
                    store.xor_into(u.lstart, &mut syndrome);
                    checked += u64::from(u.len);
                    mismatches += nonzero(&syndrome);
                }
            }
        }
        (VolumeKind::Raid5, _) => {
            if stores.iter().all(live) {
                for r in rounds {
                    let len = layout.member_extent(r, 0).len;
                    syndrome.clear();
                    syndrome.resize(len as usize, 0);
                    for (m, store) in stores.iter().enumerate() {
                        store.xor_into(layout.member_extent(r, m).start, &mut syndrome);
                    }
                    checked += len;
                    mismatches += nonzero(&syndrome);
                }
            }
        }
    }
    (checked, mismatches)
}

/// Sectors of a syndrome (the XOR of columns that should cancel) that
/// violate the redundancy invariant.
pub(crate) fn nonzero(syndrome: &[u64]) -> u64 {
    syndrome.iter().filter(|&&w| w != 0).count() as u64
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
#[expect(clippy::panic, reason = "the # Panics contract")]
pub fn reconstruct_unit(
    layout: &VolumeLayout,
    stores: &[SectorStore],
    round: usize,
    member: usize,
) -> Vec<u64> {
    match layout.kind() {
        VolumeKind::Striped => panic!("a striped volume cannot reconstruct anything"),
        VolumeKind::Mirrored => {
            let source = (member + 1) % layout.members();
            let at = layout.member_extent(round, source);
            let mut out = Vec::with_capacity(at.len as usize);
            stores[source].read_into(at.start, at.len, &mut out);
            out
        }
        VolumeKind::Raid5 => {
            let mut out = vec![0u64; layout.member_extent(round, member).len as usize];
            for (m, store) in stores.iter().enumerate() {
                if m != member {
                    store.xor_into(layout.member_extent(round, m).start, &mut out);
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::StripePolicy;
    use proptest::prelude::*;
    use traxtent::boundaries::ConfidentBoundaries;

    /// A member map as `fleet_props` draws one: 2–60 tracks of 1–400
    /// sectors, each trusted or fuzzy.
    fn arb_member() -> impl Strategy<Value = ConfidentBoundaries> {
        prop::collection::vec((1u64..400, 0u32..2), 2..60).prop_map(|tracks| {
            ConfidentBoundaries::from_unit_lengths(
                (tracks.into_iter())
                    .map(|(len, trusted)| (len, if trusted == 1 { 1.0 } else { 0.35 })),
            )
            .expect("positive lengths are valid")
        })
    }

    fn arb_policy() -> impl Strategy<Value = StripePolicy> {
        prop_oneof![
            (1u64..200).prop_map(StripePolicy::fixed),
            (1u64..200).prop_map(|fallback_sectors| StripePolicy::Aligned {
                threshold: 0.9,
                fallback_sectors,
            }),
        ]
    }

    fn arb_kind() -> impl Strategy<Value = VolumeKind> {
        prop_oneof![
            Just(VolumeKind::Striped),
            Just(VolumeKind::Mirrored),
            Just(VolumeKind::Raid5),
        ]
    }

    /// The serial fill and scrub are the one-part case; every other part
    /// count must write the same words and count the same sectors.
    #[test]
    fn every_part_count_fills_and_scrubs_as_one() {
        let name = "every_part_count_fills_and_scrubs_as_one";
        let mut tally = Tally::default();
        let corruptions = prop::collection::vec((0u64..u64::MAX, 1u64..u64::MAX), 0..6);
        for_cases(
            name,
            192,
            (
                prop::collection::vec(arb_member(), 3..6),
                (arb_kind(), arb_policy()),
                0u64..u64::MAX,
                (0u32..2, 0usize..12, 0usize..6),
                corruptions,
            ),
            |(maps, (kind, policy), seed, (old_words, dead, reference), corruptions)| {
                let Ok(layout) = VolumeLayout::new(kind, &maps, &policy) else {
                    return; // e.g. no complete round fits
                };
                let members = layout.members();
                // Half the cases fill over other words, and half empty one
                // member's store.
                let dead = (dead >= 6).then(|| dead % members);
                let before: Vec<SectorStore> = (layout.member_caps().iter().enumerate())
                    .map(|(m, &cap)| {
                        let mut store = SectorStore::new(if dead == Some(m) { 0 } else { cap });
                        if old_words == 1 {
                            (0..store.capacity()).for_each(|i| store.set_word(i, !i ^ seed));
                        }
                        store
                    })
                    .collect();
                let mut want = before.clone();
                fill_in_parts(&layout, &mut want, seed, 1);
                let rounds = round_ranges(&layout, usize::MAX).len();
                for parts in 2..=8 {
                    let mut got = before.clone();
                    fill_in_parts(&layout, &mut got, seed, parts);
                    assert_eq!(got, want, "{kind:?} under {policy:?} in {parts} parts");
                    let ranges = round_ranges(&layout, parts);
                    assert_eq!(ranges.len(), parts.min(rounds));
                    tally.note_if(parts > rounds, "parts_exceed_rounds");
                    tally.note_if(
                        ranges[0].len() != ranges[ranges.len() - 1].len(),
                        "uneven_last_part",
                    );
                }

                // A mirror's reference is a live copy; a RAID-5 volume with
                // an empty store checks nothing.
                let live: Vec<bool> = want.iter().map(|store| store.capacity() > 0).collect();
                let reference = (0..members)
                    .map(|m| (m + reference) % members)
                    .find(|&m| live[m]);
                let live_copies = live.iter().filter(|&&l| l).count() as u64;
                let clean = match kind {
                    VolumeKind::Striped => 0,
                    VolumeKind::Mirrored => (live_copies - 1) * layout.capacity(),
                    VolumeKind::Raid5 if dead.is_some() => 0,
                    VolumeKind::Raid5 => (layout.rounds())
                        .map(|r| layout.member_extent(r, 0).len)
                        .sum(),
                };
                assert_eq!(scrub_in_parts(&layout, &want, reference, 1), (clean, 0));
                for (at, flip) in &corruptions {
                    let m = *at as usize % members;
                    if live[m] {
                        let store = &mut want[m];
                        let pba = at / members as u64 % store.capacity();
                        store.set_word(pba, store.words[pba as usize] ^ flip);
                    }
                }
                let one = scrub_in_parts(&layout, &want, reference, 1);
                assert_eq!(one.0, clean, "corruption moves no checked sector");
                for parts in 2..=8 {
                    let got = scrub_in_parts(&layout, &want, reference, parts);
                    assert_eq!(got, one, "{kind:?} under {policy:?} in {parts} parts");
                }
                tally.note(kind.label());
                tally.note_if(old_words == 1, "over_old_words");
                tally.note_if(dead.is_some(), "dead_member");
                tally.note_if(one.1 > 0, "corrupted");
            },
        );
        tally.require(
            name,
            &[
                "striped",
                "mirrored",
                "raid5",
                "parts_exceed_rounds",
                "dead_member",
                "over_old_words",
                "uneven_last_part",
                "corrupted",
            ],
        );
    }
}
