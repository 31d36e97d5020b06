//! Zoned disk geometry and the LBN-to-physical mapping.
//!
//! The builder ([`GeometrySpec::build`]) turns a declarative description —
//! surfaces, zones, skews, a spare scheme, and a defect list — into a
//! [`DiskGeometry`] with a precomputed per-track map supporting O(log n)
//! LBN→physical and physical→LBN translation, including defect slipping and
//! remapping exactly as described in §2.2 and §3.1 of the paper.
//!
//! Tracks are numbered in LBN order: cylinder 0 surface 0, cylinder 0
//! surface 1, …, cylinder 1 surface 0, … (Figure 2(b) of the paper).

use crate::defects::{DefectLocation, DefectPolicy, SlipDomain, SpareScheme};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use traxtent::boundaries::LbnDirectory;
use traxtent::TrackBoundaries;

/// Identifier of a track, in LBN order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId(pub u32);

/// A physical block address: cylinder, head, and physical sector slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pba {
    /// Cylinder number, 0 at the outer edge.
    pub cyl: u32,
    /// Surface (head) number.
    pub head: u32,
    /// Physical sector slot within the track.
    pub slot: u32,
}

impl Pba {
    /// Creates a physical block address.
    pub fn new(cyl: u32, head: u32, slot: u32) -> Self {
        Pba { cyl, head, slot }
    }
}

/// One recording zone: a contiguous run of cylinders sharing a
/// sectors-per-track count and skew settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneSpec {
    /// Number of cylinders in the zone.
    pub cylinders: u32,
    /// Physical sector slots per track in this zone.
    pub spt: u32,
    /// Track (head-switch) skew, in sector slots of this zone.
    pub track_skew: u32,
    /// Cylinder-switch skew, in sector slots of this zone.
    pub cyl_skew: u32,
}

/// Declarative description of a disk's layout.
#[derive(Debug, Clone, PartialEq)]
pub struct GeometrySpec {
    /// Number of media surfaces (read/write heads).
    pub surfaces: u32,
    /// Recording zones, outermost first.
    pub zones: Vec<ZoneSpec>,
    /// Spare-space reservation scheme.
    pub spare: SpareScheme,
    /// How factory defects are folded into the mapping.
    pub policy: DefectPolicy,
    /// Factory (P-list) defects.
    pub defects: Vec<DefectLocation>,
}

impl GeometrySpec {
    /// A defect-free spec with the given shape — the common starting point.
    pub fn pristine(surfaces: u32, zones: Vec<ZoneSpec>) -> Self {
        GeometrySpec {
            surfaces,
            zones,
            spare: SpareScheme::None,
            policy: DefectPolicy::Slip,
            defects: Vec::new(),
        }
    }

    /// Total number of cylinders across all zones.
    pub fn cylinders(&self) -> u32 {
        self.zones.iter().map(|z| z.cylinders).sum()
    }

    /// Builds the full per-track mapping.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] if the spec is degenerate (no surfaces, no
    /// zones, zero-sector tracks), a defect lies outside the disk, or the
    /// spare scheme cannot absorb the defect list.
    pub fn build(self) -> Result<DiskGeometry, GeometryError> {
        build_geometry(self)
    }
}

/// Information about one recording zone of a built disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneInfo {
    /// First cylinder of the zone.
    pub first_cyl: u32,
    /// Number of cylinders.
    pub cylinders: u32,
    /// Sector slots per track.
    pub spt: u32,
    /// First LBN mapped in the zone.
    pub first_lbn: u64,
    /// Number of LBNs mapped in the zone.
    pub lbn_count: u64,
}

/// One track of the built mapping: a by-value view over the geometry's
/// flat per-track tables, built without a divide. It is `Copy` and borrows
/// the geometry, so the service path passes it by reference.
#[derive(Debug, Clone, Copy)]
pub struct Track<'a> {
    id: u32,
    first_lbn: u64,
    count: u32,
    cyl: u32,
    head: u32,
    spt: u32,
    /// Angle of physical slot 0, in revolutions, at spindle phase 0.
    angle0: f64,
    /// `1.0 / spt`, precomputed per zone: the service path adds one slot
    /// fraction per sweep and would otherwise pay a floating-point divide
    /// per visit.
    inv_spt: f64,
    /// `slot_frac[s] = s / spt`, shared across the zone's tracks, so the
    /// access-on-arrival scan reads slot angles without a division.
    slot_frac: &'a [f64],
    /// Every track's factory lists.
    factory: &'a FactoryLists,
    /// What grown defects wrote to this track, if any reached it.
    grown: Option<&'a GrownLists>,
}

impl<'a> Track<'a> {
    /// First LBN mapped on this track.
    pub fn first_lbn(&self) -> u64 {
        self.first_lbn
    }

    /// Number of LBNs mapped on this track.
    pub fn lbn_count(&self) -> u32 {
        self.count
    }

    /// One past the last LBN mapped on this track.
    pub fn end_lbn(&self) -> u64 {
        self.first_lbn + u64::from(self.count)
    }

    /// Cylinder this track lies on.
    pub fn cyl(&self) -> u32 {
        self.cyl
    }

    /// Surface this track lies on.
    pub fn head(&self) -> u32 {
        self.head
    }

    /// Physical sector slots on this track.
    pub fn spt(&self) -> u32 {
        self.spt
    }

    /// Angle (in revolutions, `[0,1)`) of the leading edge of `slot` when the
    /// spindle is at phase 0.
    pub fn slot_angle(&self, slot: u32) -> f64 {
        debug_assert!(slot < self.spt);
        // `angle0 + slot/spt` lies in [0,2), where `fract` is exactly a
        // conditional subtraction — with the division read from the
        // precomputed table, the result is bit-identical to the direct form.
        let a = self.angle0 + self.slot_frac[slot as usize];
        if a >= 1.0 {
            a - 1.0
        } else {
            a
        }
    }

    /// Angle (in revolutions, `[0,1)`) of physical slot 0 at spindle phase 0
    /// — the raw value [`Track::slot_angle`] offsets by the slot fraction.
    pub fn angle0(&self) -> f64 {
        self.angle0
    }

    /// Exactly `1.0 / f64::from(self.spt())`, computed once per zone.
    pub fn inv_spt(&self) -> f64 {
        self.inv_spt
    }

    /// The precomputed `slot / spt` table shared by the zone's tracks:
    /// `slot_fracs()[s]` is exactly the value [`Track::slot_angle`] adds to
    /// [`Track::angle0`] for slot `s`. Non-decreasing in `s`.
    pub fn slot_fracs(&self) -> &'a [f64] {
        self.slot_frac
    }

    /// Sorted factory-defective slots on this track.
    pub fn defect_slots(&self) -> &'a [u32] {
        self.factory.defects.of(self.id as usize)
    }

    /// Grown-defective slots (remapped after formatting); sorted.
    pub fn grown_slots(&self) -> &'a [u32] {
        self.grown.map_or(&[], |g| &g.slots)
    }

    /// Spare slots on this track holding remapped LBNs: `(slot, lbn)`,
    /// sorted by slot.
    pub fn remap_targets(&self) -> &'a [(u32, u64)] {
        (self.grown).map_or_else(|| self.factory.targets.of(self.id as usize), |g| &g.targets)
    }

    /// True if the given physical slot is defective (factory or grown).
    pub fn is_defective_slot(&self, slot: u32) -> bool {
        self.defect_slots().binary_search(&slot).is_ok()
            || self.grown_slots().binary_search(&slot).is_ok()
    }

    /// The maximal contiguous `(first, count)` runs of the slots
    /// `first..=last` that are not factory-defective, in slot order, in
    /// O(defects in range): the slots of a visit whose first and last LBNs
    /// sit in `first` and `last`. Under [`DefectPolicy::Remap`] that is one
    /// run — the LBNs a defect displaced are remapped, and the drive
    /// visits them on their own — and a grown defect's LBN is remapped
    /// under either policy.
    pub(crate) fn slot_runs(&self, first: u32, last: u32) -> impl Iterator<Item = (u32, u32)> + 'a {
        let d = self.defect_slots();
        let holes = &d[d.partition_point(|&s| s < first)..d.partition_point(|&s| s <= last)];
        let mut next = first;
        (holes.iter().copied().chain([last + 1])).filter_map(move |hole| {
            let run = (next, hole - next);
            next = hole + 1;
            (run.1 > 0).then_some(run)
        })
    }
}

/// The lists the spec fixes, flat and by track: a pristine drive keeps no
/// offsets, and a defective one 4 bytes a track and the entries.
#[derive(Debug)]
struct FactoryLists {
    /// Sorted factory-defective slots.
    defects: ByTrack<u32>,
    /// Spare slots holding the LBNs the factory remapped: (slot, lbn),
    /// sorted by slot.
    targets: ByTrack<(u32, u64)>,
}

/// What grown defects wrote to one track, kept out of line: only a track
/// that [`DiskGeometry::add_grown_defect`] reached has an entry.
#[derive(Debug, Clone)]
struct GrownLists {
    /// Grown-defective slots (remapped after formatting); sorted.
    slots: Vec<u32>,
    /// Every remap target on the track, the factory's copied in when the
    /// entry was made: (slot, lbn), sorted by slot.
    targets: Vec<(u32, u64)>,
}

/// What a track stores of its own beside its start in
/// [`HotTables::first_lbns`]: its `angle0`, and its cylinder, head, zone
/// and grown-lists index packed into one word. Cylinder and head are
/// stored, not derived from the id, so building a [`Track`] never divides.
#[derive(Debug, Clone, Copy)]
struct TrackRow {
    /// Angle of physical slot 0, in revolutions, at spindle phase 0.
    angle0: f64,
    /// Cylinder in bits 0–23, head in 24–31, zone in 32–39, and in 40–63
    /// one past the index of the track's entry in [`DiskGeometry::grown`]
    /// (0 for none).
    packed: u64,
}

// A track's own bytes, its start and its row, stay within 24.
const _: () = assert!(std::mem::size_of::<u64>() + std::mem::size_of::<TrackRow>() <= 24);

/// The widths of [`TrackRow::packed`]'s fields: a spec beyond them is
/// [`GeometryError::TooLarge`].
const HEADS: u32 = 1 << 8;
const ZONES: usize = 1 << 8;
const TRACKS: u64 = 1 << 24;

impl TrackRow {
    fn new(angle0: f64, cyl: u32, head: u32, zone: usize) -> Self {
        let packed = u64::from(cyl) | u64::from(head) << 24 | (zone as u64) << 32;
        TrackRow { angle0, packed }
    }

    fn cyl(self) -> u32 {
        (self.packed & 0xFF_FFFF) as u32
    }

    fn head(self) -> u32 {
        (self.packed >> 24 & 0xFF) as u32
    }

    fn zone(self) -> usize {
        (self.packed >> 32 & 0xFF) as usize
    }

    fn grown(self) -> usize {
        (self.packed >> 40) as usize
    }
}

/// What every track of one zone shares.
#[derive(Debug, Clone)]
struct ZoneSlots {
    spt: u32,
    /// `1.0 / spt`.
    inv_spt: f64,
    /// `slot_frac[s] = s / spt`.
    slot_frac: Arc<[f64]>,
}

/// Error building or mutating a [`DiskGeometry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeometryError {
    /// The spec has zero surfaces.
    NoSurfaces,
    /// The spec has no zones (or a zone with no cylinders).
    NoZones,
    /// A zone declares zero sectors per track.
    EmptyTrack,
    /// A defect location lies outside the disk.
    DefectOutOfRange(DefectLocation),
    /// The spare scheme cannot absorb the defects in some slip domain.
    InsufficientSpare {
        /// First track of the domain that overflowed.
        domain_first_track: u32,
    },
    /// An LBN passed to a mutation is beyond the disk capacity.
    LbnOutOfRange(u64),
    /// No free spare slot was found for a grown defect.
    NoSpareForGrownDefect(u64),
    /// The spare scheme reserves every sector; the disk would expose no
    /// LBNs at all.
    ZeroCapacity,
    /// The spec has more than 256 surfaces, more than 256 zones, or
    /// 2^24 tracks or more: beyond what a track's packed row holds.
    TooLarge,
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::NoSurfaces => write!(f, "disk must have at least one surface"),
            GeometryError::NoZones => write!(f, "disk must have at least one non-empty zone"),
            GeometryError::EmptyTrack => write!(f, "zone declares zero sectors per track"),
            GeometryError::DefectOutOfRange(d) => {
                write!(f, "defect at c{}/h{}/s{} lies outside the disk", d.cyl, d.head, d.slot)
            }
            GeometryError::InsufficientSpare { domain_first_track } => write!(
                f,
                "spare scheme cannot absorb defects in the domain starting at track {domain_first_track}"
            ),
            GeometryError::LbnOutOfRange(lbn) => write!(f, "lbn {lbn} is beyond disk capacity"),
            GeometryError::NoSpareForGrownDefect(lbn) => {
                write!(f, "no free spare slot available to remap grown defect at lbn {lbn}")
            }
            GeometryError::ZeroCapacity => {
                write!(f, "spare scheme reserves the entire disk; no LBNs remain")
            }
            GeometryError::TooLarge => write!(
                f,
                "disk exceeds 256 surfaces, 256 zones or 2^24 - 1 tracks"
            ),
        }
    }
}

impl Error for GeometryError {}

/// Flat structure-of-arrays translation tables, rebuilt alongside the
/// per-track map. LBN→track translation is the hottest operation in the
/// engine; looking a dense `u64` array up keeps the whole path in a few
/// cache lines, and zones whose tracks all map exactly `spt` LBNs skip the
/// lookup entirely with one divide. `first_lbns` is also the only copy of
/// the track starts: a [`Track`]'s first LBN and LBN count are read off it.
/// When every track maps LBNs, it and `dir` are the drive's boundary
/// table's own arrays; a spare scheme that leaves tracks empty repeats
/// their starts, which a boundary table refuses, so that drive indexes a
/// table of its own.
///
/// Each arm stays because a workload sees it (DESIGN.md §5's table). The
/// divide and [`last_le`] over the zone starts: one `partition_point` over
/// `first_lbns` in their place costs `disk_replay` 19 % of its host rate
/// (2.13 M → 1.73 M requests per host second, 10 of 10 alternating pairs;
/// 68 % of its lookups take the divide). The [`LbnDirectory`] for every
/// other zone: a drive with spare sectors has no uniform zone, and a
/// branch-free search of its ≈ 52 000 `first_lbns` was a dependent chain of
/// cache misses on every member command of `serve_raid5`.
#[derive(Debug, Clone)]
struct HotTables {
    /// `first_lbns[t]` is the first LBN of track `t`; the final entry is the
    /// disk capacity, so `first_lbns[t + 1]` always bounds track `t`'s range.
    first_lbns: Arc<[u64]>,
    /// Per-zone first LBN (equal to the zone's first track's first LBN).
    zone_first_lbn: Vec<u64>,
    /// Per-zone first track id.
    zone_first_track: Vec<u32>,
    /// Per-zone sectors per track, widened for the division below.
    zone_spt: Vec<u64>,
    /// Whether every track in the zone maps exactly `spt` LBNs (no defects,
    /// no spare slots, no reserved tracks) — the common case for the
    /// pristine drive presets — enabling `track = first + offset / spt`.
    zone_uniform: Vec<bool>,
    /// Over `first_lbns`, for the zones that are not uniform; a drive whose
    /// zones all are never asks.
    dir: Option<LbnDirectory>,
}

impl HotTables {
    /// Over `table`: the track starts (one a track, then the capacity) and
    /// the directory over them.
    fn build(table: (Arc<[u64]>, LbnDirectory), zones: &[ZoneInfo], surfaces: u32) -> Self {
        let (first_lbns, dir) = table;
        let mut zone_first_lbn = Vec::with_capacity(zones.len());
        let mut zone_first_track = Vec::with_capacity(zones.len());
        let mut zone_spt = Vec::with_capacity(zones.len());
        let mut zone_uniform = Vec::with_capacity(zones.len());
        for z in zones {
            let first_track = z.first_cyl * surfaces;
            let track_count = (z.cylinders * surfaces) as usize;
            let starts = &first_lbns[first_track as usize..=first_track as usize + track_count];
            zone_first_lbn.push(z.first_lbn);
            zone_first_track.push(first_track);
            zone_spt.push(u64::from(z.spt));
            zone_uniform.push(starts.windows(2).all(|w| w[1] - w[0] == u64::from(z.spt)));
        }
        HotTables {
            first_lbns,
            zone_first_lbn,
            zone_first_track,
            zone_spt,
            dir: (zone_uniform.iter().any(|u| !u)).then_some(dir),
            zone_uniform,
        }
    }
}

/// Last index `i` with `table[i] <= lbn`, assuming `table[0] <= lbn` and
/// `table` is non-decreasing. Branch-free binary search: the halving step
/// uses an arithmetic select instead of a data-dependent branch, which on
/// random lookups (every cache-missing request) avoids a mispredict per
/// level.
#[inline]
fn last_le(table: &[u64], lbn: u64) -> usize {
    debug_assert!(!table.is_empty() && table[0] <= lbn);
    let mut i = 0usize;
    let mut len = table.len();
    while len > 1 {
        let half = len / 2;
        i += usize::from(table[i + half] <= lbn) * half;
        len -= half;
    }
    i
}

/// A fully built disk layout with O(log n) translation in both directions.
///
/// A track's state is flat: its start in `HotTables::first_lbns`, one
/// `TrackRow`, the `ZoneSlots` of its zone, its factory lists in
/// `FactoryLists`, and an entry in the grown side table once a grown defect
/// reaches it. The tables are shared, so a clone costs O(1) in them;
/// [`DiskGeometry::add_grown_defect`], the one mutator, copies a shared
/// table the first time it writes to it, and only the tables it writes.
#[derive(Debug, Clone)]
pub struct DiskGeometry {
    spec: GeometrySpec,
    rows: Arc<[TrackRow]>,
    zone_slots: Arc<[ZoneSlots]>,
    factory: Arc<FactoryLists>,
    /// The entries of the tracks a grown defect reached, in the order they
    /// were made.
    grown: Arc<Vec<GrownLists>>,
    zones: Vec<ZoneInfo>,
    capacity: u64,
    /// Remapped LBNs (factory remap policy and grown defects): lbn → spare
    /// location.
    remaps: BTreeMap<u64, Pba>,
    /// Flat SoA translation tables (see [`HotTables`]).
    hot: HotTables,
    /// The starts of the tracks that map LBNs: fixed at build time, since a
    /// grown defect remaps one LBN and moves no track start. When every
    /// track maps LBNs, `hot` reads its arrays.
    boundaries: TrackBoundaries,
}

impl DiskGeometry {
    /// The spec this geometry was built from.
    pub fn spec(&self) -> &GeometrySpec {
        &self.spec
    }

    /// Number of media surfaces.
    pub fn surfaces(&self) -> u32 {
        self.spec.surfaces
    }

    /// Number of cylinders.
    pub fn cylinders(&self) -> u32 {
        self.spec.cylinders()
    }

    /// Total number of LBNs the disk exposes.
    pub fn capacity_lbns(&self) -> u64 {
        self.capacity
    }

    /// Number of tracks (surfaces × cylinders).
    pub fn num_tracks(&self) -> u32 {
        self.rows.len() as u32
    }

    /// The zones of the disk, outermost first.
    pub fn zones(&self) -> &[ZoneInfo] {
        &self.zones
    }

    /// Access a track by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    // The drive builds a view per visit in `plan_visits` and again in
    // `run_visits`; left out of line, the call cost `dixtrac_extract` ≈ 3 %
    // of its samples.
    #[inline(always)]
    pub fn track(&self, id: u32) -> Track<'_> {
        let i = id as usize;
        let row = self.rows[i];
        // One bounds check for both neighbours.
        let starts = &self.hot.first_lbns[i..i + 2];
        let zone = &self.zone_slots[row.zone()];
        Track {
            id,
            first_lbn: starts[0],
            count: (starts[1] - starts[0]) as u32,
            cyl: row.cyl(),
            head: row.head(),
            spt: zone.spt,
            angle0: row.angle0,
            inv_spt: zone.inv_spt,
            slot_frac: &zone.slot_frac,
            factory: &self.factory,
            grown: row.grown().checked_sub(1).map(|k| &self.grown[k]),
        }
    }

    /// The first LBN of every track that maps LBNs (spare tracks hold
    /// none), in ascending order: the drive's ground-truth track
    /// boundaries.
    pub fn track_starts(&self) -> impl Iterator<Item = u64> + '_ {
        (self.hot.first_lbns.windows(2))
            .filter(|w| w[0] < w[1])
            .map(|w| w[0])
    }

    /// [`DiskGeometry::track_starts`] as a boundary table, built once.
    pub(crate) fn track_boundaries(&self) -> &TrackBoundaries {
        &self.boundaries
    }

    /// The track starts of zone `zone` from which `len` sectors still end
    /// inside the zone: where a track-aligned request of that size may
    /// begin. Never empty — the zone's first track always qualifies.
    ///
    /// # Panics
    ///
    /// Panics if `zone` is out of range, or unless `0 < len <
    /// lbn_count` of the zone: a request as long as its zone has one
    /// placement, so there is nothing to draw.
    pub fn track_starts_fitting(&self, zone: usize, len: u64) -> Vec<u64> {
        assert!(zone < self.zones.len(), "zone {zone} out of range");
        let z = self.zones[zone];
        assert!(
            len > 0 && len < z.lbn_count,
            "request of {len} sectors must be shorter than zone {zone} ({} LBNs)",
            z.lbn_count
        );
        let zone_end = z.first_lbn + z.lbn_count;
        self.track_starts()
            .filter(|&s| s >= z.first_lbn && s + len <= zone_end)
            .collect()
    }

    /// The track holding `lbn`.
    ///
    /// Because a track can hold zero LBNs (spare tracks), the returned track
    /// is the unique one whose `[first_lbn, end_lbn)` range contains `lbn`.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::LbnOutOfRange`] if `lbn` is beyond capacity.
    pub fn track_of_lbn(&self, lbn: u64) -> Result<TrackId, GeometryError> {
        if lbn >= self.capacity {
            return Err(GeometryError::LbnOutOfRange(lbn));
        }
        // Zone lookup over the flat per-zone table (a handful of entries):
        // the last zone whose first LBN is ≤ lbn holds it.
        let zi = last_le(&self.hot.zone_first_lbn, lbn);
        let idx = match &self.hot.dir {
            // The last track whose first LBN is ≤ lbn. Empty (spare)
            // tracks share their first LBN with their successor and so are
            // never the last such track for an in-range lbn.
            Some(dir) if !self.hot.zone_uniform[zi] => dir.last_le(&self.hot.first_lbns, lbn),
            // Every track in the zone maps exactly spt LBNs: one divide.
            _ => {
                self.hot.zone_first_track[zi] as usize
                    + ((lbn - self.hot.zone_first_lbn[zi]) / self.hot.zone_spt[zi]) as usize
            }
        };
        debug_assert!(
            self.hot.first_lbns[idx] <= lbn && lbn < self.hot.first_lbns[idx + 1],
            "lbn {lbn} not on resolved track {idx}"
        );
        Ok(TrackId(idx as u32))
    }

    /// The `[first_lbn, end_lbn)` range of the track holding `lbn` — the
    /// "track boundaries" the whole paper is about.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::LbnOutOfRange`] if `lbn` is beyond capacity.
    pub fn track_bounds(&self, lbn: u64) -> Result<(u64, u64), GeometryError> {
        let t = self.track_of_lbn(lbn)?.0 as usize;
        Ok((self.hot.first_lbns[t], self.hot.first_lbns[t + 1]))
    }

    /// Translates an LBN to its physical location, following remaps.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::LbnOutOfRange`] if `lbn` is beyond capacity.
    pub fn lbn_to_pba(&self, lbn: u64) -> Result<Pba, GeometryError> {
        if let Some(&pba) = self.remaps.get(&lbn) {
            return Ok(pba);
        }
        let t = self.track(self.track_of_lbn(lbn)?.0);
        let logical = (lbn - t.first_lbn) as u32;
        Ok(Pba::new(t.cyl, t.head, self.slot_of_logical(&t, logical)))
    }

    /// The physical slot holding the `logical`-th LBN of a track.
    pub(crate) fn slot_of_logical(&self, t: &Track, logical: u32) -> u32 {
        match self.spec.policy {
            DefectPolicy::Slip => {
                // LBNs occupy the first `count` non-defective slots.
                let mut slot = logical;
                for &d in t.defect_slots() {
                    if d <= slot {
                        slot += 1;
                    } else {
                        break;
                    }
                }
                slot
            }
            // Under remapping the nominal mapping ignores defects (the
            // affected LBNs were redirected via `remaps`).
            DefectPolicy::Remap => logical,
        }
    }

    /// Translates a physical location back to the LBN stored there, if any.
    ///
    /// Returns `None` for defective slots, spare slots not holding remapped
    /// data, and reserved tracks. Out-of-range locations also yield `None`.
    pub fn pba_to_lbn(&self, pba: Pba) -> Option<u64> {
        if pba.head >= self.spec.surfaces || pba.cyl >= self.cylinders() {
            return None;
        }
        let t = self.track(pba.cyl * self.spec.surfaces + pba.head);
        if pba.slot >= t.spt {
            return None;
        }
        let targets = t.remap_targets();
        if let Ok(i) = targets.binary_search_by_key(&pba.slot, |&(s, _)| s) {
            return Some(targets[i].1);
        }
        if t.is_defective_slot(pba.slot) {
            return None;
        }
        let logical = match self.spec.policy {
            DefectPolicy::Slip => {
                let before = t.defect_slots().partition_point(|&d| d < pba.slot) as u32;
                pba.slot - before
            }
            DefectPolicy::Remap => pba.slot,
        };
        if logical < t.count {
            Some(t.first_lbn + u64::from(logical))
        } else {
            None
        }
    }

    /// The track id for a (cylinder, head) pair.
    pub fn track_at(&self, cyl: u32, head: u32) -> Option<TrackId> {
        if cyl < self.cylinders() && head < self.spec.surfaces {
            Some(TrackId(cyl * self.spec.surfaces + head))
        } else {
            None
        }
    }

    /// Whether an LBN has been remapped (factory or grown).
    pub fn is_remapped(&self, lbn: u64) -> bool {
        !self.remaps.is_empty() && self.remaps.contains_key(&lbn)
    }

    /// The smallest remapped LBN in `[start, end)`, if any — an O(log n)
    /// range probe used by the drive model when splitting requests into
    /// same-track runs.
    pub fn first_remap_in(&self, start: u64, end: u64) -> Option<u64> {
        if self.remaps.is_empty() {
            return None;
        }
        self.remaps.range(start..end).next().map(|(&l, _)| l)
    }

    /// The factory defect list, as a sorted vector (the simulator's
    /// READ DEFECT LIST ground truth).
    pub fn defect_list(&self) -> Vec<DefectLocation> {
        let mut v = self.spec.defects.clone();
        v.sort();
        v.dedup();
        v
    }

    /// Marks the sector currently holding `lbn` as a grown defect and remaps
    /// the LBN to a free spare slot, leaving all other mappings untouched
    /// (this is how drives handle defects that appear in the field, §3.1).
    ///
    /// # Errors
    ///
    /// Returns an error if `lbn` is out of range or no spare slot is free.
    pub fn add_grown_defect(&mut self, lbn: u64) -> Result<Pba, GeometryError> {
        let old = self.lbn_to_pba(lbn)?;
        let spare = self
            .find_free_spare_slot()
            .ok_or(GeometryError::NoSpareForGrownDefect(lbn))?;
        // Mark the old physical slot defective.
        let grown = &mut self
            .grown_mut(old.cyl * self.spec.surfaces + old.head)
            .slots;
        if let Err(pos) = grown.binary_search(&old.slot) {
            grown.insert(pos, old.slot);
        }
        // Record the redirect on the spare's track for pba_to_lbn.
        let targets = &mut self
            .grown_mut(spare.cyl * self.spec.surfaces + spare.head)
            .targets;
        let pos = targets.partition_point(|&(s, _)| s < spare.slot);
        targets.insert(pos, (spare.slot, lbn));
        self.remaps.insert(lbn, spare);
        debug_assert_eq!(
            Ok(self.boundaries.track_bounds(lbn)),
            self.track_bounds(lbn),
            "a grown defect moves no track start"
        );
        Ok(spare)
    }

    /// Track `tid`'s grown entry, to write: a track with none gets one,
    /// holding a copy of its factory remap targets. Copies the grown table
    /// if it is shared, and the rows too if the entry is new.
    fn grown_mut(&mut self, tid: u32) -> &mut GrownLists {
        let mut k = self.rows[tid as usize].grown();
        if k == 0 {
            let targets = self.factory.targets.of(tid as usize).to_vec();
            Arc::make_mut(&mut self.grown).push(GrownLists {
                slots: Vec::new(),
                targets,
            });
            k = self.grown.len();
            // The row's grown field was 0.
            Arc::make_mut(&mut self.rows)[tid as usize].packed |= (k as u64) << 40;
        }
        &mut Arc::make_mut(&mut self.grown)[k - 1]
    }

    /// Finds a spare slot holding no LBN and no remap target, scanning from
    /// the end of the disk (where every spare scheme leaves room).
    fn find_free_spare_slot(&self) -> Option<Pba> {
        for t in (0..self.num_tracks()).rev().map(|id| self.track(id)) {
            // Candidate slots: those beyond the mapped region, which ends
            // at the slot of the last logical sector (0 for an empty track).
            let mapped = t
                .count
                .checked_sub(1)
                .map_or(0, |last| self.slot_of_logical(&t, last) + 1);
            for slot in (mapped..t.spt).rev() {
                let taken = (t.remap_targets())
                    .binary_search_by_key(&slot, |&(s, _)| s)
                    .is_ok();
                if !taken && !t.is_defective_slot(slot) {
                    return Some(Pba::new(t.cyl, t.head, slot));
                }
            }
        }
        None
    }
}

/// Values binned by track: track `t`'s are `values[offsets[t]..offsets[t + 1]]`,
/// and a drive with none keeps no offsets.
#[derive(Debug)]
struct ByTrack<T> {
    offsets: Vec<u32>,
    values: Vec<T>,
}

impl<T> ByTrack<T> {
    /// Bins `(track, value)` pairs sorted by track, keeping their order
    /// within a track.
    fn new(tracks: u32, pairs: Vec<(u32, T)>) -> Self {
        let mut offsets = Vec::new();
        if !pairs.is_empty() {
            offsets = vec![0; tracks as usize + 1];
            for &(t, _) in &pairs {
                offsets[t as usize + 1] += 1;
            }
            for t in 0..tracks as usize {
                offsets[t + 1] += offsets[t];
            }
        }
        let values = pairs.into_iter().map(|(_, v)| v).collect();
        ByTrack { offsets, values }
    }

    /// Track `t`'s values.
    fn of(&self, t: usize) -> &[T] {
        match self.offsets.get(t..t + 2) {
            Some(&[from, to]) => &self.values[from as usize..to as usize],
            _ => &[],
        }
    }
}

fn build_geometry(spec: GeometrySpec) -> Result<DiskGeometry, GeometryError> {
    if spec.surfaces == 0 {
        return Err(GeometryError::NoSurfaces);
    }
    if spec.zones.is_empty() || spec.zones.iter().any(|z| z.cylinders == 0) {
        return Err(GeometryError::NoZones);
    }
    if spec.zones.iter().any(|z| z.spt == 0) {
        return Err(GeometryError::EmptyTrack);
    }

    let total_cyls: u64 = spec.zones.iter().map(|z| u64::from(z.cylinders)).sum();
    if spec.surfaces > HEADS
        || spec.zones.len() > ZONES
        || total_cyls * u64::from(spec.surfaces) >= TRACKS
    {
        return Err(GeometryError::TooLarge);
    }
    let surfaces = spec.surfaces;
    let total_cyls = total_cyls as u32;
    let total_tracks = total_cyls * surfaces;

    // Validate defects and bin them per track.
    let defects = {
        let mut pairs = Vec::with_capacity(spec.defects.len());
        let mut zone_starts = Vec::with_capacity(spec.zones.len());
        let mut acc = 0;
        for z in &spec.zones {
            zone_starts.push(acc);
            acc += z.cylinders;
        }
        for d in &spec.defects {
            if d.cyl >= total_cyls || d.head >= surfaces {
                return Err(GeometryError::DefectOutOfRange(*d));
            }
            let zi = zone_starts.partition_point(|&c| c <= d.cyl) - 1;
            if d.slot >= spec.zones[zi].spt {
                return Err(GeometryError::DefectOutOfRange(*d));
            }
            pairs.push((d.cyl * surfaces + d.head, d.slot));
        }
        pairs.sort_unstable();
        pairs.dedup();
        ByTrack::new(total_tracks, pairs)
    };

    // Per-track static metadata pass.
    struct Meta {
        cyl: u32,
        head: u32,
        zone: u32,
        spt: u32,
        reserved: u32,
        angle0: f64,
    }
    let mut metas: Vec<Meta> = Vec::with_capacity(total_tracks as usize);
    {
        let mut angle: f64 = 0.0;
        let mut cyl = 0u32;
        for (zi, z) in spec.zones.iter().enumerate() {
            for zc in 0..z.cylinders {
                for head in 0..surfaces {
                    let track_in_zone = zc * surfaces + head;
                    let tracks_in_zone = z.cylinders * surfaces;
                    let tracks_from_zone_end = tracks_in_zone - 1 - track_in_zone;
                    let global_tid = cyl * surfaces + head;
                    let tracks_from_disk_end = total_tracks - 1 - global_tid;
                    let reserved = spec.spare.reserved_slots_on_track(
                        head == surfaces - 1,
                        tracks_from_zone_end,
                        tracks_from_disk_end,
                        z.spt,
                    );
                    if !(cyl == 0 && head == 0) {
                        // Advance skew: head switch within a cylinder, or
                        // cylinder switch when head wraps to 0.
                        let skew_slots = if head == 0 { z.cyl_skew } else { z.track_skew };
                        angle = (angle + f64::from(skew_slots) / f64::from(z.spt)).fract();
                    }
                    metas.push(Meta {
                        cyl,
                        head,
                        zone: zi as u32,
                        spt: z.spt,
                        reserved,
                        angle0: angle,
                    });
                }
                cyl += 1;
            }
        }
    }

    // Group tracks into slip domains and assign LBNs.
    let domain = spec.spare.slip_domain();
    let domain_len = |first_track: usize| -> usize {
        match domain {
            SlipDomain::Track => 1,
            SlipDomain::Cylinder => surfaces as usize,
            SlipDomain::Zone => {
                let zi = metas[first_track].zone as usize;
                (spec.zones[zi].cylinders * surfaces) as usize
            }
            SlipDomain::Disk => total_tracks as usize,
        }
    };

    // What every track of a zone shares, once per zone.
    let zone_slots: Arc<[ZoneSlots]> = (spec.zones.iter())
        .map(|z| ZoneSlots {
            spt: z.spt,
            inv_spt: 1.0 / f64::from(z.spt),
            slot_frac: (0..z.spt)
                .map(|s| f64::from(s) / f64::from(z.spt))
                .collect(),
        })
        .collect();

    // The first LBN of each track, then the capacity.
    let mut first_lbns: Vec<u64> = Vec::with_capacity(total_tracks as usize + 1);
    let mut empty_track = false;
    let mut next_lbn: u64 = 0;
    let mut remaps: BTreeMap<u64, Pba> = BTreeMap::new();

    let mut i = 0usize;
    while i < total_tracks as usize {
        let dlen = domain_len(i);
        let dtracks = i..i + dlen;
        let capacity: u64 = dtracks
            .clone()
            .map(|t| u64::from(metas[t].spt - metas[t].reserved.min(metas[t].spt)))
            .sum();

        match spec.policy {
            DefectPolicy::Slip => {
                let mut remaining = capacity;
                for t in dtracks.clone() {
                    let avail = u64::from(metas[t].spt) - defects.of(t).len() as u64;
                    let take = remaining.min(avail) as u32;
                    remaining -= u64::from(take);
                    empty_track |= take == 0;
                    first_lbns.push(next_lbn);
                    next_lbn += u64::from(take);
                }
                if remaining > 0 {
                    return Err(GeometryError::InsufficientSpare {
                        domain_first_track: i as u32,
                    });
                }
            }
            DefectPolicy::Remap => {
                // Nominal assignment ignores defects; collect (a) LBNs landing
                // on defective slots and (b) spare slots, then pair them up.
                let mut remaining = capacity;
                let mut victims: Vec<u64> = Vec::new();
                let mut spares: Vec<Pba> = Vec::new();
                for t in dtracks.clone() {
                    let m = &metas[t];
                    let defs = defects.of(t);
                    let take = remaining.min(u64::from(m.spt)) as u32;
                    remaining -= u64::from(take);
                    empty_track |= take == 0;
                    for &d in defs {
                        if d < take {
                            victims.push(next_lbn + u64::from(d));
                        }
                    }
                    for slot in take..m.spt {
                        if defs.binary_search(&slot).is_err() {
                            spares.push(Pba::new(m.cyl, m.head, slot));
                        }
                    }
                    first_lbns.push(next_lbn);
                    next_lbn += u64::from(take);
                }
                if victims.len() > spares.len() {
                    return Err(GeometryError::InsufficientSpare {
                        domain_first_track: i as u32,
                    });
                }
                remaps.extend(victims.into_iter().zip(spares));
            }
        }
        i += dlen;
    }

    // The spares holding remapped LBNs, by track. Each domain paired its
    // victims and spares in ascending order, so LBN order (kept by the
    // stable sort) puts each track's targets in slot order.
    let mut targets: Vec<(u32, (u32, u64))> = (remaps.iter())
        .map(|(&lbn, pba)| (pba.cyl * surfaces + pba.head, (pba.slot, lbn)))
        .collect();
    targets.sort_by_key(|&(tid, _)| tid);
    let factory = FactoryLists {
        defects,
        targets: ByTrack::new(total_tracks, targets),
    };
    let rows: Arc<[TrackRow]> = (metas.iter())
        .map(|m| TrackRow::new(m.angle0, m.cyl, m.head, m.zone as usize))
        .collect();
    first_lbns.push(next_lbn);

    // Zone summary.
    let mut zones = Vec::with_capacity(spec.zones.len());
    {
        let mut cyl = 0u32;
        for z in &spec.zones {
            let first_track = (cyl * surfaces) as usize;
            let end_track = ((cyl + z.cylinders) * surfaces) as usize;
            let first_lbn = first_lbns[first_track];
            zones.push(ZoneInfo {
                first_cyl: cyl,
                cylinders: z.cylinders,
                spt: z.spt,
                first_lbn,
                lbn_count: first_lbns[end_track] - first_lbn,
            });
            cyl += z.cylinders;
        }
    }

    if next_lbn == 0 {
        return Err(GeometryError::ZeroCapacity);
    }
    // An empty track repeats its successor's start, which the boundary
    // table leaves out: such a drive keeps its own table, and any other
    // shares the boundary table's.
    let own: Option<Arc<[u64]>> = empty_track.then(|| first_lbns.as_slice().into());
    first_lbns.dedup();
    first_lbns.pop();
    #[expect(
        clippy::expect_used,
        reason = "without repeats, the starts of the tracks that map LBNs begin at 0 and \
                  rise strictly below next_lbn; geometry_props checks the table"
    )]
    let boundaries =
        TrackBoundaries::new(first_lbns, next_lbn).expect("the mapped tracks tile the LBN space");
    let table = match own {
        Some(own) => (Arc::clone(&own), LbnDirectory::new(&own)),
        None => boundaries.shared_parts(),
    };
    let hot = HotTables::build(table, &zones, surfaces);
    Ok(DiskGeometry {
        spec,
        rows,
        zone_slots,
        factory: Arc::new(factory),
        grown: Arc::new(Vec::new()),
        zones,
        capacity: next_lbn,
        remaps,
        hot,
        boundaries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unskewed(cylinders: u32, spt: u32) -> ZoneSpec {
        ZoneSpec {
            cylinders,
            spt,
            track_skew: 0,
            cyl_skew: 0,
        }
    }

    fn simple_spec() -> GeometrySpec {
        // The Figure 2(b) disk: 200 sectors/track, 2 surfaces, skew 20.
        GeometrySpec::pristine(
            2,
            vec![ZoneSpec {
                cylinders: 10,
                spt: 200,
                track_skew: 20,
                cyl_skew: 40,
            }],
        )
    }

    #[test]
    fn figure2_mapping_without_defects() {
        let g = simple_spec().build().unwrap();
        assert_eq!(g.capacity_lbns(), 10 * 2 * 200);
        assert_eq!(g.lbn_to_pba(0).unwrap(), Pba::new(0, 0, 0));
        assert_eq!(g.lbn_to_pba(199).unwrap(), Pba::new(0, 0, 199));
        assert_eq!(g.lbn_to_pba(200).unwrap(), Pba::new(0, 1, 0));
        assert_eq!(g.lbn_to_pba(400).unwrap(), Pba::new(1, 0, 0));
        assert_eq!(g.track_bounds(250).unwrap(), (200, 400));
    }

    #[test]
    fn figure2_slipped_defect_shifts_following_lbns() {
        // Defect between LBNs 580 and 581 in the paper's figure: with
        // per-track slipping on a disk with one spare slot per track.
        let mut spec = simple_spec();
        spec.spare = SpareScheme::SectorsPerTrack(1);
        // Track c1/h0 holds LBNs starting at 2*199*... with 199 per track:
        // tracks hold 199 LBNs each now.
        spec.defects = vec![DefectLocation::new(1, 0, 100)];
        let g = spec.build().unwrap();
        // Tracks hold 199 LBNs each; track 2 (c1/h0) starts at 398.
        assert_eq!(g.track_bounds(398).unwrap(), (398, 597));
        // LBN 398+99 = 497 sits at slot 99; the next LBN slips past slot 100.
        assert_eq!(g.lbn_to_pba(497).unwrap(), Pba::new(1, 0, 99));
        assert_eq!(g.lbn_to_pba(498).unwrap(), Pba::new(1, 0, 101));
        // Defective slot holds nothing.
        assert_eq!(g.pba_to_lbn(Pba::new(1, 0, 100)), None);
        // Round-trip everything.
        for lbn in 0..g.capacity_lbns() {
            let pba = g.lbn_to_pba(lbn).unwrap();
            assert_eq!(g.pba_to_lbn(pba), Some(lbn), "lbn {lbn}");
        }
    }

    #[test]
    fn remap_policy_keeps_nominal_mapping() {
        let mut spec = simple_spec();
        spec.spare = SpareScheme::SectorsPerTrack(2);
        spec.policy = DefectPolicy::Remap;
        spec.defects = vec![DefectLocation::new(0, 0, 5)];
        let g = spec.build().unwrap();
        // Tracks hold 198 LBNs. LBN 5 would sit on the defective slot; it is
        // remapped to a spare slot on the same track.
        assert!(g.is_remapped(5));
        let pba = g.lbn_to_pba(5).unwrap();
        assert_eq!((pba.cyl, pba.head), (0, 0));
        assert!(
            pba.slot >= 198,
            "remap target should be a spare slot, got {}",
            pba.slot
        );
        // Neighbours unaffected.
        assert_eq!(g.lbn_to_pba(4).unwrap(), Pba::new(0, 0, 4));
        assert_eq!(g.lbn_to_pba(6).unwrap(), Pba::new(0, 0, 6));
        // Reverse lookup from the spare slot finds the remapped LBN.
        assert_eq!(g.pba_to_lbn(pba), Some(5));
        assert_eq!(g.pba_to_lbn(Pba::new(0, 0, 5)), None);
    }

    #[test]
    fn cylinder_spares_allow_slips_across_tracks() {
        let mut spec = simple_spec();
        spec.spare = SpareScheme::SectorsPerCylinder(4);
        spec.defects = vec![DefectLocation::new(0, 0, 0), DefectLocation::new(0, 0, 1)];
        let g = spec.build().unwrap();
        // Cylinder capacity = 2*200 - 4 = 396. Track c0/h0 has 2 defects so
        // holds 198; c0/h1 holds 198.
        let t0 = g.track(0);
        assert_eq!(t0.lbn_count(), 198);
        assert_eq!(g.lbn_to_pba(0).unwrap(), Pba::new(0, 0, 2));
        let t1 = g.track(1);
        assert_eq!(t1.first_lbn(), 198);
        assert_eq!(t1.lbn_count(), 198);
        assert_eq!(g.capacity_lbns(), 10 * 396);
        for lbn in 0..g.capacity_lbns() {
            let pba = g.lbn_to_pba(lbn).unwrap();
            assert_eq!(g.pba_to_lbn(pba), Some(lbn), "lbn {lbn}");
        }
    }

    #[test]
    fn zone_spare_tracks_absorb_slips() {
        let mut spec = simple_spec();
        spec.spare = SpareScheme::TracksPerZone(1);
        spec.defects = vec![DefectLocation::new(0, 0, 10)];
        let g = spec.build().unwrap();
        // Zone capacity = (20-1)*200 = 3800.
        assert_eq!(g.capacity_lbns(), 3800);
        // First track holds 199 (one defect), following tracks 200 each; the
        // tail spills one LBN into the reserved track.
        assert_eq!(g.track(0).lbn_count(), 199);
        assert_eq!(g.track(1).lbn_count(), 200);
        let last = g.track(g.num_tracks() - 1);
        assert_eq!(
            last.lbn_count(),
            1,
            "one slipped LBN lands on the spare track"
        );
        for lbn in 0..g.capacity_lbns() {
            let pba = g.lbn_to_pba(lbn).unwrap();
            assert_eq!(g.pba_to_lbn(pba), Some(lbn), "lbn {lbn}");
        }
    }

    #[test]
    fn insufficient_spare_is_an_error() {
        let mut spec = simple_spec();
        spec.spare = SpareScheme::SectorsPerTrack(1);
        spec.defects = vec![DefectLocation::new(0, 0, 0), DefectLocation::new(0, 0, 1)];
        assert_eq!(
            spec.build().unwrap_err(),
            GeometryError::InsufficientSpare {
                domain_first_track: 0
            }
        );
    }

    #[test]
    fn defect_out_of_range_is_an_error() {
        let mut spec = simple_spec();
        spec.defects = vec![DefectLocation::new(0, 0, 200)];
        assert!(matches!(
            spec.build().unwrap_err(),
            GeometryError::DefectOutOfRange(_)
        ));
    }

    #[test]
    fn degenerate_specs_are_errors() {
        assert_eq!(
            GeometrySpec::pristine(0, vec![unskewed(1, 10)])
                .build()
                .unwrap_err(),
            GeometryError::NoSurfaces
        );
        assert_eq!(
            GeometrySpec::pristine(1, vec![]).build().unwrap_err(),
            GeometryError::NoZones
        );
        assert_eq!(
            GeometrySpec::pristine(1, vec![unskewed(1, 0)])
                .build()
                .unwrap_err(),
            GeometryError::EmptyTrack
        );
    }

    #[test]
    fn multi_zone_boundaries_and_lookup() {
        let spec = GeometrySpec::pristine(2, vec![unskewed(5, 100), unskewed(5, 80)]);
        let g = spec.build().unwrap();
        assert_eq!(g.zones().len(), 2);
        assert_eq!(g.zones()[0].lbn_count, 5 * 2 * 100);
        assert_eq!(g.zones()[1].first_lbn, 1000);
        assert_eq!((g.zones()[0].spt, g.zones()[1].spt), (100, 80));
        // Track sizes change at the zone boundary.
        assert_eq!(g.track_bounds(999).unwrap(), (900, 1000));
        assert_eq!(g.track_bounds(1000).unwrap(), (1000, 1080));
    }

    #[test]
    fn skew_advances_slot_zero_angle() {
        let g = simple_spec().build().unwrap();
        let t0 = g.track(0);
        let t1 = g.track(1); // head switch: +20 slots of 200
        let t2 = g.track(2); // cylinder switch: +40 slots
        assert!((t0.slot_angle(0) - 0.0).abs() < 1e-12);
        assert!((t1.slot_angle(0) - 0.1).abs() < 1e-12);
        assert!((t2.slot_angle(0) - 0.3).abs() < 1e-12);
        // Slot angles advance by 1/spt.
        assert!((t0.slot_angle(50) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn grown_defect_remaps_single_lbn() {
        let mut spec = simple_spec();
        spec.spare = SpareScheme::SectorsPerTrack(1);
        let mut g = spec.build().unwrap();
        let before_neighbors = (g.lbn_to_pba(41).unwrap(), g.lbn_to_pba(43).unwrap());
        let old = g.lbn_to_pba(42).unwrap();
        let spare = g.add_grown_defect(42).unwrap();
        assert_ne!(spare, old);
        assert_eq!(g.lbn_to_pba(42).unwrap(), spare);
        assert_eq!(g.pba_to_lbn(spare), Some(42));
        assert_eq!(g.pba_to_lbn(old), None);
        // Neighbours untouched: boundaries did not change.
        assert_eq!(g.lbn_to_pba(41).unwrap(), before_neighbors.0);
        assert_eq!(g.lbn_to_pba(43).unwrap(), before_neighbors.1);
    }

    /// Whether the drive's lookups read its boundary table's starts.
    fn one_table(g: &DiskGeometry) -> bool {
        Arc::ptr_eq(&g.hot.first_lbns, &g.boundaries.shared_parts().0)
    }

    /// Two catalogued drives share one set of track tables, and a failed
    /// write copies nothing; a clone's first grown defect copies the tables
    /// it writes, its next one writes in place, and the tables no write
    /// reaches stay shared: the rows, while every written track already
    /// has a grown entry, and always the starts, the factory lists and the
    /// zone tables. A drive whose every track maps LBNs keeps one table of
    /// track starts, its boundary table's.
    #[test]
    fn clones_share_their_tables_until_a_grown_defect_writes() {
        let (atlas, mut again) = (
            crate::models::quantum_atlas_10k().geometry,
            crate::models::quantum_atlas_10k().geometry,
        );
        let shared = |a: &DiskGeometry, b: &DiskGeometry| {
            (
                Arc::ptr_eq(&a.rows, &b.rows),
                Arc::ptr_eq(&a.grown, &b.grown),
            )
        };
        assert_eq!(shared(&atlas, &again), (true, true));
        assert!(Arc::ptr_eq(&atlas.hot.first_lbns, &again.hot.first_lbns));
        assert!(
            again.add_grown_defect(0).is_err(),
            "a pristine drive has no spare"
        );
        assert_eq!(shared(&atlas, &again), (true, true));

        let mut spec = simple_spec();
        spec.spare = SpareScheme::SectorsPerCylinder(4);
        spec.defects = vec![DefectLocation::new(3, 0, 7)];
        let original = spec.build().unwrap();
        assert!(one_table(&atlas) && one_table(&original));
        let mut clone = original.clone();
        assert_eq!(shared(&original, &clone), (true, true));
        // Track 0 and the spare's track get their first grown entries.
        clone.add_grown_defect(42).unwrap();
        assert_eq!(shared(&original, &clone), (false, false));
        let private = (Arc::as_ptr(&clone.rows), Arc::as_ptr(&clone.grown));
        clone.add_grown_defect(43).unwrap();
        assert_eq!(
            (Arc::as_ptr(&clone.rows), Arc::as_ptr(&clone.grown)),
            private
        );
        // The same two tracks again: only the grown entries are written.
        let mut third = clone.clone();
        third.add_grown_defect(44).unwrap();
        assert_eq!(shared(&clone, &third), (true, false));
        assert!(Arc::ptr_eq(&original.hot.first_lbns, &third.hot.first_lbns));
        assert!(Arc::ptr_eq(&original.factory, &third.factory));
        assert!(Arc::ptr_eq(&original.zone_slots, &third.zone_slots));
        assert_eq!(original.boundaries, third.boundaries);
        assert!(!original.is_remapped(42) && clone.is_remapped(43) && !clone.is_remapped(44));
    }

    #[test]
    fn specs_beyond_the_packed_row_are_errors() {
        let one = |cylinders| unskewed(cylinders, 1);
        for spec in [
            GeometrySpec::pristine(257, vec![one(1)]),
            GeometrySpec::pristine(1, vec![one(1); 257]),
            GeometrySpec::pristine(2, vec![one(1 << 23)]),
        ] {
            assert_eq!(spec.build().unwrap_err(), GeometryError::TooLarge);
        }
        let widest = GeometrySpec::pristine(256, vec![one(1); 256])
            .build()
            .unwrap();
        let last = widest.track(widest.num_tracks() - 1);
        assert_eq!((last.cyl(), last.head()), (255, 255));
    }

    #[test]
    fn grown_defect_without_spare_space_fails() {
        let mut g = simple_spec().build().unwrap();
        assert!(matches!(
            g.add_grown_defect(0).unwrap_err(),
            GeometryError::NoSpareForGrownDefect(0)
        ));
    }

    /// `Track::slot_runs` against the `lbn_to_pba` slot of each LBN of
    /// every run the drive can plan (a track's LBNs cut at remaps, then
    /// trimmed) over both policies, two spare schemes, factory defects
    /// (half of them in adjacent pairs) and grown ones. The iterator is
    /// crate-private, so this oracle sits here, not in `geometry_props`.
    #[test]
    fn slot_runs_flatten_to_the_mapped_slots() {
        use proptest::prelude::*;
        let defects = prop::collection::vec((0u32..12, 0u32..4, 0u32..80, 0u32..2), 0..12);
        let grown = prop::collection::vec(0u64..u64::MAX, 0..6);
        let strategy = (1u32..4, 8u32..80, 0usize..4, defects, grown);
        let name = "slot_runs_flatten_to_the_mapped_slots";
        // No hole, one, adjacent ones, one beside the run's first or last
        // slot; a defective track under remapping; a run cut by a grown remap.
        let paths = ["no_hole", "one_hole", "adjacent", "edge", "remap", "grown"];
        let mut tally = Tally::default();
        for_cases(name, 256, strategy, |case| {
            let (surfaces, spt, scheme, defects, grown) = case;
            let mut spec = GeometrySpec::pristine(surfaces, vec![unskewed(12, spt)]);
            let spares = [
                SpareScheme::SectorsPerTrack(4),
                SpareScheme::SectorsPerCylinder(6),
            ];
            spec.spare = spares[scheme % 2];
            spec.policy = [DefectPolicy::Slip, DefectPolicy::Remap][scheme / 2];
            let holes = |(c, h, s, pair)| (s..=s + pair).map(move |s| (c, h % surfaces, s % spt));
            let holes = defects.into_iter().flat_map(holes);
            spec.defects = holes
                .map(|(c, h, s)| DefectLocation::new(c, h, s))
                .collect();
            let Ok(mut g) = spec.build() else { return };
            let cap = g.capacity_lbns();
            let grown: Vec<u64> = (grown.iter().map(|p| p % cap))
                .filter(|&lbn| g.add_grown_defect(lbn).is_ok())
                .collect();
            for t in (0..g.num_tracks()).map(|id| g.track(id)) {
                let mut lbn = t.first_lbn();
                while lbn < t.end_lbn() {
                    let end = g.first_remap_in(lbn, t.end_lbn()).unwrap_or(t.end_lbn());
                    let cut = grown.contains(&end) || grown.contains(&lbn.wrapping_sub(1));
                    let mid = (lbn + end) / 2;
                    for (a, b) in [(lbn, end), (lbn + 1, end), (mid, end.saturating_sub(1))] {
                        let want: Vec<u32> =
                            (a..b).map(|l| g.lbn_to_pba(l).unwrap().slot).collect();
                        let (Some(&first), Some(&last)) = (want.first(), want.last()) else {
                            continue;
                        };
                        let runs: Vec<(u32, u32)> = t.slot_runs(first, last).collect();
                        let got: Vec<u32> = runs.iter().flat_map(|&(s, n)| s..s + n).collect();
                        assert_eq!(got, want, "LBNs {a}..{b} on c{}/h{}", t.cyl, t.head);
                        // Maximal: no run is empty, a hole parts each from the next.
                        let parted = runs.windows(2).all(|w| w[0].0 + w[0].1 < w[1].0);
                        assert!(parted && runs.iter().all(|r| r.1 > 0), "{runs:?}");
                        let gaps = || want.windows(2).map(|w| w[1] - w[0] - 1);
                        let holes = last - first + 1 - want.len() as u32;
                        let edge = gaps().next() > Some(0) || gaps().next_back() > Some(0);
                        let defective = scheme >= 2 && !t.defect_slots().is_empty();
                        let adjacent = gaps().any(|gap| gap > 1);
                        let hits = [holes == 0, holes == 1, adjacent, edge, defective, cut];
                        for (path, hit) in paths.into_iter().zip(hits) {
                            tally.note_if(hit, path);
                        }
                    }
                    lbn = end + u64::from(end < t.end_lbn());
                }
            }
        });
        tally.require(name, &paths);
    }

    #[test]
    fn track_of_lbn_uniform_zone_fast_path_matches_search() {
        // Pristine multi-zone disk: every zone is uniform, so lookups take
        // the divide path. Cross-check against a linear scan.
        let spec = GeometrySpec::pristine(2, vec![unskewed(5, 100), unskewed(5, 80)]);
        let g = spec.build().unwrap();
        for lbn in 0..g.capacity_lbns() {
            let tid = g.track_of_lbn(lbn).unwrap();
            let t = g.track(tid.0);
            assert!(t.first_lbn() <= lbn && lbn < t.end_lbn(), "lbn {lbn}");
        }
    }

    #[test]
    fn track_of_lbn_defective_zone_uses_search_path() {
        // A defect makes one track shorter, so the zone is no longer
        // uniform and lookups must fall back to the binary search.
        let mut spec = simple_spec();
        spec.spare = SpareScheme::SectorsPerCylinder(4);
        spec.defects = vec![DefectLocation::new(3, 0, 7)];
        let g = spec.build().unwrap();
        for lbn in (0..g.capacity_lbns()).rev() {
            let tid = g.track_of_lbn(lbn).unwrap();
            let t = g.track(tid.0);
            assert!(t.first_lbn() <= lbn && lbn < t.end_lbn(), "lbn {lbn}");
        }
    }

    #[test]
    fn track_of_lbn_rejects_out_of_range() {
        let g = simple_spec().build().unwrap();
        let cap = g.capacity_lbns();
        assert!(matches!(
            g.track_of_lbn(cap),
            Err(GeometryError::LbnOutOfRange(_))
        ));
        assert!(g.track_of_lbn(cap - 1).is_ok());
    }

    #[test]
    fn track_hint_agrees_with_binary_search_on_any_pattern() {
        let g = simple_spec().build().unwrap();
        // A sequential sweep, jumps, then a backwards sweep: a lookup's
        // answer does not depend on the lookups before it.
        let cap = g.capacity_lbns();
        let pattern = (0..cap)
            .chain([cap - 1, 0, cap / 2, 1, cap / 2 + 1, cap - 2])
            .chain((0..cap).rev());
        for lbn in pattern {
            let t = g.track(g.track_of_lbn(lbn).unwrap().0);
            assert!(t.first_lbn() <= lbn && lbn < t.end_lbn(), "lbn {lbn}");
        }
    }

    #[test]
    fn track_hint_skips_empty_spare_tracks() {
        // Spare tracks hold no LBNs and share their first LBN with their
        // successor; a lookup must never return one.
        let mut spec = simple_spec();
        spec.spare = SpareScheme::TracksAtEnd(2);
        let g = spec.build().unwrap();
        for lbn in 0..g.capacity_lbns() {
            let t = g.track(g.track_of_lbn(lbn).unwrap().0);
            assert!(t.first_lbn() <= lbn && lbn < t.end_lbn(), "lbn {lbn}");
            assert!(t.lbn_count() > 0, "lbn {lbn} resolved to a spare track");
        }
    }

    #[test]
    fn first_remap_in_finds_range_minimum() {
        let mut spec = simple_spec();
        spec.spare = SpareScheme::SectorsPerTrack(2);
        spec.policy = DefectPolicy::Remap;
        spec.defects = vec![DefectLocation::new(0, 0, 5), DefectLocation::new(0, 0, 90)];
        let g = spec.build().unwrap();
        assert_eq!(g.first_remap_in(0, 200), Some(5));
        assert_eq!(g.first_remap_in(6, 200), Some(90));
        assert_eq!(g.first_remap_in(6, 90), None);
        assert_eq!(g.first_remap_in(91, g.capacity_lbns()), None);
    }

    #[test]
    fn end_of_disk_spare_tracks_reserved() {
        let mut spec = simple_spec();
        spec.spare = SpareScheme::TracksAtEnd(2);
        let g = spec.build().unwrap();
        assert_eq!(g.capacity_lbns(), (20 - 2) * 200);
        assert_eq!(g.track(18).lbn_count(), 0);
        assert_eq!(g.track(19).lbn_count(), 0);
        // Their starts repeat, so the lookups keep a table of their own.
        assert!(!one_table(&g));
        assert_eq!(g.hot.first_lbns.len(), 21);
    }
}
