//! Stripe-unit carving and the volume-wide logical address map.
//!
//! This module is pure: it turns per-member boundary maps into a
//! [`VolumeLayout`] without touching any [`sim_disk::disk::Disk`], so the
//! mapping invariants (bijectivity, alignment) are property-testable on
//! random heterogeneous geometries.

use crate::FleetError;
use std::ops::Range;
use traxtent::boundaries::ConfidentBoundaries;
use traxtent::Extent;

/// How stripe units are carved out of a member drive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StripePolicy {
    /// Track-aligned stripe units: every track whose extraction confidence
    /// is at least `threshold` becomes one whole-track unit; contiguous
    /// runs of low-confidence tracks degrade to `fallback_sectors`-sized
    /// units. Aligned units never cross a trusted track boundary.
    Aligned {
        /// Minimum per-track confidence to trust a boundary.
        threshold: f64,
        /// Unit size (sectors) used inside low-confidence regions.
        fallback_sectors: u64,
    },
    /// Naive fixed-size stripe units of `sectors`, carved from LBN 0 with
    /// no regard for track boundaries — the baseline every striped-RAID
    /// implementation without drive knowledge uses.
    Fixed {
        /// Unit size in sectors.
        sectors: u64,
    },
}

impl StripePolicy {
    /// The default track-aligned policy: trust boundaries at confidence
    /// ≥ 0.9, degrade to 64-sector units elsewhere.
    pub fn aligned() -> Self {
        StripePolicy::Aligned {
            threshold: 0.9,
            fallback_sectors: 64,
        }
    }

    /// A fixed-size policy with `sectors`-sized units.
    pub fn fixed(sectors: u64) -> Self {
        StripePolicy::Fixed { sectors }
    }

    /// Short label for figure axes: `"aligned"` or `"fixed"`.
    pub fn label(&self) -> &'static str {
        match self {
            StripePolicy::Aligned { .. } => "aligned",
            StripePolicy::Fixed { .. } => "fixed",
        }
    }

    /// A unit is at least a sector and at most what one member request
    /// can read: `u32::MAX` sectors, a READ(16) transfer length.
    fn validate(&self) -> Result<(), FleetError> {
        let (unit, refusal) = match *self {
            StripePolicy::Aligned {
                threshold,
                fallback_sectors,
            } => {
                if !(0.0..=1.0).contains(&threshold) {
                    return Err(FleetError::BadPolicy("threshold must be in [0, 1]"));
                }
                (
                    fallback_sectors,
                    "fallback unit size must be 1 to u32::MAX sectors",
                )
            }
            StripePolicy::Fixed { sectors } => {
                (sectors, "fixed unit size must be 1 to u32::MAX sectors")
            }
        };
        if unit == 0 || unit > u64::from(u32::MAX) {
            return Err(FleetError::BadPolicy(refusal));
        }
        Ok(())
    }
}

/// One stripe unit on one member: a contiguous physical extent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StripeUnit {
    /// First physical LBN of the unit on its member.
    pub start: u64,
    /// Length in sectors (never zero).
    pub len: u64,
    /// Minimum extraction confidence over the tracks the unit touches.
    pub confidence: f64,
}

impl StripeUnit {
    /// One past the last physical LBN of the unit.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// Carves one member's boundary map into stripe units under `policy`.
///
/// This is the alignment rule of the whole crate: under
/// [`StripePolicy::Aligned`], a unit either *is* a trusted track or lies
/// strictly inside a run of low-confidence tracks — it never straddles a
/// boundary the extractor is confident about, so a stripe-unit-sized
/// access costs no head switch on that member. [`StripePolicy::Fixed`]
/// ignores geometry entirely (the naive baseline).
///
/// ```
/// use fleet::{stripe_units, StripePolicy};
/// use traxtent::boundaries::ConfidentBoundaries;
///
/// // Two trusted 200/150-sector tracks, then an untrusted region.
/// let map = ConfidentBoundaries::from_unit_lengths([
///     (200, 1.0),
///     (150, 1.0),
///     (100, 0.3),
///     (100, 0.2),
/// ])
/// .unwrap();
///
/// let units = stripe_units(&map, &StripePolicy::aligned()).unwrap();
/// // Whole-track units for the trusted tracks...
/// assert_eq!((units[0].start, units[0].len), (0, 200));
/// assert_eq!((units[1].start, units[1].len), (200, 150));
/// // ...then 64-sector fallback units inside the 200-sector fuzzy run.
/// assert_eq!((units[2].start, units[2].len), (350, 64));
/// assert!(units.iter().all(|u| u.end() <= map.table().capacity()));
/// ```
pub fn stripe_units(
    map: &ConfidentBoundaries,
    policy: &StripePolicy,
) -> Result<Vec<StripeUnit>, FleetError> {
    policy.validate()?;
    Ok(Carve::new(map, *policy).collect())
}

/// [`stripe_units`] one unit at a time, for a policy already validated.
struct Carve<'a> {
    map: &'a ConfidentBoundaries,
    policy: StripePolicy,
    /// The next member track an aligned carve looks at.
    track: usize,
    /// The run being carved: `[at, end)` in units of `step` sectors (the
    /// last one shorter), each carrying `confidence`.
    at: u64,
    end: u64,
    step: u64,
    confidence: f64,
}

impl<'a> Carve<'a> {
    fn new(map: &'a ConfidentBoundaries, policy: StripePolicy) -> Self {
        // A fixed carve is one run over the whole member; an aligned one
        // starts with none and finds its runs track by track.
        let (end, step) = match policy {
            StripePolicy::Fixed { sectors } => (map.table().capacity(), sectors),
            StripePolicy::Aligned { .. } => (0, 0),
        };
        Carve {
            map,
            policy,
            track: 0,
            at: 0,
            end,
            step,
            confidence: 1.0,
        }
    }

    /// Starts the next aligned run: a trusted track as one unit, or the
    /// whole run of untrusted tracks from here in fallback-sized units at
    /// the run's least confidence. `None` past the last track.
    fn next_run(&mut self) -> Option<()> {
        let StripePolicy::Aligned {
            threshold,
            fallback_sectors,
        } = self.policy
        else {
            return None;
        };
        let (map, table) = (self.map, self.map.table());
        let tracks = table.num_tracks();
        if self.track == tracks {
            return None;
        }
        let first = table.track_extent(self.track);
        self.confidence = map.track_confidence(self.track);
        self.track += 1;
        if map.is_confident(self.track - 1, threshold) {
            (self.at, self.end, self.step) = (first.start, first.end(), first.len);
            return Some(());
        }
        while self.track < tracks && !map.is_confident(self.track, threshold) {
            self.confidence = self.confidence.min(map.track_confidence(self.track));
            self.track += 1;
        }
        let end = if self.track < tracks {
            table.track_extent(self.track).start
        } else {
            table.capacity()
        };
        (self.at, self.end, self.step) = (first.start, end, fallback_sectors);
        Some(())
    }
}

impl Iterator for Carve<'_> {
    type Item = StripeUnit;

    fn next(&mut self) -> Option<StripeUnit> {
        if self.at == self.end {
            self.next_run()?;
        }
        // A fixed unit is still a contiguous physical extent, so batching
        // within it is safe; it just may straddle track boundaries (that
        // is the point of the baseline).
        let len = self.step.min(self.end - self.at);
        let unit = StripeUnit {
            start: self.at,
            len,
            confidence: self.confidence,
        };
        self.at += len;
        Some(unit)
    }
}

/// The volume kinds this crate lays out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VolumeKind {
    /// RAID-0: units round-robin across members, no redundancy.
    Striped,
    /// RAID-1: every member holds a full copy; reads rotate across
    /// members, writes go everywhere.
    Mirrored,
    /// RAID-5: one unit per round holds XOR parity, rotating through the
    /// members so no single drive becomes the parity bottleneck.
    Raid5,
}

impl VolumeKind {
    /// Short label for figure axes: `"striped"`, `"mirrored"`, `"raid5"`.
    pub fn label(&self) -> &'static str {
        match self {
            VolumeKind::Striped => "striped",
            VolumeKind::Mirrored => "mirrored",
            VolumeKind::Raid5 => "raid5",
        }
    }

    /// True if the kind can survive (at least) one member failure.
    pub fn redundant(&self) -> bool {
        !matches!(self, VolumeKind::Striped)
    }
}

/// One logical stripe unit: a contiguous run of volume LBNs living on a
/// single member. Which member, where on it and in which round are
/// [`VolumeLayout`]'s to say, from the unit's index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogicalUnit {
    /// First logical LBN the unit serves.
    pub lstart: u64,
    /// Length in sectors: what one member request reads of it, so the
    /// width of [`sim_disk::disk::Request::len`].
    pub len: u32,
}

/// The member of `members` holding round `round`'s RAID-5 parity: rotated
/// backwards from the last member, the classic left-symmetric placement.
fn parity_member(round: usize, members: usize) -> usize {
    members - 1 - round % members
}

/// One physical fragment of a logical access, produced by
/// [`VolumeLayout::split`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chunk {
    /// Index of the [`LogicalUnit`] the fragment falls in.
    pub unit: usize,
    /// Member that owns the fragment.
    pub member: usize,
    /// First physical LBN on the member.
    pub pstart: u64,
    /// First logical LBN of the fragment.
    pub lstart: u64,
    /// Length in sectors.
    pub len: u64,
    /// Stripe round of the owning unit.
    pub round: usize,
}

/// The complete logical↔physical map of a volume: member stripe-unit
/// lists interleaved into one logical LBN space.
///
/// The units of a stripe round are consecutive, so a unit's round and
/// member follow from its index: a RAID-0 round is one unit on every
/// member in member order, a mirror's round is one unit (held by every
/// member, at its logical address), and a RAID-5 round is one unit on
/// every member but the round's parity member, `n − 1 − r % n`. Where a
/// round's units start on their members is one row of a flat table.
#[derive(Debug, Clone)]
pub struct VolumeLayout {
    kind: VolumeKind,
    members: usize,
    units: Vec<LogicalUnit>,
    /// The logical address space with one "track" per unit: what
    /// [`Self::unit_index`] looks up and [`Self::logical_boundaries`]
    /// publishes, and the units' confidences.
    logical: ConfidentBoundaries,
    member_caps: Vec<u64>,
    /// Where each member's unit of round `r` starts, at
    /// `starts[r * members + m]` (the parity member's too); empty for a
    /// mirror.
    starts: Vec<u64>,
}

impl VolumeLayout {
    /// Builds the layout for `kind` over the given per-member boundary
    /// maps, in one pass over the members' carves. Pure — no drives
    /// involved; [`crate::Volume`] constructors call this after
    /// validating maps against real drive capacities.
    #[expect(
        clippy::expect_used,
        reason = "the unit list is nonempty: a valid map carves at least one unit, so a member \
                  set with enough members makes a round of every kind; its lengths and \
                  confidences come from valid maps: mapping_is_a_bijection builds every kind"
    )]
    pub fn new(
        kind: VolumeKind,
        maps: &[ConfidentBoundaries],
        policy: &StripePolicy,
    ) -> Result<Self, FleetError> {
        let need = match kind {
            VolumeKind::Striped | VolumeKind::Mirrored => 2,
            VolumeKind::Raid5 => 3,
        };
        if maps.len() < need {
            return Err(FleetError::TooFewMembers {
                kind: kind.label(),
                need,
                got: maps.len(),
            });
        }
        policy.validate()?;
        let n = maps.len();
        let spindle =
            |m: usize| u16::try_from(m).map_err(|_| FleetError::TooManyMembers { got: n });
        // A unit is at most one carved unit long, and `validate` holds
        // fixed and fallback units to `u32::MAX` sectors: only a trusted
        // track longer than that fails here.
        let unit_len = |len: u64| {
            u32::try_from(len).map_err(|_| {
                FleetError::BadPolicy("a trusted track must be at most u32::MAX sectors")
            })
        };
        let member_caps: Vec<u64> = maps.iter().map(|m| m.table().capacity()).collect();
        let mut carves: Vec<Carve> = maps.iter().map(|m| Carve::new(m, *policy)).collect();

        let mut units = Vec::new();
        let mut confidence = Vec::new();
        let mut spindles = Vec::new();
        let mut starts = Vec::new();
        let mut lbn = 0;
        if kind == VolumeKind::Mirrored {
            // Logical space is member 0's carve, clipped to the smallest
            // member; logical == physical on every member.
            let clip = member_caps.iter().copied().min().unwrap_or(0);
            for (r, u) in carves[0].by_ref().enumerate() {
                if lbn >= clip {
                    break;
                }
                let len = unit_len(u.len.min(clip - lbn))?;
                units.push(LogicalUnit { lstart: lbn, len });
                confidence.push(u.confidence);
                spindles.push(spindle(r % n)?);
                lbn += u64::from(len);
            }
        } else {
            // A round takes the next unit of every member; the rounds end
            // with the shortest carve.
            let mut round: Vec<StripeUnit> = Vec::with_capacity(n);
            'rounds: for r in 0.. {
                round.clear();
                for carve in &mut carves {
                    let Some(u) = carve.next() else {
                        break 'rounds;
                    };
                    round.push(u);
                }
                starts.extend(round.iter().map(|u| u.start));
                // RAID-5 stripes the shortest unit's length over every
                // member but the parity.
                let (parity, stripe) = match kind {
                    VolumeKind::Raid5 => (parity_member(r, n), round.iter().map(|u| u.len).min()),
                    _ => (n, None),
                };
                for (m, u) in round.iter().enumerate() {
                    if m == parity {
                        continue;
                    }
                    let len = unit_len(stripe.unwrap_or(u.len))?;
                    units.push(LogicalUnit { lstart: lbn, len });
                    confidence.push(u.confidence);
                    spindles.push(spindle(m)?);
                    lbn += u64::from(len);
                }
            }
        }

        let lengths = units.iter().map(|u| u64::from(u.len));
        let logical = ConfidentBoundaries::from_unit_lengths(lengths.zip(confidence))
            .and_then(|map| map.with_spindles(spindles))
            .expect("every kind leaves at least one unit, none of them empty");
        Ok(VolumeLayout {
            kind,
            members: n,
            units,
            logical,
            member_caps,
            starts,
        })
    }

    /// The volume kind.
    pub fn kind(&self) -> VolumeKind {
        self.kind
    }

    /// Number of member drives.
    pub fn members(&self) -> usize {
        self.members
    }

    /// Logical capacity in sectors.
    pub fn capacity(&self) -> u64 {
        self.logical.table().capacity()
    }

    /// Each member's physical capacity in sectors.
    pub fn member_caps(&self) -> &[u64] {
        &self.member_caps
    }

    /// The logical stripe units, ascending in `lstart` and contiguous
    /// from 0 to [`Self::capacity`].
    pub fn units(&self) -> &[LogicalUnit] {
        &self.units
    }

    /// Logical units a round holds.
    fn per_round(&self) -> usize {
        match self.kind {
            VolumeKind::Striped => self.members,
            VolumeKind::Mirrored => 1,
            VolumeKind::Raid5 => self.members - 1,
        }
    }

    /// The stripe rounds, in logical order.
    pub fn rounds(&self) -> Range<usize> {
        0..self.units.len() / self.per_round()
    }

    /// The logical units of the rounds `rounds`.
    pub(crate) fn units_of(&self, rounds: Range<usize>) -> Range<usize> {
        rounds.start * self.per_round()..rounds.end * self.per_round()
    }

    /// Unit `unit`'s round and member, with one divide (two for RAID-5).
    fn place(&self, unit: usize) -> (usize, usize) {
        let per = self.per_round();
        let (round, k) = (unit / per, unit % per);
        let member = match self.kind {
            VolumeKind::Striped => k,
            VolumeKind::Mirrored => round % self.members,
            // The data units of a round skip its parity member.
            VolumeKind::Raid5 => k + usize::from(k >= self.parity(round)),
        };
        (round, member)
    }

    /// Unit `unit`'s physical start, given its round and member.
    fn pstart_at(&self, unit: usize, (round, member): (usize, usize)) -> u64 {
        match self.kind {
            VolumeKind::Mirrored => self.units[unit].lstart,
            _ => self.starts[round * self.members + member],
        }
    }

    /// Stripe round of unit `unit`.
    pub fn round(&self, unit: usize) -> usize {
        self.place(unit).0
    }

    /// Member that holds unit `unit` (for mirrors: the preferred read
    /// member; the data exists on every member).
    pub fn member(&self, unit: usize) -> usize {
        self.place(unit).1
    }

    /// First physical LBN of unit `unit` on its member.
    pub fn pstart(&self, unit: usize) -> u64 {
        self.pstart_at(unit, self.place(unit))
    }

    /// Member holding round `round`'s parity (RAID-5).
    pub fn parity(&self, round: usize) -> usize {
        parity_member(round, self.members)
    }

    /// The sectors of member `m` that round `round` uses: its unit on `m`
    /// (every member's, for a mirror). A RAID-5 round uses the same
    /// length on every member, the parity member included. Every member's
    /// rounds ascend physically (`fleet_props::
    /// rounds_ascend_on_every_member`), so the rounds before `round` lie
    /// below the extent's start on `m` and the others at or above it.
    pub fn member_extent(&self, round: usize, m: usize) -> Extent {
        let (start, len) = match self.kind {
            VolumeKind::Striped => {
                let unit = round * self.members + m;
                (self.starts[unit], u64::from(self.units[unit].len))
            }
            VolumeKind::Mirrored => (self.units[round].lstart, u64::from(self.units[round].len)),
            VolumeKind::Raid5 => (
                self.starts[round * self.members + m],
                u64::from(self.units[round * (self.members - 1)].len),
            ),
        };
        Extent { start, len }
    }

    /// Index of the logical unit containing `lbn`.
    ///
    /// # Panics
    ///
    /// Panics if `lbn` is at or past [`Self::capacity`].
    pub fn unit_index(&self, lbn: u64) -> usize {
        self.logical.table().track_index(lbn)
    }

    /// Splits a logical access into per-member physical fragments, in
    /// ascending logical order. Fragments never span units.
    pub fn split(&self, lbn: u64, len: u64) -> Result<Vec<Chunk>, FleetError> {
        let capacity = self.capacity();
        if len == 0 || lbn > capacity || len > capacity - lbn {
            return Err(FleetError::OutOfRange { lbn, len, capacity });
        }
        let mut chunks = Vec::new();
        let mut at = lbn;
        let end = lbn + len;
        let mut ui = self.unit_index(lbn);
        while at < end {
            let u = &self.units[ui];
            let take = (u.lstart + u64::from(u.len) - at).min(end - at);
            let (round, member) = self.place(ui);
            chunks.push(Chunk {
                unit: ui,
                member,
                pstart: self.pstart_at(ui, (round, member)) + (at - u.lstart),
                lstart: at,
                len: take,
                round,
            });
            at += take;
            ui += 1;
        }
        Ok(chunks)
    }

    /// The volume-wide boundary map: one "track" per logical stripe unit,
    /// carrying that unit's confidence and, as its spindle id, the member
    /// that holds it. Feeding this to the PR 7 server's traxtent scheduler
    /// makes it batch whole stripe units — which, under
    /// [`StripePolicy::Aligned`], are whole member tracks — on one lane
    /// per member. Its tables are shared, so a call costs O(1).
    pub fn logical_boundaries(&self) -> ConfidentBoundaries {
        self.logical.clone()
    }
}
