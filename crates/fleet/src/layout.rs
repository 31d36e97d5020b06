//! Stripe-unit carving and the volume-wide logical address map.
//!
//! This module is pure: it turns per-member boundary maps into a
//! [`VolumeLayout`] without touching any [`sim_disk::disk::Disk`], so the
//! mapping invariants (bijectivity, alignment) are property-testable on
//! random heterogeneous geometries.

use crate::FleetError;
use traxtent::boundaries::ConfidentBoundaries;

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

    fn validate(&self) -> Result<(), FleetError> {
        match *self {
            StripePolicy::Aligned {
                threshold,
                fallback_sectors,
            } => {
                if !(0.0..=1.0).contains(&threshold) {
                    return Err(FleetError::BadPolicy("threshold must be in [0, 1]"));
                }
                if fallback_sectors == 0 {
                    return Err(FleetError::BadPolicy("fallback unit size must be nonzero"));
                }
                Ok(())
            }
            StripePolicy::Fixed { sectors } => {
                if sectors == 0 {
                    return Err(FleetError::BadPolicy("fixed unit size must be nonzero"));
                }
                Ok(())
            }
        }
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
    let table = map.table();
    let mut units = Vec::new();
    match *policy {
        StripePolicy::Fixed { sectors } => {
            let mut at = 0;
            let capacity = table.capacity();
            while at < capacity {
                let len = sectors.min(capacity - at);
                // A fixed unit is still a contiguous physical extent, so
                // batching within it is safe; it just may straddle track
                // boundaries (that is the point of the baseline).
                units.push(StripeUnit {
                    start: at,
                    len,
                    confidence: 1.0,
                });
                at += len;
            }
        }
        StripePolicy::Aligned {
            threshold,
            fallback_sectors,
        } => {
            let mut fuzzy: Option<(u64, f64)> = None; // (region start, min confidence)
            let flush = |units: &mut Vec<StripeUnit>, fuzzy: &mut Option<(u64, f64)>, end: u64| {
                if let Some((start, confidence)) = fuzzy.take() {
                    let mut at = start;
                    while at < end {
                        let len = fallback_sectors.min(end - at);
                        units.push(StripeUnit {
                            start: at,
                            len,
                            confidence,
                        });
                        at += len;
                    }
                }
            };
            for i in 0..table.num_tracks() {
                let ext = table.track_extent(i);
                if map.is_confident(i, threshold) {
                    flush(&mut units, &mut fuzzy, ext.start);
                    units.push(StripeUnit {
                        start: ext.start,
                        len: ext.len,
                        confidence: map.track_confidence(i),
                    });
                } else {
                    let conf = map.track_confidence(i);
                    match &mut fuzzy {
                        Some((_, min_conf)) => *min_conf = min_conf.min(conf),
                        None => fuzzy = Some((ext.start, conf)),
                    }
                }
            }
            flush(&mut units, &mut fuzzy, table.capacity());
        }
    }
    Ok(units)
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
/// single member.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogicalUnit {
    /// First logical LBN the unit serves.
    pub lstart: u64,
    /// Length in sectors.
    pub len: u64,
    /// Member that holds the data (for mirrors: the preferred read
    /// member; the data exists on every member).
    pub member: usize,
    /// First physical LBN on that member.
    pub pstart: u64,
    /// Stripe round the unit belongs to.
    pub round: usize,
    /// Confidence of the underlying stripe unit.
    pub confidence: f64,
}

/// Per-round RAID-5 geometry: where every member's round-`r` unit starts,
/// and which member holds the parity.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundInfo {
    /// Sectors of each member's unit that participate in the stripe (the
    /// minimum unit length across members this round).
    pub len: u64,
    /// Member holding the parity unit this round.
    pub parity: usize,
    /// Physical start of each member's round-`r` unit, indexed by member.
    pub pstarts: Vec<u64>,
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
#[derive(Debug, Clone)]
pub struct VolumeLayout {
    kind: VolumeKind,
    members: usize,
    units: Vec<LogicalUnit>,
    /// The logical address space with one "track" per unit: what
    /// [`Self::unit_index`] looks up and [`Self::logical_boundaries`]
    /// publishes.
    logical: ConfidentBoundaries,
    member_caps: Vec<u64>,
    /// RAID-5 only; empty otherwise.
    rounds: Vec<RoundInfo>,
}

impl VolumeLayout {
    /// Builds the layout for `kind` over the given per-member boundary
    /// maps. Pure — no drives involved; [`crate::Volume`] constructors
    /// call this after validating maps against real drive capacities.
    #[expect(
        clippy::expect_used,
        reason = "the unit list is nonempty (NoRounds above) and its lengths and confidences \
                  come from valid maps: mapping_is_a_bijection builds every kind"
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
        let per_member: Vec<Vec<StripeUnit>> = maps
            .iter()
            .map(|m| stripe_units(m, policy))
            .collect::<Result<_, _>>()?;
        let member_caps: Vec<u64> = maps.iter().map(|m| m.table().capacity()).collect();
        let n = maps.len();

        let mut units = Vec::new();
        let mut rounds = Vec::new();
        match kind {
            VolumeKind::Striped => {
                let nrounds = per_member.iter().map(Vec::len).min().unwrap_or(0);
                if nrounds == 0 {
                    return Err(FleetError::NoRounds);
                }
                let mut lbn = 0;
                for r in 0..nrounds {
                    for (m, mu) in per_member.iter().enumerate() {
                        let u = mu[r];
                        units.push(LogicalUnit {
                            lstart: lbn,
                            len: u.len,
                            member: m,
                            pstart: u.start,
                            round: r,
                            confidence: u.confidence,
                        });
                        lbn += u.len;
                    }
                }
            }
            VolumeKind::Mirrored => {
                // Logical space is member 0's carve, clipped to the
                // smallest member; logical == physical on every member.
                let clip = member_caps.iter().copied().min().unwrap_or(0);
                let mut lbn = 0;
                for (r, u) in per_member[0].iter().enumerate() {
                    if lbn >= clip {
                        break;
                    }
                    let len = u.len.min(clip - lbn);
                    units.push(LogicalUnit {
                        lstart: lbn,
                        len,
                        member: r % n,
                        pstart: lbn,
                        round: r,
                        confidence: u.confidence,
                    });
                    lbn += len;
                }
                if units.is_empty() {
                    return Err(FleetError::NoRounds);
                }
            }
            VolumeKind::Raid5 => {
                let nrounds = per_member.iter().map(Vec::len).min().unwrap_or(0);
                if nrounds == 0 {
                    return Err(FleetError::NoRounds);
                }
                let mut lbn = 0;
                for r in 0..nrounds {
                    let len = per_member.iter().map(|mu| mu[r].len).min().unwrap_or(0);
                    // Rotate parity backwards from the last member, the
                    // classic left-symmetric placement.
                    let parity = n - 1 - (r % n);
                    let pstarts: Vec<u64> = per_member.iter().map(|mu| mu[r].start).collect();
                    for (m, mu) in per_member.iter().enumerate() {
                        if m == parity {
                            continue;
                        }
                        units.push(LogicalUnit {
                            lstart: lbn,
                            len,
                            member: m,
                            pstart: mu[r].start,
                            round: r,
                            confidence: mu[r].confidence,
                        });
                        lbn += len;
                    }
                    rounds.push(RoundInfo {
                        len,
                        parity,
                        pstarts,
                    });
                }
            }
        }

        let spindles = (units.iter())
            .map(|u| u16::try_from(u.member))
            .collect::<Result<_, _>>()
            .map_err(|_| FleetError::TooManyMembers { got: n })?;
        let logical =
            ConfidentBoundaries::from_unit_lengths(units.iter().map(|u| (u.len, u.confidence)))
                .and_then(|map| map.with_spindles(spindles))
                .expect("every kind leaves at least one unit, none of them empty");
        Ok(VolumeLayout {
            kind,
            members: n,
            units,
            logical,
            member_caps,
            rounds,
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

    /// RAID-5 per-round geometry; empty for other kinds.
    pub fn rounds(&self) -> &[RoundInfo] {
        &self.rounds
    }

    /// Where round `r` begins on member `m`. Every member's units ascend
    /// physically with the round (`fleet_props::
    /// rounds_ascend_on_every_member`), so the rounds before `r` lie
    /// below this LBN on `m` and the others at or above it.
    pub(crate) fn round_start(&self, r: usize, m: usize) -> u64 {
        match self.kind {
            VolumeKind::Striped => self.units[r * self.members + m].pstart,
            VolumeKind::Mirrored => self.units[r].pstart,
            VolumeKind::Raid5 => self.rounds[r].pstarts[m],
        }
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
            let take = (u.lstart + u.len - at).min(end - at);
            chunks.push(Chunk {
                unit: ui,
                member: u.member,
                pstart: u.pstart + (at - u.lstart),
                lstart: at,
                len: take,
                round: u.round,
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
    /// per member.
    pub fn logical_boundaries(&self) -> ConfidentBoundaries {
        self.logical.clone()
    }
}
