//! Multi-disk volumes with track-aligned stripe units.
//!
//! Everything below this crate simulates one drive at a time. This layer
//! composes heterogeneous [`sim_disk`] drives into first-class *volumes* —
//! [`Volume::striped`] (RAID-0), [`Volume::mirrored`] (RAID-1), and
//! [`Volume::raid5`] (rotating parity) — and lifts the paper's traxtent
//! idea one level up: **stripe units snap to each member drive's physical
//! track boundaries**, using the per-member
//! [`traxtent::ConfidentBoundaries`] that dixtrac extraction produces.
//!
//! * [`stripe_units`] carves one member's boundary map into stripe units:
//!   trusted tracks become whole-track units; runs of low-confidence
//!   tracks degrade to fixed-size units (the same graceful degradation
//!   the allocator and the scheduler apply, now at placement granularity).
//! * [`VolumeLayout`] interleaves the members' unit lists into one
//!   logical LBN space (round-robin rounds; RAID-5 rotates a parity unit
//!   through the members) and publishes a **volume-wide boundary map**
//!   ([`VolumeLayout::logical_boundaries`]) whose "tracks" are the stripe
//!   units — so the PR 7 server's traxtent-aware scheduler batches
//!   against *volume* geometry exactly the way it batches against a
//!   single drive's.
//! * [`Volume`] owns the member drives plus a word-per-sector data plane,
//!   so parity is real XOR arithmetic, degraded-mode reads reconstruct
//!   bit-exact data from mirror or parity when a member is failed (or
//!   its fault layer surfaces a [`sim_disk::fault::CommandFault`]), and
//!   rebuild/scrub verifiably restore redundancy
//!   ([`Volume::rebuild_member`], [`Volume::scrub`]) while reporting
//!   progress through the [`traxtent::obs`] registry.
//! * [`Volume`] implements [`sim_disk::Backend`], so the open-loop server
//!   loop (`server::serve`) runs unchanged on top of a fleet without
//!   either crate depending on the other.
//!
//! Determinism: member commands issue on the calling thread, their
//! times clamped per member (FCFS at each drive), and the data plane is
//! pure integer arithmetic. A fill or scrub splits the stripe rounds
//! into ranges run by [`traxtent::par::map`]'s workers, but each range's
//! words are a function of the layout and the seed alone — a volume run
//! is bit-identical on any host at any thread count, like every layer
//! below it.
//!
//! # Example
//!
//! ```
//! use fleet::{member_boundaries, StripePolicy, Volume};
//! use sim_disk::disk::Disk;
//! use sim_disk::models::small_test_disk;
//! use sim_disk::SimTime;
//!
//! let members: Vec<_> = (0..3)
//!     .map(|_| {
//!         let d = Disk::new(small_test_disk());
//!         let b = member_boundaries(&d);
//!         (d, b)
//!     })
//!     .collect();
//! let mut v = Volume::raid5(members, StripePolicy::aligned()).unwrap();
//! v.format(42);
//!
//! // A healthy read and the same read reconstructed from parity after a
//! // member failure return bit-identical data.
//! let healthy = v.read(1000, 64, SimTime::ZERO).unwrap().1;
//! v.fail_member(0).unwrap();
//! let degraded = v.read(1000, 64, SimTime::ZERO).unwrap().1;
//! assert_eq!(healthy, degraded);
//! ```

#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod crash;
pub mod data;
pub mod layout;
pub mod rebuild;
pub mod volume;

pub use crash::PowerCutReport;
pub use data::{fill_stores, pattern_word, reconstruct_unit, SectorStore};
pub use layout::{
    stripe_units, Chunk, LogicalUnit, StripePolicy, StripeUnit, VolumeKind, VolumeLayout,
};
pub use rebuild::{RebuildReport, RepairReport, ScrubReport};
pub use volume::{member_boundaries, Volume, VolumeStats, FAULT_RETRIES};

use std::error::Error;
use std::fmt;

/// Why a fleet operation refused to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The volume kind needs more members than were supplied.
    TooFewMembers {
        /// The volume kind ("striped", "mirrored", "raid5").
        kind: &'static str,
        /// Members required.
        need: usize,
        /// Members supplied.
        got: usize,
    },
    /// A stripe unit landed on a member past index 65 535, which the
    /// volume-wide boundary map's `u16` spindle ids cannot name.
    TooManyMembers {
        /// Members supplied.
        got: usize,
    },
    /// A member's boundary map does not cover its drive's capacity.
    MemberMismatch {
        /// The offending member index.
        member: usize,
        /// Capacity the boundary map declares.
        boundaries: u64,
        /// Capacity the drive actually has.
        disk: u64,
    },
    /// The stripe policy is malformed (a unit size of zero or above
    /// `u32::MAX` sectors, threshold out of `[0, 1]`), or an aligned
    /// policy met a trusted track too long for one unit.
    BadPolicy(&'static str),
    /// The access runs past the volume's logical capacity.
    OutOfRange {
        /// First logical LBN of the access.
        lbn: u64,
        /// Sector count of the access.
        len: u64,
        /// Logical capacity of the volume.
        capacity: u64,
    },
    /// Data on the named member is unreachable and no redundancy can
    /// reconstruct it (a failed RAID-0 member, or a second failure in a
    /// RAID-5 stripe).
    Unrecoverable {
        /// The member whose data is lost.
        member: usize,
    },
    /// A member index past the volume's last member.
    NoSuchMember {
        /// The index asked for.
        member: usize,
        /// How many members the volume has.
        members: usize,
    },
    /// Rebuild was asked for a member that is not failed.
    NotFailed {
        /// The healthy member.
        member: usize,
    },
    /// Rebuild needs every *other* member healthy; the named peer is not.
    DegradedPeer {
        /// The unhealthy peer blocking the rebuild.
        member: usize,
    },
    /// A healthy member kept surfacing transient command faults until the
    /// volume's retry budget ran out. Write paths report this instead of
    /// committing a partial stripe.
    RetriesExhausted {
        /// The member that would not take the command.
        member: usize,
        /// Attempts made before giving up.
        attempts: u32,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::TooFewMembers { kind, need, got } => {
                write!(
                    f,
                    "a {kind} volume needs at least {need} members, got {got}"
                )
            }
            FleetError::TooManyMembers { got } => {
                write!(f, "a volume spans at most 65 536 members, got {got}")
            }
            FleetError::MemberMismatch {
                member,
                boundaries,
                disk,
            } => write!(
                f,
                "member {member}: boundary map covers {boundaries} LBNs but the drive has {disk}"
            ),
            FleetError::BadPolicy(msg) => write!(f, "bad stripe policy: {msg}"),
            FleetError::OutOfRange { lbn, len, capacity } => {
                write!(
                    f,
                    "access of {len} sectors at {lbn} exceeds capacity {capacity}"
                )
            }
            FleetError::Unrecoverable { member } => {
                write!(f, "data on failed member {member} cannot be reconstructed")
            }
            FleetError::NoSuchMember { member, members } => {
                write!(
                    f,
                    "member {member} does not exist: the volume has {members} members"
                )
            }
            FleetError::NotFailed { member } => {
                write!(f, "member {member} is healthy; nothing to rebuild")
            }
            FleetError::DegradedPeer { member } => {
                write!(
                    f,
                    "rebuild needs every peer healthy; member {member} is not"
                )
            }
            FleetError::RetriesExhausted { member, attempts } => {
                write!(
                    f,
                    "member {member} kept faulting; gave up after {attempts} attempts"
                )
            }
        }
    }
}

impl Error for FleetError {}
