//! An FFS-like block file system over the simulated disk, with the three
//! personalities compared in §5.3 / Table 2 of the paper:
//!
//! * [`Personality::Unmodified`] — FreeBSD-style FFS: 8 KB blocks, 32 MB
//!   block groups, McVoy–Kleiman clustered allocation, history-based
//!   read-ahead ramping up to 32 blocks, cluster write-back.
//! * [`Personality::FastStart`] — the same, but the first access to a file
//!   prefetches a full 32-block cluster immediately (the paper's aggressive
//!   baseline).
//! * [`Personality::Traxtent`] — the traxtent-aware FFS: blocks spanning
//!   track boundaries are *excluded* from allocation, allocation prefers
//!   runs within one traxtent, and read-ahead fetches whole traxtents and
//!   never crosses a track boundary.
//!
//! The file system tracks real metadata (inodes, per-group bitmaps, buffer
//! cache) but not user data bytes: workloads only need faithful I/O timing,
//! which comes from the shared [`sim_disk::Disk`].
//!
//! For crash-consistency experiments the timing model can additionally
//! carry a byte-level on-media shadow
//! ([`FileSystem::enable_crash_shadow`]): metadata writes then encode the
//! [`image`] format, a power cut resolves to a concrete [`sim_disk::crash`]
//! image, and [`fsck()`](fsck::fsck) verifies or repairs it back to a
//! mountable state.

#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod cache;
pub mod fs;
pub mod fsck;
pub mod image;
pub mod layout;
pub mod runs;

pub use fs::{FileId, FileSystem, FsError, FsStats, ShadowError};
pub use fsck::{fsck, mount, FsckReport, MountError, RecoveredFile, RecoveredFs};
pub use layout::{Layout, Personality, BLOCK_SECTORS, BYTES_PER_BLOCK};
