//! Track-aligned extents (*traxtents*): the primary contribution of
//! Schindler et al., "Track-aligned Extents: Matching Access Patterns to
//! Disk Drive Characteristics" (FAST 2002), as a reusable library.
//!
//! A *traxtent* is a variable-sized extent whose boundaries coincide with
//! physical disk track boundaries. Allocating and accessing data in
//! traxtents avoids most rotational latency (on zero-latency drives) and all
//! mid-request head switches, raising disk efficiency by up to ~50 % for
//! mid-sized requests.
//!
//! The crate is deliberately independent of any particular disk or
//! simulator: it consumes a [`TrackBoundaries`] table — produced by the
//! `dixtrac` extraction crate, by a vendor utility, or by hand — and offers:
//!
//! * [`TrackBoundaries`] — the boundary table with O(log n) queries;
//! * [`Extent`] and boundary-aware splitting;
//! * [`alloc::TraxtentAllocator`] — the free-space map the `ffs` file
//!   system allocates from: excluded blocks, traxtent placement and the
//!   untracked fallback, in allocation units of any size;
//! * [`planner::RequestPlanner`] — clips or extends prefetch and write-back
//!   requests at track boundaries (`ffs` sizes its transfers with it);
//! * [`model`] — closed-form performance models behind Figures 1 and 3 of
//!   the paper;
//! * [`stats`] — small statistics helpers used throughout the evaluation;
//! * [`hash`] — the SplitMix64 mixer every layer derives ids, fault draws
//!   and fill patterns from;
//! * [`obs`] — a lightweight counter/gauge registry the upper layers use to
//!   expose what a run did (lock-free updates, deterministic snapshots),
//!   causal spans, and the workspace's one JSON reader/writer;
//! * [`par`] — the one parallel map (results in item order at any thread
//!   count) and the one core count, for the figures' sweeps and a volume's
//!   fill and scrub.
//!
//! # Example
//!
//! ```
//! use traxtent::{Extent, TrackBoundaries};
//!
//! // Three 100-sector tracks.
//! let tb = TrackBoundaries::from_track_lengths([100, 100, 100]).unwrap();
//! let ext = Extent::new(50, 200);
//! let pieces: Vec<Extent> = tb.split_extent(ext).collect();
//! assert_eq!(pieces, vec![
//!     Extent::new(50, 50),   // tail of track 0
//!     Extent::new(100, 100), // all of track 1
//!     Extent::new(200, 50),  // head of track 2
//! ]);
//! ```

#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod alloc;
pub mod boundaries;
pub mod extent;
pub mod hash;
pub mod model;
pub mod obs;
pub mod par;
pub mod planner;
pub mod stats;

pub use alloc::TraxtentAllocator;
pub use boundaries::{BoundariesError, ConfidentBoundaries, TrackBoundaries};
pub use extent::Extent;
pub use planner::RequestPlanner;
