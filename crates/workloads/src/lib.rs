//! Workload generators for the traxtent evaluation.
//!
//! * [`microbench`] — the paper's `onereq` / `tworeq` random-request
//!   workloads over a single zone (Figures 1, 6, 7, 8 and the §5.2 write
//!   results);
//! * [`apps`] — application-level workloads on the FFS prototype (Table 2):
//!   large-file scan / diff / copy, a Postmark-like small-file transaction
//!   mix, an SSH-build-like phase mix, and `head*`;
//! * [`replay`] — timestamped block-trace replay, one request at a time,
//!   the engine-throughput workload;
//! * [`arrivals`] — open-loop arrival generators (Poisson, bursty ON/OFF,
//!   diurnal tenant mixes, concurrent video-style streams) emitting
//!   [`replay`]-format traces for the storage-server experiments.

#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod apps;
pub mod arrivals;
pub mod microbench;
pub mod replay;
