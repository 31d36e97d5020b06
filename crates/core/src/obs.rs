//! A lightweight counter/gauge registry for stack-wide observability.
//!
//! The layers above the drive engine — extraction, file systems, the video
//! server, workload generators — expose what they did through a shared
//! [`Registry`]: a named set of monotonically increasing counters and
//! set-on-export gauges:
//!
//! * hot-path updates are a single relaxed atomic add on a pre-registered
//!   [`Counter`] handle — no lock, no allocation, no formatting;
//! * registration (name lookup) takes a mutex, but happens once per counter,
//!   outside any measured loop;
//! * reading is always via an immutable point-in-time [`Snapshot`], sorted
//!   by name so output is deterministic.
//!
//! Because relaxed counter additions commute, totals are deterministic even
//! when independent simulation cells update the same registry from a worker
//! pool: every interleaving sums to the same value.
//!
//! ```
//! use traxtent::obs::Registry;
//!
//! let reg = Registry::new();
//! let hits = reg.counter("cache.hits");
//! hits.add(1);
//! hits.add(2);
//! reg.set_gauge("segments.live", 17);
//! let snap = reg.snapshot();
//! assert_eq!(snap.get("cache.hits"), Some(3));
//! assert_eq!(snap.get("segments.live"), Some(17));
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

pub mod json;
pub mod span;

/// A shared registry of named `u64` cells. Cloning is cheap and yields a
/// handle to the *same* registry, so one registry can be threaded through
/// every layer of a run.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    cells: Arc<Mutex<BTreeMap<String, Arc<AtomicU64>>>>,
}

/// A handle to one registered counter: updates are relaxed atomic adds, so
/// the handle can be used from worker threads without locking.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter registered under `name`, creating it at zero on
    /// first use. Call once and keep the handle; the lookup locks the
    /// registration table.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.cell(name))
    }

    /// Adds `n` to the counter named `name` (registering it if new). A
    /// convenience for cold paths — e.g. publishing a result struct's totals
    /// at the end of a run — where keeping a [`Counter`] handle is not worth
    /// it.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Sets the cell named `name` to exactly `value`, registering it if
    /// new. Gauges are meant for set-on-export values (an occupancy, a
    /// fraction scaled to fixed-point) written once from a single thread;
    /// concurrent setters race by last-write-wins.
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.cell(name).store(value, Ordering::Relaxed);
    }

    /// Raises the cell named `name` to at least `value`. Like [`Registry::add`],
    /// `max` is commutative, so concurrent exporters (e.g. parallel
    /// simulation cells each publishing a high-water mark) produce the same
    /// final value under any interleaving.
    pub fn set_max(&self, name: &str, value: u64) {
        self.cell(name).fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of every cell, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            entries: (self.cells().iter())
                .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
                .collect(),
        }
    }

    /// The cell named `name`, registered at zero on first use.
    fn cell(&self, name: &str) -> Arc<AtomicU64> {
        Arc::clone(self.cells().entry(name.to_string()).or_default())
    }

    /// The registration table. An insert completes or aborts, so a panic
    /// elsewhere cannot leave it half updated and a poisoned lock is taken
    /// as is.
    fn cells(&self) -> MutexGuard<'_, BTreeMap<String, Arc<AtomicU64>>> {
        self.cells.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// An immutable point-in-time copy of a [`Registry`], sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    entries: Vec<(String, u64)>,
}

impl Snapshot {
    /// The `(name, value)` pairs, sorted by name.
    pub fn entries(&self) -> &[(String, u64)] {
        &self.entries
    }

    /// The value of `name`, if registered.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// True if no cell was ever registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for Snapshot {
    /// A fixed-width `name value` table, one cell per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, value) in &self.entries {
            writeln!(f, "{name:<width$} {value:>12}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let reg = Registry::new();
        let a = reg.counter("a");
        let a2 = reg.counter("a");
        a.add(1);
        a2.add(4);
        assert_eq!(a.get(), 5, "same name resolves to the same cell");
        assert_eq!(reg.snapshot().get("a"), Some(5));
    }

    #[test]
    fn clones_share_the_registry() {
        let reg = Registry::new();
        let clone = reg.clone();
        clone.add("x", 3);
        assert_eq!(reg.snapshot().get("x"), Some(3));
    }

    #[test]
    fn gauges_overwrite() {
        let reg = Registry::new();
        reg.set_gauge("g", 10);
        reg.set_gauge("g", 7);
        assert_eq!(reg.snapshot().get("g"), Some(7));
    }

    #[test]
    fn set_max_keeps_the_high_water_mark() {
        let reg = Registry::new();
        reg.set_max("hw", 5);
        reg.set_max("hw", 3);
        reg.set_max("hw", 9);
        assert_eq!(reg.snapshot().get("hw"), Some(9));
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let reg = Registry::new();
        reg.add("z", 1);
        reg.add("a", 2);
        reg.add("m", 3);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.entries().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "m", "z"]);
        assert_eq!(snap.get("missing"), None);
    }

    #[test]
    fn empty_snapshot() {
        let snap = Registry::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.to_string(), "");
    }

    #[test]
    fn concurrent_adds_sum_deterministically() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = reg.counter("n");
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().get("n"), Some(4000));
    }

    #[test]
    fn display_lines_up() {
        let reg = Registry::new();
        reg.add("short", 1);
        reg.add("a.much.longer.name", 22);
        let text = reg.snapshot().to_string();
        assert!(text.contains("short              "), "{text}");
        assert!(text.lines().count() == 2);
    }
}
