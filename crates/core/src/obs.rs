//! A lightweight counter/gauge registry for stack-wide observability.
//!
//! The layers above the drive engine — extraction, file systems, the video
//! server, workload generators — expose what they did through a shared
//! [`Registry`]: one `u64` a name, written once per layer at export by
//! [`add`](Registry::add), [`set_gauge`](Registry::set_gauge) or
//! [`set_max`](Registry::set_max), and read back as a [`Snapshot`] sorted
//! by name, so output is deterministic.
//!
//! Because additions and maxima commute, totals are deterministic even
//! when independent simulation cells export into the same registry from a
//! worker pool: every interleaving gives the same value.
//!
//! ```
//! use traxtent::obs::Registry;
//!
//! let reg = Registry::new();
//! reg.add("cache.hits", 1);
//! reg.add("cache.hits", 2);
//! reg.set_gauge("segments.live", 17);
//! let snap = reg.snapshot();
//! assert_eq!(snap.get("cache.hits"), Some(3));
//! assert_eq!(snap.get("segments.live"), Some(17));
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

pub mod json;
pub mod span;

/// A shared registry of named `u64` values. Cloning is cheap and yields a
/// handle to the *same* registry, so one registry can be threaded through
/// every layer of a run.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    cells: Arc<Mutex<BTreeMap<String, u64>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `n` to the value named `name`, registering it at zero if new.
    pub fn add(&self, name: &str, n: u64) {
        self.update(name, |v| *v += n);
    }

    /// Sets the value named `name` to exactly `value`. Gauges are meant for
    /// set-on-export values (an occupancy, a fraction scaled to
    /// fixed-point) written once from a single thread; concurrent setters
    /// race by last-write-wins.
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.update(name, |v| *v = value);
    }

    /// Raises the value named `name` to at least `value`. Like
    /// [`Registry::add`], `max` is commutative, so concurrent exporters
    /// (e.g. parallel simulation cells each publishing a high-water mark)
    /// produce the same final value under any interleaving.
    pub fn set_max(&self, name: &str, value: u64) {
        self.update(name, |v| *v = (*v).max(value));
    }

    /// A point-in-time copy of every value, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            entries: self.cells().iter().map(|(n, &v)| (n.clone(), v)).collect(),
        }
    }

    /// Applies `f` to the value named `name`, registered at zero on first
    /// use, under the lock.
    fn update(&self, name: &str, f: impl FnOnce(&mut u64)) {
        f(self.cells().entry(name.to_string()).or_default());
    }

    /// The table. An update completes or aborts, so a panic elsewhere
    /// cannot leave it half updated and a poisoned lock is taken as is.
    fn cells(&self) -> MutexGuard<'_, BTreeMap<String, u64>> {
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

    /// True if no value was ever registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let reg = Registry::new();
        reg.add("a", 1);
        reg.add("a", 4);
        assert_eq!(reg.snapshot().get("a"), Some(5), "same name, same value");
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
        assert_eq!(snap.entries(), []);
    }

    #[test]
    fn concurrent_adds_sum_deterministically() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reg = reg.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        reg.add("n", 1);
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().get("n"), Some(4000));
    }
}
