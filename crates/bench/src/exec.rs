//! Deterministic parallel experiment executor.
//!
//! The figures and tables are sweeps over independent simulation cells
//! (one disk config + workload spec per cell). [`Executor::run`] fans those
//! cells across a scoped worker pool and merges the results **in submission
//! order**, so a figure's output is byte-identical at any thread count:
//!
//! * every job receives its submission index and must not print;
//! * workers pull `(index, item)` pairs from a shared queue, so imbalanced
//!   cells don't serialize behind one thread;
//! * the merged `Vec` is sorted by index before it is returned, and the
//!   caller prints from it sequentially.
//!
//! Determinism of the *values* (not just the ordering) holds because each
//! cell builds its own `Disk` and every workload seeds its own RNG from the
//! spec — a freshly built disk is in exactly the power-on state that
//! `Disk::reset` restores between sequential cells.

use std::collections::VecDeque;
use std::sync::Mutex;

/// A fixed-width worker pool over scoped threads.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// A pool of `threads` workers; `1` runs jobs inline (legacy
    /// sequential behaviour, bit-for-bit).
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// Runs `job` over every item and returns the results in item order.
    ///
    /// `job` is called exactly once per item with `(submission_index,
    /// item)`. Jobs must be independent and must not print — ordering of
    /// side effects across workers is not defined, only the returned `Vec`
    /// is.
    pub fn run<I, T, F>(&self, items: Vec<I>, job: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| job(i, item))
                .collect();
        }

        let count = items.len();
        let queue: Mutex<VecDeque<(usize, I)>> =
            Mutex::new(items.into_iter().enumerate().collect());
        let mut indexed: Vec<(usize, T)> = Vec::with_capacity(count);

        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let queue = &queue;
                    let job = &job;
                    s.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let next = queue.lock().unwrap().pop_front();
                            match next {
                                Some((idx, item)) => done.push((idx, job(idx, item))),
                                None => return done,
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                indexed.extend(h.join().expect("executor worker panicked"));
            }
        });

        indexed.sort_by_key(|(idx, _)| *idx);
        debug_assert_eq!(indexed.len(), count);
        indexed.into_iter().map(|(_, result)| result).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_item_order_at_any_width() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 128] {
            let got = Executor::new(threads).run(items.clone(), |_, x| x * x);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn runs_every_job_exactly_once_with_its_index() {
        let calls = AtomicUsize::new(0);
        let got = Executor::new(4).run(vec!["a", "b", "c", "d", "e"], |idx, item| {
            calls.fetch_add(1, Ordering::Relaxed);
            format!("{idx}:{item}")
        });
        assert_eq!(calls.load(Ordering::Relaxed), 5);
        assert_eq!(got, ["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn empty_and_single_item_runs() {
        let none: Vec<u8> = Executor::new(8).run(Vec::new(), |_, x: u8| x);
        assert!(none.is_empty());
        assert_eq!(Executor::new(8).run(vec![7u8], |_, x| x + 1), [8]);
    }
}
