//! The workspace's one parallel map, and the one core count it defaults
//! to.
//!
//! The figures sweep independent simulation cells, and a RAID-5 volume
//! fills and scrubs its stripe rounds in ranges; both fan their items
//! across [`map`] and get the results back **in item order**, so what
//! they print or store is the same at any thread count:
//!
//! * every job receives its item's index and must not print;
//! * workers pull `(index, item)` pairs from one shared queue, so an
//!   imbalanced item does not serialize the rest behind one thread;
//! * the calling thread is one of the workers.

use std::num::NonZeroUsize;
use std::panic;
use std::sync::{Mutex, PoisonError};
use std::thread;

/// How many threads the process may run on in parallel (1 when the
/// platform cannot say).
pub fn cores() -> usize {
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Runs `job(index, item)` once on every item and returns the results in
/// item order.
///
/// With one worker or one item it runs inline, on the calling thread.
/// Otherwise `min(threads, items)` workers pull items from one queue:
/// the calling thread and `min(threads, items) − 1` scoped threads. Jobs
/// must be independent and must not print — the order of side effects
/// across workers is not defined, only the returned `Vec` is. A panicking
/// job panics the caller with its own payload.
pub fn map<I, T, F>(threads: usize, items: Vec<I>, job: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return (items.into_iter().enumerate())
            .map(|(i, item)| job(i, item))
            .collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    // A job runs outside the lock, so the queue is never poisoned.
    let next = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let work = || {
        let mut done = Vec::new();
        while let Some((i, item)) = next() {
            done.push((i, job(i, item)));
        }
        done
    };
    let mut indexed = thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut indexed = work();
        for handle in spawned {
            indexed.extend(handle.join().unwrap_or_else(|e| panic::resume_unwind(e)));
        }
        indexed
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_item_order_at_any_width() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [0, 1, 2, 3, 8, 128] {
            let got = map(threads, items.clone(), |_, x| x * x);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn runs_every_job_exactly_once_with_its_index() {
        let calls = AtomicUsize::new(0);
        let got = map(4, vec!["a", "b", "c", "d", "e"], |idx, item| {
            calls.fetch_add(1, Ordering::Relaxed);
            format!("{idx}:{item}")
        });
        assert_eq!(calls.load(Ordering::Relaxed), 5);
        assert_eq!(got, ["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn empty_and_single_item_runs() {
        let none: Vec<u8> = map(8, Vec::new(), |_, x: u8| x);
        assert!(none.is_empty());
        assert_eq!(map(8, vec![7u8], |_, x| x + 1), [8]);
    }

    #[test]
    fn the_caller_is_a_worker_and_a_panic_keeps_its_payload() {
        // Both jobs wait for each other, so they run on two threads at
        // once, and one of the two is the caller.
        let both = std::sync::Barrier::new(2);
        let ran_on = map(2, vec![(); 2], |_, ()| {
            both.wait();
            thread::current().id()
        });
        assert_ne!(ran_on[0], ran_on[1]);
        assert!(ran_on.contains(&thread::current().id()));
        for threads in [1, 3] {
            let payload = panic::catch_unwind(|| {
                map(threads, (0..8).collect(), |_, i: u32| {
                    if i == 5 {
                        panic::resume_unwind(Box::new(i));
                    }
                })
            })
            .expect_err("job 5 panics");
            assert_eq!(payload.downcast_ref::<u32>(), Some(&5), "threads={threads}");
        }
    }
}
