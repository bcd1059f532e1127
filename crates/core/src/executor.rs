//! The deterministic work pool every parallel phase shares.
//!
//! Workers (the calling thread plus scoped helpers) self-schedule: each
//! claims the next unclaimed item index from an atomic counter, so a
//! slow item never stalls the queue behind it. Results come back in item order whatever the thread
//! count or the finishing order, so a caller whose items are
//! self-contained sees the same `Vec` at any width. Three callers use
//! it: `SimTransport`'s client jobs (in `adaptivefl-comm`), the
//! `(level, batch)` units of every method's evaluation
//! ([`methods`](crate::methods)), and the sweep's cells
//! (`adaptivefl-bench`'s `run_parallel`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `work(i, item)` for every item on up to `threads` workers and
/// returns the results in item order.
///
/// The calling thread is one of the workers: `threads <= 1` (or a
/// single item) runs every item inline, and wider pools spawn
/// `threads - 1` scoped helpers.
///
/// # Panics
///
/// Re-raises a panicking item's panic once every worker has stopped.
pub fn map_ordered<T, R, F>(items: Vec<T>, threads: usize, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    map_ordered_with(items, threads, || (), |_, i, item| work(i, item))
}

/// [`map_ordered`] with per-worker state: every worker, the calling
/// thread included, builds one `S` with `state` and hands it to each
/// item it runs. The state must not change any result, only what a
/// worker can reuse between items, such as a loaded network.
///
/// # Panics
///
/// As [`map_ordered`].
pub fn map_ordered_with<S, T, R, I, F>(items: Vec<T>, threads: usize, state: I, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.clamp(1, n.max(1));
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    // Claims items until none are left; the calling thread is one of
    // the workers.
    let claim = || {
        let mut s = state();
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else {
                return out;
            };
            let item = slot
                .lock()
                .expect("item slot poisoned")
                .take()
                .expect("every item is claimed once");
            out.push((i, work(&mut s, i, item)));
        }
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let mut done = claim();
        for h in helpers {
            done.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    assert_eq!(done.len(), n, "every item must report a result");
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn out_of_order_finishes_return_in_item_order() {
        // Early items sleep longest, so later items finish first.
        let items: Vec<u64> = (0..12).collect();
        for threads in [1, 2, 3, 5] {
            let got = map_ordered(items.clone(), threads, |i, v| {
                std::thread::sleep(Duration::from_millis(12 - v));
                (i, v * v)
            });
            let want: Vec<(usize, u64)> = (0..12).map(|v| (v as usize, v * v)).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn per_worker_state_is_built_once_per_worker() {
        let items: Vec<usize> = (0..40).collect();
        for threads in [1, 2, 3, 8] {
            let inits = AtomicUsize::new(0);
            let got = map_ordered_with(
                items.clone(),
                threads,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, _, v| v * 3,
            );
            assert_eq!(got, (0..40).map(|v| v * 3).collect::<Vec<_>>());
            assert!(inits.into_inner() <= threads, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_oversized_pools_are_fine() {
        assert!(map_ordered(Vec::<u8>::new(), 4, |_, v| v).is_empty());
        assert_eq!(
            map_ordered(vec![1u8, 2, 3], 16, |_, v| v * 2),
            vec![2, 4, 6]
        );
        assert_eq!(map_ordered(vec![7u8], 0, |i, v| (i, v)), vec![(0, 7)]);
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn a_panicking_item_propagates() {
        map_ordered((0..9).collect(), 3, |_, v: usize| {
            assert_ne!(v, 5, "item 5 failed");
            v
        });
    }
}
