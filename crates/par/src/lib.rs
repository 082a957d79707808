//! Fork-join parallelism over scoped threads, with a process-wide thread
//! budget so nested [`par_map`] calls do not oversubscribe the machine.
//!
//! This is the workspace's offline substitute for rayon: the experiment
//! driver parallelizes across experiments while individual experiments
//! parallelize their internal sweeps, and both draw extra workers from
//! one shared budget. When the budget is exhausted, `par_map` degrades
//! to an ordinary sequential loop on the calling thread — results are
//! identical either way because outputs are collected by input index.
//!
//! # Examples
//!
//! ```
//! hbm_par::configure_threads(4);
//! let squares = hbm_par::par_map((0..8u64).collect::<Vec<_>>(), |x| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Extra worker threads the whole process may have in flight, beyond the
/// threads that call [`par_map`]. 0 or less means every `par_map` call runs
/// sequentially. It goes negative when [`configure_threads`] lowers the
/// level while leases are out, and comes back up as they return.
static EXTRA_THREAD_BUDGET: AtomicIsize = AtomicIsize::new(0);
static CONFIGURED: AtomicIsize = AtomicIsize::new(0);

/// Sets the process-wide parallelism level to `total` concurrent threads
/// (the caller's own thread counts as one, so `total = 1` disables all
/// worker spawning). Later calls replace earlier ones; the unreleased
/// portion of the old budget carries over proportionally.
pub fn configure_threads(total: usize) {
    let new_extra = total.saturating_sub(1) as isize;
    let old_extra = CONFIGURED.swap(new_extra, Ordering::SeqCst);
    // Adjust the live budget by the delta so in-flight borrows stay sound.
    EXTRA_THREAD_BUDGET.fetch_add(new_extra - old_extra, Ordering::SeqCst);
}

/// A borrow of extra threads from the process-wide budget, returned to
/// the pool on drop.
///
/// [`par_map`] takes short-lived leases per call; long-running consumers
/// (the `hbm-serve` worker pool) hold one for their whole lifetime via
/// [`reserve_threads`], so nested `par_map` calls inside their work items
/// see a correspondingly smaller budget and the process never
/// oversubscribes.
#[derive(Debug)]
pub struct ThreadLease {
    granted: usize,
}

impl ThreadLease {
    fn acquire(want: usize) -> ThreadLease {
        let mut granted = 0;
        while granted < want {
            let cur = EXTRA_THREAD_BUDGET.load(Ordering::SeqCst);
            if cur <= 0 {
                break;
            }
            let take = (cur as usize).min(want - granted) as isize;
            if EXTRA_THREAD_BUDGET
                .compare_exchange(cur, cur - take, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                granted += take as usize;
            }
        }
        ThreadLease { granted }
    }

    /// How many extra threads this lease actually holds (possibly fewer
    /// than requested, down to zero when the budget was exhausted).
    pub fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for ThreadLease {
    fn drop(&mut self) {
        EXTRA_THREAD_BUDGET.fetch_add(self.granted as isize, Ordering::SeqCst);
    }
}

/// Borrows up to `want` extra threads from the global budget for as long
/// as the returned lease lives. Grants whatever is available right now
/// (possibly zero) without blocking; the caller's own thread is not
/// counted and needs no lease.
pub fn reserve_threads(want: usize) -> ThreadLease {
    ThreadLease::acquire(want)
}

/// Applies `f` to every item, in parallel when the thread budget allows,
/// and returns the outputs in input order.
///
/// Work is distributed dynamically (an atomic next-item index), so uneven
/// item costs balance across workers. The calling thread always
/// participates; with an empty budget this is exactly `items.map(f)`.
///
/// Panics in `f` propagate to the caller after all workers stop.
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    if n <= 1 {
        return items.into_iter().map(f).collect();
    }

    let lease = ThreadLease::acquire(n - 1);
    if lease.granted == 0 {
        return items.into_iter().map(f).collect();
    }

    // Hand items out by index; collect (index, output) pairs and reorder.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));

    std::thread::scope(|scope| {
        let worker = || {
            let mut local: Vec<(usize, U)> = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    break;
                }
                let item = slots[i].lock().unwrap().take().expect("item taken twice");
                local.push((i, f(item)));
            }
            out.lock().unwrap().extend(local);
        };
        let handles: Vec<_> = (0..lease.granted).map(|_| scope.spawn(worker)).collect();
        worker();
        for h in handles {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
    });

    drop(lease);
    let mut pairs = out.into_inner().unwrap();
    pairs.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(pairs.len(), n);
    pairs.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::MutexGuard;

    /// The budget is process-global state shared by all #[test] threads:
    /// every test that configures it or takes leases holds this lock, so
    /// each sees only its own leases.
    static BUDGET: Mutex<()> = Mutex::new(());

    fn budget() -> MutexGuard<'static, ()> {
        BUDGET
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn sequential_when_budget_is_zero() {
        let _budget = budget();
        let out = par_map(vec![1, 2, 3], |x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn parallel_results_stay_in_input_order() {
        let _budget = budget();
        configure_threads(4);
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(items, |x| {
            if x % 7 == 0 {
                std::thread::yield_now();
            }
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        let _budget = budget();
        configure_threads(4);
        let out = par_map(vec![0usize, 1, 2], |outer| {
            par_map((0..5usize).collect(), move |inner| outer * 100 + inner)
                .into_iter()
                .sum::<usize>()
        });
        assert_eq!(out, vec![10, 510, 1010]);
    }

    #[test]
    fn budget_is_released_after_use() {
        let _budget = budget();
        configure_threads(3);
        for _ in 0..50 {
            let _ = par_map(vec![1, 2, 3, 4], |x| x + 1);
        }
        // If leases leaked, the budget would be exhausted and this would
        // still work (sequentially) — so instead check the counter itself:
        // with every lease back, it holds the two extra threads of
        // `configure_threads(3)`.
        let extra = super::EXTRA_THREAD_BUDGET.load(Ordering::SeqCst);
        assert_eq!(extra, 2, "every lease must come back");
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let _budget = budget();
        configure_threads(4);
        static HITS: AtomicUsize = AtomicUsize::new(0);
        let out = par_map((0..256usize).collect::<Vec<_>>(), |x| {
            HITS.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(out.len(), 256);
        assert_eq!(out, (0..256).collect::<Vec<_>>());
    }

    #[test]
    fn reserved_threads_come_back_on_drop() {
        let _budget = budget();
        configure_threads(4);
        for _ in 0..20 {
            let lease = reserve_threads(2);
            assert_eq!(lease.granted(), 2);
            assert_eq!(super::EXTRA_THREAD_BUDGET.load(Ordering::SeqCst), 1);
            drop(lease);
            assert_eq!(super::EXTRA_THREAD_BUDGET.load(Ordering::SeqCst), 3);
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let _budget = budget();
        let empty: Vec<u8> = vec![];
        assert!(par_map(empty, |x| x).is_empty());
        assert_eq!(par_map(vec![9], |x| x + 1), vec![10]);
    }
}
