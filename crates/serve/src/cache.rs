//! Memoized scenario results, keyed by the canonical config string.
//!
//! Two-level: the map lock is held only to look up a per-key cell, and
//! concurrent requests for the *same* key block on that cell's `OnceLock`
//! instead of running the scenario twice, while different keys proceed
//! independently. The cache is instance-owned (each server has its own)
//! and bounded: at `capacity` distinct scenarios an arbitrary existing
//! entry is evicted, so memory stays bounded under key churn.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

type Cell = Arc<OnceLock<Result<Arc<String>, String>>>;

/// Hit/miss/size counters of one [`ScenarioCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Scenarios actually computed.
    pub misses: u64,
    /// Entries currently resident.
    pub len: u64,
}

/// A bounded, memoizing map from canonical config string to serialized
/// scenario result.
pub struct ScenarioCache {
    map: Mutex<HashMap<String, Cell>>,
    hits: AtomicU64,
    misses: AtomicU64,
    capacity: usize,
}

impl ScenarioCache {
    /// A cache holding at most `capacity` scenario results (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ScenarioCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// Returns the cached result for `key`, computing and inserting it on
    /// a miss. The boolean is `true` on a hit. A failed computation is
    /// reported to this caller (and any caller racing on the same cell)
    /// but not retained, so a transient failure does not poison the key.
    pub fn get_or_compute<F>(&self, key: &str, compute: F) -> (Result<Arc<String>, String>, bool)
    where
        F: FnOnce() -> Result<String, String>,
    {
        let cell = {
            let mut map = self.map.lock().expect("cache poisoned");
            if let Some(cell) = map.get(key) {
                Arc::clone(cell)
            } else {
                if map.len() >= self.capacity {
                    // Arbitrary eviction: correctness only needs
                    // boundedness, and the steady workload (a small set of
                    // hot scenarios) rarely reaches capacity at all.
                    if let Some(victim) = map.keys().next().cloned() {
                        map.remove(&victim);
                    }
                }
                let cell: Cell = Arc::new(OnceLock::new());
                map.insert(key.to_string(), Arc::clone(&cell));
                cell
            }
        };

        let mut computed = false;
        let result = cell
            .get_or_init(|| {
                computed = true;
                self.misses.fetch_add(1, Ordering::Relaxed);
                compute().map(Arc::new)
            })
            .clone();
        if computed {
            if result.is_err() {
                // Drop the failed cell (only if it is still ours) so the
                // next request retries instead of replaying the error.
                let mut map = self.map.lock().expect("cache poisoned");
                if map.get(key).is_some_and(|c| Arc::ptr_eq(c, &cell)) {
                    map.remove(key);
                }
            }
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        (result, !computed)
    }

    /// Whether `key` has a cell, resident or still being computed, without
    /// counting a hit or creating a cell. A simulate job asks this to skip
    /// later sites another request already answers.
    pub fn contains(&self, key: &str) -> bool {
        self.map.lock().expect("cache poisoned").contains_key(key)
    }

    /// Snapshot of the hit/miss counters and resident entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            len: self.map.lock().expect("cache poisoned").len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_lookup_hits_and_returns_the_same_value() {
        let cache = ScenarioCache::new(8);
        let (a, hit_a) = cache.get_or_compute("k", || Ok("value".into()));
        let (b, hit_b) = cache.get_or_compute("k", || panic!("must not recompute"));
        assert!(!hit_a);
        assert!(hit_b);
        assert_eq!(*a.unwrap(), *b.unwrap());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }

    #[test]
    fn capacity_bounds_resident_entries() {
        let cache = ScenarioCache::new(3);
        for i in 0..10 {
            let key = format!("k{i}");
            let (r, _) = cache.get_or_compute(&key, || Ok(format!("v{i}")));
            r.unwrap();
        }
        assert!(cache.stats().len <= 3);
        assert_eq!(cache.stats().misses, 10);
    }

    #[test]
    fn failed_computations_are_not_retained() {
        let cache = ScenarioCache::new(8);
        let (r, hit) = cache.get_or_compute("k", || Err("boom".into()));
        assert_eq!(r.unwrap_err(), "boom");
        assert!(!hit);
        let (r, hit) = cache.get_or_compute("k", || Ok("fine".into()));
        assert_eq!(*r.unwrap(), "fine");
        assert!(!hit, "retry after failure is a fresh miss");
        assert_eq!(cache.stats().len, 1);
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        let cache = std::sync::Arc::new(ScenarioCache::new(8));
        let computations = std::sync::Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = std::sync::Arc::clone(&cache);
                let computations = std::sync::Arc::clone(&computations);
                std::thread::spawn(move || {
                    let (r, _) = cache.get_or_compute("shared", || {
                        computations.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        Ok("once".into())
                    });
                    r.unwrap()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(*h.join().unwrap(), "once");
        }
        assert_eq!(computations.load(Ordering::SeqCst), 1);
        assert_eq!(cache.stats().misses, 1);
    }
}
