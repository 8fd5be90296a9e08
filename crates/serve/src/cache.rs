//! LRU result cache.
//!
//! Every registered solver is deterministic given (instance, seed), so
//! a completed solve can be replayed from memory: the cache maps the
//! canonical [`job_key`](crate::hash::job_key) to the stored mapping
//! and cost, and a repeat submission returns in microseconds with a
//! byte-identical mapping. Deadline-truncated results are *not* cached
//! by the daemon — a truncated search depends on wall-clock timing, so
//! caching it would leak nondeterminism into later identical requests.
//!
//! Recency is tracked with a monotonic stamp per entry; eviction scans
//! for the minimum stamp. That is O(capacity) per eviction, which is
//! irrelevant at daemon cache sizes (hundreds of entries, microseconds
//! per scan) and keeps the structure a plain `HashMap` — no intrusive
//! linked list and no raw pointers.

use std::collections::HashMap;

/// A cached solve result.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// The stored task→resource assignment.
    pub mapping: Vec<usize>,
    /// Its execution time (ET, Eq. 2).
    pub cost: f64,
    /// Display name of the solver that produced it.
    pub algo: String,
}

#[derive(Debug)]
struct Entry {
    value: CachedResult,
    stamp: u64,
}

/// A fixed-capacity least-recently-used map from job key to result.
#[derive(Debug)]
pub struct LruCache {
    map: HashMap<u64, Entry>,
    cap: usize,
    clock: u64,
}

impl LruCache {
    /// An empty cache holding at most `cap` entries. `cap == 0`
    /// disables caching (every `get` misses, every `put` is dropped).
    pub fn new(cap: usize) -> Self {
        LruCache {
            map: HashMap::with_capacity(cap.min(1024)),
            cap,
            clock: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up a key, refreshing its recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<CachedResult> {
        self.clock += 1;
        let stamp = self.clock;
        self.map.get_mut(&key).map(|e| {
            e.stamp = stamp;
            e.value.clone()
        })
    }

    /// Insert (or refresh) a key, evicting the least-recently-used
    /// entry when over capacity. Returns `true` when an entry was
    /// evicted to make room — the signal behind the daemon's
    /// `match_serve_cache_evictions_total` metric.
    pub fn put(&mut self, key: u64, value: CachedResult) -> bool {
        if self.cap == 0 {
            return false;
        }
        self.clock += 1;
        let stamp = self.clock;
        self.map.insert(key, Entry { value, stamp });
        if self.map.len() > self.cap {
            if let Some(&oldest) = self.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| k) {
                self.map.remove(&oldest);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(tag: usize) -> CachedResult {
        CachedResult {
            mapping: vec![tag, tag + 1],
            cost: tag as f64,
            algo: "t".into(),
        }
    }

    #[test]
    fn hit_returns_stored_value() {
        let mut c = LruCache::new(4);
        assert!(c.get(1).is_none());
        c.put(1, result(7));
        assert_eq!(c.get(1), Some(result(7)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        assert!(!c.put(1, result(1)));
        assert!(!c.put(2, result(2)));
        // Touch 1 so 2 becomes the LRU entry.
        assert!(c.get(1).is_some());
        assert!(c.put(3, result(3)), "over capacity must report eviction");
        assert_eq!(c.len(), 2);
        assert!(c.get(1).is_some(), "recently used survives");
        assert!(c.get(2).is_none(), "LRU entry evicted");
        assert!(c.get(3).is_some());
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let mut c = LruCache::new(2);
        c.put(1, result(1));
        c.put(2, result(2));
        c.put(1, result(10)); // refresh + overwrite
        c.put(3, result(3));
        assert_eq!(c.get(1), Some(result(10)));
        assert!(c.get(2).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        c.put(1, result(1));
        assert!(c.get(1).is_none());
        assert!(c.is_empty());
    }
}
