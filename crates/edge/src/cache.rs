//! LRU cache with hit/miss accounting.
//!
//! Snapshot reads are keyed by `(Key, BatchNum)` and immutable once
//! committed, so cache entries never need invalidation — only eviction
//! for capacity. The recency index is a `BTreeMap` keyed by a monotonic
//! tick, giving `O(log n)` touch/evict without unsafe code.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// Counters the harnesses read to judge cache effectiveness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
}

impl transedge_obs::RegisterMetrics for CacheStats {
    fn register_metrics(&self, scope: &str, reg: &mut transedge_obs::MetricRegistry) {
        reg.counter(scope, "cache.hits", self.hits);
        reg.counter(scope, "cache.misses", self.misses);
        reg.counter(scope, "cache.insertions", self.insertions);
        reg.counter(scope, "cache.evictions", self.evictions);
    }
}

impl CacheStats {
    /// Hit fraction in [0, 1]; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded least-recently-used map.
#[derive(Clone, Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    /// key → (recency tick, value)
    map: HashMap<K, (u64, V)>,
    /// recency tick → key (oldest first)
    recency: BTreeMap<u64, K>,
    tick: u64,
    pub stats: CacheStats,
}

impl<K: Clone + Eq + Hash, V> LruCache<K, V> {
    /// `capacity` of 0 disables caching (every get is a miss).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Look up `key`, bumping its recency and the hit/miss counters.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let tick = self.next_tick();
        match self.map.get_mut(key) {
            Some((when, _)) => {
                self.recency.remove(when);
                *when = tick;
                self.recency.insert(tick, key.clone());
                self.stats.hits += 1;
                self.map.get(key).map(|(_, v)| v)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Look up without touching recency or counters.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(_, v)| v)
    }

    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Insert (or refresh) an entry, evicting the least recently used
    /// entry if over capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        let tick = self.next_tick();
        if let Some((when, _)) = self.map.get(&key) {
            self.recency.remove(when);
        } else {
            self.stats.insertions += 1;
        }
        self.map.insert(key.clone(), (tick, value));
        self.recency.insert(tick, key);
        while self.map.len() > self.capacity {
            let (&oldest, _) = self.recency.iter().next().expect("recency tracks map");
            let victim = self.recency.remove(&oldest).expect("tick present");
            self.map.remove(&victim);
            self.stats.evictions += 1;
        }
    }

    /// Drop one entry, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (when, value) = self.map.remove(key)?;
        self.recency.remove(&when);
        Some(value)
    }

    /// Drop every entry for which `pred` returns false.
    pub fn retain(&mut self, mut pred: impl FnMut(&K, &V) -> bool) {
        let recency = &mut self.recency;
        self.map.retain(|k, (when, v)| {
            let keep = pred(k, v);
            if !keep {
                recency.remove(when);
            }
            keep
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_misses_and_counters() {
        let mut c: LruCache<u32, &str> = LruCache::new(4);
        assert_eq!(c.get(&1), None);
        c.insert(1, "one");
        assert_eq!(c.get(&1), Some(&"one"));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
        assert_eq!(c.stats.insertions, 1);
        assert!((c.stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(3);
        for i in 0..3 {
            c.insert(i, i * 10);
        }
        // Touch 0 so 1 becomes the LRU.
        assert_eq!(c.get(&0), Some(&0));
        c.insert(3, 30);
        assert!(c.contains(&0));
        assert!(!c.contains(&1), "LRU entry 1 must be evicted");
        assert!(c.contains(&2));
        assert!(c.contains(&3));
        assert_eq!(c.stats.evictions, 1);
    }

    #[test]
    fn reinsert_refreshes_without_growth() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(1, 11);
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(&1), Some(&11));
        assert_eq!(c.stats.insertions, 1, "refresh is not a new insertion");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        c.insert(1, 10);
        assert_eq!(c.get(&1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn remove_drops_one_entry_and_its_recency_slot() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.remove(&1), Some(10));
        assert_eq!(c.remove(&1), None);
        // The freed slot is reusable without evicting the survivor.
        c.insert(3, 30);
        assert!(c.contains(&2) && c.contains(&3));
        assert_eq!(c.stats.evictions, 0);
    }

    #[test]
    fn retain_drops_entries() {
        let mut c: LruCache<u32, u32> = LruCache::new(8);
        for i in 0..6 {
            c.insert(i, i);
        }
        c.retain(|k, _| k % 2 == 0);
        assert_eq!(c.len(), 3);
        assert!(c.contains(&0) && c.contains(&2) && c.contains(&4));
        // Eviction order still works after retain.
        c.insert(10, 10);
        c.insert(11, 11);
        assert_eq!(c.len(), 5);
    }
}
