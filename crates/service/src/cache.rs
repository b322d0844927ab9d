//! A small bounded LRU cache, and the internally-locked form
//! (`LockedCache`) the service shares it in.
//!
//! Both service caches (per-template Error–Latency Profiles and
//! canonical-query results) are capped at a few hundred entries, so this
//! uses a plain `HashMap` with monotonic access stamps and an `O(n)`
//! eviction scan — no unsafe, no intrusive lists, and `n` is the cache
//! capacity, not the workload size.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard};

/// Bounded LRU map.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    clock: u64,
    map: HashMap<K, (V, u64)>,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (`capacity`
    /// 0 disables caching: every insert is dropped).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            clock: 0,
            map: HashMap::with_capacity(capacity.min(1024)),
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, refreshing its recency.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        match self.map.get_mut(key) {
            Some((v, stamp)) => {
                *stamp = clock;
                Some(&*v)
            }
            None => None,
        }
    }

    /// Iterates `(key, value)` pairs in unspecified order without
    /// touching recency. Used to snapshot the ELP cache into a durable
    /// checkpoint.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, (v, _))| (k, v))
    }

    /// Drops every entry the predicate rejects, returning how many were
    /// removed. Used to purge entries stamped with a superseded data
    /// epoch when a new snapshot is published.
    pub fn retain(&mut self, mut pred: impl FnMut(&K, &V) -> bool) -> usize {
        let before = self.map.len();
        self.map.retain(|k, (v, _)| pred(k, v));
        before - self.map.len()
    }

    /// Inserts `key → value`, evicting the least-recently-used entry on
    /// overflow. Returns the evicted value, if any.
    pub fn put(&mut self, key: K, value: V) -> Option<V> {
        if self.capacity == 0 {
            return Some(value);
        }
        self.clock += 1;
        let stamp = self.clock;
        let mut evicted = None;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, (_, s))| *s)
                .map(|(k, _)| k.clone())
            {
                evicted = self.map.remove(&lru).map(|(v, _)| v);
            }
        }
        self.map.insert(key, (value, stamp));
        evicted
    }
}

/// An [`LruCache`] behind its own mutex: the form both service caches
/// are shared in. Every operation is one short critical section, and
/// lookups hand out clones (both caches hold cheap `Arc`/plain-data
/// values), so no guard ever escapes to a caller.
#[derive(Debug)]
pub(crate) struct LockedCache<K, V>(Mutex<LruCache<K, V>>);

impl<K: Eq + Hash + Clone, V: Clone> LockedCache<K, V> {
    pub(crate) fn new(capacity: usize) -> Self {
        LockedCache(Mutex::new(LruCache::new(capacity)))
    }

    /// The one lock site. `LruCache` operations do not call out to code
    /// that can panic mid-update (`retain`/`map_entries` closures only
    /// read), so the map is consistent whenever the lock is free.
    fn lock(&self) -> MutexGuard<'_, LruCache<K, V>> {
        self.0
            .lock()
            .expect("cache lock poisoned: a thread panicked while holding it")
    }

    /// [`LruCache::get`], returning a clone of the cached value.
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        self.lock().get(key).cloned()
    }

    /// [`LruCache::put`].
    pub(crate) fn put(&self, key: K, value: V) {
        self.lock().put(key, value);
    }

    /// [`LruCache::retain`]: drops rejected entries, returns how many.
    pub(crate) fn retain(&self, pred: impl FnMut(&K, &V) -> bool) -> usize {
        self.lock().retain(pred)
    }

    /// Maps every `(key, value)` pair under one lock acquisition, in
    /// unspecified order, without touching recency.
    pub(crate) fn map_entries<R>(&self, mut f: impl FnMut(&K, &V) -> R) -> Vec<R> {
        self.lock().iter().map(|(k, v)| f(k, v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // refresh a; b is now LRU
        c.put("c", 3);
        assert_eq!(c.get(&"b"), None, "b was evicted");
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinserting_updates_in_place() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        c.put("a", 10);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&"a"), Some(&10));
    }

    #[test]
    fn retain_drops_rejected_entries() {
        let mut c = LruCache::new(8);
        for i in 0..6 {
            c.put(i, i * 10);
        }
        let removed = c.retain(|&k, _| k % 2 == 0);
        assert_eq!(removed, 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&2), Some(&20));
        assert_eq!(c.get(&3), None);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut c = LruCache::new(0);
        assert_eq!(c.put("a", 1), Some(1));
        assert_eq!(c.get(&"a"), None);
        assert!(c.is_empty());
    }
}
