//! A small least-recently-used cache for repeated query aggregates.
//!
//! The `rtbhd` server answers many *identical* queries (dashboards poll
//! the same event windows, operators re-run the same per-prefix drill
//! downs), so [`crate::serve`] keeps the serialized response of the most
//! recent distinct queries behind a [`Lru`]. The cache is deliberately
//! tiny and boring: a `HashMap` plus a monotonic access counter, evicting
//! the stalest entry by linear scan on overflow. Capacities here are a
//! few hundred entries, where the O(capacity) evict is noise next to the
//! query it short-circuits — and the simple structure keeps the hot `get`
//! path to one hash probe.
//!
//! Shared values go in as `Arc<V>` clones at the call site (the cache
//! itself is value-agnostic); interior mutability and locking are the
//! caller's concern, matching the server's one-mutex design.
//!
//! ```
//! use rtbh_core::lru::Lru;
//!
//! let mut cache: Lru<&'static str, u32> = Lru::new(2);
//! cache.insert("a", 1);
//! cache.insert("b", 2);
//! assert_eq!(cache.get(&"a"), Some(&1)); // refreshes "a"
//! cache.insert("c", 3); // evicts "b", the least recently used
//! assert_eq!(cache.get(&"b"), None);
//! assert_eq!(cache.len(), 2);
//! ```

use std::collections::HashMap;
use std::hash::Hash;

/// A bounded map evicting the least-recently-used entry on overflow.
#[derive(Debug)]
pub struct Lru<K, V> {
    capacity: usize,
    tick: u64,
    map: HashMap<K, (V, u64)>,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// Creates a cache holding at most `capacity` entries. A zero
    /// capacity is clamped to one — a cache that can hold nothing would
    /// turn every insert into an immediate self-evict. The capacity is
    /// only a bound: the map starts empty and grows with its entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(v, at)| {
            *at = tick;
            &*v
        })
    }

    /// Inserts (or replaces) `key`, evicting the least-recently-used
    /// entry if the cache is full. Returns the evicted key, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        self.tick += 1;
        let tick = self.tick;
        let mut evicted = None;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(stalest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, at))| *at)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&stalest);
                evicted = Some(stalest);
            }
        }
        self.map.insert(key, (value, tick));
        evicted
    }

    /// Drops every entry (capacity unchanged).
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used_counting_gets() {
        let mut lru = Lru::new(3);
        lru.insert(1, "one");
        lru.insert(2, "two");
        lru.insert(3, "three");
        // Touch 1 and 2; 3 becomes the stalest.
        assert_eq!(lru.get(&1), Some(&"one"));
        assert_eq!(lru.get(&2), Some(&"two"));
        assert_eq!(lru.insert(4, "four"), Some(3));
        assert_eq!(lru.get(&3), None);
        assert_eq!(lru.len(), 3);
    }

    #[test]
    fn replacing_a_key_never_evicts() {
        let mut lru = Lru::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.insert("a", 10), None);
        assert_eq!(lru.get(&"a"), Some(&10));
        assert_eq!(lru.get(&"b"), Some(&2));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut lru = Lru::new(0);
        assert_eq!(lru.capacity(), 1);
        lru.insert(1, ());
        assert_eq!(lru.insert(2, ()), Some(1));
        assert_eq!(lru.len(), 1);
        assert!(lru.get(&2).is_some());
    }

    #[test]
    fn a_usize_max_capacity_is_a_bound_not_an_allocation() {
        // `rtbhd --cache 18446744073709551615` reaches this constructor.
        let mut lru = Lru::new(usize::MAX);
        assert_eq!(lru.capacity(), usize::MAX);
        for i in 0..1_000 {
            assert_eq!(lru.insert(i, i), None, "nothing evicts below the bound");
        }
        assert_eq!(lru.len(), 1_000);
        assert_eq!(lru.get(&0), Some(&0));
        assert_eq!(lru.insert(0, 7), None, "replacing never evicts");
        assert_eq!(lru.get(&0), Some(&7));
        assert_eq!(lru.len(), 1_000);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut lru = Lru::new(4);
        for i in 0..4 {
            lru.insert(i, i);
        }
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.capacity(), 4);
        lru.insert(9, 9);
        assert_eq!(lru.get(&9), Some(&9));
    }

    #[test]
    fn eviction_order_is_exact_over_a_long_sequence() {
        let mut lru = Lru::new(8);
        for i in 0..64u32 {
            lru.insert(i, i);
            assert!(lru.len() <= 8);
        }
        // Exactly the last 8 inserts survive.
        for i in 0..56 {
            assert_eq!(lru.get(&i), None, "key {i} should have been evicted");
        }
        for i in 56..64 {
            assert_eq!(lru.get(&i), Some(&i));
        }
    }
}
