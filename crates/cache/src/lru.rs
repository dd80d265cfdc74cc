//! A general-purpose O(1) LRU cache.

use std::hash::Hash;

use mhd_hash::FxHashMap;

/// Slab slot index; `NONE` is the list terminator.
type Idx = u32;
const NONE: Idx = u32::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: Idx,
    next: Idx,
}

/// A fixed-capacity least-recently-used cache.
///
/// All operations are O(1): a hash map locates the slab slot, and an
/// intrusive doubly-linked list through the slab maintains recency order.
/// Inserting into a full cache evicts and returns the least-recently-used
/// entry so the caller can write back dirty state.
///
/// ```
/// use mhd_cache::LruCache;
///
/// let mut cache = LruCache::new(2);
/// cache.insert("a", 1);
/// cache.insert("b", 2);
/// cache.get(&"a");                            // touch: "b" is now LRU
/// let evicted = cache.insert("c", 3);
/// assert_eq!(evicted, Some(("b", 2)));
/// ```
pub struct LruCache<K, V> {
    map: FxHashMap<K, Idx>,
    slab: Vec<Node<K, V>>,
    head: Idx, // most recently used
    tail: Idx, // least recently used
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruCache {
            map: FxHashMap::default(),
            slab: Vec::with_capacity(capacity.min(1024)),
            head: NONE,
            tail: NONE,
            capacity,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Detaches `idx` from the recency list.
    fn unlink(&mut self, idx: Idx) {
        let (prev, next) = {
            let n = &self.slab[idx as usize];
            (n.prev, n.next)
        };
        if prev != NONE {
            self.slab[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NONE {
            self.slab[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Links `idx` at the head (most recently used).
    fn link_front(&mut self, idx: Idx) {
        self.slab[idx as usize].prev = NONE;
        self.slab[idx as usize].next = self.head;
        if self.head != NONE {
            self.slab[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NONE {
            self.tail = idx;
        }
    }

    /// Looks up `key`, marking it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.link_front(idx);
        Some(&self.slab[idx as usize].value)
    }

    /// Mutable lookup, marking the entry most recently used.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.link_front(idx);
        Some(&mut self.slab[idx as usize].value)
    }

    /// Lookup without touching recency (for read-only inspection).
    pub fn peek(&self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        Some(&self.slab[idx as usize].value)
    }

    /// Mutable lookup without touching recency.
    pub fn peek_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = *self.map.get(key)?;
        Some(&mut self.slab[idx as usize].value)
    }

    /// Whether `key` is resident (no recency update).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts `key → value`, returning the evicted LRU entry when the
    /// cache was full, or the previous value when the key was already
    /// resident.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            let old = std::mem::replace(&mut self.slab[idx as usize].value, value);
            self.unlink(idx);
            self.link_front(idx);
            return Some((key, old));
        }
        let evicted = if self.map.len() == self.capacity { self.pop_lru() } else { None };
        // The slab is kept dense by swap_remove, so the next slot is always
        // the end.
        let idx = self.slab.len() as Idx;
        self.slab.push(Node { key: key.clone(), value, prev: NONE, next: NONE });
        self.map.insert(key, idx);
        self.link_front(idx);
        evicted
    }

    /// Removes the already-unlinked slot `idx` from the slab, keeping the
    /// slab dense via swap_remove and fixing up the map entry and list
    /// links of the element that moved into the hole.
    fn take_slot(&mut self, idx: Idx) -> Node<K, V> {
        let node = self.slab.swap_remove(idx as usize);
        let moved_from = self.slab.len() as Idx;
        if idx != moved_from {
            // The element formerly at `moved_from` now lives at `idx`.
            let (moved_key, prev, next) = {
                let m = &self.slab[idx as usize];
                (m.key.clone(), m.prev, m.next)
            };
            *self.map.get_mut(&moved_key).expect("moved key must be resident") = idx;
            if prev != NONE {
                self.slab[prev as usize].next = idx;
            } else if self.head == moved_from {
                self.head = idx;
            }
            if next != NONE {
                self.slab[next as usize].prev = idx;
            } else if self.tail == moved_from {
                self.tail = idx;
            }
        }
        node
    }

    /// Removes and returns the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NONE {
            return None;
        }
        let idx = self.tail;
        self.unlink(idx);
        let node = self.take_slot(idx);
        self.map.remove(&node.key);
        Some((node.key, node.value))
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        let node = self.take_slot(idx);
        self.map.remove(&node.key);
        Some(node.value)
    }

    /// Drains every entry, LRU-first (used for final dirty write-back).
    pub fn drain_lru_first(&mut self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(kv) = self.pop_lru() {
            out.push(kv);
        }
        out
    }

    /// Iterates over resident `(key, value)` pairs in arbitrary order,
    /// without touching recency.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slab.iter().map(|n| (&n.key, &n.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_insert_get() {
        let mut c = LruCache::new(2);
        assert!(c.insert(1, "a").is_none());
        assert!(c.insert(2, "b").is_none());
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.get(&1); // 2 is now LRU
        let evicted = c.insert(3, "c");
        assert_eq!(evicted, Some((2, "b")));
        assert!(c.contains(&1));
        assert!(c.contains(&3));
    }

    #[test]
    fn reinsert_updates_value_and_recency() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.insert(1, "a2"), Some((1, "a")));
        // 2 is LRU now.
        assert_eq!(c.insert(3, "c"), Some((2, "b")));
        assert_eq!(c.peek(&1), Some(&"a2"));
    }

    #[test]
    fn peek_does_not_touch() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.peek(&1);
        assert_eq!(c.insert(3, "c"), Some((1, "a")));
    }

    #[test]
    fn peek_mut_writes_without_touching() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        *c.peek_mut(&1).unwrap() = "a2";
        assert!(c.peek_mut(&3).is_none());
        assert_eq!(c.insert(3, "c"), Some((1, "a2")));
    }

    #[test]
    fn remove_and_capacity_one() {
        let mut c = LruCache::new(1);
        c.insert(1, "a");
        assert_eq!(c.insert(2, "b"), Some((1, "a")));
        assert_eq!(c.remove(&2), Some("b"));
        assert!(c.is_empty());
        assert_eq!(c.remove(&2), None);
        c.insert(3, "c");
        assert_eq!(c.peek(&3), Some(&"c"));
    }

    #[test]
    fn drain_is_lru_first() {
        let mut c = LruCache::new(3);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(3, "c");
        c.get(&1);
        let order: Vec<i32> = c.drain_lru_first().into_iter().map(|(k, _)| k).collect();
        assert_eq!(order, vec![2, 3, 1]);
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _: LruCache<u32, ()> = LruCache::new(0);
    }

    /// Model-based test: compare against a naive Vec-based LRU.
    #[derive(Default)]
    struct Model {
        entries: Vec<(u8, u16)>, // most recent last
        capacity: usize,
    }

    impl Model {
        fn get(&mut self, k: u8) -> Option<u16> {
            let pos = self.entries.iter().position(|&(ek, _)| ek == k)?;
            let e = self.entries.remove(pos);
            self.entries.push(e);
            Some(e.1)
        }
        fn insert(&mut self, k: u8, v: u16) -> Option<(u8, u16)> {
            if let Some(pos) = self.entries.iter().position(|&(ek, _)| ek == k) {
                let old = self.entries.remove(pos);
                self.entries.push((k, v));
                return Some(old);
            }
            let evicted = if self.entries.len() == self.capacity {
                Some(self.entries.remove(0))
            } else {
                None
            };
            self.entries.push((k, v));
            evicted
        }
        fn remove(&mut self, k: u8) -> Option<u16> {
            let pos = self.entries.iter().position(|&(ek, _)| ek == k)?;
            Some(self.entries.remove(pos).1)
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get(u8),
        Insert(u8, u16),
        Remove(u8),
        PopLru,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u8>()).prop_map(Op::Get),
            (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (any::<u8>()).prop_map(Op::Remove),
            Just(Op::PopLru),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_matches_reference_model(
            ops in proptest::collection::vec(op_strategy(), 1..200),
            capacity in 1usize..8,
        ) {
            let mut real: LruCache<u8, u16> = LruCache::new(capacity);
            let mut model = Model { entries: vec![], capacity };
            for op in ops {
                match op {
                    Op::Get(k) => {
                        prop_assert_eq!(real.get(&k).copied(), model.get(k));
                    }
                    Op::Insert(k, v) => {
                        prop_assert_eq!(real.insert(k, v), model.insert(k, v));
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(real.remove(&k), model.remove(k));
                    }
                    Op::PopLru => {
                        let expect = if model.entries.is_empty() {
                            None
                        } else {
                            Some(model.entries.remove(0))
                        };
                        prop_assert_eq!(real.pop_lru(), expect);
                    }
                }
                prop_assert_eq!(real.len(), model.entries.len());
                prop_assert!(real.len() <= capacity);
            }
        }
    }
}
