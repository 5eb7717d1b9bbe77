//! A flat, sorted-vector map for small hot-path key spaces.
//!
//! The repositories (local and fleet-shared) key a few dozen entries per
//! tenant or namespace; a `BTreeMap` pays node allocation and pointer-chasing
//! on every probe. `FlatMap` stores `(key, value)` pairs in one contiguous,
//! key-sorted `Vec` and binary-searches it: lookups touch a single cache line
//! or two, iteration is a linear scan, and inserts — rare on these paths —
//! shift the tail. Iteration order is key order, exactly like the `BTreeMap`
//! it replaces, so report output and commit sequences stay byte-identical.

/// A sorted-vector map. Keys must be `Ord + Copy`; values move in and out by
/// value, matching how the repositories use it.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for FlatMap<K, V> {
    fn default() -> Self {
        FlatMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> FlatMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.position(key).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable access to the value stored under `key`, if any.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.position(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Inserts `value` under `key`, returning the previous value if the key
    /// was present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.position(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Returns the value under `key`, inserting `default()` first if absent.
    pub fn get_mut_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let i = match self.position(&key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Removes and returns the value under `key`, if any.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.position(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Keeps only the entries for which `keep` returns true.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates over values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Iterates over values mutably, in key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = FlatMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(3, "c"), None);
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.insert(2, "b"), None);
        assert_eq!(m.insert(2, "B"), Some("b"));
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&2), Some(&"B"));
        assert_eq!(m.get(&9), None);
        assert_eq!(m.remove(&1), Some("a"));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut m = FlatMap::new();
        for k in [5, 1, 4, 2, 3] {
            m.insert(k, k * 10);
        }
        let keys: Vec<i32> = m.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5]);
        let values: Vec<i32> = m.values().copied().collect();
        assert_eq!(values, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn get_mut_or_insert_with_creates_once() {
        let mut m: FlatMap<u32, Vec<u32>> = FlatMap::new();
        m.get_mut_or_insert_with(7, Vec::new).push(1);
        m.get_mut_or_insert_with(7, Vec::new).push(2);
        assert_eq!(m.get(&7), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn retain_filters_entries() {
        let mut m = FlatMap::new();
        for k in 0..10 {
            m.insert(k, k);
        }
        m.retain(|k, _| k % 2 == 0);
        assert_eq!(m.len(), 5);
        assert!(m.get(&3).is_none());
        assert!(m.get(&4).is_some());
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn matches_btreemap_under_random_ops() {
        use std::collections::BTreeMap;
        let mut flat = FlatMap::new();
        let mut tree = BTreeMap::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x % 64) as u32;
            match (x >> 8) % 3 {
                0 => {
                    assert_eq!(flat.insert(key, x), tree.insert(key, x));
                }
                1 => {
                    assert_eq!(flat.remove(&key), tree.remove(&key));
                }
                _ => {
                    assert_eq!(flat.get(&key), tree.get(&key));
                }
            }
        }
        let a: Vec<(u32, u64)> = flat.iter().map(|(k, v)| (*k, *v)).collect();
        let b: Vec<(u32, u64)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(a, b);
    }
}
