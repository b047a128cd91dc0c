//! The cache behind every memo a client's input keys: an engine's per-size
//! resolutions and evaluations, and the registry's engine per spec string.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// A memo of at most `CAP` entries: a miss on a full memo evicts the least
/// recently used entry, so no stream of new keys can grow it.
#[derive(Debug)]
pub(crate) struct BoundedMemo<K, V, const CAP: usize> {
    /// Each value with the clock reading of its last use.
    entries: HashMap<K, (u64, V)>,
    clock: u64,
}

impl<K, V, const CAP: usize> Default for BoundedMemo<K, V, CAP> {
    fn default() -> Self {
        BoundedMemo {
            entries: HashMap::new(),
            clock: 0,
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone, const CAP: usize> BoundedMemo<K, V, CAP> {
    /// The value stored under `key`, now the most recently used.
    pub(crate) fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.clock += 1;
        let (used, value) = self.entries.get_mut(key)?;
        *used = self.clock;
        Some(value.clone())
    }

    /// Stores `value` under `key`, unless a racing caller stored one
    /// first, and returns the stored value.
    pub(crate) fn insert(&mut self, key: K, value: V) -> V {
        if self.entries.len() >= CAP && !self.entries.contains_key(&key) {
            let least_recent = self
                .entries
                .iter()
                .min_by_key(|(_, (used, _))| *used)
                .map(|(key, _)| key.clone());
            if let Some(least_recent) = least_recent {
                self.entries.remove(&least_recent);
            }
        }
        self.clock += 1;
        let clock = self.clock;
        self.entries.entry(key).or_insert((clock, value)).1.clone()
    }

    /// Entries held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether `key` is held, without marking it used.
    #[cfg(test)]
    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_memo_evicts_its_least_recently_used_entry() {
        let mut memo = BoundedMemo::<u32, u32, 3>::default();
        for key in 0..3 {
            assert_eq!(memo.insert(key, key * 10), key * 10);
        }
        // Reading 0 makes 1 the least recently used.
        assert_eq!(memo.get(&0), Some(0));
        memo.insert(3, 30);
        assert_eq!(memo.len(), 3);
        assert!(!memo.contains_key(&1));
        assert!(memo.contains_key(&0) && memo.contains_key(&2) && memo.contains_key(&3));
        // A racing insert of a held key keeps the first value and evicts
        // nothing.
        assert_eq!(memo.insert(3, 99), 30);
        assert_eq!(memo.len(), 3);
    }
}
