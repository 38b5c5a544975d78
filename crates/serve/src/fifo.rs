//! A bounded memory that forgets its oldest key first — the one shape
//! behind the shard's retry detection (request ids), the router's
//! hit-class detection (routing keys) and its canonical-route-key memo.

use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A map of at most `cap` keys: each new key past the cap evicts the
/// oldest. Inserting a key already present changes nothing, neither its
/// value nor its age.
pub(crate) struct FifoMap<K, V = ()> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    cap: usize,
}

impl<K: Hash + Eq + Clone, V> FifoMap<K, V> {
    pub(crate) fn new(cap: usize) -> Self {
        FifoMap {
            map: HashMap::new(),
            order: VecDeque::new(),
            cap,
        }
    }

    pub(crate) fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get(key)
    }

    pub(crate) fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.contains_key(key)
    }

    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.map.contains_key(&key) {
            return;
        }
        self.order.push_back(key.clone());
        self.map.insert(key, value);
        if self.order.len() > self.cap {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{CANON_KEY_MEMO_CAP, SEEN_KEYS_CAP};

    #[test]
    fn seen_keys_remember_and_evict_oldest() {
        let mut seen = FifoMap::new(SEEN_KEYS_CAP);
        seen.insert(7u64, ());
        seen.insert(7, ()); // duplicate must not occupy a second slot
        assert!(seen.contains(&7));
        for key in 0..(SEEN_KEYS_CAP as u64) {
            seen.insert(1_000_000 + key, ());
        }
        assert!(!seen.contains(&7), "oldest key evicted at capacity");
        assert!(seen.contains(&(1_000_000 + SEEN_KEYS_CAP as u64 - 1)));
        assert_eq!(seen.map.len(), SEEN_KEYS_CAP);
        assert_eq!(seen.order.len(), SEEN_KEYS_CAP);
    }

    #[test]
    fn canon_key_memo_ages_out_oldest_entries() {
        let memo_cycle = {
            let mut memo = FifoMap::new(CANON_KEY_MEMO_CAP);
            memo.insert(1u64, 100u64);
            assert_eq!(memo.get(&1).copied(), Some(100));
            for i in 2..(CANON_KEY_MEMO_CAP as u64 + 3) {
                memo.insert(i, i);
            }
            memo.get(&1).copied()
        };
        assert_eq!(memo_cycle, None, "oldest memo entries age out");
    }
}
