//! One cache shard: an LRU list, backed by a slot vector
//! with an intrusive doubly-linked recency list and a free list. No
//! allocation churn in steady state — slots are reused after eviction.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// What an insert did to occupancy, so the wrapper can keep the entries
/// gauge and eviction counter in step without re-deriving lengths.
pub(crate) struct InsertOutcome {
    pub replaced: bool,
    pub evicted: bool,
}

pub(crate) struct Shard<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Option<Slot<K, V>>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    pub(crate) fn new(capacity: usize) -> Shard<K, V> {
        let capacity = capacity.max(1);
        Shard {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    fn slot(&self, ix: usize) -> &Slot<K, V> {
        match &self.slots[ix] {
            Some(s) => s,
            // An index held by the map always points at an occupied slot.
            None => unreachable!("lru slot {ix} indexed by map but empty"),
        }
    }

    fn slot_mut(&mut self, ix: usize) -> &mut Slot<K, V> {
        match &mut self.slots[ix] {
            Some(s) => s,
            None => unreachable!("lru slot {ix} indexed by map but empty"),
        }
    }

    fn detach(&mut self, ix: usize) {
        let (prev, next) = {
            let s = self.slot(ix);
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slot_mut(prev).next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slot_mut(next).prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, ix: usize) {
        let old_head = self.head;
        {
            let s = self.slot_mut(ix);
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slot_mut(old_head).prev = ix;
        } else {
            self.tail = ix;
        }
        self.head = ix;
    }

    fn remove_slot(&mut self, ix: usize) -> Slot<K, V> {
        self.detach(ix);
        let slot = match self.slots[ix].take() {
            Some(s) => s,
            None => unreachable!("lru slot {ix} removed twice"),
        };
        self.map.remove(&slot.key);
        self.free.push(ix);
        slot
    }

    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        let &ix = self.map.get(key)?;
        self.detach(ix);
        self.push_front(ix);
        Some(self.slot(ix).value.clone())
    }

    pub(crate) fn insert(&mut self, key: K, value: V) -> InsertOutcome {
        if let Some(&ix) = self.map.get(&key) {
            self.slot_mut(ix).value = value;
            self.detach(ix);
            self.push_front(ix);
            return InsertOutcome { replaced: true, evicted: false };
        }
        let ix = match self.free.pop() {
            Some(ix) => {
                self.slots[ix] = Some(Slot { key: key.clone(), value, prev: NIL, next: NIL });
                ix
            }
            None => {
                self.slots.push(Some(Slot { key: key.clone(), value, prev: NIL, next: NIL }));
                self.slots.len() - 1
            }
        };
        self.map.insert(key, ix);
        self.push_front(ix);
        let mut evicted = false;
        if self.map.len() > self.capacity {
            let tail = self.tail;
            debug_assert_ne!(tail, ix, "capacity >= 1 keeps the fresh entry resident");
            self.remove_slot(tail);
            evicted = true;
        }
        InsertOutcome { replaced: false, evicted }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used_first() {
        let mut shard: Shard<&str, u32> = Shard::new(2);
        shard.insert("a", 1);
        shard.insert("b", 2);
        // Touch "a" so "b" becomes the LRU victim.
        assert_eq!(shard.get(&"a"), Some(1));
        let outcome = shard.insert("c", 3);
        assert!(outcome.evicted);
        assert_eq!(shard.get(&"b"), None);
        assert_eq!(shard.get(&"a"), Some(1));
        assert_eq!(shard.get(&"c"), Some(3));
        assert_eq!(shard.len(), 2);
    }

    #[test]
    fn replacing_a_key_does_not_evict() {
        let mut shard: Shard<&str, u32> = Shard::new(2);
        shard.insert("a", 1);
        shard.insert("b", 2);
        let outcome = shard.insert("a", 10);
        assert!(outcome.replaced);
        assert!(!outcome.evicted);
        assert_eq!(shard.get(&"a"), Some(10));
    }

    #[test]
    fn slots_are_reused_after_eviction() {
        let mut shard: Shard<u32, u32> = Shard::new(2);
        for i in 0..100 {
            shard.insert(i, i);
        }
        assert_eq!(shard.len(), 2);
        assert!(shard.slots.len() <= 3, "slot storage stays bounded, got {}", shard.slots.len());
    }
}
