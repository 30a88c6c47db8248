//! Capacity guarantees for the sharded cache: property tests that
//! occupancy never exceeds the effective capacity under arbitrary
//! insert/get interleavings, and that a hit is never stale.

use std::collections::HashMap;

use codes_cache::{CacheConfig, ShardedCache};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whatever sequence of inserts and lookups lands on it, a sharded LRU
    /// never holds more entries than its effective capacity, and the
    /// entries gauge tracks true occupancy.
    #[test]
    fn occupancy_never_exceeds_capacity(
        capacity in 1usize..24,
        shards in 1usize..6,
        ops in prop::collection::vec(any::<u64>(), 1..300),
    ) {
        let cache: ShardedCache<u16, u32> =
            ShardedCache::new(CacheConfig { capacity, shards });
        for &op in &ops {
            // The vendored proptest has no tuple strategies; decode the
            // (key, value, is_insert) triple from one generated word.
            let key = (op % 64) as u16;
            let value = ((op >> 6) % 1000) as u32;
            let is_insert = (op >> 63) == 1;
            if is_insert {
                cache.insert(key, value);
            } else {
                let _ = cache.get(&key);
            }
            prop_assert!(
                cache.len() <= cache.capacity(),
                "len {} exceeded effective capacity {}",
                cache.len(),
                cache.capacity()
            );
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.entries as usize, cache.len());
        prop_assert!(cache.capacity() >= capacity);
    }

    /// A hit always returns the most recently inserted value for the key.
    #[test]
    fn lookups_never_return_stale_values(
        ops in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        let cache: ShardedCache<u16, u32> =
            ShardedCache::new(CacheConfig { capacity: 8, shards: 2 });
        let mut model: HashMap<u16, u32> = HashMap::new();
        for &op in &ops {
            let key = (op % 16) as u16;
            let value = ((op >> 4) % 1000) as u32;
            cache.insert(key, value);
            model.insert(key, value);
            if let Some(got) = cache.get(&key) {
                prop_assert_eq!(Some(&got), model.get(&key));
            }
        }
    }
}
