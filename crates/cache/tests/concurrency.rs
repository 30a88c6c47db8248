//! Concurrency and capacity guarantees for the sharded cache:
//! a property test that occupancy never exceeds the effective capacity
//! under arbitrary insert/get interleavings, and a seeded multi-thread
//! single-flight test asserting exactly one miss computation per key
//! under heavy contention.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use codes_cache::{CacheConfig, ShardedCache};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};

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

/// Eight threads hammer the same key set in seeded-shuffled orders; each
/// key's value must be computed exactly once (the single-flight guarantee),
/// with every other lookup served from the flight or the cache.
#[test]
fn single_flight_computes_each_key_exactly_once_under_contention() {
    const THREADS: usize = 8;
    const KEYS: u64 = 16;
    let cache: Arc<ShardedCache<u64, u64>> =
        Arc::new(ShardedCache::new(CacheConfig { capacity: 256, shards: 4 }));
    let computations: Arc<Vec<AtomicU64>> =
        Arc::new((0..KEYS).map(|_| AtomicU64::new(0)).collect());
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let computations = Arc::clone(&computations);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Deterministic per-thread visit order so contention patterns
                // reproduce across runs.
                let mut rng = StdRng::seed_from_u64(0xC0DE5 + t as u64);
                let mut order: Vec<u64> = (0..KEYS).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.random_range(0..=i));
                }
                barrier.wait();
                for key in order {
                    let value = cache.get_or_compute(key, || {
                        computations[key as usize].fetch_add(1, Ordering::SeqCst);
                        // Widen the window in which other threads pile onto
                        // the same flight.
                        std::thread::sleep(Duration::from_millis(2));
                        key * 10 + 1
                    });
                    assert_eq!(value, key * 10 + 1);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("worker thread completes");
    }

    for (key, count) in computations.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::SeqCst),
            1,
            "key {key} was computed more than once despite single-flight"
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, KEYS, "one miss per distinct key");
    assert_eq!(
        stats.hits,
        (THREADS as u64 * KEYS) - KEYS,
        "every non-leader lookup was served without computing"
    );
    assert_eq!(stats.entries, KEYS);
}
