//! The public cache: independently locked LRU shards.

use std::hash::{Hash, Hasher};

use codes_obs::Registry;
use parking_lot::Mutex;

use crate::lru::Shard;
use crate::metrics::{CacheStats, TierMetrics};

/// Sizing of one cache. Entries live until LRU pressure evicts them or
/// their generation is abandoned.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Requested total capacity. Rounded up so it divides evenly across
    /// shards; [`ShardedCache::capacity`] reports the effective bound.
    pub capacity: usize,
    /// Number of independently locked shards. More shards, less contention.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig { capacity: 1024, shards: 8 }
    }
}

/// Thread-safe LRU cache split across independently locked shards.
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    per_shard: usize,
    metrics: TierMetrics,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V> {
    /// A cache whose metrics land in a private, unscraped registry.
    /// [`ShardedCache::stats`] still works; use [`ShardedCache::with_metrics`]
    /// to surface counters in a shared registry.
    pub fn new(config: CacheConfig) -> ShardedCache<K, V> {
        ShardedCache::build(config, TierMetrics::detached("detached"))
    }

    /// A cache registering `codes_cache_*` instruments in `registry` under
    /// the given `tier` label.
    pub fn with_metrics(config: CacheConfig, registry: &Registry, tier: &str) -> ShardedCache<K, V> {
        ShardedCache::build(config, TierMetrics::new(registry, tier))
    }

    fn build(config: CacheConfig, metrics: TierMetrics) -> ShardedCache<K, V> {
        let shards = config.shards.max(1);
        let per_shard = config.capacity.max(1).div_ceil(shards);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new(per_shard))).collect(),
            per_shard,
            metrics,
        }
    }

    /// Effective capacity: the requested capacity rounded up to a multiple
    /// of the shard count. Occupancy never exceeds this.
    pub fn capacity(&self) -> usize {
        self.per_shard * self.shards.len()
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot for this cache's tier.
    pub fn stats(&self) -> CacheStats {
        self.metrics.stats()
    }

    fn shard_of(&self, key: &K) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    /// Plain lookup. Counts a hit or a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let found = self.shards[self.shard_of(key)].lock().get(key);
        match found {
            Some(_) => self.metrics.hits.inc(),
            None => self.metrics.misses.inc(),
        }
        found
    }

    /// Insert (or replace) an entry.
    pub fn insert(&self, key: K, value: V) {
        let ix = self.shard_of(&key);
        let outcome = self.shards[ix].lock().insert(key, value);
        if outcome.evicted {
            self.metrics.evictions.inc();
        }
        if !outcome.replaced && !outcome.evicted {
            self.metrics.entries.add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(capacity: usize, shards: usize) -> ShardedCache<u64, u64> {
        ShardedCache::new(CacheConfig { capacity, shards })
    }

    #[test]
    fn eviction_counts_and_entries_gauge_stay_consistent() {
        let cache = small(4, 1);
        for i in 0..20 {
            cache.insert(i, i);
        }
        let stats = cache.stats();
        assert_eq!(cache.len(), 4);
        assert_eq!(stats.evictions, 16);
        assert_eq!(stats.entries as usize, cache.len());
    }
}
