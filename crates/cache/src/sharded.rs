//! The public cache: shards + single-flight miss deduplication.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard};

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

/// State of one in-flight computation, shared between the leader and any
/// waiters that arrived while it ran.
enum FlightState<V> {
    Pending,
    Done(V),
    /// The leader panicked (or was otherwise torn down) before publishing.
    /// Waiters retry from scratch rather than hanging.
    Abandoned,
}

struct Flight<V> {
    state: StdMutex<FlightState<V>>,
    ready: Condvar,
}

/// Poison-tolerant lock: a panicked leader must not wedge its waiters, so
/// we take the inner state regardless (the state machine stays consistent —
/// the panic path only ever writes `Abandoned`).
fn lock_state<V>(flight: &Flight<V>) -> MutexGuard<'_, FlightState<V>> {
    flight.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Removes the flight and wakes waiters with `Abandoned` if the leader
/// unwinds before publishing a value.
struct FlightGuard<'a, K: Hash + Eq, V> {
    flights: &'a StdMutex<HashMap<K, Arc<Flight<V>>>>,
    key: Option<K>,
    flight: Arc<Flight<V>>,
}

impl<K: Hash + Eq, V> FlightGuard<'_, K, V> {
    fn disarm(&mut self) {
        self.key = None;
    }
}

impl<K: Hash + Eq, V> Drop for FlightGuard<'_, K, V> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            lock_flights(self.flights).remove(&key);
            *lock_state(&self.flight) = FlightState::Abandoned;
            self.flight.ready.notify_all();
        }
    }
}

fn lock_flights<K, V>(
    flights: &StdMutex<HashMap<K, Arc<Flight<V>>>>,
) -> MutexGuard<'_, HashMap<K, Arc<Flight<V>>>> {
    flights.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Thread-safe LRU cache split across independently locked shards, with
/// single-flight deduplication of concurrent misses.
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    flights: Vec<StdMutex<HashMap<K, Arc<Flight<V>>>>>,
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
            flights: (0..shards).map(|_| StdMutex::new(HashMap::new())).collect(),
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

    fn lookup(&self, key: &K, count_miss: bool) -> Option<V> {
        let found = self.shards[self.shard_of(key)].lock().get(key);
        match found {
            Some(_) => self.metrics.hits.inc(),
            None if count_miss => self.metrics.misses.inc(),
            None => {}
        }
        found
    }

    /// Plain lookup. Counts a hit or a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        self.lookup(key, true)
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

    /// Look the key up; on a miss, compute the value exactly once across all
    /// concurrent callers (single-flight), insert it, and hand it to every
    /// waiter. Waiters served by the leader's computation count as hits; the
    /// leader counts one miss. If the leader panics, one waiter retries and
    /// becomes the new leader rather than everyone hanging.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let mut compute = Some(compute);
        loop {
            if let Some(v) = self.lookup(&key, false) {
                return v;
            }
            let ix = self.shard_of(&key);
            let (flight, leader) = {
                let mut flights = lock_flights(&self.flights[ix]);
                match flights.get(&key) {
                    Some(flight) => (Arc::clone(flight), false),
                    None => {
                        let flight = Arc::new(Flight {
                            state: StdMutex::new(FlightState::Pending),
                            ready: Condvar::new(),
                        });
                        flights.insert(key.clone(), Arc::clone(&flight));
                        (flight, true)
                    }
                }
            };
            if leader {
                self.metrics.misses.inc();
                let mut guard = FlightGuard {
                    flights: &self.flights[ix],
                    key: Some(key.clone()),
                    flight: Arc::clone(&flight),
                };
                let compute = match compute.take() {
                    Some(f) => f,
                    // A second leadership round can only follow an abandoned
                    // flight, and abandonment only happens on the leader's
                    // unwind — in which case this frame is gone too.
                    None => unreachable!("single-flight leader elected twice in one call"),
                };
                let value = compute();
                // Publish to the LRU *before* retiring the flight: a thread
                // arriving in between sees either the cached entry or the
                // flight, never neither, so the value is computed only once.
                self.insert(key.clone(), value.clone());
                *lock_state(&flight) = FlightState::Done(value.clone());
                flight.ready.notify_all();
                lock_flights(&self.flights[ix]).remove(&key);
                guard.disarm();
                return value;
            }
            let mut state = lock_state(&flight);
            while matches!(*state, FlightState::Pending) {
                state = flight
                    .ready
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            match &*state {
                FlightState::Done(v) => {
                    self.metrics.hits.inc();
                    return v.clone();
                }
                // Leader died before publishing: retry, possibly becoming
                // the leader ourselves.
                FlightState::Abandoned => continue,
                FlightState::Pending => unreachable!("condvar loop exits only on a settled state"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn small(capacity: usize, shards: usize) -> ShardedCache<u64, u64> {
        ShardedCache::new(CacheConfig { capacity, shards })
    }

    #[test]
    fn get_or_compute_fills_and_serves() {
        let cache = small(8, 2);
        let computed = AtomicU64::new(0);
        let v = cache.get_or_compute(7, || {
            computed.fetch_add(1, Ordering::SeqCst);
            70
        });
        assert_eq!(v, 70);
        let v = cache.get_or_compute(7, || {
            computed.fetch_add(1, Ordering::SeqCst);
            71
        });
        assert_eq!(v, 70, "second call is a hit, closure untouched");
        assert_eq!(computed.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
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

    #[test]
    fn panicking_leader_does_not_wedge_waiters() {
        let cache = Arc::new(small(8, 1));
        let c = Arc::clone(&cache);
        let leader = std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c.get_or_compute(3, || panic!("leader dies"))
            }));
            assert!(result.is_err());
        });
        leader.join().expect("panic captured inside the thread");
        // The flight was abandoned; a later caller recomputes successfully.
        let v = cache.get_or_compute(3, || 33);
        assert_eq!(v, 33);
    }
}
