//! Metric names and per-tier instrument handles.
//!
//! Naming follows the workspace convention (`codes_<area>_<what>_<unit>`,
//! counters end in `_total`). Every instrument carries a `tier` label so one
//! registry can host several caches side by side.

use std::sync::Arc;

use codes_obs::{Counter, Gauge, Registry};

/// Lookups served from the cache.
pub const HITS_TOTAL: &str = "codes_cache_hits_total";
/// Lookups that found nothing.
pub const MISSES_TOTAL: &str = "codes_cache_misses_total";
/// Entries displaced by LRU capacity pressure.
pub const EVICTIONS_TOTAL: &str = "codes_cache_evictions_total";
/// Explicit generation bumps (database invalidations). Registered by the
/// tier owner, not per [`TierMetrics`], because invalidation is a
/// cross-tier event.
pub const INVALIDATIONS_TOTAL: &str = "codes_cache_invalidations_total";
/// Live entries currently resident, per tier.
pub const ENTRIES: &str = "codes_cache_entries";

/// The instrument handles one cache tier writes through. Resolved once at
/// construction; every hot-path update is a single atomic op.
#[derive(Clone)]
pub struct TierMetrics {
    pub hits: Arc<Counter>,
    pub misses: Arc<Counter>,
    pub evictions: Arc<Counter>,
    pub entries: Arc<Gauge>,
}

impl TierMetrics {
    /// Register (or re-resolve) the tier's instruments in `registry`.
    pub fn new(registry: &Registry, tier: &str) -> TierMetrics {
        let labels = &[("tier", tier)];
        TierMetrics {
            hits: registry.counter(HITS_TOTAL, labels),
            misses: registry.counter(MISSES_TOTAL, labels),
            evictions: registry.counter(EVICTIONS_TOTAL, labels),
            entries: registry.gauge(ENTRIES, labels),
        }
    }

    /// Instruments backed by a private registry nothing scrapes. Used by
    /// caches constructed without an explicit registry; stats still work.
    pub fn detached(tier: &str) -> TierMetrics {
        TierMetrics::new(&Registry::new(), tier)
    }

    /// Point-in-time read of the tier's counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            entries: self.entries.get().max(0) as u64,
        }
    }
}

/// Snapshot of one tier's counters, for health endpoints and bench reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub entries: u64,
}

impl CacheStats {
    /// Fraction of lookups served without computing; 0.0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}
