//! Sharded in-process cache for the CodeS serving stack.
//!
//! Production question streams are highly repetitive per database: the same
//! question often gets answered again. This crate provides the one cache
//! primitive the serving tiers build on:
//!
//! - [`ShardedCache`] — a thread-safe LRU cache split across independently
//!   locked shards.
//! - [`GenerationMap`] — monotonically increasing per-database generation
//!   tokens. Cache keys embed the generation at lookup time, so bumping a
//!   database's generation makes every entry cached under the old token
//!   unreachable; the entries themselves are evicted lazily by LRU pressure.
//! - [`RevisionMap`] — last-seen catalog revision per database, turning a
//!   stream of observed `sqlengine` revision tokens (from local catalogs or
//!   re-introspection of a live backend — indistinguishable here) into
//!   first/unchanged/changed verdicts that drive generation bumps.
//! - [`TierMetrics`] / [`CacheStats`] — every cache registers
//!   `codes_cache_{hits,misses,evictions}_total` counters and a
//!   `codes_cache_entries` gauge against a [`codes_obs::Registry`], labelled
//!   by tier, so hit rates are visible in the same Prometheus scrape as the
//!   serving pool.
//!
//! The crate is deliberately generic — keys and values are the caller's
//! types — and depends only on `codes-obs` and the (vendored) `parking_lot`
//! locks. The concrete wiring lives in `codes::cache` (the result tiers).
//! State derived from a catalog revision — a database's schema profile and
//! value index — is not cached here: its reader holds the current one per
//! database (`SchemaClassifier`, `CodesSystem`), so a superseded revision's
//! state drops with its last `Arc`.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod generation;
mod lru;
mod metrics;
mod revision;
mod sharded;

pub use generation::GenerationMap;
pub use revision::{RevisionChange, RevisionMap};
pub use metrics::{
    CacheStats, TierMetrics, ENTRIES, EVICTIONS_TOTAL, HITS_TOTAL, INVALIDATIONS_TOTAL,
    MISSES_TOTAL,
};
pub use sharded::{CacheConfig, ShardedCache};
