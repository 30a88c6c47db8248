#![warn(missing_docs)]
// Same policy as the serve crate: routing IS a fault boundary — every
// failure must leave through a typed value, never an unwrap panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # codes-router
//!
//! Sharded, multi-tenant front door over the [`codes_serve`] runtime:
//!
//! * **Consistent-hash partitioning** ([`crate::ring`]) — databases map
//!   to one of N independent [`codes_serve::Pool`]s by FNV-1a hashing of
//!   `db_id` over a virtual-node ring. Breakers, result-cache
//!   generations, and value indexes stay shard-local; failing one shard
//!   remaps only that shard's databases.
//! * **Weighted-fair admission** ([`crate::drr`]) — per-tenant bounded
//!   queues drained in deficit-round-robin order, so a tenant flooding
//!   the router cannot starve its neighbors beyond its configured weight
//!   share.
//! * **Shard-aware shedding** — a full tenant queue or a hopelessly open
//!   breaker on the owning shard rejects immediately with a typed
//!   [`codes::Error`], before anything is queued.
//! * **Failover / revival / rebalancing** ([`Router::fail_over`],
//!   [`Router::revive`], [`Router::rebalance`]) — databases remap,
//!   destination cache generations bump *before* the liveness mask
//!   flips (no stale T3 result survives a move), queued jobs re-route,
//!   in-flight tickets resolve exactly once through the pool's
//!   write-once reply discipline. The same machinery serves both
//!   failure-driven and operator-invoked moves.
//! * **Health + metrics** — per-shard and aggregated
//!   [`RouterHealth`] snapshots, and the `codes_router_*` metric family
//!   (shard depth, shed reasons, failovers, rebalance duration) recorded
//!   into the shared [`codes_obs::Registry`] / Prometheus encoder.

pub mod drr;
pub mod metrics;
pub mod ring;
pub mod router;

pub use drr::TenantQueues;
pub use metrics::{
    DISPATCHED, FAILOVERS, REBALANCE_DURATION, REROUTED, SHARD_DEPTH, SHED, SUBMITTED,
};
pub use ring::HashRing;
pub use router::{
    FailoverOutcome, RebalanceOutcome, Router, RouterConfig, RouterError, RouterHealth,
    ShardHealth, ShardSpec, TenantConfig, TenantHealth,
};
