#![warn(missing_docs)]
// Same policy as the serve crate: routing IS a fault boundary — every
// failure must leave through a typed value, never an unwrap panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # codes-router
//!
//! Sharded, multi-tenant front door over the [`codes_serve`] runtime:
//!
//! * **Static partitioning** — databases map to one of N independent
//!   [`codes_serve::Pool`]s by FNV-1a hash of `db_id` modulo N, fixed for
//!   the router's lifetime. Breakers, result-cache generations, and value
//!   indexes stay shard-local.
//! * **Weighted-fair admission** ([`crate::drr`]) — per-tenant bounded
//!   queues drained in deficit-round-robin order, so a tenant flooding
//!   the router cannot starve its neighbors beyond its configured weight
//!   share.
//! * **Shard-aware shedding** — a full tenant queue or a hopelessly open
//!   breaker on the owning shard rejects immediately with a typed
//!   [`codes::Error`], before anything is queued.
//! * **Health + metrics** — per-shard and aggregated
//!   [`RouterHealth`] snapshots, and the `codes_router_*` metric family
//!   (shard depth, shed reasons, dispatches, per-tenant submissions)
//!   recorded into the shared [`codes_obs::Registry`] / Prometheus
//!   encoder.

pub mod drr;
pub mod metrics;
pub mod router;

pub use drr::TenantQueues;
pub use metrics::{DISPATCHED, SHARD_DEPTH, SHED, SUBMITTED};
pub use router::{
    Router, RouterConfig, RouterHealth, ShardHealth, ShardSpec, TenantConfig, TenantHealth,
};
