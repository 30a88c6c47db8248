//! Router-level observability: the `codes_router_*` metric family
//! recorded into the shared [`codes_obs::Registry`] (and therefore the
//! Prometheus encoder), plus the point-in-time snapshot merged into
//! [`crate::RouterHealth`].
//!
//! Shard-scoped series carry a `shard` label with the shard's index;
//! tenant-scoped series carry the configured tenant name. Every handle is
//! registered once at router start — the submit/dispatch hot paths only
//! touch atomics.

use std::sync::Arc;

use codes_obs::{Counter, Gauge, Registry};

/// Per-shard router queue depth gauge name (`shard` label).
pub const SHARD_DEPTH: &str = "codes_router_shard_depth";
/// Shed counter name (`reason` label: overloaded / breaker / deadline;
/// `shard` label).
pub const SHED: &str = "codes_router_shed_total";
/// Accepted-submission counter name (`tenant` label).
pub const SUBMITTED: &str = "codes_router_submitted_total";
/// Dispatch counter name (`shard` label): jobs handed from the router's
/// tenant queues into a shard pool.
pub const DISPATCHED: &str = "codes_router_dispatched_total";

/// Why the router refused a submission before it reached any pool queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShedReason {
    /// The owning shard's tenant queue was full.
    Overloaded,
    /// The owning shard's breaker for this database cannot admit within
    /// the request's remaining budget.
    Breaker,
    /// The request's deadline expired while queued at the router.
    Deadline,
}

/// Pre-registered handles for one shard's series.
pub(crate) struct ShardMetrics {
    pub(crate) depth: Arc<Gauge>,
    pub(crate) dispatched: Arc<Counter>,
    shed_overloaded: Arc<Counter>,
    shed_breaker: Arc<Counter>,
    shed_deadline: Arc<Counter>,
}

impl ShardMetrics {
    pub(crate) fn shed(&self, reason: ShedReason) -> &Counter {
        match reason {
            ShedReason::Overloaded => &self.shed_overloaded,
            ShedReason::Breaker => &self.shed_breaker,
            ShedReason::Deadline => &self.shed_deadline,
        }
    }
}

/// The router's handles into the shared metrics registry.
pub(crate) struct RouterMetrics {
    pub(crate) shards: Vec<ShardMetrics>,
    pub(crate) tenants: Vec<Arc<Counter>>,
}

impl RouterMetrics {
    pub(crate) fn new(
        registry: &Arc<Registry>,
        shard_count: usize,
        tenant_names: &[String],
    ) -> RouterMetrics {
        let shards = (0..shard_count)
            .map(|i| {
                let idx = i.to_string();
                let shard = [("shard", idx.as_str())];
                ShardMetrics {
                    depth: registry.gauge(SHARD_DEPTH, &shard),
                    dispatched: registry.counter(DISPATCHED, &shard),
                    shed_overloaded: registry
                        .counter(SHED, &[("reason", "overloaded"), ("shard", idx.as_str())]),
                    shed_breaker: registry
                        .counter(SHED, &[("reason", "breaker"), ("shard", idx.as_str())]),
                    shed_deadline: registry
                        .counter(SHED, &[("reason", "deadline"), ("shard", idx.as_str())]),
                }
            })
            .collect();
        let tenants = tenant_names
            .iter()
            .map(|name| registry.counter(SUBMITTED, &[("tenant", name.as_str())]))
            .collect();
        RouterMetrics { shards, tenants }
    }
}
