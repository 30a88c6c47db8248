//! Pool-level observability: the runtime counters/gauges/histograms the
//! pool records into a [`codes_obs::Registry`], and the
//! [`MetricsSnapshot`] merged into [`crate::HealthSnapshot`].

use std::sync::Arc;

use codes_obs::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};

use crate::breaker::BreakerState;

/// Queue-wait histogram name.
pub const QUEUE_WAIT: &str = "codes_serve_queue_wait_seconds";
/// In-flight gauge name.
pub const IN_FLIGHT: &str = "codes_serve_in_flight";
/// Accepted-submission counter name.
pub const SUBMITTED: &str = "codes_serve_submitted_total";
/// Cache-resolved-admission counter name (requests served from the
/// full-result tier without touching the queue).
pub const SERVED_FROM_CACHE: &str = "codes_serve_served_from_cache_total";
/// Finished-request counter name (`outcome` label: completed / failed).
pub const REQUESTS: &str = "codes_serve_requests_total";
/// Shed counter name (`reason` label: overloaded / breaker / deadline).
pub const SHED: &str = "codes_serve_shed_total";
/// Worker-replacement counter name (`cause` label: panic / wedged).
pub const WORKERS_REPLACED: &str = "codes_serve_workers_replaced_total";
/// Breaker state-transition counter name (`from` / `to` labels).
pub const BREAKER_TRANSITIONS: &str = "codes_serve_breaker_transitions_total";
/// Batch-size histogram name: one sample per dispatch (solo dispatches
/// record 1), in members.
pub const BATCH_SIZE: &str = "codes_serve_batch_size";
/// Batch-bypass counter name (`reason` label: mismatch).
pub const BATCH_BYPASS: &str = "codes_serve_batch_bypass_total";
/// Catalog-check counter name: how each [`crate::SystemBackend`] dispatch
/// settled which catalog to serve (`outcome` label: leased — inside a live
/// revision lease, the store was not asked — or what the one `sync` found:
/// unchanged / refreshed / attached / failed).
pub const CATALOG_CHECKS: &str = "codes_serve_catalog_checks_total";

impl BreakerState {
    /// Short state name for metric labels ("closed" / "open" /
    /// "half_open").
    pub fn kind(&self) -> &'static str {
        match self {
            BreakerState::Closed { .. } => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen { .. } => "half_open",
        }
    }
}

/// The pool's handles into its metrics registry. Registration happens
/// once at pool start; the hot paths only touch atomics.
pub(crate) struct ServeMetrics {
    registry: Arc<Registry>,
    pub(crate) queue_wait: Arc<Histogram>,
    pub(crate) in_flight: Arc<Gauge>,
    pub(crate) submitted: Arc<Counter>,
    pub(crate) served_from_cache: Arc<Counter>,
    pub(crate) completed: Arc<Counter>,
    pub(crate) failed: Arc<Counter>,
    pub(crate) shed_overloaded: Arc<Counter>,
    pub(crate) shed_breaker: Arc<Counter>,
    pub(crate) shed_deadline: Arc<Counter>,
    pub(crate) replaced_panic: Arc<Counter>,
    pub(crate) replaced_wedged: Arc<Counter>,
    pub(crate) batch_size: Arc<Histogram>,
    pub(crate) batch_bypass_mismatch: Arc<Counter>,
}

impl ServeMetrics {
    pub(crate) fn new(registry: Arc<Registry>) -> ServeMetrics {
        ServeMetrics {
            queue_wait: registry.histogram(QUEUE_WAIT, &[]),
            in_flight: registry.gauge(IN_FLIGHT, &[]),
            submitted: registry.counter(SUBMITTED, &[]),
            served_from_cache: registry.counter(SERVED_FROM_CACHE, &[]),
            completed: registry.counter(REQUESTS, &[("outcome", "completed")]),
            failed: registry.counter(REQUESTS, &[("outcome", "failed")]),
            shed_overloaded: registry.counter(SHED, &[("reason", "overloaded")]),
            shed_breaker: registry.counter(SHED, &[("reason", "breaker")]),
            shed_deadline: registry.counter(SHED, &[("reason", "deadline")]),
            replaced_panic: registry.counter(WORKERS_REPLACED, &[("cause", "panic")]),
            replaced_wedged: registry.counter(WORKERS_REPLACED, &[("cause", "wedged")]),
            batch_size: registry.histogram(BATCH_SIZE, &[]),
            batch_bypass_mismatch: registry.counter(BATCH_BYPASS, &[("reason", "mismatch")]),
            registry,
        }
    }

    /// Count one breaker state transition (`from` ≠ `to`).
    pub(crate) fn breaker_transition(&self, from: &'static str, to: &'static str) {
        self.registry.counter(BREAKER_TRANSITIONS, &[("from", from), ("to", to)]).inc();
    }

    /// Point-in-time copy for health reporting.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let breaker_transitions = self
            .registry
            .counters_by_name(BREAKER_TRANSITIONS)
            .into_iter()
            .map(|(labels, count)| {
                let field = |key: &str| {
                    labels
                        .iter()
                        .find(|(k, _)| k == key)
                        .map(|(_, v)| v.clone())
                        .unwrap_or_default()
                };
                (field("from"), field("to"), count)
            })
            .collect();
        MetricsSnapshot {
            queue_wait: self.queue_wait.snapshot(),
            in_flight: self.in_flight.get(),
            breaker_transitions,
            batch_size: self.batch_size.snapshot(),
            batch_bypass_mismatch: self.batch_bypass_mismatch.get(),
        }
    }
}

/// [`crate::SystemBackend`]'s handles, one per `outcome` of
/// [`CATALOG_CHECKS`]; registered once, a dispatch touches one atomic.
pub(crate) struct CatalogChecks {
    pub(crate) leased: Arc<Counter>,
    pub(crate) unchanged: Arc<Counter>,
    pub(crate) refreshed: Arc<Counter>,
    pub(crate) attached: Arc<Counter>,
    pub(crate) failed: Arc<Counter>,
}

impl CatalogChecks {
    pub(crate) fn new(registry: &Registry) -> CatalogChecks {
        let outcome = |outcome| registry.counter(CATALOG_CHECKS, &[("outcome", outcome)]);
        CatalogChecks {
            leased: outcome("leased"),
            unchanged: outcome("unchanged"),
            refreshed: outcome("refreshed"),
            attached: outcome("attached"),
            failed: outcome("failed"),
        }
    }
}

/// Point-in-time copy of the pool's registry-backed metrics, merged into
/// [`crate::HealthSnapshot`]. The series carry no per-pool label, so pools
/// recording into one registry (a router's shards) share them; per-pool
/// request counts are [`crate::StatsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Queue-wait latency distribution (every dequeued request records
    /// one sample, including requests later shed on deadline/breaker).
    pub queue_wait: HistogramSnapshot,
    /// Requests currently running on workers.
    pub in_flight: i64,
    /// `(from, to, count)` per observed breaker state transition.
    pub breaker_transitions: Vec<(String, String, u64)>,
    /// Dispatch-size distribution (one sample per dispatch; solo
    /// dispatches record 1 member).
    pub batch_size: HistogramSnapshot,
    /// Drained jobs that stopped batch formation because they were
    /// incompatible with the forming batch.
    pub batch_bypass_mismatch: u64,
}

impl MetricsSnapshot {
    /// Transition count for one `(from, to)` edge (0 when never seen).
    pub fn transitions(&self, from: &str, to: &str) -> u64 {
        self.breaker_transitions
            .iter()
            .find(|(f, t, _)| f == from && t == to)
            .map(|(_, _, c)| *c)
            .unwrap_or(0)
    }

    /// Total transitions across all edges.
    pub fn total_transitions(&self) -> u64 {
        self.breaker_transitions.iter().map(|(_, _, c)| c).sum()
    }
}
