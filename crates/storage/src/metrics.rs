//! Pool observability: the `codes_storage_pool_*` metric family.

use std::sync::Arc;

use codes_obs::{Counter, Gauge, Histogram, Registry};

/// Checkout counter name.
pub const CHECKOUTS: &str = "codes_storage_pool_checkouts_total";
/// Checkin counter name (recycled connections returned to the free list).
pub const CHECKINS: &str = "codes_storage_pool_checkins_total";
/// Established-connection counter name.
pub const ESTABLISHED: &str = "codes_storage_pool_established_total";
/// Discarded-connection counter name (`reason` label: broken / ping_failed
/// / closed for connections discarded at checkin; idle / drained for
/// parked connections dropped from the free list).
pub const DISCARDED: &str = "codes_storage_pool_discarded_total";
/// Failed connect-attempt counter name (each backoff retry counts once).
pub const CONNECT_FAILURES: &str = "codes_storage_pool_connect_failures_total";
/// Exhausted-checkout counter name (waited the full timeout, got nothing).
pub const EXHAUSTED: &str = "codes_storage_pool_exhausted_total";
/// In-use gauge name (connections currently checked out).
pub const IN_USE: &str = "codes_storage_pool_in_use";
/// Idle gauge name (live connections waiting on the free list).
pub const IDLE: &str = "codes_storage_pool_idle";
/// Checkout-wait histogram name, in seconds.
pub const CHECKOUT_WAIT: &str = "codes_storage_pool_checkout_wait_seconds";

/// Registered handles; hot paths only touch atomics.
pub(crate) struct PoolMetrics {
    pub(crate) checkouts: Arc<Counter>,
    pub(crate) checkins: Arc<Counter>,
    pub(crate) established: Arc<Counter>,
    pub(crate) discarded_broken: Arc<Counter>,
    pub(crate) discarded_ping: Arc<Counter>,
    pub(crate) discarded_closed: Arc<Counter>,
    pub(crate) discarded_idle: Arc<Counter>,
    pub(crate) discarded_drained: Arc<Counter>,
    pub(crate) connect_failures: Arc<Counter>,
    pub(crate) exhausted: Arc<Counter>,
    pub(crate) in_use: Arc<Gauge>,
    pub(crate) idle: Arc<Gauge>,
    pub(crate) checkout_wait: Arc<Histogram>,
}

impl PoolMetrics {
    pub(crate) fn new(registry: &Registry) -> PoolMetrics {
        PoolMetrics {
            checkouts: registry.counter(CHECKOUTS, &[]),
            checkins: registry.counter(CHECKINS, &[]),
            established: registry.counter(ESTABLISHED, &[]),
            discarded_broken: registry.counter(DISCARDED, &[("reason", "broken")]),
            discarded_ping: registry.counter(DISCARDED, &[("reason", "ping_failed")]),
            discarded_closed: registry.counter(DISCARDED, &[("reason", "closed")]),
            discarded_idle: registry.counter(DISCARDED, &[("reason", "idle")]),
            discarded_drained: registry.counter(DISCARDED, &[("reason", "drained")]),
            connect_failures: registry.counter(CONNECT_FAILURES, &[]),
            exhausted: registry.counter(EXHAUSTED, &[]),
            in_use: registry.gauge(IN_USE, &[]),
            idle: registry.gauge(IDLE, &[]),
            checkout_wait: registry.histogram(CHECKOUT_WAIT, &[]),
        }
    }
}

/// Point-in-time pool counters, read back from the registry handles.
/// Every checkout ends in exactly one checkin or one discard of the
/// checked-out connection — `checkouts == checkins + discarded()` once no
/// guard is held — and every established connection is parked, held, or
/// discarded from one side or the other: `established == idle + in_use +
/// discarded() + discarded_parked()`. A parked connection was already
/// counted as a checkin, so dropping it from the free list is reported
/// apart. With `in_use + idle <= capacity`, these are what the property
/// tests assert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Successful checkouts handed to callers.
    pub checkouts: u64,
    /// Connections returned healthy to the free list.
    pub checkins: u64,
    /// Connections established against the backend.
    pub established: u64,
    /// Checked-out connections discarded because they reported broken
    /// during use.
    pub discarded_broken: u64,
    /// Checked-out connections discarded because they failed the checkin
    /// liveness probe.
    pub discarded_ping: u64,
    /// Checked-out connections discarded because the pool had closed by
    /// the time their guard dropped.
    pub discarded_closed: u64,
    /// Parked connections reaped at checkout past the idle timeout.
    pub discarded_idle: u64,
    /// Parked connections dropped from the free list by `close()`.
    pub discarded_drained: u64,
    /// Individual failed connect attempts (before backoff retries).
    pub connect_failures: u64,
    /// Checkouts that timed out waiting for a free connection.
    pub exhausted: u64,
    /// Connections checked out right now.
    pub in_use: i64,
    /// Live connections idle on the free list right now.
    pub idle: i64,
}

impl PoolStats {
    /// Discards of checked-out connections (at checkin or by an explicit
    /// `discard()`), across every reason.
    pub fn discarded(&self) -> u64 {
        self.discarded_broken + self.discarded_ping + self.discarded_closed
    }

    /// Discards of parked connections: idle reaps plus the `close()` drain.
    pub fn discarded_parked(&self) -> u64 {
        self.discarded_idle + self.discarded_drained
    }
}
