//! The sharded router: consistent-hash partitioning of databases across
//! independent [`Pool`]s, weighted-fair multi-tenant admission, and shard
//! failover / revival / live rebalancing.
//!
//! ## Shape
//!
//! One [`Router`] owns N *shards*. Each shard is an independent
//! [`serve::Pool`](Pool) — its own workers, bounded admission queue,
//! per-database circuit breakers, and (optionally) its own shard-local
//! [`SystemCache`] — fronted by per-tenant router queues drained in
//! deficit-round-robin order by a dedicated dispatcher thread. A
//! database's owning shard is decided by a consistent-hash
//! [`ring`](crate::ring::HashRing) over `db_id` plus a per-shard liveness
//! mask, so failing one shard over remaps only that shard's databases.
//!
//! ## Exactly-once resolution
//!
//! The router assigns its own request ids and creates tickets through
//! [`Ticket::detached`]; the outcome channel is bounded at one message,
//! so whoever resolves first wins and later attempts are structurally
//! inert. Once [`Pool::submit_routed_with_progress`] returns `Ok`, the pool
//! owns resolution (worker, supervisor, cache fast path, or shutdown
//! cleanup — the pool's write-once `ReplySlot` discipline); on `Err`, or
//! while the job still sits in a router queue, the router owns it. Every
//! accepted ticket therefore resolves exactly once, through failover
//! included.
//!
//! ## Failover ordering
//!
//! [`Router::fail_over`] is careful about *when* each step happens:
//! moved databases' cache generations are bumped in their **destination**
//! shards *before* the liveness mask flips, so no request routed under
//! the new mask can ever hit a T3 entry the destination cached in a
//! previous life. Only then does the mask flip, the dead shard's router
//! queues re-route, and the old pool drain (in-flight work resolves
//! through the pool's own supervisor). [`Router::revive`] is the mirror:
//! generations for returning databases are bumped in the revived shard's
//! cache before the mask flips back. [`Router::rebalance`] is the two in
//! sequence, synchronous, timed into
//! `codes_router_rebalance_duration_seconds`.

use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use codes::{Error, InferenceRequest};
use codes_serve::pool::{Backend, Outcome, Ticket};
use codes_serve::progress::{Progress, ProgressSink};
use codes_serve::{HealthSnapshot, Pool, ServeConfig, StatsSnapshot};
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use crate::drr::TenantQueues;
use crate::metrics::{RouterMetrics, ShedReason};
use crate::ring::HashRing;

/// One tenant's admission configuration.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Tenant name (the `tenant` label on `codes_router_submitted_total`).
    pub name: String,
    /// DRR weight: of every `Σ weights` dispatches while all tenants are
    /// backlogged, this tenant gets `weight`. Clamped to ≥ 1.
    pub weight: u64,
}

impl TenantConfig {
    /// A tenant row.
    pub fn new(name: impl Into<String>, weight: u64) -> TenantConfig {
        TenantConfig { name: name.into(), weight }
    }
}

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Tenants in fixed order; empty means a single `"default"` tenant of
    /// weight 1. Submissions from unknown tenants are accounted to the
    /// **first** configured tenant (the default tenant).
    pub tenants: Vec<TenantConfig>,
    /// Bounded capacity of each per-tenant router queue (per shard). A
    /// full queue sheds with a typed [`Error::Overloaded`] before
    /// anything reaches a pool.
    pub tenant_queue_capacity: usize,
    /// Sweep period of the health monitor that auto-fails-over churning
    /// or wedged shards; `None` disables auto-failover (operator-invoked
    /// [`Router::fail_over`] / [`Router::rebalance`] still work).
    pub monitor_interval: Option<Duration>,
    /// Worker replacements (panic + wedged) within one monitor sweep that
    /// mark a shard as persistently churning and trigger failover.
    pub churn_threshold: u64,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            tenants: Vec::new(),
            tenant_queue_capacity: 64,
            monitor_interval: None,
            churn_threshold: 4,
        }
    }
}

/// Virtual nodes per shard on the consistent-hash ring.
const VNODES: usize = 64;

/// Everything needed to run (and re-run, after failover) one shard.
pub struct ShardSpec {
    /// The shard's backend, shared so [`Router::revive`] can respawn a
    /// fresh pool over it.
    pub backend: Arc<dyn Backend>,
    /// The shard's pool configuration. `serve.cache` is the shard-local
    /// result cache: it survives pool respawns, and failover/revival bump
    /// the generations of every database that moves.
    pub serve: ServeConfig,
}

impl ShardSpec {
    /// A shard over `backend` with pool configuration `serve`.
    pub fn new(backend: Arc<dyn Backend>, serve: ServeConfig) -> ShardSpec {
        ShardSpec { backend, serve }
    }
}

/// Typed failures of the shard-management surface ([`Router::fail_over`],
/// [`Router::revive`], [`Router::rebalance`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterError {
    /// The shard index is out of range.
    UnknownShard {
        /// The offending index.
        shard: usize,
    },
    /// The operation needs an active shard but this one is failed over.
    ShardInactive {
        /// The inactive shard.
        shard: usize,
    },
    /// The operation needs an inactive shard but this one is live.
    ShardActive {
        /// The active shard.
        shard: usize,
    },
    /// Refusing to fail over the only active shard — that would leave
    /// every database unroutable.
    LastActiveShard {
        /// The shard that was asked to die.
        shard: usize,
    },
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::UnknownShard { shard } => write!(f, "unknown shard {shard}"),
            RouterError::ShardInactive { shard } => write!(f, "shard {shard} is failed over"),
            RouterError::ShardActive { shard } => write!(f, "shard {shard} is already active"),
            RouterError::LastActiveShard { shard } => {
                write!(f, "refusing to fail over shard {shard}: it is the last active shard")
            }
        }
    }
}

impl std::error::Error for RouterError {}

/// What one [`Router::fail_over`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverOutcome {
    /// The shard that was failed over.
    pub shard: usize,
    /// `(db_id, destination_shard)` for every observed database that
    /// moved; each destination's cache generation for that database was
    /// bumped before the liveness mask flipped.
    pub moved: Vec<(String, usize)>,
    /// Router-queued jobs re-routed to new owners.
    pub rerouted: usize,
}

/// What one [`Router::rebalance`] did.
#[derive(Debug, Clone)]
pub struct RebalanceOutcome {
    /// The drain → move → bump phase.
    pub failover: FailoverOutcome,
    /// Databases whose generations were bumped when they returned to the
    /// revived shard.
    pub returned: Vec<String>,
    /// End-to-end wall clock, also recorded into
    /// `codes_router_rebalance_duration_seconds`.
    pub duration: Duration,
}

/// One shard's row in [`RouterHealth`].
#[derive(Debug, Clone)]
pub struct ShardHealth {
    /// Shard index.
    pub index: usize,
    /// Whether the shard currently owns any part of the ring.
    pub active: bool,
    /// Whether a failed-over pool is still draining in the background.
    pub draining: bool,
    /// Jobs waiting in this shard's router-level tenant queues.
    pub router_depth: usize,
    /// The underlying pool's health snapshot.
    pub pool: HealthSnapshot,
}

/// One tenant's row in [`RouterHealth`].
#[derive(Debug, Clone)]
pub struct TenantHealth {
    /// Tenant name.
    pub name: String,
    /// DRR weight.
    pub weight: u64,
    /// Lifetime accepted submissions
    /// (`codes_router_submitted_total{tenant=...}`).
    pub submitted: u64,
}

/// Point-in-time router health: per-shard detail plus pool counters
/// aggregated across shards.
#[derive(Debug, Clone)]
pub struct RouterHealth {
    /// Per-shard rows.
    pub shards: Vec<ShardHealth>,
    /// Per-tenant rows.
    pub tenants: Vec<TenantHealth>,
    /// Total jobs waiting in router-level queues across shards.
    pub router_depth: usize,
    /// Pool lifetime counters summed across every shard.
    pub aggregated: StatsSnapshot,
    /// True when at least one shard is active and the router is not
    /// shutting down.
    pub ready: bool,
}

/// A router-queued job: the request plus the externally held reply sender
/// that feeds its ticket.
struct RJob {
    tenant: usize,
    request: InferenceRequest,
    submitted: Instant,
    reply: Sender<Outcome>,
    /// Optional lifecycle observer forwarded to the pool (see
    /// `codes_serve::progress`); rides reroutes with the job.
    progress: Option<Arc<dyn ProgressSink>>,
}

struct Shard {
    backend: Arc<dyn Backend>,
    serve: ServeConfig,
    pool: RwLock<Arc<Pool>>,
    queues: Mutex<TenantQueues<RJob>>,
    wake_tx: Sender<()>,
    wake_rx: Receiver<()>,
    active: AtomicBool,
    draining: AtomicBool,
}

struct RouterInner {
    config: RouterConfig,
    ring: HashRing,
    shards: Vec<Shard>,
    tenants: Vec<(String, u64)>,
    metrics: RouterMetrics,
    registry: Arc<codes_obs::Registry>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    /// Every `db_id` ever submitted — the universe failover remaps.
    observed_dbs: Mutex<HashSet<String>>,
    /// Serializes fail_over / revive / rebalance.
    topology_lock: Mutex<()>,
    /// Background pool-drain threads from asynchronous failovers.
    drains: Mutex<Vec<JoinHandle<()>>>,
}

/// The sharded, multi-tenant front door. See the module docs for the
/// architecture; construction via [`Router::start`].
pub struct Router {
    inner: Arc<RouterInner>,
    dispatchers: Mutex<Vec<JoinHandle<()>>>,
    monitor: Mutex<Option<JoinHandle<()>>>,
}

impl Router {
    /// Start a router over `shards`, recording metrics into the
    /// process-global registry.
    pub fn start(shards: Vec<ShardSpec>, config: RouterConfig) -> Router {
        Router::start_with_registry(shards, config, codes_obs::global())
    }

    /// Like [`Router::start`] but over an isolated metrics registry, so
    /// tests can assert `codes_router_*` series without cross-talk.
    pub fn start_with_registry(
        shards: Vec<ShardSpec>,
        config: RouterConfig,
        registry: Arc<codes_obs::Registry>,
    ) -> Router {
        assert!(!shards.is_empty(), "router needs at least one shard");
        let tenants: Vec<(String, u64)> = if config.tenants.is_empty() {
            vec![("default".to_string(), 1)]
        } else {
            config.tenants.iter().map(|t| (t.name.clone(), t.weight.max(1))).collect()
        };
        let tenant_names: Vec<String> = tenants.iter().map(|(n, _)| n.clone()).collect();
        let metrics = RouterMetrics::new(&registry, shards.len(), &tenant_names);
        let ring = HashRing::new(shards.len(), VNODES);
        let shards: Vec<Shard> = shards
            .into_iter()
            .map(|spec| {
                let pool = Pool::start_shared(
                    Arc::clone(&spec.backend),
                    spec.serve.clone(),
                    Arc::clone(&registry),
                );
                // Capacity 1 coalesces wakeups: a token is only a hint,
                // the dispatcher always drains its queues to empty.
                let (wake_tx, wake_rx) = channel::bounded::<()>(1);
                Shard {
                    backend: spec.backend,
                    serve: spec.serve,
                    pool: RwLock::new(Arc::new(pool)),
                    queues: Mutex::new(TenantQueues::new(&tenants, config.tenant_queue_capacity)),
                    wake_tx,
                    wake_rx,
                    active: AtomicBool::new(true),
                    draining: AtomicBool::new(false),
                }
            })
            .collect();
        let inner = Arc::new(RouterInner {
            config,
            ring,
            shards,
            tenants,
            metrics,
            registry,
            next_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            observed_dbs: Mutex::new(HashSet::new()),
            topology_lock: Mutex::new(()),
            drains: Mutex::new(Vec::new()),
        });
        let dispatchers = (0..inner.shards.len())
            .map(|idx| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("router-shard-{idx}"))
                    .spawn(move || dispatcher_loop(&inner, idx))
                    .expect("spawn router dispatcher thread")
            })
            .collect();
        let monitor = inner.config.monitor_interval.map(|interval| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("router-monitor".to_string())
                .spawn(move || monitor_loop(&inner, interval))
                .expect("spawn router monitor thread")
        });
        Router { inner, dispatchers: Mutex::new(dispatchers), monitor: Mutex::new(monitor) }
    }

    /// Submit a request under the default tenant (the first configured
    /// one). See [`Router::submit_as`].
    pub fn submit(&self, request: InferenceRequest) -> Result<Ticket, Error> {
        let tenant = self.inner.tenants[0].0.clone();
        self.submit_as(&tenant, request)
    }

    /// Submit a request on behalf of `tenant`. The request routes to its
    /// database's owning shard; rejections are immediate and typed:
    ///
    /// * [`Error::Overloaded`] — the owning shard's queue for this
    ///   tenant is full (shard-aware shedding: other shards keep
    ///   accepting).
    /// * [`Error::CircuitOpen`] — the owning shard's breaker for
    ///   this database won't admit anything within the request's budget,
    ///   so queueing it would only burn queue space.
    /// * [`Error::ShuttingDown`] — router shutdown, or no shard is
    ///   active.
    ///
    /// Unknown tenant names are accounted to the default (first) tenant.
    pub fn submit_as(
        &self,
        tenant: &str,
        request: InferenceRequest,
    ) -> Result<Ticket, Error> {
        self.submit_as_with_progress(tenant, request, None)
    }

    /// [`Router::submit_as`] plus a lifecycle observer: `progress` gets a
    /// `Queued` notification once the job lands in the owning shard's
    /// tenant queue, then travels with the job into the pool (through
    /// reroutes) for `dispatched`/`generated` transitions. Observers must
    /// dedupe by rank — admission can legitimately be reported by both
    /// the router queue and the pool queue (see
    /// [`codes_serve::progress`]).
    pub fn submit_as_with_progress(
        &self,
        tenant: &str,
        request: InferenceRequest,
        progress: Option<Arc<dyn ProgressSink>>,
    ) -> Result<Ticket, Error> {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::SeqCst) {
            return Err(Error::ShuttingDown);
        }
        let tenant_idx =
            inner.tenants.iter().position(|(name, _)| name == tenant).unwrap_or(0);
        inner.observed_dbs.lock().insert(request.db_id.clone());
        let mask = inner.active_mask();
        let Some(owner) = inner.ring.owner(&request.db_id, &mask) else {
            return Err(Error::ShuttingDown);
        };
        let shard = &inner.shards[owner];
        let budget = request.deadline.unwrap_or(shard.serve.default_deadline);
        // Shard-aware breaker shed: a non-mutating peek (no probe slot is
        // consumed). Only shed when the breaker cannot possibly reopen
        // within this request's whole budget — otherwise the pool's own
        // admission gets to decide once the job is dequeued.
        if let Some(retry_after) = shard.pool.read().breaker_retry_after(&request.db_id) {
            if retry_after >= budget {
                inner.metrics.shards[owner].shed(ShedReason::Breaker).inc();
                return Err(Error::CircuitOpen { db_id: request.db_id, retry_after });
            }
        }
        let id = inner.next_id.fetch_add(1, Ordering::SeqCst);
        let (ticket, reply_tx) = Ticket::detached(id);
        let job = RJob {
            tenant: tenant_idx,
            request,
            submitted: Instant::now(),
            reply: reply_tx,
            progress: progress.clone(),
        };
        let depth = {
            let mut queues = shard.queues.lock();
            match queues.push(tenant_idx, job) {
                Ok(()) => queues.len(),
                Err(_job) => {
                    let depth = queues.len();
                    drop(queues);
                    inner.metrics.shards[owner].shed(ShedReason::Overloaded).inc();
                    return Err(Error::Overloaded {
                        queue_depth: depth,
                        capacity: inner.config.tenant_queue_capacity,
                    });
                }
            }
        };
        inner.metrics.shards[owner].depth.set(depth as i64);
        inner.metrics.tenants[tenant_idx].inc();
        if let Some(sink) = &progress {
            sink.notify(Progress::Queued);
        }
        let _ = shard.wake_tx.try_send(());
        Ok(ticket)
    }

    /// The shard currently owning `db_id`, or `None` when no shard is
    /// active.
    pub fn owner(&self, db_id: &str) -> Option<usize> {
        self.inner.ring.owner(db_id, &self.inner.active_mask())
    }

    /// Invalidate every cached entry for `db_id` on its owning shard by
    /// bumping the generation there. Router-level counterpart of
    /// [`Pool::invalidate_database`]: routing means the bump lands on the
    /// shard whose cache actually answers lookups for this database —
    /// addressing a database no shard's backend serves is a typed
    /// [`Error::UnknownDatabase`], never a silent no-op. Returns
    /// `Ok(None)` when the owning shard has no cache attached.
    pub fn invalidate_database(&self, db_id: &str) -> Result<Option<u64>, Error> {
        let Some(owner) = self.inner.ring.owner(db_id, &self.inner.active_mask()) else {
            return Err(Error::ShuttingDown);
        };
        self.inner.shards[owner].pool.read().invalidate_database(db_id)
    }

    /// Fail shard `shard` over: its databases remap to surviving shards
    /// (destination generations bumped **before** the mask flips, so no
    /// pre-failover T3 entry survives a post-failover lookup), its queued
    /// router jobs re-route, and its pool drains in the background —
    /// in-flight tickets resolve exactly once through the pool's own
    /// supervisor discipline.
    pub fn fail_over(&self, shard: usize) -> Result<FailoverOutcome, RouterError> {
        let _guard = self.inner.topology_lock.lock();
        self.inner.fail_over_locked(shard, false)
    }

    /// Bring a failed-over shard back: databases the ring hands back to
    /// it get their generations bumped in its shard-local cache (anything
    /// it cached before it died is suspect), then a fresh pool spawns
    /// over the same backend and the shard rejoins the ring. Returns the
    /// databases that came back.
    pub fn revive(&self, shard: usize) -> Result<Vec<String>, RouterError> {
        let _guard = self.inner.topology_lock.lock();
        self.inner.revive_locked(shard)
    }

    /// Operator-invoked drain → move → bump, synchronously: fail `shard`
    /// over (waiting for its pool to fully drain), then revive it with a
    /// fresh pool. The same machinery as failure-driven failover, so a
    /// rebalance can never behave differently from a real failure. Wall
    /// clock is recorded into `codes_router_rebalance_duration_seconds`.
    pub fn rebalance(&self, shard: usize) -> Result<RebalanceOutcome, RouterError> {
        let _guard = self.inner.topology_lock.lock();
        let started = Instant::now();
        let failover = self.inner.fail_over_locked(shard, true)?;
        let returned = self.inner.revive_locked(shard)?;
        let duration = started.elapsed();
        self.inner.metrics.rebalance_duration.record(duration);
        Ok(RebalanceOutcome { failover, returned, duration })
    }

    /// Point-in-time health: per-shard rows (router queue depth + full
    /// pool snapshot), per-tenant counters, and pool stats aggregated
    /// across shards.
    pub fn health(&self) -> RouterHealth {
        self.inner.health()
    }

    /// The metrics registry this router (and its pools) record into —
    /// feed it to [`codes_obs::Registry::render_prometheus`].
    pub fn registry(&self) -> &Arc<codes_obs::Registry> {
        &self.inner.registry
    }

    /// Stop accepting, drain every router queue into the pools, drain the
    /// pools, and return the final health snapshot. Every accepted ticket
    /// resolves before this returns.
    pub fn shutdown(self) -> RouterHealth {
        self.stop();
        let mut health = self.inner.health();
        health.ready = false;
        health
    }

    /// Idempotent teardown shared by [`Router::shutdown`] and `Drop`.
    fn stop(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        if let Some(monitor) = self.monitor.lock().take() {
            let _ = monitor.join();
        }
        for shard in &self.inner.shards {
            let _ = shard.wake_tx.try_send(());
        }
        let dispatchers = std::mem::take(&mut *self.dispatchers.lock());
        for handle in dispatchers {
            let _ = handle.join();
        }
        // A submission that raced the shutdown flag may have slipped into
        // a queue after its dispatcher exited; resolve those tickets
        // rather than leaving them to hang.
        for (idx, shard) in self.inner.shards.iter().enumerate() {
            for job in shard.queues.lock().drain_all() {
                let _ = job.reply.try_send(Err(Error::ShuttingDown));
            }
            self.inner.metrics.shards[idx].depth.set(0);
        }
        let drains = std::mem::take(&mut *self.inner.drains.lock());
        for handle in drains {
            let _ = handle.join();
        }
        for shard in &self.inner.shards {
            shard.pool.read().drain();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop();
    }
}

impl RouterInner {
    fn active_mask(&self) -> Vec<bool> {
        self.shards.iter().map(|s| s.active.load(Ordering::SeqCst)).collect()
    }

    fn health(&self) -> RouterHealth {
        let shards: Vec<ShardHealth> = self
            .shards
            .iter()
            .enumerate()
            .map(|(index, shard)| ShardHealth {
                index,
                active: shard.active.load(Ordering::SeqCst),
                draining: shard.draining.load(Ordering::SeqCst),
                router_depth: shard.queues.lock().len(),
                pool: shard.pool.read().health(),
            })
            .collect();
        let mut aggregated = StatsSnapshot {
            submitted: 0,
            served_from_cache: 0,
            completed: 0,
            failed: 0,
            shed_overloaded: 0,
            shed_breaker: 0,
            shed_deadline: 0,
            replaced_panic: 0,
            replaced_wedged: 0,
        };
        for row in &shards {
            let s = row.pool.stats;
            aggregated.submitted += s.submitted;
            aggregated.served_from_cache += s.served_from_cache;
            aggregated.completed += s.completed;
            aggregated.failed += s.failed;
            aggregated.shed_overloaded += s.shed_overloaded;
            aggregated.shed_breaker += s.shed_breaker;
            aggregated.shed_deadline += s.shed_deadline;
            aggregated.replaced_panic += s.replaced_panic;
            aggregated.replaced_wedged += s.replaced_wedged;
        }
        let router_depth = shards.iter().map(|s| s.router_depth).sum();
        let tenants = self
            .tenants
            .iter()
            .zip(&self.metrics.tenants)
            .map(|((name, weight), counter)| TenantHealth {
                name: name.clone(),
                weight: *weight,
                submitted: counter.get(),
            })
            .collect();
        RouterHealth {
            router_depth,
            tenants,
            ready: !self.shutdown.load(Ordering::SeqCst) && shards.iter().any(|s| s.active),
            shards,
            aggregated,
        }
    }

    /// Move one popped job into the shard's pool, resolving it directly
    /// on deadline expiry or terminal rejection. Blocks (with backoff)
    /// through transient pool overload — the pool queue being full means
    /// the shard can't absorb more work anyway, and DRR fairness is
    /// enforced at pop time, not here.
    fn dispatch(self: &Arc<Self>, shard_idx: usize, mut job: RJob) {
        let shard = &self.shards[shard_idx];
        let budget = job.request.deadline.unwrap_or(shard.serve.default_deadline);
        loop {
            let queued = job.submitted.elapsed();
            let Some(remaining) = budget.checked_sub(queued) else {
                self.metrics.shards[shard_idx].shed(ShedReason::Deadline).inc();
                let _ = job.reply.try_send(Err(Error::DeadlineExceeded { queued, budget }));
                return;
            };
            if remaining.is_zero() {
                self.metrics.shards[shard_idx].shed(ShedReason::Deadline).inc();
                let _ = job.reply.try_send(Err(Error::DeadlineExceeded { queued, budget }));
                return;
            }
            // The pool charges its own queue wait against the deadline we
            // hand it, so the request's total budget spans router queue +
            // pool queue + inference.
            job.request.deadline = Some(remaining);
            let pool = Arc::clone(&shard.pool.read());
            match pool.submit_routed_with_progress(
                job.request.clone(),
                job.reply.clone(),
                job.progress.clone(),
            ) {
                Ok(_) => {
                    self.metrics.shards[shard_idx].dispatched.inc();
                    return;
                }
                Err(Error::Overloaded { .. }) => {
                    std::thread::sleep(Duration::from_micros(500));
                }
                Err(Error::ShuttingDown) => {
                    // The pool under us is draining — failover raced the
                    // pop. Hand the job to the database's current owner
                    // (possibly our own fresh pool after a revive).
                    self.reroute(shard_idx, job);
                    return;
                }
                Err(err) => {
                    let _ = job.reply.try_send(Err(err));
                    return;
                }
            }
        }
    }

    /// Re-queue a job with the database's current owner; sheds typed
    /// `Overloaded` when the destination queue is full and `ShuttingDown`
    /// when no shard is active. Keeping the original `submitted` stamp
    /// means the job's deadline keeps ticking across the move.
    fn reroute(&self, from: usize, job: RJob) {
        let mask = self.active_mask();
        let Some(owner) = self.ring.owner(&job.request.db_id, &mask) else {
            let _ = job.reply.try_send(Err(Error::ShuttingDown));
            return;
        };
        let shard = &self.shards[owner];
        let reply = job.reply.clone();
        let mut queues = shard.queues.lock();
        match queues.push(job.tenant, job) {
            Ok(()) => {
                let depth = queues.len();
                drop(queues);
                self.metrics.shards[owner].depth.set(depth as i64);
                self.metrics.shards[from].rerouted.inc();
                let _ = shard.wake_tx.try_send(());
            }
            Err(_job) => {
                let depth = queues.len();
                drop(queues);
                self.metrics.shards[owner].shed(ShedReason::Overloaded).inc();
                let _ = reply.try_send(Err(Error::Overloaded {
                    queue_depth: depth,
                    capacity: self.config.tenant_queue_capacity,
                }));
            }
        }
    }

    fn fail_over_locked(
        self: &Arc<Self>,
        idx: usize,
        synchronous: bool,
    ) -> Result<FailoverOutcome, RouterError> {
        if idx >= self.shards.len() {
            return Err(RouterError::UnknownShard { shard: idx });
        }
        let old_mask = self.active_mask();
        if !old_mask[idx] {
            return Err(RouterError::ShardInactive { shard: idx });
        }
        if old_mask.iter().filter(|&&a| a).count() == 1 {
            return Err(RouterError::LastActiveShard { shard: idx });
        }
        let mut new_mask = old_mask.clone();
        new_mask[idx] = false;

        // 1. Which observed databases does this shard own, and where do
        //    they land under the new mask?
        let observed: Vec<String> = self.observed_dbs.lock().iter().cloned().collect();
        let mut moved: Vec<(String, usize)> = Vec::new();
        for db in observed {
            if self.ring.owner(&db, &old_mask) == Some(idx) {
                if let Some(dst) = self.ring.owner(&db, &new_mask) {
                    moved.push((db, dst));
                }
            }
        }
        // 2. Bump each moved database's generation in its DESTINATION
        //    shard's cache BEFORE the mask flips: once requests route
        //    there, nothing that shard cached for the database in an
        //    earlier epoch is reachable.
        for (db, dst) in &moved {
            if let Some(cache) = self.shards[*dst].serve.cache.as_ref() {
                cache.invalidate_database(db);
            }
        }
        // 3. Flip the mask; from here on, new submissions route around
        //    the dead shard.
        self.shards[idx].draining.store(true, Ordering::SeqCst);
        self.shards[idx].active.store(false, Ordering::SeqCst);
        self.metrics.shards[idx].failovers.inc();
        // 4. Re-route everything still waiting in the dead shard's router
        //    queues (their reply senders move with them — each ticket
        //    still resolves exactly once, wherever it lands).
        let jobs = self.shards[idx].queues.lock().drain_all();
        self.metrics.shards[idx].depth.set(0);
        let rerouted = jobs.len();
        for job in jobs {
            self.reroute(idx, job);
        }
        // 5. Drain the dead pool: queued jobs inside it are served or
        //    shed by its own workers, in-flight work resolves through its
        //    supervisor (panics/wedges included).
        let pool = Arc::clone(&self.shards[idx].pool.read());
        if synchronous {
            pool.drain();
            self.shards[idx].draining.store(false, Ordering::SeqCst);
        } else {
            let inner = Arc::clone(self);
            let handle = std::thread::Builder::new()
                .name(format!("router-drain-{idx}"))
                .spawn(move || {
                    pool.drain();
                    inner.shards[idx].draining.store(false, Ordering::SeqCst);
                })
                .expect("spawn router drain thread");
            self.drains.lock().push(handle);
        }
        Ok(FailoverOutcome { shard: idx, moved, rerouted })
    }

    fn revive_locked(&self, idx: usize) -> Result<Vec<String>, RouterError> {
        if idx >= self.shards.len() {
            return Err(RouterError::UnknownShard { shard: idx });
        }
        let shard = &self.shards[idx];
        if shard.active.load(Ordering::SeqCst) {
            return Err(RouterError::ShardActive { shard: idx });
        }
        let mut mask = self.active_mask();
        mask[idx] = true;
        // Databases the ring hands back: whatever this shard cached for
        // them before it died is suspect (the authoritative copy moved
        // while it was down), so their generations bump BEFORE the shard
        // starts answering again.
        let returned: Vec<String> = self
            .observed_dbs
            .lock()
            .iter()
            .filter(|db| self.ring.owner(db, &mask) == Some(idx))
            .cloned()
            .collect();
        if let Some(cache) = shard.serve.cache.as_ref() {
            for db in &returned {
                cache.invalidate_database(db);
            }
        }
        let fresh = Pool::start_shared(
            Arc::clone(&shard.backend),
            shard.serve.clone(),
            Arc::clone(&self.registry),
        );
        *shard.pool.write() = Arc::new(fresh);
        shard.active.store(true, Ordering::SeqCst);
        let _ = shard.wake_tx.try_send(());
        Ok(returned)
    }
}

/// Per-shard dispatcher: wakes on submission hints, drains its tenant
/// queues in DRR order into the pool, and exits once the router is
/// shutting down and its queues are empty.
fn dispatcher_loop(inner: &Arc<RouterInner>, idx: usize) {
    let shard = &inner.shards[idx];
    loop {
        loop {
            let (job, depth) = {
                let mut queues = shard.queues.lock();
                let job = queues.pop();
                (job, queues.len())
            };
            inner.metrics.shards[idx].depth.set(depth as i64);
            match job {
                Some(job) => inner.dispatch(idx, job),
                None => break,
            }
        }
        if inner.shutdown.load(Ordering::SeqCst) && shard.queues.lock().is_empty() {
            return;
        }
        // A lost wakeup only costs one timeout tick — the queue drain
        // above always runs to empty.
        let _ = shard.wake_rx.recv_timeout(Duration::from_millis(5));
    }
}

/// Consecutive monitor sweeps in which a shard holds queued work but makes
/// zero progress (no completions, failures, or sheds) before it is
/// declared wedged and failed over.
const STALL_SWEEPS: u32 = 3;

/// Per-shard churn/stall bookkeeping between monitor sweeps.
#[derive(Default, Clone, Copy)]
struct MonitorState {
    churn: u64,
    progress: u64,
    stalled_sweeps: u32,
}

/// Auto-failover monitor: a shard replacing workers faster than
/// `churn_threshold` per sweep, or holding queued work with zero progress
/// for [`STALL_SWEEPS`] consecutive sweeps, is failed over (unless it is
/// the last active shard — then there is nowhere to move its databases
/// and the router keeps limping on it).
fn monitor_loop(inner: &Arc<RouterInner>, interval: Duration) {
    let mut states = vec![MonitorState::default(); inner.shards.len()];
    while !inner.shutdown.load(Ordering::SeqCst) {
        // Sleep in small slices so shutdown isn't held up by a long sweep
        // period.
        let mut slept = Duration::ZERO;
        while slept < interval && !inner.shutdown.load(Ordering::SeqCst) {
            let slice = Duration::from_millis(10).min(interval - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        for (idx, state) in states.iter_mut().enumerate() {
            let shard = &inner.shards[idx];
            if !shard.active.load(Ordering::SeqCst) || shard.draining.load(Ordering::SeqCst) {
                continue;
            }
            let pool = Arc::clone(&shard.pool.read());
            let health = pool.health();
            let churn = health.stats.replaced_panic + health.stats.replaced_wedged;
            let churn_delta = churn.saturating_sub(state.churn);
            state.churn = churn;
            let progress = health.stats.completed
                + health.stats.failed
                + health.stats.shed_deadline
                + health.stats.shed_breaker;
            let backlog = health.queue_depth + shard.queues.lock().len();
            if backlog > 0 && progress == state.progress {
                state.stalled_sweeps += 1;
            } else {
                state.stalled_sweeps = 0;
            }
            state.progress = progress;
            if churn_delta >= inner.config.churn_threshold
                || state.stalled_sweeps >= STALL_SWEEPS
            {
                *state = MonitorState::default();
                let _guard = inner.topology_lock.lock();
                // LastActiveShard / races with operator calls are fine to
                // ignore: the monitor will look again next sweep.
                let _ = inner.fail_over_locked(idx, false);
            }
        }
    }
}
