//! The sharded router: databases partitioned across independent
//! [`Pool`]s, fixed for the router's lifetime, behind weighted-fair
//! multi-tenant admission.
//!
//! ## Shape
//!
//! One [`Router`] owns N *shards*. Each shard is an independent
//! [`serve::Pool`](Pool) — its own workers, bounded admission queue,
//! per-database circuit breakers, and (optionally) its own shard-local
//! [`SystemCache`] — fronted by per-tenant router queues drained in
//! deficit-round-robin order by a dedicated dispatcher thread. A
//! database's owning shard is [`shard_of`]: FNV-1a of `db_id` modulo N.
//!
//! ## Exactly-once resolution
//!
//! The router assigns its own request ids and creates tickets through
//! [`Ticket::detached`]; the outcome channel is bounded at one message,
//! so whoever resolves first wins and later attempts are structurally
//! inert. Once [`Pool::submit_routed_with_progress`] returns `Ok`, the pool
//! owns resolution (worker, supervisor, cache fast path, or shutdown
//! cleanup — the pool's write-once `ReplySlot` discipline); on `Err`, or
//! while the job still sits in a router queue, the router owns it (a
//! deadline shed, or the shutdown sweep). Every accepted ticket therefore
//! resolves exactly once.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use codes::{Error, InferenceRequest};
use codes_serve::pool::{Backend, Outcome, Ticket};
use codes_serve::progress::{Progress, ProgressSink};
use codes_serve::{HealthSnapshot, Pool, ServeConfig, StatsSnapshot};
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;

use crate::drr::TenantQueues;
use crate::metrics::{RouterMetrics, ShedReason};

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
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig { tenants: Vec::new(), tenant_queue_capacity: 64 }
    }
}

/// Everything needed to run one shard.
pub struct ShardSpec {
    /// The shard's backend.
    pub backend: Arc<dyn Backend>,
    /// The shard's pool configuration; `serve.cache` is the shard-local
    /// result cache.
    pub serve: ServeConfig,
}

impl ShardSpec {
    /// A shard over `backend` with pool configuration `serve`.
    pub fn new(backend: Arc<dyn Backend>, serve: ServeConfig) -> ShardSpec {
        ShardSpec { backend, serve }
    }
}

/// One shard's row in [`RouterHealth`].
#[derive(Debug, Clone)]
pub struct ShardHealth {
    /// Shard index.
    pub index: usize,
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
    /// True while the router is not shutting down.
    pub ready: bool,
}

/// A router-queued job: the request plus the externally held reply sender
/// that feeds its ticket.
struct RJob {
    request: InferenceRequest,
    submitted: Instant,
    reply: Sender<Outcome>,
    /// Optional lifecycle observer forwarded to the pool (see
    /// `codes_serve::progress`).
    progress: Option<Arc<dyn ProgressSink>>,
}

struct Shard {
    pool: Pool,
    /// The pool's `default_deadline`: the budget of a request that names
    /// none.
    default_deadline: Duration,
    queues: Mutex<TenantQueues<RJob>>,
    wake_tx: Sender<()>,
    wake_rx: Receiver<()>,
}

struct RouterInner {
    config: RouterConfig,
    shards: Vec<Shard>,
    tenants: Vec<(String, u64)>,
    metrics: RouterMetrics,
    registry: Arc<codes_obs::Registry>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
}

/// The sharded, multi-tenant front door. See the module docs for the
/// architecture; construction via [`Router::start`].
pub struct Router {
    inner: Arc<RouterInner>,
    dispatchers: Mutex<Vec<JoinHandle<()>>>,
}

/// The shard owning `db_id` among `shards`: FNV-1a of the id modulo the
/// shard count, deterministic across runs and platforms.
fn shard_of(db_id: &str, shards: usize) -> usize {
    let hash = db_id.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (hash % shards as u64) as usize
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
        let shards: Vec<Shard> = shards
            .into_iter()
            .map(|spec| {
                let default_deadline = spec.serve.default_deadline;
                let pool = Pool::start_shared(spec.backend, spec.serve, Arc::clone(&registry));
                // Capacity 1 coalesces wakeups: a token is only a hint,
                // the dispatcher always drains its queues to empty.
                let (wake_tx, wake_rx) = channel::bounded::<()>(1);
                Shard {
                    pool,
                    default_deadline,
                    queues: Mutex::new(TenantQueues::new(&tenants, config.tenant_queue_capacity)),
                    wake_tx,
                    wake_rx,
                }
            })
            .collect();
        let inner = Arc::new(RouterInner {
            config,
            shards,
            tenants,
            metrics,
            registry,
            next_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
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
        Router { inner, dispatchers: Mutex::new(dispatchers) }
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
    /// * [`Error::ShuttingDown`] — router shutdown.
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
    /// tenant queue, then travels with the job into the pool for
    /// `dispatched`/`generated` transitions. Observers must dedupe by
    /// rank — admission can legitimately be reported by both the router
    /// queue and the pool queue (see [`codes_serve::progress`]).
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
        let owner = self.owner(&request.db_id);
        let shard = &inner.shards[owner];
        let budget = request.deadline.unwrap_or(shard.default_deadline);
        // Shard-aware breaker shed: a non-mutating peek (no probe slot is
        // consumed). Only shed when the breaker cannot possibly reopen
        // within this request's whole budget — otherwise the pool's own
        // admission gets to decide once the job is dequeued.
        if let Some(retry_after) = shard.pool.breaker_retry_after(&request.db_id) {
            if retry_after >= budget {
                inner.metrics.shards[owner].shed(ShedReason::Breaker).inc();
                return Err(Error::CircuitOpen { db_id: request.db_id, retry_after });
            }
        }
        let id = inner.next_id.fetch_add(1, Ordering::SeqCst);
        let (ticket, reply_tx) = Ticket::detached(id);
        let job = RJob {
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

    /// The shard owning `db_id`.
    pub fn owner(&self, db_id: &str) -> usize {
        shard_of(db_id, self.inner.shards.len())
    }

    /// Invalidate every cached entry for `db_id` on its owning shard by
    /// bumping the generation there. Router-level counterpart of
    /// [`Pool::invalidate_database`]: routing means the bump lands on the
    /// shard whose cache actually answers lookups for this database —
    /// addressing a database no shard's backend serves is a typed
    /// [`Error::UnknownDatabase`], never a silent no-op. Returns
    /// `Ok(None)` when the owning shard has no cache attached.
    pub fn invalidate_database(&self, db_id: &str) -> Result<Option<u64>, Error> {
        self.inner.shards[self.owner(db_id)].pool.invalidate_database(db_id)
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
        self.inner.health()
    }

    /// Idempotent teardown shared by [`Router::shutdown`] and `Drop`.
    fn stop(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
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
        for shard in &self.inner.shards {
            shard.pool.drain();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop();
    }
}

impl RouterInner {
    fn health(&self) -> RouterHealth {
        let shards: Vec<ShardHealth> = self
            .shards
            .iter()
            .enumerate()
            .map(|(index, shard)| ShardHealth {
                index,
                router_depth: shard.queues.lock().len(),
                pool: shard.pool.health(),
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
            ready: !self.shutdown.load(Ordering::SeqCst),
            shards,
            aggregated,
        }
    }

    /// Move one popped job into the shard's pool, resolving it directly
    /// on deadline expiry or terminal rejection. Blocks (with backoff)
    /// through transient pool overload — the pool queue being full means
    /// the shard can't absorb more work anyway, and DRR fairness is
    /// enforced at pop time, not here.
    fn dispatch(&self, shard_idx: usize, mut job: RJob) {
        let shard = &self.shards[shard_idx];
        let budget = job.request.deadline.unwrap_or(shard.default_deadline);
        loop {
            let queued = job.submitted.elapsed();
            let remaining = budget.saturating_sub(queued);
            if remaining.is_zero() {
                self.metrics.shards[shard_idx].shed(ShedReason::Deadline).inc();
                let _ = job.reply.try_send(Err(Error::DeadlineExceeded { queued, budget }));
                return;
            }
            // The pool charges its own queue wait against the deadline we
            // hand it, so the request's total budget spans router queue +
            // pool queue + inference.
            job.request.deadline = Some(remaining);
            match shard.pool.submit_routed_with_progress(
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
                Err(err) => {
                    let _ = job.reply.try_send(Err(err));
                    return;
                }
            }
        }
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

#[cfg(test)]
mod tests {
    use super::shard_of;

    #[test]
    fn shard_of_is_deterministic_and_total() {
        let ids: Vec<String> = (0..1000).map(|i| format!("db{i}")).collect();
        for shards in 2..=4 {
            let mut owned = vec![0usize; shards];
            for id in &ids {
                let shard = shard_of(id, shards);
                assert_eq!(shard, shard_of(id, shards), "{id}: placement is a pure function");
                owned[shard] += 1;
            }
            assert!(owned.iter().all(|&n| n > 0), "{shards} shards: one owns nothing: {owned:?}");
        }
        assert!(ids.iter().all(|id| shard_of(id, 1) == 0), "a single shard owns everything");
    }

    #[test]
    fn shard_of_spreads_load_roughly_evenly() {
        let mut counts = [0usize; 4];
        for i in 0..2000 {
            counts[shard_of(&format!("db{i}"), 4)] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!(
                (200..=900).contains(&c),
                "shard {shard} owns {c}/2000 — hash spread is badly skewed: {counts:?}"
            );
        }
    }
}
