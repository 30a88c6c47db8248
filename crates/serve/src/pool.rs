//! The supervised worker pool.
//!
//! Requests enter through a **bounded** admission queue (`try_send`: a full
//! queue is an explicit [`Error::Overloaded`], never unbounded
//! buffering). A fixed set of worker threads drains the queue; each request
//! passes a deadline check and the target database's circuit breaker before
//! its remaining time budget is clamped into the inference [`Config`] and
//! the backend runs under the engine's retry/backoff policy.
//!
//! A worker that dequeues a request drains the compatible requests
//! **already queued** behind it (same database, same config fingerprint,
//! same deadline class — see [`crate::batch`]), up to
//! [`ServeConfig::max_batch`], and dispatches them through
//! [`Backend::infer_batch`] in one pass. That is the only dispatch path: a
//! worker never waits for followers, so a request that finds the queue
//! empty behind it is a batch of one, and batches grow only when every
//! worker is busy and a backlog has built up. Degradations, stage timings,
//! retries and cache admissions stay per-member.
//!
//! A supervisor thread watches the workers: a panicked worker is joined,
//! its orphaned request resolved with [`Error::WorkerPanic`], and the
//! slot respawned; a wedged worker (no heartbeat while a request is in
//! flight) is abandoned via a per-slot generation bump, its request
//! resolved with [`Error::WorkerWedged`], and the slot respawned.
//! Queued requests survive both cases because every worker drains the same
//! shared channel. Every submitted request therefore resolves to exactly
//! one outcome — nothing hangs.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use codes::{
    config_fingerprint, normalize_question, CachedAnswer, CodesSystem, Config, Error,
    InferenceRequest, SystemCache, SystemCacheStats,
};
use codes_storage::{CatalogService, ConnectionPool, IntrospectOptions, PoolConfig, SyncOutcome};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use sqlengine::{with_retry_paced, Backoff, Database};

use crate::batch::{BatchPolicy, MemberInfo};
use crate::breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
use crate::metrics::{CatalogChecks, MetricsSnapshot, ServeMetrics};
use crate::progress::{Progress, ProgressSink};

/// What the pool runs for each admitted request. Implemented by
/// [`SystemBackend`] for real inference and by test/chaos backends
/// (e.g. [`crate::FaultyBackend`]).
///
/// `config` arrives already clamped to the request's remaining deadline;
/// `id` is the pool-assigned request id (stable across retries, used by
/// fault plans). Implementations may panic — the supervisor turns that
/// into a typed [`Error::WorkerPanic`] for the caller.
pub trait Backend: Send + Sync {
    /// Run one inference attempt.
    fn infer(
        &self,
        request: &InferenceRequest,
        id: u64,
        config: &Config,
    ) -> Result<BackendReply, sqlengine::Error>;

    /// Run one micro-batch of compatible requests (same database, same
    /// effective config) in a single pass, returning one result per
    /// member in order. `config` is already clamped to the tightest
    /// remaining deadline across members.
    ///
    /// The default loops [`Backend::infer`], which preserves per-request
    /// fault-injection semantics for chaos backends: a panic anywhere in
    /// the loop unwinds the whole dispatch, and the supervisor resolves
    /// every member's ticket.
    fn infer_batch(
        &self,
        requests: &[(&InferenceRequest, u64)],
        config: &Config,
    ) -> Vec<Result<BackendReply, sqlengine::Error>> {
        requests.iter().map(|(request, id)| self.infer(request, *id, config)).collect()
    }

    /// Whether this backend can serve `db_id`. `None` (the default) means
    /// the backend doesn't track a database universe — synthetic test
    /// backends accept anything. [`SystemBackend`] answers definitively,
    /// which lets [`Pool::invalidate_database`] reject invalidations
    /// addressed to the wrong pool with a typed
    /// [`Error::UnknownDatabase`] instead of silently no-opping.
    fn has_database(&self, _db_id: &str) -> Option<bool> {
        None
    }
}

/// A successful backend outcome.
#[derive(Debug, Clone, Default)]
pub struct BackendReply {
    /// The generated SQL.
    pub sql: String,
    /// Graceful degradations taken (see [`codes::Inference::degradations`]).
    pub degradations: Vec<String>,
    /// Backend-measured inference latency in seconds.
    pub latency_seconds: f64,
    /// Prompt length in whitespace tokens.
    pub prompt_tokens: usize,
    /// Per-stage wall-clock breakdown (zero for backends that don't
    /// measure stages).
    pub stages: codes_obs::StageTimings,
}

/// [`Backend`] over a real [`CodesSystem`] and a storage-backed catalog
/// service.
///
/// The databases served are no longer owned `Database` values: they live
/// behind a [`codes_storage::Backend`] and are mirrored locally through
/// introspection. A dispatch outside a live revision lease
/// ([`codes::REVISION_LEASE`]; DESIGN.md §4k) re-syncs the target catalog —
/// a revision change observed on the live backend refreshes the mirror,
/// rebuilds its value index, and bumps the system cache's generation
/// exactly like a local catalog mutation would. A sync *failure* degrades
/// instead of failing: the last-known catalog serves the request, with the
/// storage failure recorded as a degradation on the reply.
pub struct SystemBackend {
    system: Arc<CodesSystem>,
    service: Arc<CatalogService>,
    checks: CatalogChecks,
}

impl SystemBackend {
    /// Serve `system` over `dbs`: the databases move into an in-memory
    /// storage backend behind a default-sized connection pool, and every
    /// catalog is attached (introspected) up front. The common path for
    /// tests and single-node serving; bring-your-own-backend stacks use
    /// [`SystemBackend::with_catalogs`].
    pub fn new(system: Arc<CodesSystem>, dbs: Vec<Database>) -> SystemBackend {
        let backend = codes_storage::MemoryBackend::new(dbs);
        let pool = ConnectionPool::new(Arc::new(backend), PoolConfig::default());
        let service = Arc::new(CatalogService::new(pool, IntrospectOptions::default()));
        SystemBackend::with_catalogs(system, service)
    }

    /// Serve `system` over an existing catalog service (any backend/pool
    /// stack). Wires the service's revision observer to the system — every
    /// attach or refresh rebuilds the database's value index and reconciles
    /// the cache generation — then attaches every database the backend
    /// exposes. Attach failures are not fatal here: the first dispatch
    /// retries via sync and surfaces a typed error if the database never
    /// becomes reachable.
    pub fn with_catalogs(system: Arc<CodesSystem>, service: Arc<CatalogService>) -> SystemBackend {
        SystemBackend::with_registry(system, service, &codes_obs::global())
    }

    /// [`SystemBackend::with_catalogs`], counting catalog checks
    /// ([`crate::metrics::CATALOG_CHECKS`]) in `registry` instead of the
    /// process-global one.
    pub fn with_registry(
        system: Arc<CodesSystem>,
        service: Arc<CatalogService>,
        registry: &codes_obs::Registry,
    ) -> SystemBackend {
        let observer_system = Arc::clone(&system);
        service.set_revision_observer(Box::new(move |db| observer_system.prepare_database(db)));
        let _ = service.attach_all();
        SystemBackend { system, service, checks: CatalogChecks::new(registry) }
    }

    /// The catalog service this backend serves from (the gateway's attach
    /// endpoint registers new databases through it).
    pub fn catalogs(&self) -> &Arc<CatalogService> {
        &self.service
    }

    /// Fetch the catalog for one dispatch: as installed inside a live
    /// revision lease, after a sync otherwise. A failed sync serves the
    /// last-known catalog with a degradation note; a database with no
    /// catalog at all is the caller's addressing error.
    fn catalog_for(
        &self,
        db_id: &str,
    ) -> Result<(Arc<codes_storage::Catalog>, Option<String>), sqlengine::Error> {
        let cache = self.system.cache();
        let degradation = if cache.is_some_and(|cache| cache.revision_lease_live(db_id)) {
            self.checks.leased.inc();
            None
        } else {
            // Read before the revision read: an invalidation landing
            // anywhere after this moves the generation past the one
            // confirmed below, and the next dispatch checks again.
            let before = cache.map(|cache| (cache, cache.generation(db_id)));
            match self.service.sync(db_id) {
                Ok(outcome) => {
                    // A refresh bumped the generation once, through the
                    // revision observer.
                    let (checks, bumps) = match outcome {
                        SyncOutcome::Unchanged => (&self.checks.unchanged, 0),
                        SyncOutcome::Refreshed { .. } => (&self.checks.refreshed, 1),
                        SyncOutcome::Attached => (&self.checks.attached, 0),
                    };
                    checks.inc();
                    if let Some((cache, generation)) = before {
                        cache.confirm_revision(db_id, generation + bumps);
                    }
                    None
                }
                Err(e) => {
                    self.checks.failed.inc();
                    Some(format!("storage sync failed ({e}); serving last-known catalog"))
                }
            }
        };
        match self.service.catalog(db_id) {
            Some(catalog) => Ok((catalog, degradation)),
            None => Err(sqlengine::Error::UnknownTable(db_id.to_string())),
        }
    }
}

impl SystemBackend {
    /// The request as the core system should see it: the pool owns
    /// deadline accounting, so the clamped `config` it computed replaces
    /// any request-level override and the deadline is cleared (a second
    /// clamp against the *original* budget would undo the queue-wait
    /// accounting).
    fn resolved(request: &InferenceRequest, config: &Config) -> InferenceRequest {
        let mut resolved = request.clone();
        resolved.config = Some(*config);
        resolved.deadline = None;
        resolved
    }
}

impl Backend for SystemBackend {
    fn infer(
        &self,
        request: &InferenceRequest,
        id: u64,
        config: &Config,
    ) -> Result<BackendReply, sqlengine::Error> {
        self.infer_batch(&[(request, id)], config).pop().expect("one result per batch member")
    }

    fn infer_batch(
        &self,
        requests: &[(&InferenceRequest, u64)],
        config: &Config,
    ) -> Vec<Result<BackendReply, sqlengine::Error>> {
        let Some((first, _)) = requests.first() else {
            return Vec::new();
        };
        let (catalog, degradation) = match self.catalog_for(&first.db_id) {
            Ok(found) => found,
            Err(_) => {
                return requests
                    .iter()
                    .map(|(r, _)| Err(sqlengine::Error::UnknownTable(r.db_id.clone())))
                    .collect();
            }
        };
        let members: Vec<InferenceRequest> =
            requests.iter().map(|(r, _)| SystemBackend::resolved(r, config)).collect();
        self.system
            .infer_batch(&catalog.database, &members)
            .into_iter()
            .map(|out| {
                let mut degradations = out.degradations;
                degradations.extend(degradation.clone());
                Ok(BackendReply {
                    sql: out.sql,
                    degradations,
                    latency_seconds: out.latency_seconds,
                    prompt_tokens: out.prompt_tokens,
                    stages: out.stages,
                })
            })
            .collect()
    }

    fn has_database(&self, db_id: &str) -> Option<bool> {
        Some(self.service.contains(db_id))
    }
}

/// Pacing for transient-failure retries inside a request (sleeps
/// `delay(attempt)`, seed decorrelated per request id).
const RETRY_BACKOFF: Backoff = Backoff {
    base: Duration::from_millis(5),
    max: Duration::from_millis(200),
    jitter: 0.5,
    seed: 0xC0DE5,
};

/// Pool tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads.
    pub workers: usize,
    /// Bounded admission-queue capacity; a full queue rejects with
    /// [`Error::Overloaded`].
    pub queue_capacity: usize,
    /// Time budget for requests that don't carry their own deadline.
    pub default_deadline: Duration,
    /// Base inference configuration; each request gets a copy clamped to
    /// its remaining deadline ([`Config::clamped_to_deadline`]). A request
    /// carrying its own [`InferenceRequest::config`] override uses that
    /// instead of the base (still deadline-clamped).
    pub base_config: Config,
    /// Largest micro-batch one worker may form from compatible queued
    /// requests (same database, config fingerprint, and deadline class).
    /// `1` disables batching entirely. Only requests already queued when
    /// a worker picks up the first one are batched with it; a worker
    /// never delays a dispatch to wait for more.
    pub max_batch: usize,
    /// Per-database circuit-breaker policy.
    pub breaker: BreakerConfig,
    /// How often idle workers stamp their heartbeat and the supervisor
    /// sweeps for dead/wedged workers.
    pub heartbeat_interval: Duration,
    /// A worker with a request in flight and no heartbeat for this long is
    /// declared wedged: its request is resolved with
    /// [`Error::WorkerWedged`] and its slot respawned. Must exceed the
    /// worst-case healthy inference latency.
    pub wedged_after: Duration,
    /// Optional result cache shared with the backend's [`CodesSystem`].
    /// When set, [`Pool::submit`] checks the full-result tier (T3) at
    /// admission — a hit resolves immediately without touching the queue —
    /// and clean, undegraded successes are admitted back under the
    /// generation that was current at submit time.
    pub cache: Option<Arc<SystemCache>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            default_deadline: Duration::from_secs(2),
            base_config: Config::serving(),
            max_batch: 4,
            breaker: BreakerConfig::default(),
            heartbeat_interval: Duration::from_millis(20),
            wedged_after: Duration::from_secs(5),
            cache: None,
        }
    }
}

/// A successful served inference.
#[derive(Debug, Clone)]
pub struct ServedInference {
    /// Pool-assigned request id.
    pub request_id: u64,
    /// The generated SQL.
    pub sql: String,
    /// Graceful degradations taken during inference (e.g. `"greedy"` when
    /// the deadline forced the beam down).
    pub degradations: Vec<String>,
    /// Inference latency in seconds (backend-measured).
    pub latency_seconds: f64,
    /// Time the request spent queued before a worker picked it up.
    pub queue_wait_seconds: f64,
    /// Prompt length in whitespace tokens.
    pub prompt_tokens: usize,
    /// Worker slot that served the request (0 when `cached` — no worker
    /// ran).
    pub worker: usize,
    /// True when the answer came from the full-result cache tier at
    /// admission, bypassing the queue and workers entirely.
    pub cached: bool,
    /// Per-stage wall-clock breakdown reported by the backend (zero for
    /// cached answers and backends that don't measure stages).
    pub stages: codes_obs::StageTimings,
}

/// What a [`Ticket`] resolves to: exactly one of these per submission.
pub type Outcome = Result<ServedInference, Error>;

/// Write-once reply cell. The worker, the supervisor (panic/wedge path)
/// and shutdown cleanup may all try to resolve the same request; the first
/// completer wins and the rest are no-ops, so a request can never resolve
/// twice or race to conflicting outcomes.
struct ReplySlot {
    tx: Mutex<Option<Sender<Outcome>>>,
}

impl ReplySlot {
    fn new(tx: Sender<Outcome>) -> ReplySlot {
        ReplySlot { tx: Mutex::new(Some(tx)) }
    }

    /// Resolve the request if nobody else has; returns whether this call won.
    fn complete(&self, outcome: Outcome) -> bool {
        match self.tx.lock().take() {
            // The caller may have dropped the ticket; a dead letter is fine.
            Some(tx) => {
                let _ = tx.try_send(outcome);
                true
            }
            None => false,
        }
    }
}

/// Handle to one submitted request.
pub struct Ticket {
    /// Pool-assigned request id (matches fault plans and snapshots).
    pub id: u64,
    rx: Receiver<Outcome>,
}

impl Ticket {
    /// A ticket resolved through an externally held sender. Routing layers
    /// (e.g. `codes-router`) assign their own request ids before any pool
    /// admission happens; the returned sender feeds the ticket exactly the
    /// way a pool-internal reply channel would — the channel is bounded at
    /// one outcome, so duplicate resolution attempts are structurally
    /// harmless and the caller still observes exactly one outcome.
    pub fn detached(id: u64) -> (Ticket, Sender<Outcome>) {
        let (tx, rx) = channel::bounded::<Outcome>(1);
        (Ticket { id, rx }, tx)
    }

    /// Block until the request resolves.
    pub fn wait(self) -> Outcome {
        self.rx.recv().unwrap_or(Err(Error::ShuttingDown))
    }

    /// Block at most `timeout`; `None` means still pending.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Outcome> {
        match self.rx.recv_timeout(timeout) {
            Ok(outcome) => Some(outcome),
            Err(channel::RecvTimeoutError::Timeout) => None,
            Err(channel::RecvTimeoutError::Disconnected) => Some(Err(Error::ShuttingDown)),
        }
    }
}

struct Job {
    id: u64,
    request: InferenceRequest,
    submitted: Instant,
    reply: Arc<ReplySlot>,
    /// `(generation, question_key, config_fp)` captured at submit time when
    /// a cache is attached. Admitting the result under the *submit-time*
    /// generation is what makes invalidation race-free: a result computed
    /// before a generation bump lands under the old token, where post-bump
    /// lookups can't reach it. The fingerprint covers the request's own
    /// config override when present, so per-request configs never share
    /// cache entries with the pool default.
    cache_slot: Option<(u64, String, u64)>,
    /// Optional lifecycle observer (see [`crate::progress`]); advisory
    /// only — notifications never gate resolution.
    progress: Option<Arc<dyn ProgressSink>>,
}

impl Job {
    fn observe(&self, progress: Progress) {
        if let Some(sink) = &self.progress {
            sink.notify(progress);
        }
    }
}

/// A dispatch currently running on a worker; lets the supervisor resolve
/// every member if the worker dies. `job_id` is the first member's id —
/// the key the worker uses to unregister only its own entry.
struct InFlight {
    job_id: u64,
    db_id: String,
    started: Instant,
    replies: Vec<Arc<ReplySlot>>,
}

#[derive(Default)]
struct Stats {
    submitted: AtomicU64,
    served_from_cache: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed_overloaded: AtomicU64,
    shed_breaker: AtomicU64,
    shed_deadline: AtomicU64,
    replaced_panic: AtomicU64,
    replaced_wedged: AtomicU64,
}

/// Counter snapshot for health reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests resolved from the full-result cache at admission (these
    /// also count as `submitted` and `completed`).
    pub served_from_cache: u64,
    /// Requests that produced an inference.
    pub completed: u64,
    /// Requests that failed in the backend (typed inference error).
    pub failed: u64,
    /// Admission rejections: queue full.
    pub shed_overloaded: u64,
    /// Admission rejections: circuit breaker open.
    pub shed_breaker: u64,
    /// Requests whose deadline expired while queued.
    pub shed_deadline: u64,
    /// Workers replaced after a panic.
    pub replaced_panic: u64,
    /// Workers abandoned and replaced after wedging.
    pub replaced_wedged: u64,
}

/// Per-worker health row.
#[derive(Debug, Clone, Copy)]
pub struct WorkerHealth {
    /// Worker slot index.
    pub slot: usize,
    /// How many times this slot has been respawned.
    pub generation: u64,
    /// Time since the slot's last heartbeat.
    pub last_heartbeat_age: Duration,
    /// Whether a request is currently in flight on this slot.
    pub busy: bool,
}

/// Point-in-time pool health/readiness.
#[derive(Debug, Clone)]
pub struct HealthSnapshot {
    /// Requests waiting in the admission queue.
    pub queue_depth: usize,
    /// Configured queue capacity.
    pub queue_capacity: usize,
    /// Requests currently running on workers.
    pub in_flight: usize,
    /// One row per worker slot.
    pub workers: Vec<WorkerHealth>,
    /// Breaker state per database seen so far.
    pub breakers: Vec<(String, BreakerState)>,
    /// Lifetime counters of this pool alone.
    pub stats: StatsSnapshot,
    /// Registry-backed metrics: queue-wait latency distribution,
    /// in-flight gauge, breaker transition counts, batch sizes.
    pub metrics: MetricsSnapshot,
    /// Result-cache counters when a [`SystemCache`] is attached
    /// ([`ServeConfig::cache`]); `None` for cacheless pools.
    pub cache: Option<SystemCacheStats>,
    /// True when the pool is accepting requests (not shutting down and the
    /// queue has headroom).
    pub ready: bool,
}

struct SlotState {
    /// Milliseconds since `Inner::epoch` at the last heartbeat.
    heartbeat_ms: AtomicU64,
    /// Bumped to abandon the current occupant (wedge path) — a worker
    /// observing a newer generation than its own exits instead of taking
    /// more work.
    generation: AtomicU64,
}

struct Inner {
    config: ServeConfig,
    backend: Arc<dyn Backend>,
    queue_rx: Receiver<Job>,
    breakers: Mutex<HashMap<String, CircuitBreaker>>,
    in_flight: Mutex<HashMap<usize, InFlight>>,
    slots: Vec<SlotState>,
    stats: Stats,
    metrics: ServeMetrics,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    epoch: Instant,
}

impl Inner {
    fn stamp_heartbeat(&self, slot: usize) {
        let ms = self.epoch.elapsed().as_millis() as u64;
        self.slots[slot].heartbeat_ms.store(ms, Ordering::SeqCst);
    }

    fn heartbeat_age(&self, slot: usize) -> Duration {
        let now = self.epoch.elapsed().as_millis() as u64;
        let then = self.slots[slot].heartbeat_ms.load(Ordering::SeqCst);
        Duration::from_millis(now.saturating_sub(then))
    }

    /// Single chokepoint for breaker access: every state transition an
    /// operation causes is observed here and counted into the
    /// `codes_serve_breaker_transitions_total{from,to}` family.
    fn with_breaker<R>(&self, db_id: &str, f: impl FnOnce(&mut CircuitBreaker) -> R) -> R {
        let mut map = self.breakers.lock();
        let breaker = map
            .entry(db_id.to_string())
            .or_insert_with(|| CircuitBreaker::new(self.config.breaker.clone()));
        let before = breaker.state().kind();
        let result = f(breaker);
        let after = breaker.state().kind();
        if before != after {
            self.metrics.breaker_transition(before, after);
        }
        result
    }

    /// Keep the in-flight gauge in lockstep with the in-flight map.
    fn sync_in_flight_gauge(&self, map: &HashMap<usize, InFlight>) {
        self.metrics.in_flight.set(map.len() as i64);
    }

    /// The request's effective (pre-clamp) inference config: its own
    /// override when present, the pool default otherwise.
    fn effective_config(&self, request: &InferenceRequest) -> Config {
        request.config.unwrap_or(self.config.base_config)
    }

    /// Admit a clean result into the full-result cache tier under the
    /// job's submit-time `(generation, question_key, config_fp)` slot.
    fn admit_to_cache(&self, db_id: &str, job: &Job, reply: &BackendReply) {
        // Admit only clean results: a degradation means the deadline
        // clamp (or a fault) changed the answer path, and such an
        // answer must never be replayed to an unclamped request.
        // The submit-time generation in `cache_slot` keeps this
        // race-free against concurrent invalidation.
        if let (Some(cache), Some((generation, question_key, config_fp))) =
            (&self.config.cache, &job.cache_slot)
        {
            if reply.degradations.is_empty() {
                cache.admit_full(
                    db_id,
                    *generation,
                    question_key,
                    *config_fp,
                    CachedAnswer {
                        sql: reply.sql.clone(),
                        prompt_tokens: reply.prompt_tokens,
                        compute_latency_seconds: reply.latency_seconds,
                    },
                );
            }
        }
    }

    /// The formation-relevant view of a queued job as of `now`.
    fn member_info(&self, job: &Job, now: Instant) -> MemberInfo {
        let budget = job.request.deadline.unwrap_or(self.config.default_deadline);
        let queued = now.saturating_duration_since(job.submitted);
        MemberInfo::of_request(
            &job.request,
            &self.config.base_config,
            budget.saturating_sub(queued),
        )
    }

    /// Drain the compatible followers already queued behind `seed`,
    /// returning the formed batch plus — when a drained job stopped
    /// formation — the job that must seed the next dispatch. Never blocks:
    /// an empty queue dispatches what has been gathered so far.
    fn form_batch(&self, seed: Job) -> (Vec<Job>, Option<Job>) {
        let policy = BatchPolicy { max_batch: self.config.max_batch.max(1) };
        let (batch, leftover) = policy.drain(
            seed,
            |job| self.member_info(job, Instant::now()),
            || self.queue_rx.try_recv().ok(),
        );
        if leftover.is_some() {
            self.metrics.batch_bypass_mismatch.inc();
        }
        (batch, leftover)
    }

    /// Run one formed dispatch of N ≥ 1 jobs to a resolved outcome for
    /// every member. A batch failure resolves every member's
    /// [`ReplySlot`] exactly once — nothing hangs.
    fn process_batch(self: &Arc<Inner>, slot: usize, jobs: Vec<Job>) {
        self.metrics.batch_size.record_ns(jobs.len() as u64);
        let now = Instant::now();
        // Per-member deadline sheds first: a member that expired while
        // queued must not drag the batch (its class-mates still have time —
        // classes bound budgets within 2×). Every dequeued request
        // contributes a queue-wait sample — sheds included, since their
        // wait is exactly what made them sheddable.
        let mut live: Vec<(Job, Duration, Duration)> = Vec::with_capacity(jobs.len());
        for job in jobs {
            let budget = job.request.deadline.unwrap_or(self.config.default_deadline);
            let queued = now.saturating_duration_since(job.submitted);
            self.metrics.queue_wait.record(queued);
            if queued >= budget {
                self.stats.shed_deadline.fetch_add(1, Ordering::Relaxed);
                self.metrics.shed_deadline.inc();
                job.reply.complete(Err(Error::DeadlineExceeded { queued, budget }));
                continue;
            }
            live.push((job, queued, budget));
        }
        let Some((first, _, _)) = live.first() else {
            return;
        };
        let db_id = first.request.db_id.clone();
        let batch_key = first.id;

        // One breaker admission covers the whole batch (members share the
        // database by construction); success/failure below is still
        // recorded per member so the failure threshold keeps its meaning.
        let admission = self.with_breaker(&db_id, |b| b.admit(now));
        if let Admission::Reject { retry_after } = admission {
            for (job, _, _) in live {
                self.stats.shed_breaker.fetch_add(1, Ordering::Relaxed);
                self.metrics.shed_breaker.inc();
                job.reply.complete(Err(Error::CircuitOpen {
                    db_id: db_id.clone(),
                    retry_after,
                }));
            }
            return;
        }

        // Register every member before touching the backend: if this worker
        // panics or wedges mid-batch, the supervisor resolves all of them.
        {
            let mut in_flight = self.in_flight.lock();
            in_flight.insert(
                slot,
                InFlight {
                    job_id: batch_key,
                    db_id: db_id.clone(),
                    started: now,
                    replies: live.iter().map(|(j, _, _)| Arc::clone(&j.reply)).collect(),
                },
            );
            self.sync_in_flight_gauge(&in_flight);
        }
        for (job, _, _) in &live {
            job.observe(Progress::Dispatched { worker: slot, batch_size: live.len() });
        }

        // One config for the whole dispatch: the members' shared effective
        // config (formation guarantees one fingerprint) clamped to the
        // tightest remaining budget, so the batch can never overrun any
        // member's deadline.
        let min_remaining = live
            .iter()
            .map(|(_, queued, budget)| budget.saturating_sub(*queued))
            .min()
            .unwrap_or(Duration::ZERO);
        let config = self.effective_config(&first.request).clamped_to_deadline(min_remaining);
        let requests: Vec<(&InferenceRequest, u64)> =
            live.iter().map(|(j, _, _)| (&j.request, j.id)).collect();
        let mut results = self.backend.infer_batch(&requests, &config);
        drop(requests);
        // A backend returning the wrong arity is a contract violation;
        // surface it as a typed failure instead of hanging the tail.
        while results.len() < live.len() {
            results.push(Err(sqlengine::Error::Exec(
                "backend returned too few batch results".to_string(),
            )));
        }

        let mut outcomes: Vec<Outcome> = Vec::with_capacity(live.len());
        for ((job, queued, _budget), result) in live.iter().zip(results) {
            // Per-member transient retries: the batch dispatch was attempt
            // zero at full limits, and the engine's halving schedule
            // resumes from there one member at a time. Pacing is
            // decorrelated across requests while each request's schedule
            // stays deterministic.
            let backoff = Backoff { seed: RETRY_BACKOFF.seed ^ job.id, ..RETRY_BACKOFF };
            let mut dispatched = Some(result);
            let result = with_retry_paced(
                &config.exec_limits,
                config.retry_attempts,
                |attempt| std::thread::sleep(backoff.delay(attempt)),
                |limits| {
                    dispatched.take().unwrap_or_else(|| {
                        let mut attempt_config = config;
                        attempt_config.exec_limits = *limits;
                        self.backend.infer(&job.request, job.id, &attempt_config)
                    })
                },
            );
            outcomes.push(match result {
                Ok(reply) => {
                    self.with_breaker(&db_id, |b| b.record_success());
                    self.stats.completed.fetch_add(1, Ordering::Relaxed);
                    self.metrics.completed.inc();
                    self.admit_to_cache(&db_id, job, &reply);
                    Ok(ServedInference {
                        request_id: job.id,
                        sql: reply.sql,
                        degradations: reply.degradations,
                        latency_seconds: reply.latency_seconds,
                        queue_wait_seconds: queued.as_secs_f64(),
                        prompt_tokens: reply.prompt_tokens,
                        worker: slot,
                        cached: false,
                        stages: reply.stages,
                    })
                }
                Err(e) => {
                    self.with_breaker(&db_id, |b| b.record_failure(Instant::now()));
                    self.stats.failed.fetch_add(1, Ordering::Relaxed);
                    self.metrics.failed.inc();
                    Err(Error::Engine(e))
                }
            });
        }

        // Unregister only our own entry (the supervisor may have handed the
        // slot to a replacement after declaring this worker wedged).
        {
            let mut in_flight = self.in_flight.lock();
            if in_flight.get(&slot).is_some_and(|f| f.job_id == batch_key) {
                in_flight.remove(&slot);
            }
            self.sync_in_flight_gauge(&in_flight);
        }
        for ((job, _, _), outcome) in live.iter().zip(outcomes) {
            if let Ok(served) = &outcome {
                job.observe(Progress::Generated { latency_seconds: served.latency_seconds });
            }
            job.reply.complete(outcome);
        }
    }
}

fn worker_loop(inner: Arc<Inner>, slot: usize, generation: u64) {
    loop {
        inner.stamp_heartbeat(slot);
        // A newer generation means the supervisor abandoned this worker
        // (wedge path) and a replacement owns the slot now.
        if inner.slots[slot].generation.load(Ordering::SeqCst) != generation {
            return;
        }
        match inner.queue_rx.recv_timeout(inner.config.heartbeat_interval) {
            Ok(job) => {
                // A drained job that stopped batch formation seeds the next
                // dispatch, so one recv can chain several dispatches.
                let mut seed = Some(job);
                while let Some(job) = seed.take() {
                    inner.stamp_heartbeat(slot);
                    let (batch, mut leftover) = inner.form_batch(job);
                    // Only the dispatched batch is registered in-flight; a
                    // backend panic would unwind past this frame and drop
                    // the still-unregistered leftover, hanging its ticket.
                    // Catch, resolve it as the same worker death, and let
                    // the panic continue to the supervisor.
                    let dispatched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                        || inner.process_batch(slot, batch),
                    ));
                    if let Err(payload) = dispatched {
                        if let Some(job) = leftover.take() {
                            job.reply
                                .complete(Err(Error::WorkerPanic(panic_message(&*payload))));
                        }
                        std::panic::resume_unwind(payload);
                    }
                    if inner.slots[slot].generation.load(Ordering::SeqCst) != generation {
                        // Superseded mid-dispatch: the supervisor declared
                        // this worker wedged while the backend stalled and a
                        // replacement owns the slot (and the in-flight map
                        // entry) now. Processing the leftover here would
                        // register it over the replacement's entry, leaving
                        // members unresolvable if either thread then dies —
                        // resolve it with the same verdict its batch got and
                        // bow out.
                        if let Some(job) = leftover.take() {
                            job.reply.complete(Err(Error::WorkerWedged {
                                stalled: inner.config.wedged_after,
                            }));
                        }
                        return;
                    }
                    seed = leftover;
                }
                inner.stamp_heartbeat(slot);
                if inner.slots[slot].generation.load(Ordering::SeqCst) != generation {
                    return;
                }
            }
            Err(channel::RecvTimeoutError::Timeout) => continue,
            // Queue closed and drained: clean shutdown.
            Err(channel::RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn spawn_worker(inner: &Arc<Inner>, slot: usize, generation: u64) -> JoinHandle<()> {
    inner.stamp_heartbeat(slot);
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name(format!("serve-worker-{slot}"))
        .spawn(move || worker_loop(inner, slot, generation))
        .expect("spawn serve worker thread")
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

fn supervisor_loop(inner: Arc<Inner>, mut workers: Vec<Option<JoinHandle<()>>>) {
    loop {
        std::thread::sleep(inner.config.heartbeat_interval);
        let shutting_down = inner.shutdown.load(Ordering::SeqCst);
        let keep_serving = |inner: &Inner| {
            !inner.shutdown.load(Ordering::SeqCst) || !inner.queue_rx.is_empty()
        };

        for slot in 0..workers.len() {
            let finished = workers[slot].as_ref().is_some_and(|h| h.is_finished());
            if finished {
                let handle = workers[slot].take().expect("checked Some above");
                match handle.join() {
                    Ok(()) => {
                        // Clean exit: either shutdown drain finished or the
                        // worker was superseded after a wedge (slot already
                        // respawned in that case, so `workers[slot]` was
                        // re-filled before this handle ran down).
                        if keep_serving(&inner) {
                            let generation = inner.slots[slot].generation.load(Ordering::SeqCst);
                            workers[slot] = Some(spawn_worker(&inner, slot, generation));
                        }
                    }
                    Err(payload) => {
                        let msg = panic_message(&*payload);
                        let orphan = {
                            let mut in_flight = inner.in_flight.lock();
                            let orphan = in_flight.remove(&slot);
                            inner.sync_in_flight_gauge(&in_flight);
                            orphan
                        };
                        if let Some(orphan) = orphan {
                            inner.with_breaker(&orphan.db_id, |b| b.record_failure(Instant::now()));
                            // A panic mid-batch orphans every member; each
                            // ticket resolves exactly once (write-once
                            // slots), never hangs.
                            for reply in &orphan.replies {
                                reply.complete(Err(Error::WorkerPanic(msg.clone())));
                            }
                        }
                        inner.stats.replaced_panic.fetch_add(1, Ordering::Relaxed);
                        inner.metrics.replaced_panic.inc();
                        let generation =
                            inner.slots[slot].generation.fetch_add(1, Ordering::SeqCst) + 1;
                        if keep_serving(&inner) || !inner.in_flight.lock().is_empty() {
                            workers[slot] = Some(spawn_worker(&inner, slot, generation));
                        }
                    }
                }
                continue;
            }

            // Wedge detection: only a worker that owns an in-flight request
            // and has stopped heartbeating is wedged — idle workers always
            // heartbeat within one interval.
            if workers[slot].is_some() && inner.heartbeat_age(slot) > inner.config.wedged_after {
                let orphan = {
                    let mut in_flight = inner.in_flight.lock();
                    let orphan = match in_flight.get(&slot) {
                        Some(f) if f.started.elapsed() > inner.config.wedged_after => {
                            in_flight.remove(&slot)
                        }
                        _ => None,
                    };
                    inner.sync_in_flight_gauge(&in_flight);
                    orphan
                };
                if let Some(orphan) = orphan {
                    let stalled = inner.heartbeat_age(slot);
                    inner.with_breaker(&orphan.db_id, |b| b.record_failure(Instant::now()));
                    for reply in &orphan.replies {
                        reply.complete(Err(Error::WorkerWedged { stalled }));
                    }
                    inner.stats.replaced_wedged.fetch_add(1, Ordering::Relaxed);
                    inner.metrics.replaced_wedged.inc();
                    // Abandon (detach) the wedged thread and hand the slot
                    // to a fresh generation; the old thread exits on its
                    // own when it notices the bump.
                    let generation = inner.slots[slot].generation.fetch_add(1, Ordering::SeqCst) + 1;
                    drop(workers[slot].take());
                    workers[slot] = Some(spawn_worker(&inner, slot, generation));
                }
            }
        }

        if shutting_down
            && workers.iter().all(Option::is_none)
            && inner.queue_rx.is_empty()
            && inner.in_flight.lock().is_empty()
        {
            return;
        }
    }
}

/// The serving pool. Create with [`Pool::start`], submit with
/// [`Pool::submit`], inspect with [`Pool::health`], and stop with
/// [`Pool::shutdown`] (drains the queue before returning).
pub struct Pool {
    inner: Arc<Inner>,
    queue_tx: Mutex<Option<Sender<Job>>>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

impl Pool {
    /// Spawn workers and the supervisor over `backend`. Metrics go to the
    /// process-global [`codes_obs`] registry; use
    /// [`Pool::start_with_registry`] for an isolated one.
    pub fn start<B: Backend + 'static>(backend: B, config: ServeConfig) -> Pool {
        Pool::start_with_registry(backend, config, codes_obs::global())
    }

    /// Like [`Pool::start`], but record metrics into `registry` instead of
    /// the process-global one — lets tests assert counters in isolation.
    pub fn start_with_registry<B: Backend + 'static>(
        backend: B,
        config: ServeConfig,
        registry: Arc<codes_obs::Registry>,
    ) -> Pool {
        Pool::start_shared(Arc::new(backend), config, registry)
    }

    /// Like [`Pool::start_with_registry`], but over an already-shared,
    /// type-erased backend (a router's `ShardSpec` holds one).
    pub fn start_shared(
        backend: Arc<dyn Backend>,
        config: ServeConfig,
        registry: Arc<codes_obs::Registry>,
    ) -> Pool {
        assert!(config.workers > 0, "pool needs at least one worker");
        assert!(config.queue_capacity > 0, "admission queue needs capacity");
        let (queue_tx, queue_rx) = channel::bounded::<Job>(config.queue_capacity);
        let slots = (0..config.workers)
            .map(|_| SlotState { heartbeat_ms: AtomicU64::new(0), generation: AtomicU64::new(0) })
            .collect();
        let inner = Arc::new(Inner {
            config,
            backend,
            queue_rx,
            breakers: Mutex::new(HashMap::new()),
            in_flight: Mutex::new(HashMap::new()),
            slots,
            stats: Stats::default(),
            metrics: ServeMetrics::new(registry),
            next_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
        });
        let workers: Vec<Option<JoinHandle<()>>> =
            (0..inner.config.workers).map(|slot| Some(spawn_worker(&inner, slot, 0))).collect();
        let supervisor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("serve-supervisor".to_string())
                .spawn(move || supervisor_loop(inner, workers))
                .expect("spawn serve supervisor thread")
        };
        Pool { inner, queue_tx: Mutex::new(Some(queue_tx)), supervisor: Mutex::new(Some(supervisor)) }
    }

    /// Submit a request. Returns a [`Ticket`] on admission, or an immediate
    /// typed rejection when the queue is full or the pool is stopping.
    pub fn submit(&self, request: InferenceRequest) -> Result<Ticket, Error> {
        let (reply_tx, reply_rx) = channel::bounded::<Outcome>(1);
        let id = self.submit_routed_with_progress(request, reply_tx, None)?;
        Ok(Ticket { id, rx: reply_rx })
    }

    /// Submit a request whose outcome resolves through an externally held
    /// sender (see [`Ticket::detached`]). On `Ok` the pool owns resolution:
    /// exactly one outcome will be sent — from the cache fast path, a
    /// worker, the supervisor (panic/wedge), or shutdown cleanup. On `Err`
    /// the pool has sent nothing and the caller keeps responsibility for
    /// the ticket. Returns the pool-assigned request id.
    ///
    /// `progress`, when given, receives a `Queued` notification on
    /// successful admission (not on the cache fast path — a cached answer
    /// was never queued) and rides the job through dispatch and decode
    /// (see [`crate::progress`]).
    pub fn submit_routed_with_progress(
        &self,
        request: InferenceRequest,
        reply_tx: Sender<Outcome>,
        progress: Option<Arc<dyn ProgressSink>>,
    ) -> Result<u64, Error> {
        let queue_guard = self.queue_tx.lock();
        let Some(queue_tx) = queue_guard.as_ref() else {
            return Err(Error::ShuttingDown);
        };
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(Error::ShuttingDown);
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::SeqCst);

        // T3 check at admission: a cached answer resolves the ticket right
        // here, spending no queue slot and no worker time. The generation,
        // normalized question and effective-config fingerprint are captured
        // now either way, so a fresh result later admits under the
        // submit-time generation (and a per-request config override never
        // shares entries with the pool default).
        let cache_slot = self.inner.config.cache.as_ref().map(|cache| {
            (
                cache.generation(&request.db_id),
                normalize_question(&request.question, request.knowledge()),
                config_fingerprint(&self.inner.effective_config(&request)),
            )
        });
        if let (Some(cache), Some((generation, question_key, config_fp))) =
            (&self.inner.config.cache, &cache_slot)
        {
            if let Some(answer) =
                cache.lookup_full(&request.db_id, *generation, question_key, *config_fp)
            {
                self.inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
                self.inner.metrics.submitted.inc();
                self.inner.stats.served_from_cache.fetch_add(1, Ordering::Relaxed);
                self.inner.metrics.served_from_cache.inc();
                self.inner.stats.completed.fetch_add(1, Ordering::Relaxed);
                self.inner.metrics.completed.inc();
                let _ = reply_tx.try_send(Ok(ServedInference {
                    request_id: id,
                    sql: answer.sql,
                    degradations: vec![],
                    latency_seconds: 0.0,
                    queue_wait_seconds: 0.0,
                    prompt_tokens: answer.prompt_tokens,
                    worker: 0,
                    cached: true,
                    stages: codes_obs::StageTimings::zero(),
                }));
                return Ok(id);
            }
        }

        let job = Job {
            id,
            request,
            submitted: Instant::now(),
            reply: Arc::new(ReplySlot::new(reply_tx)),
            cache_slot,
            progress: progress.clone(),
        };
        match queue_tx.try_send(job) {
            Ok(()) => {
                self.inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
                self.inner.metrics.submitted.inc();
                if let Some(sink) = &progress {
                    sink.notify(Progress::Queued);
                }
                Ok(id)
            }
            Err(TrySendError::Full(_)) => {
                self.inner.stats.shed_overloaded.fetch_add(1, Ordering::Relaxed);
                self.inner.metrics.shed_overloaded.inc();
                Err(Error::Overloaded {
                    queue_depth: queue_tx.len(),
                    capacity: self.inner.config.queue_capacity,
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(Error::ShuttingDown),
        }
    }

    /// Point-in-time health/readiness snapshot.
    pub fn health(&self) -> HealthSnapshot {
        let inner = &self.inner;
        let in_flight = inner.in_flight.lock();
        let workers = (0..inner.config.workers)
            .map(|slot| WorkerHealth {
                slot,
                generation: inner.slots[slot].generation.load(Ordering::SeqCst),
                last_heartbeat_age: inner.heartbeat_age(slot),
                busy: in_flight.contains_key(&slot),
            })
            .collect();
        let queue_depth = inner.queue_rx.len();
        let stats = StatsSnapshot {
            submitted: inner.stats.submitted.load(Ordering::Relaxed),
            served_from_cache: inner.stats.served_from_cache.load(Ordering::Relaxed),
            completed: inner.stats.completed.load(Ordering::Relaxed),
            failed: inner.stats.failed.load(Ordering::Relaxed),
            shed_overloaded: inner.stats.shed_overloaded.load(Ordering::Relaxed),
            shed_breaker: inner.stats.shed_breaker.load(Ordering::Relaxed),
            shed_deadline: inner.stats.shed_deadline.load(Ordering::Relaxed),
            replaced_panic: inner.stats.replaced_panic.load(Ordering::Relaxed),
            replaced_wedged: inner.stats.replaced_wedged.load(Ordering::Relaxed),
        };
        HealthSnapshot {
            queue_depth,
            queue_capacity: inner.config.queue_capacity,
            in_flight: in_flight.len(),
            workers,
            breakers: {
                let map = inner.breakers.lock();
                let mut rows: Vec<(String, BreakerState)> =
                    map.iter().map(|(k, v)| (k.clone(), v.state())).collect();
                rows.sort_by(|a, b| a.0.cmp(&b.0));
                rows
            },
            stats,
            metrics: inner.metrics.snapshot(),
            cache: inner.config.cache.as_ref().map(|c| c.stats()),
            ready: !inner.shutdown.load(Ordering::SeqCst)
                && queue_depth < inner.config.queue_capacity,
        }
    }

    /// Invalidate every cached entry for `db_id` by bumping its
    /// generation; call this after mutating the database out-of-band.
    /// Returns `Ok(Some(generation))` on a bump, `Ok(None)` when the pool
    /// has no cache attached, and [`Error::UnknownDatabase`] when the
    /// backend tracks a database universe and `db_id` is not in it —
    /// invalidating a database on the wrong pool used to silently no-op,
    /// leaving the *right* pool's stale entries live. In-flight requests
    /// that started before the bump will still admit their results — under
    /// the old generation, where no future lookup can reach them.
    pub fn invalidate_database(&self, db_id: &str) -> Result<Option<u64>, Error> {
        if self.inner.backend.has_database(db_id) == Some(false) {
            return Err(Error::UnknownDatabase { db_id: db_id.to_string() });
        }
        Ok(self.inner.config.cache.as_ref().map(|c| c.invalidate_database(db_id)))
    }

    /// Non-mutating peek at `db_id`'s circuit breaker: `Some(retry_after)`
    /// while the breaker is open, `None` when it is closed, half-open, or
    /// has never seen the database. Unlike admission this never transitions
    /// the state machine, so routing layers can consult it without stealing
    /// the half-open probe slot.
    pub fn breaker_retry_after(&self, db_id: &str) -> Option<Duration> {
        let map = self.inner.breakers.lock();
        match map.get(db_id).map(CircuitBreaker::state) {
            Some(BreakerState::Open { until, .. }) => {
                Some(until.saturating_duration_since(Instant::now()))
            }
            _ => None,
        }
    }

    /// Stop accepting requests, drain everything already queued or in
    /// flight, and stop the workers and supervisor. Safe to call from any
    /// thread holding only `&Pool` (a router drains its shards' pools on
    /// shutdown, and `Drop` drains again); concurrent calls are idempotent —
    /// the first one joins the supervisor, later ones return immediately.
    /// Every ticket still resolves exactly once: queued work is served (or
    /// shed on deadline/breaker) and in-flight work runs to completion,
    /// with the supervisor replacing panicked/wedged workers until the
    /// drain is clean.
    pub fn drain(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Dropping the only sender lets workers drain the queue and then
        // see Disconnected.
        drop(self.queue_tx.lock().take());
        let supervisor = self.supervisor.lock().take();
        if let Some(supervisor) = supervisor {
            let _ = supervisor.join();
        }
    }

    /// Stop accepting requests, drain everything already queued or in
    /// flight, stop the workers and supervisor, and return the final
    /// health snapshot.
    pub fn shutdown(self) -> HealthSnapshot {
        self.drain();
        self.health()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes the question back as SQL after an optional fixed delay.
    struct EchoBackend {
        delay: Duration,
    }

    impl Backend for EchoBackend {
        fn infer(
            &self,
            request: &InferenceRequest,
            _id: u64,
            _config: &Config,
        ) -> Result<BackendReply, sqlengine::Error> {
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            Ok(BackendReply {
                sql: format!("SELECT '{}'", request.question),
                degradations: vec![],
                latency_seconds: self.delay.as_secs_f64(),
                prompt_tokens: request.question.split_whitespace().count(),
                ..BackendReply::default()
            })
        }
    }

    /// Fails permanently until `healthy` flips on.
    struct SwitchBackend {
        healthy: Arc<AtomicBool>,
    }

    impl Backend for SwitchBackend {
        fn infer(
            &self,
            request: &InferenceRequest,
            _id: u64,
            _config: &Config,
        ) -> Result<BackendReply, sqlengine::Error> {
            if self.healthy.load(Ordering::SeqCst) {
                Ok(BackendReply {
                    sql: "SELECT 1".to_string(),
                    degradations: vec![],
                    latency_seconds: 0.0,
                    prompt_tokens: request.question.len(),
                    ..BackendReply::default()
                })
            } else {
                Err(sqlengine::Error::Exec("database offline".to_string()))
            }
        }
    }

    /// Echo backend that reports a fixed degradation list.
    struct DegradedEchoBackend {
        degradations: Vec<String>,
    }

    impl Backend for DegradedEchoBackend {
        fn infer(
            &self,
            request: &InferenceRequest,
            _id: u64,
            _config: &Config,
        ) -> Result<BackendReply, sqlengine::Error> {
            Ok(BackendReply {
                sql: format!("SELECT '{}'", request.question),
                degradations: self.degradations.clone(),
                latency_seconds: 0.0,
                prompt_tokens: request.question.split_whitespace().count(),
                ..BackendReply::default()
            })
        }
    }

    fn quick_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            default_deadline: Duration::from_secs(5),
            heartbeat_interval: Duration::from_millis(5),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn requests_round_trip_and_drain_on_shutdown() {
        let pool = Pool::start(EchoBackend { delay: Duration::ZERO }, quick_config());
        let tickets: Vec<Ticket> = (0..12)
            .map(|i| {
                pool.submit(InferenceRequest::new("db", format!("q{i}"))).expect("queue has headroom")
            })
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let served = t.wait().expect("echo backend cannot fail");
            assert_eq!(served.sql, format!("SELECT 'q{i}'"));
        }
        let health = pool.shutdown();
        assert_eq!(health.stats.completed, 12);
        assert_eq!(health.stats.submitted, 12);
        assert_eq!(health.queue_depth, 0);
        assert_eq!(health.in_flight, 0);
        assert!(!health.ready);
    }

    /// One worker parked inside a dispatch behind a [`crate::GatedBackend`],
    /// so whatever the test submits next is queued — not racing the worker
    /// — until the gate opens.
    fn parked_single_worker<B: Backend + 'static>(
        backend: B,
        max_batch: usize,
    ) -> (Pool, crate::Gate, Ticket) {
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 16,
            max_batch,
            default_deadline: Duration::from_secs(30),
            heartbeat_interval: Duration::from_millis(5),
            ..ServeConfig::default()
        };
        let (backend, gate) = crate::GatedBackend::new(backend);
        let pool =
            Pool::start_with_registry(backend, config, Arc::new(codes_obs::Registry::new()));
        let hold = pool
            .submit(InferenceRequest::new("db", crate::Gate::HOLD))
            .expect("admitted");
        gate.wait_parked();
        (pool, gate, hold)
    }

    /// Submit with a lifecycle observer feeding `events`.
    fn submit_observed(pool: &Pool, db: &str, question: &str, events: &Sender<Progress>) -> Ticket {
        let (ticket, reply_tx) = Ticket::detached(0);
        pool.submit_routed_with_progress(
            InferenceRequest::new(db, question),
            reply_tx,
            Some(Arc::new(events.clone())),
        )
        .expect("admitted");
        ticket
    }

    /// The `batch_size` of every `Dispatched` notification, in order.
    fn dispatched_sizes(events: &Receiver<Progress>) -> Vec<usize> {
        std::iter::from_fn(|| events.try_recv().ok())
            .filter_map(|p| match p {
                Progress::Dispatched { batch_size, .. } => Some(batch_size),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_backlog_behind_a_busy_worker_dispatches_as_full_batches() {
        let (pool, gate, hold) = parked_single_worker(EchoBackend { delay: Duration::ZERO }, 4);
        let (events_tx, events) = channel::unbounded();
        // Six compatible jobs queue up behind the parked worker: the next
        // dispatch takes `max_batch` of them, the one after takes the rest.
        let tickets: Vec<Ticket> =
            (0..6).map(|i| submit_observed(&pool, "db", &format!("q{i}"), &events_tx)).collect();
        gate.open();
        hold.wait().expect("held request completes once released");
        for (i, t) in tickets.into_iter().enumerate() {
            let served = t.wait().expect("echo cannot fail");
            assert_eq!(served.sql, format!("SELECT 'q{i}'"), "batching must not reorder replies");
        }
        let health = pool.shutdown();
        assert_eq!(dispatched_sizes(&events), vec![4, 4, 4, 4, 2, 2]);
        assert_eq!(health.stats.completed, 7);
        // One size sample per dispatch: the solo hold, the four, the two.
        assert_eq!(health.metrics.batch_size.count, 3);
        assert_eq!(health.metrics.batch_size.max_ns, 4);
        assert_eq!(health.metrics.batch_bypass_mismatch, 0);
    }

    /// The converse of the gated tests, sink-ordered: a lone request is
    /// dispatched alone while no second job exists. Event order cannot see
    /// a timer — that formation never waits is `BatchPolicy::drain`
    /// stopping at the first empty poll (`tests/batch_props.rs`) and the
    /// lone-caller row of `bench --bin batching`.
    #[test]
    fn a_lone_request_is_dispatched_alone_before_a_second_is_submitted() {
        let config = ServeConfig { workers: 1, max_batch: 8, ..quick_config() };
        let pool = Pool::start(EchoBackend { delay: Duration::ZERO }, config);
        let (events_tx, events) = channel::unbounded();
        let first = submit_observed(&pool, "db", "first", &events_tx);
        let dispatched = std::iter::from_fn(|| events.recv().ok())
            .find(|p| matches!(p, Progress::Dispatched { .. }))
            .expect("the lone request is dispatched");
        assert_eq!(dispatched, Progress::Dispatched { worker: 0, batch_size: 1 });
        let second = submit_observed(&pool, "db", "second", &events_tx);
        first.wait().expect("echo cannot fail");
        second.wait().expect("echo cannot fail");
        pool.shutdown();
        assert_eq!(dispatched_sizes(&events), vec![1]);
    }

    #[test]
    fn incompatible_requests_never_share_a_dispatch() {
        let (pool, gate, hold) = parked_single_worker(EchoBackend { delay: Duration::ZERO }, 8);
        let (events_tx, events) = channel::unbounded();
        // Alternate databases: every drained follower mismatches the seed,
        // stops formation, and seeds the next dispatch itself.
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| {
                let db = if i % 2 == 0 { "alpha" } else { "beta" };
                submit_observed(&pool, db, &format!("q{i}"), &events_tx)
            })
            .collect();
        gate.open();
        hold.wait().expect("held request completes once released");
        for t in tickets {
            t.wait().expect("echo cannot fail");
        }
        let health = pool.shutdown();
        assert_eq!(dispatched_sizes(&events), vec![1, 1, 1, 1], "cross-database requests never batch");
        // q1, q2 and q3 each stopped the formation ahead of them.
        assert_eq!(health.metrics.batch_bypass_mismatch, 3);
    }

    /// Echo backend that records every call's `(question, exec_limits,
    /// time)` and fails the first `failures` calls for the question
    /// `"flaky"` with budget exhaustion.
    struct RecordingBackend {
        failures: usize,
        calls: Arc<Mutex<Vec<(String, sqlengine::ExecLimits, Instant)>>>,
    }

    impl Backend for RecordingBackend {
        fn infer(
            &self,
            request: &InferenceRequest,
            _id: u64,
            config: &Config,
        ) -> Result<BackendReply, sqlengine::Error> {
            let mut calls = self.calls.lock();
            let seen = calls.iter().filter(|(q, _, _)| q == "flaky").count();
            calls.push((request.question.clone(), config.exec_limits, Instant::now()));
            if request.question == "flaky" && seen < self.failures {
                return Err(sqlengine::Error::BudgetExceeded {
                    resource: sqlengine::Resource::Time,
                    spent: 1,
                    limit: 1,
                });
            }
            Ok(BackendReply { sql: request.question.clone(), ..BackendReply::default() })
        }
    }

    #[test]
    fn a_member_retries_on_the_halving_schedule_whatever_the_batch_size() {
        let retries = 2u32;
        let config = Config { retry_attempts: retries, ..Config::serving() };
        let full = config.exec_limits;
        let schedule = [full, full.halved(), full.halved().halved()];
        // `failures` ≤ retries recovers on the last attempt; one more
        // exhausts the retries and fails the member.
        for failures in [2usize, 3] {
            let attempts = failures.min(retries as usize) + 1;
            for members in [1usize, 3] {
                let calls = Arc::new(Mutex::new(Vec::new()));
                let backend = RecordingBackend { failures, calls: Arc::clone(&calls) };
                let (pool, gate, hold) = parked_single_worker(backend, 4);
                // The flaky request and its first-try companions queue up
                // behind the parked worker and leave as one dispatch.
                let tickets: Vec<Ticket> = ["flaky", "steady-1", "steady-2"][..members]
                    .iter()
                    .map(|q| {
                        let request = InferenceRequest::new("db", *q).with_config(config);
                        pool.submit(request).expect("admitted")
                    })
                    .collect();
                // Pacing is seeded per request id, so the exact delays are
                // known up front.
                let backoff = Backoff { seed: RETRY_BACKOFF.seed ^ tickets[0].id, ..RETRY_BACKOFF };
                gate.open();
                hold.wait().expect("held request completes once released");
                let outcomes: Vec<Outcome> = tickets.into_iter().map(Ticket::wait).collect();
                let health = pool.shutdown();

                let case = format!("{failures} failures, {members} members");
                match &outcomes[0] {
                    Ok(served) => {
                        assert!(failures <= retries as usize && served.sql == "flaky", "{case}")
                    }
                    Err(e) => assert!(
                        failures > retries as usize
                            && matches!(e, Error::Engine(sqlengine::Error::BudgetExceeded { .. })),
                        "{case}: {e}"
                    ),
                }
                assert!(outcomes[1..].iter().all(Result::is_ok), "{case}: companions succeed");
                let submitted = members as u64 + 1;
                assert_eq!(health.stats.submitted, submitted, "{case}");
                assert_eq!(health.stats.completed + health.stats.failed, submitted, "{case}");
                assert_eq!(health.stats.failed, u64::from(failures > retries as usize), "{case}");

                let calls = calls.lock();
                let dispatch: Vec<&str> =
                    calls.iter().skip(1).take(members).map(|(q, _, _)| q.as_str()).collect();
                assert_eq!(
                    dispatch,
                    ["flaky", "steady-1", "steady-2"][..members],
                    "{case}: attempt zero is the batch dispatch, before any retry"
                );
                assert_eq!(calls.len(), members + attempts, "{case}: only the flaky member retries");
                let flaky: Vec<_> = calls.iter().filter(|(q, _, _)| q == "flaky").collect();
                let limits: Vec<_> = flaky.iter().map(|(_, limits, _)| *limits).collect();
                assert_eq!(limits, schedule[..attempts], "{case}: full, ½, ¼ …");
                // One pause sits between every two attempts, sized by the
                // attempt it follows (sleep never undershoots, so the lower
                // bound cannot flake).
                for (attempt, pair) in flaky.windows(2).enumerate() {
                    let gap = pair[1].2.duration_since(pair[0].2);
                    let pause = backoff.delay(attempt as u32);
                    assert!(gap >= pause, "{case}: retry {attempt} after {gap:?}");
                }
            }
        }
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 1,
            heartbeat_interval: Duration::from_millis(5),
            default_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        };
        let pool = Pool::start(EchoBackend { delay: Duration::from_millis(100) }, config);
        let mut tickets = Vec::new();
        let mut overloaded = 0;
        for i in 0..6 {
            match pool.submit(InferenceRequest::new("db", format!("q{i}"))) {
                Ok(t) => tickets.push(t),
                Err(Error::Overloaded { capacity, .. }) => {
                    assert_eq!(capacity, 1);
                    overloaded += 1;
                }
                Err(e) => panic!("unexpected rejection: {e}"),
            }
        }
        assert!(overloaded > 0, "six instant submissions must overflow a capacity-1 queue");
        for t in tickets {
            t.wait().expect("admitted echo requests succeed");
        }
        let health = pool.shutdown();
        assert_eq!(health.stats.shed_overloaded, overloaded);
        assert_eq!(health.stats.completed + health.stats.shed_overloaded, 6);
    }

    #[test]
    fn expired_deadline_is_shed_without_running() {
        let pool = Pool::start(EchoBackend { delay: Duration::ZERO }, quick_config());
        let mut req = InferenceRequest::new("db", "late question");
        req.deadline = Some(Duration::ZERO);
        let outcome = pool.submit(req).expect("queue empty").wait();
        match outcome {
            Err(Error::DeadlineExceeded { budget, .. }) => assert_eq!(budget, Duration::ZERO),
            other => panic!("expected deadline shed, got {other:?}"),
        }
        let health = pool.shutdown();
        assert_eq!(health.stats.shed_deadline, 1);
        assert_eq!(health.stats.completed, 0);
    }

    #[test]
    fn repeated_questions_are_served_from_cache_until_invalidated() {
        let registry = Arc::new(codes_obs::Registry::new());
        let cache = Arc::new(codes::SystemCache::with_registry(
            &registry,
            codes::CacheSettings::default(),
        ));
        let mut config = quick_config();
        config.cache = Some(Arc::clone(&cache));
        let pool = Pool::start_with_registry(
            EchoBackend { delay: Duration::ZERO },
            config,
            Arc::clone(&registry),
        );

        // Cold: computed by a worker and admitted into T3.
        let cold = pool.submit(InferenceRequest::new("db", "How many clients?")).expect("admitted");
        let cold = cold.wait().expect("echo cannot fail");
        assert!(!cold.cached);

        // Warm: same question (modulo formatting) resolves at admission.
        let warm = pool.submit(InferenceRequest::new("db", "  how MANY clients? ")).expect("admitted");
        let warm = warm.wait().expect("cache hit cannot fail");
        assert!(warm.cached, "second submission must hit the full-result tier");
        assert_eq!(warm.sql, cold.sql);
        assert_eq!(warm.prompt_tokens, cold.prompt_tokens);

        // Invalidation: the generation bump makes the entry unreachable.
        assert_eq!(pool.invalidate_database("db").expect("echo backend accepts any db"), Some(1));
        let fresh = pool.submit(InferenceRequest::new("db", "how many clients?")).expect("admitted");
        assert!(!fresh.wait().expect("recomputed").cached);

        let health = pool.shutdown();
        assert_eq!(health.stats.served_from_cache, 1);
        assert_eq!(
            registry.counters_by_name(crate::metrics::SERVED_FROM_CACHE),
            vec![(vec![], 1)]
        );
        assert_eq!(health.stats.submitted, 3);
        assert_eq!(health.stats.completed, 3);
        let stats = health.cache.expect("cache attached");
        assert_eq!(stats.full.hits, 1);
        assert_eq!(stats.invalidations, 1);
    }

    #[test]
    fn degraded_results_are_never_admitted_to_the_cache() {
        let registry = Arc::new(codes_obs::Registry::new());
        let cache = Arc::new(codes::SystemCache::with_registry(
            &registry,
            codes::CacheSettings::default(),
        ));
        let mut config = quick_config();
        config.cache = Some(Arc::clone(&cache));
        let pool = Pool::start_with_registry(
            DegradedEchoBackend { degradations: vec!["greedy".to_string()] },
            config,
            registry,
        );
        for _ in 0..3 {
            let served =
                pool.submit(InferenceRequest::new("db", "q")).expect("admitted").wait().expect("served");
            assert!(!served.cached, "a degraded answer must never be replayed from cache");
            assert_eq!(served.degradations, vec!["greedy".to_string()]);
        }
        let health = pool.shutdown();
        assert_eq!(health.stats.served_from_cache, 0);
        assert_eq!(health.cache.expect("cache attached").full.entries, 0);
    }

    #[test]
    fn breaker_opens_after_failures_and_recovers_via_probe() {
        let mut config = quick_config();
        config.workers = 1;
        config.breaker = BreakerConfig {
            failure_threshold: 3,
            // Long window so the open state is observable; zero jitter for
            // an exact retry_after.
            backoff: Backoff {
                base: Duration::from_millis(40),
                max: Duration::from_secs(1),
                jitter: 0.0,
                seed: 1,
            },
        };
        // No engine-level retries: every submission is one backend call.
        config.base_config.retry_attempts = 0;
        let healthy = Arc::new(AtomicBool::new(false));
        let pool = Pool::start(SwitchBackend { healthy: Arc::clone(&healthy) }, config);

        // Three permanent failures trip the breaker...
        for i in 0..3 {
            let outcome = pool.submit(InferenceRequest::new("bank", format!("q{i}"))).expect("admitted").wait();
            assert!(
                matches!(outcome, Err(Error::Engine(_))),
                "failure {i} should surface the typed engine error"
            );
        }
        // ...so the next request is shed without touching the backend.
        let outcome = pool.submit(InferenceRequest::new("bank", "q3")).expect("admitted").wait();
        match outcome {
            Err(Error::CircuitOpen { db_id, retry_after }) => {
                assert_eq!(db_id, "bank");
                assert!(retry_after <= Duration::from_millis(40));
            }
            other => panic!("expected circuit-open shed, got {other:?}"),
        }
        let health = pool.health();
        assert!(matches!(
            health.breakers.iter().find(|(d, _)| d == "bank").expect("breaker exists").1,
            BreakerState::Open { .. }
        ));

        // Heal the backend, wait out the window: the probe closes the
        // breaker and requests flow again.
        healthy.store(true, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(60));
        let served = pool.submit(InferenceRequest::new("bank", "probe")).expect("admitted").wait();
        assert!(served.is_ok(), "probe after the window should succeed: {served:?}");
        let served = pool.submit(InferenceRequest::new("bank", "after")).expect("admitted").wait();
        assert!(served.is_ok());
        assert!(matches!(
            pool.health().breakers.iter().find(|(d, _)| d == "bank").expect("breaker exists").1,
            BreakerState::Closed { consecutive_failures: 0 }
        ));
        pool.shutdown();
    }
}
