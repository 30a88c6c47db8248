//! Chaos suite: the pool must survive a seeded storm of worker panics,
//! stalls, and budget exhaustion with **every** request resolving to a
//! result, a typed error, or an explicit `Overloaded` rejection — zero
//! hangs, zero lost requests — and drain completely on shutdown.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use codes::Error;
use codes_serve::{
    Backend, BackendReply, BreakerConfig, FaultPlan, FaultyBackend, Gate, GatedBackend,
    InferenceRequest, Pool, Progress, ServeConfig, Ticket,
};
use sqlengine::Backoff;

/// Keep injected panics out of test output without hiding real ones.
fn silence_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected fault"))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains("injected fault"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

/// Trivial inner backend: instant echo, counts real invocations.
struct EchoBackend {
    calls: Arc<AtomicUsize>,
}

impl Backend for EchoBackend {
    fn infer(
        &self,
        request: &InferenceRequest,
        _id: u64,
        _config: &codes::Config,
    ) -> Result<BackendReply, sqlengine::Error> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Ok(BackendReply {
            sql: format!("SELECT '{}'", request.question),
            degradations: vec![],
            latency_seconds: 0.0,
            prompt_tokens: request.question.split_whitespace().count(),
            ..BackendReply::default()
        })
    }
}

/// Answers with the current epoch — a stale cache entry served after a
/// data change is immediately visible as the wrong epoch in the SQL.
struct EpochBackend {
    epoch: Arc<AtomicU64>,
}

impl Backend for EpochBackend {
    fn infer(
        &self,
        _request: &InferenceRequest,
        _id: u64,
        _config: &codes::Config,
    ) -> Result<BackendReply, sqlengine::Error> {
        Ok(BackendReply {
            sql: format!("SELECT {}", self.epoch.load(Ordering::SeqCst)),
            degradations: vec![],
            latency_seconds: 0.0,
            prompt_tokens: 1,
            ..BackendReply::default()
        })
    }
}

fn chaos_config() -> ServeConfig {
    ServeConfig {
        workers: 4,
        queue_capacity: 32,
        default_deadline: Duration::from_secs(20),
        heartbeat_interval: Duration::from_millis(10),
        // Stalls (400ms, below) always cross this threshold; healthy echo
        // requests never do.
        wedged_after: Duration::from_millis(120),
        // High threshold + fast recovery so chaos failures spread over the
        // databases rarely pin a breaker open for the whole run.
        breaker: BreakerConfig {
            failure_threshold: 10,
            backoff: Backoff::new(Duration::from_millis(10), Duration::from_millis(80), 0xB0B),
        },
        ..ServeConfig::default()
    }
}

fn chaos_plan() -> FaultPlan {
    let mut plan = FaultPlan::chaos(0xC4A05);
    plan.stall = Duration::from_millis(400);
    plan
}

#[derive(Default, Debug)]
struct Tally {
    served: usize,
    inference: usize,
    worker_panic: usize,
    worker_wedged: usize,
    circuit_open: usize,
    deadline: usize,
    overloaded: usize,
    other: usize,
}

impl Tally {
    fn count(&mut self, outcome: &Result<codes_serve::ServedInference, Error>) {
        match outcome {
            Ok(_) => self.served += 1,
            Err(Error::Engine(_)) => self.inference += 1,
            Err(Error::WorkerPanic(_)) => self.worker_panic += 1,
            Err(Error::WorkerWedged { .. }) => self.worker_wedged += 1,
            Err(Error::CircuitOpen { .. }) => self.circuit_open += 1,
            Err(Error::DeadlineExceeded { .. }) => self.deadline += 1,
            Err(Error::Overloaded { .. }) => self.overloaded += 1,
            Err(_) => self.other += 1,
        }
    }

    fn total(&self) -> usize {
        self.served
            + self.inference
            + self.worker_panic
            + self.worker_wedged
            + self.circuit_open
            + self.deadline
            + self.overloaded
            + self.other
    }
}

#[test]
fn storm_of_200_requests_fully_drains_with_every_request_resolved() {
    silence_injected_panics();
    let started = Instant::now();
    let calls = Arc::new(AtomicUsize::new(0));
    let backend = FaultyBackend::new(EchoBackend { calls: Arc::clone(&calls) }, chaos_plan());
    let pool = Pool::start(backend, chaos_config());

    // Submit as fast as possible; a capacity-32 queue under 4 workers
    // will shed part of the burst — that rejection is itself a valid,
    // typed resolution.
    let mut tally = Tally::default();
    let mut tickets: Vec<Ticket> = Vec::new();
    for i in 0..200 {
        // Ten databases so breaker trips stay local to a shard of the
        // traffic instead of shedding the entire run.
        let request = InferenceRequest::new(format!("db{}", i % 10), format!("question {i}"));
        match pool.submit(request) {
            Ok(ticket) => tickets.push(ticket),
            Err(e) => {
                assert!(e.is_overload() || e == Error::ShuttingDown, "unexpected: {e}");
                tally.count(&Err(e));
            }
        }
        // A short stagger keeps the burst long enough to overlap many
        // fault injections while still overflowing the queue early on.
        if i % 4 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // Every admitted request must resolve under one OVERALL storm
    // deadline — not a fresh budget per ticket, which would let a slow
    // leak of near-misses stretch CI unboundedly. On breach, the panic
    // carries the full health snapshot so the hang is diagnosable from
    // the log alone (which workers are wedged, what the breakers say,
    // how deep the queue still is).
    let storm_deadline = started + Duration::from_secs(20);
    for (n, ticket) in tickets.into_iter().enumerate() {
        let remaining = storm_deadline.saturating_duration_since(Instant::now());
        let outcome = match ticket.wait_timeout(remaining.max(Duration::from_millis(1))) {
            Some(outcome) => outcome,
            None => panic!(
                "storm watchdog expired with ticket {n} unresolved after {:?} — \
                 supervision bug; health snapshot:\n{:#?}",
                started.elapsed(),
                pool.health()
            ),
        };
        tally.count(&outcome);
    }
    assert_eq!(tally.total(), 200, "all 200 requests accounted for: {tally:?}");
    assert_eq!(tally.other, 0, "no untyped outcomes: {tally:?}");

    let health = pool.shutdown();
    assert_eq!(health.queue_depth, 0, "shutdown drains the queue");
    assert_eq!(health.in_flight, 0, "shutdown leaves nothing in flight");
    assert!(
        health.stats.replaced_panic > 0,
        "the chaos plan must actually kill workers: {:?}",
        health.stats
    );
    assert!(
        health.stats.replaced_wedged > 0,
        "the chaos plan must actually wedge workers: {:?}",
        health.stats
    );
    assert!(tally.served > 0, "healthy requests still get served: {tally:?}");
    assert!(
        started.elapsed() < Duration::from_secs(25),
        "chaos suite must stay interactive, took {:?}",
        started.elapsed()
    );
}

#[test]
fn immediate_shutdown_resolves_every_admitted_request() {
    silence_injected_panics();
    let calls = Arc::new(AtomicUsize::new(0));
    let backend = FaultyBackend::new(EchoBackend { calls }, chaos_plan());
    let pool = Pool::start(backend, chaos_config());

    let mut tickets = Vec::new();
    let mut shed = 0;
    for i in 0..60 {
        match pool.submit(InferenceRequest::new(format!("db{}", i % 10), format!("q{i}"))) {
            Ok(t) => tickets.push(t),
            Err(_) => shed += 1,
        }
    }
    // Shutdown with the queue still loaded: drain must finish the backlog,
    // and afterwards every ticket is already resolved.
    let health = pool.shutdown();
    assert_eq!(health.queue_depth, 0);
    for ticket in tickets.iter() {
        assert!(
            ticket.wait_timeout(Duration::from_secs(5)).is_some(),
            "a drained pool leaves no pending tickets"
        );
    }
    assert_eq!(tickets.len() + shed, 60);
}

#[test]
fn generation_bump_mid_storm_prevents_stale_cached_results() {
    silence_injected_panics();
    let epoch = Arc::new(AtomicU64::new(0));
    let registry = Arc::new(codes_obs::Registry::new());
    let cache = Arc::new(codes::SystemCache::with_registry(
        &registry,
        codes::CacheSettings::default(),
    ));
    let mut config = chaos_config();
    config.cache = Some(Arc::clone(&cache));
    let backend = FaultyBackend::new(EpochBackend { epoch: Arc::clone(&epoch) }, chaos_plan());
    let pool = Pool::start_with_registry(backend, config, registry);

    let submit_storm = |pool: &Pool| -> Vec<Ticket> {
        let mut tickets = Vec::new();
        for i in 0..120 {
            // Sixteen distinct questions over one database, repeated — the
            // repeats hit T3 once a clean first computation has admitted.
            match pool.submit(InferenceRequest::new("bank", format!("question {}", i % 16))) {
                Ok(ticket) => tickets.push(ticket),
                Err(e) => assert!(e.is_overload(), "unexpected rejection: {e}"),
            }
            if i % 4 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        tickets
    };

    // Phase 1: storm under epoch 0, faults and all.
    let phase1 = submit_storm(&pool);

    // Mid-storm mutation: the data changes, then the operator invalidates.
    // Phase-1 tickets are deliberately still in flight — any of them that
    // finish computing after this point admit under the *old* generation,
    // where phase-2 lookups cannot reach them.
    epoch.store(1, Ordering::SeqCst);
    pool.invalidate_database("bank").expect("pool has a cache attached");

    // Phase 2: the same questions again. Every Ok outcome — fresh compute
    // or cache hit — must reflect the new epoch; a "SELECT 0" here would
    // mean a post-invalidation request was served a pre-invalidation
    // result.
    let phase2 = submit_storm(&pool);
    for ticket in phase2 {
        let outcome = ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("phase-2 ticket resolved within 10s");
        if let Ok(served) = outcome {
            assert_eq!(
                served.sql, "SELECT 1",
                "post-invalidation request served a pre-invalidation result \
                 (cached: {})",
                served.cached
            );
        }
    }
    // Phase-1 tickets also all resolve; either epoch is legitimate for
    // them since they were submitted before the mutation.
    for ticket in phase1 {
        let outcome = ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("phase-1 ticket resolved within 10s");
        if let Ok(served) = outcome {
            assert!(served.sql == "SELECT 0" || served.sql == "SELECT 1");
        }
    }

    let health = pool.shutdown();
    assert_eq!(health.queue_depth, 0);
    assert_eq!(health.in_flight, 0);
    assert!(
        health.stats.served_from_cache > 0,
        "repeated questions must actually exercise the full-result tier: {:?}",
        health.stats
    );
    let stats = health.cache.expect("cache attached");
    assert!(stats.invalidations >= 1, "the mid-storm bump is counted: {stats:?}");
    assert!(stats.full.hits > 0 && stats.full.misses > 0, "warm and cold traffic: {stats:?}");
}

#[test]
fn fault_plan_outcomes_are_reproducible_for_admitted_ids() {
    silence_injected_panics();
    // The fault decision for a given request id is a pure function of the
    // plan — assert the pool-facing consequence: two identical sequential
    // (single-worker, no-overflow) runs classify every request identically.
    let run = || -> Vec<&'static str> {
        let calls = Arc::new(AtomicUsize::new(0));
        let mut plan = chaos_plan();
        plan.stall_prob = 0.0; // keep the run fast: panics + budget faults only
        let backend = FaultyBackend::new(EchoBackend { calls }, plan);
        let mut config = chaos_config();
        config.workers = 1;
        config.queue_capacity = 64;
        let pool = Pool::start(backend, config);
        let outcomes: Vec<&'static str> = (0..40)
            .map(|i| {
                let ticket = pool
                    .submit(InferenceRequest::new(format!("db{}", i % 10), format!("q{i}")))
                    .expect("sequential submission never overflows");
                match ticket.wait() {
                    Ok(_) => "ok",
                    Err(e) => e.kind(),
                }
            })
            .collect();
        pool.shutdown();
        outcomes
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed, same ids, same outcomes");
    assert!(first.contains(&"worker_panic"), "plan injects panics: {first:?}");
    assert!(first.contains(&"ok"), "healthy ids still serve: {first:?}");
}

/// Backend for the budget-isolation storm: every inference executes a
/// tenant-dependent statement under serving budgets. The `heavy` tenant
/// always asks for a catastrophic triple cross join, which the governor
/// kills at its intermediate-row budget; other tenants run a cheap equi
/// join.
struct TenantSqlBackend {
    db: Arc<sqlengine::Database>,
}

const HEAVY_SQL: &str = "SELECT b0.id FROM big AS b0, big AS b1, big AS b2";
const LIGHT_SQL: &str = "SELECT s0.id FROM small AS s0 JOIN small AS s1 ON s0.id = s1.id";

fn tenant_limits() -> sqlengine::ExecLimits {
    sqlengine::ExecLimits {
        deadline: None,
        max_rows: Some(5_000),
        max_intermediate_rows: Some(10_000),
        max_memory_bytes: Some(1 << 20),
        max_recursion_depth: Some(8),
    }
}

impl Backend for TenantSqlBackend {
    fn infer(
        &self,
        request: &InferenceRequest,
        _id: u64,
        _config: &codes::Config,
    ) -> Result<BackendReply, sqlengine::Error> {
        let sql = if request.db_id == "heavy" { HEAVY_SQL } else { LIGHT_SQL };
        sqlengine::execute_query_governed(&self.db, sql, &tenant_limits())?;
        Ok(BackendReply {
            sql: sql.to_string(),
            degradations: vec![],
            latency_seconds: 0.0,
            prompt_tokens: 1,
            ..BackendReply::default()
        })
    }
}

#[test]
fn cross_join_tenant_hits_its_budget_while_light_tenant_serves() {
    silence_injected_panics();
    // 100-row base table: the triple cross join would materialize 10^6
    // intermediate rows against a 10^4 budget, so the governor kills it.
    let mut script = String::from(
        "CREATE TABLE big (id INTEGER PRIMARY KEY, val INTEGER);\n\
         CREATE TABLE small (id INTEGER PRIMARY KEY, val INTEGER);\n",
    );
    for pk in 1..=100 {
        script.push_str(&format!("INSERT INTO big VALUES ({pk}, {});\n", pk % 7));
    }
    for pk in 1..=5 {
        script.push_str(&format!("INSERT INTO small VALUES ({pk}, {pk});\n"));
    }
    let db = Arc::new(sqlengine::database_from_script("tenant", &script).expect("script loads"));

    let denied = || {
        codes_obs::global()
            .counter(sqlengine::BUDGET_DENIED, &[("resource", "intermediate_rows")])
            .get()
    };

    // One seeded chaos storm: every fourth request targets the
    // cross-join-heavy tenant.
    let denied_before = denied();
    let backend = FaultyBackend::new(TenantSqlBackend { db: Arc::clone(&db) }, chaos_plan());
    let mut config = chaos_config();
    config.queue_capacity = 128; // storm-sized: no submit-time shedding
    let pool = Pool::start(backend, config);
    let mut tickets = Vec::new();
    for i in 0..80 {
        let tenant = if i % 4 == 0 { "heavy" } else { "light" };
        let request = InferenceRequest::new(tenant, format!("q{i}"));
        tickets.push(pool.submit(request).expect("storm fits the queue"));
    }
    let mut served = 0;
    for ticket in tickets {
        if ticket
            .wait_timeout(Duration::from_secs(20))
            .expect("every storm request resolves")
            .is_ok()
        {
            served += 1;
        }
    }
    pool.shutdown();

    // Heavy statements run to their governor kill, charging the
    // intermediate-row budget; the kill is tenant-local, so the light
    // tenant still gets served through the same storm.
    let denied = denied() - denied_before;
    assert!(denied > 0, "heavy tenant must hit the intermediate-row budget (denied {denied})");
    assert!(served > 0, "light tenant serves through the storm");
}

/// Echoes normally except for one poison question, which panics the
/// worker mid-dispatch.
struct PoisonBackend;

impl Backend for PoisonBackend {
    fn infer(
        &self,
        request: &InferenceRequest,
        _id: u64,
        _config: &codes::Config,
    ) -> Result<BackendReply, sqlengine::Error> {
        if request.question == "boom" {
            panic!("injected fault: poisoned batch member");
        }
        Ok(BackendReply {
            sql: format!("SELECT '{}'", request.question),
            degradations: vec![],
            latency_seconds: 0.0,
            prompt_tokens: 1,
            ..BackendReply::default()
        })
    }
}

#[test]
fn mid_batch_panic_resolves_every_member_exactly_once() {
    silence_injected_panics();
    // One worker, parked at the gate while the four submissions below
    // queue up behind it: released, it drains all four into one dispatch,
    // and the poison member panics the whole batch out from under the
    // other three.
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 16,
        max_batch: 4,
        default_deadline: Duration::from_secs(30),
        heartbeat_interval: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    let (backend, gate) = GatedBackend::new(PoisonBackend);
    let pool = Pool::start(backend, config);
    let hold = pool
        .submit(InferenceRequest::new("db", Gate::HOLD))
        .expect("admitted");
    gate.wait_parked();
    let (events_tx, events) = crossbeam::channel::unbounded::<Progress>();
    let tickets: Vec<Ticket> = ["q0", "boom", "q2", "q3"]
        .into_iter()
        .map(|q| {
            let (ticket, reply_tx) = Ticket::detached(0);
            pool.submit_routed_with_progress(
                InferenceRequest::new("db", q),
                reply_tx,
                Some(Arc::new(events_tx.clone())),
            )
            .expect("admitted");
            ticket
        })
        .collect();
    gate.open();
    hold.wait().expect("held request completes once released");

    // Every member resolves — none hang — and each resolves exactly once
    // (a second resolution would leave a stray message in the ticket's
    // single-slot channel, which `wait` consuming the ticket rules out).
    // The batch unwinds as one: no member was answered before the panic.
    for ticket in tickets {
        match ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("every batch member resolves despite the mid-batch panic")
        {
            Err(Error::WorkerPanic(msg)) => {
                assert!(msg.contains("injected fault"), "panic message surfaces: {msg}");
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    let batch_sizes: Vec<usize> = std::iter::from_fn(|| events.try_recv().ok())
        .filter_map(|p| match p {
            Progress::Dispatched { batch_size, .. } => Some(batch_size),
            _ => None,
        })
        .collect();
    assert_eq!(batch_sizes, vec![4; 4], "the backlog formed one four-member dispatch");

    // The supervisor replaced the worker; the pool still serves.
    let after = pool
        .submit(InferenceRequest::new("db", "after"))
        .expect("admitted")
        .wait_timeout(Duration::from_secs(10))
        .expect("post-replacement request resolves")
        .expect("healthy request succeeds");
    assert_eq!(after.sql, "SELECT 'after'");
    let health = pool.shutdown();
    assert!(health.stats.replaced_panic >= 1, "worker was replaced: {:?}", health.stats);
    assert_eq!(health.queue_depth, 0);
    assert_eq!(health.in_flight, 0);
}
