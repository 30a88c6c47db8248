//! Storage chaos: the full serving stack — [`SystemBackend`] over a
//! [`CatalogService`] over a health-checked [`ConnectionPool`] over a
//! deterministic faulty backend — must survive a seeded storm of refused
//! connects, I/O faults, and silently broken connections with zero hangs
//! and zero leaked connections, and a mid-storm catalog change observed
//! through re-introspection must bump the cache generation so no
//! post-change request is served a pre-change cached result.

use std::sync::Arc;
use std::time::Duration;

use codes::{
    pretrain, table4_models, CacheSettings, CodesModel, CodesSystem, PretrainConfig,
    PromptOptions, SketchCatalog, SystemCache,
};
use codes_datasets::finance::bank_financials_db;
use codes_serve::{Backend, InferenceRequest, Pool, ServeConfig, SystemBackend};
use codes_storage::{
    CatalogService, Connection, ConnectionPool, FaultSpec, FlakyBackend, IntrospectOptions,
    MemoryBackend, PoolConfig, StorageError,
};

const DB: &str = "bank_financials";

/// A small but real SFT system, same construction the core tests use.
/// The schema filter is off (no classifier here) so clean dispatches are
/// genuinely undegraded and admit into the full-result cache tier.
fn sft_system(cache: Option<&Arc<SystemCache>>) -> Arc<CodesSystem> {
    let sketches = Arc::new(SketchCatalog::build());
    let spec = table4_models().into_iter().find(|m| m.name == "CodeS-1B").expect("known model");
    let lm = pretrain(&sketches, &spec, &PretrainConfig { scale: 10, seed: 3 });
    let system = CodesSystem::new(
        CodesModel::new(lm, sketches),
        PromptOptions::sft().without_schema_filter(),
    );
    let system = match cache {
        Some(cache) => system.with_cache(Arc::clone(cache)),
        None => system,
    };
    Arc::new(system)
}

/// Storm spec: every fault class enabled. One catalog sync issues ~a
/// dozen gated operations, so per-op rates are kept moderate — a full
/// introspection still succeeds often, while the storm's ~thousand ops
/// are guaranteed to break connections many times over.
fn storm_spec(seed: u64) -> FaultSpec {
    FaultSpec { seed, connect_fail: 0.10, io_fail: 0.04, silent_break: 0.04, ..FaultSpec::default() }
}

/// The faulty store without its commit announcements. A store that pushes
/// keeps dispatches off storage until it announces a write — correctly —
/// and a storm is here to cross the faulty wire: a backend that cannot push
/// is synced on every dispatch, so every dispatch of a storm does, and the
/// mid-storm change below is found by a read, not told.
struct CannotPush<B>(B);

impl<B: codes_storage::Backend> codes_storage::Backend for CannotPush<B> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn connect(&self) -> Result<Box<dyn Connection>, StorageError> {
        self.0.connect()
    }
}

#[test]
fn chaos_storm_recycles_broken_connections_and_enforces_the_revision_fence() {
    let registry = Arc::new(codes_obs::Registry::new());
    let cache = Arc::new(SystemCache::with_registry(&registry, CacheSettings::default()));
    let system = sft_system(Some(&cache));

    let memory = MemoryBackend::new(vec![bank_financials_db(1)]);
    let store = memory.store();
    let flaky = FlakyBackend::new(memory, storm_spec(0xD1CE));
    // A private registry: pools built with `ConnectionPool::new` share the
    // process-global one, and the accounting below must see this pool only.
    let storage_pool = ConnectionPool::with_registry(
        Arc::new(CannotPush(flaky)),
        PoolConfig {
            capacity: 4,
            checkout_timeout: Duration::from_millis(500),
            connect_attempts: 2,
            ..PoolConfig::default()
        },
        &registry,
    );
    let service = Arc::new(CatalogService::new(storage_pool, IntrospectOptions::default()));
    let backend = SystemBackend::with_catalogs(Arc::clone(&system), Arc::clone(&service));

    // `with_catalogs` already tried to attach, but under a 10% connect-fail
    // storm that attempt may have been refused; retry until the catalog is
    // live so the storm below starts from an attached database.
    for _ in 0..200 {
        if service.contains(DB) || service.attach(DB).is_ok() {
            break;
        }
    }
    assert!(service.contains(DB), "attach must eventually beat the fault injector");

    let config = ServeConfig {
        workers: 4,
        queue_capacity: 64,
        default_deadline: Duration::from_secs(20),
        heartbeat_interval: Duration::from_millis(10),
        // No stall injection in this suite: a healthy dispatch is bounded
        // by checkout_timeout + introspection + inference, well under 5s.
        wedged_after: Duration::from_secs(5),
        cache: Some(Arc::clone(&cache)),
        ..ServeConfig::default()
    };
    let pool = Pool::start_with_registry(backend, config, registry);

    let storm = |pool: &Pool| {
        let mut tickets = Vec::new();
        let mut shed = 0usize;
        for i in 0..64 {
            // Eight distinct questions, repeated — repeats exercise the
            // full-result cache tier once a clean computation admits.
            match pool.submit(InferenceRequest::new(DB, format!("question {}", i % 8))) {
                Ok(ticket) => tickets.push(ticket),
                Err(e) => {
                    assert!(e.is_overload(), "unexpected rejection: {e}");
                    shed += 1;
                }
            }
        }
        (tickets, shed)
    };

    // Phase 1: storm against the pre-change catalog. Every ticket must
    // resolve — storage faults degrade to stale-serve, never hang.
    let (phase1, _) = storm(&pool);
    for ticket in phase1 {
        let outcome = ticket
            .wait_timeout(Duration::from_secs(15))
            .expect("phase-1 ticket resolved — storage faults must not hang requests");
        let served = outcome.expect("stale-serve degradation, not failure");
        // The catalog is unchanged in this phase, so every sync is the one
        // revision read. The pool parks connections unprobed after a clean
        // round trip; one that broke silently must cost the sync a retry,
        // never a stale-serve — those are for faults on a live connection.
        for note in served.degradations.iter().filter(|d| d.contains("storage sync failed")) {
            assert!(
                !note.contains("connection is broken"),
                "a connection that died while parked failed a dispatch's sync: {note}"
            );
        }
    }

    // Mid-storm catalog change: a live mutation moves the backend's
    // revision token. Nothing local touched the mirror — only
    // re-introspection can observe this.
    let generation_before = cache.generation(DB);
    MemoryBackend::over(store)
        .mutate(DB, |db| {
            db.table_mut("client")
                .expect("client table")
                .insert(vec![9_999.into(), "Zora".into(), "F".into(), "Jesenik".into(), 1.into()])
                .expect("row fits");
        })
        .expect("db registered");

    // The fence: an explicit sync (retried past injected faults) observes
    // the moved revision, and the wired observer bumps the generation
    // exactly like a local catalog mutation would.
    assert!(
        (0..200).any(|_| service.sync(DB).is_ok()),
        "sync must eventually beat the fault injector"
    );
    assert!(
        cache.generation(DB) > generation_before,
        "a schema change observed through re-introspection bumps the cache generation"
    );

    // Post-fence, a phase-1 question must NOT be served from cache: its
    // phase-1 entry was admitted under the old generation, unreachable
    // now. The fresh compute then re-admits, and only the *repeat* hits.
    let hits_before = pool.health().stats.served_from_cache;
    let miss = pool
        .submit(InferenceRequest::new(DB, "question 3"))
        .expect("post-fence submit admitted")
        .wait_timeout(Duration::from_secs(15))
        .expect("post-fence request resolved");
    assert!(miss.is_ok(), "post-fence request succeeds: {miss:?}");
    assert_eq!(
        pool.health().stats.served_from_cache,
        hits_before,
        "no post-change request is served a pre-change cached result"
    );
    // Only clean, undegraded computes are admitted to the full-result
    // tier, and any dispatch may carry a stale-serve degradation when its
    // sync loses to the fault injector — so repeat until one compute
    // admits cleanly and its repeat is served from cache.
    let mut hit_seen = false;
    for _ in 0..20 {
        let before = pool.health().stats.served_from_cache;
        let outcome = pool
            .submit(InferenceRequest::new(DB, "question 3"))
            .expect("repeat submit admitted")
            .wait_timeout(Duration::from_secs(15))
            .expect("repeat resolved");
        assert!(outcome.is_ok());
        if pool.health().stats.served_from_cache > before {
            hit_seen = true;
            break;
        }
    }
    assert!(hit_seen, "the cache still serves repeats after the generation bump");

    // Phase 2: storm against the post-change catalog, then drain.
    let (phase2, _) = storm(&pool);
    for ticket in phase2 {
        assert!(
            ticket.wait_timeout(Duration::from_secs(15)).is_some(),
            "phase-2 ticket resolved — zero hangs across the whole storm"
        );
    }
    let health = pool.shutdown();
    assert_eq!(health.queue_depth, 0);
    assert_eq!(health.in_flight, 0);
    assert!(health.stats.served_from_cache > 0, "repeats exercised the cache: {:?}", health.stats);

    // Connection accounting: the storm broke connections (faults fired),
    // every one of them was recycled at the pool boundary — discarded and
    // replaced, never leaked — and nothing is still checked out.
    let stats = service.pool().stats();
    assert_eq!(stats.in_use, 0, "no connection leaked past shutdown: {stats:?}");
    assert_eq!(
        stats.checkouts,
        stats.checkins + stats.discarded(),
        "every checkout was checked in or discarded exactly once: {stats:?}"
    );
    assert!(stats.discarded() > 0, "the storm actually broke connections: {stats:?}");
    assert!(
        stats.established > stats.discarded(),
        "recycling kept working connections flowing: {stats:?}"
    );
}

#[test]
fn sync_failure_serves_the_stale_catalog_with_a_degradation_note() {
    let system = sft_system(None);
    let memory = MemoryBackend::new(vec![bank_financials_db(1)]);
    let store = memory.store();
    let storage_pool = ConnectionPool::with_registry(
        Arc::new(memory),
        PoolConfig::default(),
        &codes_obs::Registry::new(),
    );
    let service = Arc::new(CatalogService::new(storage_pool, IntrospectOptions::default()));
    let backend = SystemBackend::with_catalogs(system, Arc::clone(&service));

    let request = InferenceRequest::new(DB, "How many clients are there?");
    let config = codes::Config::default();
    let clean = backend.infer(&request, 1, &config).expect("healthy dispatch");
    assert!(
        !clean.degradations.iter().any(|d| d.contains("storage sync failed")),
        "healthy sync carries no storage degradation: {:?}",
        clean.degradations
    );

    // Sever the storage path entirely, then write: the announced write
    // makes the next dispatch sync, the sync fails, and the last-known
    // catalog keeps serving — degraded, not down.
    service.pool().close();
    MemoryBackend::over(store)
        .mutate(DB, |db| {
            db.table_mut("client")
                .expect("client table")
                .insert(vec![9_999.into(), "Zora".into(), "F".into(), "Jesenik".into(), 1.into()])
                .expect("row fits");
        })
        .expect("db registered");
    let stale = backend.infer(&request, 2, &config).expect("stale-serve dispatch");
    assert!(
        stale.degradations.iter().any(|d| d.contains("storage sync failed")),
        "a failed sync is visible as a degradation: {:?}",
        stale.degradations
    );
}
