//! Failover/rebalance suite: databases remap minimally, every ticket
//! resolves exactly once through a mid-storm shard death, and no cache
//! entry written before a failover is ever served after one — across a
//! table of shard counts and failure targets.

mod common;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use codes_router::{Router, RouterConfig, RouterError, ShardSpec};
use codes::Error;
use codes_serve::{FaultPlan, FaultyBackend, InferenceRequest};
use common::{chaos_serve_config, shard_spec, silence_injected_panics, EpochBackend};

fn epoch_router(
    shards: usize,
    epoch: &Arc<AtomicU64>,
    with_cache: bool,
) -> (Router, Arc<codes_obs::Registry>) {
    let registry = Arc::new(codes_obs::Registry::new());
    let specs = (0..shards)
        .map(|_| {
            shard_spec(
                Arc::new(EpochBackend::new(Arc::clone(epoch), Duration::ZERO)),
                chaos_serve_config(),
                with_cache,
                &registry,
            )
        })
        .collect();
    let router =
        Router::start_with_registry(specs, RouterConfig::default(), Arc::clone(&registry));
    (router, registry)
}

fn ask(router: &Router, db: &str, question: &str) -> codes_serve::ServedInference {
    router
        .submit(InferenceRequest::new(db, question))
        .expect("admission")
        .wait_timeout(Duration::from_secs(10))
        .expect("ticket resolves within watchdog")
        .expect("healthy backend answers")
}

/// Pick a db owned by `shard` under the current mask.
fn db_owned_by(router: &Router, shard: usize) -> String {
    (0..10_000)
        .map(|i| format!("db{i}"))
        .find(|db| router.owner(db) == Some(shard))
        .expect("some db hashes to every shard")
}

/// Table-driven: for each (shard count, failed shard), a failover must
/// remap exactly the failed shard's databases, keep every other mapping
/// fixed, and a revive must bring them back.
#[test]
fn failover_remaps_only_the_failed_shards_databases() {
    for &(shards, fail) in &[(2usize, 0usize), (2, 1), (3, 1), (4, 3)] {
        let epoch = Arc::new(AtomicU64::new(0));
        let (router, _registry) = epoch_router(shards, &epoch, false);
        let dbs: Vec<String> = (0..40).map(|i| format!("db{i}")).collect();
        // Observe every db so failover has a universe to remap.
        for db in &dbs {
            ask(&router, db, "q");
        }
        let before: HashMap<String, usize> =
            dbs.iter().map(|db| (db.clone(), router.owner(db).expect("active"))).collect();

        let outcome = router.fail_over(fail).expect("failover succeeds");
        assert_eq!(outcome.shard, fail);
        let moved: Vec<&String> = dbs.iter().filter(|db| before[*db] == fail).collect();
        assert_eq!(
            outcome.moved.len(),
            moved.len(),
            "shards={shards} fail={fail}: exactly the owned dbs move"
        );
        for db in &dbs {
            let owner = router.owner(db).expect("survivors cover the ring");
            assert_ne!(owner, fail, "{db} still routed to the dead shard");
            if before[db] != fail {
                assert_eq!(owner, before[db], "{db} moved although its shard survived");
            }
        }
        // Requests to moved dbs keep working (served by survivors).
        for db in moved {
            ask(&router, db, "post-failover");
        }
        router.revive(fail).expect("revive succeeds");
        for db in &dbs {
            assert_eq!(router.owner(db), Some(before[db]), "revive must restore the ring");
        }
        router.shutdown();
    }
}

/// The guards: bad indexes, double failover, reviving a live shard, and
/// the last active shard are all typed errors.
#[test]
fn topology_guards_are_typed() {
    let epoch = Arc::new(AtomicU64::new(0));
    let (router, _registry) = epoch_router(2, &epoch, false);
    assert_eq!(router.fail_over(7), Err(RouterError::UnknownShard { shard: 7 }));
    assert_eq!(router.revive(0), Err(RouterError::ShardActive { shard: 0 }));
    router.fail_over(0).expect("first failover");
    assert_eq!(router.fail_over(0), Err(RouterError::ShardInactive { shard: 0 }));
    assert_eq!(
        router.fail_over(1),
        Err(RouterError::LastActiveShard { shard: 1 }),
        "the last shard must keep serving"
    );
    router.revive(0).expect("revive");
    router.shutdown();
}

/// The stale-cache kill: a result cached before a shard died must never
/// be served after its database moved — in either direction of the
/// move. Epochs make staleness visible in the SQL itself.
#[test]
fn no_pre_failover_cache_entry_survives_a_move() {
    let epoch = Arc::new(AtomicU64::new(0));
    let (router, _registry) = epoch_router(2, &epoch, true);
    let db = db_owned_by(&router, 0);

    // Epoch 0: cache the answer on shard 0.
    assert_eq!(ask(&router, &db, "q").sql, "SELECT 0");
    assert!(ask(&router, &db, "q").cached, "second ask is a T3 hit");

    // Data changes and shard 0 dies: db moves to shard 1.
    epoch.store(1, Ordering::SeqCst);
    router.fail_over(0).expect("failover");
    let after_move = ask(&router, &db, "q");
    assert_eq!(after_move.sql, "SELECT 1", "shard 1 must compute, not inherit shard 0's entry");
    assert!(!after_move.cached);
    assert!(ask(&router, &db, "q").cached, "shard 1 now caches epoch 1");

    // Data changes and shard 0 comes back: db returns home. Shard 0 still
    // holds its epoch-0 entry — the revive bump must make it unreachable.
    epoch.store(2, Ordering::SeqCst);
    router.revive(0).expect("revive");
    assert_eq!(router.owner(&db), Some(0));
    let back_home = ask(&router, &db, "q");
    assert_eq!(back_home.sql, "SELECT 2", "shard 0's pre-death entry must be dead");
    assert!(!back_home.cached);

    // Data changes and shard 0 dies AGAIN: shard 1 still holds its
    // epoch-1 entry — the destination bump must make it unreachable.
    epoch.store(3, Ordering::SeqCst);
    router.fail_over(0).expect("second failover");
    let second_move = ask(&router, &db, "q");
    assert_eq!(second_move.sql, "SELECT 3", "shard 1's pre-failover entry must be dead");
    assert!(!second_move.cached);
    router.shutdown();
}

/// Mid-storm shard death under fault injection: every ticket resolves
/// exactly once (the bounded reply channel can hold at most one outcome;
/// the assertion is that each one actually arrives), nothing hangs, and
/// the router drains clean.
#[test]
fn every_ticket_resolves_exactly_once_through_a_mid_storm_failover() {
    silence_injected_panics();
    let epoch = Arc::new(AtomicU64::new(0));
    let registry = Arc::new(codes_obs::Registry::new());
    let mut plan = FaultPlan::chaos(0xDEAD);
    plan.stall = Duration::from_millis(200);
    let specs: Vec<ShardSpec> = (0..3)
        .map(|i| {
            let backend = EpochBackend::new(Arc::clone(&epoch), Duration::from_millis(1));
            if i == 0 {
                // The shard that will die mid-storm also misbehaves.
                shard_spec(
                    Arc::new(FaultyBackend::new(backend, plan.clone())),
                    chaos_serve_config(),
                    true,
                    &registry,
                )
            } else {
                shard_spec(Arc::new(backend), chaos_serve_config(), true, &registry)
            }
        })
        .collect();
    let router =
        Router::start_with_registry(specs, RouterConfig::default(), Arc::clone(&registry));

    let dbs: Vec<String> = (0..12).map(|i| format!("db{i}")).collect();
    let mut tickets = Vec::new();
    let mut admitted = 0usize;
    for i in 0..120 {
        let db = &dbs[i % dbs.len()];
        match router.submit(InferenceRequest::new(db, format!("q{i}"))) {
            Ok(t) => {
                admitted += 1;
                tickets.push(t);
            }
            Err(Error::Overloaded { .. } | Error::CircuitOpen { .. }) => {}
            Err(other) => panic!("unexpected admission error: {other}"),
        }
        if i == 60 {
            epoch.store(1, Ordering::SeqCst);
            router.fail_over(0).expect("mid-storm failover");
        }
    }
    let mut resolved = 0usize;
    for ticket in tickets {
        match ticket.wait_timeout(Duration::from_secs(15)) {
            Some(_outcome) => resolved += 1,
            None => {
                panic!("ticket hung through failover; health: {:#?}", router.health());
            }
        }
    }
    assert_eq!(resolved, admitted, "every admitted ticket resolves");

    let health = router.health();
    assert_eq!(health.router_depth, 0, "router queues drained");
    assert!(health.shards[0].draining || !health.shards[0].active);
    let final_health = router.shutdown();
    for shard in &final_health.shards {
        assert_eq!(shard.pool.queue_depth, 0, "shard {} queue drained", shard.index);
        assert_eq!(shard.pool.in_flight, 0, "shard {} still has work in flight", shard.index);
    }
}

/// Persistent worker churn on one shard triggers the health monitor's
/// automatic failover: the shard leaves the ring without any operator
/// call, and its databases keep being served by the survivors.
#[test]
fn monitor_fails_over_a_persistently_churning_shard() {
    silence_injected_panics();
    let epoch = Arc::new(AtomicU64::new(0));
    let registry = Arc::new(codes_obs::Registry::new());
    let always_panics = FaultPlan {
        seed: 0xBAD,
        panic_prob: 1.0,
        stall_prob: 0.0,
        stall: Duration::ZERO,
        budget_prob: 0.0,
    };
    let specs: Vec<ShardSpec> = (0..2)
        .map(|i| {
            let backend = EpochBackend::new(Arc::clone(&epoch), Duration::ZERO);
            if i == 0 {
                shard_spec(
                    Arc::new(FaultyBackend::new(backend, always_panics.clone())),
                    chaos_serve_config(),
                    false,
                    &registry,
                )
            } else {
                shard_spec(Arc::new(backend), chaos_serve_config(), false, &registry)
            }
        })
        .collect();
    let config = RouterConfig {
        monitor_interval: Some(Duration::from_millis(25)),
        churn_threshold: 2,
        ..RouterConfig::default()
    };
    let router = Router::start_with_registry(specs, config, Arc::clone(&registry));
    let db = db_owned_by(&router, 0);

    // Feed the churning shard until the monitor notices. Every worker
    // that touches shard 0 panics, so replacements accumulate fast.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while router.owner(&db) == Some(0) {
        assert!(
            std::time::Instant::now() < deadline,
            "monitor never failed the churning shard over; health: {:#?}",
            router.health()
        );
        if let Ok(ticket) = router.submit(InferenceRequest::new(&db, "poke")) {
            let _ = ticket.wait_timeout(Duration::from_secs(5));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let health = router.health();
    assert!(!health.shards[0].active, "churning shard must be failed over");
    assert!(health.shards[1].active);
    // The survivors serve its databases.
    assert_eq!(ask(&router, &db, "after").sql, "SELECT 0");
    router.shutdown();
}

/// Rebalance = synchronous failover + revive on the same machinery:
/// the ring is unchanged afterwards, stale entries die, and the duration
/// lands in the `codes_router_rebalance_duration_seconds` histogram.
#[test]
fn rebalance_is_a_timed_drain_move_bump_cycle() {
    let epoch = Arc::new(AtomicU64::new(0));
    let (router, registry) = epoch_router(3, &epoch, true);
    let db = db_owned_by(&router, 1);
    assert_eq!(ask(&router, &db, "q").sql, "SELECT 0");

    epoch.store(1, Ordering::SeqCst);
    let outcome = router.rebalance(1).expect("rebalance succeeds");
    assert_eq!(outcome.failover.shard, 1);
    assert!(outcome.returned.contains(&db), "the db comes home");
    assert!(outcome.duration > Duration::ZERO);
    assert_eq!(router.owner(&db), Some(1), "rebalance restores ownership");

    let fresh = ask(&router, &db, "q");
    assert_eq!(fresh.sql, "SELECT 1", "rebalance bumped the home shard's generation");
    assert!(!fresh.cached);

    let rendered = registry.render_prometheus();
    assert!(
        rendered.contains("codes_router_rebalance_duration_seconds"),
        "rebalance duration must reach the Prometheus encoder:\n{rendered}"
    );
    assert!(rendered.contains("codes_router_failovers_total"), "{rendered}");
    router.shutdown();
}

/// Satellite: the router-level invalidation routes to the owning shard.
#[test]
fn router_invalidation_routes_to_the_owning_shard() {
    let epoch = Arc::new(AtomicU64::new(0));
    let (router, _registry) = epoch_router(2, &epoch, true);
    let db = db_owned_by(&router, 1);
    assert_eq!(ask(&router, &db, "q").sql, "SELECT 0");
    assert!(ask(&router, &db, "q").cached);

    epoch.store(1, Ordering::SeqCst);
    let generation = router.invalidate_database(&db).expect("known db");
    assert!(generation.expect("shard has a cache") > 0);
    let recomputed = ask(&router, &db, "q");
    assert_eq!(recomputed.sql, "SELECT 1", "invalidation must reach the owner's cache");
    assert!(!recomputed.cached);
    router.shutdown();
}

/// Bugfix: a shard's health counts only its own pool's requests. The
/// registry's request series carry no pool label, so across shards they
/// are the sum — the total, never one shard's count.
#[test]
fn each_shards_stats_count_only_its_own_requests() {
    let epoch = Arc::new(AtomicU64::new(0));
    let (router, registry) = epoch_router(2, &epoch, false);
    let (db0, db1) = (db_owned_by(&router, 0), db_owned_by(&router, 1));
    for i in 0..3 {
        ask(&router, &db0, &format!("q{i}"));
    }
    for i in 0..5 {
        ask(&router, &db1, &format!("q{i}"));
    }
    let health = router.shutdown();
    let completed: Vec<u64> = health.shards.iter().map(|s| s.pool.stats.completed).collect();
    assert_eq!(completed, vec![3, 5]);
    let series = registry.counters_by_name(codes_serve::metrics::REQUESTS);
    let outcome = vec![("outcome".to_string(), "completed".to_string())];
    let total = series.iter().find(|(labels, _)| *labels == outcome).map(|(_, n)| *n);
    assert_eq!(total, Some(8), "codes_serve_requests_total{{outcome=\"completed\"}} is the sum");
}

/// A backend that tracks a database universe, so misaddressed
/// invalidations surface as typed errors instead of silent no-ops.
struct UniverseBackend {
    inner: EpochBackend,
    dbs: Vec<String>,
}

impl codes_serve::pool::Backend for UniverseBackend {
    fn infer(
        &self,
        request: &InferenceRequest,
        id: u64,
        config: &codes::Config,
    ) -> Result<codes_serve::BackendReply, sqlengine::Error> {
        self.inner.infer(request, id, config)
    }

    fn has_database(&self, db_id: &str) -> Option<bool> {
        Some(self.dbs.iter().any(|d| d == db_id))
    }
}

/// Satellite: invalidating a database the owning shard's backend does not
/// serve is [`Error::UnknownDatabase`], not a silent no-op.
#[test]
fn misaddressed_invalidations_are_typed_errors() {
    let epoch = Arc::new(AtomicU64::new(0));
    let registry = Arc::new(codes_obs::Registry::new());
    let dbs: Vec<String> = (0..6).map(|i| format!("db{i}")).collect();
    let specs = (0..2)
        .map(|_| {
            shard_spec(
                Arc::new(UniverseBackend {
                    inner: EpochBackend::new(Arc::clone(&epoch), Duration::ZERO),
                    dbs: dbs.clone(),
                }),
                chaos_serve_config(),
                true,
                &registry,
            )
        })
        .collect();
    let router =
        Router::start_with_registry(specs, RouterConfig::default(), Arc::clone(&registry));

    match router.invalidate_database("nobody-serves-this") {
        Err(Error::UnknownDatabase { db_id }) => assert_eq!(db_id, "nobody-serves-this"),
        other => panic!("expected UnknownDatabase, got {other:?}"),
    }
    assert!(router.invalidate_database(&dbs[0]).expect("known db").is_some());
    router.shutdown();
}
