//! Routing suite: each database has one owning shard, and everything
//! addressed to a database (requests, invalidations, per-shard stats)
//! lands on that shard.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use codes_router::{Router, RouterConfig};
use codes::Error;
use codes_serve::InferenceRequest;
use common::{chaos_serve_config, shard_spec, EpochBackend};

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

/// Pick a db owned by `shard`.
fn db_owned_by(router: &Router, shard: usize) -> String {
    (0..10_000)
        .map(|i| format!("db{i}"))
        .find(|db| router.owner(db) == shard)
        .expect("some db hashes to every shard")
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
