//! Storage-backed shards: every shard of the router serves a
//! [`SystemBackend`] whose catalogs are introspected live from a shared
//! storage backend through its own health-checked connection pool. A hash
//! of the database id decides which shard answers for it; the
//! shard's own catalog service keeps that database's mirror fresh, and a
//! live mutation propagated through `observe_revision` invalidates every
//! shard's view.

mod common;

use std::sync::Arc;
use std::time::Duration;

use codes::{
    pretrain, table4_models, CodesModel, CodesSystem, PretrainConfig, PromptOptions,
    SketchCatalog,
};
use codes_router::{Router, RouterConfig, ShardSpec};
use codes_serve::{InferenceRequest, SystemBackend};
use codes_storage::{
    CatalogService, ConnectionPool, IntrospectOptions, MemoryBackend, PoolConfig,
};
use common::chaos_serve_config;
use sqlengine::{Column, DataType, Database, TableSchema};

/// A tiny database with one table and a couple of rows.
fn tiny_db(name: &str) -> Database {
    let mut db = Database::new(name);
    let table = db
        .create_table(TableSchema::new(
            "events",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("label", DataType::Text),
            ],
        ))
        .expect("fresh table");
    table.insert(vec![1.into(), "open".into()]).expect("row fits");
    table.insert(vec![2.into(), "close".into()]).expect("row fits");
    db
}

#[test]
fn router_shards_serve_live_introspected_catalogs() {
    // One shared storage backend; each shard mirrors it through its own
    // pool + catalog service, exactly like independent replicas pointed
    // at one remote database server.
    let names = ["alpha_db", "beta_db", "gamma_db"];
    let storage =
        Arc::new(MemoryBackend::new(names.iter().map(|n| tiny_db(n)).collect::<Vec<_>>()));

    let sketches = Arc::new(SketchCatalog::build());
    let spec = table4_models().into_iter().find(|m| m.name == "CodeS-1B").expect("known model");
    let lm = pretrain(&sketches, &spec, &PretrainConfig { scale: 10, seed: 3 });
    let system = Arc::new(CodesSystem::new(
        CodesModel::new(lm, sketches),
        PromptOptions::sft().without_schema_filter(),
    ));

    let mut services = Vec::new();
    let specs: Vec<ShardSpec> = (0..2)
        .map(|_| {
            let pool = ConnectionPool::with_registry(
                Arc::clone(&storage) as Arc<dyn codes_storage::Backend>,
                PoolConfig { capacity: 2, ..PoolConfig::default() },
                &codes_obs::Registry::new(),
            );
            let service = Arc::new(CatalogService::new(pool, IntrospectOptions::default()));
            services.push(Arc::clone(&service));
            let backend = SystemBackend::with_catalogs(Arc::clone(&system), service);
            ShardSpec::new(Arc::new(backend), chaos_serve_config())
        })
        .collect();
    let registry = Arc::new(codes_obs::Registry::new());
    let router = Router::start_with_registry(specs, RouterConfig::default(), registry);

    // Every database resolves through its owning shard, and the answer
    // comes off a live-introspected catalog (no hand registration
    // happened anywhere in this test).
    for db in names {
        let ticket = router
            .submit(InferenceRequest::new(db, format!("How many events in {db}?")))
            .expect("routable database");
        let served = ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("storage-backed shard answered")
            .expect("inference succeeded");
        assert!(!served.sql.is_empty());
        assert!(
            !served.degradations.iter().any(|d| d.contains("storage sync failed")),
            "healthy storage path serves undegraded: {:?}",
            served.degradations
        );
    }
    // Databases spread across both shards by hash —
    // but every one of them has exactly one owner.
    for db in names {
        assert!(router.owner(db) < 2, "{db} has an owning shard");
    }

    // A live mutation is visible to every shard on its next sync: each
    // shard's catalog service observes the moved revision independently.
    let before: Vec<u64> = services
        .iter()
        .map(|s| s.catalog("alpha_db").expect("attached").revision)
        .collect();
    storage
        .mutate("alpha_db", |db| {
            db.table_mut("events")
                .expect("events table")
                .insert(vec![3.into(), "reopen".into()])
                .expect("row fits");
        })
        .expect("db registered");
    for (service, old) in services.iter().zip(before) {
        service.sync("alpha_db").expect("healthy sync");
        let fresh = service.catalog("alpha_db").expect("attached").revision;
        assert!(fresh > old, "each shard's mirror independently observes the mutation");
    }

    let health = router.shutdown();
    assert_eq!(health.shards.iter().map(|s| s.pool.queue_depth).sum::<usize>(), 0);
}
