//! The two gates the `live_catalog` benchmark holds every run to, caught in
//! tier-1 and over real HTTP: behind a write and its invalidation, the next
//! `POST /v1/infer` costs exactly two generation bumps — the store's
//! announcement of the commit and the invalidation — and one `tables()`
//! listing and is answered from the post-write mirror, and the requests
//! behind it take the installed catalog without touching storage, because
//! nothing announced since differs from it (DESIGN.md §4k). No clock is
//! read anywhere on that path.

mod common;

use std::sync::Arc;

use codes::{
    pretrain, table4_models, CacheSettings, CodesModel, CodesSystem, PretrainConfig, PromptOptions,
    SketchCatalog, SystemCache,
};
use codes_gateway::{Gateway, HttpClient};
use codes_obs::Registry;
use codes_router::{Router, RouterConfig, ShardSpec};
use codes_serve::{ServeConfig, SystemBackend};
use codes_storage::testing::{Hooked, Op};
use codes_storage::{CatalogService, ConnectionPool, IntrospectOptions, MemoryBackend, PoolConfig};
use common::fast_config;
use serde::Json;
use sqlengine::{Column, DataType, Database, TableSchema};

const DB: &str = "shop";

fn shop() -> Database {
    let mut db = Database::new(DB);
    let events = db
        .create_table(TableSchema::new(
            "events",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("label", DataType::Text),
            ],
        ))
        .expect("fresh table");
    events.insert(vec![1.into(), "open".into()]).expect("row fits");
    db
}

/// `POST /v1/infer`; returns `(sql, cached)` of a clean answer.
fn infer(client: &mut HttpClient, question: &str) -> (String, bool) {
    let body = Json::Obj(vec![
        ("db_id".to_string(), Json::Str(DB.to_string())),
        ("question".to_string(), Json::Str(question.to_string())),
    ]);
    let response = client.post_json("/v1/infer", &[], &body).expect("infer");
    assert_eq!(response.status, 200, "body: {}", response.body_str());
    let data = response.data().expect("infer data");
    assert_eq!(data.get("degradations"), Some(&Json::Arr(Vec::new())), "a healthy store: clean");
    (
        data.get("sql").and_then(Json::as_str).expect("sql").to_string(),
        data.get("cached").and_then(Json::as_bool).expect("cached"),
    )
}

/// The whole stack over loopback — gateway → router → pool →
/// `SystemBackend` → catalog service → counted store — through one write
/// that `announce` makes known.
fn a_write_costs_two_bumps_and_one_listing(announce: impl FnOnce(&mut HttpClient, &SystemCache)) {
    let registry = Arc::new(Registry::new());
    let cache = Arc::new(SystemCache::with_registry(&registry, CacheSettings::default()));
    let sketches = Arc::new(SketchCatalog::build());
    let spec = table4_models().into_iter().find(|m| m.name == "CodeS-1B").expect("known model");
    let lm = pretrain(&sketches, &spec, &PretrainConfig { scale: 10, seed: 3 });
    let system = Arc::new(
        CodesSystem::new(
            CodesModel::new(lm, sketches),
            PromptOptions::sft().without_schema_filter(),
        )
        .with_cache(Arc::clone(&cache)),
    );

    let admin = MemoryBackend::new(vec![shop()]);
    // A `tables()` listing is one per re-introspection.
    let store = Hooked::new(MemoryBackend::over(admin.store()));
    let wire = store.wire();
    let listings = || wire.count(Op::Tables);
    let pool = ConnectionPool::with_registry(Arc::new(store), PoolConfig::default(), &registry);
    let service = Arc::new(CatalogService::new(pool, IntrospectOptions::default()));
    let backend = SystemBackend::with_registry(system, Arc::clone(&service), &registry);
    let serve = ServeConfig { cache: Some(Arc::clone(&cache)), ..ServeConfig::default() };
    let router = Arc::new(Router::start_with_registry(
        vec![ShardSpec::new(Arc::new(backend), serve)],
        RouterConfig::default(),
        registry,
    ));
    let gateway = Gateway::start(router, fast_config(Vec::new())).expect("gateway starts");
    let mut client = HttpClient::connect(gateway.local_addr()).expect("connect");

    let (sql, _) = infer(&mut client, "How many tickets are there?");
    assert!(sql.contains("events"), "the attach-time mirror has no tickets table: {sql}");
    let attach_listings = listings();

    admin
        .mutate(DB, |db| {
            db.create_table(TableSchema::new(
                "tickets",
                vec![Column::new("id", DataType::Integer)],
            ))
            .expect("fresh table");
        })
        .expect("shop is registered");
    announce(&mut client, &cache);

    let (sql, cached) = infer(&mut client, "How many tickets are there?");
    assert!(!cached, "the invalidation put the pre-write answer out of reach");
    assert!(sql.contains("tickets"), "answered from the post-write mirror: {sql}");
    assert_eq!(cache.stats().invalidations, 2, "the announced revision, then the invalidation");
    assert_eq!(listings() - attach_listings, 1, "one re-introspection");

    let checkouts = service.pool().stats().checkouts;
    for n in 0..9 {
        let (sql, cached) = infer(&mut client, &format!("How many tickets are there in row {n}?"));
        assert!(!cached && sql.contains("tickets"), "a fresh question, dispatched: {sql}");
    }
    assert_eq!(service.pool().stats().checkouts, checkouts, "nine dispatches, no storage checkout");
    assert_eq!(cache.stats().invalidations, 2);

    // What the operator sees: ten of the eleven dispatches never asked the store.
    let metrics = client.get("/metrics", &[]).expect("metrics").body_str();
    for series in [
        "codes_serve_catalog_checks_total{outcome=\"current\"} 10",
        "codes_serve_catalog_checks_total{outcome=\"unchanged\"} 0",
        "codes_serve_catalog_checks_total{outcome=\"refreshed\"} 1",
        "codes_serve_catalog_checks_total{outcome=\"attached\"} 0",
        "codes_serve_catalog_checks_total{outcome=\"failed\"} 0",
        "codes_cache_invalidations_total 2",
    ] {
        assert!(metrics.lines().any(|line| line == series), "{series} in:\n{metrics}");
    }
    gateway.shutdown();
}

#[test]
fn a_write_announced_over_http_costs_two_bumps_and_one_listing() {
    a_write_costs_two_bumps_and_one_listing(|client, _| {
        let body = Json::Obj(vec![("db_id".to_string(), Json::Str(DB.to_string()))]);
        let response = client.post_json("/v1/invalidate", &[], &body).expect("invalidate");
        assert_eq!(response.status, 200, "body: {}", response.body_str());
    });
}

/// What `e2e/src/peel.rs` does in its in-process replays: the bump lands
/// on the cache directly, with no router or pool in between.
#[test]
fn a_write_announced_on_the_cache_costs_two_bumps_and_one_listing() {
    a_write_costs_two_bumps_and_one_listing(|_, cache| {
        cache.invalidate_database(DB);
    });
}
