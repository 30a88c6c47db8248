//! A catalog service's harvest helpers are threads it owns: spawned on
//! first use, never more than its pool's capacity less one, parked between
//! waves, and joined when the service drops. Spawns are read off
//! `codes_storage::testing`, nothing off the process.

use std::sync::Arc;

use codes_storage::testing::{helper_liveness, helper_threads};
use codes_storage::{
    Backend, CatalogService, ConnectionPool, IntrospectOptions, MemoryBackend, PoolConfig,
    SyncOutcome,
};
use proptest::prelude::*;
use sqlengine::{Column, DataType, Database, TableSchema};

const DB: &str = "d";

fn database(rows: &[usize]) -> Database {
    let mut db = Database::new(DB);
    for (i, &n) in rows.iter().enumerate() {
        let table = db
            .create_table(TableSchema::new(
                format!("t{i}"),
                vec![Column::new("id", DataType::Integer), Column::new("label", DataType::Text)],
            ))
            .expect("fresh table");
        for j in 0..n as i64 {
            table.insert(vec![j.into(), format!("t{i}-r{j}").into()]).expect("row fits");
        }
    }
    db
}

fn service_over(backend: &MemoryBackend, capacity: usize) -> CatalogService {
    let pool = ConnectionPool::with_registry(
        Arc::new(MemoryBackend::over(backend.store())) as Arc<dyn Backend>,
        PoolConfig { capacity, ..PoolConfig::default() },
        &codes_obs::Registry::new(),
    );
    let service = CatalogService::new(pool, IntrospectOptions::default());
    // With an observer, every pass has a build to lend out.
    service.set_revision_observer(Box::new(|_| Box::new(|| {})));
    service
}

fn write_row(backend: &MemoryBackend, table: usize, id: i64) {
    backend
        .mutate(DB, |db| {
            let table = db.table_mut(&format!("t{table}")).expect("table exists");
            table.insert(vec![id.into(), "written".into()]).expect("row fits");
        })
        .expect("db exists");
}

fn refresh(service: &CatalogService) {
    let outcome = service.sync(DB).expect("refresh");
    assert!(matches!(outcome, SyncOutcome::Refreshed { .. }), "{outcome:?}");
}

#[test]
fn after_the_first_refresh_no_refresh_spawns_a_thread() {
    const REFRESHES: i64 = 25;
    let backend = MemoryBackend::new(vec![database(&[3, 3, 3])]);
    let service = service_over(&backend, 8);
    service.attach(DB).expect("attach");
    write_row(&backend, 1, 1000);
    refresh(&service);
    // The refresh's one wave is a listing, three schemas and three pages:
    // six lent connections beside the caller's, each on its own thread. The
    // build then runs on one of them, parked by then.
    assert_eq!(helper_threads(&service), 6);

    for id in 1..=REFRESHES {
        write_row(&backend, (id % 3) as usize, 1000 + id);
        refresh(&service);
    }
    assert_eq!(helper_threads(&service), 6, "{REFRESHES} refreshes spawned nothing");
    let liveness = helper_liveness(&service);
    assert_eq!(liveness.strong_count(), 6 + 1, "every helper is alive, parked");
}

#[test]
fn a_dropped_service_has_joined_its_helpers() {
    let backend = MemoryBackend::new(vec![database(&[5, 5, 5, 5])]);
    let service = service_over(&backend, 8);
    service.attach(DB).expect("attach");
    write_row(&backend, 0, 1000);
    refresh(&service);
    let liveness = helper_liveness(&service);
    assert!(helper_threads(&service) > 0, "the harvest used helpers");
    drop(service);
    assert_eq!(liveness.strong_count(), 0, "the drop joined every helper");
}

#[test]
fn a_pool_of_one_lends_no_thread() {
    let backend = MemoryBackend::new(vec![database(&[5, 5, 5])]);
    let service = service_over(&backend, 1);
    service.attach(DB).expect("attach");
    write_row(&backend, 0, 1000);
    refresh(&service);
    assert_eq!(helper_threads(&service), 0, "the caller harvests and builds alone");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the database and the pool, and with refreshes racing each
    /// other, a service never holds more than its capacity less one helper
    /// threads, and holds none once dropped.
    #[test]
    fn a_service_never_holds_more_helpers_than_its_pool_can_lend(
        words in prop::collection::vec(0u64..u64::MAX, 2..7),
    ) {
        let capacity = [1usize, 2, 3, 8][(words[0] % 4) as usize];
        let rows: Vec<usize> = words[1..].iter().map(|w| (w % 60) as usize).collect();
        let backend = MemoryBackend::new(vec![database(&rows)]);
        let service = service_over(&backend, capacity);
        service.attach(DB).expect("attach");
        for round in 0..4i64 {
            write_row(&backend, round as usize % rows.len(), 1000 + round);
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    scope.spawn(|| service.sync(DB).expect("sync"));
                }
            });
            prop_assert!(helper_threads(&service) < capacity);
        }
        let liveness = helper_liveness(&service);
        prop_assert_eq!(liveness.strong_count(), helper_threads(&service) + 1);
        drop(service);
        prop_assert_eq!(liveness.strong_count(), 0);
    }
}
