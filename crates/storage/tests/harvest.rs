//! The harvest under a pool: requests — the listing, one table's schema,
//! one table's rows — sent in pipelines over one pooled connection must
//! build the mirror a bare connection builds, issue exactly the requests
//! and pipelines the protocol names (at most two pipelines a pass; a
//! refresh whose prediction holds: the dispatch's revision read, then one
//! pipeline ending in `after`), survive
//! connections that died while parked and requests for tables the listing
//! no longer has, retry a pass a write landed in, give up on a revision
//! that keeps moving — and a refresh must be single-flight per database.
//! Interleavings are forced with counters and condition variables; no test
//! decides anything on elapsed time (the bounded waits below only turn a
//! hang into a failure).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use codes_storage::testing::{Hooked, Op};
use codes_storage::{
    introspect, Backend, Catalog, CatalogService, Connection, ConnectionPool, FaultSpec,
    FlakyBackend, IntrospectOptions, MemoryBackend, PoolConfig, StorageError, SyncOutcome,
};
use proptest::prelude::*;
use sqlengine::{Column, DataType, Database, TableSchema};

/// A counter threads can wait on. `wait_for` is bounded so that a broken
/// interleaving fails the test instead of hanging it; the bound decides
/// nothing else.
#[derive(Default)]
struct Arrivals {
    count: Mutex<u64>,
    moved: Condvar,
}

impl Arrivals {
    fn arrive(&self) {
        *self.count.lock().expect("no panic under this lock") += 1;
        self.moved.notify_all();
    }

    fn wait_for(&self, target: u64) -> Result<(), StorageError> {
        let count = self.count.lock().expect("no panic under this lock");
        let (_count, timeout) = self
            .moved
            .wait_timeout_while(count, Duration::from_secs(20), |count| *count < target)
            .expect("no panic under this lock");
        if timeout.timed_out() {
            return Err(StorageError::Introspect(format!("never saw {target} arrivals")));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------

const DB: &str = "d";

/// A database of `rows.len()` tables `t0, t1, …`, table `i` holding
/// `rows[i]` rows, with a comment, a primary key and a foreign key so a
/// dropped schema fact shows.
fn database(rows: &[usize]) -> Database {
    let mut db = Database::new(DB);
    for (i, &n) in rows.iter().enumerate() {
        add_table(&mut db, &format!("t{i}"), n);
    }
    db
}

fn add_table(db: &mut Database, name: &str, rows: usize) {
    let mut schema = TableSchema::new(
        name,
        vec![
            Column::new("id", DataType::Integer).primary_key(),
            Column::new("label", DataType::Text).with_comment(format!("label of {name}")),
            Column::new("score", DataType::Real),
        ],
    );
    if let Some(previous) = db.tables.last() {
        schema = schema.with_foreign_key("id", previous.schema.name.clone(), "id");
    }
    let table = db.create_table(schema).expect("fresh table");
    for j in 0..rows as i64 {
        table
            .insert(vec![j.into(), format!("{name}-r{j}").into(), (j as f64 * 0.25).into()])
            .expect("row fits");
    }
}

fn service_over(backend: Arc<dyn Backend>, capacity: usize) -> CatalogService {
    let pool = ConnectionPool::with_registry(
        backend,
        // Long enough that a checkout that waited would be seen as a hang,
        // and counted: `exhausted` is asserted zero.
        PoolConfig { capacity, checkout_timeout: Duration::from_secs(30), ..PoolConfig::default() },
        &codes_obs::Registry::new(),
    );
    CatalogService::new(pool, IntrospectOptions::default())
}

fn write_row(backend: &MemoryBackend, table: &str, id: i64) {
    backend
        .mutate(DB, |db| {
            db.table_mut(table)
                .expect("table exists")
                .insert(vec![id.into(), format!("written-{id}").into(), 0.5.into()])
                .expect("row fits");
        })
        .expect("db exists");
}

fn drop_table(backend: &MemoryBackend, table: &str) {
    backend
        .mutate(DB, |db| {
            db.tables.retain(|t| t.schema.name != table);
            db.bump_revision();
        })
        .expect("db exists");
}

/// What a single connection harvests from `backend` right now.
fn fresh_introspection(backend: &dyn Backend) -> Catalog {
    introspect(&mut backend.connect().expect("connect"), DB).expect("single connection")
}

fn assert_same_mirror(pooled: &Catalog, solo: &Catalog, context: &str) {
    assert_eq!(pooled.revision, solo.revision, "{context}: revision");
    assert_eq!(pooled.database.revision(), solo.database.revision(), "{context}: stamp");
    assert_eq!(pooled.database.name, solo.database.name, "{context}: name");
    assert_eq!(
        pooled.database.table_names(),
        solo.database.table_names(),
        "{context}: table order"
    );
    for (p, s) in pooled.database.tables.iter().zip(&solo.database.tables) {
        assert_eq!(p.schema, s.schema, "{context}: schema of {}", s.schema.name);
        assert_eq!(p.rows, s.rows, "{context}: rows of {}", s.schema.name);
    }
}

fn assert_conserved(service: &CatalogService) {
    let stats = service.pool().stats();
    assert_eq!(stats.checkouts, stats.checkins + stats.discarded(), "{stats:?}");
    assert_eq!(stats.in_use, 0, "every connection came back: {stats:?}");
    assert_eq!(stats.exhausted, 0, "no checkout waited out its timeout: {stats:?}");
}

/// The `SELECT` that fetches every row of `table`.
fn rows_sql(table: &str) -> String {
    format!("SELECT * FROM \"{table}\"")
}

// ---------------------------------------------------------------------
// (i) Equivalence.
// ---------------------------------------------------------------------

/// 0–6 tables; among them empty ones, short ones (under ten rows), ones of
/// 700 rows, and anything in between.
fn table_rows(words: &[u64]) -> Vec<usize> {
    words
        .iter()
        .map(|w| match w % 5 {
            0 => 0,
            1 => 1 + (w / 5 % 9) as usize,
            2 => 700,
            _ => (w / 5 % 701) as usize,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the shape of the database and the pool's capacity, the
    /// pooled harvest builds the mirror a bare connection builds, on one
    /// connection and in two pipelines: table order, row order, schemas,
    /// revision.
    #[test]
    fn pooled_harvest_equals_the_single_connection_harvest(
        words in prop::collection::vec(0u64..u64::MAX, 0..7),
    ) {
        let rows = table_rows(&words);
        let backend = Arc::new(MemoryBackend::new(vec![database(&rows)]));
        let solo = fresh_introspection(backend.as_ref());
        prop_assert_eq!(solo.table_count(), rows.len());
        for capacity in [1usize, 2, 8] {
            let hooked = Hooked::new(MemoryBackend::over(backend.store()));
            let wire = hooked.wire();
            let service = service_over(Arc::new(hooked), capacity);
            let pooled = service.attach(DB).expect("pooled");
            assert_same_mirror(&pooled, &solo, &format!("capacity {capacity}, rows {rows:?}"));
            assert_conserved(&service);
            prop_assert_eq!(service.pool().stats().established, 1);
            // [before, listing], then every table.
            prop_assert_eq!(wire.pipelines(), 2);
        }
    }

    /// Whatever moved between the attach and the sync — a table added or
    /// dropped, a column renamed, rows grown or shrunk by up to 300 — the
    /// refresh, predicted from the mirror it replaces, installs the mirror
    /// a fresh single-connection introspection builds, in one pipeline
    /// after the dispatch's read, two when a table was added.
    #[test]
    fn a_refreshed_mirror_equals_a_fresh_introspection_whatever_moved(
        words in prop::collection::vec(0u64..u64::MAX, 2..8),
    ) {
        let rows = table_rows(&words[2..]);
        let capacity = [1usize, 2, 8][(words[1] % 3) as usize];
        let by = 1 + (words[1] / 3 % 300) as usize;
        let backend = Arc::new(MemoryBackend::new(vec![database(&rows)]));
        let hooked = Hooked::new(MemoryBackend::over(backend.store()));
        let wire = hooked.wire();
        let service = service_over(Arc::new(hooked), capacity);
        service.attach(DB).expect("attach");

        let victim = format!("t{}", (words[0] / 5) as usize % rows.len().max(1));
        let mutation = words[0] % 5;
        backend
            .mutate(DB, |db| {
                match (mutation, db.tables.iter_mut().find(|t| t.schema.name == victim)) {
                    (0, _) => add_table(db, "added", (words[0] / 5 % 300) as usize),
                    (1, _) => db.tables.retain(|t| t.schema.name != victim),
                    (2, Some(table)) => table.schema.columns[1].name = "renamed".to_string(),
                    (3, Some(table)) => {
                        let n = table.rows.len() as i64;
                        for j in n..n + by as i64 {
                            table.rows.push(vec![j.into(), "grown".into(), 0.0.into()]);
                        }
                    }
                    (_, Some(table)) => {
                        let keep = table.rows.len().saturating_sub(by);
                        table.rows.truncate(keep);
                    }
                    (_, None) => {}
                }
                db.bump_revision();
            })
            .expect("db exists");

        wire.reset();
        let outcome = service.sync(DB).expect("refresh");
        prop_assert!(matches!(outcome, SyncOutcome::Refreshed { .. }), "{:?}", outcome);
        // A table added is one nobody predicted: a second pipeline.
        prop_assert_eq!(wire.pipelines(), 1 + u64::from(mutation == 0));
        let fresh = fresh_introspection(backend.as_ref());
        let refreshed = service.catalog(DB).expect("attached");
        assert_same_mirror(
            &refreshed,
            &fresh,
            &format!("mutation {mutation} of {victim}, capacity {capacity}, rows {rows:?}"),
        );
        assert_conserved(&service);
    }
}

// ---------------------------------------------------------------------
// (ii) Request accounting.
// ---------------------------------------------------------------------

/// After a write, the refresh is the dispatch's revision read and one
/// pipeline of the listing, every table's schema beside its rows, and the
/// revision read that closes it, in that order, on one connection.
#[test]
fn a_refresh_whose_prediction_holds_is_one_wave() {
    let store = MemoryBackend::new(vec![database(&[3, 40, 3])]);
    let admin = MemoryBackend::over(store.store());
    let armed = Arc::new(AtomicBool::new(false));
    let log = Arc::new(Mutex::new(Vec::new()));
    let (on, trace) = (Arc::clone(&armed), Arc::clone(&log));
    let backend = Hooked::new(store).before(move |call| {
        if on.load(Ordering::SeqCst) {
            let seen = (call.op, call.target.to_string(), call.conn);
            trace.lock().expect("no panic under this lock").push(seen);
        }
        Ok(())
    });
    let wire = backend.wire();
    let service = service_over(Arc::new(backend), 8);
    service.attach(DB).expect("attach");

    write_row(&admin, "t1", 100);
    wire.reset();
    armed.store(true, Ordering::SeqCst);
    let outcome = service.sync(DB).expect("refresh");
    assert!(matches!(outcome, SyncOutcome::Refreshed { .. }), "{outcome:?}");
    armed.store(false, Ordering::SeqCst);

    assert_eq!(wire.pipelines(), 1, "one pipeline after the dispatch's read");
    let log = log.lock().expect("no panic under this lock").clone();
    let conns: HashSet<u64> = log.iter().map(|(_, _, conn)| *conn).collect();
    assert_eq!(conns.len(), 1, "one connection: {log:?}");
    let requests: Vec<(Op, String)> = log.into_iter().map(|(op, target, _)| (op, target)).collect();
    let mut expected = vec![(Op::Revision, String::new()), (Op::Tables, String::new())];
    for table in ["t0", "t1", "t2"] {
        expected.push((Op::TableSchema, table.to_string()));
        expected.push((Op::Execute, rows_sql(table)));
    }
    expected.push((Op::Revision, String::new()));
    assert_eq!(requests, expected);

    let fresh = fresh_introspection(&admin);
    assert_same_mirror(&service.catalog(DB).expect("attached"), &fresh, "one-pipeline refresh");
    assert_conserved(&service);
}

#[test]
fn the_same_harvest_runs_serially_on_a_pool_of_one() {
    let inside = Arc::new(Mutex::new(HashSet::new()));
    let seen = Arc::clone(&inside);
    let backend = Hooked::new(MemoryBackend::new(vec![database(&[3; 4])])).before(move |call| {
        seen.lock().expect("no panic under this lock").insert(call.conn);
        Ok(())
    });
    let service = service_over(Arc::new(backend), 1);
    assert_eq!(service.attach(DB).expect("attach").table_count(), 4);
    assert_conserved(&service);
    let distinct = inside.lock().expect("no panic under this lock").len();
    assert_eq!((distinct, service.pool().stats().established), (1, 1));
}

/// Every slot but one is held by someone else: the refresh takes that one
/// and runs whole on it, without waiting for or disturbing the others.
#[test]
fn a_pool_with_nothing_to_lend_harvests_on_the_callers_connection() {
    let backend = Arc::new(MemoryBackend::new(vec![database(&[5, 5, 5, 5])]));
    let hooked = Hooked::new(MemoryBackend::over(backend.store()));
    let wire = hooked.wire();
    let service = service_over(Arc::new(hooked), 3);

    let mut held: Vec<_> =
        (0..3).map(|_| service.pool().checkout().expect("capacity free")).collect();
    drop(held.pop());

    service.attach(DB).expect("attach on one connection");
    write_row(&backend, "t1", 100);
    wire.reset();
    let outcome = service.sync(DB).expect("refresh on one connection");
    assert!(matches!(outcome, SyncOutcome::Refreshed { .. }), "{outcome:?}");
    assert_eq!(service.catalog(DB).expect("attached").database.tables[1].rows.len(), 6);
    assert_eq!(wire.count(Op::TableSchema), 4, "the whole harvest ran");
    assert_eq!(wire.count(Op::Execute), 4, "every predicted table's rows, once");
    assert_eq!(wire.connects(), 3, "on the connection it had");

    let stats = service.pool().stats();
    assert_eq!(stats.exhausted, 0, "nothing waited for a slot");
    assert_eq!(stats.in_use, 2, "the held guards were never disturbed");
    drop(held);
    assert_conserved(&service);
}

// ---------------------------------------------------------------------
// (iii) Op accounting.
// ---------------------------------------------------------------------

#[test]
fn a_refresh_issues_exactly_the_round_trips_the_protocol_names() {
    let backend = Arc::new(MemoryBackend::new(vec![database(&[0, 5, 10, 25])]));
    let reads = Arc::new(Mutex::new(Vec::new()));
    let sql = Arc::clone(&reads);
    let hooked = Hooked::new(MemoryBackend::over(backend.store())).before(move |call| {
        if call.op == Op::Execute {
            sql.lock().expect("no panic under this lock").push(call.target.to_string());
        }
        Ok(())
    });
    let wire = hooked.wire();
    let service = service_over(Arc::new(hooked), 8);
    let take_reads = || std::mem::take(&mut *reads.lock().expect("no panic under this lock"));
    let every_table: Vec<String> = ["t0", "t1", "t2", "t3"].map(rows_sql).to_vec();

    service.attach(DB).expect("attach");
    // [before, listing], then [every schema beside its rows, after].
    assert_eq!(wire.pipelines(), 2);
    assert_eq!(wire.count(Op::Revision), 2, "`before`, and `after` closing the second");
    assert_eq!(wire.count(Op::Tables), 1);
    assert_eq!(wire.count(Op::TableSchema), 4);
    assert_eq!(wire.count(Op::Execute), 4);
    assert_eq!(take_reads(), every_table, "each table read once, in listing order");

    wire.reset();
    assert_eq!(service.sync(DB).expect("steady"), SyncOutcome::Unchanged);
    assert_eq!(wire.count(Op::Revision), 1, "an unchanged sync is one read");
    assert_eq!(wire.pipelines(), 0);
    assert_eq!(wire.count(Op::Tables) + wire.count(Op::TableSchema) + wire.count(Op::Execute), 0);

    // A one-row write: the prediction holds, one pipeline.
    write_row(&backend, "t1", 100);
    wire.reset();
    assert!(matches!(service.sync(DB).expect("refresh"), SyncOutcome::Refreshed { .. }));
    assert_eq!(wire.count(Op::Revision), 2, "the dispatch's read is the harvest's `before`");
    assert_eq!(wire.pipelines(), 1);
    assert_eq!(wire.count(Op::Tables), 1);
    assert_eq!(wire.count(Op::TableSchema), 4);
    assert_eq!(wire.count(Op::Execute), 4);
    assert_eq!(wire.count(Op::Databases), 0);
    assert_eq!(take_reads(), every_table, "the predicted tables, each once");

    // A table nobody predicted: its schema and rows follow in a second
    // pipeline, which ends in its own revision read.
    backend.mutate(DB, |db| add_table(db, "t4", 3)).expect("db exists");
    wire.reset();
    assert!(matches!(service.sync(DB).expect("refresh"), SyncOutcome::Refreshed { .. }));
    assert_eq!(wire.count(Op::Revision), 3);
    assert_eq!(wire.pipelines(), 2);
    assert_eq!(wire.count(Op::Tables), 1);
    assert_eq!(wire.count(Op::TableSchema), 5);
    assert_eq!(wire.count(Op::Execute), 5, "t4's rows, after the listing named it");
    let mut expected = every_table.clone();
    expected.push(rows_sql("t4"));
    assert_eq!(take_reads(), expected);
    assert_eq!(service.catalog(DB).expect("attached").database.tables[4].rows.len(), 3);
    assert_conserved(&service);
}

/// Bank-Financials' `txn` has 1,500 rows. Attached, it is two pipelines,
/// whatever the row count, and the mirror holds every row in the source's
/// order.
#[test]
fn a_1500_row_table_attaches_in_two_pipelines_row_for_row() {
    let source = database(&[1500]);
    let hooked = Hooked::new(MemoryBackend::new(vec![source.clone()]));
    let wire = hooked.wire();
    let service = service_over(Arc::new(hooked), 8);
    let catalog = service.attach(DB).expect("attach");
    assert_eq!(wire.pipelines(), 2, "[before, listing], then [schema, rows, after]");
    assert_eq!(wire.count(Op::Execute), 1, "one read of the table");
    assert_eq!(catalog.database.tables[0].rows, source.tables[0].rows, "row for row, in order");
    assert_conserved(&service);
}

/// Growing a table by 300 rows still costs a refresh the dispatch's read
/// and one pipeline: how many rows a table holds never asks for another
/// round trip.
#[test]
fn a_refresh_after_a_table_grows_by_300_rows_is_one_pipeline() {
    let store = MemoryBackend::new(vec![database(&[3, 40])]);
    let admin = MemoryBackend::over(store.store());
    let hooked = Hooked::new(store);
    let wire = hooked.wire();
    let service = service_over(Arc::new(hooked), 8);
    service.attach(DB).expect("attach");

    for id in 1000..1300 {
        write_row(&admin, "t1", id);
    }
    wire.reset();
    assert!(matches!(service.sync(DB).expect("refresh"), SyncOutcome::Refreshed { .. }));
    assert_eq!(wire.pipelines(), 1);
    assert_eq!(wire.count(Op::Revision), 2, "the dispatch's read and `after`");
    let refreshed = service.catalog(DB).expect("attached");
    assert_eq!(refreshed.database.tables[1].rows.len(), 340);
    assert_same_mirror(&refreshed, &fresh_introspection(&admin), "grown by 300 rows");
    assert_conserved(&service);
}

/// No request of an attach or a refresh pages with `LIMIT` or `OFFSET`:
/// a page read without `ORDER BY` is not a consistent read on a real
/// database.
#[test]
fn no_harvest_request_pages_with_limit_or_offset() {
    let store = MemoryBackend::new(vec![database(&[0, 7, 700])]);
    let admin = MemoryBackend::over(store.store());
    let sent = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&sent);
    let hooked = Hooked::new(store).before(move |call| {
        log.lock().expect("no panic under this lock").push(call.target.to_string());
        Ok(())
    });
    let service = service_over(Arc::new(hooked), 8);
    service.attach(DB).expect("attach");
    write_row(&admin, "t2", 1000);
    admin.mutate(DB, |db| add_table(db, "added", 300)).expect("db exists");
    assert!(matches!(service.sync(DB).expect("refresh"), SyncOutcome::Refreshed { .. }));

    let sent = sent.lock().expect("no panic under this lock").clone();
    assert!(sent.iter().any(|target| target.starts_with("SELECT")), "rows were read: {sent:?}");
    for target in &sent {
        let upper = target.to_ascii_uppercase();
        assert!(!upper.contains("LIMIT") && !upper.contains("OFFSET"), "paged: {target}");
    }
}

// ---------------------------------------------------------------------
// (iv) Conservation and robustness under faults.
// ---------------------------------------------------------------------

/// Connections the test has killed: every operation on one, probes
/// included, fails at the transport from then on.
#[derive(Default)]
struct Morgue(Mutex<HashSet<u64>>);

impl Morgue {
    fn kill(&self, conn: u64) {
        self.0.lock().expect("no panic under this lock").insert(conn);
    }

    fn check(&self, conn: u64) -> Result<(), StorageError> {
        if self.0.lock().expect("no panic under this lock").contains(&conn) {
            return Err(StorageError::Connect("killed while parked".to_string()));
        }
        Ok(())
    }
}

struct Storm {
    errors: Vec<String>,
    refreshed: usize,
    service: CatalogService,
}

/// 150 rounds of: write a row, kill a rotating third of the connections
/// opened so far — whichever of them still exist are parked, nothing is
/// checked out between syncs — and sync. `FlakyBackend`'s own
/// `silent_break` is drawn per operation, so inside a many-operation
/// harvest it strikes connections *in use*, the caller's included, which
/// fails that refresh; dying while parked is what the kill schedule
/// isolates.
fn refresh_storm(spec: FaultSpec) -> Storm {
    let store = MemoryBackend::new(vec![database(&[4, 4, 4, 4])]);
    let admin = MemoryBackend::over(store.store());
    let morgue = Arc::new(Morgue::default());
    let dead = Arc::clone(&morgue);
    let backend =
        Hooked::new(FlakyBackend::new(store, spec)).before(move |call| dead.check(call.conn));
    let wire = backend.wire();
    let service = service_over(Arc::new(backend), 8);
    assert!((0..50).any(|_| service.attach(DB).is_ok()), "attach beats the injector");

    let (mut errors, mut refreshed) = (Vec::new(), 0);
    for round in 0..150u64 {
        write_row(&admin, "t2", 1000 + round as i64);
        (0..wire.connects())
            .filter(|conn| (conn + round).is_multiple_of(3))
            .for_each(|conn| morgue.kill(conn));
        match service.sync(DB) {
            Ok(_) => {
                let mirrored = service.catalog(DB).expect("attached");
                refreshed +=
                    usize::from(mirrored.database.tables[2].rows.len() == 5 + round as usize);
            }
            Err(e) => errors.push(e.to_string()),
        }
    }
    Storm { errors, refreshed, service }
}

#[test]
fn connections_that_died_while_parked_never_fail_a_refresh() {
    let storm = refresh_storm(FaultSpec::default());
    assert!(storm.errors.is_empty(), "{:?}", storm.errors);
    assert_eq!(storm.refreshed, 150, "every refresh saw its write");
    let stats = storm.service.pool().stats();
    assert!(
        stats.discarded_broken + stats.discarded_ping > 50,
        "the storm did park dead connections: {stats:?}"
    );
    assert_conserved(&storm.service);
}

#[test]
fn under_chaos_only_faults_injected_on_live_connections_fail_a_refresh() {
    // `silent_break` off: see `refresh_storm`. Refusals and I/O faults on.
    let storm = refresh_storm(FaultSpec { silent_break: 0.0, ..FaultSpec::chaos(11) });
    assert!(!storm.errors.is_empty(), "injected I/O faults and refusals still surface");
    assert!(
        storm.errors.iter().all(|e| e.contains("injected")),
        "every failed refresh is a fault the injector raised on a live connection, never a \
         connection that was parked dead: {:?}",
        storm.errors
    );
    assert!(storm.refreshed > 50, "refreshes do get through: {}", storm.refreshed);
    assert_conserved(&storm.service);
}

/// A refresh predicts from the mirror it replaces, so when a table has
/// been dropped its units still go out, and fail at the backend. Until
/// the listing says the table is gone that failure could be real; once it
/// does, it is dropped: the refresh succeeds and installs what a fresh
/// introspection builds. A listed table's failure still fails the pass,
/// and of several the earliest-listed one is reported.
#[test]
fn a_unit_for_a_table_the_listing_no_longer_has_never_fails_the_pass() {
    let store = MemoryBackend::new(vec![database(&[4, 300, 4, 4])]);
    let admin = MemoryBackend::over(store.store());
    let asked = Arc::new(Mutex::new(Vec::new()));
    let failing = Arc::new(Mutex::new(Vec::<&'static str>::new()));
    let (log, inject) = (Arc::clone(&asked), Arc::clone(&failing));
    let backend = Hooked::new(store).before(move |call| {
        if call.op == Op::TableSchema {
            log.lock().expect("no panic under this lock").push(call.target.to_string());
        }
        let injected = inject.lock().expect("no panic under this lock").clone();
        match injected.into_iter().find(|table| call.target.contains(table)) {
            Some(table) => Err(StorageError::Introspect(format!("injected failure of {table}"))),
            None => Ok(()),
        }
    });
    let service = service_over(Arc::new(backend), 8);
    service.attach(DB).expect("attach");
    asked.lock().expect("no panic under this lock").clear();

    // t1 is gone: its schema and rows fail at the backend.
    drop_table(&admin, "t1");
    let outcome = service.sync(DB).expect("a dropped table's failures do not fail the refresh");
    assert!(matches!(outcome, SyncOutcome::Refreshed { .. }), "{outcome:?}");
    assert!(
        asked.lock().expect("no panic under this lock").iter().any(|table| table == "t1"),
        "the prediction did ask for t1"
    );
    let fresh = fresh_introspection(&admin);
    assert_same_mirror(&service.catalog(DB).expect("attached"), &fresh, "t1 dropped");

    // Now t0 goes, and both listed tables behind it fail: t3 in its row
    // read, t2 in its schema and its row read. Listing order decides which
    // table is reported, and of t2's two failures the schema's is.
    let before = service.catalog(DB).expect("attached").revision;
    *failing.lock().expect("no panic under this lock") = vec!["t0", "\"t3\"", "t2"];
    drop_table(&admin, "t0");
    let err = service.sync(DB).expect_err("listed tables failed");
    assert_eq!(err.kind(), "storage_introspect");
    assert!(err.to_string().contains("injected failure of t2"), "earliest-listed: {err}");
    assert!(!err.to_string().contains("row harvest"), "the schema before the rows: {err}");
    assert_eq!(service.catalog(DB).expect("attached").revision, before, "nothing installed");
    assert_conserved(&service);
}

// ---------------------------------------------------------------------
// (v) A write landing mid-harvest, and a revision that keeps moving.
// ---------------------------------------------------------------------

/// A store that does not pipeline answers the harvest's requests one at a
/// time, and the first row read writes a row before the backend sees
/// it: the closing revision read catches the write, the pass is retried
/// once, and the retry's mirror holds the written row.
#[test]
fn a_write_between_two_requests_of_the_harvest_is_caught_and_retried() {
    let store = MemoryBackend::new(vec![database(&[4, 4, 4, 4])]);
    let admin = MemoryBackend::over(store.store());
    let fired = AtomicBool::new(false);
    let backend = Hooked::new(store)
        .before(move |call| {
            if call.op == Op::Execute && !fired.swap(true, Ordering::SeqCst) {
                write_row(&admin, "t0", 1000);
            }
            Ok(())
        })
        .unpipelined();
    let wire = backend.wire();
    let backend: Arc<dyn Backend> = Arc::new(backend);
    let service = service_over(Arc::clone(&backend), 8);
    let catalog = service.attach(DB).expect("the second pass is quiet");
    assert_eq!(wire.count(Op::Tables), 2, "the revision bracket failed the first pass");
    assert_eq!(catalog.database.tables[0].rows.len(), 5, "the mirror has the written row");
    let live = backend.connect().expect("connect").revision(DB).expect("revision");
    assert_eq!(catalog.revision, live);
    assert_conserved(&service);
}

/// Every row read writes a row to the store before the backend sees
/// it: no pass's bracket ever holds.
#[test]
fn a_revision_that_keeps_moving_is_the_same_typed_error() {
    let store = MemoryBackend::new(vec![database(&[4, 4, 4, 4])]);
    let admin = MemoryBackend::over(store.store());
    let written = AtomicU64::new(0);
    let backend = Hooked::new(store).before(move |call| {
        if call.op == Op::Execute {
            write_row(&admin, "t0", 1000 + written.fetch_add(1, Ordering::SeqCst) as i64);
        }
        Ok(())
    });
    let wire = backend.wire();
    let service = service_over(Arc::new(backend), 8);
    let err = service.attach(DB).expect_err("never consistent");
    assert_eq!(err.kind(), "storage_introspect");
    assert!(err.to_string().contains("revision kept moving during harvest"), "{err}");
    assert_eq!(wire.count(Op::Tables), 4, "the first pass and three retries");
    assert!(!service.contains(DB), "nothing unvalidated was installed");
    assert_conserved(&service);
}

// ---------------------------------------------------------------------
// A refresh is single-flight per database.
// ---------------------------------------------------------------------

#[test]
fn concurrent_syncs_after_one_write_share_one_refresh() {
    const CALLERS: u64 = 4;
    let store = MemoryBackend::new(vec![database(&[4, 4, 4])]);
    let admin = MemoryBackend::over(store.store());
    // The refresh's table listing does not answer until every caller has
    // read the moved token: all of them are past the check by then.
    let reads = Arc::new(Arrivals::default());
    let armed = Arc::new(AtomicBool::new(false));
    let (gate, on) = (Arc::clone(&reads), Arc::clone(&armed));
    let backend = Hooked::new(store).before(move |call| {
        if !on.load(Ordering::SeqCst) {
            return Ok(());
        }
        match call.op {
            Op::Revision => gate.arrive(),
            Op::Tables => gate.wait_for(CALLERS)?,
            _ => {}
        }
        Ok(())
    });
    let wire = backend.wire();
    let service = service_over(Arc::new(backend), 8);
    let observed = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&observed);
    service.set_revision_observer(Box::new(move |_| {
        let counter = Arc::clone(&counter);
        Box::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        })
    }));
    let stale = service.attach(DB).expect("attach").revision;

    write_row(&admin, "t1", 100);
    let live = admin.connect().expect("connect").revision(DB).expect("revision");
    wire.reset();
    observed.store(0, Ordering::SeqCst);
    armed.store(true, Ordering::SeqCst);

    std::thread::scope(|scope| {
        for _ in 0..CALLERS {
            scope.spawn(|| {
                let outcome = service.sync(DB).expect("sync");
                assert_eq!(outcome, SyncOutcome::Refreshed { from: stale, to: live });
                assert_eq!(service.catalog(DB).expect("attached").revision, live);
            });
        }
    });
    assert_eq!(wire.count(Op::Tables), 1, "one harvest for one write");
    assert_eq!(observed.load(Ordering::SeqCst), 1, "one observer call");
    assert_eq!(wire.count(Op::Revision), CALLERS + 1, "each caller's read, and `after`");
    assert_eq!(service.sync(DB).expect("steady"), SyncOutcome::Unchanged);
    assert_conserved(&service);
}
