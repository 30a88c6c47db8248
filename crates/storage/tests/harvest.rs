//! The harvest under a pool: tables pulled off one queue by the caller's
//! connection and by whatever connections the pool can lend must build
//! the mirror a single connection builds, really overlap on the wire,
//! never wait for or starve a checkout, issue exactly the round trips the
//! protocol names, survive lent connections that died while parked, catch
//! a write that lands mid-harvest — and a refresh must be single-flight
//! per database. Interleavings are forced with counters and condition
//! variables; no test decides anything on elapsed time (the bounded waits
//! below only turn a hang into a failure).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use codes_storage::{
    introspect, Backend, Catalog, CatalogService, Connection, ConnectionPool, FaultSpec,
    FlakyBackend, IntrospectOptions, MemoryBackend, PoolConfig, StorageError, SyncOutcome,
};
use proptest::prelude::*;
use sqlengine::{Column, DataType, Database, QueryResult, TableSchema};

// ---------------------------------------------------------------------
// A backend wrapper that counts every wire operation and runs a hook
// before it; each test scripts its backend through the hook.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Execute,
    Ping,
    Databases,
    Tables,
    TableSchema,
    Revision,
}

/// `(operation, id of the connection it runs on)`; an `Err` fails the
/// operation without reaching the inner backend.
type Hook = Box<dyn Fn(Op, u64) -> Result<(), StorageError> + Send + Sync>;

#[derive(Default)]
struct Wire {
    ops: [AtomicU64; 6],
    connects: AtomicU64,
}

impl Wire {
    fn count(&self, op: Op) -> u64 {
        self.ops[op as usize].load(Ordering::SeqCst)
    }

    fn reset(&self) {
        for op in &self.ops {
            op.store(0, Ordering::SeqCst);
        }
    }
}

struct Hooked<B> {
    inner: B,
    wire: Arc<Wire>,
    hook: Arc<Hook>,
}

impl<B: Backend> Hooked<B> {
    fn new(inner: B, hook: Hook) -> (Hooked<B>, Arc<Wire>) {
        let wire = Arc::new(Wire::default());
        (Hooked { inner, wire: Arc::clone(&wire), hook: Arc::new(hook) }, wire)
    }
}

impl<B: Backend> Backend for Hooked<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn connect(&self) -> Result<Box<dyn Connection>, StorageError> {
        let inner = self.inner.connect()?;
        let id = self.wire.connects.fetch_add(1, Ordering::SeqCst);
        Ok(Box::new(HookedConn {
            inner,
            id,
            wire: Arc::clone(&self.wire),
            hook: Arc::clone(&self.hook),
        }))
    }
}

struct HookedConn {
    inner: Box<dyn Connection>,
    id: u64,
    wire: Arc<Wire>,
    hook: Arc<Hook>,
}

impl HookedConn {
    fn before(&self, op: Op) -> Result<(), StorageError> {
        self.wire.ops[op as usize].fetch_add(1, Ordering::SeqCst);
        (self.hook)(op, self.id)
    }
}

impl Connection for HookedConn {
    fn execute(&mut self, db_id: &str, sql: &str) -> Result<QueryResult, StorageError> {
        self.before(Op::Execute)?;
        self.inner.execute(db_id, sql)
    }

    fn ping(&mut self) -> Result<(), StorageError> {
        self.before(Op::Ping)?;
        self.inner.ping()
    }

    fn databases(&mut self) -> Result<Vec<String>, StorageError> {
        self.before(Op::Databases)?;
        self.inner.databases()
    }

    fn tables(&mut self, db_id: &str) -> Result<Vec<String>, StorageError> {
        self.before(Op::Tables)?;
        self.inner.tables(db_id)
    }

    fn table_schema(&mut self, db_id: &str, table: &str) -> Result<TableSchema, StorageError> {
        self.before(Op::TableSchema)?;
        self.inner.table_schema(db_id, table)
    }

    fn revision(&mut self, db_id: &str) -> Result<u64, StorageError> {
        self.before(Op::Revision)?;
        self.inner.revision(db_id)
    }
}

/// A counter threads can wait on. `wait_for` is bounded so that a broken
/// interleaving fails the test instead of hanging it; the bound decides
/// nothing else.
#[derive(Default)]
struct Arrivals {
    count: Mutex<u64>,
    moved: Condvar,
}

impl Arrivals {
    fn reset(&self) {
        *self.count.lock().expect("no panic under this lock") = 0;
    }

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
        let mut schema = TableSchema::new(
            format!("t{i}"),
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("label", DataType::Text).with_comment(format!("label of t{i}")),
                Column::new("score", DataType::Real),
            ],
        );
        if i > 0 {
            schema = schema.with_foreign_key("id", format!("t{}", i - 1), "id");
        }
        let table = db.create_table(schema).expect("fresh table");
        for j in 0..n as i64 {
            table
                .insert(vec![j.into(), format!("t{i}-r{j}").into(), (j as f64 * 0.25).into()])
                .expect("row fits");
        }
    }
    db
}

fn service_over(
    backend: Arc<dyn Backend>,
    capacity: usize,
    options: IntrospectOptions,
) -> CatalogService {
    let pool = ConnectionPool::with_registry(
        backend,
        // Long enough that a checkout that waited would be seen as a hang,
        // and counted: `exhausted` is asserted zero.
        PoolConfig { capacity, checkout_timeout: Duration::from_secs(30), ..PoolConfig::default() },
        &codes_obs::Registry::new(),
    );
    CatalogService::new(pool, options)
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
    assert_eq!(stats.in_use, 0, "every lent connection came back: {stats:?}");
    assert_eq!(stats.exhausted, 0, "lending never waits for a slot: {stats:?}");
}

// ---------------------------------------------------------------------
// (i) Equivalence.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the shape of the database and however many connections
    /// the pool can lend, the pooled harvest builds the mirror a single
    /// connection builds: table order, row order, schemas, revision.
    #[test]
    fn pooled_harvest_equals_the_single_connection_harvest(
        words in prop::collection::vec(0u64..u64::MAX, 2..9),
    ) {
        let page_size = 8 + (words[0] % 56) as usize;
        let max_rows_per_table = (words[1] % 2 == 0).then_some(page_size * 2 + 3);
        // 0–6 tables; among them an empty one, exact multiples of the page
        // size, one row short of a page, and anything up to 700 rows.
        let rows: Vec<usize> = words[2..]
            .iter()
            .map(|w| match w % 5 {
                0 => 0,
                1 => page_size * (1 + (w / 5 % 3) as usize),
                2 => page_size - 1,
                _ => (w / 5 % 701) as usize,
            })
            .collect();
        let options =
            IntrospectOptions { page_size, max_rows_per_table, ..IntrospectOptions::default() };
        let backend = Arc::new(MemoryBackend::new(vec![database(&rows)]));
        let solo = introspect(&mut backend.connect().expect("connect"), DB, &options)
            .expect("single connection");
        prop_assert_eq!(solo.table_count(), rows.len());
        for capacity in [1usize, 2, 8] {
            let service = service_over(Arc::clone(&backend) as Arc<dyn Backend>, capacity, options);
            let pooled = service.attach(DB).expect("pooled");
            assert_same_mirror(&pooled, &solo, &format!("capacity {capacity}, rows {rows:?}"));
            assert_conserved(&service);
            let helpers = rows.len().saturating_sub(1).min(capacity - 1) as u64;
            prop_assert!(service.pool().stats().established <= 1 + helpers);
        }
    }
}

// ---------------------------------------------------------------------
// (ii) It really overlaps.
// ---------------------------------------------------------------------

/// Attach a `tables`-table database through a backend whose
/// `table_schema` does not answer until `parties` connections are inside
/// it at once. Returns the distinct connections that were.
fn attach_through_a_rendezvous(tables: usize, capacity: usize, parties: u64) -> usize {
    let arrivals = Arc::new(Arrivals::default());
    let inside = Arc::new(Mutex::new(HashSet::new()));
    let (seen, latch) = (Arc::clone(&inside), Arc::clone(&arrivals));
    let rows = vec![3; tables];
    let (backend, _wire) = Hooked::new(
        MemoryBackend::new(vec![database(&rows)]),
        Box::new(move |op, conn| {
            if op != Op::TableSchema {
                return Ok(());
            }
            seen.lock().expect("no panic under this lock").insert(conn);
            latch.arrive();
            latch.wait_for(parties)
        }),
    );
    let service = service_over(Arc::new(backend), capacity, IntrospectOptions::default());
    let catalog = service.attach(DB).expect("the rendezvous is met");
    assert_eq!(catalog.table_count(), tables);
    assert_conserved(&service);
    let distinct = inside.lock().expect("no panic under this lock").len();
    distinct
}

#[test]
fn every_table_is_on_the_wire_at_once_when_the_pool_can_lend() {
    assert_eq!(attach_through_a_rendezvous(4, 4, 4), 4, "four tables, four connections");
    assert_eq!(attach_through_a_rendezvous(4, 8, 4), 4, "never more helpers than tables - 1");
    assert_eq!(attach_through_a_rendezvous(5, 3, 3), 3, "capacity bounds the overlap");
}

#[test]
fn the_same_harvest_runs_serially_on_a_pool_of_one() {
    assert_eq!(attach_through_a_rendezvous(4, 1, 1), 1);
}

// ---------------------------------------------------------------------
// (iii) Lending never waits or starves.
// ---------------------------------------------------------------------

#[test]
fn a_pool_with_nothing_to_lend_harvests_on_the_callers_connection() {
    let backend = Arc::new(MemoryBackend::new(vec![database(&[5, 5, 5, 5])]));
    let (hooked, wire) = Hooked::new(MemoryBackend::over(backend.store()), Box::new(|_, _| Ok(())));
    let service = service_over(Arc::new(hooked), 3, IntrospectOptions::default());

    let held: Vec<_> =
        (0..3).map(|_| service.pool().checkout().expect("capacity free")).collect();
    assert!(service.pool().try_checkout().is_none(), "every slot is out");
    let mut held = held;
    drop(held.pop());

    // One slot is free and the refresh's own checkout takes it.
    service.attach(DB).expect("attach on one connection");
    write_row(&backend, "t1", 100);
    wire.reset();
    let outcome = service.sync(DB).expect("refresh on one connection");
    assert!(matches!(outcome, SyncOutcome::Refreshed { .. }), "{outcome:?}");
    assert_eq!(service.catalog(DB).expect("attached").database.tables[1].rows.len(), 6);
    assert_eq!(wire.count(Op::TableSchema), 4, "the whole harvest ran");
    assert_eq!(wire.connects.load(Ordering::SeqCst), 3, "on the connection it had");

    let stats = service.pool().stats();
    assert_eq!(stats.exhausted, 0, "a helper that finds no slot does not wait for one");
    assert_eq!(stats.in_use, 2, "the held guards were never disturbed");
    drop(held);
    assert_conserved(&service);

    // `try_checkout` hands out what `checkout` would have.
    let lent = service.pool().try_checkout().expect("slots are free again");
    assert_eq!(service.pool().stats().established, 3, "a parked connection, not a new one");
    drop(lent);
    service.pool().close();
    assert!(service.pool().try_checkout().is_none(), "a closed pool lends nothing");
}

// ---------------------------------------------------------------------
// (iv) Op accounting.
// ---------------------------------------------------------------------

#[test]
fn a_refresh_issues_exactly_the_round_trips_the_protocol_names() {
    // Page size 10: 0 rows → 1 page, 5 → 1, 10 → 2 (a full page, then the
    // empty one that ends the chain), 25 → 3.
    let backend = Arc::new(MemoryBackend::new(vec![database(&[0, 5, 10, 25])]));
    let (hooked, wire) = Hooked::new(MemoryBackend::over(backend.store()), Box::new(|_, _| Ok(())));
    let options = IntrospectOptions { page_size: 10, ..IntrospectOptions::default() };
    let service = service_over(Arc::new(hooked), 8, options);

    service.attach(DB).expect("attach");
    assert_eq!(wire.count(Op::Revision), 2, "an attach reads before and after");
    assert_eq!(wire.count(Op::Tables), 1);
    assert_eq!(wire.count(Op::TableSchema), 4);
    assert_eq!(wire.count(Op::Execute), 7);

    wire.reset();
    assert_eq!(service.sync(DB).expect("steady"), SyncOutcome::Unchanged);
    assert_eq!(wire.count(Op::Revision), 1, "an unchanged sync is one read");
    assert_eq!(wire.count(Op::Tables) + wire.count(Op::TableSchema) + wire.count(Op::Execute), 0);

    write_row(&backend, "t1", 100);
    wire.reset();
    assert!(matches!(service.sync(DB).expect("refresh"), SyncOutcome::Refreshed { .. }));
    assert_eq!(wire.count(Op::Revision), 2, "the dispatch's read is the harvest's `before`");
    assert_eq!(wire.count(Op::Tables), 1);
    assert_eq!(wire.count(Op::TableSchema), 4);
    assert_eq!(wire.count(Op::Execute), 7);
    assert_conserved(&service);
}

// ---------------------------------------------------------------------
// (v) Conservation and robustness under faults.
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

/// The failure rule, interleaving forced: four connections each hold one
/// of four tables when the three lent ones turn out to have died while
/// parked. Their tables go back to the caller's connection, the refresh
/// succeeds, and the dead connections are discarded at checkin.
#[test]
fn a_lent_connection_that_died_while_parked_hands_its_table_back() {
    let store = MemoryBackend::new(vec![database(&[4, 4, 4, 4])]);
    let admin = MemoryBackend::over(store.store());
    let (morgue, arrivals) = (Arc::new(Morgue::default()), Arc::new(Arrivals::default()));
    let (dead, inside) = (Arc::clone(&morgue), Arc::clone(&arrivals));
    let opened = AtomicU64::new(0);
    let armed = Arc::new(AtomicBool::new(false));
    let on = Arc::clone(&armed);
    let (backend, wire) = Hooked::new(
        store,
        Box::new(move |op, conn| {
            opened.fetch_max(conn + 1, Ordering::SeqCst);
            match op {
                // A pass starts: nobody is inside `table_schema`. Once
                // armed, everything parked dies here — the connection that
                // lists the tables is the caller's, and proves itself live.
                Op::Tables => {
                    inside.reset();
                    if on.load(Ordering::SeqCst) {
                        (0..opened.load(Ordering::SeqCst))
                            .filter(|other| *other != conn)
                            .for_each(|other| dead.kill(other));
                    }
                }
                // All four connections take a table before any is answered.
                Op::TableSchema => {
                    inside.arrive();
                    inside.wait_for(4)?;
                }
                _ => {}
            }
            dead.check(conn)
        }),
    );
    let service = service_over(Arc::new(backend), 4, IntrospectOptions::default());
    service.attach(DB).expect("attach");
    assert_eq!(service.pool().stats().established, 4, "the attach left four parked connections");

    write_row(&admin, "t3", 100);
    wire.reset();
    armed.store(true, Ordering::SeqCst);
    assert!(matches!(service.sync(DB).expect("refresh"), SyncOutcome::Refreshed { .. }));

    assert_eq!(service.catalog(DB).expect("attached").database.tables[3].rows.len(), 5);
    assert_eq!(wire.count(Op::TableSchema), 4 + 3, "three tables were asked for twice");
    assert_eq!(wire.count(Op::Ping), 3, "each tainted guard was probed once at checkin");
    let stats = service.pool().stats();
    assert_eq!(stats.discarded_broken, 3, "and discarded: {stats:?}");
    assert_eq!(stats.idle, 1, "the caller's connection is the one left: {stats:?}");
    assert_conserved(&service);
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
/// fails that refresh at the parent commit as well; dying while parked is
/// what the kill schedule isolates.
fn refresh_storm(spec: FaultSpec) -> Storm {
    let store = MemoryBackend::new(vec![database(&[4, 4, 4, 4])]);
    let admin = MemoryBackend::over(store.store());
    let morgue = Arc::new(Morgue::default());
    let dead = Arc::clone(&morgue);
    let (backend, wire) =
        Hooked::new(FlakyBackend::new(store, spec), Box::new(move |_, conn| dead.check(conn)));
    let service = service_over(Arc::new(backend), 8, IntrospectOptions::default());
    assert!((0..50).any(|_| service.attach(DB).is_ok()), "attach beats the injector");

    let (mut errors, mut refreshed) = (Vec::new(), 0);
    for round in 0..150u64 {
        write_row(&admin, "t2", 1000 + round as i64);
        (0..wire.connects.load(Ordering::SeqCst))
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
         connection that was parked dead or lent: {:?}",
        storm.errors
    );
    assert!(storm.refreshed > 50, "refreshes do get through: {}", storm.refreshed);
    assert_conserved(&storm.service);
}

// ---------------------------------------------------------------------
// (vi) A write landing mid-harvest.
// ---------------------------------------------------------------------

/// A backend that writes a row to the store whenever `when(connection)`
/// says so on an `execute`, and in every pass holds `table_schema` until
/// two connections are inside it, so a helper is certain to run an
/// `execute` of its own.
fn writing_backend(
    when: impl Fn(u64) -> bool + Send + Sync + 'static,
) -> (Arc<dyn Backend>, Arc<Wire>) {
    let store = MemoryBackend::new(vec![database(&[4, 4, 4, 4])]);
    let admin = MemoryBackend::over(store.store());
    let inside = Arrivals::default();
    let written = AtomicU64::new(0);
    let (backend, wire) = Hooked::new(
        store,
        Box::new(move |op, conn| {
            match op {
                Op::Tables => inside.reset(),
                Op::TableSchema => {
                    inside.arrive();
                    inside.wait_for(2)?;
                }
                Op::Execute if when(conn) => {
                    write_row(&admin, "t0", 1000 + written.fetch_add(1, Ordering::SeqCst) as i64);
                }
                _ => {}
            }
            Ok(())
        }),
    );
    (Arc::new(backend), wire)
}

#[test]
fn a_write_on_a_helpers_connection_mid_harvest_is_caught_and_retried() {
    // Connection 0 is the caller's (the first established); the first
    // `execute` on any other writes, once.
    let fired = AtomicBool::new(false);
    let (backend, wire) =
        writing_backend(move |conn| conn != 0 && !fired.swap(true, Ordering::SeqCst));
    let service = service_over(Arc::clone(&backend), 8, IntrospectOptions::default());
    let catalog = service.attach(DB).expect("the second pass is quiet");
    assert_eq!(wire.count(Op::Tables), 2, "the token bracket failed the first pass");
    assert_eq!(catalog.database.tables[0].rows.len(), 5, "the mirror has the written row");
    let live = backend.connect().expect("connect").revision(DB).expect("revision");
    assert_eq!(catalog.revision, live);
    assert_conserved(&service);
}

#[test]
fn a_revision_that_keeps_moving_is_the_same_typed_error() {
    let (backend, wire) = writing_backend(|_| true);
    let options = IntrospectOptions { consistency_retries: 2, ..IntrospectOptions::default() };
    let service = service_over(backend, 8, options);
    let err = service.attach(DB).expect_err("never consistent");
    assert_eq!(err.kind(), "storage_introspect");
    assert!(err.to_string().contains("revision kept moving during harvest"), "{err}");
    assert_eq!(wire.count(Op::Tables), 3, "consistency_retries + 1 passes");
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
    let (backend, wire) = Hooked::new(
        store,
        Box::new(move |op, _| {
            if !on.load(Ordering::SeqCst) {
                return Ok(());
            }
            match op {
                Op::Revision => gate.arrive(),
                Op::Tables => gate.wait_for(CALLERS)?,
                _ => {}
            }
            Ok(())
        }),
    );
    let service = service_over(Arc::new(backend), 8, IntrospectOptions::default());
    let observed = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&observed);
    service.set_revision_observer(Box::new(move |_| {
        counter.fetch_add(1, Ordering::SeqCst);
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
