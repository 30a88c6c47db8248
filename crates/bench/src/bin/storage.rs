//! Storage-layer benchmark: what the connection pool and the catalog
//! service actually buy on a "remote-ish" backend.
//!
//! The backend is the in-memory engine wrapped in a latency-only fault
//! plan (every connect and every operation pays a fixed wire delay), and
//! the database is Bank-Financials. Seven rows:
//!
//! 1. **cold connect** — a fresh establishment per request, the no-pool
//!    baseline.
//! 2. **pooled checkout** — against a warm pool: the recycled connection
//!    skips establishment entirely.
//! 3. **attach, cold (first harvest)** — the first attach over the
//!    default 8-slot pool, on one of its connections. It predicts
//!    nothing: the connect, a pipeline of the opening revision read and
//!    the listing, then one of every table's schema beside its
//!    `SELECT *` and the closing revision read. 3 wire waits, whatever
//!    the row counts (the 1500-row `txn` table included); one sample.
//! 4. **introspect (full harvest)** — re-attaches over the installed
//!    catalog, which predicts every table: one pipeline of the opening
//!    revision read, the listing, every schema and `SELECT *`, and the
//!    closing read.
//! 5. **refresh after a one-row write** — what a dispatch pays after a
//!    write: its revision read (which doubles as the harvest's `before`)
//!    and one pipeline predicted from the catalog it replaces: the listing,
//!    every schema and `SELECT *`, and the closing revision read. Two wire
//!    waits, however many rows the write added; the server's work on the
//!    pipeline's requests is serial, as on one real session.
//! 6. **the same refresh, observer building index + profile** — with a
//!    revision observer that derives the BM25 value index and the schema
//!    profile from the fresh mirror, as the serving layer's does, once the
//!    pipeline has answered; the commit that installs it is a few map
//!    inserts.
//! 7. **sync (revision check)** — on an unchanged backend: the check the
//!    serving layer makes on every dispatch over a backend that cannot
//!    push commits.
//!
//! Beside each p50 the table prints the wire waits the backend counted per
//! iteration (connects and probes included): the round trips the path
//! paid, whatever else its latency is.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use codes_bench::workbench::{self, percentile};
use codes_datasets::finance::bank_financials_db;
use codes_eval::TextTable;
use codes_linker::SchemaProfile;
use codes_retrieval::ValueIndex;
use codes_storage::{
    Backend, CatalogService, ConnectionPool, FaultSpec, FlakyBackend, IntrospectOptions,
    MemoryBackend, PoolConfig, SyncOutcome,
};

/// A row's latencies, sorted, and the wire waits it paid per iteration.
struct Row {
    latencies: Vec<f64>,
    wire_waits: f64,
}

fn timed(iterations: usize, wire: &Remote, mut op: impl FnMut()) -> Row {
    let mut latencies = Vec::with_capacity(iterations);
    let waited = wire.wire_waits();
    for _ in 0..iterations {
        let started = Instant::now();
        op();
        latencies.push(started.elapsed().as_secs_f64());
    }
    latencies.sort_by(f64::total_cmp);
    let wire_waits = (wire.wire_waits() - waited) as f64 / iterations.max(1) as f64;
    Row { latencies, wire_waits }
}

/// The tree the numbers were measured on, as `git describe` names it
/// (`-dirty` when it has uncommitted changes).
fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(|| "unknown".to_string(), |out| {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        })
}

const DB: &str = "bank_financials";

/// The benchmark's backend: Bank-Financials behind a latency-only plan.
type Remote = FlakyBackend<MemoryBackend>;

/// Write one client row, as another client would: an in-process `Vec`
/// push, so timing it with the sync it provokes adds microseconds to tens
/// of milliseconds.
fn write_client(admin: &MemoryBackend, client_id: i64) {
    admin
        .mutate(DB, |db| {
            let client = db.table_mut("client").expect("client table");
            let row = vec![client_id.into(), "Zora".into(), "F".into(), "Jesenik".into(), 1.into()];
            client.insert(row).expect("row fits");
        })
        .expect("db registered");
}

/// Refreshes after one-row writes, each timed from the write to the
/// installed catalog.
fn refreshes(
    service: &CatalogService,
    admin: &MemoryBackend,
    wire: &Remote,
    iterations: usize,
    client_ids: &mut std::ops::RangeFrom<i64>,
) -> Row {
    timed(iterations, wire, || {
        write_client(admin, client_ids.next().expect("unbounded range"));
        let outcome = service.sync(DB).expect("refresh succeeds");
        assert!(matches!(outcome, SyncOutcome::Refreshed { .. }), "the write moved the token");
    })
}

/// A catalog service over `backend` whose observer derives each mirror's
/// value index (reusing the one it replaces) and schema profile, and holds
/// the last ones committed.
fn observed_service(backend: &Arc<dyn Backend>) -> CatalogService {
    type Held = Option<(Arc<ValueIndex>, Arc<SchemaProfile>)>;
    let service = CatalogService::new(
        ConnectionPool::new(Arc::clone(backend), PoolConfig::default()),
        IntrospectOptions::default(),
    );
    let held: Arc<Mutex<Held>> = Arc::default();
    service.set_revision_observer(Box::new(move |db| {
        let previous = held.lock().expect("no panic under this lock").clone();
        let index = ValueIndex::build_reusing(db, previous.as_ref().map(|(index, _)| &**index));
        let built = (Arc::new(index), Arc::new(SchemaProfile::build(db)));
        let held = Arc::clone(&held);
        Box::new(move || *held.lock().expect("no panic under this lock") = Some(built))
    }));
    service
}

fn main() {
    const DATA_SEED: u64 = 1;
    const WIRE_DELAY: Duration = Duration::from_millis(2);
    let iterations = workbench::eval_limit().unwrap_or(100);
    // Every record carries the tree and the data seed it was measured on.
    let system = format!("connection pool @ {}", commit());
    let dataset = format!("{DB} (seed {DATA_SEED})");

    let store = MemoryBackend::new(vec![bank_financials_db(DATA_SEED)]);
    // Writes go straight to the store, as another client's would.
    let admin = MemoryBackend::over(store.store());
    let wire = Arc::new(FlakyBackend::new(store, FaultSpec::latency_only(WIRE_DELAY)));
    let backend: Arc<dyn Backend> = Arc::clone(&wire) as Arc<dyn Backend>;
    // Checkin pings are off so the pooled pass measures pure recycling;
    // a latency-only plan never breaks connections, so nothing is lost.
    let pool = ConnectionPool::new(
        Arc::clone(&backend),
        PoolConfig { capacity: 4, ping_on_checkin: false, ..PoolConfig::default() },
    );

    // 1. Cold path: establish a fresh connection per request, throw it
    // away afterwards — the no-pool baseline.
    let cold = timed(iterations, &wire, || {
        drop(backend.connect().expect("backend reachable"));
    });

    // 2. Pooled checkout: one warmup fills a slot, then every checkout
    // recycles it without paying establishment again.
    drop(pool.checkout().expect("warmup checkout"));
    let pooled = timed(iterations, &wire, || {
        drop(pool.checkout().expect("pool has capacity"));
    });

    // 3. Full introspection, refresh after a write, and revision-check
    // sync on the same service.
    let service = CatalogService::new(
        ConnectionPool::new(Arc::clone(&backend), PoolConfig::default()),
        IntrospectOptions::default(),
    );
    let attach = || {
        service.attach(DB).expect("attach succeeds");
    };
    let cold_attach = timed(1, &wire, attach);
    let full = timed(iterations.min(25), &wire, attach);
    let mut client_ids = 1_000_000i64..;
    let refresh = refreshes(&service, &admin, &wire, iterations.min(25), &mut client_ids);
    let observed = observed_service(&backend);
    observed.attach(DB).expect("attach succeeds");
    let refresh_observed =
        refreshes(&observed, &admin, &wire, iterations.min(25), &mut client_ids);
    let sync = timed(iterations, &wire, || {
        service.sync(DB).expect("sync succeeds");
    });

    let mut t = TextTable::new(&format!(
        "Storage layer ({WIRE_DELAY:?} wire delay per connect/op, n={iterations})"
    ))
    .headers(&["Path", "p50 (ms)", "p95 (ms)", "wire waits (counted)", "speedup vs baseline"]);
    let mut records = Vec::new();
    for (label, row, baseline) in [
        ("cold connect (per request)", &cold, None),
        ("pooled checkout (recycled)", &pooled, Some(&cold)),
        ("attach, cold (first harvest)", &cold_attach, None),
        ("introspect (full harvest)", &full, None),
        ("refresh after a one-row write", &refresh, None),
        (
            "refresh after a one-row write, observer building index + profile",
            &refresh_observed,
            None,
        ),
        ("sync (revision check)", &sync, Some(&full)),
    ] {
        let sorted = &row.latencies;
        let p50 = percentile(sorted, 0.50);
        let p95 = percentile(sorted, 0.95);
        let speedup = baseline.map(|b: &Row| percentile(&b.latencies, 0.50) / p50.max(1e-9));
        t.row(vec![
            label.to_string(),
            format!("{:.3}", p50 * 1000.0),
            format!("{:.3}", p95 * 1000.0),
            format!("{:.1}", row.wire_waits),
            speedup.map_or_else(|| "-".to_string(), |s| format!("{s:.1}x")),
        ]);
        for (metric, value) in
            [("p50_ms", p50 * 1000.0), ("p95_ms", p95 * 1000.0), ("wire_waits", row.wire_waits)]
        {
            records.push(workbench::record(
                "storage",
                &system,
                &dataset,
                &format!("{label} {metric}"),
                value,
                sorted.len(),
            ));
        }
    }
    println!("{}", t.render());

    // Both pools register into the global metrics registry, so these
    // counters are process-wide across every pass above.
    let stats = pool.stats();
    println!(
        "storage pools (process-wide): {} checkouts, {} established, {} recycled checkins",
        stats.checkouts, stats.established, stats.checkins
    );
    workbench::save_records("storage", &records);
}
