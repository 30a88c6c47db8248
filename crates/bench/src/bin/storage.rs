//! Storage-layer benchmark: what the connection pool and the catalog
//! service actually buy on a "remote-ish" backend.
//!
//! The backend is the in-memory engine wrapped in a latency-only fault
//! plan (every connect and every operation pays a fixed wire delay), so
//! the three comparisons below isolate pooling and revision-checking:
//!
//! 1. **cold connect** — a fresh establishment per request, the no-pool
//!    baseline.
//! 2. **pooled checkout** — against a warm pool: the recycled connection
//!    skips establishment entirely.
//! 3. **introspection** — a full catalog harvest (attach) vs a
//!    revision-check sync on an unchanged backend: the fast path the
//!    serving layer takes on every dispatch.

use std::sync::Arc;
use std::time::{Duration, Instant};

use codes_bench::workbench::{self, percentile};
use codes_datasets::finance::bank_financials_db;
use codes_eval::TextTable;
use codes_storage::{
    Backend, CatalogService, ConnectionPool, FaultSpec, FlakyBackend,
    IntrospectOptions,
    MemoryBackend, PoolConfig,
};

fn timed(iterations: usize, mut op: impl FnMut()) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let started = Instant::now();
        op();
        latencies.push(started.elapsed().as_secs_f64());
    }
    latencies.sort_by(f64::total_cmp);
    latencies
}

fn main() {
    const DB: &str = "bank_financials";
    const WIRE_DELAY: Duration = Duration::from_millis(2);
    let iterations = workbench::eval_limit().unwrap_or(100);

    let backend: Arc<dyn Backend> = Arc::new(FlakyBackend::new(
        MemoryBackend::new(vec![bank_financials_db(1)]),
        FaultSpec::latency_only(WIRE_DELAY),
    ));
    // Checkin pings are off so the pooled pass measures pure recycling;
    // a latency-only plan never breaks connections, so nothing is lost.
    let pool = ConnectionPool::new(
        Arc::clone(&backend),
        PoolConfig { capacity: 4, ping_on_checkin: false, ..PoolConfig::default() },
    );

    // 1. Cold path: establish a fresh connection per request, throw it
    // away afterwards — the no-pool baseline.
    let cold = timed(iterations, || {
        drop(backend.connect().expect("backend reachable"));
    });

    // 2. Pooled checkout: one warmup fills a slot, then every checkout
    // recycles it without paying establishment again.
    drop(pool.checkout().expect("warmup checkout"));
    let pooled = timed(iterations, || {
        drop(pool.checkout().expect("pool has capacity"));
    });

    // 3. Full introspection vs revision-check sync on the same service.
    let service = CatalogService::new(
        ConnectionPool::new(Arc::clone(&backend), PoolConfig::default()),
        IntrospectOptions::default(),
    );
    let full = timed(iterations.min(25), || {
        service.attach(DB).expect("attach succeeds");
    });
    let sync = timed(iterations, || {
        service.sync(DB).expect("sync succeeds");
    });

    let mut t = TextTable::new(&format!(
        "Storage layer ({WIRE_DELAY:?} wire delay per connect/op, n={iterations})"
    ))
    .headers(&["Path", "p50 (ms)", "p95 (ms)", "speedup vs baseline"]);
    let mut records = Vec::new();
    for (label, sorted, baseline) in [
        ("cold connect (per request)", &cold, None),
        ("pooled checkout (recycled)", &pooled, Some(&cold)),
        ("introspect (full harvest)", &full, None),
        ("sync (revision check)", &sync, Some(&full)),
    ] {
        let p50 = percentile(sorted, 0.50);
        let p95 = percentile(sorted, 0.95);
        let speedup = baseline.map(|b| percentile(b, 0.50) / p50.max(1e-9));
        t.row(vec![
            label.to_string(),
            format!("{:.3}", p50 * 1000.0),
            format!("{:.3}", p95 * 1000.0),
            speedup.map_or_else(|| "-".to_string(), |s| format!("{s:.1}x")),
        ]);
        for (metric, value) in [("p50_ms", p50), ("p95_ms", p95)] {
            records.push(workbench::record(
                "storage",
                "connection pool",
                "bank_financials",
                &format!("{label} {metric}"),
                value * 1000.0,
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
