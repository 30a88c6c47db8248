//! Gateway overhead benchmark: closed-loop loopback HTTP load through the
//! hardened gateway at 1, 8 and 32 concurrent connections.
//!
//! Each connection is one closed-loop client: it sends `POST /v1/infer`,
//! waits for the response, and immediately sends the next — so offered
//! load tracks service capacity and the measurement isolates per-request
//! gateway cost (parse, auth, rate-limit, journal, serialize) on top of a
//! fixed-cost backend. Reported: qps plus client-observed p50/p95 wall
//! latency per connection count, saved to `results/gateway.json`.
//!
//! Run with: `cargo run --release -p codes-bench --bin gateway`

use std::sync::Arc;
use std::time::{Duration, Instant};

use codes_bench::workbench::{self, percentile, FixedCostBackend};
use codes_eval::TextTable;
use codes_gateway::{Gateway, GatewayConfig, HttpClient, TenantSpec};
use codes_router::{Router, RouterConfig, ShardSpec};
use codes_serve::ServeConfig;
use serde::Json;

const WORKERS: usize = 8;
const COST: Duration = Duration::from_millis(2);
const REQUESTS_PER_CONNECTION: usize = 60;
const API_KEY: &str = "bench-key";

struct Pass {
    connections: usize,
    qps: f64,
    p50_ms: f64,
    p95_ms: f64,
    total: usize,
}

/// One pass: a fresh router+gateway, `connections` closed-loop clients,
/// every response checked. Returns the aggregate throughput and the
/// client-observed latency quantiles.
fn run_pass(connections: usize) -> Pass {
    let backend = Arc::new(FixedCostBackend { cost: COST });
    let total = connections * REQUESTS_PER_CONNECTION;
    let config = ServeConfig {
        workers: WORKERS,
        queue_capacity: total + 8,
        default_deadline: Duration::from_secs(120),
        max_batch: 1,
        cache: None,
        ..ServeConfig::default()
    };
    let registry = Arc::new(codes_obs::Registry::new());
    let router = Arc::new(Router::start_with_registry(
        vec![ShardSpec::new(backend, config)],
        RouterConfig::default(),
        registry,
    ));
    let gateway = Gateway::start(
        Arc::clone(&router),
        GatewayConfig {
            max_connections: connections + 8,
            // Effectively unmetered tenant: the bench measures the
            // auth/limiter code path, not an artificial throttle.
            tenants: vec![TenantSpec::new("bench", API_KEY).with_rate(1e9, 1e6)],
            ..GatewayConfig::default()
        },
    )
    .expect("loopback bind");
    let addr = gateway.local_addr();

    let started = Instant::now();
    let workers: Vec<std::thread::JoinHandle<Vec<Duration>>> = (0..connections)
        .map(|conn| {
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect to gateway");
                let auth = ("x-api-key", API_KEY);
                let mut latencies = Vec::with_capacity(REQUESTS_PER_CONNECTION);
                for n in 0..REQUESTS_PER_CONNECTION {
                    let body = Json::Obj(vec![
                        ("db_id".to_string(), Json::Str(format!("db{}", (conn + n) % 16))),
                        ("question".to_string(), Json::Str(format!("c{conn} q{n}"))),
                    ]);
                    let sent = Instant::now();
                    let response = client
                        .post_json("/v1/infer", &[auth], &body)
                        .expect("gateway answers");
                    assert_eq!(response.status, 200, "body: {}", response.body_str());
                    latencies.push(sent.elapsed());
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = Vec::with_capacity(total);
    for handle in workers {
        latencies.extend(handle.join().expect("client thread"));
    }
    let elapsed = started.elapsed().as_secs_f64();

    let stats = gateway.shutdown();
    assert_eq!(stats.infer_admitted, total as u64, "every request admitted");
    assert_eq!(
        stats.infer_admitted, stats.infer_resolved,
        "exactly-once: every admitted request resolved"
    );
    let router = Arc::into_inner(router).expect("gateway released its router handle");
    router.shutdown();

    latencies.sort_unstable();
    Pass {
        connections,
        qps: total as f64 / elapsed,
        p50_ms: percentile(&latencies, 0.50).as_secs_f64() * 1e3,
        p95_ms: percentile(&latencies, 0.95).as_secs_f64() * 1e3,
        total,
    }
}

fn main() {
    let mut t = TextTable::new("Gateway closed-loop loopback load (fixed 2ms backend)").headers(
        &["Connections", "Requests", "qps", "p50 ms", "p95 ms"],
    );
    let mut records = Vec::new();
    for connections in [1usize, 8, 32] {
        // Best-of-three, same reasoning as the shards bench: wall-clock
        // throughput of sleep-cost work is scheduler-noise sensitive.
        let pass = (0..3)
            .map(|_| run_pass(connections))
            .max_by(|a, b| a.qps.total_cmp(&b.qps))
            .expect("three passes ran");
        t.row(vec![
            pass.connections.to_string(),
            pass.total.to_string(),
            format!("{:.0}", pass.qps),
            format!("{:.2}", pass.p50_ms),
            format!("{:.2}", pass.p95_ms),
        ]);
        for (metric, value) in
            [("qps", pass.qps), ("p50_ms", pass.p50_ms), ("p95_ms", pass.p95_ms)]
        {
            records.push(workbench::record(
                "gateway",
                &format!("gateway {} connection(s)", pass.connections),
                "synthetic-fixed-cost",
                metric,
                value,
                pass.total,
            ));
        }
    }
    println!("{}", t.render());
    println!("expected shape: qps grows with connections until the {WORKERS} backend workers");
    println!("saturate (~{:.0} qps ceiling); p50 stays near the 2ms compute cost plus", WORKERS as f64 / COST.as_secs_f64());
    println!("sub-millisecond gateway overhead until the pool queues.");
    workbench::save_records("gateway", &records);
}
