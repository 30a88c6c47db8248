//! Multi-shard chaos storm: 30 seeded runs over a 3-shard router — one
//! shard panicking, one wedging, one healthy — under 9:1 skewed
//! two-tenant traffic. Every run must drain fully, hang nothing, and keep
//! the cold tenant's p95 bounded: a misbehaving shard must not starve
//! the others.

mod common;

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use codes_router::{Router, RouterConfig, ShardSpec, TenantConfig};
use codes::Error;
use codes_serve::{FaultPlan, FaultyBackend, InferenceRequest, Ticket};
use common::{chaos_serve_config, p95, shard_spec, silence_injected_panics, EpochBackend};

const SHARDS: usize = 3;
const STORM: usize = 60;
const WATCHDOG: Duration = Duration::from_secs(20);

/// Per-shard fault plans derived from the run seed: shard 0 panics,
/// shard 1 wedges, shard 2 stays healthy.
fn storm_router(
    seed: u64,
    epoch: &Arc<AtomicU64>,
) -> (Router, Arc<codes_obs::Registry>) {
    let registry = Arc::new(codes_obs::Registry::new());
    let specs: Vec<ShardSpec> = (0..SHARDS)
        .map(|shard| {
            let backend = EpochBackend::new(Arc::clone(epoch), Duration::from_millis(1));
            let plan = match shard {
                0 => FaultPlan {
                    seed: seed ^ 0xA0,
                    panic_prob: 0.25,
                    stall_prob: 0.0,
                    stall: Duration::ZERO,
                    budget_prob: 0.05,
                },
                1 => FaultPlan {
                    seed: seed ^ 0xB1,
                    panic_prob: 0.0,
                    stall_prob: 0.20,
                    stall: Duration::from_millis(250),
                    budget_prob: 0.0,
                },
                _ => FaultPlan::quiet(seed ^ 0xC2),
            };
            shard_spec(
                Arc::new(FaultyBackend::new(backend, plan)),
                chaos_serve_config(),
                true,
                &registry,
            )
        })
        .collect();
    let config = RouterConfig {
        tenants: vec![TenantConfig::new("hot", 1), TenantConfig::new("cold", 1)],
        tenant_queue_capacity: 128,
    };
    let router = Router::start_with_registry(specs, config, Arc::clone(&registry));
    (router, registry)
}

struct StormStats {
    admitted: usize,
    hung: usize,
    cold_latencies: Vec<f64>,
}

/// One seeded storm across all shards. Returns per-run stats; reports
/// (with a health dump) every hang.
fn run_storm(seed: u64) -> StormStats {
    let epoch = Arc::new(AtomicU64::new(0));
    let (router, _registry) = storm_router(seed, &epoch);
    let dbs: Vec<String> = (0..10).map(|i| format!("db{i}")).collect();
    let mut stats = StormStats { admitted: 0, hung: 0, cold_latencies: Vec::new() };

    let mut outstanding: Vec<(Ticket, &'static str, Instant)> = Vec::new();
    for n in 0..STORM {
        // 9:1 skew; a small question pool per db makes T3 hits real.
        let tenant = if n % 10 == 9 { "cold" } else { "hot" };
        let db = &dbs[n % dbs.len()];
        let request = InferenceRequest::new(db, format!("q{}", n % 3));
        match router.submit_as(tenant, request) {
            Ok(ticket) => {
                stats.admitted += 1;
                outstanding.push((ticket, tenant, Instant::now()));
            }
            Err(
                Error::Overloaded { .. } | Error::CircuitOpen { .. },
            ) => {}
            Err(other) => panic!("seed {seed:#x}: unexpected admission error {other}"),
        }
    }
    for (ticket, tenant, submitted) in outstanding {
        match ticket.wait_timeout(WATCHDOG) {
            None => {
                stats.hung += 1;
                eprintln!("seed {seed:#x}: ticket hung; router health: {:#?}", router.health());
            }
            Some(_outcome) => {
                if tenant == "cold" {
                    stats.cold_latencies.push(submitted.elapsed().as_secs_f64());
                }
            }
        }
    }

    let health = router.health();
    assert_eq!(health.router_depth, 0, "seed {seed:#x}: router queues not drained");
    let final_health = router.shutdown();
    for shard in &final_health.shards {
        assert_eq!(
            shard.pool.queue_depth, 0,
            "seed {seed:#x}: shard {} queue not drained",
            shard.index
        );
        assert_eq!(
            shard.pool.in_flight, 0,
            "seed {seed:#x}: shard {} left work in flight",
            shard.index
        );
        assert_eq!(shard.router_depth, 0);
    }
    stats
}

/// The acceptance gate: 30/30 seeded storms with full drain, zero hangs,
/// exactly-once resolution, and the cold tenant's p95 within 2x of an unskewed fault-free baseline (with an
/// absolute floor absorbing wedge-recovery noise).
#[test]
fn thirty_seeded_multi_shard_storms_drain_clean() {
    silence_injected_panics();

    // Unskewed, fault-free baseline for the cold-latency bound: the same
    // topology and traffic with quiet fault plans.
    let baseline = {
        let epoch = Arc::new(AtomicU64::new(0));
        let registry = Arc::new(codes_obs::Registry::new());
        let specs = (0..SHARDS)
            .map(|_| {
                shard_spec(
                    Arc::new(EpochBackend::new(Arc::clone(&epoch), Duration::from_millis(1))),
                    chaos_serve_config(),
                    true,
                    &registry,
                )
            })
            .collect();
        let router =
            Router::start_with_registry(specs, RouterConfig::default(), registry);
        let mut latencies = Vec::new();
        for n in 0..STORM {
            let started = Instant::now();
            let ticket = router
                .submit(InferenceRequest::new(format!("db{}", n % 10), format!("q{}", n % 3)))
                .expect("baseline admission");
            ticket.wait_timeout(WATCHDOG).expect("baseline resolves").expect("baseline succeeds");
            latencies.push(started.elapsed().as_secs_f64());
        }
        router.shutdown();
        p95(&mut latencies)
    };
    // Wedge recovery alone costs ~wedged_after + respawn; the floor keeps
    // scheduler noise from failing a healthy run, while still catching
    // starvation (a starved cold tenant queues for multi-second spans).
    let cold_bound = (2.0 * baseline).max(1.5);

    let mut total_admitted = 0usize;
    for run in 0..30u64 {
        let seed = 0x5707_0000 + run;
        let stats = run_storm(seed);
        assert_eq!(stats.hung, 0, "seed {seed:#x}: {} tickets hung", stats.hung);
        assert!(
            stats.admitted > STORM / 2,
            "seed {seed:#x}: shedding ate the storm ({} admitted)",
            stats.admitted
        );
        let cold_p95 = p95(&mut stats.cold_latencies.clone());
        assert!(
            cold_p95 <= cold_bound,
            "seed {seed:#x}: cold-tenant p95 {cold_p95:.3}s exceeds bound {cold_bound:.3}s \
             (baseline {baseline:.3}s)"
        );
        total_admitted += stats.admitted;
    }
    assert!(total_admitted >= 30 * STORM / 2);
}
