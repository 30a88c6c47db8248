//! Cache-tier benchmark: cold vs warm latency and per-tier hit rates for
//! the three-tier result cache (T1 schema filter, T2 value retrieval,
//! T3 full results).
//!
//! Three passes over the same dev questions:
//!
//! 1. **cold / pool** — every tier misses; clean results are admitted.
//! 2. **warm / direct** — `CodesSystem::infer` bypasses the pool, so T3 is
//!    never consulted and the speedup comes from T1/T2 alone.
//! 3. **warm / pool** — `Pool::submit` resolves at admission from T3,
//!    skipping the queue and the workers entirely.

use std::sync::Arc;
use std::time::Instant;

use codes::{CacheSettings, CodesSystem, InferenceRequest, SystemCache};
use codes_bench::workbench::{self, percentile};
use codes_eval::TextTable;
use codes_serve::{Pool, ServeConfig, SystemBackend};

struct Pass {
    label: &'static str,
    latencies: Vec<f64>,
}

impl Pass {
    fn sorted(&self) -> Vec<f64> {
        let mut v = self.latencies.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    fn mean(&self) -> f64 {
        self.latencies.iter().sum::<f64>() / self.latencies.len().max(1) as f64
    }
}

fn pool_pass(label: &'static str, pool: &Pool, work: &[(String, String)]) -> Pass {
    let latencies = work
        .iter()
        .map(|(db_id, question)| {
            let started = Instant::now();
            let ticket =
                pool.submit(InferenceRequest::new(db_id, question)).expect("queue has headroom");
            ticket.wait().expect("benchmark inference succeeds");
            started.elapsed().as_secs_f64()
        })
        .collect();
    Pass { label, latencies }
}

fn direct_pass(label: &'static str, sys: &CodesSystem, work: &[(String, String)]) -> Pass {
    let spider = workbench::spider();
    let latencies = work
        .iter()
        .map(|(db_id, question)| {
            let db = spider.database(db_id).expect("benchmark database exists");
            let started = Instant::now();
            let _ = sys.infer(db, &InferenceRequest::new(db_id, question));
            started.elapsed().as_secs_f64()
        })
        .collect();
    Pass { label, latencies }
}

fn main() {
    let spider = workbench::spider();
    let cache = Arc::new(SystemCache::with_registry(
        &codes_obs::global(),
        CacheSettings::default(),
    ));
    // The workbench hands systems back shared; this bin attaches its own
    // cache first, and the freshly built Arc is still uniquely owned.
    let sys = Arc::try_unwrap(workbench::sft_system("CodeS-7B", spider, false))
        .unwrap_or_else(|_| panic!("freshly built system is uniquely owned"))
        .with_cache(Arc::clone(&cache));
    let sys = Arc::new(sys);

    let n = spider.dev.len().min(workbench::eval_limit().unwrap_or(100));
    let work: Vec<(String, String)> =
        spider.dev.iter().take(n).map(|s| (s.db_id.clone(), s.question.clone())).collect();

    let mut config = ServeConfig::default();
    config.queue_capacity = 256;
    config.cache = Some(Arc::clone(&cache));
    let backend = SystemBackend::new(Arc::clone(&sys), spider.databases.clone());
    let pool = Pool::start(backend, config);

    let cold = pool_pass("cold / pool", &pool, &work);
    let warm_direct = direct_pass("warm / direct (T1+T2)", &sys, &work);
    let warm_pool = pool_pass("warm / pool (T3)", &pool, &work);

    let mut t = TextTable::new("Cache tiers: cold vs warm")
        .headers(&["Pass", "p50 (ms)", "p95 (ms)", "mean (ms)", "speedup vs cold"]);
    let cold_mean = cold.mean();
    let mut records = Vec::new();
    for pass in [&cold, &warm_direct, &warm_pool] {
        let sorted = pass.sorted();
        let mean = pass.mean();
        t.row(vec![
            pass.label.to_string(),
            format!("{:.3}", percentile(&sorted, 0.50) * 1000.0),
            format!("{:.3}", percentile(&sorted, 0.95) * 1000.0),
            format!("{:.3}", mean * 1000.0),
            format!("{:.1}x", cold_mean / mean.max(1e-9)),
        ]);
        records.push(workbench::record(
            "cache",
            "SFT CodeS-7B",
            "spider",
            &format!("{} mean_ms", pass.label),
            mean * 1000.0,
            n,
        ));
    }
    println!("{}", t.render());

    let health = pool.shutdown();
    let stats = health.cache.expect("pool has the cache attached");
    let mut tiers = TextTable::new("Per-tier counters")
        .headers(&["Tier", "Hits", "Misses", "Hit rate", "Entries", "Evictions"]);
    for (name, tier) in [
        ("T1 schema_filter", &stats.schema),
        ("T2 value_retrieval", &stats.values),
        ("T3 full_result", &stats.full),
    ] {
        tiers.row(vec![
            name.to_string(),
            tier.hits.to_string(),
            tier.misses.to_string(),
            format!("{:.1}%", tier.hit_rate() * 100.0),
            tier.entries.to_string(),
            tier.evictions.to_string(),
        ]);
        records.push(workbench::record(
            "cache",
            "SFT CodeS-7B",
            "spider",
            &format!("{name} hit_rate"),
            tier.hit_rate() * 100.0,
            n,
        ));
    }
    println!("{}", tiers.render());
    println!(
        "served_from_cache: {} of {} warm pool submissions (invalidations: {})",
        health.stats.served_from_cache, n, stats.invalidations
    );

    assert!(stats.schema.hits > 0, "warm passes must hit T1: {stats:?}");
    assert!(stats.values.hits > 0, "warm passes must hit T2: {stats:?}");
    assert!(stats.full.hits > 0, "the warm pool pass must hit T3: {stats:?}");
    println!("expected shape: the warm pool pass skips schema filtering, value retrieval and");
    println!("generation outright (T3 hit at admission), so its p50 sits far below the cold");
    println!("pass; the warm direct pass keeps generation but reuses T1/T2 stage outputs.");
    workbench::save_records("cache", &records);
}
