//! Result-cache benchmark: cold vs warm latency and the hit rate of the
//! full-result cache (T3).
//!
//! Two passes over the same dev questions:
//!
//! 1. **cold / pool** — every lookup misses; clean results are admitted.
//! 2. **warm / pool** — `Pool::submit` resolves at admission from T3,
//!    skipping the queue and the workers entirely.

use std::sync::Arc;
use std::time::Instant;

use codes::{CacheSettings, InferenceRequest, SystemCache};
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
    let warm_pool = pool_pass("warm / pool (T3)", &pool, &work);

    let mut t = TextTable::new("Result cache: cold vs warm")
        .headers(&["Pass", "p50 (ms)", "p95 (ms)", "mean (ms)", "speedup vs cold"]);
    let cold_mean = cold.mean();
    let mut records = Vec::new();
    for pass in [&cold, &warm_pool] {
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
    let tier = &stats.full;
    let hit_rate = tier.hits as f64 / (tier.hits + tier.misses).max(1) as f64;
    let mut counters = TextTable::new("Counters")
        .headers(&["Tier", "Hits", "Misses", "Hit rate", "Entries", "Evictions"]);
    counters.row(vec![
        "T3 full_result".to_string(),
        tier.hits.to_string(),
        tier.misses.to_string(),
        format!("{:.1}%", hit_rate * 100.0),
        tier.entries.to_string(),
        tier.evictions.to_string(),
    ]);
    records.push(workbench::record(
        "cache",
        "SFT CodeS-7B",
        "spider",
        "T3 full_result hit_rate",
        hit_rate * 100.0,
        n,
    ));
    println!("{}", counters.render());
    println!(
        "served_from_cache: {} of {} submissions (invalidations: {})",
        health.stats.served_from_cache,
        2 * n,
        stats.invalidations
    );

    assert!(tier.hits > 0, "the warm pool pass must hit T3: {stats:?}");
    println!("expected shape: the warm pool pass skips schema filtering, value retrieval and");
    println!("generation outright (T3 hit at admission), so its p50 sits far below the cold pass.");
    workbench::save_records("cache", &records);
}
