//! Benchmark assembly: Spider-like and BIRD-like train/dev splits.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sqlengine::Database;

use crate::parallel::{build_threads, map_in_order};
use crate::sample::Sample;
use crate::synth::{domains, generate_database, DbGenConfig};
use crate::templates::generate_samples;

/// A text-to-SQL benchmark: databases plus train/dev samples.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Benchmark name (`spider`, `bird`, ...).
    pub name: String,
    /// All databases, train and dev.
    pub databases: Vec<Database>,
    /// Training samples.
    pub train: Vec<Sample>,
    /// Held-out dev samples (cross-domain).
    pub dev: Vec<Sample>,
}

impl Benchmark {
    /// Look up a database by id.
    pub fn database(&self, db_id: &str) -> Option<&Database> {
        self.databases.iter().find(|d| d.name == db_id)
    }
}

/// Scale knobs for benchmark construction. Defaults produce a benchmark
/// that runs the full evaluation suite in seconds; the bench harness scales
/// them up.
#[derive(Debug, Clone)]
pub struct BenchmarkConfig {
    /// Database instances per domain (cross-domain coverage = domains × this).
    pub instances_per_domain: usize,
    /// Samples generated per training database.
    pub train_samples_per_db: usize,
    /// Samples generated per dev database.
    pub dev_samples_per_db: usize,
    /// Fraction of domains held out for the dev split (Spider is
    /// cross-domain: dev databases are unseen in training).
    pub dev_domain_fraction: f64,
    /// Generation seed.
    pub seed: u64,
    /// BIRD mode: ambiguous schemas, dirty values, external knowledge.
    pub bird: bool,
}

impl BenchmarkConfig {
    /// Spider-like defaults (clean schemas, small databases).
    pub fn spider(seed: u64) -> BenchmarkConfig {
        BenchmarkConfig {
            instances_per_domain: 1,
            train_samples_per_db: 40,
            dev_samples_per_db: 10,
            dev_domain_fraction: 0.25,
            seed,
            bird: false,
        }
    }

    /// BIRD-like defaults (ambiguous wide schemas, dirty values, EK).
    pub fn bird(seed: u64) -> BenchmarkConfig {
        BenchmarkConfig {
            instances_per_domain: 1,
            train_samples_per_db: 40,
            dev_samples_per_db: 10,
            dev_domain_fraction: 0.25,
            seed,
            bird: true,
        }
    }
}

/// Build a benchmark according to the config. Dev databases come from
/// held-out domains, so evaluation is cross-domain like Spider/BIRD.
pub fn build_benchmark(name: &str, cfg: &BenchmarkConfig) -> Benchmark {
    let specs = domains();
    let n_dev_domains = ((specs.len() as f64 * cfg.dev_domain_fraction).round() as usize)
        .clamp(1, specs.len().saturating_sub(1));
    // Deterministic domain split: last `n_dev_domains` domains are dev.
    let split = specs.len() - n_dev_domains;
    let db_cfg = if cfg.bird { DbGenConfig::bird() } else { DbGenConfig::spider() };

    // Databases are built here, in domain order, so revision tokens are
    // handed out in that order; each one's samples come from its own RNG.
    let mut databases = Vec::new();
    let mut seeds = Vec::new();
    for (di, spec) in specs.iter().enumerate() {
        for inst in 0..cfg.instances_per_domain {
            let db_seed = cfg.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((di * 131 + inst) as u64);
            let mut db = generate_database(spec, &db_cfg, db_seed);
            if cfg.instances_per_domain > 1 {
                db.name = format!("{}_{}", spec.name, inst);
            }
            databases.push(db);
            seeds.push((db_seed, di >= split));
        }
    }
    let jobs: Vec<(&Database, &(u64, bool))> = databases.iter().zip(&seeds).collect();
    let generated = map_in_order(&jobs, build_threads(), |&(db, &(db_seed, is_dev))| {
        let n = if is_dev { cfg.dev_samples_per_db } else { cfg.train_samples_per_db };
        generate_samples(db, n, &mut StdRng::seed_from_u64(db_seed ^ 0xABCD), cfg.bird)
    });
    let mut train = Vec::new();
    let mut dev = Vec::new();
    for ((db, &(_, is_dev)), mut samples) in jobs.into_iter().zip(generated) {
        for s in &mut samples {
            s.db_id = db.name.clone();
        }
        if is_dev {
            dev.extend(samples);
        } else {
            train.extend(samples);
        }
    }
    Benchmark { name: name.to_string(), databases, train, dev }
}

/// Convenience: the default Spider-like benchmark.
pub fn spider_benchmark(seed: u64) -> Benchmark {
    build_benchmark("spider", &BenchmarkConfig::spider(seed))
}

/// Convenience: the default BIRD-like benchmark.
pub fn bird_benchmark(seed: u64) -> Benchmark {
    build_benchmark("bird", &BenchmarkConfig::bird(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spider_split_is_cross_domain() {
        let b = spider_benchmark(1);
        let train_dbs: std::collections::HashSet<_> = b.train.iter().map(|s| &s.db_id).collect();
        let dev_dbs: std::collections::HashSet<_> = b.dev.iter().map(|s| &s.db_id).collect();
        assert!(!train_dbs.is_empty() && !dev_dbs.is_empty());
        assert!(train_dbs.is_disjoint(&dev_dbs), "dev databases must be unseen");
    }

    #[test]
    fn every_sample_resolves_to_a_database() {
        let b = spider_benchmark(2);
        for s in b.train.iter().chain(&b.dev) {
            let db = b.database(&s.db_id).expect("db exists");
            assert!(sqlengine::execute_query(db, &s.sql).is_ok(), "gold fails: {}", s.sql);
        }
    }

    #[test]
    fn bird_has_knowledge_and_dirty_schemas() {
        let b = bird_benchmark(3);
        assert!(b.train.iter().chain(&b.dev).any(|s| s.external_knowledge.is_some()));
        // At least one database has a commented column.
        assert!(b
            .databases
            .iter()
            .any(|db| db.tables.iter().any(|t| t.schema.columns.iter().any(|c| c.comment.is_some()))));
    }

    #[test]
    fn deterministic_by_seed() {
        let a = spider_benchmark(9);
        let b = spider_benchmark(9);
        assert_eq!(a.train.len(), b.train.len());
        assert_eq!(a.train[0].sql, b.train[0].sql);
        let c = spider_benchmark(10);
        assert!(a.train[0].sql != c.train[0].sql || a.train[0].question != c.train[0].question);
    }

    #[test]
    fn bird_databases_are_larger_than_spider() {
        let s = spider_benchmark(4);
        let b = bird_benchmark(4);
        let avg = |bm: &Benchmark| {
            bm.databases.iter().map(|d| d.value_count()).sum::<usize>() as f64 / bm.databases.len() as f64
        };
        assert!(avg(&b) > avg(&s) * 2.0);
    }

    #[test]
    fn instances_per_domain_multiplies_databases() {
        let mut cfg = BenchmarkConfig::spider(5);
        cfg.instances_per_domain = 2;
        cfg.train_samples_per_db = 5;
        cfg.dev_samples_per_db = 2;
        let b = build_benchmark("spider2", &cfg);
        assert_eq!(b.databases.len(), domains().len() * 2);
        // Suffixed names are unique.
        let names: std::collections::HashSet<_> = b.databases.iter().map(|d| &d.name).collect();
        assert_eq!(names.len(), b.databases.len());
    }
}
