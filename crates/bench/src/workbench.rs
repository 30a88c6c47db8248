//! Shared infrastructure for the experiment binaries: benchmark caches,
//! model pre-training caches, system builders, result recording, and a
//! percentile helper.
//!
//! Scale is controlled by the `CODES_SCALE` environment variable
//! (1 = smoke-test, 2 = default, 4 = large) and the per-run evaluation cap
//! `CODES_EVAL_LIMIT`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use codes::{
    pretrain, pretrain_with_capacity, table4_models, Capacity, CodesModel, CodesSystem,
    CorpusLineage, FewShot, LmSpec, ModelSize, PretrainConfig, PretrainedLm, PromptOptions,
    SketchCatalog,
};
use codes_datasets::{Benchmark, BenchmarkConfig, Sample};
use codes_eval::{evaluate, EvalConfig, EvalOutcome, ExperimentRecord};
use codes_linker::SchemaClassifier;
use codes_retrieval::{DemoRetriever, DemoStrategy, ValueIndex};
use sqlengine::Database;

/// Experiment scale multiplier.
pub fn scale() -> usize {
    std::env::var("CODES_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2usize)
        .clamp(1, 8)
}

/// Optional cap on evaluated samples per run.
pub fn eval_limit() -> Option<usize> {
    std::env::var("CODES_EVAL_LIMIT").ok().and_then(|v| v.parse().ok())
}

/// The sketch catalog, built once per process.
pub fn catalog() -> Arc<SketchCatalog> {
    static CATALOG: OnceLock<Arc<SketchCatalog>> = OnceLock::new();
    Arc::clone(CATALOG.get_or_init(|| Arc::new(SketchCatalog::build())))
}

/// The Spider-like benchmark at the current scale.
pub fn spider() -> &'static Benchmark {
    static B: OnceLock<Benchmark> = OnceLock::new();
    B.get_or_init(|| {
        let s = scale();
        let mut cfg = BenchmarkConfig::spider(0x5B1D);
        cfg.instances_per_domain = s.div_ceil(2);
        cfg.train_samples_per_db = 30 * s;
        cfg.dev_samples_per_db = 15 * s;
        codes_datasets::build_benchmark("spider", &cfg)
    })
}

/// The BIRD-like benchmark at the current scale (dev split; see
/// [`bird_test`] for the "hidden test" split).
pub fn bird() -> &'static Benchmark {
    static B: OnceLock<Benchmark> = OnceLock::new();
    B.get_or_init(|| {
        let s = scale();
        let mut cfg = BenchmarkConfig::bird(0xB12D);
        cfg.instances_per_domain = s.div_ceil(2);
        cfg.train_samples_per_db = 30 * s;
        cfg.dev_samples_per_db = 15 * s;
        codes_datasets::build_benchmark("bird", &cfg)
    })
}

/// BIRD's hidden test split: same training databases, but dev questions
/// regenerated from a different seed over fresh held-out databases.
pub fn bird_test() -> &'static Benchmark {
    static B: OnceLock<Benchmark> = OnceLock::new();
    B.get_or_init(|| {
        let s = scale();
        let mut cfg = BenchmarkConfig::bird(0x7E57);
        cfg.instances_per_domain = s.div_ceil(2);
        cfg.train_samples_per_db = 4; // unused
        cfg.dev_samples_per_db = 15 * s;
        codes_datasets::build_benchmark("bird", &cfg)
    })
}

/// Pre-train (with caching) one of the Table 4 models by name.
pub fn pretrained(name: &str) -> Arc<PretrainedLm> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<PretrainedLm>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(found) = cache.lock().unwrap().get(name) {
        return Arc::clone(found);
    }
    let spec = table4_models()
        .into_iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unknown model {name}"));
    let lm = Arc::new(pretrain(&catalog(), &spec, &pretrain_config()));
    cache.lock().unwrap().insert(name.to_string(), Arc::clone(&lm));
    lm
}

fn pretrain_config() -> PretrainConfig {
    PretrainConfig { scale: 12 * scale(), seed: 0xC0DE5 }
}

/// Simulated closed-source frontier models used as prompting baselines:
/// larger capacity than the 15B tier, general (non-SQL-centric) corpora.
pub fn frontier(name: &'static str) -> Arc<PretrainedLm> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<PretrainedLm>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(found) = cache.lock().unwrap().get(name) {
        return Arc::clone(found);
    }
    let (noise, sketch_capacity, levels) = match name {
        // GPT-4-sim: very strong reasoning, broad but not SQL-centric corpus.
        "GPT-4 (sim)" => (0.03, 40, 40),
        // ChatGPT / GPT-3.5-sim.
        "GPT-3.5 (sim)" => (0.06, 34, 28),
        other => panic!("unknown frontier model {other}"),
    };
    let capacity = Capacity {
        ngram_order: 5,
        bpe_vocab: 2_000,
        embed_dim: 768,
        beam_width: 4,
        sketch_capacity,
        similarity_levels: levels,
        decision_noise: noise,
    };
    let spec = LmSpec { name: "frontier", size: ModelSize::B15, lineage: CorpusLineage::StarCoderPlus };
    let lm = Arc::new(pretrain_with_capacity(&catalog(), &spec, capacity, &pretrain_config()));
    cache.lock().unwrap().insert(name.to_string(), Arc::clone(&lm));
    lm
}

/// Pre-built value indexes for a benchmark's databases (cached).
pub fn value_indexes(benchmark: &Benchmark) -> HashMap<String, Arc<ValueIndex>> {
    type IndexMap = HashMap<String, Arc<ValueIndex>>;
    static CACHE: OnceLock<Mutex<HashMap<String, IndexMap>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(found) = cache.lock().unwrap().get(&benchmark.name) {
        return found.clone();
    }
    let built: HashMap<String, Arc<ValueIndex>> = benchmark
        .databases
        .iter()
        .map(|db| (db.name.clone(), Arc::new(ValueIndex::build(db))))
        .collect();
    cache.lock().unwrap().insert(benchmark.name.clone(), built.clone());
    built
}

/// Shared demonstration pool + retriever per (model, benchmark) pair.
pub fn demo_retriever(
    lm: &Arc<PretrainedLm>,
    benchmark: &Benchmark,
) -> (Arc<Vec<Sample>>, Arc<DemoRetriever>) {
    static CACHE: OnceLock<Mutex<HashMap<String, (Arc<Vec<Sample>>, Arc<DemoRetriever>)>>> =
        OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = format!("{}|{}", lm.name, benchmark.name);
    if let Some(found) = cache.lock().unwrap().get(&key) {
        return found.clone();
    }
    let pool = Arc::new(benchmark.train.clone());
    let questions: Vec<String> = pool.iter().map(|s| s.question.clone()).collect();
    let retriever = Arc::new(DemoRetriever::new(lm.embedder.clone(), &questions));
    cache.lock().unwrap().insert(key, (Arc::clone(&pool), Arc::clone(&retriever)));
    (pool, retriever)
}

/// Train (with caching) the schema-item classifier for a benchmark.
pub fn classifier(benchmark: &Benchmark, use_ek: bool) -> SchemaClassifier {
    static CACHE: OnceLock<Mutex<HashMap<String, SchemaClassifier>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = format!("{}|{}", benchmark.name, use_ek);
    if let Some(found) = cache.lock().unwrap().get(&key) {
        return found.clone();
    }
    let clf = SchemaClassifier::train(benchmark, use_ek, 0xC1A5);
    cache.lock().unwrap().insert(key, clf.clone());
    clf
}

/// Build a supervised fine-tuned system for `model_name` on `benchmark`,
/// shared so the serving benches can put it behind a pool.
pub fn sft_system(model_name: &str, benchmark: &Benchmark, use_ek: bool) -> Arc<CodesSystem> {
    let model = CodesModel::new(pretrained(model_name), catalog());
    let sys = CodesSystem::new(model, PromptOptions::sft())
        .with_classifier(classifier(benchmark, use_ek))
        .finetune_on(benchmark);
    sys.install_value_indexes(&value_indexes(benchmark));
    Arc::new(sys)
}

/// Build a few-shot in-context-learning system (no fine-tuning).
pub fn icl_system(
    lm: Arc<PretrainedLm>,
    benchmark: &Benchmark,
    k: usize,
    strategy: DemoStrategy,
    options: PromptOptions,
    use_ek: bool,
) -> Arc<CodesSystem> {
    let (pool, retriever) = demo_retriever(&lm, benchmark);
    let model = CodesModel::new(lm, catalog());
    let sys = CodesSystem::new(model, options)
        .with_classifier(classifier(benchmark, use_ek))
        .with_shared_demonstrations(pool, retriever, FewShot { k, strategy });
    sys.install_value_indexes(&value_indexes(benchmark));
    Arc::new(sys)
}

/// Evaluate a system on arbitrary samples/databases with the scale-aware
/// default configuration.
pub fn run_eval(
    system: &Arc<CodesSystem>,
    samples: &[Sample],
    dbs: &[Database],
    ts: bool,
) -> EvalOutcome {
    let cfg = EvalConfig {
        compute_ts: ts,
        ts_variants: 3,
        compute_ves: true,
        compute_he: false,
        limit: eval_limit(),
        ..Default::default()
    };
    evaluate(system, samples, dbs, &cfg).0
}

/// Persist experiment records under `results/`.
pub fn save_records(experiment: &str, records: &[ExperimentRecord]) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{experiment}.json"));
    let _ = std::fs::write(path, codes_eval::records_to_json(records));
}

/// Convenience constructor for an [`ExperimentRecord`].
pub fn record(experiment: &str, system: &str, dataset: &str, metric: &str, value: f64, n: usize) -> ExperimentRecord {
    ExperimentRecord {
        experiment: experiment.to_string(),
        system: system.to_string(),
        dataset: dataset.to_string(),
        metric: metric.to_string(),
        value,
        n,
    }
}

/// Nearest-rank percentile of an ascending sample set; `q` in [0, 1]. An
/// empty set reads as the type's zero.
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_defaults() {
        // (env not set in tests) default is 2
        assert!(scale() >= 1);
    }

    #[test]
    fn frontier_models_are_stronger_than_llama_sim() {
        let gpt4 = frontier("GPT-4 (sim)");
        assert!(gpt4.capacity.decision_noise < ModelSize::B15.capacity().decision_noise);
        assert!(!gpt4.sketches.is_empty());
    }
}
