//! One span per stage per member. The only test in this binary, so the
//! process-global span registry sees this test's inferences and nothing
//! else and the per-stage sample counts are exact.

use std::collections::BTreeMap;
use std::sync::Arc;

use codes::{
    pretrain, table4_models, CodesModel, CodesSystem, InferenceRequest, PretrainConfig,
    PromptOptions, SketchCatalog,
};
use codes_obs::{PIPELINE_STAGES, STAGE_HISTOGRAM};

fn stage_counts() -> BTreeMap<String, u64> {
    codes_obs::global()
        .histograms_by_label(STAGE_HISTOGRAM, "stage")
        .into_iter()
        .map(|(stage, snapshot)| (stage, snapshot.count))
        .collect()
}

fn expect_each_stage(n: u64) -> BTreeMap<String, u64> {
    PIPELINE_STAGES.iter().map(|stage| (stage.to_string(), n)).collect()
}

#[test]
fn every_member_records_each_stage_exactly_once() {
    let mut cfg = codes_datasets::BenchmarkConfig::spider(51);
    cfg.train_samples_per_db = 10;
    cfg.dev_samples_per_db = 4;
    let bench = codes_datasets::build_benchmark("spans", &cfg);
    let catalog = Arc::new(SketchCatalog::build());
    let spec = table4_models().into_iter().find(|m| m.name == "CodeS-1B").unwrap();
    let lm = pretrain(&catalog, &spec, &PretrainConfig { scale: 10, seed: 3 });
    let sys = CodesSystem::new(CodesModel::new(lm, catalog), PromptOptions::sft());
    let db = bench.database(&bench.dev[0].db_id).unwrap();
    let requests: Vec<InferenceRequest> = bench
        .dev
        .iter()
        .filter(|s| s.db_id == db.name)
        .take(3)
        .map(|s| InferenceRequest::new(&s.db_id, &s.question))
        .collect();
    assert_eq!(requests.len(), 3);

    // A batch of one over an unprepared database: the lazy index build is
    // value retrieval — inside the member's one span, not beside it.
    let alone = sys.infer(db, &requests[0]);
    let lazily = alone.degradations.iter().any(|d| d.contains("built lazily"));
    assert!(lazily, "{:?}", alone.degradations);
    assert_eq!(stage_counts(), expect_each_stage(1));
    for (stage, seconds) in alone.stages.entries() {
        assert!(seconds > 0.0, "stage {stage} reported zero seconds");
    }
    assert!(alone.stages.total() <= alone.latency_seconds);

    // N members, N samples per stage — the shared index resolution rides
    // inside the first member's span, not in one of its own.
    let batched = sys.infer_batch(db, &requests);
    assert_eq!(batched.len(), 3);
    assert_eq!(stage_counts(), expect_each_stage(4));
    for out in &batched {
        assert!(out.stages.total() <= out.latency_seconds);
    }
}
