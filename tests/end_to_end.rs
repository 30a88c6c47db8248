//! Cross-crate integration: the full pipeline from corpus to evaluated SQL.

use std::sync::Arc;

use codes::{
    pretrain, table4_models, CodesModel, CodesSystem, FewShot, InferenceRequest, PretrainConfig,
    PromptOptions, SketchCatalog,
};
use codes_datasets::{Benchmark, BenchmarkConfig};
use codes_eval::{evaluate, EvalConfig};
use codes_linker::{LogReg, SchemaClassifier};
use codes_retrieval::DemoStrategy;

fn mini_bench(seed: u64, bird: bool) -> Benchmark {
    let mut cfg = if bird { BenchmarkConfig::bird(seed) } else { BenchmarkConfig::spider(seed) };
    cfg.train_samples_per_db = 14;
    cfg.dev_samples_per_db = 5;
    codes_datasets::build_benchmark(if bird { "bird-mini" } else { "spider-mini" }, &cfg)
}

fn lm(name: &str, catalog: &Arc<SketchCatalog>) -> Arc<codes::PretrainedLm> {
    let spec = table4_models().into_iter().find(|m| m.name == name).unwrap();
    Arc::new(pretrain(catalog, &spec, &PretrainConfig { scale: 10, seed: 5 }))
}

#[test]
fn sft_pipeline_reaches_reasonable_accuracy() {
    let bench = mini_bench(101, false);
    let catalog = Arc::new(SketchCatalog::build());
    let sys = CodesSystem::new(CodesModel::new(lm("CodeS-7B", &catalog), catalog.clone()), PromptOptions::sft())
        .with_classifier(SchemaClassifier::train(&bench, false, 1))
        .finetune_on(&bench);
    sys.prepare_databases(bench.databases.iter());
    let sys = Arc::new(sys);
    let cfg = EvalConfig { limit: Some(40), ts_variants: 2, ..Default::default() };
    let (out, results) = evaluate(&sys, &bench.dev, &bench.databases, &cfg);
    assert!(out.ex > 0.6, "SFT CodeS-7B EX too low: {:.2}", out.ex);
    assert!(out.ts <= out.ex + 1e-12);
    // VES of correct predictions must be positive; wrong ones zero.
    for r in &results {
        if r.ex {
            assert!(r.ves > 0.0);
        } else {
            assert_eq!(r.ves, 0.0);
        }
    }
}

#[test]
fn icl_pipeline_runs_without_finetuning() {
    let bench = mini_bench(102, false);
    let catalog = Arc::new(SketchCatalog::build());
    let sys = CodesSystem::new(
        CodesModel::new(lm("CodeS-7B", &catalog), catalog.clone()),
        PromptOptions::few_shot(),
    )
    .with_classifier(SchemaClassifier::train(&bench, false, 1))
    .with_demonstrations(bench.train.clone(), FewShot { k: 3, strategy: DemoStrategy::PatternAware });
    sys.prepare_databases(bench.databases.iter());
    let sys = Arc::new(sys);
    let cfg = EvalConfig { limit: Some(30), compute_ts: false, ..Default::default() };
    let (out, _) = evaluate(&sys, &bench.dev, &bench.databases, &cfg);
    assert!(out.ex > 0.4, "3-shot CodeS-7B EX too low: {:.2}", out.ex);
}

#[test]
fn external_knowledge_helps_on_bird() {
    let bench = mini_bench(103, true);
    let catalog = Arc::new(SketchCatalog::build());
    let model = lm("CodeS-7B", &catalog);
    let build = |use_ek: bool| {
        let sys = CodesSystem::new(
            CodesModel::new(Arc::clone(&model), catalog.clone()),
            PromptOptions::sft(),
        )
        .with_classifier(SchemaClassifier::train(&bench, use_ek, 1))
        .finetune_on(&bench);
        sys.prepare_databases(bench.databases.iter());
        Arc::new(sys)
    };
    let with_ek = build(true);
    let without_ek = build(false);
    let stripped: Vec<_> = bench
        .dev
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.external_knowledge = None;
            s
        })
        .collect();
    let cfg = EvalConfig { compute_ts: false, limit: Some(60), ..Default::default() };
    let (ek_out, _) = evaluate(&with_ek, &bench.dev, &bench.databases, &cfg);
    let (plain_out, _) = evaluate(&without_ek, &stripped, &bench.databases, &cfg);
    assert!(
        ek_out.ex >= plain_out.ex,
        "EK should not hurt: with {:.2} vs without {:.2}",
        ek_out.ex,
        plain_out.ex
    );
}

#[test]
fn generated_sql_is_almost_always_executable() {
    let bench = mini_bench(104, true);
    let catalog = Arc::new(SketchCatalog::build());
    let sys = CodesSystem::new(CodesModel::new(lm("CodeS-3B", &catalog), catalog.clone()), PromptOptions::sft())
        .with_classifier(SchemaClassifier::train(&bench, false, 1))
        .finetune_on(&bench);
    sys.prepare_databases(bench.databases.iter());
    let mut executable = 0usize;
    let n = bench.dev.len().min(30);
    for s in bench.dev.iter().take(n) {
        let db = bench.database(&s.db_id).unwrap();
        let out = sys.infer(db, &InferenceRequest::new(&s.db_id, &s.question));
        if sqlengine::execute_query(db, &out.sql).is_ok() {
            executable += 1;
        }
    }
    assert!(
        executable as f64 / n as f64 >= 0.9,
        "only {executable}/{n} executable (beam should pick executable candidates)"
    );
}

/// The schema filter reads the database through a profile cached per
/// catalog revision; a stale or mis-keyed profile would show here.
#[test]
fn schema_filter_answers_from_the_catalog_it_is_given() {
    // A trained classifier over a benchmark and its rebuilt twin: equal
    // content, every database under a revision of its own.
    let (bench, twin) = (mini_bench(105, true), mini_bench(105, true));
    let clf = SchemaClassifier::train(&bench, true, 1);
    let opts = PromptOptions::sft();
    for s in &bench.dev {
        let ek = s.external_knowledge.as_deref();
        let filter = |db: &sqlengine::Database| {
            codes::stage_schema_filter(db, &s.question, ek, Some(&clf), &opts)
        };
        let (db, rebuilt) = (bench.database(&s.db_id).unwrap(), twin.database(&s.db_id).unwrap());
        assert_ne!(db.revision(), rebuilt.revision());
        let cold = filter(rebuilt);
        assert_eq!(filter(rebuilt), cold, "warm profile: {}", s.question);
        assert_eq!(filter(&rebuilt.clone()), cold, "clone: {}", s.question);
        assert_eq!(filter(db), cold, "equal database: {}", s.question);
    }

    // A classifier that listens to value hits alone, so the answer is known:
    // the key, then whichever column holds the value the question names
    // (names break the tie while none does).
    let mut clf = SchemaClassifier::new(LogReg::new(8), LogReg::new(10), false);
    clf.column_model.weights[6] = 4.0;
    let mut opts = PromptOptions::sft();
    opts.filter.top_k2 = 2;
    let kept = |db: &sqlengine::Database| {
        let filtered =
            codes::stage_schema_filter(db, "which trips went to Narnia", None, Some(&clf), &opts);
        filtered.tables[0].columns.clone()
    };
    let mut db = sqlengine::database_from_script(
        "travel",
        "CREATE TABLE trip (trip_id INTEGER PRIMARY KEY, origin TEXT, stop TEXT, target TEXT);
         INSERT INTO trip VALUES (1, 'Oz', 'Erewhon', 'Utopia');",
    )
    .unwrap();
    let before = db.clone();
    assert_eq!(kept(&db), ["trip_id", "origin"]);
    db.table_mut("trip")
        .unwrap()
        .insert(vec![2.into(), "Oz".into(), "Erewhon".into(), "Narnia".into()])
        .unwrap();
    assert_eq!(kept(&db), ["trip_id", "target"], "the inserted row is seen at once");
    assert_eq!(kept(&before), ["trip_id", "origin"], "the unmutated clone is not");
}
