//! Memoized LM scoring against the unmemoized computation it replaced:
//! every candidate the grammar fills over the Spider-/BIRD-sim mini dev
//! sets, and every gold statement, scores the same bits through one shared
//! [`LmMemo`] per model as through `Bpe::encode` over the whole text.

use codes::generator::{fill_template, SlotContext};
use codes::{
    build_prompt, extract_intent, pretrain, table4_models, LmMemo, PretrainConfig, PretrainedLm,
    PromptOptions, SketchCatalog,
};
use codes_corpus::normalize_sql;
use codes_datasets::BenchmarkConfig;
use codes_retrieval::ValueIndex;

/// `PretrainedLm::sql_log_likelihood` as it was before the memo, verbatim.
fn unmemoized(lm: &PretrainedLm, sql: &str) -> f64 {
    let tokens = lm.bpe.encode(&normalize_sql(sql));
    if tokens.is_empty() {
        return f64::NEG_INFINITY;
    }
    lm.lm.log2_prob(&tokens) / tokens.len() as f64
}

#[test]
fn memoized_likelihood_equals_the_unmemoized_one_bit_for_bit() {
    let mut statements: Vec<String> = vec![String::new(), "  \t ".into(), "SELECT 日本 İ".into()];
    for cfg in [BenchmarkConfig::spider(41), BenchmarkConfig::bird(33)] {
        let cfg = BenchmarkConfig { train_samples_per_db: 4, dev_samples_per_db: 20, ..cfg };
        let bench = codes_datasets::build_benchmark("mini", &cfg);
        for db in &bench.databases {
            let index = ValueIndex::build(db);
            for s in bench.dev.iter().filter(|s| s.db_id == db.name) {
                let ek = s.external_knowledge.as_deref();
                let prompt =
                    build_prompt(db, &s.question, ek, None, Some(&index), &PromptOptions::sft());
                let mut intent = extract_intent(&s.question);
                intent.value_hints = prompt.matched_values.len();
                let capacity = codes::ModelSize::B7.capacity();
                let ctx = SlotContext::new(&prompt, &s.question, &intent, &capacity);
                statements.extend(
                    (0..codes_datasets::TEMPLATE_COUNT)
                        .filter_map(|id| fill_template(&ctx, id))
                        .map(|c| c.sql),
                );
                statements.push(s.sql.clone());
            }
        }
    }
    assert!(statements.len() > 3000, "only {} statements", statements.len());

    let catalog = SketchCatalog::build();
    for name in ["CodeS-1B", "CodeS-3B", "CodeS-7B", "CodeS-15B"] {
        let spec = table4_models().into_iter().find(|m| m.name == name).unwrap();
        let lm = pretrain(&catalog, &spec, &PretrainConfig { scale: 8, seed: 2 });
        let mut memo = LmMemo::default();
        // Twice: the second pass answers from the statement memo.
        for sql in statements.iter().chain(&statements) {
            let want = unmemoized(&lm, sql).to_bits();
            assert_eq!(lm.sql_log_likelihood_memo(sql, &mut memo).to_bits(), want, "{name}: {sql}");
            assert_eq!(lm.sql_log_likelihood(sql).to_bits(), want, "{name}: {sql}");
        }
    }
}
