//! Golden digest of the schema-item classifier `e2e` trains for its
//! Spider-like workloads (no external knowledge) and for `bird_cold`
//! (with it): the bits of every weight and of the bias of the table and
//! the column model. The constants were recorded while training extracted
//! its features on one thread, where this file passes unmodified: a change
//! that moves one feature, one row's order or one SGD step moves a bit.

use codes_datasets::{build_benchmark, BenchmarkConfig};
use codes_linker::{LogReg, SchemaClassifier};

/// FNV-1a over the models' bits, one terminator per model.
fn digest(clf: &SchemaClassifier) -> (u64, usize) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut words = 0;
    let mut eat = |model: &LogReg| {
        for bits in model.weights.iter().chain([&model.bias]).map(|w| w.to_bits()) {
            for b in bits.to_le_bytes().into_iter().chain([0xff]) {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            words += 1;
        }
        hash = (hash ^ 0xfe).wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(&clf.table_model);
    eat(&clf.column_model);
    (hash, words)
}

/// The classifier of `e2e`'s stack for a workload (its `Fixture::datasets`
/// and `Trained::train`).
fn trained(bird: bool) -> SchemaClassifier {
    let mut cfg = if bird { BenchmarkConfig::bird(0xB12D) } else { BenchmarkConfig::spider(0x5B1D) };
    cfg.train_samples_per_db = 60;
    cfg.dev_samples_per_db = 4;
    let bench = build_benchmark(if bird { "bird" } else { "spider" }, &cfg);
    SchemaClassifier::train(&bench, bird, 0xC1A5)
}

#[test]
fn spider_classifier_matches_the_recorded_digest() {
    assert_eq!(digest(&trained(false)), (7_177_938_808_554_795_026, 20));
}

#[test]
fn bird_classifier_with_knowledge_matches_the_recorded_digest() {
    assert_eq!(digest(&trained(true)), (4_251_602_338_618_744_777, 20));
}
