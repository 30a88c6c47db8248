//! Golden digest of every beam the four CodeS sizes decode over the
//! Spider-/BIRD-sim mini dev sets: SQL, order, template, `score.to_bits()`
//! and the chosen statement, with external knowledge and demonstrations on
//! and off, fine-tuned and not. The constant was recorded at the commit
//! before generation linked once per request (PR 16's tree), where this
//! file passes unmodified: a change to linking, slot filling, LM scoring or
//! ranking that moves one bit of one candidate moves the digest.

use std::collections::HashMap;
use std::sync::Arc;

use codes::{
    build_prompt, finetune, pretrain, table4_models, CodesModel, Generation, PretrainConfig,
    PromptOptions, SketchCatalog,
};
use codes_datasets::{Benchmark, BenchmarkConfig, Sample};
use codes_linker::SchemaClassifier;
use codes_retrieval::ValueIndex;

/// Recorded digest and the number of candidates it covers.
const GOLDEN: (u64, usize) = (4_837_184_088_122_069_941, 4886);

fn mini(cfg: BenchmarkConfig, name: &str) -> Benchmark {
    let mut cfg = cfg;
    cfg.train_samples_per_db = 12;
    cfg.dev_samples_per_db = 20;
    codes_datasets::build_benchmark(name, &cfg)
}

/// FNV-1a, fields separated so that no two beams share a byte stream.
struct Digest {
    hash: u64,
    candidates: usize,
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn generation(&mut self, g: &Generation) {
        self.bytes(g.sql.as_bytes());
        self.bytes(&g.beam.len().to_le_bytes());
        for c in &g.beam {
            self.bytes(c.sql.as_bytes());
            self.bytes(&c.template_id.to_le_bytes());
            self.bytes(&c.score.to_bits().to_le_bytes());
            self.bytes(&[u8::from(c.executable)]);
            self.candidates += 1;
        }
    }
}

#[test]
fn dev_beams_match_the_recorded_digest() {
    let catalog = Arc::new(SketchCatalog::build());
    let benches = [
        mini(BenchmarkConfig::spider(41), "mini"),
        mini(BenchmarkConfig::bird(33), "mini-bird"),
    ];
    let mut digest = Digest { hash: 0xcbf2_9ce4_8422_2325, candidates: 0 };
    let indexes: HashMap<&str, ValueIndex> = benches
        .iter()
        .flat_map(|b| &b.databases)
        .map(|db| (db.name.as_str(), ValueIndex::build(db)))
        .collect();
    for name in ["CodeS-1B", "CodeS-3B", "CodeS-7B", "CodeS-15B"] {
        let spec = table4_models().into_iter().find(|m| m.name == name).unwrap();
        let lm = Arc::new(pretrain(&catalog, &spec, &PretrainConfig { scale: 8, seed: 2 }));
        for bench in &benches {
            let zero_shot = CodesModel::new(Arc::clone(&lm), Arc::clone(&catalog));
            let mut sft = zero_shot.fork();
            finetune(
                &mut sft,
                bench.train.iter().filter_map(|s| Some((s, bench.database(&s.db_id)?))),
            );
            let demos: Vec<&Sample> = bench.train.iter().step_by(7).take(3).collect();
            let with_ek = bench.dev.iter().any(|s| s.external_knowledge.is_some());
            let clf = SchemaClassifier::train(bench, with_ek, 3);
            for s in &bench.dev {
                let db = bench.database(&s.db_id).unwrap();
                let index = &indexes[db.name.as_str()];
                let mut knowledge = vec![None];
                knowledge.extend(s.external_knowledge.as_deref().map(Some));
                for ek in knowledge {
                    let prompt = build_prompt(
                        db,
                        &s.question,
                        ek,
                        Some(&clf),
                        Some(index),
                        &PromptOptions::sft(),
                    );
                    digest.generation(&sft.generate(db, &prompt, &s.question, ek, &[]));
                    digest.generation(&zero_shot.generate(db, &prompt, &s.question, ek, &demos));
                }
            }
        }
    }
    assert_eq!((digest.hash, digest.candidates), GOLDEN);
}
