//! Golden digest of what SFT learns from `e2e`'s Spider-like and BIRD-like
//! fixtures: the alias map (word → table, column, value), the template
//! counts and the learned templates, after a first `finetune` over the
//! train split and after a second one that continues it over dev and train
//! interleaved, so that consecutive samples change database. The
//! constants were recorded while `finetune` re-read a database's schema
//! words for every sample, where this file passes unmodified.

use std::sync::Arc;

use codes::{finetune, pretrain, table4_models, CodesModel, FineTuned, PretrainConfig, SketchCatalog};
use codes_datasets::{build_benchmark, Benchmark, BenchmarkConfig, Sample};
use sqlengine::Database;

/// FNV-1a, each field terminated so that no two fields share a byte stream.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The fine-tuned state, hash maps in key order.
    fn finetuned(&mut self, ft: &FineTuned) -> usize {
        let mut aliases: Vec<_> = ft.alias_map.iter().collect();
        aliases.sort();
        let mut counts: Vec<_> = ft.template_counts.iter().collect();
        counts.sort();
        self.bytes(format!("{aliases:?}").as_bytes());
        self.bytes(format!("{counts:?}").as_bytes());
        self.bytes(format!("{:?}", ft.learned_templates).as_bytes());
        aliases.len()
    }
}

fn fixture(bird: bool) -> Benchmark {
    let mut cfg = if bird { BenchmarkConfig::bird(0xB12D) } else { BenchmarkConfig::spider(0x5B1D) };
    cfg.train_samples_per_db = 60;
    cfg.dev_samples_per_db = 4;
    build_benchmark(if bird { "bird" } else { "spider" }, &cfg)
}

/// Each sample beside its database.
fn pairs<'a>(bench: &'a Benchmark, samples: &'a [Sample]) -> Vec<(&'a Sample, &'a Database)> {
    samples.iter().filter_map(|s| Some((s, bench.database(&s.db_id)?))).collect()
}

#[test]
fn sft_state_matches_the_recorded_digest() {
    let catalog = Arc::new(SketchCatalog::build());
    let spec = table4_models().into_iter().find(|m| m.name == "CodeS-7B").unwrap();
    let lm = Arc::new(pretrain(&catalog, &spec, &PretrainConfig { scale: 8, seed: 2 }));
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    let mut aliases = Vec::new();
    for bench in [fixture(false), fixture(true)] {
        let mut model = CodesModel::new(Arc::clone(&lm), Arc::clone(&catalog));
        finetune(&mut model, pairs(&bench, &bench.train).into_iter());
        aliases.push(digest.finetuned(model.finetuned.as_ref().unwrap()));
        let (train, dev) = (pairs(&bench, &bench.train), pairs(&bench, &bench.dev));
        let interleaved = dev.iter().zip(train.iter().rev()).flat_map(|(d, t)| [*d, *t]);
        finetune(&mut model, interleaved);
        aliases.push(digest.finetuned(model.finetuned.as_ref().unwrap()));
    }
    assert_eq!((digest.0, aliases), (18_177_218_008_138_440_914, vec![0, 0, 3, 3]));
}
