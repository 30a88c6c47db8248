//! Golden digest of the two benchmarks the `e2e` stacks serve: the
//! Spider-like and BIRD-like fixtures at 60 train and 4 dev samples per
//! database. It covers every database's name, schema and rows in order,
//! every train and dev sample's fields in order, and the order in which
//! the databases' revision tokens were handed out. The constants were
//! recorded while `build_benchmark` ran on one thread, where this file
//! passes unmodified: generating samples on several threads must not move
//! one byte.

use codes_datasets::{build_benchmark, Benchmark, BenchmarkConfig};

/// FNV-1a, each field terminated so that no two fields share a byte stream.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn debug(&mut self, value: &impl std::fmt::Debug) {
        self.bytes(format!("{value:?}").as_bytes());
    }
}

/// The fixture `e2e` builds for a workload (its `Fixture::datasets`).
fn fixture(bird: bool) -> Benchmark {
    let mut cfg = if bird { BenchmarkConfig::bird(0xB12D) } else { BenchmarkConfig::spider(0x5B1D) };
    cfg.train_samples_per_db = 60;
    cfg.dev_samples_per_db = 4;
    build_benchmark(if bird { "bird" } else { "spider" }, &cfg)
}

/// The digest, and the sample and database counts it covers.
fn digest(bench: &Benchmark) -> (u64, usize, usize) {
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    digest.bytes(bench.name.as_bytes());
    for db in &bench.databases {
        digest.bytes(db.name.as_bytes());
        digest.debug(&db.tables);
    }
    // Revision tokens are process-global, so only their order is stable.
    let mut by_revision: Vec<usize> = (0..bench.databases.len()).collect();
    by_revision.sort_by_key(|&i| bench.databases[i].revision());
    digest.debug(&by_revision);
    for sample in bench.train.iter().chain(&bench.dev) {
        digest.debug(sample);
    }
    digest.bytes(&bench.train.len().to_le_bytes());
    (digest.0, bench.train.len() + bench.dev.len(), bench.databases.len())
}

#[test]
fn spider_fixture_matches_the_recorded_digest() {
    assert_eq!(digest(&fixture(false)), (2_171_942_169_439_121_066, 736, 16));
}

#[test]
fn bird_fixture_matches_the_recorded_digest() {
    assert_eq!(digest(&fixture(true)), (9_852_792_621_375_653_384, 736, 16));
}

#[test]
fn revision_tokens_follow_domain_order() {
    for bird in [false, true] {
        let bench = fixture(bird);
        assert!(bench.databases.windows(2).all(|w| w[0].revision() < w[1].revision()));
    }
}
