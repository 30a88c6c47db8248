//! Golden digest of what pre-training learns for the four CodeS sizes at
//! `PretrainConfig::default()`: the tokenizer's token strings in id order,
//! the tokens the n-gram LM observed, the document and SQL-statement
//! counts, and `sql_log_likelihood(..).to_bits()` over a fixed probe set.
//! The constant was recorded before the tokenizer trained with incremental
//! pair counts, where this file passes unmodified: a change to the
//! trainer, the corpus schedule or the n-gram pass's encoding that moves
//! one token, one count or one bit of one likelihood moves the digest.

use codes::{pretrain, table4_models, PretrainConfig, SketchCatalog};

/// Recorded digest and the number of tokens it covers.
const GOLDEN: (u64, usize) = (226_450_625_571_437_487, 3915);

/// FNV-1a, fields separated so that no two models share a byte stream.
struct Digest {
    hash: u64,
    tokens: usize,
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn probes() -> Vec<String> {
    let mut probes: Vec<String> = [
        "SELECT COUNT(*) FROM singer WHERE age > 30",
        "SELECT name , country FROM singer ORDER BY age DESC",
        "SELECT T1.name FROM concert AS T1 JOIN stadium AS T2 ON T1.stadium_id = T2.stadium_id",
        "SELECT avg(salary) FROM employee GROUP BY department HAVING count(*) > 2",
        "WHERE singer SELECT FROM > ( COUNT age",
        "select distinct zxq_unseen_column from nowhere limit 3",
        "",
    ]
    .map(String::from)
    .to_vec();
    probes.extend(codes_corpus::sql_documents(24, 999));
    probes
}

#[test]
fn pretraining_matches_the_recorded_digest() {
    let catalog = SketchCatalog::build();
    let probes = probes();
    let mut digest = Digest {
        hash: 0xcbf2_9ce4_8422_2325,
        tokens: 0,
    };
    for name in ["CodeS-1B", "CodeS-3B", "CodeS-7B", "CodeS-15B"] {
        let spec = table4_models().into_iter().find(|m| m.name == name).unwrap();
        let lm = pretrain(&catalog, &spec, &PretrainConfig::default());
        digest.bytes(name.as_bytes());
        for id in 0..lm.bpe.vocab_size() {
            digest.bytes(lm.bpe.token_str(id as u32).unwrap().as_bytes());
            digest.tokens += 1;
        }
        digest.bytes(&lm.lm.tokens_seen().to_le_bytes());
        digest.bytes(&lm.documents_seen.to_le_bytes());
        digest.bytes(&lm.sql_statements_seen.to_le_bytes());
        for probe in &probes {
            digest.bytes(&lm.sql_log_likelihood(probe).to_bits().to_le_bytes());
        }
    }
    assert_eq!((digest.hash, digest.tokens), GOLDEN);
}
