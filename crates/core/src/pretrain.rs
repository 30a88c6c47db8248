//! Incremental pre-training (§5).
//!
//! A [`PretrainedLm`] bundles everything a simulated language model learns
//! from its corpus: a BPE tokenizer, an n-gram token LM, a sketch library
//! (which SQL shapes it has seen) and a sentence embedder. CodeS models
//! start from the StarCoder corpus and *absorb* the SQL-centric corpus —
//! SQL-related documents are seen twice, NL and NL-to-code once, matching
//! the epoch schedule of §5.2.

use std::collections::HashMap;

use codes_corpus::{build_corpus, normalize_sql, Corpus, CorpusConfig, Slice};
use codes_nlp::{Bpe, Embedder, EmbedderBuilder, NgramLm, TokenId};

use crate::config::{Capacity, CorpusLineage, LmSpec, ModelSize};
use crate::sketch::{extract_sql, SketchCatalog, SketchLibrary};

/// A pre-trained simulated language model.
pub struct PretrainedLm {
    /// Display name (e.g. "CodeS-7B").
    pub name: String,
    /// Capacity tier.
    pub size: ModelSize,
    /// Corpus lineage the model was trained on.
    pub lineage: CorpusLineage,
    /// The capacity knobs in effect.
    pub capacity: Capacity,
    /// Trained BPE tokenizer.
    pub bpe: Bpe,
    /// N-gram token language model.
    pub lm: NgramLm,
    /// Retained SQL sketch knowledge.
    pub sketches: SketchLibrary,
    /// Fitted sentence embedder (demonstration retrieval).
    pub embedder: Embedder,
    /// Number of corpus documents consumed.
    pub documents_seen: usize,
    /// SQL statements observed during pre-training — the model's domain
    /// exposure, which controls how reliable its SQL judgments are.
    pub sql_statements_seen: u64,
}

/// Pre-training scale: document budget multiplier (the paper's GB counts
/// scaled down to document counts).
#[derive(Debug, Clone, Copy)]
pub struct PretrainConfig {
    /// Document-budget multiplier.
    pub scale: usize,
    /// Corpus generation seed.
    pub seed: u64,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        PretrainConfig { scale: 24, seed: 0xC0DE5 }
    }
}

/// Pre-train a model according to its corpus lineage.
pub fn pretrain(catalog: &SketchCatalog, spec: &LmSpec, cfg: &PretrainConfig) -> PretrainedLm {
    pretrain_with_capacity(catalog, spec, spec.size.capacity(), cfg)
}

/// Pre-train with an explicit capacity override — used by the bench
/// harness to simulate closed-source frontier models (ChatGPT/GPT-4) whose
/// capacity exceeds the 15B tier.
pub fn pretrain_with_capacity(
    catalog: &SketchCatalog,
    spec: &LmSpec,
    capacity: crate::config::Capacity,
    cfg: &PretrainConfig,
) -> PretrainedLm {
    let base = base_corpus(spec.lineage, cfg);
    match spec.lineage {
        CorpusLineage::Codes => {
            // Incremental pre-training: start from StarCoder's corpus, then
            // continue on the SQL-centric corpus (SQL slice seen twice).
            let increment = build_corpus(&CorpusConfig::codes(cfg.scale, cfg.seed ^ 0xC0DE));
            // Second epoch over the SQL-related slice.
            let second_epoch: Vec<codes_corpus::Document> = increment
                .documents
                .iter()
                .filter(|d| d.slice == Slice::SqlRelated)
                .cloned()
                .collect();
            let mut merged = base;
            merged.merge(increment);
            merged.documents.extend(second_epoch);
            train_on(catalog, spec, capacity, &merged)
        }
        _ => train_on(catalog, spec, capacity, &base),
    }
}

fn base_corpus(lineage: CorpusLineage, cfg: &PretrainConfig) -> Corpus {
    match lineage {
        CorpusLineage::StarCoder | CorpusLineage::Codes => {
            build_corpus(&CorpusConfig::starcoder(cfg.scale, cfg.seed))
        }
        CorpusLineage::StarCoderPlus => {
            // StarCoderPlus = StarCoder + extra natural language.
            let mut c = build_corpus(&CorpusConfig::starcoder(cfg.scale, cfg.seed));
            let extra = codes_corpus::nl_documents(6 * cfg.scale, cfg.seed ^ 0x9999);
            c.documents.extend(
                extra
                    .into_iter()
                    .map(|text| codes_corpus::Document { slice: Slice::NlRelated, text }),
            );
            c
        }
        CorpusLineage::CodeGen => build_corpus(&CorpusConfig::codegen(cfg.scale, cfg.seed)),
        CorpusLineage::Llama => build_corpus(&CorpusConfig::llama(cfg.scale, cfg.seed)),
    }
}

fn train_on(catalog: &SketchCatalog, spec: &LmSpec, capacity: Capacity, corpus: &Corpus) -> PretrainedLm {
    let texts = corpus.texts();
    // 1. Tokenizer: trained on a bounded sample of the corpus.
    let bpe_sample: Vec<&str> = texts.iter().take(600).copied().collect();
    let bpe = Bpe::train(&bpe_sample, capacity.bpe_vocab);

    // 2. Language model over BPE tokens. The corpus repeats its words far
    //    more often than it has distinct ones, so each is encoded once.
    let mut lm = NgramLm::new(capacity.ngram_order, bpe.vocab_size());
    let mut words = HashMap::new();
    let mut tokens = Vec::new();
    for text in &texts {
        tokens.clear();
        encode_memo(&bpe, &normalize_sql(text), &mut words, &mut tokens);
        lm.observe(&tokens);
    }

    // 3. Sketch library mined from the SQL content.
    let sketches = SketchLibrary::mine(catalog, &texts, capacity.sketch_capacity);
    let sql_statements_seen: u64 = texts.iter().map(|t| extract_sql(t).len() as u64).sum();

    // 4. Sentence embedder fitted on the NL-bearing documents.
    let mut builder = EmbedderBuilder::new();
    for doc in &corpus.documents {
        if matches!(doc.slice, Slice::NlRelated | Slice::NlToCode) {
            builder.observe(&doc.text);
        }
    }
    let embedder = builder.build(capacity.embed_dim);

    PretrainedLm {
        name: spec.name.to_string(),
        size: spec.size,
        lineage: spec.lineage,
        capacity,
        bpe,
        lm,
        sketches,
        embedder,
        documents_seen: corpus.len(),
        sql_statements_seen,
    }
}

/// What one model's LM scoring has worked out so far in one batch: the
/// likelihood of each SQL text and the encoding of each distinct normalized
/// word. Both are pure functions of the text under that model, so a
/// memoized score equals a fresh one bit for bit.
#[derive(Debug, Default)]
pub struct LmMemo {
    likelihoods: HashMap<String, f64>,
    words: HashMap<String, Vec<TokenId>>,
}

impl PretrainedLm {
    /// Average per-token log2-probability of a SQL string under the model
    /// — the LM component of candidate scoring. Higher is more fluent.
    pub fn sql_log_likelihood(&self, sql: &str) -> f64 {
        self.mean_log2_prob(&self.bpe.encode(&normalize_sql(sql)))
    }

    /// [`PretrainedLm::sql_log_likelihood`] for one of many candidates:
    /// a batch's candidates repeat whole statements and, far more often,
    /// words (keywords, the prompt's table and column names), and `memo`
    /// reads each once. It must not be shared between models.
    pub fn sql_log_likelihood_memo(&self, sql: &str, memo: &mut LmMemo) -> f64 {
        if let Some(&ll) = memo.likelihoods.get(sql) {
            return ll;
        }
        let mut tokens: Vec<TokenId> = Vec::new();
        encode_memo(&self.bpe, &normalize_sql(sql), &mut memo.words, &mut tokens);
        let ll = self.mean_log2_prob(&tokens);
        memo.likelihoods.insert(sql.to_string(), ll);
        ll
    }

    fn mean_log2_prob(&self, tokens: &[TokenId]) -> f64 {
        if tokens.is_empty() {
            return f64::NEG_INFINITY;
        }
        self.lm.log2_prob(tokens) / tokens.len() as f64
    }

    /// Perplexity on a held-out document set (used by pre-training tests
    /// and the corpus-mix diagnostics).
    pub fn perplexity(&self, texts: &[&str]) -> f64 {
        let mut total_lp = 0.0;
        let mut total_tokens = 0usize;
        for t in texts {
            let toks = self.bpe.encode(&normalize_sql(t));
            total_lp += self.lm.log2_prob(&toks);
            total_tokens += toks.len();
        }
        if total_tokens == 0 {
            return f64::INFINITY;
        }
        2f64.powf(-total_lp / total_tokens as f64)
    }
}

/// `Bpe::encode(text)` appended to `out`, word by word through `words`,
/// which holds each distinct word's encoding once it has been worked out.
fn encode_memo(bpe: &Bpe, text: &str, words: &mut HashMap<String, Vec<TokenId>>, out: &mut Vec<TokenId>) {
    for word in text.split_whitespace() {
        match words.get(word) {
            Some(ids) => out.extend_from_slice(ids),
            None => {
                let ids = bpe.encode_word(word);
                out.extend_from_slice(&ids);
                words.insert(word.to_string(), ids);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::table4_models;

    fn catalog() -> SketchCatalog {
        SketchCatalog::build()
    }

    fn spec(name: &str) -> LmSpec {
        table4_models().into_iter().find(|m| m.name == name).unwrap()
    }

    fn small_cfg() -> PretrainConfig {
        PretrainConfig { scale: 10, seed: 7 }
    }

    #[test]
    fn incremental_pretraining_expands_sketch_library() {
        let cat = catalog();
        let cfg = small_cfg();
        let star = pretrain(&cat, &spec("StarCoderBase-15B"), &cfg);
        let codes = pretrain(&cat, &spec("CodeS-15B"), &cfg);
        assert!(
            codes.sketches.len() >= star.sketches.len(),
            "codes {} vs starcoder {}",
            codes.sketches.len(),
            star.sketches.len()
        );
    }

    #[test]
    fn sql_centric_pretraining_lowers_sql_perplexity() {
        let cat = catalog();
        let cfg = small_cfg();
        let llama = pretrain(&cat, &spec("Llama2-13B"), &cfg);
        let codes = pretrain(&cat, &spec("CodeS-15B"), &cfg);
        let held_out = codes_corpus::sql_documents(30, 999);
        let refs: Vec<&str> = held_out.iter().map(String::as_str).collect();
        let p_llama = llama.perplexity(&refs);
        let p_codes = codes.perplexity(&refs);
        assert!(
            p_codes < p_llama,
            "codes ppl {p_codes:.1} should beat llama ppl {p_llama:.1}"
        );
    }

    #[test]
    fn small_models_hold_fewer_sketches() {
        let cat = catalog();
        let cfg = small_cfg();
        let small = pretrain(&cat, &spec("CodeS-1B"), &cfg);
        let large = pretrain(&cat, &spec("CodeS-15B"), &cfg);
        assert!(small.sketches.len() <= large.sketches.len());
        assert!(small.sketches.len() <= ModelSize::B1.capacity().sketch_capacity);
    }

    #[test]
    fn fluent_sql_scores_above_garbled_sql() {
        let cat = catalog();
        let model = pretrain(&cat, &spec("CodeS-7B"), &small_cfg());
        let good = model.sql_log_likelihood("SELECT COUNT(*) FROM singer WHERE age > 30");
        let bad = model.sql_log_likelihood("WHERE singer SELECT FROM > ( COUNT age");
        assert!(good > bad, "good {good} bad {bad}");
    }

    #[test]
    fn codegen_lineage_has_sparse_sql_knowledge() {
        let cat = catalog();
        let cfg = small_cfg();
        let codegen = pretrain(&cat, &spec("CodeGen2-16B"), &cfg);
        let codes = pretrain(&cat, &spec("CodeS-15B"), &cfg);
        assert!(codegen.sketches.len() < codes.sketches.len());
    }
}
