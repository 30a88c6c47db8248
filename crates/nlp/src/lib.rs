#![warn(missing_docs)]

//! # codes-nlp
//!
//! Natural-language substrates for the CodeS text-to-SQL reproduction:
//!
//! * [`tokenize`] — word/char tokenizers and identifier normalization;
//! * [`bpe`] — a trainable byte-pair-encoding tokenizer (StarCoder's BPE
//!   vocabulary substitute);
//! * [`ngram`] — interpolated n-gram language models, the statistical stand-
//!   in for transformer likelihoods in the simulated model;
//! * [`embedding`] — hashed TF-IDF sentence embeddings (SimCSE substitute)
//!   powering Eq. 4's `sentsim`;
//! * [`lcs`] — longest-common-substring value matching (§6.2);
//! * [`pattern`] — entity stripping for question patterns (§8.2);
//! * [`similarity`] — auxiliary string similarities for schema linking.

pub mod bpe;
pub mod embedding;
pub mod lcs;
pub mod ngram;
pub mod pattern;
pub mod similarity;
pub mod tokenize;

pub use bpe::{Bpe, TokenId};
pub use embedding::{cosine, Embedder, EmbedderBuilder};
pub use lcs::{lcs_len, lcs_len_chars, lcs_substring, match_degree};
pub use ngram::NgramLm;
pub use pattern::question_pattern;
pub use tokenize::{char_ngrams, normalize_identifier, words, words_cased};
