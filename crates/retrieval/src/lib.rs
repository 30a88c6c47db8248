#![warn(missing_docs)]
// Non-test code must surface failures as values, not unwrap panics — the
// retrieval substrates sit on serving and evaluation hot paths (same policy
// as sqlengine's exec/engine modules).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # codes-retrieval
//!
//! Retrieval substrates for the CodeS reproduction:
//!
//! * [`bm25`] — a from-scratch inverted-index BM25 engine (the Lucene
//!   substitute of §6.2);
//! * [`value_index`] — the coarse-to-fine (BM25 → LCS) database value
//!   retriever that feeds `table.column = 'value'` hints into prompts;
//! * [`demo`] — the question-pattern-aware demonstration retriever used by
//!   few-shot in-context learning (§8.2, Eq. 4).

pub mod bm25;
pub mod demo;
pub mod value_index;

pub use bm25::{Bm25Index, SearchHit};
pub use demo::{DemoRetriever, DemoStrategy};
pub use value_index::{ValueIndex, ValueMatch};
