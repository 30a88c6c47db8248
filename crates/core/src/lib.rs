#![warn(missing_docs)]

//! # codes
//!
//! The core of the CodeS reproduction: capacity-profiled simulated language
//! models, incremental pre-training over SQL-centric corpora, database
//! prompt construction (Algorithm 1 / Figure 4), grammar-constrained beam
//! generation, supervised fine-tuning and few-shot in-context learning.
//!
//! The published system fine-tunes billion-parameter transformers; this
//! reproduction substitutes a statistical model whose accuracy depends on
//! the same experimental variables (corpus mix, model capacity, prompt
//! content, SFT vs ICL) through real code paths — see DESIGN.md for the
//! substitution argument.

pub mod cache;
pub mod config;
pub mod error;
pub mod generator;
pub mod intent;
pub mod model;
pub mod pretrain;
pub mod prompt;
pub mod request;
pub mod sketch;
pub mod system;

pub use cache::{
    config_fingerprint, normalize_question, CacheSettings, CachedAnswer, SystemCache,
    SystemCacheStats,
};
pub use config::{table4_models, Architecture, Capacity, Config, CorpusLineage, LmSpec, ModelSize};
pub use error::Error;
pub use intent::{extract_intent, Intent};
pub use model::{
    finetune, intent_bucket, parse_knowledge, select_first_executable_batch, BatchSelection,
    CodesModel, FineTuned, Generation, GenerationBatchItem,
};
pub use request::InferenceRequest;
pub use pretrain::{pretrain, pretrain_with_capacity, LmMemo, PretrainConfig, PretrainedLm};
pub use prompt::{
    build_prompt, build_training_prompt, stage_assemble, stage_metadata, stage_schema_filter,
    stage_value_retrieval, DbPrompt, PromptOptions,
};
pub use sketch::{sketch_of, SketchCatalog, SketchLibrary};
pub use system::{CodesSystem, FewShot, Inference, PreparedDatabase};
