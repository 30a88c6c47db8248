#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # codes-linker
//!
//! Schema linking for the CodeS reproduction: a trainable schema-item
//! classifier (features + logistic regression + AUC evaluation, Table 3 of
//! the paper) and the §6.1 schema filter with train-time padding.

pub mod classifier;
pub mod filter;
pub mod profile;
#[cfg(test)]
mod reference;

pub use classifier::{auc, train_logreg, LogReg, SchemaClassifier, SchemaScores};
pub use filter::{filter_schema, filter_schema_gold, FilterConfig, FilteredSchema, FilteredTable};
pub use profile::{classifier_input, QuestionProfile, SchemaFeatures, SchemaProfile};
