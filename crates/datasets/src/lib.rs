#![warn(missing_docs)]

//! # codes-datasets
//!
//! Seeded synthetic text-to-SQL benchmark generators reproducing the
//! structural properties of the datasets in the CodeS paper:
//!
//! * [`benchmark`] — Spider-like and BIRD-like cross-domain benchmarks;
//! * [`perturb`] — Spider-Syn / Spider-Realistic / Spider-DK variants;
//! * [`drspider`] — the 17 Dr.Spider perturbation test sets;
//! * [`finance`] / [`academic`] — the Bank-Financials and Aminer-Simplified
//!   new-domain datasets;
//! * [`synth`] + [`templates`] — the underlying schema and question/SQL
//!   generators;
//! * [`rename`] — schema renaming with aligned gold-SQL rewriting;
//! * [`parallel`] — the order-preserving parallel map build-time work uses.

pub mod academic;
pub mod benchmark;
pub mod drspider;
pub mod finance;
pub mod lexicon;
pub mod parallel;
pub mod perturb;
pub mod rename;
pub mod sample;
pub mod synth;
pub mod templates;

pub use benchmark::{bird_benchmark, build_benchmark, spider_benchmark, Benchmark, BenchmarkConfig};
pub use drspider::{build_drspider_set, Category, DrSpiderSet, PerturbedSet};
pub use perturb::{build_variant, SpiderVariant};
pub use sample::{Hardness, QPart, Sample, ValueMention};
pub use synth::{column_nl, domains, generate_database, table_nl, DbGenConfig, DomainSpec};
pub use templates::{generate_samples, instantiate, template_hardness, TEMPLATE_COUNT};
