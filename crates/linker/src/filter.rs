//! The schema filter of §6.1: keep the top-k1 tables and, per kept table,
//! the top-k2 columns, with training-time padding by random unused items
//! so that train and test prompt distributions match.

use rand::rngs::StdRng;
use rand::RngExt;

use codes_datasets::Sample;
use sqlengine::Database;

use crate::classifier::SchemaClassifier;

/// Filter hyper-parameters. The paper uses (6, 10) for SFT and (5, 6) for
/// few-shot prompts.
#[derive(Debug, Clone, Copy)]
pub struct FilterConfig {
    /// Tables kept per database.
    pub top_k1: usize,
    /// Columns kept per retained table.
    pub top_k2: usize,
}

impl FilterConfig {
    /// The paper's supervised fine-tuning setting: (6, 10).
    pub fn sft() -> FilterConfig {
        FilterConfig { top_k1: 6, top_k2: 10 }
    }

    /// The paper's few-shot setting: (5, 6), leaving room for demos.
    pub fn few_shot() -> FilterConfig {
        FilterConfig { top_k1: 5, top_k2: 6 }
    }
}

/// The filtered view of a database schema, ordered by relevance.
#[derive(Debug, Clone, PartialEq)]
pub struct FilteredSchema {
    /// Retained tables, most relevant first.
    pub tables: Vec<FilteredTable>,
}

/// One retained table with its surviving columns.
#[derive(Debug, Clone, PartialEq)]
pub struct FilteredTable {
    /// Table name.
    pub name: String,
    /// Kept columns, most relevant first. Primary keys are always kept.
    pub columns: Vec<String>,
    /// The classifier's relevance score.
    pub score: f64,
}

impl FilteredSchema {
    /// Whether a given column survived filtering.
    pub fn contains_column(&self, table: &str, column: &str) -> bool {
        self.tables
            .iter()
            .any(|t| t.name.eq_ignore_ascii_case(table) && t.columns.iter().any(|c| c.eq_ignore_ascii_case(column)))
    }

    /// Whether a given table survived filtering.
    pub fn contains_table(&self, table: &str) -> bool {
        self.tables.iter().any(|t| t.name.eq_ignore_ascii_case(table))
    }

    /// The unfiltered schema (every table, every column) — the ablation's
    /// `-w/o schema filter` arm.
    pub fn full(db: &Database) -> FilteredSchema {
        FilteredSchema {
            tables: db
                .tables
                .iter()
                .map(|t| FilteredTable {
                    name: t.schema.name.clone(),
                    columns: t.schema.columns.iter().map(|c| c.name.clone()).collect(),
                    score: 1.0,
                })
                .collect(),
        }
    }
}

/// Inference-time filter: classifier scores pick top-k1 tables / top-k2
/// columns per table.
pub fn filter_schema(
    clf: &SchemaClassifier,
    question: &str,
    ek: Option<&str>,
    db: &Database,
    cfg: FilterConfig,
) -> FilteredSchema {
    let scores = clf.score(question, ek, db);
    let mut ranked: Vec<usize> = (0..db.tables.len()).collect();
    ranked.sort_by(|&a, &b| {
        scores.tables[b]
            .total_cmp(&scores.tables[a])
            .then_with(|| db.tables[a].schema.name.cmp(&db.tables[b].schema.name))
    });
    ranked.truncate(cfg.top_k1);

    let tables = ranked
        .into_iter()
        .map(|t| {
            let columns = &db.tables[t].schema.columns;
            // Primary keys always survive (needed for joins).
            let score = |c: usize| if columns[c].primary_key { f64::MAX } else { scores.columns[t][c] };
            let mut kept: Vec<usize> = (0..columns.len()).collect();
            kept.sort_by(|&a, &b| {
                score(b).total_cmp(&score(a)).then_with(|| columns[a].name.cmp(&columns[b].name))
            });
            kept.truncate(cfg.top_k2);
            // Restore schema order for readability of the prompt.
            kept.sort_unstable();
            FilteredTable {
                name: db.tables[t].schema.name.clone(),
                columns: kept.into_iter().map(|c| columns[c].name.clone()).collect(),
                score: scores.tables[t],
            }
        })
        .collect();
    FilteredSchema { tables }
}

/// Training-time filter: the gold SQL's tables/columns are known, so keep
/// them and pad with random unused items up to (top_k1, top_k2) — §6.1's
/// distribution-matching trick.
pub fn filter_schema_gold(sample: &Sample, db: &Database, cfg: FilterConfig, rng: &mut StdRng) -> FilteredSchema {
    let mut kept_tables: Vec<String> = sample
        .used_tables
        .iter()
        .filter(|t| db.table(t).is_some())
        .cloned()
        .collect();
    // Pad with random unused tables.
    let mut others: Vec<String> = db
        .tables
        .iter()
        .map(|t| t.schema.name.clone())
        .filter(|n| !kept_tables.iter().any(|k| k.eq_ignore_ascii_case(n)))
        .collect();
    while kept_tables.len() < cfg.top_k1 && !others.is_empty() {
        let i = rng.random_range(0..others.len());
        kept_tables.push(others.swap_remove(i));
    }
    let tables = kept_tables
        .into_iter()
        .map(|name| {
            let table = db.table(&name).expect("kept table exists");
            let mut kept_cols: Vec<String> = table
                .schema
                .columns
                .iter()
                .filter(|c| {
                    c.primary_key
                        || sample
                            .used_columns
                            .iter()
                            .any(|(t, col)| t.eq_ignore_ascii_case(&name) && col.eq_ignore_ascii_case(&c.name))
                })
                .map(|c| c.name.clone())
                .collect();
            let mut other_cols: Vec<String> = table
                .schema
                .columns
                .iter()
                .map(|c| c.name.clone())
                .filter(|c| !kept_cols.iter().any(|k| k.eq_ignore_ascii_case(c)))
                .collect();
            while kept_cols.len() < cfg.top_k2 && !other_cols.is_empty() {
                let i = rng.random_range(0..other_cols.len());
                kept_cols.push(other_cols.swap_remove(i));
            }
            // Schema order.
            let keep: std::collections::HashSet<String> = kept_cols.into_iter().map(|c| c.to_lowercase()).collect();
            let columns = table
                .schema
                .columns
                .iter()
                .filter(|c| keep.contains(&c.name.to_lowercase()))
                .map(|c| c.name.clone())
                .collect();
            FilteredTable { name, columns, score: 1.0 }
        })
        .collect();
    FilteredSchema { tables }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn mini_bench() -> codes_datasets::Benchmark {
        let mut cfg = codes_datasets::BenchmarkConfig::spider(41);
        cfg.train_samples_per_db = 12;
        cfg.dev_samples_per_db = 5;
        codes_datasets::build_benchmark("mini", &cfg)
    }

    #[test]
    fn filter_respects_k_limits() {
        let bench = mini_bench();
        let clf = SchemaClassifier::train(&bench, false, 3);
        let s = &bench.dev[0];
        let db = bench.database(&s.db_id).unwrap();
        let cfg = FilterConfig { top_k1: 2, top_k2: 3 };
        let filtered = filter_schema(&clf, &s.question, None, db, cfg);
        assert!(filtered.tables.len() <= 2);
        for t in &filtered.tables {
            assert!(t.columns.len() <= 3, "{:?}", t);
        }
    }

    #[test]
    fn filter_usually_keeps_gold_tables() {
        let bench = mini_bench();
        let clf = SchemaClassifier::train(&bench, false, 3);
        let cfg = FilterConfig::sft();
        let mut kept = 0usize;
        let mut total = 0usize;
        for s in bench.dev.iter().take(30) {
            let db = bench.database(&s.db_id).unwrap();
            let filtered = filter_schema(&clf, &s.question, None, db, cfg);
            for t in &s.used_tables {
                total += 1;
                if filtered.contains_table(t) {
                    kept += 1;
                }
            }
        }
        assert!(kept as f64 / total as f64 > 0.85, "kept {kept}/{total}");
    }

    #[test]
    fn gold_filter_contains_all_used_items_and_pads() {
        let bench = mini_bench();
        let s = bench.train.iter().find(|s| !s.used_columns.is_empty()).unwrap();
        let db = bench.database(&s.db_id).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = FilterConfig { top_k1: 3, top_k2: 4 };
        let filtered = filter_schema_gold(s, db, cfg, &mut rng);
        for t in &s.used_tables {
            assert!(filtered.contains_table(t), "missing table {t}");
        }
        // Padding achieved when the database has enough tables.
        if db.tables.len() >= 3 {
            assert_eq!(filtered.tables.len(), 3);
        }
    }

    #[test]
    fn primary_keys_always_kept() {
        let bench = mini_bench();
        let clf = SchemaClassifier::train(&bench, false, 3);
        let s = &bench.dev[0];
        let db = bench.database(&s.db_id).unwrap();
        let filtered = filter_schema(&clf, &s.question, None, db, FilterConfig { top_k1: 6, top_k2: 2 });
        for ft in &filtered.tables {
            let table = db.table(&ft.name).unwrap();
            for c in &table.schema.columns {
                if c.primary_key {
                    assert!(
                        ft.columns.iter().any(|x| x.eq_ignore_ascii_case(&c.name)),
                        "pk {} dropped from {}",
                        c.name,
                        ft.name
                    );
                }
            }
        }
    }

    #[test]
    fn nan_weights_filter_without_panicking_and_deterministically() {
        let bench = mini_bench();
        let mut clf = SchemaClassifier::train(&bench, false, 3);
        clf.table_model.weights[0] = f64::NAN;
        clf.column_model.weights[2] = f64::NAN;
        let cfg = FilterConfig { top_k1: 2, top_k2: 3 };
        for s in bench.dev.iter().take(10) {
            let db = bench.database(&s.db_id).unwrap();
            let first = filter_schema(&clf, &s.question, None, db, cfg);
            assert_eq!(first.tables.len(), db.tables.len().min(2));
            assert!(first.tables.iter().all(|t| t.score.is_nan()));
            // NaN != NaN, so compare what was kept, not the scores.
            let kept = |f: &FilteredSchema| -> Vec<(String, Vec<String>)> {
                f.tables.iter().map(|t| (t.name.clone(), t.columns.clone())).collect()
            };
            let again = filter_schema(&clf, &s.question, None, &db.clone(), cfg);
            assert_eq!(kept(&first), kept(&again));
            // All scores tie at NaN, so names break the tie.
            let mut names: Vec<&str> = db.table_names();
            names.sort_unstable();
            names.truncate(2);
            assert_eq!(first.tables.iter().map(|t| t.name.as_str()).collect::<Vec<_>>(), names);
        }
        assert!(crate::auc(&[(f64::NAN, true), (0.5, false), (0.7, true)]).is_finite());
    }

    #[test]
    fn full_schema_keeps_everything() {
        let bench = mini_bench();
        let db = &bench.databases[0];
        let full = FilteredSchema::full(db);
        assert_eq!(full.tables.len(), db.tables.len());
        for (ft, t) in full.tables.iter().zip(&db.tables) {
            assert_eq!(ft.columns.len(), t.schema.columns.len());
        }
    }
}
