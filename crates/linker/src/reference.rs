//! Test-only oracle: feature extraction, scoring, filtering and training
//! as they were before [`crate::profile`] existed — every call re-reads the
//! schema and re-tokenises the question. The equivalence tests below hold
//! the profile path to these, bit for bit.

use codes_datasets::{Benchmark, Sample};
use codes_nlp::similarity::{dice_char_bigrams, jaccard_words, word_coverage};
use codes_nlp::{match_degree, normalize_identifier, words};
use sqlengine::{Column, Database, Table};

use crate::classifier::{train_logreg, SchemaClassifier};
use crate::filter::{FilterConfig, FilteredSchema, FilteredTable};
use crate::profile::{classifier_input, COLUMN_FEATURES, TABLE_FEATURES};

/// Best per-word dice similarity between question words and a name's words.
fn best_word_dice(question_words: &[String], name: &str) -> f64 {
    let name_words = words(name);
    let mut best = 0.0f64;
    for nw in &name_words {
        for qw in question_words {
            let d = dice_char_bigrams(nw, qw);
            if d > best {
                best = d;
            }
        }
    }
    best
}

/// Features of one column against a question (optionally question + EK).
pub(crate) fn column_features(question: &str, table: &Table, column: &Column) -> [f64; COLUMN_FEATURES] {
    let qwords = words(question);
    let name_nl = normalize_identifier(&column.name);
    let comment = column.comment.as_deref().unwrap_or("");
    let is_fk = table
        .schema
        .foreign_keys
        .iter()
        .any(|fk| fk.column.eq_ignore_ascii_case(&column.name));
    let lower_q = question.to_lowercase();
    let value_hit = table
        .representative_values_capped(&column.name, 16, 400)
        .iter()
        .map(|v| {
            let text = v.render();
            let text = text.trim();
            let prefix: String = text.chars().take(3).flat_map(char::to_lowercase).collect();
            if prefix.is_empty() || !lower_q.contains(&prefix) {
                0.0
            } else {
                match_degree(question, text)
            }
        })
        .fold(0.0f64, f64::max);
    [
        jaccard_words(question, &name_nl),
        word_coverage(question, &name_nl),
        best_word_dice(&qwords, &name_nl),
        if comment.is_empty() { 0.0 } else { jaccard_words(question, comment) },
        if comment.is_empty() { 0.0 } else { word_coverage(question, comment) },
        if comment.is_empty() { 0.0 } else { best_word_dice(&qwords, comment) },
        value_hit,
        f64::from(column.primary_key),
        f64::from(is_fk),
        f64::from(column.data_type.is_numeric()),
    ]
}

/// Features of one table against a question.
pub(crate) fn table_features(question: &str, db: &Database, table: &Table) -> [f64; TABLE_FEATURES] {
    let qwords = words(question);
    let name_nl = normalize_identifier(&table.schema.name);
    let mut best_col_name = 0.0f64;
    let mut best_col_comment = 0.0f64;
    let mut best_value_hit = 0.0f64;
    for c in &table.schema.columns {
        let f = column_features(question, table, c);
        best_col_name = best_col_name.max(f[2]);
        best_col_comment = best_col_comment.max(f[5]);
        best_value_hit = best_value_hit.max(f[6]);
    }
    let fk_degree = (table.schema.foreign_keys.len()
        + db
            .foreign_keys()
            .iter()
            .filter(|(_, fk)| fk.ref_table.eq_ignore_ascii_case(&table.schema.name))
            .count()) as f64;
    [
        jaccard_words(question, &name_nl),
        word_coverage(question, &name_nl),
        best_word_dice(&qwords, &name_nl),
        best_col_name,
        best_col_comment,
        best_value_hit,
        (fk_degree / 4.0).min(1.0),
        (table.schema.columns.len() as f64 / 32.0).min(1.0),
    ]
}

fn input(clf: &SchemaClassifier, question: &str, ek: Option<&str>) -> String {
    classifier_input(question, if clf.use_ek { ek } else { None })
}

fn score_tables(clf: &SchemaClassifier, question: &str, ek: Option<&str>, db: &Database) -> Vec<(String, f64)> {
    let input = input(clf, question, ek);
    db.tables
        .iter()
        .map(|t| {
            let f = table_features(&input, db, t);
            (t.schema.name.clone(), clf.table_model.predict(&f))
        })
        .collect()
}

fn score_columns(
    clf: &SchemaClassifier,
    question: &str,
    ek: Option<&str>,
    db: &Database,
) -> Vec<((String, String), f64)> {
    let input = input(clf, question, ek);
    let mut out = Vec::new();
    for t in &db.tables {
        for c in &t.schema.columns {
            let f = column_features(&input, t, c);
            out.push(((t.schema.name.clone(), c.name.clone()), clf.column_model.predict(&f)));
        }
    }
    out
}

pub(crate) fn filter_schema(
    clf: &SchemaClassifier,
    question: &str,
    ek: Option<&str>,
    db: &Database,
    cfg: FilterConfig,
) -> FilteredSchema {
    let mut table_scores = score_tables(clf, question, ek, db);
    table_scores.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    table_scores.truncate(cfg.top_k1);
    let column_scores = score_columns(clf, question, ek, db);

    let tables = table_scores
        .into_iter()
        .map(|(name, score)| {
            let table = db.table(&name).expect("scored table exists");
            let mut cols: Vec<(String, f64)> = column_scores
                .iter()
                .filter(|((t, _), _)| t.eq_ignore_ascii_case(&name))
                .map(|((_, c), s)| (c.clone(), *s))
                .collect();
            for c in &table.schema.columns {
                if c.primary_key {
                    if let Some(entry) = cols.iter_mut().find(|(n, _)| n.eq_ignore_ascii_case(&c.name)) {
                        entry.1 = f64::MAX;
                    }
                }
            }
            cols.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            cols.truncate(cfg.top_k2);
            let keep: std::collections::HashSet<String> =
                cols.into_iter().map(|(c, _)| c.to_lowercase()).collect();
            let columns = table
                .schema
                .columns
                .iter()
                .filter(|c| keep.contains(&c.name.to_lowercase()))
                .map(|c| c.name.clone())
                .collect();
            FilteredTable { name, columns, score }
        })
        .collect();
    FilteredSchema { tables }
}

pub(crate) fn train(benchmark: &Benchmark, use_ek: bool, seed: u64) -> SchemaClassifier {
    let mut table_data = Vec::new();
    let mut column_data = Vec::new();
    for s in &benchmark.train {
        let Some(db) = benchmark.database(&s.db_id) else {
            continue;
        };
        if s.used_tables.is_empty() {
            continue;
        }
        let input = classifier_input(
            &s.question,
            if use_ek { s.external_knowledge.as_deref() } else { None },
        );
        for t in &db.tables {
            let label = s.used_tables.iter().any(|ut| ut.eq_ignore_ascii_case(&t.schema.name));
            table_data.push((table_features(&input, db, t).to_vec(), label));
            for c in &t.schema.columns {
                let label = s
                    .used_columns
                    .iter()
                    .any(|(ut, uc)| ut.eq_ignore_ascii_case(&t.schema.name) && uc.eq_ignore_ascii_case(&c.name));
                column_data.push((column_features(&input, t, c).to_vec(), label));
            }
        }
    }
    SchemaClassifier::new(
        train_logreg(&table_data, 8, 0.3, 1e-4, seed),
        train_logreg(&column_data, 8, 0.3, 1e-4, seed ^ 1),
        use_ek,
    )
}

/// Every dev question of `bench`: same filter from both paths, under both
/// of the paper's filter settings.
fn assert_filters_agree(bench: &Benchmark, clf: &SchemaClassifier, dev: &[Sample]) {
    for s in dev {
        let db = bench.database(&s.db_id).expect("dev database exists");
        let ek = s.external_knowledge.as_deref();
        for cfg in [FilterConfig::sft(), FilterConfig::few_shot()] {
            assert_eq!(
                crate::filter_schema(clf, &s.question, ek, db, cfg),
                filter_schema(clf, &s.question, ek, db, cfg),
                "{}: {}",
                s.db_id,
                s.question
            );
        }
    }
}

mod tests {
    use super::*;
    use crate::profile::{QuestionProfile, SchemaProfile};
    use proptest::prelude::*;
    use sqlengine::{DataType, ForeignKey, TableSchema, Value};

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|f| f.to_bits()).collect()
    }

    /// SplitMix64: the vendored proptest generates single words, so a case
    /// is one seed expanded here.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len())]
        }
    }

    /// Words that overlap each other in stems, plurals, case and script.
    const STEMS: &[&str] = &[
        "singer", "singers", "city", "cities", "name", "Name", "id", "Größe", "straße", "ÉCOLE",
        "école", "年份", "İstanbul", "ΟΔΟΣ", "box", "boxes", "class", "top5", "a2", "date2009",
    ];

    /// An identifier in snake_case, camelCase, or spaced upper case; words
    /// may repeat.
    fn identifier(g: &mut Gen) -> String {
        let parts: Vec<&str> = (0..1 + g.below(3)).map(|_| g.pick(STEMS)).collect();
        match g.below(3) {
            0 => parts.join("_"),
            1 => parts
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let mut cs = p.chars();
                    match (i, cs.next()) {
                        (0, _) | (_, None) => p.to_string(),
                        (_, Some(c)) => c.to_uppercase().chain(cs).collect(),
                    }
                })
                .collect(),
            _ => parts.join(" ").to_uppercase(),
        }
    }

    fn value(g: &mut Gen, data_type: DataType) -> Value {
        if g.below(5) == 0 {
            return Value::Null;
        }
        match data_type {
            DataType::Integer => Value::Integer(g.below(40) as i64 - 5),
            DataType::Real => Value::Real(g.below(40) as f64 / 4.0),
            DataType::Text => {
                let word = g.pick(STEMS);
                match g.below(4) {
                    0 => Value::Text(format!("  {word} ")),
                    1 => Value::Text(format!("{word} {}", g.pick(STEMS))),
                    2 => Value::Text(String::new()),
                    _ => Value::Text(word.to_string()),
                }
            }
        }
    }

    /// A database of 1–4 tables: unique names, comments present, empty or
    /// absent, a key column, self- and cross-table foreign keys, an
    /// all-NULL column, and sometimes more rows than the value scan reads
    /// (which is where that column stops being NULL).
    fn database(g: &mut Gen) -> Database {
        let mut db = Database::new("generated");
        let mut table_names: Vec<String> = Vec::new();
        for t in 0..1 + g.below(4) {
            let name = format!("{}{t}", identifier(g));
            let mut columns = vec![Column::new(format!("{}_id", g.pick(STEMS)), DataType::Integer).primary_key()];
            for c in 0..1 + g.below(6) {
                let data_type = [DataType::Integer, DataType::Real, DataType::Text][g.below(3)];
                let mut column = Column::new(format!("{}{c}", identifier(g)), data_type);
                match g.below(3) {
                    0 => column = column.with_comment(format!("{} of the {}", g.pick(STEMS), g.pick(STEMS))),
                    1 => column = column.with_comment(""),
                    _ => {}
                }
                columns.push(column);
            }
            let all_null = g.below(columns.len());
            let mut schema = TableSchema::new(name.clone(), columns);
            table_names.push(name);
            for _ in 0..g.below(3) {
                let column = schema.columns[g.below(schema.columns.len())].name.to_uppercase();
                let ref_table = table_names[g.below(table_names.len())].clone();
                schema.foreign_keys.push(ForeignKey { column, ref_table, ref_column: "id".into() });
            }
            let types: Vec<DataType> = schema.columns.iter().map(|c| c.data_type).collect();
            let rows = if g.below(4) == 0 { 401 + g.below(40) } else { g.below(30) };
            let table = db.create_table(schema).expect("generated table names are unique");
            for r in 0..rows {
                let row = types
                    .iter()
                    .enumerate()
                    .map(|(c, &ty)| match c {
                        0 => Value::Integer(r as i64),
                        // NULL as far as the value scan reads, a word
                        // questions use past it.
                        c if c == all_null && r < 400 => Value::Null,
                        c if c == all_null => Value::Text("singer".into()),
                        _ => value(g, ty),
                    })
                    .collect();
                table.insert(row).expect("generated rows fit their schema");
            }
        }
        db
    }

    fn question(g: &mut Gen) -> (String, Option<String>) {
        let sentence = |g: &mut Gen| {
            (0..g.below(9)).map(|_| g.pick(STEMS)).collect::<Vec<_>>().join(if g.below(4) == 0 { ", " } else { " " })
        };
        let q = format!("How many {} have {}?", sentence(g), g.below(12));
        let ek = match g.below(3) {
            0 => None,
            1 => Some(String::new()),
            _ => Some(format!("{} refers to {} = 'Σ'", sentence(g), g.pick(STEMS))),
        };
        (q, ek)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn profile_features_equal_the_reference_bit_for_bit(seed in any::<u64>()) {
            let mut g = Gen(seed);
            let db = database(&mut g);
            let profile = SchemaProfile::build(&db);
            for _ in 0..4 {
                let (q, ek) = question(&mut g);
                let input = classifier_input(&q, ek.as_deref());
                let features = profile.features(&QuestionProfile::new(&input));
                prop_assert_eq!(features.tables.len(), db.tables.len());
                for (t, table) in db.tables.iter().enumerate() {
                    prop_assert!(
                        bits(&features.tables[t]) == bits(&table_features(&input, &db, table)),
                        "table {} for {:?}", table.schema.name, input
                    );
                    prop_assert_eq!(features.columns[t].len(), table.schema.columns.len());
                    for (c, column) in table.schema.columns.iter().enumerate() {
                        prop_assert!(
                            bits(&features.columns[t][c]) == bits(&column_features(&input, table, column)),
                            "column {}.{} for {:?}", table.schema.name, column.name, input
                        );
                    }
                }
            }
        }
    }

    fn mini(cfg: codes_datasets::BenchmarkConfig, name: &str) -> Benchmark {
        let mut cfg = cfg;
        cfg.train_samples_per_db = 12;
        cfg.dev_samples_per_db = 5;
        codes_datasets::build_benchmark(name, &cfg)
    }

    fn assert_same_model(a: &SchemaClassifier, b: &SchemaClassifier) {
        assert_eq!(bits(&a.table_model.weights), bits(&b.table_model.weights));
        assert_eq!(bits(&a.column_model.weights), bits(&b.column_model.weights));
        assert_eq!(a.table_model.bias.to_bits(), b.table_model.bias.to_bits());
        assert_eq!(a.column_model.bias.to_bits(), b.column_model.bias.to_bits());
    }

    #[test]
    fn spider_mini_trains_and_filters_like_the_reference() {
        let bench = mini(codes_datasets::BenchmarkConfig::spider(41), "mini");
        let clf = SchemaClassifier::train(&bench, false, 3);
        assert_same_model(&clf, &train(&bench, false, 3));
        assert_filters_agree(&bench, &clf, &bench.dev);
    }

    #[test]
    fn bird_mini_trains_and_filters_like_the_reference() {
        let bench = mini(codes_datasets::BenchmarkConfig::bird(33), "mini-bird");
        for use_ek in [false, true] {
            let clf = SchemaClassifier::train(&bench, use_ek, 5);
            assert_same_model(&clf, &train(&bench, use_ek, 5));
            assert_filters_agree(&bench, &clf, &bench.dev);
        }
    }
}
