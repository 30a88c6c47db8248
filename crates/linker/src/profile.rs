//! Feature extraction for the schema-item classifier, split by what it
//! depends on.
//!
//! The paper trains a compact neural classifier (following RESDSQL) that
//! scores every table and column of a database against the question. Our
//! substitute is a logistic-regression model over hand-crafted similarity
//! features; the features read the same signals the neural encoder would:
//! name overlap, comment overlap (§6.3(2)), value hits and key structure.
//!
//! Everything that is a pure function of the catalog lives in a
//! [`SchemaProfile`], built once per [`Database::revision`] and held by
//! whoever scores against it ([`Profiles`]). Everything that is a pure
//! function of the classifier input lives in a [`QuestionProfile`], built
//! once per request. [`SchemaProfile::features`] combines the two in one
//! pass over the schema.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use codes_nlp::similarity::{dice_packed, packed_bigrams, singularize};
use codes_nlp::{lcs_len_chars, normalize_identifier, words};
use parking_lot::RwLock;
use sqlengine::{Database, Table, Value};

/// Number of features per column candidate.
pub const COLUMN_FEATURES: usize = 10;
/// Number of features per table candidate.
pub const TABLE_FEATURES: usize = 8;

/// Representative values sampled per column for the value-hit feature.
const VALUES_PER_COLUMN: usize = 16;
/// Rows scanned per column to find them.
const VALUE_SCAN_ROWS: usize = 400;

/// The classifier input text: question, with external knowledge appended
/// when available (the paper's "BIRD w/ EK" condition).
pub fn classifier_input(question: &str, external_knowledge: Option<&str>) -> String {
    match external_knowledge {
        Some(ek) if !ek.is_empty() => format!("{question} {ek}"),
        _ => question.to_string(),
    }
}

/// The question side of feature extraction: the classifier input tokenised
/// and case-folded once.
#[derive(Debug, Clone)]
pub struct QuestionProfile {
    /// Distinct words.
    words: HashSet<String>,
    /// Distinct singularised words.
    singulars: HashSet<String>,
    /// Packed character bigrams of each distinct word.
    word_bigrams: Vec<Vec<u64>>,
    /// The lower-cased input, for value-prefix containment.
    lower: String,
    /// The same, as characters, for LCS value matching.
    lower_chars: Vec<char>,
}

impl QuestionProfile {
    /// Profile one classifier input (see [`classifier_input`]).
    pub fn new(input: &str) -> QuestionProfile {
        let words: HashSet<String> = words(input).into_iter().collect();
        let lower = input.to_lowercase();
        QuestionProfile {
            singulars: words.iter().map(|w| singularize(w)).collect(),
            word_bigrams: words.iter().map(|w| packed_bigrams(w)).collect(),
            words,
            lower_chars: lower.chars().collect(),
            lower,
        }
    }

    /// Best dice similarity of any question word to one schema word, given
    /// as its [`packed_bigrams`].
    pub fn best_dice(&self, bigrams: &[u64]) -> f64 {
        let mut best = 0.0f64;
        for qw in &self.word_bigrams {
            let d = dice_packed(bigrams, qw);
            if d > best {
                best = d;
            }
        }
        best
    }

    /// Whether some question word has this [`singularize`]d form.
    pub fn has_singular(&self, singular: &str) -> bool {
        self.singulars.contains(singular)
    }

    /// The lower-cased input.
    pub fn lower(&self) -> &str {
        &self.lower
    }
}

/// One distinct word of a schema's names and comments.
#[derive(Debug)]
struct SchemaWord {
    text: String,
    singular: String,
    bigrams: Vec<u64>,
}

/// A name or comment as indices into the profile's word table.
#[derive(Debug)]
struct TextProfile {
    /// Every word, in order, duplicates included.
    words: Vec<u32>,
    /// The distinct words.
    distinct: Vec<u32>,
}

/// One distinct representative value, rendered and trimmed. Values that
/// render empty match nothing and are not kept.
#[derive(Debug)]
struct ValueProfile {
    /// Index of its lower-cased 3-character prefix in the profile's prefix
    /// table.
    prefix: u32,
    /// Length of the text in characters, before case folding.
    len: u32,
}

#[derive(Debug)]
struct ColumnProfile {
    name: TextProfile,
    comment: TextProfile,
    /// Indices of its representative values in the profile's value table.
    values: Vec<u32>,
    /// Primary key, foreign key, numeric type — as feature values.
    flags: [f64; 3],
}

#[derive(Debug)]
struct TableProfile {
    name: TextProfile,
    columns: Vec<ColumnProfile>,
    /// Outgoing plus incoming foreign keys over 4, capped at 1.
    fk_degree: f64,
    /// Column count over 32, capped at 1.
    width: f64,
}

/// The schema side of feature extraction: everything the features read
/// from a database, independent of any question.
#[derive(Debug)]
pub struct SchemaProfile {
    /// The catalog revision this profile was read from.
    revision: u64,
    words: Vec<SchemaWord>,
    /// Distinct value prefixes.
    prefixes: Strings,
    /// Distinct values, and the lower-cased text of each.
    values: Vec<ValueProfile>,
    value_texts: Strings,
    tables: Vec<TableProfile>,
}

/// Features of every table and column of a database for one question,
/// index-aligned with `db.tables[i]` and `db.tables[i].schema.columns[j]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaFeatures {
    /// One row per table.
    pub tables: Vec<[f64; TABLE_FEATURES]>,
    /// One row per column, grouped by table.
    pub columns: Vec<Vec<[f64; COLUMN_FEATURES]>>,
}

/// Counts and offsets inside one profile are stored as `u32`.
fn small(n: usize) -> u32 {
    u32::try_from(n).expect("a schema profile holds under 4 GiB of sampled text")
}

/// Strings stored back to back: a profile's many short strings share two
/// allocations instead of owning one each.
#[derive(Debug, Default)]
struct Strings {
    text: String,
    ends: Vec<u32>,
}

impl Strings {
    fn push(&mut self, s: &str) {
        self.text.push_str(s);
        self.ends.push(small(self.text.len()));
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn iter(&self) -> impl Iterator<Item = &str> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let s = &self.text[start..end as usize];
            start = end as usize;
            s
        })
    }
}

/// Interns strings into a dense table.
#[derive(Default)]
struct Interner {
    ids: HashMap<String, u32>,
    items: Strings,
}

impl Interner {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = small(self.items.len());
        self.ids.insert(s.to_string(), id);
        self.items.push(s);
        id
    }
}

/// The interned tables of a profile while its database is being read.
#[derive(Default)]
struct Reader {
    words: Interner,
    prefixes: Interner,
    /// Distinct trimmed value texts; `value_profiles` and `value_texts`
    /// are index-aligned with it.
    values: Interner,
    value_profiles: Vec<ValueProfile>,
    value_texts: Strings,
}

impl Reader {
    fn text(&mut self, text: &str) -> TextProfile {
        let words: Vec<u32> = words(text)
            .into_iter()
            .map(|w| self.words.intern(&w))
            .collect();
        let mut distinct = words.clone();
        distinct.sort_unstable();
        distinct.dedup();
        TextProfile { words, distinct }
    }

    /// The value's index in the value table, unless it renders empty.
    fn value(&mut self, value: &Value) -> Option<u32> {
        let text = value.render();
        let text = text.trim();
        let prefix: String = text.chars().take(3).flat_map(char::to_lowercase).collect();
        if prefix.is_empty() {
            return None;
        }
        let id = self.values.intern(text);
        if id as usize == self.value_profiles.len() {
            self.value_profiles.push(ValueProfile {
                prefix: self.prefixes.intern(&prefix),
                len: small(text.chars().count()),
            });
            self.value_texts.push(&text.to_lowercase());
        }
        Some(id)
    }

    fn columns(&mut self, table: &Table) -> Vec<ColumnProfile> {
        table
            .schema
            .columns
            .iter()
            .map(|column| {
                let is_fk = table
                    .schema
                    .foreign_keys
                    .iter()
                    .any(|fk| fk.column.eq_ignore_ascii_case(&column.name));
                ColumnProfile {
                    name: self.text(&normalize_identifier(&column.name)),
                    comment: self.text(column.comment.as_deref().unwrap_or("")),
                    values: table
                        .representative_values_capped(
                            &column.name,
                            VALUES_PER_COLUMN,
                            VALUE_SCAN_ROWS,
                        )
                        .iter()
                        .filter_map(|v| self.value(v))
                        .collect(),
                    flags: [
                        f64::from(column.primary_key),
                        f64::from(is_fk),
                        f64::from(column.data_type.is_numeric()),
                    ],
                }
            })
            .collect()
    }
}

impl SchemaProfile {
    /// Read `db` once: tokenise names and comments, sample and render
    /// representative values, resolve key structure.
    pub fn build(db: &Database) -> SchemaProfile {
        let mut reader = Reader::default();
        let tables = db
            .tables
            .iter()
            .map(|table| {
                let incoming = db
                    .tables
                    .iter()
                    .flat_map(|t| &t.schema.foreign_keys)
                    .filter(|fk| fk.ref_table.eq_ignore_ascii_case(&table.schema.name))
                    .count();
                let fk_degree = (table.schema.foreign_keys.len() + incoming) as f64;
                TableProfile {
                    name: reader.text(&normalize_identifier(&table.schema.name)),
                    columns: reader.columns(table),
                    fk_degree: (fk_degree / 4.0).min(1.0),
                    width: (table.schema.columns.len() as f64 / 32.0).min(1.0),
                }
            })
            .collect();
        SchemaProfile {
            revision: db.revision(),
            words: reader
                .words
                .items
                .iter()
                .map(|text| SchemaWord {
                    singular: singularize(text),
                    bigrams: packed_bigrams(text),
                    text: text.to_string(),
                })
                .collect(),
            prefixes: reader.prefixes.items,
            values: reader.value_profiles,
            value_texts: reader.value_texts,
            tables,
        }
    }

    /// The catalog revision this profile was read from.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Every column's and every table's features against one question, in
    /// one pass: each distinct schema word, value prefix and value meets
    /// the question once, and a table's aggregates fold the column rows
    /// just computed.
    pub fn features(&self, question: &QuestionProfile) -> SchemaFeatures {
        let hits: Vec<WordHit> = self
            .words
            .iter()
            .map(|w| WordHit {
                word: question.words.contains(&w.text),
                singular: question.singulars.contains(&w.singular),
                dice: question.best_dice(&w.bigrams),
            })
            .collect();
        // The expensive LCS only runs for values whose 3-char prefix occurs
        // in the question — a sound shortcut because a full-degree match
        // always contains the prefix.
        let prefix_hits: Vec<bool> = self
            .prefixes
            .iter()
            .map(|p| question.lower.contains(p))
            .collect();
        let mut chars = Vec::new();
        let degrees: Vec<f64> = self
            .values
            .iter()
            .zip(self.value_texts.iter())
            .map(|(value, text)| {
                if !prefix_hits[value.prefix as usize] {
                    return 0.0;
                }
                chars.clear();
                chars.extend(text.chars());
                lcs_len_chars(&question.lower_chars, &chars) as f64 / value.len as f64
            })
            .collect();
        let overlap = |text: &TextProfile| text_overlap(text, &hits, question.words.len());

        let mut out = SchemaFeatures {
            tables: Vec::with_capacity(self.tables.len()),
            columns: Vec::with_capacity(self.tables.len()),
        };
        for table in &self.tables {
            // The best column similarity is strong evidence the table is
            // needed.
            let (mut best_name, mut best_comment, mut best_value) = (0.0f64, 0.0f64, 0.0f64);
            let mut rows = Vec::with_capacity(table.columns.len());
            for column in &table.columns {
                let name = overlap(&column.name);
                let comment = overlap(&column.comment);
                let value_hit = column
                    .values
                    .iter()
                    .map(|&v| degrees[v as usize])
                    .fold(0.0f64, f64::max);
                best_name = best_name.max(name[2]);
                best_comment = best_comment.max(comment[2]);
                best_value = best_value.max(value_hit);
                let [pk, fk, numeric] = column.flags;
                rows.push([
                    name[0], name[1], name[2], comment[0], comment[1], comment[2], value_hit, pk,
                    fk, numeric,
                ]);
            }
            let name = overlap(&table.name);
            out.tables.push([
                name[0],
                name[1],
                name[2],
                best_name,
                best_comment,
                best_value,
                table.fk_degree,
                table.width,
            ]);
            out.columns.push(rows);
        }
        out
    }
}

/// How one schema word meets the question.
struct WordHit {
    /// The word is a question word.
    word: bool,
    /// Its singular is the singular of a question word.
    singular: bool,
    /// Best dice similarity to any question word.
    dice: f64,
}

/// Word-set Jaccard, plural-insensitive coverage of the text's words by
/// the question, and best per-word dice, of one name or comment.
fn text_overlap(text: &TextProfile, hits: &[WordHit], question_words: usize) -> [f64; 3] {
    if text.words.is_empty() {
        return [0.0; 3];
    }
    let shared = text
        .distinct
        .iter()
        .filter(|&&w| hits[w as usize].word)
        .count();
    let union = question_words + text.distinct.len() - shared;
    let covered = text
        .words
        .iter()
        .filter(|&&w| hits[w as usize].singular)
        .count();
    let dice = text
        .words
        .iter()
        .map(|&w| hits[w as usize].dice)
        .fold(0.0f64, f64::max);
    [
        shared as f64 / union as f64,
        covered as f64 / text.words.len() as f64,
        dice,
    ]
}

/// The current [`SchemaProfile`] of each database, by name. A profile is
/// read on first use and replaced when the database's revision moves, so a
/// superseded revision's profile drops with its last `Arc`. A clone starts
/// from the same profiles and moves on independently.
#[derive(Debug, Default)]
pub(crate) struct Profiles(RwLock<HashMap<String, Arc<SchemaProfile>>>);

impl Profiles {
    /// The profile of `db` as it is now.
    pub(crate) fn of(&self, db: &Database) -> Arc<SchemaProfile> {
        if let Some(profile) = self.current(db) {
            return profile;
        }
        let built = Arc::new(SchemaProfile::build(db));
        self.insert(&db.name, Arc::clone(&built));
        built
    }

    /// The profile of `db` as it is now, without holding a new one.
    pub(crate) fn build(&self, db: &Database) -> Arc<SchemaProfile> {
        self.current(db).unwrap_or_else(|| Arc::new(SchemaProfile::build(db)))
    }

    /// The held profile, if it was read from `db`'s revision.
    fn current(&self, db: &Database) -> Option<Arc<SchemaProfile>> {
        self.0.read().get(&db.name).filter(|profile| profile.revision == db.revision()).cloned()
    }

    /// Hold `profile` as `db_id`'s, in place of any other.
    pub(crate) fn insert(&self, db_id: &str, profile: Arc<SchemaProfile>) {
        self.0.write().insert(db_id.to_string(), profile);
    }
}

impl Clone for Profiles {
    fn clone(&self) -> Profiles {
        Profiles(RwLock::new(self.0.read().clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::database_from_script;

    const SCRIPT: &str = "CREATE TABLE singer (singer_id INTEGER PRIMARY KEY, name TEXT, country TEXT, im TEXT COMMENT 'whether the singer is male');
         CREATE TABLE concert (concert_id INTEGER PRIMARY KEY, singer_id INTEGER REFERENCES singer(singer_id), year INTEGER);
         INSERT INTO singer VALUES (1, 'Joe', 'France', 'T');
         INSERT INTO concert VALUES (1, 1, 2014);";

    fn db() -> Database {
        database_from_script("d", SCRIPT).unwrap()
    }

    fn features(db: &Database, question: &str) -> SchemaFeatures {
        SchemaProfile::build(db).features(&QuestionProfile::new(question))
    }

    /// (table, column) positions in `db()`.
    const COUNTRY: (usize, usize) = (0, 2);
    const IM: (usize, usize) = (0, 3);

    #[test]
    fn name_match_raises_column_features() {
        let db = db();
        let hit = features(&db, "singers from which country").columns[COUNTRY.0][COUNTRY.1];
        let miss = features(&db, "how many concerts in 2014").columns[COUNTRY.0][COUNTRY.1];
        assert!(hit[0] > miss[0] || hit[2] > miss[2]);
    }

    #[test]
    fn comment_features_fire_for_ambiguous_columns() {
        let f = features(&db(), "is the singer male").columns[IM.0][IM.1];
        assert!(f[4] > 0.5, "comment coverage should be high: {f:?}");
        // Name-only features are near zero for the cryptic name.
        assert!(f[0] < 0.2);
    }

    #[test]
    fn value_hit_feature() {
        let f = features(&db(), "singers from France").columns[COUNTRY.0][COUNTRY.1];
        assert!(
            (f[6] - 1.0).abs() < 1e-9,
            "France should fully match: {f:?}"
        );
    }

    #[test]
    fn table_features_reflect_question_and_fold_their_columns() {
        let f = features(&db(), "how many singers from France");
        assert!(f.tables[0][2] > f.tables[1][2]);
        for (table, columns) in f.tables.iter().zip(&f.columns) {
            for (aggregate, feature) in [(3, 2), (4, 5), (5, 6)] {
                let best = columns.iter().map(|c| c[feature]).fold(0.0f64, f64::max);
                assert_eq!(table[aggregate].to_bits(), best.to_bits());
            }
        }
    }

    #[test]
    fn ek_appends_to_input() {
        assert_eq!(classifier_input("q", None), "q");
        assert_eq!(classifier_input("q", Some("k")), "q k");
        assert_eq!(classifier_input("q", Some("")), "q");
    }

    #[test]
    fn structural_flags() {
        let f = features(&db(), "x");
        assert_eq!(f.columns[1][0][7], 1.0, "concert_id is the primary key");
        assert_eq!(f.columns[1][1][8], 1.0, "singer_id is a foreign key");
        assert_eq!(f.columns[1][2][9], 1.0, "year is numeric");
    }

    #[test]
    fn a_mutation_is_seen_by_the_very_next_call() {
        let profiles = Profiles::default();
        let features =
            |db: &Database| profiles.of(db).features(&QuestionProfile::new("singers from Narnia"));
        let mut db = db();
        let before = features(&db);
        assert_eq!(before.columns[COUNTRY.0][COUNTRY.1][6], 0.0);
        let clone = db.clone();

        db.table_mut("singer")
            .unwrap()
            .insert(vec![2.into(), "Lucy".into(), "Narnia".into(), "F".into()])
            .unwrap();
        let after = features(&db);
        assert_eq!(after.columns[COUNTRY.0][COUNTRY.1][6], 1.0);
        // The clone was not mutated and still answers from its own state.
        assert_eq!(features(&clone), before);
    }

    #[test]
    fn an_equal_database_with_its_own_revision_gets_its_own_equal_build() {
        let (a, b) = (db(), db());
        assert_ne!(a.revision(), b.revision());
        let profiles = Profiles::default();
        let (pa, pb) = (profiles.of(&a), profiles.of(&b));
        assert!(!Arc::ptr_eq(&pa, &pb));
        assert!(Arc::ptr_eq(&profiles.of(&b), &pb), "the held profile is reused");
        let question = QuestionProfile::new("which singers from France sang in 2014");
        assert_eq!(pa.features(&question), pb.features(&question));
    }
}
