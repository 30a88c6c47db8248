//! The coarse-to-fine value retriever of §6.2.
//!
//! Coarse stage: a BM25 index over every distinct text value in the
//! database pulls a few hundred candidates for a question. Fine stage: the
//! longest-common-substring matching degree re-ranks those candidates, and
//! the best matches per column are serialized into the database prompt as
//! `table.column = 'value'` hints.

use std::sync::Arc;

use codes_nlp::match_degree;
use sqlengine::Database;

use crate::bm25::Bm25Index;

/// A question-matched database value.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueMatch {
    /// Table holding the value.
    pub table: String,
    /// Column holding the value.
    pub column: String,
    /// The stored value text.
    pub value: String,
    /// LCS matching degree in [0, 1].
    pub degree: f64,
}

impl ValueMatch {
    /// Prompt rendering: `table.column = 'value'`.
    pub fn render(&self) -> String {
        format!("{}.{} = '{}'", self.table, self.column, self.value.replace('\'', "''"))
    }
}

/// Pre-built index over all distinct text values of one database.
pub struct ValueIndex {
    corpus: Arc<Corpus>,
    built_revision: u64,
}

/// The indexed values and their BM25 index.
struct Corpus {
    index: Bm25Index,
    entries: Vec<(String, String, String)>, // (table, column, value)
}

impl ValueIndex {
    /// Index every distinct text value of `db`.
    pub fn build(db: &Database) -> ValueIndex {
        ValueIndex::build_reusing(db, None)
    }

    /// Index `db`, taking over `previous`'s BM25 index whole when `db`
    /// still holds exactly its values (compared in full, not hashed). The
    /// result equals [`ValueIndex::build`]'s, bit for bit.
    pub fn build_reusing(db: &Database, previous: Option<&ValueIndex>) -> ValueIndex {
        let entries = db.text_values();
        let corpus = match previous {
            Some(p) if p.corpus.entries == entries => Arc::clone(&p.corpus),
            _ => {
                let mut index = Bm25Index::new();
                for (_, _, value) in &entries {
                    index.add_document(value);
                }
                Arc::new(Corpus { index, entries })
            }
        };
        ValueIndex { corpus, built_revision: db.revision() }
    }

    /// The catalog revision this index was built from. An index is current
    /// for `db` iff `built_revision == db.revision()`; any mismatch means
    /// the database mutated since the build and the index must be rebuilt.
    pub fn built_revision(&self) -> u64 {
        self.built_revision
    }

    /// Every indexed `(table, column, value)`, in document order.
    pub fn entries(&self) -> &[(String, String, String)] {
        &self.corpus.entries
    }

    /// Number of indexed values.
    pub fn len(&self) -> usize {
        self.corpus.entries.len()
    }

    /// True when the database had no text values.
    pub fn is_empty(&self) -> bool {
        self.corpus.entries.is_empty()
    }

    /// Coarse-to-fine retrieval: BM25 narrows the candidate set to
    /// `coarse_k` values, LCS re-ranks them, and the best `fine_k` distinct
    /// (table, column) matches with degree >= `min_degree` are returned.
    pub fn retrieve(&self, question: &str, coarse_k: usize, fine_k: usize, min_degree: f64) -> Vec<ValueMatch> {
        let hits = self.corpus.index.search(question, coarse_k);
        let mut matches: Vec<ValueMatch> = hits
            .into_iter()
            .map(|h| {
                let (table, column, value) = &self.corpus.entries[h.doc];
                ValueMatch {
                    table: table.clone(),
                    column: column.clone(),
                    value: value.clone(),
                    degree: match_degree(question, value),
                }
            })
            .filter(|m| m.degree >= min_degree)
            .collect();
        rank_and_dedupe(&mut matches);
        matches.truncate(fine_k);
        matches
    }

    /// Reference implementation without the coarse filter: LCS over every
    /// value. Same output contract as [`ValueIndex::retrieve`]; used by the
    /// §6.2 speedup benchmark and the correctness tests.
    pub fn retrieve_exhaustive(&self, question: &str, fine_k: usize, min_degree: f64) -> Vec<ValueMatch> {
        let mut matches: Vec<ValueMatch> = self
            .corpus
            .entries
            .iter()
            .map(|(table, column, value)| ValueMatch {
                table: table.clone(),
                column: column.clone(),
                value: value.clone(),
                degree: match_degree(question, value),
            })
            .filter(|m| m.degree >= min_degree)
            .collect();
        rank_and_dedupe(&mut matches);
        matches.truncate(fine_k);
        matches
    }
}

/// Sort by degree descending (ties: longer value first — more specific),
/// keeping only the best match per (table, column).
fn rank_and_dedupe(matches: &mut Vec<ValueMatch>) {
    matches.sort_by(|a, b| {
        b.degree
            .total_cmp(&a.degree)
            .then(b.value.len().cmp(&a.value.len()))
            .then(a.table.cmp(&b.table))
            .then(a.column.cmp(&b.column))
            .then(a.value.cmp(&b.value))
    });
    let mut seen = std::collections::HashSet::new();
    matches.retain(|m| seen.insert((m.table.clone(), m.column.clone())));
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::database_from_script;

    fn bank_db() -> Database {
        database_from_script(
            "bank",
            r#"
            CREATE TABLE district (
                district_id INTEGER PRIMARY KEY,
                a2 TEXT COMMENT 'district name',
                a3 TEXT COMMENT 'region'
            );
            CREATE TABLE client (
                client_id INTEGER PRIMARY KEY,
                gender TEXT,
                district_id INTEGER REFERENCES district(district_id)
            );
            INSERT INTO district VALUES
                (1, 'Jesenik', 'north Moravia'),
                (2, 'Praha', 'Prague'),
                (3, 'Jablonec nad Nisou', 'north Bohemia'),
                (4, 'Pisek', 'south Bohemia');
            INSERT INTO client VALUES (1, 'F', 1), (2, 'M', 1), (3, 'F', 2);
            "#,
        )
        .unwrap()
    }

    #[test]
    fn paper_example_retrieves_jesenik() {
        let db = bank_db();
        let idx = ValueIndex::build(&db);
        let matches = idx.retrieve(
            "How many clients opened their accounts in Jesenik branch were women?",
            100,
            5,
            0.5,
        );
        assert!(!matches.is_empty());
        assert_eq!(matches[0].value, "Jesenik");
        assert_eq!(matches[0].table, "district");
        assert_eq!(matches[0].column, "a2");
        assert!((matches[0].degree - 1.0).abs() < 1e-12);
        assert_eq!(matches[0].render(), "district.a2 = 'Jesenik'");
    }

    #[test]
    fn coarse_to_fine_matches_exhaustive_on_hits() {
        let db = bank_db();
        let idx = ValueIndex::build(&db);
        let q = "accounts in Jesenik branch";
        let fast = idx.retrieve(q, 100, 3, 0.5);
        let slow = idx.retrieve_exhaustive(q, 3, 0.5);
        assert_eq!(fast, slow);
    }

    #[test]
    fn min_degree_filters_weak_matches() {
        let db = bank_db();
        let idx = ValueIndex::build(&db);
        let matches = idx.retrieve("north side", 100, 10, 0.99);
        assert!(matches.iter().all(|m| m.degree >= 0.99));
    }

    #[test]
    fn one_match_per_column() {
        let db = bank_db();
        let idx = ValueIndex::build(&db);
        // Both 'north Moravia' and 'north Bohemia' are in a3; only the best
        // should survive.
        let matches = idx.retrieve("north Moravia", 100, 10, 0.3);
        let a3: Vec<_> = matches.iter().filter(|m| m.column == "a3").collect();
        assert_eq!(a3.len(), 1);
        assert_eq!(a3[0].value, "north Moravia");
    }

    #[test]
    fn numeric_columns_not_indexed() {
        let db = bank_db();
        let idx = ValueIndex::build(&db);
        // district_id values are integers; only text values are indexed:
        // 4 a2 + 4 a3 + 2 gender (F/M distinct)
        assert_eq!(idx.len(), 10);
    }

    #[test]
    fn render_escapes_quotes() {
        let m = ValueMatch {
            table: "t".into(),
            column: "c".into(),
            value: "O'Brien".into(),
            degree: 1.0,
        };
        assert_eq!(m.render(), "t.c = 'O''Brien'");
    }
}
