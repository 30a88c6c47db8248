//! A BM25 search is deterministic, and a value index rebuilt from its
//! predecessor after any write equals a fresh build bit for bit, taking
//! over the predecessor's BM25 index exactly when no indexed value changed.

use codes_retrieval::{Bm25Index, ValueIndex, ValueMatch};
use proptest::prelude::*;
use sqlengine::{Column, DataType, Database, TableSchema, Value};

const VOCABULARY: [&str; 16] = [
    "north", "south", "east", "west", "Moravia", "Bohemia", "Praha", "Jesenik", "branch",
    "district", "Pisek", "Nisou", "nad", "Jablonec", "region", "central",
];

/// A few vocabulary words picked by the bits of `seed`, with repeats.
fn phrase(seed: u64, max_words: u64) -> String {
    let n = 1 + seed % max_words;
    (0..n).map(|i| VOCABULARY[((seed >> (4 + 4 * i)) % 16) as usize]).collect::<Vec<_>>().join(" ")
}

/// A deterministic word stream (64-bit LCG).
fn stream(seed: u64) -> impl Iterator<Item = u64> {
    let mut state = seed;
    std::iter::repeat_with(move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 11
    })
}

fn bits(hits: &[codes_retrieval::SearchHit]) -> Vec<(usize, u64)> {
    hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
}

/// Documents matching three or more query terms sum three or more
/// contributions; the sum's bits depend on the order the terms are
/// visited in, so that order must not change between calls.
#[test]
fn a_search_returns_the_same_bits_every_time_and_on_a_rebuilt_index() {
    let docs: Vec<String> = stream(0x5EED).take(300).map(|w| phrase(w, 6)).collect();
    let build = || {
        let mut index = Bm25Index::new();
        for doc in &docs {
            index.add_document(doc);
        }
        index
    };
    let index = build();
    for query in stream(0xC0DE5).take(8).map(|w| phrase(w, 9)) {
        let first = bits(&index.search(&query, 40));
        assert!(!first.is_empty(), "{query}");
        for round in 0..100 {
            assert_eq!(bits(&index.search(&query, 40)), first, "{query}, round {round}");
        }
        assert_eq!(bits(&build().search(&query, 40)), first, "{query}, rebuilt");
    }
}

// ---------------------------------------------------------------------
// Index reuse.
// ---------------------------------------------------------------------

const QUESTIONS: [&str; 5] = [
    "How many clients opened accounts in Jesenik branch?",
    "north Moravia district",
    "Praha east central region",
    "south Bohemia Jablonec nad Nisou west",
    "nothing in the vocabulary",
];

fn add_table(db: &mut Database, name: &str, seed: u64) {
    let schema = TableSchema::new(
        name,
        vec![
            Column::new("id", DataType::Integer).primary_key(),
            Column::new("name", DataType::Text),
            Column::new("region", DataType::Text),
        ],
    );
    let table = db.create_table(schema).expect("fresh table");
    for (j, w) in stream(seed).take((seed % 12) as usize).enumerate() {
        let region = if w % 5 == 0 { Value::Null } else { phrase(w >> 20, 2).into() };
        table.insert(vec![(j as i64).into(), phrase(w, 3).into(), region]).expect("row fits");
    }
}

/// One write: a row inserted, updated or deleted, a table added or
/// dropped, or a column renamed.
fn write(db: &mut Database, w: u64, step: usize) {
    if w % 6 == 3 || db.tables.is_empty() {
        add_table(db, &format!("added{step}"), w >> 8);
        return;
    }
    let victim = db.tables[(w >> 8) as usize % db.tables.len()].schema.name.clone();
    let text: Value = phrase(w >> 16, 3).into();
    match w % 6 {
        0 => {
            let table = db.table_mut(&victim).expect("listed");
            let id = table.rows.len() as i64 + 1000;
            table.insert(vec![id.into(), text, Value::Null]).expect("row fits");
        }
        1 => {
            let table = db.table_mut(&victim).expect("listed");
            let n = table.rows.len();
            if n > 0 {
                table.rows[(w >> 40) as usize % n][1 + (w >> 50) as usize % 2] = text;
            }
        }
        2 => {
            let table = db.table_mut(&victim).expect("listed");
            let n = table.rows.len();
            if n > 0 {
                table.rows.remove((w >> 40) as usize % n);
            }
        }
        4 => {
            db.tables.retain(|t| t.schema.name != victim);
            db.bump_revision();
        }
        _ => {
            let table = db.table_mut(&victim).expect("listed");
            table.schema.columns[1 + (w >> 40) as usize % 2].name = format!("renamed{step}");
        }
    }
}

fn match_bits(matches: Vec<ValueMatch>) -> Vec<(String, String, String, u64)> {
    matches.into_iter().map(|m| (m.table, m.column, m.value, m.degree.to_bits())).collect()
}

fn assert_equal(reused: &ValueIndex, fresh: &ValueIndex) {
    assert_eq!(reused.entries(), fresh.entries());
    assert_eq!(reused.built_revision(), fresh.built_revision());
    for question in QUESTIONS {
        for coarse_k in [1, 3, 100] {
            assert_eq!(
                match_bits(reused.retrieve(question, coarse_k, 5, 0.3)),
                match_bits(fresh.retrieve(question, coarse_k, 5, 0.3)),
                "{question}, coarse_k {coarse_k}"
            );
        }
        assert_eq!(
            match_bits(reused.retrieve_exhaustive(question, 5, 0.3)),
            match_bits(fresh.retrieve_exhaustive(question, 5, 0.3)),
            "{question}, exhaustive"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every write, the index rebuilt from its predecessor equals a
    /// fresh build (entries, and retrieval to the bit), and it shares its
    /// predecessor's BM25 index exactly when the indexed values are equal.
    #[test]
    fn a_reusing_rebuild_equals_a_fresh_build_after_every_write(
        words in prop::collection::vec(0u64..u64::MAX, 1..20),
    ) {
        let mut db = Database::new("d");
        for (i, &w) in words.iter().take(3).enumerate() {
            add_table(&mut db, &format!("t{i}"), w);
        }
        let mut index = ValueIndex::build(&db);
        assert_equal(&index, &ValueIndex::build(&db));
        for (step, &w) in words.iter().enumerate() {
            write(&mut db, w, step);
            let next = ValueIndex::build_reusing(&db, Some(&index));
            let fresh = ValueIndex::build(&db);
            assert_equal(&next, &fresh);
            prop_assert_eq!(shares(&next, &index), index.entries() == fresh.entries());
            index = next;
        }
    }
}

/// Whether two indexes hold one BM25 index between them.
fn shares(a: &ValueIndex, b: &ValueIndex) -> bool {
    std::ptr::eq(a.entries(), b.entries())
}

/// A write that changes no distinct text value keeps the index; one that
/// changes a value rebuilds it.
#[test]
fn a_write_that_keeps_every_value_keeps_the_index() {
    let mut db = Database::new("d");
    for (i, seed) in [11u64, 23, 35].into_iter().enumerate() {
        add_table(&mut db, &format!("t{i}"), seed);
    }
    let first = ValueIndex::build(&db);
    let table = db.table_mut("t1").expect("t1");
    let copy = table.rows[0].clone();
    table.insert(copy).expect("a duplicate row fits");
    let same = ValueIndex::build_reusing(&db, Some(&first));
    assert!(shares(&first, &same));
    assert_eq!(same.built_revision(), db.revision());

    db.table_mut("t1").expect("t1").rows[0][1] = "Narnia".into();
    let moved = ValueIndex::build_reusing(&db, Some(&same));
    assert!(!shares(&same, &moved));
    assert_eq!(moved.retrieve("Narnia", 10, 1, 0.9)[0].table, "t1");
}
