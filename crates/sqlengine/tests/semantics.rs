//! Deeper semantic tests: subquery memoization, join evaluation through
//! the pair context, NULL ordering, and cost-model behaviour.

use sqlengine::{
    database_from_script, execute_query, execute_query_with_stats, Database, Value,
};

fn db() -> Database {
    database_from_script(
        "sem",
        "CREATE TABLE a (id INTEGER PRIMARY KEY, x INTEGER, label TEXT);
         CREATE TABLE b (id INTEGER PRIMARY KEY, a_id INTEGER REFERENCES a(id), y INTEGER);
         INSERT INTO a VALUES (1, 10, 'p'), (2, 20, 'q'), (3, 30, NULL), (4, NULL, 'r');
         INSERT INTO b VALUES (1, 1, 5), (2, 1, 15), (3, 2, 25), (4, 9, 1);",
    )
    .unwrap()
}

#[test]
fn scalar_subquery_executes_once_per_statement() {
    let db = db();
    let (result, stats) =
        execute_query_with_stats(&db, "SELECT id FROM a WHERE x > (SELECT AVG(x) FROM a)").unwrap();
    assert_eq!(result.rows.len(), 1); // avg of 10,20,30 = 20; only x=30
    // Memoized: one subquery execution despite 4 candidate rows.
    assert_eq!(stats.subqueries, 1, "scalar subquery must be memoized");
}

#[test]
fn in_subquery_memoized_with_null_semantics() {
    let db = db();
    let (result, stats) =
        execute_query_with_stats(&db, "SELECT id FROM a WHERE id IN (SELECT a_id FROM b)").unwrap();
    assert_eq!(result.rows.len(), 2); // a_id in {1, 2, 9}; ids 1 and 2
    assert_eq!(stats.subqueries, 1);

    // NOT IN with no NULLs in the subquery result: complement works.
    let r = execute_query(&db, "SELECT id FROM a WHERE id NOT IN (SELECT a_id FROM b)").unwrap();
    assert_eq!(r.rows.len(), 2); // ids 3 and 4
    // NOT IN against a set containing NULL yields no rows (3VL).
    let r = execute_query(&db, "SELECT id FROM a WHERE id NOT IN (SELECT x FROM a)").unwrap();
    assert_eq!(r.rows.len(), 0, "NULL in NOT IN set must suppress all rows");
}

#[test]
fn exists_memoized() {
    let db = db();
    let (r, stats) =
        execute_query_with_stats(&db, "SELECT id FROM a WHERE EXISTS (SELECT 1 FROM b WHERE y > 20)").unwrap();
    assert_eq!(r.rows.len(), 4);
    assert_eq!(stats.subqueries, 1);
}

#[test]
fn non_equi_join_through_pair_context() {
    // ON clauses beyond simple equality exercise the un-materialized pair
    // evaluation path.
    let db = db();
    let r = execute_query(
        &db,
        "SELECT T1.id, T2.id FROM a AS T1 JOIN b AS T2 ON T1.x < T2.y ORDER BY T1.id, T2.id",
    )
    .unwrap();
    // x=10: y in {15,25}; x=20: y=25; x=30: none; x=NULL: none.
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0], vec![Value::Integer(1), Value::Integer(2)]);
}

#[test]
fn compound_on_condition() {
    let db = db();
    let r = execute_query(
        &db,
        "SELECT COUNT(*) FROM a AS T1 JOIN b AS T2 ON T1.id = T2.a_id AND T2.y > 10",
    )
    .unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(2)); // (1,15) and (2,25)
}

#[test]
fn left_join_with_filtering_on_clause() {
    let db = db();
    let r = execute_query(
        &db,
        "SELECT T1.id, T2.y FROM a AS T1 LEFT JOIN b AS T2 ON T1.id = T2.a_id AND T2.y > 10 ORDER BY T1.id",
    )
    .unwrap();
    // id=1 matches y=15; id=2 matches y=25; ids 3,4 padded with NULL.
    assert_eq!(r.rows.len(), 4);
    assert!(r.rows[2][1].is_null());
    assert!(r.rows[3][1].is_null());
}

#[test]
fn nulls_sort_first_ascending() {
    let db = db();
    let r = execute_query(&db, "SELECT x FROM a ORDER BY x ASC").unwrap();
    assert!(r.rows[0][0].is_null(), "NULL sorts below all numbers");
    assert_eq!(r.rows[3][0], Value::Integer(30));
    let r = execute_query(&db, "SELECT x FROM a ORDER BY x DESC").unwrap();
    assert!(r.rows[3][0].is_null());
}

#[test]
fn group_by_treats_null_as_its_own_group() {
    let db = db();
    let r = execute_query(&db, "SELECT label, COUNT(*) FROM a GROUP BY label").unwrap();
    assert_eq!(r.rows.len(), 4); // p, q, NULL, r
}

#[test]
fn cost_model_charges_more_for_bigger_work() {
    let db = db();
    let (_, scan) = execute_query_with_stats(&db, "SELECT x FROM a").unwrap();
    let (_, join) = execute_query_with_stats(
        &db,
        "SELECT T1.x FROM a AS T1 JOIN b AS T2 ON T1.id = T2.a_id",
    )
    .unwrap();
    let (_, sorted) =
        execute_query_with_stats(&db, "SELECT x FROM a ORDER BY x DESC").unwrap();
    assert!(join.cost() > scan.cost());
    assert!(sorted.cost() > scan.cost());
    assert!(join.join_pairs > 0);
    assert!(sorted.sort_steps > 0);
}

#[test]
fn aggregate_in_row_context_is_a_bind_error() {
    let db = db();
    let err = execute_query(&db, "SELECT x FROM a WHERE COUNT(*) > 1").unwrap_err();
    assert_eq!(err.kind(), "bind");
}

#[test]
fn division_by_zero_column_yields_null_not_error() {
    let db = db();
    let r = execute_query(&db, "SELECT x / (x - x) FROM a WHERE id = 1").unwrap();
    assert!(r.rows[0][0].is_null());
}

#[test]
fn derived_table_with_aggregate_and_outer_filter() {
    let db = db();
    let r = execute_query(
        &db,
        "SELECT s.a_id FROM (SELECT a_id, SUM(y) AS total FROM b GROUP BY a_id) AS s WHERE s.total > 10",
    )
    .unwrap();
    assert_eq!(r.rows.len(), 2); // a_id=1 total 20; a_id=2 total 25
}

#[test]
fn case_sensitivity_of_text_equality_vs_like() {
    let mut db = db();
    db.table_mut("a").unwrap().rows[0][2] = Value::Text("Praha".into());
    // '=' is case-sensitive, LIKE is not.
    let eq = execute_query(&db, "SELECT id FROM a WHERE label = 'praha'").unwrap();
    assert_eq!(eq.rows.len(), 0);
    let like = execute_query(&db, "SELECT id FROM a WHERE label LIKE 'praha'").unwrap();
    assert_eq!(like.rows.len(), 1);
}

#[test]
fn limit_zero_and_offset_beyond_end() {
    let db = db();
    assert_eq!(execute_query(&db, "SELECT id FROM a LIMIT 0").unwrap().rows.len(), 0);
    assert_eq!(
        execute_query(&db, "SELECT id FROM a ORDER BY id LIMIT 10 OFFSET 99").unwrap().rows.len(),
        0
    );
}

/// Operand widths must match whether or not a side has rows: an
/// empty-sided union bound as a derived table would read shifted cells.
#[test]
fn set_op_column_count_mismatch_is_an_error() {
    let db = db();
    let mismatch = sqlengine::Error::Exec("set operands have different column counts (2 vs 1)".into());
    for sql in [
        "SELECT id, x FROM a UNION SELECT id FROM b",
        "SELECT id, x FROM a WHERE 0 UNION SELECT id FROM b",
        "SELECT id, x FROM a UNION SELECT id FROM b WHERE 0",
        "SELECT id, x FROM a WHERE 0 EXCEPT SELECT id FROM b WHERE 0",
        "SELECT a.id FROM (SELECT id, x FROM a WHERE 0 UNION SELECT id FROM b) AS d \
         JOIN a ON a.id = d.id",
    ] {
        assert_eq!(execute_query(&db, sql).unwrap_err(), mismatch, "{sql}");
    }
}

/// Three rows whose names sort opposite to their ids.
fn g() -> Database {
    database_from_script(
        "g",
        "CREATE TABLE g (id INTEGER PRIMARY KEY, name TEXT);
         INSERT INTO g VALUES (1, 'c'), (2, 'b'), (3, 'a');",
    )
    .unwrap()
}

/// An ORDER BY alias and a GROUP BY position name output columns, which a
/// wildcard before them widens.
#[test]
fn order_and_group_terms_name_output_columns() {
    let db = g();
    let ids = |sql: &str| -> Vec<Value> {
        let r = execute_query(&db, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        r.rows.iter().map(|row| row[0].clone()).collect()
    };
    let one_two_three: Vec<Value> = (1..=3).map(Value::Integer).collect();
    assert_eq!(ids("SELECT *, id AS x FROM g ORDER BY x"), one_two_three);
    assert_eq!(ids("SELECT g.*, id AS x FROM g ORDER BY x"), one_two_three);
    let r = execute_query(&db, "SELECT *, 1 AS x ORDER BY x").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Integer(1)]]);
    // Position 3 is `name AS k`: three groups, one per name.
    let r = execute_query(&db, "SELECT *, name AS k FROM g GROUP BY 3 ORDER BY k").unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0][2], Value::Text("a".into()));
    // Position 2 is the wildcard's `name`.
    assert_eq!(ids("SELECT * FROM g GROUP BY 2 ORDER BY name").len(), 3);
    let err = execute_query(&db, "SELECT *, name AS k FROM g GROUP BY 4").unwrap_err();
    assert_eq!(err, sqlengine::Error::Bind("GROUP BY position 4 out of range".into()));
}

/// Column references bind lazily: a bad reference fails only when a row
/// evaluates it, so an empty input, a short-circuited conjunct or an
/// unreached disjunct never raises it. SQLite rejects all five at prepare;
/// the executability verdicts of generated SQL rest on this behaviour.
#[test]
fn bind_errors_are_raised_only_by_evaluated_rows() {
    let db = database_from_script(
        "lazy",
        "CREATE TABLE e (a INTEGER, b TEXT);
         CREATE TABLE t (a INTEGER, b TEXT);
         INSERT INTO t VALUES (1, 'x'), (2, 'y');",
    )
    .unwrap();
    for sql in [
        "SELECT nosuch FROM e",
        "SELECT a FROM e WHERE nosuch = 1",
        "SELECT a FROM t WHERE 0 AND nosuch = 1",
        "SELECT a FROM e GROUP BY nosuch",
    ] {
        let r = execute_query(&db, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert!(r.rows.is_empty(), "{sql}");
    }
    // Row 1 satisfies `a = 1`, so OR never reads `nosuch`; row 2 does.
    let err = execute_query(&db, "SELECT a FROM t WHERE a = 1 OR nosuch = 1").unwrap_err();
    assert_eq!(err, sqlengine::Error::Bind("no such column: nosuch".into()));
}
