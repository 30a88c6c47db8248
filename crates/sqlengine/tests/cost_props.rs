//! Property tests over the cost model and the optimizer's structural
//! guarantees, complementing the differential harness in
//! `plan_differential.rs`: these pin down *estimates* (which the harness
//! cannot observe) rather than results.
//!
//! * a `Filter` never increases estimated cardinality;
//! * optimization (pushdown, reordering, hash joins, caps) never increases
//!   the plan's total estimated cost over the naive plan — the optimizer's
//!   final cost guard, asserted from the outside;
//! * join reordering preserves the result schema (binding/column pairs in
//!   output order);
//! * estimates are monotone in catalog row counts: growing base tables
//!   never shrinks an estimate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sqlengine::ast::{BinaryOp, Expr, SetExpr, Statement};
use sqlengine::{
    database_from_script, estimate_node, lower_relation, optimize_select, output_bindings,
    parse_statement, Database, PlanNode,
};

/// Build a 3-table catalog with the given row counts. `t1` and `t2` carry
/// FK edges to `t0` so generated joins have real equi columns.
fn make_db(rows: &[usize; 3]) -> Database {
    let mut script = String::from(
        "CREATE TABLE t0 (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER, name TEXT);\n\
         CREATE TABLE t1 (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER, name TEXT, \
            t0_id INTEGER, FOREIGN KEY (t0_id) REFERENCES t0(id));\n\
         CREATE TABLE t2 (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER, name TEXT, \
            t0_id INTEGER, FOREIGN KEY (t0_id) REFERENCES t0(id));\n",
    );
    for (t, &n) in rows.iter().enumerate() {
        for pk in 1..=n {
            let fk = if t == 0 {
                String::new()
            } else if rows[0] == 0 {
                ", NULL".into()
            } else {
                format!(", {}", 1 + pk % rows[0])
            };
            script.push_str(&format!(
                "INSERT INTO t{t} VALUES ({pk}, {}, {}, 'w{}'{fk});\n",
                pk % 4,
                (pk * 7) % 50,
                pk % 5,
            ));
        }
    }
    database_from_script("props", &script).expect("catalog script")
}

/// Generate a seeded join query over `t0`/`t1`/`t2` (the `make_db` schema).
fn gen_sql(rng: &mut StdRng) -> String {
    let nfactors = rng.random_range(1..=3usize);
    let mut sql = String::from("SELECT f0.id FROM t0 AS f0");
    for i in 1..nfactors {
        let table = rng.random_range(1..=2usize);
        match rng.random_range(0..4u32) {
            0 => sql.push_str(&format!(", t{table} AS f{i}")),
            1 => sql.push_str(&format!(" LEFT JOIN t{table} AS f{i} ON f{i}.t0_id = f0.id")),
            2 => sql.push_str(&format!(" JOIN t{table} AS f{i} ON f{i}.t0_id = f0.id")),
            _ => sql.push_str(&format!(" JOIN t{table} AS f{i} ON f{i}.grp = f0.grp")),
        }
    }
    let mut preds = Vec::new();
    for _ in 0..rng.random_range(0..=2usize) {
        let f = rng.random_range(0..nfactors);
        preds.push(match rng.random_range(0..4u32) {
            0 => format!("f{f}.val < {}", rng.random_range(0..50i64)),
            1 => format!("f{f}.grp = {}", rng.random_range(0..4i64)),
            2 => format!("f{f}.name LIKE 'w%'"),
            _ => format!("f{f}.val BETWEEN 5 AND {}", rng.random_range(5..60i64)),
        });
    }
    if !preds.is_empty() {
        sql.push_str(&format!(" WHERE {}", preds.join(" AND ")));
    }
    if rng.random_bool(0.3) {
        sql.push_str(&format!(" LIMIT {}", rng.random_range(0..=10usize)));
    }
    sql
}

/// Parse a SELECT and produce its naive and optimized relational plans.
fn plans(db: &Database, sql: &str) -> (PlanNode, PlanNode) {
    let Ok(Statement::Query(q)) = parse_statement(sql) else {
        panic!("generated SQL does not parse: {sql}");
    };
    let SetExpr::Select(s) = &q.body else {
        panic!("generated SQL is not a plain SELECT: {sql}");
    };
    let naive = lower_relation(s.from.as_ref(), s.selection.clone());
    let opt = optimize_select(db, s, &q.order_by, q.limit.as_ref(), q.offset.as_ref());
    (naive, opt)
}

/// A pool of predicates with different estimated selectivities.
fn predicate(rng: &mut StdRng) -> Expr {
    let name = ["grp", "val"][rng.random_range(0..2usize)];
    let col = move || Expr::qcol("f0", name);
    match rng.random_range(0..5u32) {
        0 => Expr::binary(col(), BinaryOp::Eq, Expr::lit(1i64)),
        1 => Expr::binary(col(), BinaryOp::Lt, Expr::lit(10i64)),
        2 => Expr::IsNull { expr: Box::new(col()), negated: rng.random_bool(0.5) },
        3 => Expr::Between {
            expr: Box::new(col()),
            low: Box::new(Expr::lit(1i64)),
            high: Box::new(Expr::lit(20i64)),
            negated: false,
        },
        _ => Expr::binary(
            Expr::binary(col(), BinaryOp::Gt, Expr::lit(3i64)),
            BinaryOp::Or,
            Expr::binary(col(), BinaryOp::Eq, Expr::lit(0i64)),
        ),
    }
}

const EPS: f64 = 1e-6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn filter_never_increases_estimated_cardinality(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = make_db(&[
            rng.random_range(0..=40usize),
            rng.random_range(0..=40usize),
            rng.random_range(0..=40usize),
        ]);
        let (naive, opt) = plans(&db, &gen_sql(&mut rng));
        for input in [naive, opt] {
            let before = estimate_node(&db, &input).rows;
            let filtered = PlanNode::Filter {
                input: Box::new(input),
                predicate: predicate(&mut rng),
            };
            let after = estimate_node(&db, &filtered).rows;
            prop_assert!(
                after <= before + EPS,
                "filter raised cardinality estimate: {before} -> {after}"
            );
        }
    }

    #[test]
    fn optimization_never_increases_total_estimated_cost(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = make_db(&[
            rng.random_range(0..=40usize),
            rng.random_range(1..=40usize),
            rng.random_range(1..=40usize),
        ]);
        for _ in 0..10 {
            let sql = gen_sql(&mut rng);
            let (naive, opt) = plans(&db, &sql);
            let naive_cost = estimate_node(&db, &naive).cost.total();
            let opt_cost = estimate_node(&db, &opt).cost.total();
            prop_assert!(
                opt_cost <= naive_cost * (1.0 + EPS) + EPS,
                "optimized plan estimated dearer than naive ({opt_cost} > {naive_cost}) for {sql}"
            );
        }
    }

    #[test]
    fn join_reordering_preserves_result_schema(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = make_db(&[
            rng.random_range(1..=40usize),
            rng.random_range(1..=40usize),
            rng.random_range(1..=40usize),
        ]);
        for _ in 0..10 {
            let sql = gen_sql(&mut rng);
            let (naive, opt) = plans(&db, &sql);
            let naive_schema = output_bindings(&db, &naive);
            let opt_schema = output_bindings(&db, &opt);
            prop_assert!(naive_schema.is_some(), "naive schema unresolvable for {sql}");
            prop_assert!(naive_schema == opt_schema, "schema drift for {sql}");
        }
    }

    #[test]
    fn estimates_are_monotone_in_catalog_row_counts(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let small = [
            rng.random_range(0..=20usize),
            rng.random_range(0..=20usize),
            rng.random_range(0..=20usize),
        ];
        let grow = [
            rng.random_range(0..=20usize),
            rng.random_range(0..=20usize),
            rng.random_range(0..=20usize),
        ];
        let big = [small[0] + grow[0], small[1] + grow[1], small[2] + grow[2]];
        let db_small = make_db(&small);
        let db_big = make_db(&big);
        for _ in 0..10 {
            let sql = gen_sql(&mut rng);
            // The naive plan is identical for both catalogs (it is purely
            // syntactic), so any estimate difference comes from row counts.
            let (naive, _) = plans(&db_small, &sql);
            let est_small = estimate_node(&db_small, &naive);
            let est_big = estimate_node(&db_big, &naive);
            prop_assert!(
                est_small.rows <= est_big.rows + EPS,
                "row estimate shrank as tables grew for {sql}: {} -> {}",
                est_small.rows,
                est_big.rows
            );
            prop_assert!(
                est_small.cost.total() <= est_big.cost.total() + EPS,
                "cost estimate shrank as tables grew for {sql}: {} -> {}",
                est_small.cost.total(),
                est_big.cost.total()
            );
        }
    }
}
