//! Differential query-testing harness: the optimizer is proven correct by
//! running thousands of generated queries under both [`PlanMode::Naive`]
//! (the syntactic reference plan) and [`PlanMode::Optimized`] and requiring
//! observational equivalence.
//!
//! Per seeded run the harness generates random catalogs (1–5 tables with
//! PK/FK edges, skewed row counts, NULLs) and ≥1000 random queries over
//! them (joins of every kind, safe and unsafe predicates, aggregates,
//! `ORDER BY`, `LIMIT`/`OFFSET`). Divergence rules:
//!
//! * `Ok` vs `Ok`: column names, ordered flags and result rows must match —
//!   as multisets, or exactly when both are ordered. A `LIMIT` without
//!   `ORDER BY` is nondeterministic by SQL semantics, so there the harness
//!   checks cardinality plus sub-multiset containment in the un-limited
//!   reference result.
//! * `Ok` vs permanent error (either direction) is a divergence: rewrites
//!   must never invent or swallow statement errors.
//! * Permanent vs permanent: the error kinds must agree.
//! * A transient (budget/shed) failure on either side is allowed: plans
//!   spend resources differently by design.
//!
//! On divergence a greedy minimizer shrinks the failing query (dropping
//! predicates, `LIMIT`, `ORDER BY`, trailing join factors) while the
//! divergence persists, then the test fails printing the seed, the catalog
//! script, the minimal SQL and the engine's `EXPLAIN` of it.

mod querygen;

use querygen::{gen_catalog, gen_spec, Frag, SelectKind, Spec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlengine::{
    database_from_script, execute_query_naive, execute_query_plan, Database, ExecLimits, PlanMode,
    QueryResult,
};

/// Deterministic budgets: no deadline (wall-clock kills would make runs
/// machine-dependent), deterministic row/memory/depth limits tight enough
/// that generated cross joins can trip them.
fn limits() -> ExecLimits {
    ExecLimits {
        deadline: None,
        max_rows: Some(5_000),
        max_intermediate_rows: Some(20_000),
        max_memory_bytes: Some(1 << 20),
        max_recursion_depth: Some(8),
    }
}

// ---------------------------------------------------------------------------
// Differential check
// ---------------------------------------------------------------------------

type RunResult = sqlengine::Result<(QueryResult, sqlengine::ExecStats)>;

fn row_key(row: &[sqlengine::Value]) -> String {
    format!("{row:?}")
}

fn sub_multiset(small: &QueryResult, big: &QueryResult) -> bool {
    let mut counts = std::collections::HashMap::new();
    for row in &big.rows {
        *counts.entry(row_key(row)).or_insert(0usize) += 1;
    }
    small.rows.iter().all(|row| {
        match counts.get_mut(&row_key(row)) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    })
}

/// Run `spec` under both plan modes and describe any divergence.
fn divergence(db: &Database, spec: &Spec) -> Option<String> {
    let sql = spec.to_sql();
    let lim = limits();
    let naive: RunResult = execute_query_naive(db, &sql, &lim);
    let opt: RunResult = execute_query_plan(db, &sql, &lim, PlanMode::Optimized);
    match (naive, opt) {
        (Ok((n, _)), Ok((o, _))) => {
            if n.columns != o.columns {
                return Some(format!("column mismatch: naive {:?} vs optimized {:?}", n.columns, o.columns));
            }
            if n.ordered != o.ordered {
                return Some(format!("ordered-flag mismatch: naive {} vs optimized {}", n.ordered, o.ordered));
            }
            if spec.limit.is_some() && !n.ordered {
                // LIMIT without ORDER BY may pick different rows per plan;
                // require equal cardinality and containment in the
                // un-limited reference result.
                if n.rows.len() != o.rows.len() {
                    return Some(format!(
                        "row-count mismatch under LIMIT: naive {} vs optimized {}",
                        n.rows.len(),
                        o.rows.len()
                    ));
                }
                let mut full_spec = spec.clone();
                full_spec.limit = None;
                if let Ok((full, _)) = execute_query_naive(db, &full_spec.to_sql(), &lim) {
                    if !sub_multiset(&o, &full) || !sub_multiset(&n, &full) {
                        return Some("LIMIT result not contained in un-limited result".into());
                    }
                }
                None
            } else if n.same_result(&o) {
                None
            } else {
                Some(format!(
                    "result mismatch ({} vs {} rows)\nnaive:\n{}\noptimized:\n{}",
                    n.rows.len(),
                    o.rows.len(),
                    n.render(),
                    o.render()
                ))
            }
        }
        (Ok(_), Err(e)) if !e.is_transient() => {
            Some(format!("optimized fails where naive succeeds: {e}"))
        }
        (Err(e), Ok(_)) if !e.is_transient() => {
            Some(format!("naive fails where optimized succeeds: {e}"))
        }
        (Err(a), Err(b)) if !a.is_transient() && !b.is_transient() && a.kind() != b.kind() => {
            Some(format!("error-kind mismatch: naive {} vs optimized {}", a.kind(), b.kind()))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Minimizer
// ---------------------------------------------------------------------------

/// Greedily shrink a failing spec while the divergence persists.
fn minimize(db: &Database, spec: &Spec) -> Spec {
    let mut current = spec.clone();
    loop {
        let mut shrunk = false;
        for candidate in shrink_candidates(&current) {
            if divergence(db, &candidate).is_some() {
                current = candidate;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

fn shrink_candidates(spec: &Spec) -> Vec<Spec> {
    let mut out = Vec::new();
    for i in 0..spec.wheres.len() {
        let mut s = spec.clone();
        s.wheres.remove(i);
        out.push(s);
    }
    if spec.limit.is_some() {
        let mut s = spec.clone();
        s.limit = None;
        out.push(s);
    }
    if spec.order_all {
        let mut s = spec.clone();
        s.order_all = false;
        out.push(s);
    }
    if let SelectKind::Agg { .. } = spec.select {
        let mut s = spec.clone();
        let alias = spec.factors[0].alias.clone();
        s.select = SelectKind::Cols(vec![Frag {
            sql: format!("{alias}.id"),
            aliases: vec![alias],
        }]);
        out.push(s);
    }
    if spec.factors.len() > 1 {
        let mut s = spec.clone();
        let dropped = s.factors.pop().map(|f| f.alias).unwrap_or_default();
        s.wheres.retain(|w| !w.aliases.contains(&dropped));
        let keep = |aliases: &[String]| !aliases.contains(&dropped);
        s.select = match s.select {
            SelectKind::Cols(items) => {
                let mut kept: Vec<Frag> =
                    items.into_iter().filter(|f| keep(&f.aliases)).collect();
                if kept.is_empty() {
                    let alias = s.factors[0].alias.clone();
                    kept.push(Frag { sql: format!("{alias}.id"), aliases: vec![alias] });
                }
                SelectKind::Cols(kept)
            }
            SelectKind::Agg { group, aggs } => SelectKind::Agg {
                group: group.filter(|g| keep(&g.aliases)),
                aggs: {
                    let kept: Vec<Frag> =
                        aggs.into_iter().filter(|a| keep(&a.aliases)).collect();
                    if kept.is_empty() {
                        vec![Frag { sql: "COUNT(*)".into(), aliases: Vec::new() }]
                    } else {
                        kept
                    }
                },
            },
        };
        // Output arity changed; positional ORDER BY and LIMIT are easier
        // to re-shrink in a later pass than to remap.
        s.order_all = false;
        s.limit = None;
        out.push(s);
    }
    out
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

const QUERIES_PER_SEED: usize = 1_000;
const CATALOGS_PER_SEED: usize = 10;

fn run_seed(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let per_catalog = QUERIES_PER_SEED / CATALOGS_PER_SEED;
    for catalog_idx in 0..CATALOGS_PER_SEED {
        let cat = gen_catalog(&mut rng);
        let db = match database_from_script("diff", &cat.script) {
            Ok(db) => db,
            Err(e) => panic!("seed {seed} catalog {catalog_idx}: bad generated script: {e}\n{}", cat.script),
        };
        for _ in 0..per_catalog {
            let spec = gen_spec(&mut rng, &cat);
            if let Some(why) = divergence(&db, &spec) {
                let minimal = minimize(&db, &spec);
                let sql = minimal.to_sql();
                let explain = db.explain(&sql).unwrap_or_else(|e| format!("(explain failed: {e})"));
                panic!(
                    "plan divergence (seed {seed}, catalog {catalog_idx})\n\
                     original SQL: {}\n\
                     minimal SQL:  {sql}\n\
                     divergence:   {}\n\
                     catalog:\n{}\n\
                     EXPLAIN:\n{explain}",
                    spec.to_sql(),
                    divergence(&db, &minimal).unwrap_or(why),
                    cat.script,
                );
            }
        }
    }
}

fn run_seeds(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        run_seed(seed);
    }
}

#[test]
fn differential_seeds_00_04() {
    run_seeds(0..5);
}

#[test]
fn differential_seeds_05_09() {
    run_seeds(5..10);
}

#[test]
fn differential_seeds_10_14() {
    run_seeds(10..15);
}

#[test]
fn differential_seeds_15_19() {
    run_seeds(15..20);
}

#[test]
fn differential_seeds_20_24() {
    run_seeds(20..25);
}

#[test]
fn differential_seeds_25_29() {
    run_seeds(25..30);
}

/// The minimizer itself must terminate and produce a spec that still
/// parses, even on a healthy query (no divergence: candidates all pass).
#[test]
fn minimizer_produces_valid_sql() {
    let mut rng = StdRng::seed_from_u64(42);
    let cat = gen_catalog(&mut rng);
    let _db = database_from_script("diff", &cat.script).expect("catalog script");
    for _ in 0..50 {
        let spec = gen_spec(&mut rng, &cat);
        for candidate in shrink_candidates(&spec) {
            let sql = candidate.to_sql();
            // Every shrink candidate must stay syntactically valid: the
            // minimizer's output is only useful if it still runs.
            let parsed = sqlengine::parse_statement(&sql);
            assert!(parsed.is_ok(), "shrink candidate does not parse: {sql}");
        }
    }
}
