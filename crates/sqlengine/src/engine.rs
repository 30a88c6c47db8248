//! High-level entry points: execute SQL text against a [`Database`].

// Entry points for model-generated SQL: a panic here escapes into beam
// search and evaluation workers. Every fallible case must return an Error.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::ast::{Expr, Statement};
use crate::catalog::{Column, Database, TableSchema};
use crate::cost::ExecStats;
use crate::error::{Error, Result};
use crate::exec::Executor;
use crate::governor::ExecLimits;
use crate::parser::{parse_script, parse_statement};
use crate::plan::PlanMode;
use crate::result::QueryResult;
use crate::types::DataType;
use crate::value::Value;

/// Execute a single `SELECT` query and return its result.
pub fn execute_query(db: &Database, sql: &str) -> Result<QueryResult> {
    execute_query_with_stats(db, sql).map(|(r, _)| r)
}

/// Execute a `SELECT` query, returning the result together with the
/// deterministic execution-cost counters (used by the VES metric).
pub fn execute_query_with_stats(db: &Database, sql: &str) -> Result<(QueryResult, ExecStats)> {
    execute_query_governed(db, sql, &ExecLimits::unlimited())
}

/// Execute a `SELECT` query under resource budgets. This is the entry
/// point for untrusted (model-generated) SQL: a statement that exhausts a
/// budget returns [`Error::BudgetExceeded`] instead of running away.
pub fn execute_query_governed(
    db: &Database,
    sql: &str,
    limits: &ExecLimits,
) -> Result<(QueryResult, ExecStats)> {
    execute_query_plan(db, sql, limits, PlanMode::Optimized)
}

/// Execute a `SELECT` query under resource budgets with an explicit
/// [`PlanMode`]. `PlanMode::Naive` runs the syntactic reference plan; the
/// differential harness compares it against `PlanMode::Optimized`.
pub fn execute_query_plan(
    db: &Database,
    sql: &str,
    limits: &ExecLimits,
    mode: PlanMode,
) -> Result<(QueryResult, ExecStats)> {
    let stmt = parse_statement(sql)?;
    match stmt {
        Statement::Query(q) => {
            let mut exec = Executor::with_mode(db, limits, mode);
            let result = exec.query(&q)?;
            Ok((result, exec.stats))
        }
        other => Err(Error::Exec(format!("expected a query, got {other}"))),
    }
}

/// Execute a `SELECT` query under resource budgets with the naive
/// (syntactic-order, un-rewritten) plan. Reference semantics for the
/// differential harness and the optimizer benchmark baseline.
pub fn execute_query_naive(
    db: &Database,
    sql: &str,
    limits: &ExecLimits,
) -> Result<(QueryResult, ExecStats)> {
    execute_query_plan(db, sql, limits, PlanMode::Naive)
}

/// Pre-price a candidate `SELECT` before spending governor budget on it.
///
/// Lowers and optimizes the statement, estimates its intermediate-row
/// footprint, and returns [`Error::CostShed`] when the estimate exceeds
/// [`crate::optimizer::PREPRICE_SHED_FACTOR`] times the governor's
/// intermediate-row budget — i.e. when even the best plan found is all but
/// certain to die of [`Error::BudgetExceeded`] anyway. Statements that do
/// not parse, are not queries, or have no finite intermediate-row budget
/// return `Ok(())`: pre-pricing only ever sheds work the governor would
/// reject, it never introduces new failure modes.
pub fn preprice_query(db: &Database, sql: &str, limits: &ExecLimits) -> Result<()> {
    match parse_statement(sql) {
        Ok(Statement::Query(q)) => preprice_ast(db, &q, limits),
        _ => Ok(()),
    }
}

/// [`preprice_query`] for an already-parsed query.
pub fn preprice_ast(db: &Database, q: &crate::ast::Query, limits: &ExecLimits) -> Result<()> {
    let Some(budget_rows) = limits.max_intermediate_rows else {
        return Ok(());
    };
    let Ok(plan) = crate::plan::lower_query(db, q, PlanMode::Optimized) else {
        return Ok(());
    };
    let est = crate::cost::estimate_node(db, &plan);
    let threshold = crate::optimizer::PREPRICE_SHED_FACTOR * budget_rows as f64;
    if est.inter_rows > threshold {
        codes_obs::global().counter(crate::optimizer::PLAN_PREPRICE_SHED, &[]).inc();
        return Err(Error::CostShed {
            estimated_rows: est.inter_rows.min(u64::MAX as f64) as u64,
            budget_rows,
        });
    }
    Ok(())
}

/// Execute a parsed query AST directly (used by the generator, which builds
/// ASTs and only serializes them for output).
pub fn execute_ast(db: &Database, query: &crate::ast::Query) -> Result<(QueryResult, ExecStats)> {
    execute_ast_governed(db, query, &ExecLimits::unlimited())
}

/// Execute a parsed query AST under resource budgets.
pub fn execute_ast_governed(
    db: &Database,
    query: &crate::ast::Query,
    limits: &ExecLimits,
) -> Result<(QueryResult, ExecStats)> {
    let mut exec = Executor::with_limits(db, limits);
    let result = exec.query(query)?;
    Ok((result, exec.stats))
}

/// Apply a DDL/DML statement to a database.
pub fn apply_statement(db: &mut Database, stmt: &Statement) -> Result<()> {
    match stmt {
        Statement::CreateTable(ct) => {
            let mut schema = TableSchema::new(ct.name.clone(), Vec::new());
            for cd in &ct.columns {
                let mut col = Column::new(cd.name.clone(), DataType::from_sql_name(&cd.type_name));
                col.primary_key = cd.primary_key || ct.primary_key.iter().any(|p| p.eq_ignore_ascii_case(&cd.name));
                col.not_null = cd.not_null || col.primary_key;
                col.comment = cd.comment.clone();
                schema.columns.push(col);
            }
            for fk in &ct.foreign_keys {
                schema = schema.with_foreign_key(fk.column.clone(), fk.ref_table.clone(), fk.ref_column.clone());
            }
            db.create_table(schema)?;
            Ok(())
        }
        Statement::Insert(ins) => {
            // Evaluate literal expressions first (no live borrow of db needed:
            // INSERT values must be constant).
            let schema_len;
            let col_indexes: Vec<usize>;
            {
                let table = db
                    .table(&ins.table)
                    .ok_or_else(|| Error::UnknownTable(ins.table.clone()))?;
                schema_len = table.schema.columns.len();
                col_indexes = match &ins.columns {
                    None => (0..schema_len).collect(),
                    Some(cols) => {
                        let mut idx = Vec::with_capacity(cols.len());
                        for c in cols {
                            idx.push(table.schema.column_index(c).ok_or_else(|| {
                                Error::Bind(format!("no such column: {}.{}", ins.table, c))
                            })?);
                        }
                        idx
                    }
                };
            }
            let mut materialized = Vec::with_capacity(ins.rows.len());
            for row in &ins.rows {
                if row.len() != col_indexes.len() {
                    return Err(Error::Exec(format!(
                        "INSERT arity mismatch: {} values for {} columns",
                        row.len(),
                        col_indexes.len()
                    )));
                }
                let mut full = vec![Value::Null; schema_len];
                for (expr, &target) in row.iter().zip(&col_indexes) {
                    full[target] = eval_const(expr)?;
                }
                materialized.push(full);
            }
            // The immutable lookup above proved the table exists, but a
            // panic on a stale assumption is exactly what this path must
            // never do — resolve again, fallibly.
            let table = db
                .table_mut(&ins.table)
                .ok_or_else(|| Error::UnknownTable(ins.table.clone()))?;
            for row in materialized {
                table.insert(row)?;
            }
            Ok(())
        }
        Statement::Query(_) => Err(Error::Exec("cannot apply a query as a mutation".into())),
    }
}

/// Evaluate a constant expression (literals, sign, simple arithmetic).
fn eval_const(e: &Expr) -> Result<Value> {
    match e {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Unary { op: crate::ast::UnaryOp::Neg, expr } => eval_const(expr)?.neg(),
        Expr::Binary { left, op, right } => {
            let l = eval_const(left)?;
            let r = eval_const(right)?;
            match op {
                crate::ast::BinaryOp::Add => l.add(&r),
                crate::ast::BinaryOp::Sub => l.sub(&r),
                crate::ast::BinaryOp::Mul => l.mul(&r),
                crate::ast::BinaryOp::Div => l.div(&r),
                _ => Err(Error::Exec("non-constant INSERT value".into())),
            }
        }
        _ => Err(Error::Exec("non-constant INSERT value".into())),
    }
}

/// Run a semicolon-separated DDL/DML script against a database.
pub fn load_script(db: &mut Database, sql: &str) -> Result<()> {
    for stmt in parse_script(sql)? {
        apply_statement(db, &stmt)?;
    }
    Ok(())
}

/// Build a fresh database from a DDL/DML script.
pub fn database_from_script(name: &str, sql: &str) -> Result<Database> {
    let mut db = Database::new(name);
    load_script(&mut db, sql)?;
    Ok(db)
}

/// Serialize a database's schema (and optionally its rows) back to a script
/// that `database_from_script` accepts. Used by test-suite augmentation.
pub fn schema_to_ddl(db: &Database) -> String {
    let mut out = String::new();
    for table in &db.tables {
        out.push_str(&format!("CREATE TABLE {} (", quote_ident(&table.schema.name)));
        let mut parts = Vec::new();
        for c in &table.schema.columns {
            let mut p = format!("{} {}", quote_ident(&c.name), c.data_type.sql_name());
            if c.primary_key {
                p.push_str(" PRIMARY KEY");
            } else if c.not_null {
                p.push_str(" NOT NULL");
            }
            if let Some(comment) = &c.comment {
                p.push_str(&format!(" COMMENT '{}'", comment.replace('\'', "''")));
            }
            parts.push(p);
        }
        for fk in &table.schema.foreign_keys {
            parts.push(format!(
                "FOREIGN KEY ({}) REFERENCES {}({})",
                quote_ident(&fk.column),
                quote_ident(&fk.ref_table),
                quote_ident(&fk.ref_column)
            ));
        }
        out.push_str(&parts.join(", "));
        out.push_str(");\n");
    }
    out
}

fn quote_ident(name: &str) -> String {
    if name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && name.chars().next().is_some_and(|c| !c.is_ascii_digit())
        && !name.is_empty()
    {
        name.to_string()
    } else {
        format!("\"{}\"", name.replace('"', "\"\""))
    }
}
