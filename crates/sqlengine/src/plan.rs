//! Logical query plans: the relational IR the optimizer rewrites and the
//! executor runs.
//!
//! [`lower_relation`] turns the FROM/WHERE portion of a SELECT core into a
//! [`PlanNode`] tree whose naive shape reproduces the pre-plan executor
//! byte-for-byte: factors fold left-to-right in syntactic order, each join
//! keeps its ON predicate, and the whole WHERE clause sits in one `Filter`
//! on top. The optimizer (`crate::optimizer`) rewrites that tree —
//! predicate pushdown, join reordering, hash-join key extraction, LIMIT
//! capping — without changing the bag of rows it produces.
//!
//! [`lower_query`] additionally wraps the relational core with the
//! presentation operators (project/aggregate/sort/limit) so
//! [`Database::explain`] can render the whole pipeline with per-node cost
//! estimates from `crate::cost`.

// Plans are built from model-generated SQL on the inference hot path; a
// panic here escapes into beam search. Every fallible case must return an
// Option/Result, and every public item is documented.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(missing_docs)]

use std::borrow::Cow;

use crate::ast::*;
use crate::catalog::{Database, Table};
use crate::cost;
use crate::error::{Error, Result};
use crate::parser::parse_statement;

/// Which plan the executor runs for each SELECT core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Syntactic join order, WHERE evaluated on top: the reference
    /// semantics the differential harness compares against.
    Naive,
    /// Cost-based rewrites applied (the default execution path).
    Optimized,
}

/// Optimizer-extracted equi-join keys for a hash-join strategy.
///
/// `left_key`/`right_key` index into the join's left/right input scopes.
/// `residual` holds the remaining ON conjuncts, applied to each
/// key-matched pair.
#[derive(Debug, Clone)]
pub struct EquiJoin {
    /// Column index into the left input's scope.
    pub left_key: usize,
    /// Column index into the right input's scope.
    pub right_key: usize,
    /// Non-equi ON conjuncts evaluated on key-matched pairs.
    pub residual: Option<Expr>,
}

/// One node of a logical plan.
///
/// `Scan`/`Derived`/`Filter`/`Join`/`Permute`/`Cap` form the relational
/// core the executor runs; `Project`/`Aggregate`/`Sort`/`Limit` wrap it in
/// the full tree built by [`lower_query`] for EXPLAIN and estimation.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// FROM-less SELECT: a single empty row under an empty scope.
    Empty,
    /// Base-table scan.
    Scan {
        /// Table name as written in the query (case preserved for error
        /// messages).
        table: String,
        /// Lower-cased binding name (alias or table name).
        binding: String,
    },
    /// Derived table: a subquery executed and bound under an alias.
    Derived {
        /// The subquery to execute.
        query: Box<Query>,
        /// Lower-cased binding name.
        binding: String,
    },
    /// Keep only rows where `predicate` is true.
    Filter {
        /// Input node.
        input: Box<PlanNode>,
        /// Predicate evaluated per row against the input scope.
        predicate: Expr,
    },
    /// Join two inputs.
    Join {
        /// Left input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
        /// Inner, left-outer, or cross.
        kind: JoinKind,
        /// Full ON predicate for the nested-loop path (None = cross).
        on: Option<Expr>,
        /// Optimizer-extracted hash keys; None = runtime detection only.
        equi: Option<EquiJoin>,
    },
    /// Reorder output columns back to the pre-rewrite layout.
    Permute {
        /// Input node.
        input: Box<PlanNode>,
        /// `out[i] = row[indices[i]]`.
        indices: Vec<usize>,
    },
    /// Produce at most `cap` rows (optimized LIMIT propagation).
    Cap {
        /// Input node.
        input: Box<PlanNode>,
        /// Maximum rows to produce (LIMIT + OFFSET).
        cap: usize,
    },
    /// Projection wrapper (explain/estimation only).
    Project {
        /// Input node.
        input: Box<PlanNode>,
        /// Select items.
        items: Vec<SelectItem>,
        /// Whether DISTINCT applies.
        distinct: bool,
    },
    /// Aggregation wrapper (explain/estimation only).
    Aggregate {
        /// Input node.
        input: Box<PlanNode>,
        /// GROUP BY expressions.
        group_by: Vec<Expr>,
        /// HAVING predicate.
        having: Option<Expr>,
        /// Aggregate select items.
        items: Vec<SelectItem>,
    },
    /// Sort wrapper (explain/estimation only).
    Sort {
        /// Input node.
        input: Box<PlanNode>,
        /// ORDER BY keys.
        keys: Vec<OrderItem>,
    },
    /// Limit/offset wrapper (explain/estimation only).
    Limit {
        /// Input node.
        input: Box<PlanNode>,
        /// LIMIT expression.
        limit: Option<Expr>,
        /// OFFSET expression.
        offset: Option<Expr>,
    },
}

/// One column visible inside a SELECT core. The name borrows from the
/// catalog (or owns a derived table's output name) and keeps its case;
/// lookups compare it exactly as `str::to_lowercase` would.
#[derive(Debug, Clone)]
pub(crate) struct ScopeCol<'s> {
    /// Lower-cased binding name (table alias or table name).
    pub(crate) binding: &'s str,
    /// Column name as declared, used for `*` expansion and output naming.
    pub(crate) name: Cow<'s, str>,
}

/// The ordered column namespace of a relational node's output.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scope<'s> {
    /// Columns in output order.
    pub(crate) cols: Vec<ScopeCol<'s>>,
}

/// A name as a case-insensitive key: `eq(s)` is `s.to_lowercase() ==
/// name.to_lowercase()`, without allocating when both sides are ASCII.
struct Folded<'n>(Cow<'n, str>);

impl<'n> Folded<'n> {
    fn new(name: &'n str) -> Folded<'n> {
        Folded(if name.is_ascii() { Cow::Borrowed(name) } else { Cow::Owned(name.to_lowercase()) })
    }

    fn eq(&self, s: &str) -> bool {
        // Neither side has an ASCII capital left after `to_lowercase`, so
        // ignoring ASCII case is exact.
        if s.is_ascii() {
            s.eq_ignore_ascii_case(&self.0)
        } else {
            s.to_lowercase().eq_ignore_ascii_case(&self.0)
        }
    }
}

impl<'s> Scope<'s> {
    /// The columns of a base table bound under `binding`.
    pub(crate) fn of_table(table: &'s Table, binding: &'s str) -> Scope<'s> {
        let cols = table.schema.columns.iter();
        Scope { cols: cols.map(|c| ScopeCol { binding, name: Cow::Borrowed(&c.name) }).collect() }
    }

    /// Output columns of a derived table bound under `binding`.
    pub(crate) fn of_names(names: Vec<String>, binding: &'s str) -> Scope<'s> {
        Scope { cols: names.into_iter().map(|n| ScopeCol { binding, name: Cow::Owned(n) }).collect() }
    }

    /// Resolve a (possibly qualified) column reference to its index.
    pub(crate) fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize> {
        let key = Folded::new(name);
        match table {
            Some(t) => {
                let tkey = Folded::new(t);
                self.cols
                    .iter()
                    .position(|c| tkey.eq(c.binding) && key.eq(&c.name))
                    .ok_or_else(|| Error::Bind(format!("no such column: {t}.{name}")))
            }
            None => {
                let mut it = self.cols.iter().enumerate().filter(|(_, c)| key.eq(&c.name));
                match (it.next(), it.next()) {
                    (Some((i, _)), None) => Ok(i),
                    (Some(_), Some(_)) => Err(Error::Bind(format!("ambiguous column: {name}"))),
                    (None, _) => Err(Error::Bind(format!("no such column: {name}"))),
                }
            }
        }
    }

    /// Indices of the columns bound under `binding` (a `t.*` wildcard).
    pub(crate) fn bound_to(&self, binding: &str) -> impl Iterator<Item = usize> + '_ {
        let key = binding.to_lowercase();
        self.cols.iter().enumerate().filter(move |(_, c)| c.binding == key).map(|(i, _)| i)
    }
}

/// The lower-cased binding name a factor introduces.
pub(crate) fn factor_binding(f: &TableFactor) -> String {
    match f {
        TableFactor::Table { name, alias } => alias.as_deref().unwrap_or(name).to_lowercase(),
        TableFactor::Derived { alias, .. } => alias.to_lowercase(),
    }
}

/// Lower one factor into a plan leaf.
pub(crate) fn lower_factor(f: &TableFactor) -> PlanNode {
    match f {
        TableFactor::Table { name, .. } => {
            PlanNode::Scan { table: name.clone(), binding: factor_binding(f) }
        }
        TableFactor::Derived { subquery, alias } => {
            PlanNode::Derived { query: subquery.clone(), binding: alias.to_lowercase() }
        }
    }
}

/// Lower a FROM/WHERE pair into the naive relational plan: factors fold
/// left-to-right exactly as written, each join keeps its ON predicate, and
/// the whole WHERE clause becomes a single top `Filter`. Executing this
/// plan reproduces the pre-plan executor's behaviour (including its lazy
/// "no such table" and bind errors) operator for operator.
pub fn lower_relation(from: Option<&FromClause>, selection: Option<Expr>) -> PlanNode {
    let mut node = match from {
        // SELECT without FROM evaluates over a single empty row.
        None => PlanNode::Empty,
        Some(from) => {
            let mut node = lower_factor(&from.base);
            for join in &from.joins {
                node = PlanNode::Join {
                    left: Box::new(node),
                    right: Box::new(lower_factor(&join.factor)),
                    kind: join.kind,
                    on: join.on.clone(),
                    equi: None,
                };
            }
            node
        }
    };
    if let Some(pred) = selection {
        node = PlanNode::Filter { input: Box::new(node), predicate: pred };
    }
    node
}

/// Lower a whole query into a full plan tree (relational core plus
/// project/aggregate/sort/limit wrappers) for EXPLAIN and estimation.
/// Only plain SELECT bodies are supported; set operations return
/// [`Error::Unsupported`].
pub fn lower_query(db: &Database, q: &Query, mode: PlanMode) -> Result<PlanNode> {
    let s = match &q.body {
        SetExpr::Select(s) => s,
        _ => {
            return Err(Error::Unsupported(
                "plan lowering supports plain SELECT queries only".into(),
            ))
        }
    };
    let relational = match mode {
        PlanMode::Naive => lower_relation(s.from.as_ref(), s.selection.clone()),
        PlanMode::Optimized => crate::optimizer::optimize_select(
            db,
            s,
            &q.order_by,
            q.limit.as_ref(),
            q.offset.as_ref(),
        ),
    };
    let has_aggregate = s
        .projection
        .iter()
        .any(|item| matches!(item, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
        || s.having.as_ref().is_some_and(Expr::contains_aggregate);
    let mut node = if !s.group_by.is_empty() || has_aggregate {
        PlanNode::Aggregate {
            input: Box::new(relational),
            group_by: s.group_by.clone(),
            having: s.having.clone(),
            items: s.projection.clone(),
        }
    } else {
        PlanNode::Project {
            input: Box::new(relational),
            items: s.projection.clone(),
            distinct: s.distinct,
        }
    };
    if !q.order_by.is_empty() {
        node = PlanNode::Sort { input: Box::new(node), keys: q.order_by.clone() };
    }
    if q.limit.is_some() || q.offset.is_some() {
        node = PlanNode::Limit {
            input: Box::new(node),
            limit: q.limit.clone(),
            offset: q.offset.clone(),
        };
    }
    Ok(node)
}

// -- static scopes -----------------------------------------------------------

/// Output column names of a query, computed without executing it. Returns
/// None when a name cannot be determined statically (e.g. a wildcard over
/// an unknown table).
fn derived_columns(db: &Database, q: &Query) -> Option<Vec<String>> {
    match &q.body {
        SetExpr::Select(s) => {
            let bindings = s.from.as_ref().map(from_bindings).unwrap_or_default();
            let scope = match &s.from {
                Some(from) => static_from_scope(db, from, &bindings)?,
                None => Scope::default(),
            };
            let mut out = Vec::new();
            for item in &s.projection {
                match item {
                    SelectItem::Wildcard => {
                        out.extend(scope.cols.iter().map(|c| c.name.to_string()))
                    }
                    SelectItem::QualifiedWildcard(t) => {
                        let start = out.len();
                        out.extend(scope.bound_to(t).map(|i| scope.cols[i].name.to_string()));
                        if out.len() == start {
                            return None;
                        }
                    }
                    SelectItem::Expr { expr, alias } => out.push(match alias {
                        Some(a) => a.clone(),
                        None => match expr {
                            Expr::Column { name, .. } => name.clone(),
                            other => other.to_string(),
                        },
                    }),
                }
            }
            Some(out)
        }
        SetExpr::Nested(inner) => derived_columns(db, inner),
        // Set-operation results carry the left operand's column names.
        SetExpr::SetOp { left, .. } => {
            let probe = crate::cost::wrap_set_expr((**left).clone());
            derived_columns(db, &probe)
        }
    }
}

/// The lower-cased binding of every factor of a FROM clause, in order.
pub(crate) fn from_bindings(from: &FromClause) -> Vec<String> {
    std::iter::once(&from.base).chain(from.joins.iter().map(|j| &j.factor)).map(factor_binding).collect()
}

/// The scope a factor bound under `binding` will have at runtime, computed
/// statically. None when the table is missing or a derived column list
/// cannot be determined — callers must then fall back to the naive plan
/// so the runtime error (or lack of one, for empty inputs) surfaces
/// unchanged.
pub(crate) fn static_factor_scope<'s>(
    db: &'s Database,
    f: &TableFactor,
    binding: &'s str,
) -> Option<Scope<'s>> {
    match f {
        TableFactor::Table { name, .. } => Some(Scope::of_table(db.table(name)?, binding)),
        TableFactor::Derived { subquery, .. } => {
            Some(Scope::of_names(derived_columns(db, subquery)?, binding))
        }
    }
}

/// The combined scope of a whole FROM clause, computed statically;
/// `bindings` is [`from_bindings`] of `from`.
pub(crate) fn static_from_scope<'s>(
    db: &'s Database,
    from: &FromClause,
    bindings: &'s [String],
) -> Option<Scope<'s>> {
    let factors = std::iter::once(&from.base).chain(from.joins.iter().map(|j| &j.factor));
    let mut scope = Scope::default();
    for (f, binding) in factors.zip(bindings) {
        scope.cols.extend(static_factor_scope(db, f, binding)?.cols);
    }
    Some(scope)
}

/// The static output columns of a relational plan node as
/// `(binding, column)` pairs, lower-cased, or None when a leaf cannot be
/// resolved. Used by the schema-preservation property tests.
pub fn output_bindings(db: &Database, node: &PlanNode) -> Option<Vec<(String, String)>> {
    let scope = node_scope(db, node)?;
    Some(scope.cols.into_iter().map(|c| (c.binding.to_string(), c.name.to_lowercase())).collect())
}

/// Static scope of a relational plan node.
fn node_scope<'s>(db: &'s Database, node: &'s PlanNode) -> Option<Scope<'s>> {
    match node {
        PlanNode::Empty => Some(Scope::default()),
        PlanNode::Scan { table, binding } => Some(Scope::of_table(db.table(table)?, binding)),
        PlanNode::Derived { query, binding } => {
            Some(Scope::of_names(derived_columns(db, query)?, binding))
        }
        PlanNode::Filter { input, .. } | PlanNode::Cap { input, .. } => node_scope(db, input),
        PlanNode::Join { left, right, .. } => {
            let mut scope = node_scope(db, left)?;
            scope.cols.extend(node_scope(db, right)?.cols);
            Some(scope)
        }
        PlanNode::Permute { input, indices } => {
            let scope = node_scope(db, input)?;
            let mut cols = Vec::with_capacity(indices.len());
            for &i in indices {
                cols.push(scope.cols.get(i)?.clone());
            }
            Some(Scope { cols })
        }
        PlanNode::Project { .. }
        | PlanNode::Aggregate { .. }
        | PlanNode::Sort { .. }
        | PlanNode::Limit { .. } => None,
    }
}

// -- EXPLAIN rendering -------------------------------------------------------

impl PlanNode {
    fn describe(&self) -> String {
        match self {
            PlanNode::Empty => "Empty".to_string(),
            PlanNode::Scan { table, binding } => {
                if table.to_lowercase() == *binding {
                    format!("Scan {table}")
                } else {
                    format!("Scan {table} AS {binding}")
                }
            }
            PlanNode::Derived { binding, .. } => format!("Derived AS {binding}"),
            PlanNode::Filter { predicate, .. } => format!("Filter {predicate}"),
            PlanNode::Join { kind, on, equi, .. } => {
                let kind = match kind {
                    JoinKind::Inner => "inner",
                    JoinKind::Left => "left",
                    JoinKind::Cross => "cross",
                };
                let strategy = match equi {
                    Some(e) => {
                        let residual = match &e.residual {
                            Some(r) => format!(" residual {r}"),
                            None => String::new(),
                        };
                        format!(" hash(l[{}] = r[{}]){residual}", e.left_key, e.right_key)
                    }
                    None => String::new(),
                };
                match on {
                    Some(on) => format!("Join {kind}{strategy} ON {on}"),
                    None => format!("Join {kind}{strategy}"),
                }
            }
            PlanNode::Permute { indices, .. } => format!("Permute {indices:?}"),
            PlanNode::Cap { cap, .. } => format!("Cap {cap}"),
            PlanNode::Project { items, distinct, .. } => {
                let d = if *distinct { "distinct " } else { "" };
                format!("Project {d}[{} cols]", items.len())
            }
            PlanNode::Aggregate { group_by, .. } => {
                format!("Aggregate [{} group keys]", group_by.len())
            }
            PlanNode::Sort { keys, .. } => format!("Sort [{} keys]", keys.len()),
            PlanNode::Limit { limit, offset, .. } => {
                let l = limit.as_ref().map_or("-".to_string(), |e| e.to_string());
                match offset {
                    Some(o) => format!("Limit {l} OFFSET {o}"),
                    None => format!("Limit {l}"),
                }
            }
        }
    }

    fn children(&self) -> Vec<&PlanNode> {
        match self {
            PlanNode::Empty | PlanNode::Scan { .. } | PlanNode::Derived { .. } => Vec::new(),
            PlanNode::Filter { input, .. }
            | PlanNode::Permute { input, .. }
            | PlanNode::Cap { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Limit { input, .. } => vec![input],
            PlanNode::Join { left, right, .. } => vec![left, right],
        }
    }

    fn render_into(&self, db: &Database, depth: usize, out: &mut String) {
        let est = cost::estimate_node(db, self);
        let indent = "  ".repeat(depth);
        out.push_str(&format!(
            "{indent}{}  (est rows={:.1} cpu={:.1} io={:.1})\n",
            self.describe(),
            est.rows,
            est.cost.cpu,
            est.cost.io
        ));
        for child in self.children() {
            child.render_into(db, depth + 1, out);
        }
    }

    /// Render this plan as an indented tree with per-node cost estimates.
    pub fn render(&self, db: &Database) -> String {
        let mut out = String::new();
        self.render_into(db, 0, &mut out);
        out
    }
}

impl Database {
    /// EXPLAIN-style debug helper: parse `sql`, lower and optimize it, and
    /// return the chosen plan rendered as an indented tree with per-node
    /// cost estimates. Supports plain SELECT statements.
    pub fn explain(&self, sql: &str) -> Result<String> {
        match parse_statement(sql)? {
            Statement::Query(q) => {
                let plan = lower_query(self, &q, PlanMode::Optimized)?;
                Ok(plan.render(self))
            }
            _ => Err(Error::Unsupported("EXPLAIN supports SELECT statements only".into())),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn db() -> Database {
        crate::engine::database_from_script(
            "sample",
            "CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER);\n\
             CREATE TABLE u (id INTEGER PRIMARY KEY, t_id INTEGER, y INTEGER);\n\
             INSERT INTO t VALUES (1, 10);\n\
             INSERT INTO u VALUES (1, 1, 7);",
        )
        .unwrap()
    }

    #[test]
    fn naive_lowering_preserves_syntactic_shape() {
        let db = db();
        let Statement::Query(q) =
            parse_statement("SELECT * FROM t JOIN u ON t.id = u.t_id WHERE u.y > 3").unwrap()
        else {
            panic!("expected query")
        };
        let SetExpr::Select(s) = &q.body else { panic!("expected select") };
        let plan = lower_relation(s.from.as_ref(), s.selection.clone());
        let PlanNode::Filter { input, .. } = &plan else { panic!("expected top filter") };
        let PlanNode::Join { left, right, kind, on, equi } = input.as_ref() else {
            panic!("expected join")
        };
        assert_eq!(*kind, JoinKind::Inner);
        assert!(on.is_some());
        assert!(equi.is_none(), "naive lowering never pre-extracts keys");
        assert!(matches!(left.as_ref(), PlanNode::Scan { .. }));
        assert!(matches!(right.as_ref(), PlanNode::Scan { .. }));
        let _ = db;
    }

    #[test]
    fn static_scope_matches_runtime_layout() {
        let db = db();
        let Statement::Query(q) =
            parse_statement("SELECT * FROM t AS a JOIN u AS b ON a.id = b.t_id").unwrap()
        else {
            panic!("expected query")
        };
        let SetExpr::Select(s) = &q.body else { panic!("expected select") };
        let from = s.from.as_ref().unwrap();
        let bindings = from_bindings(from);
        let scope = static_from_scope(&db, from, &bindings).unwrap();
        let cols: Vec<(String, String)> =
            scope.cols.iter().map(|c| (c.binding.to_string(), c.name.to_string())).collect();
        assert_eq!(
            cols,
            vec![
                ("a".into(), "id".into()),
                ("a".into(), "x".into()),
                ("b".into(), "id".into()),
                ("b".into(), "t_id".into()),
                ("b".into(), "y".into()),
            ]
        );
    }

    #[test]
    fn explain_renders_per_node_estimates() {
        let db = db();
        let text = db.explain("SELECT x FROM t WHERE x > 3 LIMIT 2").unwrap();
        assert!(text.contains("Scan t"), "{text}");
        assert!(text.contains("est rows="), "{text}");
        assert!(text.contains("Limit 2"), "{text}");
    }

    #[test]
    fn explain_rejects_non_select() {
        let db = db();
        assert!(db.explain("INSERT INTO t VALUES (2, 2)").is_err());
    }
}
