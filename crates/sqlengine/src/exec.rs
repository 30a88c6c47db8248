//! Tree-walking query executor with deterministic cost accounting.
//!
//! Rows are read where they lie. A working row is a run of parts, each the
//! cells of one base-table row or of one shared derived-table row: a scan
//! copies nothing, a filter keeps the rows it is handed, and a join output
//! lists its inputs' parts instead of copying their cells. Every operator
//! binds the column references of the expressions it evaluates to slot
//! indices before its row loop, and expressions evaluate to borrowed
//! values, so filters, comparisons, `LIKE`, `IN`, group keys and aggregate
//! arguments read cells in place. A cell is cloned only when it goes into
//! the returned [`QueryResult`] or a computed sort key.
//!
//! Execution is governed: the executor consults its [`Governor`] at every
//! operator boundary (scan, join pair, grouped row, projected row, nested
//! query) so runaway statements fail with [`Error::BudgetExceeded`] instead
//! of wedging the process. Rows held by reference charge the bytes they
//! would occupy materialized, so budgets do not depend on the
//! representation. `Executor::new` runs ungoverned (unlimited budgets);
//! untrusted/generated SQL goes through [`Executor::with_limits`].

// This module executes model-generated SQL; a panic here escapes into beam
// search and evaluation workers. Every fallible case must return an Error.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use crate::ast::*;
use crate::catalog::Database;
use crate::cost::{ExecStats, HASH_JOIN_THRESHOLD};
use crate::error::{Error, Result};
use crate::functions::{concat_text, eval_scalar, like_match};
use crate::governor::{ExecLimits, Governor};
use crate::plan::{PlanMode, PlanNode, Scope};
use crate::result::QueryResult;
use crate::types::DataType;
use crate::value::{Row, Value};

/// Executes queries against one database, accumulating [`ExecStats`].
pub struct Executor<'a> {
    db: &'a Database,
    /// Counters accumulated across every statement this executor ran.
    pub stats: ExecStats,
    /// Resource budgets, consulted at operator boundaries.
    gov: Governor,
    /// Which relational plan each SELECT core runs (naive or optimized).
    mode: PlanMode,
    /// Plans executed by this executor. Derived-table subqueries inside a
    /// plan are cloned ASTs whose addresses key the subquery caches below;
    /// keeping every plan alive for the executor's lifetime keeps those
    /// keys from being reused by a later allocation.
    plan_arena: Vec<Rc<PlanNode>>,
    /// Uncorrelated subqueries are evaluated once and memoized (keyed by
    /// AST address, which is stable for the duration of one execution).
    scalar_cache: HashMap<usize, Value>,
    in_cache: HashMap<usize, (HashSet<Value>, bool)>,
    exists_cache: HashMap<usize, bool>,
}

static NULL: Value = Value::Null;

/// The cells of one base-table row, or of one derived-table row shared by
/// every working row that reads it.
#[derive(Clone)]
enum Part<'a> {
    Table(&'a [Value]),
    Shared(Rc<[Value]>),
}

impl Part<'_> {
    fn cells(&self) -> &[Value] {
        match self {
            Part::Table(cells) => cells,
            Part::Shared(cells) => cells,
        }
    }
}

/// A working row: the cells of its parts, end to end. A scan row is one
/// part; a join output row lists the parts of its left then right input.
#[derive(Clone)]
struct WorkRow<'a> {
    head: Part<'a>,
    tail: Vec<Part<'a>>,
}

impl<'a> WorkRow<'a> {
    fn table(cells: &'a [Value]) -> WorkRow<'a> {
        WorkRow { head: Part::Table(cells), tail: Vec::new() }
    }

    fn shared(cells: Row) -> WorkRow<'a> {
        WorkRow { head: Part::Shared(cells.into()), tail: Vec::new() }
    }

    fn parts(&self) -> impl Iterator<Item = &Part<'a>> {
        std::iter::once(&self.head).chain(&self.tail)
    }

    fn len(&self) -> usize {
        self.parts().map(|p| p.cells().len()).sum()
    }

    fn cell(&self, mut idx: usize) -> Option<&Value> {
        for part in self.parts() {
            let cells = part.cells();
            if idx < cells.len() {
                return Some(&cells[idx]);
            }
            idx -= cells.len();
        }
        None
    }

    /// This row followed by `right`, sharing both rows' cells.
    fn join(&self, right: &WorkRow<'a>) -> WorkRow<'a> {
        let mut tail = Vec::with_capacity(self.tail.len() + 1 + right.tail.len());
        tail.extend(self.tail.iter().cloned());
        tail.extend(right.parts().cloned());
        WorkRow { head: self.head.clone(), tail }
    }

    /// The approximate footprint the row would have materialized.
    fn bytes(&self) -> u64 {
        self.parts().map(|p| row_bytes(p.cells())).sum()
    }

    /// The row whose cell `k` is `self.cell(indices[k])`, built by
    /// reordering whole parts; None when `indices` splits a part. The
    /// optimizer permutes only whole base-table rows.
    fn permuted(&self, indices: &[usize]) -> Option<WorkRow<'a>> {
        let mut row = WorkRow::table(&[]);
        let mut k = 0;
        while k < indices.len() {
            let part = self.part_starting_at(indices[k])?;
            let run = part.cells().len();
            if indices.len() < k + run || (0..run).any(|j| indices[k + j] != indices[k] + j) {
                return None;
            }
            if k == 0 {
                row.head = part.clone();
            } else {
                row.tail.push(part.clone());
            }
            k += run;
        }
        Some(row)
    }

    /// The non-empty part whose first cell is cell `idx`.
    fn part_starting_at(&self, idx: usize) -> Option<&Part<'a>> {
        let mut start = 0;
        for part in self.parts() {
            let len = part.cells().len();
            if start == idx && len > 0 {
                return Some(part);
            }
            start += len;
        }
        None
    }
}

/// A SELECT core's output units in production order: their projected rows,
/// and their ORDER BY keys laid end to end (one per ORDER BY term).
#[derive(Default)]
struct Units {
    rows: Vec<Row>,
    keys: Vec<Value>,
}

/// The rows of one group: all of `rows`, or the chain that starts at
/// `first` and follows `next` (`NO_ROW` ends it).
#[derive(Clone, Copy)]
struct Group<'r, 'a> {
    rows: &'r [WorkRow<'a>],
    first: usize,
    next: Option<&'r [usize]>,
}

const NO_ROW: usize = usize::MAX;

impl<'r, 'a> Group<'r, 'a> {
    fn all(rows: &'r [WorkRow<'a>]) -> Group<'r, 'a> {
        Group { rows, first: if rows.is_empty() { NO_ROW } else { 0 }, next: None }
    }

    fn iter(&self) -> impl Iterator<Item = &'r WorkRow<'a>> {
        let (rows, next) = (self.rows, self.next);
        let start = (self.first != NO_ROW).then_some(self.first);
        std::iter::successors(start, move |&i| {
            let j = next.map_or(i + 1, |next| next[i]);
            (j < rows.len()).then_some(j)
        })
        .map(move |i| &rows[i])
    }
}

/// Evaluation context: a single row, an un-materialized join pair, or a
/// group of rows (aggregate queries). In group context, bare columns read
/// from the group's first row (SQLite semantics).
enum Ctx<'r, 'a> {
    Row(&'r WorkRow<'a>),
    /// A candidate join row: left part + right part (not yet joined).
    Pair(&'r WorkRow<'a>, &'r WorkRow<'a>),
    Group(Group<'r, 'a>),
}

impl<'r, 'a> Ctx<'r, 'a> {
    fn cell(&self, idx: usize) -> Option<&'r Value> {
        match self {
            Ctx::Row(r) => r.cell(idx),
            Ctx::Pair(l, r) => {
                let left = l.len();
                if idx < left {
                    l.cell(idx)
                } else {
                    r.cell(idx - left)
                }
            }
            Ctx::Group(group) => group.iter().next().and_then(|r| r.cell(idx)),
        }
    }
}

/// The column references of the expressions one operator evaluates,
/// resolved against its input scope before its row loop. A reference that
/// does not resolve keeps its error, raised only if a row evaluates it.
struct Bound {
    slots: Vec<(*const Expr, Result<usize>)>,
}

impl Bound {
    fn new<'e>(scope: &Scope<'_>, exprs: impl IntoIterator<Item = &'e Expr>) -> Bound {
        fn visit(e: &Expr, scope: &Scope<'_>, slots: &mut Vec<(*const Expr, Result<usize>)>) {
            match e {
                Expr::Column { table, name } => {
                    slots.push((e as *const Expr, scope.resolve(table.as_deref(), name)))
                }
                Expr::Literal(_) | Expr::ScalarSubquery(_) | Expr::Exists { .. } => {}
                Expr::Unary { expr, .. }
                | Expr::InSubquery { expr, .. }
                | Expr::IsNull { expr, .. }
                | Expr::Cast { expr, .. } => visit(expr, scope, slots),
                Expr::Binary { left: a, right: b, .. } | Expr::Like { expr: a, pattern: b, .. } => {
                    visit(a, scope, slots);
                    visit(b, scope, slots);
                }
                Expr::Between { expr, low, high, .. } => {
                    for x in [expr, low, high] {
                        visit(x, scope, slots);
                    }
                }
                Expr::Function { args: list, .. } => {
                    list.iter().for_each(|x| visit(x, scope, slots))
                }
                Expr::InList { expr, list, .. } => {
                    visit(expr, scope, slots);
                    list.iter().for_each(|x| visit(x, scope, slots));
                }
                Expr::Case { operand, branches, else_expr } => {
                    operand.iter().for_each(|x| visit(x, scope, slots));
                    for (cond, result) in branches {
                        visit(cond, scope, slots);
                        visit(result, scope, slots);
                    }
                    else_expr.iter().for_each(|x| visit(x, scope, slots));
                }
            }
        }
        let mut slots = Vec::new();
        for e in exprs {
            visit(e, scope, &mut slots);
        }
        Bound { slots }
    }

    fn slot(&self, column: &Expr) -> Result<usize> {
        match self.slots.iter().find(|(e, _)| std::ptr::eq(*e, column)) {
            Some((_, slot)) => slot.clone(),
            None => Err(Error::Internal(format!("column {column} evaluated outside its binding"))),
        }
    }
}

/// One projection item, bound: every scope column, the columns of one
/// binding (or the wildcard's error when it names none), or an expression.
enum Item<'e> {
    All(usize),
    Columns(Vec<usize>),
    NoSuchTable(&'e str),
    Expr(&'e Expr),
}

/// A GROUP BY term, bound: the expression it groups by (itself, or the
/// projection expression its alias or position names), the source slot a
/// position names inside a wildcard, or the error its position raises.
enum GroupKey<'e> {
    Expr(&'e Expr),
    Slot(usize),
    Invalid(Error),
}

/// An ORDER BY term of a SELECT core, bound: a projected value (its
/// offset in the output row, named by position or alias) or an expression
/// over the source scope.
enum OrderKey<'e> {
    Output(usize),
    Expr(&'e Expr),
}

/// A SELECT core's clauses bound to its FROM scope once, before its rows
/// are grouped and projected.
struct SelectBinding<'e> {
    bound: Bound,
    items: Vec<Item<'e>>,
    /// Values per projected row.
    width: usize,
    group_keys: Vec<GroupKey<'e>>,
    order_keys: Vec<OrderKey<'e>>,
}

impl<'e> SelectBinding<'e> {
    fn new(s: &'e Select, order_by: &'e [OrderItem], scope: &Scope<'_>) -> SelectBinding<'e> {
        // Aliases for GROUP BY / ORDER BY fallback resolution.
        let aliases: Vec<(String, usize)> = s
            .projection
            .iter()
            .enumerate()
            .filter_map(|(i, item)| match item {
                SelectItem::Expr { alias: Some(a), .. } => Some((a.to_lowercase(), i)),
                _ => None,
            })
            .collect();
        let alias = |name: &str| {
            let lname = name.to_lowercase();
            aliases.iter().find(|(a, _)| *a == lname).map(|&(_, i)| i)
        };
        let unresolved = |name: &str| scope.resolve(None, name).is_err();

        let items: Vec<Item<'e>> = s
            .projection
            .iter()
            .map(|item| match item {
                SelectItem::Wildcard => Item::All(scope.cols.len()),
                SelectItem::QualifiedWildcard(t) => {
                    let cols: Vec<usize> = scope.bound_to(t).collect();
                    if cols.is_empty() {
                        Item::NoSuchTable(t)
                    } else {
                        Item::Columns(cols)
                    }
                }
                SelectItem::Expr { expr, .. } => Item::Expr(expr),
            })
            .collect();
        let widths: Vec<usize> = items
            .iter()
            .map(|item| match item {
                Item::All(n) => *n,
                Item::Columns(cols) => cols.len(),
                Item::NoSuchTable(_) | Item::Expr(_) => 1,
            })
            .collect();
        let width: usize = widths.iter().sum();
        let projected = |i: usize| match s.projection.get(i) {
            Some(SelectItem::Expr { expr, .. }) => Some(expr),
            _ => None,
        };
        // The output offset of item `i`, and the item holding output
        // column `c` with `c`'s place inside it.
        let offset = |i: usize| widths[..i].iter().sum::<usize>();
        let output = |mut c: usize| {
            for (item, &w) in items.iter().zip(&widths) {
                if c < w {
                    return Some((item, c));
                }
                c -= w;
            }
            None
        };

        let group_keys = s
            .group_by
            .iter()
            .map(|g| match g {
                Expr::Column { table: None, name } if unresolved(name) => {
                    GroupKey::Expr(alias(name).and_then(projected).unwrap_or(g))
                }
                Expr::Literal(Value::Integer(k)) => match output(k.wrapping_sub(1) as usize) {
                    Some((Item::Expr(expr), _)) => GroupKey::Expr(expr),
                    Some((Item::All(_), c)) => GroupKey::Slot(c),
                    Some((Item::Columns(cols), c)) => GroupKey::Slot(cols[c]),
                    Some((Item::NoSuchTable(t), _)) => {
                        GroupKey::Invalid(Error::Bind(format!("no such table in wildcard: {t}")))
                    }
                    None => {
                        GroupKey::Invalid(Error::Bind(format!("GROUP BY position {k} out of range")))
                    }
                },
                _ => GroupKey::Expr(g),
            })
            .collect();
        let order_keys = order_by
            .iter()
            .map(|item| match &item.expr {
                Expr::Literal(Value::Integer(k)) if (*k as usize) >= 1 && (*k as usize) <= width => {
                    OrderKey::Output((*k - 1) as usize)
                }
                Expr::Column { table: None, name } if unresolved(name) => match alias(name) {
                    Some(i) => OrderKey::Output(offset(i)),
                    None => OrderKey::Expr(&item.expr),
                },
                e => OrderKey::Expr(e),
            })
            .collect();

        let exprs = items
            .iter()
            .filter_map(|item| match item {
                Item::Expr(e) => Some(*e),
                _ => None,
            })
            .chain(&s.group_by)
            .chain(&s.having)
            .chain(order_by.iter().map(|o| &o.expr));
        SelectBinding { bound: Bound::new(scope, exprs), items, width, group_keys, order_keys }
    }
}

impl<'a> Executor<'a> {
    /// An ungoverned executor (unlimited budgets) with fresh counters and
    /// caches. For untrusted SQL use [`Executor::with_limits`].
    pub fn new(db: &'a Database) -> Executor<'a> {
        Executor::with_limits(db, &ExecLimits::unlimited())
    }

    /// An executor whose execution is bounded by `limits`. The deadline
    /// clock starts here, not at the first `query` call. Runs optimized
    /// plans; use [`Executor::with_mode`] for the naive reference path.
    pub fn with_limits(db: &'a Database, limits: &ExecLimits) -> Executor<'a> {
        Executor::with_mode(db, limits, PlanMode::Optimized)
    }

    /// An executor pinned to a specific [`PlanMode`]. `PlanMode::Naive`
    /// reproduces the syntactic-order reference semantics the differential
    /// harness compares against.
    pub fn with_mode(db: &'a Database, limits: &ExecLimits, mode: PlanMode) -> Executor<'a> {
        Executor {
            db,
            stats: ExecStats::default(),
            gov: Governor::new(*limits),
            mode,
            plan_arena: Vec::new(),
            scalar_cache: HashMap::new(),
            in_cache: HashMap::new(),
            exists_cache: HashMap::new(),
        }
    }

    /// Execute a full query. Enters a governed nesting scope: every
    /// recursive `query` call (subqueries, derived tables, nested set
    /// operands) counts against the recursion-depth budget.
    pub fn query(&mut self, q: &Query) -> Result<QueryResult> {
        self.gov.enter_query()?;
        let result = self.query_body(q);
        self.gov.exit_query();
        let result = result?;
        self.gov.check_output_rows(result.rows.len() as u64)?;
        Ok(result)
    }

    fn query_body(&mut self, q: &Query) -> Result<QueryResult> {
        match &q.body {
            SetExpr::Select(s) => self.select_full(s, &q.order_by, q.limit.as_ref(), q.offset.as_ref()),
            _ => {
                let base = self.set_expr(&q.body)?;
                self.apply_output_order(base, &q.order_by, q.limit.as_ref(), q.offset.as_ref())
            }
        }
    }

    fn set_expr(&mut self, se: &SetExpr) -> Result<QueryResult> {
        match se {
            SetExpr::Select(s) => self.select_full(s, &[], None, None),
            SetExpr::Nested(q) => self.query(q),
            SetExpr::SetOp { op, all, left, right } => {
                let l = self.set_expr(left)?;
                let r = self.set_expr(right)?;
                // Widths come from the operands' columns, so an empty side
                // is checked too.
                if l.columns.len() != r.columns.len() {
                    return Err(Error::Exec(format!(
                        "set operands have different column counts ({} vs {})",
                        l.columns.len(),
                        r.columns.len()
                    )));
                }
                self.stats.rows_grouped += (l.rows.len() + r.rows.len()) as u64;
                self.gov.charge_intermediate(
                    (l.rows.len() + r.rows.len()) as u64,
                    rows_bytes(&l.rows) + rows_bytes(&r.rows),
                )?;
                let rows = match (op, all) {
                    (SetOpKind::Union, true) => {
                        let mut rows = l.rows;
                        rows.extend(r.rows);
                        rows
                    }
                    (SetOpKind::Union, false) => {
                        let mut rows = l.rows;
                        rows.extend(r.rows);
                        dedup_rows(rows)
                    }
                    (SetOpKind::Intersect, _) => {
                        let rset: HashSet<Row> = r.rows.into_iter().collect();
                        dedup_rows(l.rows.into_iter().filter(|row| rset.contains(row)).collect())
                    }
                    (SetOpKind::Except, _) => {
                        let rset: HashSet<Row> = r.rows.into_iter().collect();
                        dedup_rows(l.rows.into_iter().filter(|row| !rset.contains(row)).collect())
                    }
                };
                Ok(QueryResult::new(l.columns, rows, false))
            }
        }
    }

    /// ORDER BY / LIMIT over an already-materialized result: order terms
    /// must be output columns or 1-based positions.
    fn apply_output_order(
        &mut self,
        mut result: QueryResult,
        order_by: &[OrderItem],
        limit: Option<&Expr>,
        offset: Option<&Expr>,
    ) -> Result<QueryResult> {
        if !order_by.is_empty() {
            let mut keys = Vec::with_capacity(order_by.len());
            for item in order_by {
                let idx = match &item.expr {
                    Expr::Literal(Value::Integer(k)) => {
                        let k = *k as usize;
                        if k == 0 || k > result.columns.len() {
                            return Err(Error::Bind(format!("ORDER BY position {k} out of range")));
                        }
                        k - 1
                    }
                    Expr::Column { table: None, name } => result
                        .columns
                        .iter()
                        .position(|c| c.eq_ignore_ascii_case(name))
                        .ok_or_else(|| Error::Bind(format!("ORDER BY column {name} not in output")))?,
                    other => {
                        return Err(Error::Unsupported(format!(
                            "ORDER BY over a set operation supports output columns only, got {other}"
                        )))
                    }
                };
                keys.push((idx, item.desc));
            }
            self.stats.record_sort(result.rows.len());
            result.rows.sort_by(|a, b| {
                for (idx, desc) in &keys {
                    let ord = a[*idx].total_cmp(&b[*idx]);
                    if ord != std::cmp::Ordering::Equal {
                        return if *desc { ord.reverse() } else { ord };
                    }
                }
                std::cmp::Ordering::Equal
            });
            result.ordered = true;
        }
        self.apply_limit(&mut result, limit, offset)?;
        Ok(result)
    }

    fn apply_limit(&mut self, result: &mut QueryResult, limit: Option<&Expr>, offset: Option<&Expr>) -> Result<()> {
        let bound = Bound::new(&Scope::default(), offset.into_iter().chain(limit));
        let empty = WorkRow::table(&[]);
        if let Some(off) = offset {
            let v = self.eval(off, &bound, &Ctx::Row(&empty))?;
            let n = v.as_f64().unwrap_or(0.0).max(0.0) as usize;
            if n < result.rows.len() {
                result.rows.drain(..n);
            } else {
                result.rows.clear();
            }
        }
        if let Some(lim) = limit {
            let v = self.eval(lim, &bound, &Ctx::Row(&empty))?;
            let n = v.as_f64().unwrap_or(0.0).max(0.0) as usize;
            result.rows.truncate(n);
        }
        Ok(())
    }

    /// Execute one SELECT core together with (query-level) ORDER BY/LIMIT,
    /// which may reference aggregates and source columns.
    fn select_full(
        &mut self,
        s: &Select,
        order_by: &[OrderItem],
        limit: Option<&Expr>,
        offset: Option<&Expr>,
    ) -> Result<QueryResult> {
        // Lower FROM/WHERE into a relational plan (optionally optimized)
        // and execute it. The plan is parked in the arena so cloned
        // subquery ASTs inside it stay alive as long as the caches keyed
        // by their addresses.
        let plan = Rc::new(match self.mode {
            PlanMode::Naive => crate::plan::lower_relation(s.from.as_ref(), s.selection.clone()),
            PlanMode::Optimized => crate::optimizer::optimize_select(
                self.db,
                s,
                order_by,
                limit,
                offset,
            ),
        });
        self.plan_arena.push(Rc::clone(&plan));
        let (scope, rows) = self.exec_plan(&plan, None)?;

        let has_aggregate = s
            .projection
            .iter()
            .any(|item| matches!(item, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
            || s.having.as_ref().is_some_and(Expr::contains_aggregate);
        let aggregate_mode = !s.group_by.is_empty() || has_aggregate;

        let out_columns = output_columns(&s.projection, &scope);
        let sel = SelectBinding::new(s, order_by, &scope);
        let mut units = Units::default();
        if aggregate_mode {
            self.stats.rows_grouped += rows.len() as u64;
            if s.group_by.is_empty() {
                self.emit_group(s, &sel, Group::all(&rows), &mut units)?;
            } else {
                // Group keys borrow the cells they read. Each group is a
                // chain of row indices, in order of first appearance.
                let mut groups: HashMap<Vec<Cow<'_, Value>>, usize> = HashMap::new();
                let mut ends: Vec<(usize, usize)> = Vec::new();
                let mut next = vec![NO_ROW; rows.len()];
                let mut key: Vec<Cow<'_, Value>> = Vec::with_capacity(sel.group_keys.len());
                for (i, row) in rows.iter().enumerate() {
                    self.gov.tick()?;
                    key.clear();
                    for g in &sel.group_keys {
                        key.push(match g {
                            GroupKey::Expr(e) => self.eval(e, &sel.bound, &Ctx::Row(row))?,
                            GroupKey::Slot(i) => Cow::Borrowed(row.cell(*i).unwrap_or(&NULL)),
                            GroupKey::Invalid(e) => return Err(e.clone()),
                        });
                    }
                    match groups.get(key.as_slice()) {
                        Some(&g) => {
                            next[ends[g].1] = i;
                            ends[g].1 = i;
                        }
                        None => {
                            groups.insert(key.clone(), ends.len());
                            ends.push((i, i));
                        }
                    }
                }
                for &(first, _) in &ends {
                    let group = Group { rows: &rows, first, next: Some(&next) };
                    self.emit_group(s, &sel, group, &mut units)?;
                }
            }
        } else {
            for row in &rows {
                self.gov.tick()?;
                self.project_unit(&sel, &Ctx::Row(row), &mut units)?;
            }
        }

        let Units { mut rows, mut keys } = units;
        let nkeys = order_by.len();
        // DISTINCT before ordering (first occurrence wins).
        if s.distinct {
            self.stats.rows_grouped += rows.len() as u64;
            let first = first_occurrences(rows.iter());
            let mut k = 0;
            keys.retain(|_| {
                k += 1;
                first[(k - 1) / nkeys]
            });
            let mut unit = first.iter();
            rows.retain(|_| unit.next().copied().unwrap_or(true));
        }

        let ordered = !order_by.is_empty();
        if ordered {
            // A stable sort of unit indices by their keys, then the rows in
            // that order.
            self.stats.record_sort(rows.len());
            let key = |u: usize| &keys[u * nkeys..(u + 1) * nkeys];
            let mut order: Vec<usize> = (0..rows.len()).collect();
            order.sort_by(|&a, &b| {
                for ((ka, kb), item) in key(a).iter().zip(key(b)).zip(order_by) {
                    let ord = ka.total_cmp(kb);
                    if ord != std::cmp::Ordering::Equal {
                        return if item.desc { ord.reverse() } else { ord };
                    }
                }
                std::cmp::Ordering::Equal
            });
            rows = order.into_iter().map(|u| std::mem::take(&mut rows[u])).collect();
        }

        self.stats.rows_output += rows.len() as u64;
        let mut result = QueryResult::new(out_columns, rows, ordered);
        self.apply_limit(&mut result, limit, offset)?;
        Ok(result)
    }

    /// HAVING-filter one group and project it as one output unit.
    fn emit_group(
        &mut self,
        s: &Select,
        sel: &SelectBinding<'_>,
        group: Group<'_, 'a>,
        units: &mut Units,
    ) -> Result<()> {
        let ctx = Ctx::Group(group);
        self.gov.tick()?;
        if let Some(h) = &s.having {
            if self.eval(h, &sel.bound, &ctx)?.truthiness() != Some(true) {
                return Ok(());
            }
        }
        self.project_unit(sel, &ctx, units)
    }

    /// Evaluate one output unit: its projected row and its sort keys.
    fn project_unit(&mut self, sel: &SelectBinding<'_>, ctx: &Ctx<'_, 'a>, units: &mut Units) -> Result<()> {
        let cell = |i: usize| ctx.cell(i).cloned().unwrap_or(Value::Null);
        let mut out = Vec::with_capacity(sel.width);
        for item in &sel.items {
            match item {
                Item::All(n) => out.extend((0..*n).map(cell)),
                Item::Columns(cols) => out.extend(cols.iter().map(|&i| cell(i))),
                Item::NoSuchTable(t) => {
                    return Err(Error::Bind(format!("no such table in wildcard: {t}")))
                }
                Item::Expr(expr) => out.push(self.eval(expr, &sel.bound, ctx)?.into_owned()),
            }
        }
        for key in &sel.order_keys {
            units.keys.push(match key {
                OrderKey::Output(i) => out
                    .get(*i)
                    .cloned()
                    .ok_or_else(|| Error::Internal(format!("ORDER BY output {i} out of range")))?,
                OrderKey::Expr(e) => self.eval(e, &sel.bound, ctx)?.into_owned(),
            });
        }
        units.rows.push(out);
        Ok(())
    }

    // -- plan execution ------------------------------------------------------

    /// Execute a relational plan node, returning its output scope and rows.
    ///
    /// `cap` is the LIMIT-propagation bound: when set, the node may stop
    /// after producing that many rows. It is only ever set by a `Cap` node
    /// (optimized plans), so naive plans execute exactly like the historic
    /// AST walker. It propagates through row-for-row nodes (`Permute`) and
    /// bounds each producing node's own loop; join and filter *inputs* run
    /// uncapped because their required input size is unknown.
    fn exec_plan<'p>(
        &mut self,
        node: &'p PlanNode,
        cap: Option<usize>,
    ) -> Result<(Scope<'p>, Vec<WorkRow<'a>>)>
    where
        'a: 'p,
    {
        match node {
            // SELECT without FROM evaluates over a single empty row.
            PlanNode::Empty => Ok((Scope::default(), vec![WorkRow::table(&[])])),
            PlanNode::Scan { table, binding } => self.scan_table(table, binding, cap),
            PlanNode::Derived { query, binding } => self.derived_rows(query, binding, cap),
            PlanNode::Filter { input, predicate } => {
                let (scope, rows) = self.exec_plan(input, None)?;
                let bound = Bound::new(&scope, [predicate]);
                let mut kept = Vec::new();
                for row in rows {
                    if cap.is_some_and(|c| kept.len() >= c) {
                        break;
                    }
                    self.gov.tick()?;
                    if self.eval(predicate, &bound, &Ctx::Row(&row))?.truthiness() == Some(true) {
                        kept.push(row);
                    }
                }
                Ok((scope, kept))
            }
            PlanNode::Join { left, right, kind, on, equi } => {
                let (mut scope, lrows) = self.exec_plan(left, None)?;
                let (right_scope, rrows) = self.exec_plan(right, None)?;
                // Prefer optimizer-extracted keys; otherwise detect a bare
                // equi ON at runtime exactly like the pre-plan executor did.
                let keys = match (kind, equi) {
                    (JoinKind::Inner, Some(e)) => Some((e.left_key, e.right_key, e.residual.as_ref())),
                    (JoinKind::Inner, None) => on
                        .as_ref()
                        .and_then(|o| equi_join_cols(o, &scope, &right_scope))
                        .map(|(li, ri)| (li, ri, None)),
                    _ => None,
                };
                scope.cols.extend(right_scope.cols);
                let residual = keys.and_then(|(_, _, r)| r);
                let bound = Bound::new(&scope, on.iter().chain(residual));
                let width = scope.cols.len();
                let rows = match (kind, keys) {
                    (JoinKind::Inner, Some((li, ri, residual)))
                        if (lrows.len() as u64) * (rrows.len() as u64) > HASH_JOIN_THRESHOLD =>
                    {
                        self.hash_join(lrows, &rrows, li, ri, residual, &bound, cap)?
                    }
                    (JoinKind::Cross, _) => {
                        self.nested_loop(lrows, &rrows, None, &bound, width, false, cap)?
                    }
                    (JoinKind::Inner, _) => {
                        self.nested_loop(lrows, &rrows, on.as_ref(), &bound, width, false, cap)?
                    }
                    (JoinKind::Left, _) => {
                        self.nested_loop(lrows, &rrows, on.as_ref(), &bound, width, true, cap)?
                    }
                };
                Ok((scope, rows))
            }
            PlanNode::Permute { input, indices } => {
                let (scope, rows) = self.exec_plan(input, cap)?;
                let mut cols = Vec::with_capacity(indices.len());
                for &i in indices {
                    cols.push(scope.cols.get(i).cloned().ok_or_else(|| {
                        Error::Internal(format!("permute index {i} out of scope"))
                    })?);
                }
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    self.gov.tick()?;
                    let permuted = row.permuted(indices).ok_or_else(|| {
                        Error::Internal(format!("permutation {indices:?} splits a row part"))
                    })?;
                    self.gov.charge_intermediate(1, permuted.bytes())?;
                    out.push(permuted);
                }
                Ok((Scope { cols }, out))
            }
            PlanNode::Cap { input, cap: n } => {
                let effective = match cap {
                    Some(outer) => (*n).min(outer),
                    None => *n,
                };
                self.exec_plan(input, Some(effective))
            }
        }
    }

    fn scan_table<'p>(
        &mut self,
        name: &str,
        binding: &'p str,
        cap: Option<usize>,
    ) -> Result<(Scope<'p>, Vec<WorkRow<'a>>)>
    where
        'a: 'p,
    {
        let db = self.db;
        let table = db.table(name).ok_or_else(|| Error::Bind(format!("no such table: {name}")))?;
        let take = match cap {
            Some(c) => table.rows.len().min(c),
            None => table.rows.len(),
        };
        self.stats.rows_scanned += take as u64;
        // Borrowed scan: rows count against the budget, bytes do not
        // (nothing is copied).
        self.gov.charge_intermediate(take as u64, 0)?;
        let rows = table.rows.iter().take(take).map(|r| WorkRow::table(r)).collect();
        Ok((Scope::of_table(table, binding), rows))
    }

    fn derived_rows<'p>(
        &mut self,
        subquery: &Query,
        binding: &'p str,
        cap: Option<usize>,
    ) -> Result<(Scope<'p>, Vec<WorkRow<'a>>)> {
        self.stats.subqueries += 1;
        let mut result = self.query(subquery)?;
        if let Some(c) = cap {
            result.rows.truncate(c);
        }
        self.gov.charge_intermediate(result.rows.len() as u64, rows_bytes(&result.rows))?;
        let rows = result.rows.into_iter().map(WorkRow::shared).collect();
        Ok((Scope::of_names(result.columns, binding), rows))
    }

    #[allow(clippy::too_many_arguments)]
    fn nested_loop(
        &mut self,
        left: Vec<WorkRow<'a>>,
        right: &[WorkRow<'a>],
        on: Option<&Expr>,
        bound: &Bound,
        width: usize,
        left_outer: bool,
        cap: Option<usize>,
    ) -> Result<Vec<WorkRow<'a>>> {
        let right_width = width.saturating_sub(left.first().map_or(0, WorkRow::len));
        let pad = right_width.max(right.first().map_or(0, WorkRow::len));
        let mut nulls: Option<WorkRow<'a>> = None;
        let right_bytes: Vec<u64> = right.iter().map(WorkRow::bytes).collect();
        let mut out: Vec<WorkRow<'a>> = Vec::new();
        'outer: for lrow in left {
            let left_bytes = lrow.bytes();
            let mut matched = false;
            for (rrow, right_bytes) in right.iter().zip(&right_bytes) {
                if cap.is_some_and(|c| out.len() >= c) {
                    break 'outer;
                }
                self.stats.join_pairs += 1;
                self.gov.tick()?;
                let keep = match on {
                    Some(pred) => {
                        self.eval(pred, bound, &Ctx::Pair(&lrow, rrow))?.truthiness() == Some(true)
                    }
                    None => true,
                };
                if keep {
                    matched = true;
                    self.gov.charge_intermediate(1, left_bytes + right_bytes)?;
                    out.push(lrow.join(rrow));
                }
            }
            if cap.is_some_and(|c| out.len() >= c) {
                break;
            }
            if left_outer && !matched {
                let nulls = nulls.get_or_insert_with(|| WorkRow::shared(vec![Value::Null; pad]));
                self.gov.charge_intermediate(1, left_bytes + nulls.bytes())?;
                out.push(lrow.join(nulls));
            }
        }
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn hash_join(
        &mut self,
        left: Vec<WorkRow<'a>>,
        right: &[WorkRow<'a>],
        li: usize,
        ri: usize,
        residual: Option<&Expr>,
        bound: &Bound,
        cap: Option<usize>,
    ) -> Result<Vec<WorkRow<'a>>> {
        let mut index: HashMap<&Value, Vec<usize>> = HashMap::with_capacity(right.len());
        for (i, row) in right.iter().enumerate() {
            let key = join_key(row, ri)?;
            if key.is_null() {
                continue;
            }
            index.entry(key).or_default().push(i);
        }
        let mut out: Vec<WorkRow<'a>> = Vec::new();
        for lrow in &left {
            if cap.is_some_and(|c| out.len() >= c) {
                break;
            }
            self.stats.join_pairs += 1; // one probe per left row
            self.gov.tick()?;
            let key = join_key(lrow, li)?;
            if key.is_null() {
                continue;
            }
            if let Some(matches) = index.get(key) {
                self.stats.join_pairs += matches.len() as u64;
                let left_bytes = lrow.bytes();
                for &i in matches {
                    if cap.is_some_and(|c| out.len() >= c) {
                        break;
                    }
                    let rrow = &right[i];
                    if let Some(pred) = residual {
                        let keep = self.eval(pred, bound, &Ctx::Pair(lrow, rrow))?.truthiness()
                            == Some(true);
                        if !keep {
                            continue;
                        }
                    }
                    self.gov.charge_intermediate(1, left_bytes + rrow.bytes())?;
                    out.push(lrow.join(rrow));
                }
            }
        }
        Ok(out)
    }

    // -- expressions ---------------------------------------------------------

    /// Evaluate `e` over `ctx`. Column references and literals come back
    /// borrowed; only computed values are owned.
    fn eval<'v>(&mut self, e: &'v Expr, b: &Bound, ctx: &Ctx<'v, 'a>) -> Result<Cow<'v, Value>> {
        Ok(match e {
            Expr::Literal(v) => Cow::Borrowed(v),
            Expr::Column { .. } => Cow::Borrowed(ctx.cell(b.slot(e)?).unwrap_or(&NULL)),
            Expr::Unary { op, expr } => {
                let v = self.eval(expr, b, ctx)?;
                Cow::Owned(match op {
                    UnaryOp::Neg => v.neg()?,
                    UnaryOp::Not => match v.truthiness() {
                        None => Value::Null,
                        Some(t) => Value::Integer((!t) as i64),
                    },
                })
            }
            Expr::Binary { left, op, right } => Cow::Owned(self.eval_binary(left, *op, right, b, ctx)?),
            Expr::Function { name, args, distinct, star } => {
                Cow::Owned(self.eval_function(name, args, *distinct, *star, b, ctx)?)
            }
            Expr::Case { operand, branches, else_expr } => {
                let op_val = match operand {
                    Some(op) => Some(self.eval(op, b, ctx)?),
                    None => None,
                };
                for (cond, result) in branches {
                    let hit = match &op_val {
                        Some(v) => v.sql_eq(&*self.eval(cond, b, ctx)?) == Some(true),
                        None => self.eval(cond, b, ctx)?.truthiness() == Some(true),
                    };
                    if hit {
                        return self.eval(result, b, ctx);
                    }
                }
                match else_expr {
                    Some(e) => return self.eval(e, b, ctx),
                    None => Cow::Borrowed(&NULL),
                }
            }
            Expr::InList { expr, list, negated } => {
                let needle = self.eval(expr, b, ctx)?;
                if needle.is_null() {
                    return Ok(Cow::Borrowed(&NULL));
                }
                let mut saw_null = false;
                for item in list {
                    match needle.sql_eq(&*self.eval(item, b, ctx)?) {
                        Some(true) => return Ok(Cow::Owned(Value::Integer(!negated as i64))),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                Cow::Owned(if saw_null { Value::Null } else { Value::Integer(*negated as i64) })
            }
            Expr::InSubquery { expr, query, negated } => {
                let needle = self.eval(expr, b, ctx)?;
                if needle.is_null() {
                    return Ok(Cow::Borrowed(&NULL));
                }
                let key = query.as_ref() as *const Query as usize;
                if !self.in_cache.contains_key(&key) {
                    self.stats.subqueries += 1;
                    let sub = self.query(query)?;
                    if !sub.rows.is_empty() && sub.rows[0].len() != 1 {
                        return Err(Error::Exec("IN subquery must return one column".into()));
                    }
                    let mut set = HashSet::with_capacity(sub.rows.len());
                    let mut saw_null = false;
                    for row in sub.rows {
                        let v = row.into_iter().next().unwrap_or(Value::Null);
                        if v.is_null() {
                            saw_null = true;
                        } else {
                            set.insert(v);
                        }
                    }
                    self.in_cache.insert(key, (set, saw_null));
                }
                let (set, saw_null) = &self.in_cache[&key];
                Cow::Owned(if set.contains(needle.as_ref()) {
                    Value::Integer(!negated as i64)
                } else if *saw_null {
                    Value::Null
                } else {
                    Value::Integer(*negated as i64)
                })
            }
            Expr::ScalarSubquery(q) => {
                let key = q.as_ref() as *const Query as usize;
                if let Some(v) = self.scalar_cache.get(&key) {
                    return Ok(Cow::Owned(v.clone()));
                }
                self.stats.subqueries += 1;
                let sub = self.query(q)?;
                let value = match sub.rows.first() {
                    None => Value::Null,
                    Some(row) => {
                        if row.len() != 1 {
                            return Err(Error::Exec("scalar subquery must return one column".into()));
                        }
                        row[0].clone()
                    }
                };
                self.scalar_cache.insert(key, value.clone());
                Cow::Owned(value)
            }
            Expr::Exists { query, negated } => {
                let key = query.as_ref() as *const Query as usize;
                let has_rows = match self.exists_cache.get(&key) {
                    Some(&has_rows) => has_rows,
                    None => {
                        self.stats.subqueries += 1;
                        let has_rows = !self.query(query)?.rows.is_empty();
                        self.exists_cache.insert(key, has_rows);
                        has_rows
                    }
                };
                Cow::Owned(Value::Integer((has_rows != *negated) as i64))
            }
            Expr::Between { expr, low, high, negated } => {
                let v = self.eval(expr, b, ctx)?;
                let lo = self.eval(low, b, ctx)?;
                let hi = self.eval(high, b, ctx)?;
                let ge = v.sql_cmp(&lo).map(|o| o != std::cmp::Ordering::Less);
                let le = v.sql_cmp(&hi).map(|o| o != std::cmp::Ordering::Greater);
                Cow::Owned(match and3(ge, le) {
                    None => Value::Null,
                    Some(t) => Value::Integer((t != *negated) as i64),
                })
            }
            Expr::Like { expr, pattern, negated } => {
                let v = self.eval(expr, b, ctx)?;
                let p = self.eval(pattern, b, ctx)?;
                if v.is_null() || p.is_null() {
                    return Ok(Cow::Borrowed(&NULL));
                }
                let hit = like_match(&rendered(&v), &rendered(&p));
                Cow::Owned(Value::Integer((hit != *negated) as i64))
            }
            Expr::IsNull { expr, negated } => {
                let v = self.eval(expr, b, ctx)?;
                Cow::Owned(Value::Integer((v.is_null() != *negated) as i64))
            }
            Expr::Cast { expr, type_name } => {
                Cow::Owned(self.eval(expr, b, ctx)?.cast(DataType::from_sql_name(type_name)))
            }
        })
    }

    fn eval_binary(
        &mut self,
        left: &Expr,
        op: BinaryOp,
        right: &Expr,
        b: &Bound,
        ctx: &Ctx<'_, 'a>,
    ) -> Result<Value> {
        // Short-circuiting three-valued AND/OR.
        match op {
            BinaryOp::And => {
                let l = self.eval(left, b, ctx)?.truthiness();
                if l == Some(false) {
                    return Ok(Value::Integer(0));
                }
                let r = self.eval(right, b, ctx)?.truthiness();
                return Ok(match and3(l, r) {
                    None => Value::Null,
                    Some(t) => Value::Integer(t as i64),
                });
            }
            BinaryOp::Or => {
                let l = self.eval(left, b, ctx)?.truthiness();
                if l == Some(true) {
                    return Ok(Value::Integer(1));
                }
                let r = self.eval(right, b, ctx)?.truthiness();
                return Ok(match or3(l, r) {
                    None => Value::Null,
                    Some(t) => Value::Integer(t as i64),
                });
            }
            _ => {}
        }
        let l = self.eval(left, b, ctx)?;
        let r = self.eval(right, b, ctx)?;
        match op {
            BinaryOp::Add => l.add(&r),
            BinaryOp::Sub => l.sub(&r),
            BinaryOp::Mul => l.mul(&r),
            BinaryOp::Div => l.div(&r),
            BinaryOp::Mod => l.rem(&r),
            BinaryOp::Concat => Ok(concat_text(&l, &r)),
            BinaryOp::Eq | BinaryOp::NotEq | BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => {
                Ok(match l.sql_cmp(&r) {
                    None => Value::Null,
                    Some(ord) => {
                        use std::cmp::Ordering::*;
                        let t = match op {
                            BinaryOp::Eq => ord == Equal,
                            BinaryOp::NotEq => ord != Equal,
                            BinaryOp::Lt => ord == Less,
                            BinaryOp::LtEq => ord != Greater,
                            BinaryOp::Gt => ord == Greater,
                            BinaryOp::GtEq => ord != Less,
                            _ => unreachable!(),
                        };
                        Value::Integer(t as i64)
                    }
                })
            }
            BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_function(
        &mut self,
        name: &str,
        args: &[Expr],
        distinct: bool,
        star: bool,
        b: &Bound,
        ctx: &Ctx<'_, 'a>,
    ) -> Result<Value> {
        let upper: Cow<'_, str> = if name.bytes().any(|c| c.is_ascii_lowercase()) {
            Cow::Owned(name.to_ascii_uppercase())
        } else {
            Cow::Borrowed(name)
        };
        let aggregate_call = star || (is_aggregate_name(&upper) && !(matches!(&*upper, "MIN" | "MAX") && args.len() >= 2));
        if aggregate_call {
            let group = match ctx {
                Ctx::Group(group) => *group,
                Ctx::Row(_) | Ctx::Pair(..) => {
                    return Err(Error::Bind(format!("misuse of aggregate function {upper}")));
                }
            };
            return self.eval_aggregate(&upper, args, distinct, star, b, group);
        }
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a, b, ctx)?);
        }
        eval_scalar(&upper, &vals)
    }

    fn eval_aggregate(
        &mut self,
        name: &str,
        args: &[Expr],
        distinct: bool,
        star: bool,
        b: &Bound,
        group: Group<'_, 'a>,
    ) -> Result<Value> {
        if star {
            return Ok(Value::Integer(group.iter().count() as i64));
        }
        if args.len() != 1 {
            return Err(Error::Type(format!("aggregate {name} expects one argument")));
        }
        // Evaluate the argument once per row, reading cells in place.
        let mut vals: Vec<Cow<'_, Value>> = Vec::with_capacity(group.iter().count());
        for row in group.iter() {
            self.gov.tick()?;
            let v = self.eval(&args[0], b, &Ctx::Row(row))?;
            if !v.is_null() {
                vals.push(v);
            }
        }
        if distinct {
            let first = first_occurrences(vals.iter());
            vals = vals.into_iter().zip(first).filter_map(|(v, f)| f.then_some(v)).collect();
        }
        match name {
            "COUNT" => Ok(Value::Integer(vals.len() as i64)),
            "SUM" | "TOTAL" => {
                if vals.is_empty() {
                    return Ok(if name == "TOTAL" { Value::Real(0.0) } else { Value::Null });
                }
                let all_int = vals.iter().all(|v| matches!(**v, Value::Integer(_)));
                if all_int && name == "SUM" {
                    let mut acc: i64 = 0;
                    let mut overflowed = false;
                    for v in &vals {
                        if let Value::Integer(i) = **v {
                            match acc.checked_add(i) {
                                Some(n) => acc = n,
                                None => {
                                    overflowed = true;
                                    break;
                                }
                            }
                        }
                    }
                    if !overflowed {
                        return Ok(Value::Integer(acc));
                    }
                }
                let sum: f64 = vals.iter().filter_map(|v| v.as_f64()).sum();
                Ok(Value::Real(sum))
            }
            "AVG" => {
                if vals.is_empty() {
                    return Ok(Value::Null);
                }
                let sum: f64 = vals.iter().filter_map(|v| v.as_f64()).sum();
                Ok(Value::Real(sum / vals.len() as f64))
            }
            "MIN" => Ok(vals.into_iter().min().map_or(Value::Null, Cow::into_owned)),
            "MAX" => Ok(vals.into_iter().max().map_or(Value::Null, Cow::into_owned)),
            "GROUP_CONCAT" => {
                if vals.is_empty() {
                    return Ok(Value::Null);
                }
                Ok(Value::Text(vals.iter().map(|v| v.render()).collect::<Vec<_>>().join(",")))
            }
            other => Err(Error::Unsupported(format!("aggregate {other}"))),
        }
    }
}

/// Output column names of a SELECT core over `scope`.
fn output_columns(projection: &[SelectItem], scope: &Scope<'_>) -> Vec<String> {
    let mut out = Vec::new();
    for item in projection {
        match item {
            SelectItem::Wildcard => out.extend(scope.cols.iter().map(|c| c.name.to_string())),
            SelectItem::QualifiedWildcard(t) => {
                out.extend(scope.bound_to(t).map(|i| scope.cols[i].name.to_string()))
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
    out
}

/// Detect `left.col = right.col` (either direction) for hash joins.
fn equi_join_cols(on: &Expr, left: &Scope<'_>, right: &Scope<'_>) -> Option<(usize, usize)> {
    let Expr::Binary { left: a, op: BinaryOp::Eq, right: b } = on else {
        return None;
    };
    let col = |e: &Expr, scope: &Scope<'_>| -> Option<usize> {
        if let Expr::Column { table, name } = e {
            scope.resolve(table.as_deref(), name).ok()
        } else {
            None
        }
    };
    match (col(a, left), col(b, right)) {
        (Some(li), Some(ri)) => Some((li, ri)),
        _ => match (col(b, left), col(a, right)) {
            (Some(li), Some(ri)) => Some((li, ri)),
            _ => None,
        },
    }
}

fn join_key<'r>(row: &'r WorkRow<'_>, i: usize) -> Result<&'r Value> {
    row.cell(i).ok_or_else(|| Error::Internal(format!("join key {i} outside its row")))
}

/// A value as text for `LIKE`: text borrowed, anything else rendered.
fn rendered(v: &Value) -> Cow<'_, str> {
    match v {
        Value::Text(t) => Cow::Borrowed(t),
        other => Cow::Owned(other.render()),
    }
}

/// For each item, whether no equal item precedes it.
fn first_occurrences<T: std::hash::Hash + Eq>(items: impl Iterator<Item = T>) -> Vec<bool> {
    let mut seen = HashSet::new();
    items.map(|item| seen.insert(item)).collect()
}

fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

fn dedup_rows(rows: Vec<Row>) -> Vec<Row> {
    let first = first_occurrences(rows.iter());
    rows.into_iter().zip(first).filter_map(|(row, f)| f.then_some(row)).collect()
}

/// Approximate footprint of one materialized row.
fn row_bytes(row: &[Value]) -> u64 {
    row.iter().map(Value::approx_bytes).sum()
}

/// Approximate footprint of a materialized row set.
fn rows_bytes(rows: &[Row]) -> u64 {
    rows.iter().map(|r| row_bytes(r)).sum()
}
