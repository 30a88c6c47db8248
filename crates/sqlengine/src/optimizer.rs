//! Cost-based rewrites over the logical plan.
//!
//! [`optimize_select`] takes one SELECT core and returns the relational
//! plan the executor should run. Rewrites applied, in order:
//!
//! 1. **Predicate pushdown** — the WHERE clause is split into AND
//!    conjuncts; conjuncts referencing a single binding move below the
//!    joins onto that factor's leaf, and multi-binding conjuncts merge
//!    into the earliest inner join that sees all their bindings.
//! 2. **Join reordering** — the leading run of inner/cross-joined base
//!    tables is re-planned greedily, smallest estimated cardinality
//!    first, preferring equi-connected factors; a `Permute` node restores
//!    the original column layout. The reordered tree is kept only if its
//!    estimated cost beats the syntactic order.
//! 3. **Hash-join keys** — each inner join's conjuncts are scanned for a
//!    pure `col = col` equi predicate; the keys are pre-resolved so the
//!    executor can hash-join above the pair threshold, applying the
//!    remaining conjuncts as a residual filter.
//! 4. **LIMIT propagation** — when no aggregate/DISTINCT/ORDER BY
//!    intervenes and the projection cannot fail mid-row, a `Cap` node
//!    stops the relational pipeline after LIMIT+OFFSET rows.
//!
//! Every rewrite is gated on a *safety* analysis: predicates must resolve
//! statically and must be total (unable to raise runtime errors), and all
//! binding names must be distinct. When the gate fails the optimizer
//! returns the naive plan unchanged, so error behaviour — including lazy
//! bind errors that only fire when a row is actually examined — is
//! byte-identical to naive execution. The differential harness
//! (`tests/plan_differential.rs`) holds this to "zero divergence" across
//! thousands of generated queries.

// This module runs on the inference hot path over model-generated SQL; it
// must never panic and every public item is documented.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(missing_docs)]

use crate::ast::*;
use crate::catalog::Database;
use crate::cost::{estimate_node, split_conjuncts};
use crate::plan::{from_bindings, lower_relation, static_factor_scope, EquiJoin, PlanNode, Scope};
use crate::value::Value;

/// Counter: rewrites present in chosen plans, labelled by rule
/// (`predicate_pushdown`, `join_reorder`, `hash_equi`, `limit_cap`,
/// `fallback_naive`).
pub const PLAN_REWRITES: &str = "codes_sqlengine_plan_rewrites_total";

/// Counter: beam candidates shed by pre-execution cost pricing before
/// spending any governor budget.
pub const PLAN_PREPRICE_SHED: &str = "codes_sqlengine_plan_preprice_shed_total";

/// A candidate query is shed when its estimated intermediate-row footprint
/// exceeds this multiple of the governor's intermediate-row budget.
/// Conservative: estimates for the catastrophic case (unfiltered cross
/// joins) are exact products of base cardinalities, while moderately wrong
/// selectivity guesses stay well under 4x.
pub const PREPRICE_SHED_FACTOR: f64 = 4.0;

// -- safety analysis ---------------------------------------------------------

/// Whether `e` is *total* over `scope`: every column reference resolves
/// statically and no subexpression can raise a runtime error, so the
/// expression may be re-sited freely (evaluated on more rows, fewer rows,
/// or in a different order) without changing which queries fail.
///
/// The whitelist excludes function calls (unknown-name and aggregate
/// errors), subqueries (governor charges and recursion), and unary minus
/// (errors on text); binary arithmetic stays in because `Value::arith` is
/// total (division by zero yields NULL), and CAST stays in because
/// `Value::cast` is total.
fn is_safe(e: &Expr, scope: &Scope) -> bool {
    match e {
        Expr::Literal(_) => true,
        Expr::Column { table, name } => scope.resolve(table.as_deref(), name).is_ok(),
        Expr::Unary { op: UnaryOp::Not, expr } => is_safe(expr, scope),
        Expr::Unary { op: UnaryOp::Neg, .. } => false,
        Expr::Binary { left, right, .. } => is_safe(left, scope) && is_safe(right, scope),
        Expr::Case { operand, branches, else_expr } => {
            operand.as_deref().map_or(true, |o| is_safe(o, scope))
                && branches.iter().all(|(c, r)| is_safe(c, scope) && is_safe(r, scope))
                && else_expr.as_deref().map_or(true, |e| is_safe(e, scope))
        }
        Expr::InList { expr, list, .. } => {
            is_safe(expr, scope) && list.iter().all(|i| is_safe(i, scope))
        }
        Expr::Between { expr, low, high, .. } => {
            is_safe(expr, scope) && is_safe(low, scope) && is_safe(high, scope)
        }
        Expr::Like { expr, pattern, .. } => is_safe(expr, scope) && is_safe(pattern, scope),
        Expr::IsNull { expr, .. } => is_safe(expr, scope),
        Expr::Cast { expr, .. } => is_safe(expr, scope),
        Expr::Function { .. }
        | Expr::InSubquery { .. }
        | Expr::ScalarSubquery(_)
        | Expr::Exists { .. } => false,
    }
}

/// Rewrite every column reference in `e` to its fully-qualified
/// `binding.column` form (resolved against `scope`) and collect the set of
/// bindings referenced. Returns None if any reference fails to resolve or
/// the expression contains a subquery/function.
fn qualify<'s>(e: &Expr, scope: &Scope<'s>, bindings: &mut Vec<&'s str>) -> Option<Expr> {
    Some(match e {
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Column { table, name } => {
            let idx = scope.resolve(table.as_deref(), name).ok()?;
            let col = scope.cols.get(idx)?;
            if !bindings.contains(&col.binding) {
                bindings.push(col.binding);
            }
            Expr::Column { table: Some(col.binding.to_string()), name: col.name.to_string() }
        }
        Expr::Unary { op, expr } => {
            Expr::Unary { op: *op, expr: Box::new(qualify(expr, scope, bindings)?) }
        }
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(qualify(left, scope, bindings)?),
            op: *op,
            right: Box::new(qualify(right, scope, bindings)?),
        },
        Expr::Case { operand, branches, else_expr } => Expr::Case {
            operand: match operand {
                Some(o) => Some(Box::new(qualify(o, scope, bindings)?)),
                None => None,
            },
            branches: branches
                .iter()
                .map(|(c, r)| Some((qualify(c, scope, bindings)?, qualify(r, scope, bindings)?)))
                .collect::<Option<Vec<_>>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(qualify(e, scope, bindings)?)),
                None => None,
            },
        },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(qualify(expr, scope, bindings)?),
            list: list
                .iter()
                .map(|i| qualify(i, scope, bindings))
                .collect::<Option<Vec<_>>>()?,
            negated: *negated,
        },
        Expr::Between { expr, low, high, negated } => Expr::Between {
            expr: Box::new(qualify(expr, scope, bindings)?),
            low: Box::new(qualify(low, scope, bindings)?),
            high: Box::new(qualify(high, scope, bindings)?),
            negated: *negated,
        },
        Expr::Like { expr, pattern, negated } => Expr::Like {
            expr: Box::new(qualify(expr, scope, bindings)?),
            pattern: Box::new(qualify(pattern, scope, bindings)?),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => {
            Expr::IsNull { expr: Box::new(qualify(expr, scope, bindings)?), negated: *negated }
        }
        Expr::Cast { expr, type_name } => Expr::Cast {
            expr: Box::new(qualify(expr, scope, bindings)?),
            type_name: type_name.clone(),
        },
        Expr::Function { .. }
        | Expr::InSubquery { .. }
        | Expr::ScalarSubquery(_)
        | Expr::Exists { .. } => return None,
    })
}

/// AND a list of conjuncts back together, left-associatively (matching the
/// parser's shape for `a AND b AND c`).
fn and_all(conjuncts: Vec<Expr>) -> Option<Expr> {
    let mut it = conjuncts.into_iter();
    let first = it.next()?;
    Some(it.fold(first, Expr::and))
}

// -- join-tree building ------------------------------------------------------

/// A qualified conjunct with the bindings it references.
#[derive(Debug, Clone)]
struct Conjunct<'s> {
    expr: Expr,
    bindings: Vec<&'s str>,
}

/// One FROM factor with its static scope and join metadata.
struct Factor<'s> {
    factor: &'s TableFactor,
    binding: &'s str,
    scope: Scope<'s>,
    /// Join kind that introduced this factor (None for the base factor).
    kind: Option<JoinKind>,
}

/// Find the first `col = col` conjunct bridging `left` and `right` scopes;
/// returns (index in conjuncts, left key, right key).
fn find_equi(conjuncts: &[Expr], left: &Scope, right: &Scope) -> Option<(usize, usize, usize)> {
    let col = |e: &Expr, scope: &Scope| -> Option<usize> {
        if let Expr::Column { table, name } = e {
            scope.resolve(table.as_deref(), name).ok()
        } else {
            None
        }
    };
    for (i, c) in conjuncts.iter().enumerate() {
        let Expr::Binary { left: a, op: BinaryOp::Eq, right: b } = c else { continue };
        if let (Some(li), Some(ri)) = (col(a, left), col(b, right)) {
            return Some((i, li, ri));
        }
        if let (Some(li), Some(ri)) = (col(b, left), col(a, right)) {
            return Some((i, li, ri));
        }
    }
    None
}

/// Build a join node over `left`+`right` from a set of attached conjuncts,
/// upgrading cross joins with conjuncts to inner joins and extracting hash
/// keys when an equi predicate is available.
fn make_join(
    left: PlanNode,
    left_scope: &Scope,
    right: PlanNode,
    right_scope: &Scope,
    kind: JoinKind,
    conjuncts: Vec<Expr>,
) -> PlanNode {
    // Attaching conjuncts to a cross join makes it an inner join.
    let kind =
        if kind == JoinKind::Cross && !conjuncts.is_empty() { JoinKind::Inner } else { kind };
    let equi = if kind == JoinKind::Inner {
        find_equi(&conjuncts, left_scope, right_scope).map(|(idx, li, ri)| {
            let residual: Vec<Expr> = conjuncts
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != idx)
                .map(|(_, c)| c.clone())
                .collect();
            EquiJoin { left_key: li, right_key: ri, residual: and_all(residual) }
        })
    } else {
        None
    };
    let on = and_all(conjuncts);
    PlanNode::Join { left: Box::new(left), right: Box::new(right), kind, on, equi }
}

/// A leaf prepared for tree building: its plan (scan + pushed filters),
/// scope, binding, and original factor index.
struct Leaf<'s> {
    node: PlanNode,
    scope: Scope<'s>,
    binding: &'s str,
    /// Index of this factor in syntactic order (for permutation).
    position: usize,
}

/// Fold `leaves` (in the given order) into a left-deep join tree,
/// attaching each pool conjunct at the earliest join where all its
/// bindings are in scope. Returns the tree, the factor positions in build
/// order, and the indices of any pool conjuncts that could not be attached
/// (the caller must keep those in the top filter).
fn build_region_tree(mut leaves: Vec<Leaf<'_>>, pool: &[Conjunct<'_>]) -> (PlanNode, Vec<usize>, Vec<usize>) {
    let mut used = vec![false; pool.len()];
    let first = leaves.remove(0);
    let mut node = first.node;
    let mut scope = first.scope;
    let mut present = vec![first.binding];
    let mut positions = vec![first.position];
    for leaf in leaves {
        let mut conjuncts = Vec::new();
        for (i, c) in pool.iter().enumerate() {
            if used[i] {
                continue;
            }
            let available = c
                .bindings
                .iter()
                .all(|b| present.iter().any(|p| p == b) || *b == leaf.binding);
            if available {
                used[i] = true;
                conjuncts.push(c.expr.clone());
            }
        }
        let right_scope = leaf.scope.clone();
        node = make_join(node, &scope, leaf.node, &right_scope, JoinKind::Cross, conjuncts);
        scope.cols.extend(right_scope.cols);
        present.push(leaf.binding);
        positions.push(leaf.position);
    }
    let unattached = (0..pool.len()).filter(|&i| !used[i]).collect();
    (node, positions, unattached)
}

/// Greedy join order over region leaves: start from the smallest estimated
/// leaf, then repeatedly add the factor minimizing the estimated size of
/// the next join, treating equi-connected factors (a pool conjunct
/// bridging the current set and the candidate) as key-joins.
fn greedy_order(db: &Database, leaves: &[Leaf<'_>], pool: &[Conjunct<'_>]) -> Vec<usize> {
    let n = leaves.len();
    let card: Vec<f64> = leaves.iter().map(|l| estimate_node(db, &l.node).rows).collect();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    let mut present: Vec<&str> = Vec::new();
    let mut cur_rows = 0.0f64;
    while !remaining.is_empty() {
        let mut best_slot = 0usize;
        let mut best_est = f64::INFINITY;
        for (slot, &i) in remaining.iter().enumerate() {
            let est = if order.is_empty() {
                card[i]
            } else {
                let connected = pool.iter().any(|c| {
                    c.bindings.len() >= 2
                        && c.bindings.iter().any(|b| *b == leaves[i].binding)
                        && c.bindings
                            .iter()
                            .all(|b| *b == leaves[i].binding || present.iter().any(|p| p == b))
                });
                if connected {
                    (cur_rows * card[i]) / cur_rows.max(card[i]).max(1.0)
                } else {
                    cur_rows * card[i]
                }
            };
            if est < best_est {
                best_est = est;
                best_slot = slot;
            }
        }
        let i = remaining.remove(best_slot);
        cur_rows = if order.is_empty() { card[i] } else { best_est };
        present.push(leaves[i].binding);
        order.push(i);
    }
    order
}

// -- rewrite accounting ------------------------------------------------------

/// Walk a chosen plan and bump per-rule rewrite counters. Done once on the
/// final plan so discarded candidate orders never inflate the metrics.
fn count_rewrites(node: &PlanNode, pushdowns: u64) {
    fn walk(n: &PlanNode, hash: &mut u64, permute: &mut u64, cap: &mut u64) {
        match n {
            PlanNode::Join { left, right, equi, .. } => {
                if equi.is_some() {
                    *hash += 1;
                }
                walk(left, hash, permute, cap);
                walk(right, hash, permute, cap);
            }
            PlanNode::Permute { input, .. } => {
                *permute += 1;
                walk(input, hash, permute, cap);
            }
            PlanNode::Cap { input, .. } => {
                *cap += 1;
                walk(input, hash, permute, cap);
            }
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Limit { input, .. } => walk(input, hash, permute, cap),
            PlanNode::Empty | PlanNode::Scan { .. } | PlanNode::Derived { .. } => {}
        }
    }
    let (mut hash, mut permute, mut cap) = (0u64, 0u64, 0u64);
    walk(node, &mut hash, &mut permute, &mut cap);
    let obs = codes_obs::global();
    for (rule, n) in [
        ("predicate_pushdown", pushdowns),
        ("hash_equi", hash),
        ("join_reorder", permute),
        ("limit_cap", cap),
    ] {
        if n > 0 {
            obs.counter(PLAN_REWRITES, &[("rule", rule)]).inc_by(n);
        }
    }
}

// -- entry point -------------------------------------------------------------

/// Optimize one SELECT core's relational plan. Falls back to the naive
/// plan whenever the safety gate fails or the rewritten plan does not
/// estimate cheaper, so the chosen plan is always observably equivalent to
/// naive execution.
pub fn optimize_select(
    db: &Database,
    s: &Select,
    order_by: &[OrderItem],
    limit: Option<&Expr>,
    offset: Option<&Expr>,
) -> PlanNode {
    match try_optimize(db, s, order_by, limit, offset) {
        Some((plan, pushdowns)) => {
            count_rewrites(&plan, pushdowns);
            plan
        }
        None => {
            codes_obs::global().counter(PLAN_REWRITES, &[("rule", "fallback_naive")]).inc();
            lower_relation(s.from.as_ref(), s.selection.clone())
        }
    }
}

fn try_optimize(
    db: &Database,
    s: &Select,
    order_by: &[OrderItem],
    limit: Option<&Expr>,
    offset: Option<&Expr>,
) -> Option<(PlanNode, u64)> {
    let from = s.from.as_ref()?;
    let naive = lower_relation(s.from.as_ref(), s.selection.clone());

    // Collect factors with static scopes; bail if any scope is unknown
    // (missing table, underivable subquery columns) so lazy runtime errors
    // surface exactly as they would under naive execution.
    let bindings = from_bindings(from);
    let joined = std::iter::once((&from.base, None))
        .chain(from.joins.iter().map(|j| (&j.factor, Some(j.kind))));
    let mut factors: Vec<Factor<'_>> = Vec::with_capacity(bindings.len());
    for ((factor, kind), binding) in joined.zip(&bindings) {
        let scope = static_factor_scope(db, factor, binding)?;
        factors.push(Factor { factor, binding, scope, kind });
    }

    // All binding names must be distinct, or column references become
    // position-dependent and cannot be re-sited.
    for i in 0..factors.len() {
        for j in (i + 1)..factors.len() {
            if factors[i].binding == factors[j].binding {
                return None;
            }
        }
    }

    // Prefix scopes (what join i's ON clause sees) and the full scope.
    let mut prefix_scopes: Vec<Scope> = Vec::with_capacity(factors.len());
    let mut acc = Scope::default();
    for f in &factors {
        acc.cols.extend(f.scope.cols.iter().cloned());
        prefix_scopes.push(acc.clone());
    }
    let full_scope = acc;

    // Gate: every ON conjunct must be safe over its prefix scope and every
    // WHERE conjunct safe over the full scope. Qualify them all so they
    // can be re-sited without capture.
    let mut on_conjuncts: Vec<Vec<Conjunct>> = Vec::with_capacity(factors.len());
    on_conjuncts.push(Vec::new()); // base factor has no ON clause
    for (i, join) in from.joins.iter().enumerate() {
        let prefix = &prefix_scopes[i + 1];
        let mut list = Vec::new();
        if let Some(on) = &join.on {
            for c in split_conjuncts(on) {
                if !is_safe(c, prefix) {
                    return None;
                }
                let mut bindings = Vec::new();
                let expr = qualify(c, prefix, &mut bindings)?;
                list.push(Conjunct { expr, bindings });
            }
        }
        on_conjuncts.push(list);
    }
    let mut where_conjuncts: Vec<Conjunct> = Vec::new();
    if let Some(sel) = &s.selection {
        for c in split_conjuncts(sel) {
            if !is_safe(c, &full_scope) {
                return None;
            }
            let mut bindings = Vec::new();
            let expr = qualify(c, &full_scope, &mut bindings)?;
            where_conjuncts.push(Conjunct { expr, bindings });
        }
    }

    // The reorderable region: the leading run of inner/cross joins.
    // Everything from the first LEFT join onward keeps its syntactic
    // position (outer joins do not commute with inner joins in general).
    let mut region_end = factors.len();
    for (i, f) in factors.iter().enumerate() {
        if f.kind == Some(JoinKind::Left) {
            region_end = i;
            break;
        }
    }
    let region_bindings: Vec<&str> = factors[..region_end].iter().map(|f| f.binding).collect();

    // Classify WHERE conjuncts: pushed to a leaf, pooled into the region,
    // merged into a later inner join, or kept in the top filter.
    let mut pushed: Vec<Vec<Expr>> = vec![Vec::new(); factors.len()];
    let mut pool: Vec<Conjunct> = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    let mut merged_on: Vec<Vec<Expr>> = vec![Vec::new(); factors.len()];
    let mut pushdowns = 0u64;
    for c in where_conjuncts {
        if c.bindings.is_empty() {
            // Constant predicate: there is no leaf to own it — keep it on
            // top rather than attaching it to an arbitrary join.
            residual.push(c.expr);
        } else if c.bindings.len() == 1 {
            let b = &c.bindings[0];
            let idx = factors.iter().position(|f| f.binding == *b)?;
            if factors[idx].kind == Some(JoinKind::Left) {
                // The right side of a LEFT join is filtered *after* NULL
                // padding; its predicates must stay above the join.
                residual.push(c.expr);
            } else {
                pushed[idx].push(c.expr);
                pushdowns += 1;
            }
        } else if c.bindings.iter().all(|b| region_bindings.iter().any(|r| r == b)) {
            pool.push(c);
            pushdowns += 1;
        } else {
            // Merge into the earliest join that sees every binding, when
            // that join is inner. (Filtering left-side columns before a
            // later LEFT join is sound: padded rows never change them.)
            let earliest = (0..factors.len()).find(|&i| {
                c.bindings.iter().all(|b| factors[..=i].iter().any(|f| f.binding == *b))
            });
            match earliest {
                Some(i) if factors[i].kind == Some(JoinKind::Inner) => {
                    merged_on[i].push(c.expr);
                    pushdowns += 1;
                }
                _ => residual.push(c.expr),
            }
        }
    }

    // Region ON conjuncts join the pool; later ONs stay at their join.
    for list in on_conjuncts.iter().take(region_end) {
        pool.extend(list.iter().cloned());
    }

    // Build region leaves (scan + pushed filters).
    let region_leaves: Vec<Leaf> = factors[..region_end]
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mut node = crate::plan::lower_factor(f.factor);
            if let Some(pred) = and_all(pushed[i].clone()) {
                node = PlanNode::Filter { input: Box::new(node), predicate: pred };
            }
            Leaf { node, scope: f.scope.clone(), binding: f.binding, position: i }
        })
        .collect();

    // Candidate orders: syntactic always; greedy when the region is all
    // base-table scans (reordering derived tables would change subquery
    // execution order and stats).
    let all_scans =
        factors[..region_end].iter().all(|f| matches!(f.factor, TableFactor::Table { .. }));
    let syntactic: Vec<usize> = (0..region_leaves.len()).collect();
    let mut orders: Vec<Vec<usize>> = vec![syntactic];
    if all_scans && region_leaves.len() >= 2 {
        orders.push(greedy_order(db, &region_leaves, &pool));
    }

    let mut best: Option<(PlanNode, Vec<usize>, Vec<usize>, f64)> = None;
    for order in orders {
        let leaves: Vec<Leaf> = order
            .iter()
            .map(|&i| {
                let l = &region_leaves[i];
                Leaf {
                    node: l.node.clone(),
                    scope: l.scope.clone(),
                    binding: l.binding,
                    position: l.position,
                }
            })
            .collect();
        let (tree, positions, unattached) = build_region_tree(leaves, &pool);
        let cost = estimate_node(db, &tree).cost.total();
        let better = match &best {
            None => true,
            Some((.., best_cost)) => cost < *best_cost,
        };
        if better {
            best = Some((tree, positions, unattached, cost));
        }
    }
    let (mut node, positions, unattached, _) = best?;
    for i in unattached {
        // Defensive: a pool conjunct that found no join to attach to goes
        // back to the top filter rather than being dropped.
        residual.push(pool[i].expr.clone());
    }
    if positions.windows(2).any(|w| w[0] > w[1]) {
        // Restore the original column layout: out[i] = row[indices[i]].
        let mut new_offsets = vec![0usize; region_end];
        let mut cursor = 0usize;
        for &p in &positions {
            new_offsets[p] = cursor;
            cursor += factors[p].scope.cols.len();
        }
        let mut indices = Vec::with_capacity(cursor);
        for (p, f) in factors[..region_end].iter().enumerate() {
            for k in 0..f.scope.cols.len() {
                indices.push(new_offsets[p] + k);
            }
        }
        node = PlanNode::Permute { input: Box::new(node), indices };
    }
    // Either way the region's output scope is now the syntactic layout.
    let mut scope = Scope {
        cols: factors[..region_end].iter().flat_map(|f| f.scope.cols.iter().cloned()).collect(),
    };

    // Fold the remaining joins in syntactic order.
    for (i, f) in factors.iter().enumerate().skip(region_end) {
        let mut leaf = crate::plan::lower_factor(f.factor);
        if let Some(pred) = and_all(pushed[i].clone()) {
            leaf = PlanNode::Filter { input: Box::new(leaf), predicate: pred };
        }
        let kind = f.kind.unwrap_or(JoinKind::Cross);
        let right_scope = f.scope.clone();
        if kind == JoinKind::Left {
            // A LEFT join's ON decides matching, not filtering: keep the
            // original ON whole and never merge WHERE conjuncts into it.
            let on: Vec<Expr> = on_conjuncts[i].iter().map(|c| c.expr.clone()).collect();
            node = PlanNode::Join {
                left: Box::new(node),
                right: Box::new(leaf),
                kind: JoinKind::Left,
                on: and_all(on),
                equi: None,
            };
        } else {
            let mut conjuncts: Vec<Expr> =
                on_conjuncts[i].iter().map(|c| c.expr.clone()).collect();
            conjuncts.append(&mut merged_on[i]);
            node = make_join(node, &scope, leaf, &right_scope, kind, conjuncts);
        }
        scope.cols.extend(right_scope.cols);
    }

    // Residual WHERE conjuncts stay on top, in their original order.
    if let Some(pred) = and_all(residual) {
        node = PlanNode::Filter { input: Box::new(node), predicate: pred };
    }

    // LIMIT propagation: cap the relational pipeline when nothing between
    // it and the LIMIT can reorder, drop, or fail on rows beyond the cap.
    if let Some(cap) = limit_cap(s, order_by, limit, offset, &full_scope) {
        node = PlanNode::Cap { input: Box::new(node), cap };
    }

    // Final guard: keep the rewritten plan only when it estimates
    // cheaper-or-equal (this also pins the cost_props invariant that
    // optimization never raises estimated cost).
    let opt_cost = estimate_node(db, &node).cost.total();
    let naive_cost = estimate_node(db, &naive).cost.total();
    if opt_cost > naive_cost {
        return None;
    }
    Some((node, pushdowns))
}

/// How many relational rows a capped SELECT needs: LIMIT+OFFSET when both
/// are non-negative integer literals and the pipeline above the relational
/// part is row-for-row (no aggregate/DISTINCT/ORDER BY) with a projection
/// that cannot fail mid-stream.
fn limit_cap(
    s: &Select,
    order_by: &[OrderItem],
    limit: Option<&Expr>,
    offset: Option<&Expr>,
    scope: &Scope<'_>,
) -> Option<usize> {
    if limit.is_none() && offset.is_none() {
        return None;
    }
    if !order_by.is_empty() || s.distinct || !s.group_by.is_empty() || s.having.is_some() {
        return None;
    }
    for item in &s.projection {
        match item {
            SelectItem::Wildcard => {}
            SelectItem::QualifiedWildcard(t) => {
                scope.bound_to(t).next()?;
            }
            SelectItem::Expr { expr, .. } => {
                if expr.contains_aggregate() || !is_safe(expr, scope) {
                    return None;
                }
            }
        }
    }
    let lit = |e: Option<&Expr>| -> Option<u64> {
        match e {
            None => Some(0),
            Some(Expr::Literal(Value::Integer(n))) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    };
    let cap = lit(limit)?.checked_add(lit(offset)?)?;
    usize::try_from(cap).ok()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::engine::database_from_script;
    use crate::parser::parse_statement;

    fn db() -> Database {
        let mut script = String::from(
            "CREATE TABLE small (id INTEGER PRIMARY KEY, v INTEGER);\n\
             CREATE TABLE big (id INTEGER PRIMARY KEY, small_id INTEGER, w INTEGER);\n",
        );
        for i in 0..4 {
            script.push_str(&format!("INSERT INTO small VALUES ({i}, {});\n", i * 10));
        }
        for i in 0..50 {
            script.push_str(&format!("INSERT INTO big VALUES ({i}, {}, {});\n", i % 4, i));
        }
        database_from_script("opt", &script).unwrap()
    }

    fn select_of(sql: &str) -> (Query, Select) {
        let Statement::Query(q) = parse_statement(sql).unwrap() else { panic!("query") };
        let SetExpr::Select(s) = &q.body else { panic!("select") };
        (q.clone(), (**s).clone())
    }

    fn has_filter_below_join(n: &PlanNode) -> bool {
        match n {
            PlanNode::Join { left, right, .. } => {
                matches!(left.as_ref(), PlanNode::Filter { .. })
                    || matches!(right.as_ref(), PlanNode::Filter { .. })
                    || has_filter_below_join(left)
                    || has_filter_below_join(right)
            }
            PlanNode::Filter { input, .. }
            | PlanNode::Permute { input, .. }
            | PlanNode::Cap { input, .. } => has_filter_below_join(input),
            _ => false,
        }
    }

    fn has_equi_join(n: &PlanNode) -> bool {
        match n {
            PlanNode::Join { equi, left, right, .. } => {
                equi.is_some() || has_equi_join(left) || has_equi_join(right)
            }
            PlanNode::Filter { input, .. }
            | PlanNode::Permute { input, .. }
            | PlanNode::Cap { input, .. } => has_equi_join(input),
            _ => false,
        }
    }

    #[test]
    fn single_binding_predicates_are_pushed_to_the_leaf() {
        let db = db();
        let (q, s) = select_of(
            "SELECT * FROM big JOIN small ON big.small_id = small.id WHERE small.v > 10",
        );
        let plan = optimize_select(&db, &s, &q.order_by, None, None);
        assert!(has_filter_below_join(&plan), "{plan:?}");
    }

    #[test]
    fn equi_keys_are_extracted_for_inner_joins() {
        let db = db();
        let (q, s) = select_of("SELECT * FROM big JOIN small ON big.small_id = small.id");
        let plan = optimize_select(&db, &s, &q.order_by, None, None);
        assert!(has_equi_join(&plan), "{plan:?}");
    }

    #[test]
    fn unsafe_predicates_fall_back_to_naive() {
        let db = db();
        let (q, s) = select_of(
            "SELECT * FROM big JOIN small ON big.small_id = small.id WHERE ABS(small.v) > 1",
        );
        let plan = optimize_select(&db, &s, &q.order_by, None, None);
        let PlanNode::Filter { input, .. } = &plan else { panic!("expected naive top filter") };
        let PlanNode::Join { equi, .. } = input.as_ref() else { panic!("expected join") };
        assert!(equi.is_none(), "fallback must not annotate keys");
    }

    #[test]
    fn limit_cap_applies_only_to_plain_projections() {
        let db = db();
        let (q, s) = select_of("SELECT w FROM big LIMIT 5");
        let plan = optimize_select(&db, &s, &q.order_by, q.limit.as_ref(), q.offset.as_ref());
        assert!(matches!(plan, PlanNode::Cap { cap: 5, .. }), "{plan:?}");

        let (q2, s2) = select_of("SELECT COUNT(*) FROM big LIMIT 5");
        let plan2 =
            optimize_select(&db, &s2, &q2.order_by, q2.limit.as_ref(), q2.offset.as_ref());
        assert!(!matches!(plan2, PlanNode::Cap { .. }), "{plan2:?}");
    }

    #[test]
    fn duplicate_bindings_disable_rewrites() {
        let db = db();
        let (q, s) = select_of("SELECT big.w FROM big, big WHERE big.w > 1");
        let plan = optimize_select(&db, &s, &q.order_by, None, None);
        assert!(
            matches!(&plan, PlanNode::Filter { input, .. }
                if matches!(input.as_ref(), PlanNode::Join { .. })),
            "{plan:?}"
        );
    }

    #[test]
    fn constant_predicates_stay_in_the_top_filter() {
        let db = db();
        let (q, s) = select_of("SELECT w FROM big WHERE 1 = 1");
        let plan = optimize_select(&db, &s, &q.order_by, None, None);
        assert!(
            matches!(&plan, PlanNode::Filter { input, .. }
                if matches!(input.as_ref(), PlanNode::Scan { .. })),
            "{plan:?}"
        );
    }

    #[test]
    fn left_join_right_side_predicates_are_not_pushed() {
        let db = db();
        let (q, s) = select_of(
            "SELECT * FROM small LEFT JOIN big ON small.id = big.small_id WHERE big.w > 1",
        );
        let plan = optimize_select(&db, &s, &q.order_by, None, None);
        assert!(!has_filter_below_join(&plan), "{plan:?}");
    }
}
