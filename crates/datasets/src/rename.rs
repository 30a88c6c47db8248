//! Consistent renaming of schema identifiers across a database and its
//! gold SQL queries — the machinery behind Dr.Spider's DB-side
//! perturbations (schema-synonym, schema-abbreviation) and the
//! DBcontent-equivalence value transformation.

use std::collections::HashMap;

use sqlengine::ast::{Expr, FromClause, Query, Select, SelectItem, SetExpr, TableFactor};
use sqlengine::{parse_query, Database, Value};

/// A global rename map: old lower-cased identifier -> new identifier.
/// Tables and columns are renamed globally (the same old name maps to the
/// same new name everywhere) so unqualified references stay unambiguous.
#[derive(Debug, Clone, Default)]
pub struct RenameMap {
    /// Lower-cased old table name -> new name.
    pub tables: HashMap<String, String>,
    /// Lower-cased old column name -> new name.
    pub columns: HashMap<String, String>,
}

impl RenameMap {
    /// True when no renames are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty() && self.columns.is_empty()
    }

    fn table(&self, name: &str) -> Option<&String> {
        self.tables.get(&name.to_lowercase())
    }

    fn column(&self, name: &str) -> Option<&String> {
        self.columns.get(&name.to_lowercase())
    }
}

/// Build a renamed copy of `db` (schema names only; rows are shared
/// content-wise), under a revision of its own.
pub fn rename_database(db: &Database, map: &RenameMap) -> Database {
    let mut out = db.clone();
    for table in &mut out.tables {
        if let Some(new) = map.table(&table.schema.name) {
            table.schema.name = new.clone();
        }
        for col in &mut table.schema.columns {
            if let Some(new) = map.column(&col.name) {
                col.name = new.clone();
            }
        }
        for fk in &mut table.schema.foreign_keys {
            if let Some(new) = map.column(&fk.column) {
                fk.column = new.clone();
            }
            if let Some(new) = map.table(&fk.ref_table) {
                fk.ref_table = new.clone();
            }
            if let Some(new) = map.column(&fk.ref_column) {
                fk.ref_column = new.clone();
            }
        }
    }
    // Edited in place, not through `table_mut`: stamp the new state.
    out.bump_revision();
    out
}

/// Rewrite a SQL query under the rename map. Aliases (`T1`, `T2`) are left
/// intact; base table names and column names are replaced.
pub fn rewrite_sql(sql: &str, map: &RenameMap) -> sqlengine::Result<String> {
    let mut q = parse_query(sql)?;
    rewrite_query(&mut q, map);
    Ok(q.to_string())
}

fn rewrite_query(q: &mut Query, map: &RenameMap) {
    rewrite_set_expr(&mut q.body, map);
    for item in &mut q.order_by {
        rewrite_expr(&mut item.expr, map);
    }
    if let Some(l) = &mut q.limit {
        rewrite_expr(l, map);
    }
    if let Some(o) = &mut q.offset {
        rewrite_expr(o, map);
    }
}

fn rewrite_set_expr(se: &mut SetExpr, map: &RenameMap) {
    match se {
        SetExpr::Select(s) => rewrite_select(s, map),
        SetExpr::Nested(q) => rewrite_query(q, map),
        SetExpr::SetOp { left, right, .. } => {
            rewrite_set_expr(left, map);
            rewrite_set_expr(right, map);
        }
    }
}

fn rewrite_select(s: &mut Select, map: &RenameMap) {
    for item in &mut s.projection {
        match item {
            SelectItem::Expr { expr, .. } => rewrite_expr(expr, map),
            SelectItem::QualifiedWildcard(t) => {
                if let Some(new) = map.table(t) {
                    *t = new.clone();
                }
            }
            SelectItem::Wildcard => {}
        }
    }
    if let Some(from) = &mut s.from {
        rewrite_from(from, map);
    }
    if let Some(sel) = &mut s.selection {
        rewrite_expr(sel, map);
    }
    for g in &mut s.group_by {
        rewrite_expr(g, map);
    }
    if let Some(h) = &mut s.having {
        rewrite_expr(h, map);
    }
}

fn rewrite_from(from: &mut FromClause, map: &RenameMap) {
    rewrite_factor(&mut from.base, map);
    for j in &mut from.joins {
        rewrite_factor(&mut j.factor, map);
        if let Some(on) = &mut j.on {
            rewrite_expr(on, map);
        }
    }
}

fn rewrite_factor(f: &mut TableFactor, map: &RenameMap) {
    match f {
        TableFactor::Table { name, .. } => {
            if let Some(new) = map.table(name) {
                *name = new.clone();
            }
        }
        TableFactor::Derived { subquery, .. } => rewrite_query(subquery, map),
    }
}

fn rewrite_expr(e: &mut Expr, map: &RenameMap) {
    match e {
        Expr::Column { table, name } => {
            // Qualifiers that are base table names get renamed; aliases
            // (T1, ...) are not in the map and pass through.
            if let Some(t) = table {
                if let Some(new) = map.table(t) {
                    *t = new.clone();
                }
            }
            if let Some(new) = map.column(name) {
                *name = new.clone();
            }
        }
        Expr::Literal(_) => {}
        Expr::Unary { expr, .. } => rewrite_expr(expr, map),
        Expr::Binary { left, right, .. } => {
            rewrite_expr(left, map);
            rewrite_expr(right, map);
        }
        Expr::Function { args, .. } => {
            for a in args {
                rewrite_expr(a, map);
            }
        }
        Expr::Case { operand, branches, else_expr } => {
            if let Some(op) = operand {
                rewrite_expr(op, map);
            }
            for (c, r) in branches {
                rewrite_expr(c, map);
                rewrite_expr(r, map);
            }
            if let Some(el) = else_expr {
                rewrite_expr(el, map);
            }
        }
        Expr::InList { expr, list, .. } => {
            rewrite_expr(expr, map);
            for item in list {
                rewrite_expr(item, map);
            }
        }
        Expr::InSubquery { expr, query, .. } => {
            rewrite_expr(expr, map);
            rewrite_query(query, map);
        }
        Expr::ScalarSubquery(q) => rewrite_query(q, map),
        Expr::Exists { query, .. } => rewrite_query(query, map),
        Expr::Between { expr, low, high, .. } => {
            rewrite_expr(expr, map);
            rewrite_expr(low, map);
            rewrite_expr(high, map);
        }
        Expr::Like { expr, pattern, .. } => {
            rewrite_expr(expr, map);
            rewrite_expr(pattern, map);
        }
        Expr::IsNull { expr, .. } => rewrite_expr(expr, map),
        Expr::Cast { expr, .. } => rewrite_expr(expr, map),
    }
}

/// Apply a text-value transformation to every text cell of a database —
/// the DBcontent-equivalence perturbation. Returns the transformed copy,
/// under a revision of its own.
pub fn transform_text_values(db: &Database, f: impl Fn(&str) -> String) -> Database {
    let mut out = db.clone();
    for table in &mut out.tables {
        for row in &mut table.rows {
            for v in row.iter_mut() {
                if let Value::Text(s) = v {
                    *v = Value::Text(f(s));
                }
            }
        }
    }
    out.bump_revision();
    out
}

/// Apply the same transformation to the text literals of a SQL query so
/// the gold query still matches the transformed database.
pub fn transform_sql_text_literals(sql: &str, f: impl Fn(&str) -> String + Copy) -> sqlengine::Result<String> {
    let mut q = parse_query(sql)?;
    transform_query_literals(&mut q, f);
    Ok(q.to_string())
}

fn transform_query_literals(q: &mut Query, f: impl Fn(&str) -> String + Copy) {
    walk_query_exprs(q, &mut |e| {
        match e {
            Expr::Literal(Value::Text(s)) => {
                *s = f(s);
            }
            Expr::Like { pattern, .. } => {
                if let Expr::Literal(Value::Text(p)) = pattern.as_mut() {
                    // Preserve wildcard sentinels while transforming content.
                    let inner: String = p.trim_matches('%').to_string();
                    if !inner.is_empty() {
                        let transformed = f(&inner);
                        *p = p.replace(&inner, &transformed);
                    }
                }
            }
            _ => {}
        }
    });
}

/// Call `visit` on every expression of a query, including nested queries.
fn walk_query_exprs(q: &mut Query, visit: &mut impl FnMut(&mut Expr)) {
    fn walk_set(se: &mut SetExpr, visit: &mut impl FnMut(&mut Expr)) {
        match se {
            SetExpr::Select(s) => {
                for item in &mut s.projection {
                    if let SelectItem::Expr { expr, .. } = item {
                        walk_expr(expr, visit);
                    }
                }
                if let Some(from) = &mut s.from {
                    if let TableFactor::Derived { subquery, .. } = &mut from.base {
                        walk_query_exprs_inner(subquery, visit);
                    }
                    for j in &mut from.joins {
                        if let TableFactor::Derived { subquery, .. } = &mut j.factor {
                            walk_query_exprs_inner(subquery, visit);
                        }
                        if let Some(on) = &mut j.on {
                            walk_expr(on, visit);
                        }
                    }
                }
                if let Some(sel) = &mut s.selection {
                    walk_expr(sel, visit);
                }
                for g in &mut s.group_by {
                    walk_expr(g, visit);
                }
                if let Some(h) = &mut s.having {
                    walk_expr(h, visit);
                }
            }
            SetExpr::Nested(q) => walk_query_exprs_inner(q, visit),
            SetExpr::SetOp { left, right, .. } => {
                walk_set(left, visit);
                walk_set(right, visit);
            }
        }
    }
    fn walk_query_exprs_inner(q: &mut Query, visit: &mut impl FnMut(&mut Expr)) {
        walk_set(&mut q.body, visit);
        for item in &mut q.order_by {
            walk_expr(&mut item.expr, visit);
        }
    }
    fn walk_expr(e: &mut Expr, visit: &mut impl FnMut(&mut Expr)) {
        visit(e);
        match e {
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                walk_expr(expr, visit)
            }
            Expr::Binary { left, right, .. } => {
                walk_expr(left, visit);
                walk_expr(right, visit);
            }
            Expr::Function { args, .. } => {
                for a in args {
                    walk_expr(a, visit);
                }
            }
            Expr::Case { operand, branches, else_expr } => {
                if let Some(op) = operand {
                    walk_expr(op, visit);
                }
                for (c, r) in branches {
                    walk_expr(c, visit);
                    walk_expr(r, visit);
                }
                if let Some(el) = else_expr {
                    walk_expr(el, visit);
                }
            }
            Expr::InList { expr, list, .. } => {
                walk_expr(expr, visit);
                for i in list {
                    walk_expr(i, visit);
                }
            }
            Expr::InSubquery { expr, query, .. } => {
                walk_expr(expr, visit);
                walk_query_exprs_inner(query, visit);
            }
            Expr::ScalarSubquery(q) => walk_query_exprs_inner(q, visit),
            Expr::Exists { query, .. } => walk_query_exprs_inner(query, visit),
            Expr::Between { expr, low, high, .. } => {
                walk_expr(expr, visit);
                walk_expr(low, visit);
                walk_expr(high, visit);
            }
            Expr::Like { expr, .. } => {
                // Pattern handled by the caller's visit (kept intact here so
                // wildcards survive).
                walk_expr(expr, visit);
            }
            Expr::Column { .. } | Expr::Literal(_) => {}
        }
    }
    walk_query_exprs_inner(q, visit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::database_from_script;

    fn db() -> Database {
        database_from_script(
            "d",
            "CREATE TABLE singer (singer_id INTEGER PRIMARY KEY, name TEXT, country TEXT);
             CREATE TABLE song (song_id INTEGER PRIMARY KEY, singer_id INTEGER REFERENCES singer(singer_id), title TEXT);
             INSERT INTO singer VALUES (1, 'Joe', 'France');
             INSERT INTO song VALUES (1, 1, 'Hello');",
        )
        .unwrap()
    }

    fn map() -> RenameMap {
        let mut m = RenameMap::default();
        m.tables.insert("singer".into(), "vocalist".into());
        m.columns.insert("name".into(), "label".into());
        m
    }

    #[test]
    fn database_rename_updates_schema_and_fks() {
        let base = db();
        let renamed = rename_database(&base, &map());
        assert_ne!(renamed.revision(), base.revision(), "a new state, a new revision");
        assert!(renamed.table("vocalist").is_some());
        assert!(renamed.table("singer").is_none());
        assert!(renamed.table("vocalist").unwrap().schema.column("label").is_some());
        let fk = &renamed.table("song").unwrap().schema.foreign_keys[0];
        assert_eq!(fk.ref_table, "vocalist");
    }

    #[test]
    fn sql_rewrite_is_consistent_and_executable() {
        let renamed = rename_database(&db(), &map());
        let sql = "SELECT T1.name FROM singer AS T1 JOIN song AS T2 ON T1.singer_id = T2.singer_id WHERE T2.title = 'Hello'";
        let rewritten = rewrite_sql(sql, &map()).unwrap();
        assert!(rewritten.contains("vocalist"));
        assert!(rewritten.contains("label"));
        let r = sqlengine::execute_query(&renamed, &rewritten).unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn unqualified_columns_renamed() {
        let out = rewrite_sql("SELECT name FROM singer WHERE name = 'Joe'", &map()).unwrap();
        assert_eq!(out, "SELECT label FROM vocalist WHERE label = 'Joe'");
    }

    #[test]
    fn aliases_pass_through() {
        let out = rewrite_sql("SELECT T1.country FROM singer AS T1", &map()).unwrap();
        assert!(out.contains("T1.country"));
    }

    #[test]
    fn value_transformation_keeps_gold_aligned() {
        let base = db();
        let upper = transform_text_values(&base, |s| s.to_uppercase());
        assert_ne!(upper.revision(), base.revision(), "a new state, a new revision");
        let gold = "SELECT name FROM singer WHERE country = 'France'";
        let new_gold = transform_sql_text_literals(gold, |s| s.to_uppercase()).unwrap();
        assert!(new_gold.contains("'FRANCE'"));
        let r = sqlengine::execute_query(&upper, &new_gold).unwrap();
        assert_eq!(r.rows.len(), 1);
        // The untouched gold no longer matches the transformed database.
        let stale = sqlengine::execute_query(&upper, gold).unwrap();
        assert_eq!(stale.rows.len(), 0);
    }

    #[test]
    fn like_wildcards_survive_transformation() {
        let out = transform_sql_text_literals(
            "SELECT name FROM singer WHERE title LIKE '%Hello%'",
            |s| s.to_uppercase(),
        )
        .unwrap();
        assert!(out.contains("'%HELLO%'"), "{out}");
    }
}
