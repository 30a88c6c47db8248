//! Random catalogs and SELECT queries over them, shared by the
//! naive/optimized differential harness (`plan_differential.rs`) and the
//! executor digest (`exec_digest.rs`). Generation is a pure function of
//! the RNG stream, so a seed names one corpus.

#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::RngExt;

// ---------------------------------------------------------------------------
// Catalog generation
// ---------------------------------------------------------------------------

pub const WORDS: &[&str] = &["ash", "birch", "cedar", "dawn", "elm", "fern", "gale", "holly"];

/// One generated catalog: the DDL/INSERT script plus the shape facts the
/// query generator needs.
pub struct Catalog {
    pub script: String,
    pub tables: Vec<GenTable>,
}

pub struct GenTable {
    pub name: String,
    pub rows: usize,
    /// `(column, referenced table index)` foreign keys.
    pub fks: Vec<(String, usize)>,
}

pub fn gen_catalog(rng: &mut StdRng) -> Catalog {
    let ntables = rng.random_range(1..=5usize);
    let mut script = String::new();
    let mut tables: Vec<GenTable> = Vec::new();
    for i in 0..ntables {
        let name = format!("t{i}");
        // Skewed row counts: empty and tiny tables are common, a few are
        // big enough to make join order matter.
        let rows = match rng.random_range(0..10u32) {
            0 => 0,
            1..=4 => rng.random_range(1..=4usize),
            5..=7 => rng.random_range(5..=15usize),
            _ => rng.random_range(16..=32usize),
        };
        let mut fks = Vec::new();
        let mut cols =
            String::from("id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER, score REAL, name TEXT");
        if i > 0 && rng.random_bool(0.7) {
            let target = rng.random_range(0..i);
            let col = format!("t{target}_id");
            cols.push_str(&format!(
                ", {col} INTEGER, FOREIGN KEY ({col}) REFERENCES t{target}(id)"
            ));
            fks.push((col, target));
        }
        script.push_str(&format!("CREATE TABLE {name} ({cols});\n"));
        for pk in 1..=rows {
            let mut vals = vec![
                pk.to_string(),
                if rng.random_bool(0.1) { "NULL".into() } else { rng.random_range(0..5i64).to_string() },
                if rng.random_bool(0.15) { "NULL".into() } else { gen_int(rng).to_string() },
                if rng.random_bool(0.2) {
                    "NULL".into()
                } else {
                    format!("{:.2}", rng.random_range(0.0..10.0f64))
                },
                if rng.random_bool(0.15) {
                    "NULL".into()
                } else {
                    format!("'{}'", WORDS[rng.random_range(0..WORDS.len())])
                },
            ];
            for &(_, target) in &fks {
                let target_rows = tables[target].rows as i64;
                vals.push(if target_rows == 0 || rng.random_bool(0.15) {
                    "NULL".into()
                } else if rng.random_bool(0.1) {
                    // Dangling reference: FK edges are metadata, not
                    // constraints, and the optimizer must not assume them.
                    (target_rows + 50).to_string()
                } else {
                    rng.random_range(1..=target_rows).to_string()
                });
            }
            script.push_str(&format!("INSERT INTO {name} VALUES ({});\n", vals.join(", ")));
        }
        tables.push(GenTable { name, rows, fks });
    }
    Catalog { script, tables }
}

/// Skewed integer domain: mostly small values so predicates and equi joins
/// actually hit, with an occasional outlier.
pub fn gen_int(rng: &mut StdRng) -> i64 {
    if rng.random_bool(0.8) {
        rng.random_range(0..20)
    } else {
        rng.random_range(0..1000)
    }
}

// ---------------------------------------------------------------------------
// Query generation
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
pub enum JoinK {
    Comma,
    Inner,
    Left,
}

#[derive(Clone)]
pub struct Factor {
    pub table: String,
    pub alias: String,
    /// `None` for the first factor; `(kind, ON sql)` otherwise (`Comma`
    /// carries no ON clause).
    pub join: Option<(JoinK, String)>,
}

/// A piece of generated SQL together with the factor aliases it references,
/// so the minimizer can drop factors consistently.
#[derive(Clone)]
pub struct Frag {
    pub sql: String,
    pub aliases: Vec<String>,
}

#[derive(Clone)]
pub enum SelectKind {
    Cols(Vec<Frag>),
    Agg {
        /// Optional `GROUP BY` key (also selected, first).
        group: Option<Frag>,
        aggs: Vec<Frag>,
    },
}

#[derive(Clone)]
pub struct Spec {
    pub factors: Vec<Factor>,
    pub wheres: Vec<Frag>,
    pub select: SelectKind,
    /// When true, `ORDER BY` every output position (deterministic order).
    pub order_all: bool,
    pub order_desc: bool,
    pub limit: Option<(usize, usize)>,
}

impl Spec {
    pub fn select_len(&self) -> usize {
        match &self.select {
            SelectKind::Cols(items) => items.len(),
            SelectKind::Agg { group, aggs } => aggs.len() + usize::from(group.is_some()),
        }
    }

    pub fn to_sql(&self) -> String {
        let items: Vec<String> = match &self.select {
            SelectKind::Cols(items) => items.iter().map(|f| f.sql.clone()).collect(),
            SelectKind::Agg { group, aggs } => group
                .iter()
                .map(|g| g.sql.clone())
                .chain(aggs.iter().map(|a| a.sql.clone()))
                .collect(),
        };
        let mut sql = format!("SELECT {} FROM ", items.join(", "));
        for (i, f) in self.factors.iter().enumerate() {
            match (&f.join, i) {
                (None, _) | (_, 0) => {}
                (Some((JoinK::Comma, _)), _) => sql.push_str(", "),
                (Some((JoinK::Inner, _)), _) => sql.push_str(" JOIN "),
                (Some((JoinK::Left, _)), _) => sql.push_str(" LEFT JOIN "),
            }
            sql.push_str(&format!("{} AS {}", f.table, f.alias));
            if let Some((kind, on)) = &f.join {
                if *kind != JoinK::Comma && i > 0 {
                    sql.push_str(&format!(" ON {on}"));
                }
            }
        }
        if !self.wheres.is_empty() {
            let preds: Vec<&str> = self.wheres.iter().map(|f| f.sql.as_str()).collect();
            sql.push_str(&format!(" WHERE {}", preds.join(" AND ")));
        }
        if let SelectKind::Agg { group: Some(_), .. } = &self.select {
            sql.push_str(" GROUP BY 1");
        }
        if self.order_all {
            let dir = if self.order_desc { " DESC" } else { "" };
            let keys: Vec<String> =
                (1..=self.select_len()).map(|i| format!("{i}{dir}")).collect();
            sql.push_str(&format!(" ORDER BY {}", keys.join(", ")));
        }
        if let Some((n, off)) = self.limit {
            sql.push_str(&format!(" LIMIT {n}"));
            if off > 0 {
                sql.push_str(&format!(" OFFSET {off}"));
            }
        }
        sql
    }
}

pub const COLS: &[&str] = &["id", "grp", "val", "score", "name"];

pub fn gen_column(rng: &mut StdRng, factors: &[Factor]) -> Frag {
    let f = &factors[rng.random_range(0..factors.len())];
    let col = COLS[rng.random_range(0..COLS.len())];
    Frag { sql: format!("{}.{}", f.alias, col), aliases: vec![f.alias.clone()] }
}

pub fn gen_predicate(rng: &mut StdRng, cat: &Catalog, factors: &[Factor]) -> Frag {
    let col = gen_column(rng, factors);
    match rng.random_range(0..10u32) {
        0 | 1 => {
            let op = ["=", "<>", "<", "<=", ">", ">="][rng.random_range(0..6usize)];
            Frag { sql: format!("{} {op} {}", col.sql, gen_int(rng)), aliases: col.aliases }
        }
        2 => {
            let not = if rng.random_bool(0.5) { " NOT" } else { "" };
            Frag { sql: format!("{}{not} IS NULL", nullable(rng, factors).sql), aliases: col.aliases }
        }
        3 => {
            let (lo, hi) = (gen_int(rng), gen_int(rng));
            Frag {
                sql: format!("{} BETWEEN {} AND {}", col.sql, lo.min(hi), lo.max(hi)),
                aliases: col.aliases,
            }
        }
        4 => {
            let n = rng.random_range(1..=4usize);
            let list: Vec<String> = (0..n).map(|_| gen_int(rng).to_string()).collect();
            Frag { sql: format!("{} IN ({})", col.sql, list.join(", ")), aliases: col.aliases }
        }
        5 => {
            let f = &factors[rng.random_range(0..factors.len())];
            let w = WORDS[rng.random_range(0..WORDS.len())];
            let pat = if rng.random_bool(0.5) {
                format!("{}%", &w[..1])
            } else {
                format!("%{}%", &w[1..2])
            };
            Frag { sql: format!("{}.name LIKE '{pat}'", f.alias), aliases: vec![f.alias.clone()] }
        }
        6 => Frag {
            sql: format!("{} + 1 > {}", col.sql, gen_int(rng)),
            aliases: col.aliases,
        },
        7 => {
            // Cross-factor comparison: exercises join-conjunct merging.
            let other = gen_column(rng, factors);
            let mut aliases = col.aliases;
            aliases.extend(other.aliases.clone());
            let op = ["=", "<", ">="][rng.random_range(0..3usize)];
            Frag { sql: format!("{} {op} {}", col.sql, other.sql), aliases }
        }
        8 => {
            // Unsafe for pushdown (scalar subquery): must fall back cleanly.
            let t = &cat.tables[rng.random_range(0..cat.tables.len())];
            Frag {
                sql: format!("{} >= (SELECT MIN(val) FROM {})", col.sql, t.name),
                aliases: col.aliases,
            }
        }
        _ => {
            // CASE is safe; division by zero folds to NULL, never an error.
            Frag {
                sql: format!(
                    "CASE WHEN {} > {} THEN 1 ELSE 0 END = 1",
                    col.sql,
                    gen_int(rng)
                ),
                aliases: col.aliases,
            }
        }
    }
}

/// A column that can plausibly be NULL (everything but the PK).
pub fn nullable(rng: &mut StdRng, factors: &[Factor]) -> Frag {
    let f = &factors[rng.random_range(0..factors.len())];
    let col = ["grp", "val", "score", "name"][rng.random_range(0..4usize)];
    Frag { sql: format!("{}.{}", f.alias, col), aliases: vec![f.alias.clone()] }
}

pub fn gen_on(rng: &mut StdRng, cat: &Catalog, factors: &[Factor], new: &Factor) -> String {
    let prev = &factors[rng.random_range(0..factors.len())];
    // Prefer the real FK edge when one connects the two tables.
    let fk_edge = cat
        .tables
        .iter()
        .find(|t| t.name == new.table)
        .and_then(|t| {
            t.fks
                .iter()
                .find(|(_, target)| cat.tables[*target].name == prev.table)
                .map(|(col, _)| format!("{}.{} = {}.id", new.alias, col, prev.alias))
        });
    let base = match (fk_edge, rng.random_range(0..10u32)) {
        (Some(edge), 0..=6) => edge,
        (_, 7) => format!("{}.val < {}.val", prev.alias, new.alias),
        (_, 8) => format!("{}.id = {}.id", prev.alias, new.alias),
        _ => format!("{}.grp = {}.grp", prev.alias, new.alias),
    };
    if rng.random_bool(0.25) {
        format!("{base} AND {}.val > {}", new.alias, gen_int(rng))
    } else {
        base
    }
}

pub fn gen_spec(rng: &mut StdRng, cat: &Catalog) -> Spec {
    let nfactors = rng.random_range(1..=3usize).min(cat.tables.len().max(1));
    let mut factors: Vec<Factor> = Vec::new();
    for i in 0..nfactors {
        let table = cat.tables[rng.random_range(0..cat.tables.len())].name.clone();
        let alias = format!("f{i}");
        let join = if i == 0 {
            None
        } else {
            let kind = match rng.random_range(0..10u32) {
                0..=1 => JoinK::Comma,
                2..=7 => JoinK::Inner,
                _ => JoinK::Left,
            };
            let new = Factor { table: table.clone(), alias: alias.clone(), join: None };
            let on = if kind == JoinK::Comma { String::new() } else { gen_on(rng, cat, &factors, &new) };
            Some((kind, on))
        };
        factors.push(Factor { table, alias, join });
    }

    let nwheres = rng.random_range(0..=3usize);
    let wheres: Vec<Frag> = (0..nwheres).map(|_| gen_predicate(rng, cat, &factors)).collect();

    let select = if rng.random_bool(0.25) {
        let group = rng
            .random_bool(0.6)
            .then(|| gen_column(rng, &factors));
        let agg_col = gen_column(rng, &factors);
        let mut aggs = vec![Frag { sql: "COUNT(*)".into(), aliases: Vec::new() }];
        if rng.random_bool(0.5) {
            let f = ["MIN", "MAX", "SUM"][rng.random_range(0..3usize)];
            aggs.push(Frag {
                sql: format!("{f}({})", agg_col.sql),
                aliases: agg_col.aliases.clone(),
            });
        }
        SelectKind::Agg { group, aggs }
    } else {
        let n = rng.random_range(1..=3usize);
        SelectKind::Cols((0..n).map(|_| gen_column(rng, &factors)).collect())
    };

    let order_all = rng.random_bool(0.4);
    let limit = rng
        .random_bool(0.3)
        .then(|| (rng.random_range(0..=10usize), rng.random_range(0..=3usize)));

    Spec { factors, wheres, select, order_all, order_desc: rng.random_bool(0.3), limit }
}
