//! Schema catalog: databases, tables, columns, keys, comments and rows.
//!
//! The catalog is also the interface the CodeS prompt constructor uses: it
//! exposes column comments (§6.3(2)), representative values (§6.3(3)) and
//! primary/foreign keys (§6.3(4)).

use std::collections::HashSet;

use crate::error::{Error, Result};
use crate::types::DataType;
use crate::value::{Row, Value};

/// A column definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Storage class.
    pub data_type: DataType,
    /// Human-readable comment; the paper attaches these to ambiguous or
    /// abbreviated column names (Table 2).
    pub comment: Option<String>,
    /// Part of the table's primary key.
    pub primary_key: bool,
    /// Rejects NULL on insert.
    pub not_null: bool,
}

impl Column {
    /// A nullable, non-key column of the given type.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Column {
        Column {
            name: name.into(),
            data_type,
            comment: None,
            primary_key: false,
            not_null: false,
        }
    }

    /// Attach a human-readable comment (§6.3(2) metadata).
    pub fn with_comment(mut self, comment: impl Into<String>) -> Column {
        self.comment = Some(comment.into());
        self
    }

    /// Mark as primary key (implies NOT NULL).
    pub fn primary_key(mut self) -> Column {
        self.primary_key = true;
        self.not_null = true;
        self
    }
}

/// A foreign-key edge `table.column -> ref_table.ref_column`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing column of the owning table.
    pub column: String,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced column.
    pub ref_column: String,
}

/// Immutable description of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<Column>,
    /// Outgoing foreign-key edges.
    pub foreign_keys: Vec<ForeignKey>,
    /// Optional table-level comment.
    pub comment: Option<String>,
}

impl TableSchema {
    /// A schema with no keys or comment.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> TableSchema {
        TableSchema {
            name: name.into(),
            columns,
            foreign_keys: Vec::new(),
            comment: None,
        }
    }

    /// Add a foreign-key edge `self.column -> ref_table.ref_column`.
    pub fn with_foreign_key(
        mut self,
        column: impl Into<String>,
        ref_table: impl Into<String>,
        ref_column: impl Into<String>,
    ) -> TableSchema {
        self.foreign_keys.push(ForeignKey {
            column: column.into(),
            ref_table: ref_table.into(),
            ref_column: ref_column.into(),
        });
        self
    }

    /// Case-insensitive column lookup.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Case-insensitive column access.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.column_index(name).map(|i| &self.columns[i])
    }
}

/// A table: schema plus row storage.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    /// Row storage, in insertion order.
    pub rows: Vec<Row>,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: TableSchema) -> Table {
        Table { schema, rows: Vec::new() }
    }

    /// Insert a row, coercing each value to the column's storage class and
    /// enforcing NOT NULL.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.columns.len() {
            return Err(Error::Catalog(format!(
                "table {}: expected {} values, got {}",
                self.schema.name,
                self.schema.columns.len(),
                row.len()
            )));
        }
        let mut coerced = Vec::with_capacity(row.len());
        for (value, col) in row.into_iter().zip(&self.schema.columns) {
            if value.is_null() {
                if col.not_null {
                    return Err(Error::Catalog(format!(
                        "NOT NULL constraint failed: {}.{}",
                        self.schema.name, col.name
                    )));
                }
                coerced.push(Value::Null);
                continue;
            }
            // Coerce only when the storage class differs and the conversion
            // is faithful (e.g. text that is numeric into a numeric column).
            let v = match (col.data_type, &value) {
                (DataType::Integer, Value::Real(r)) if r.fract() == 0.0 => Value::Integer(*r as i64),
                (DataType::Real, Value::Integer(i)) => Value::Real(*i as f64),
                (DataType::Integer, Value::Text(t)) => match t.trim().parse::<i64>() {
                    Ok(i) => Value::Integer(i),
                    Err(_) => value,
                },
                (DataType::Real, Value::Text(t)) => match t.trim().parse::<f64>() {
                    Ok(r) => Value::Real(r),
                    Err(_) => value,
                },
                (DataType::Text, Value::Integer(i)) => Value::Text(i.to_string()),
                (DataType::Text, Value::Real(r)) => Value::Text(crate::value::format_real(*r)),
                _ => value,
            };
            coerced.push(v);
        }
        self.rows.push(coerced);
        Ok(())
    }

    /// `SELECT DISTINCT col FROM t WHERE col IS NOT NULL LIMIT n` — the
    /// representative-value probe from §6.3(3) of the paper.
    pub fn representative_values(&self, column: &str, limit: usize) -> Vec<Value> {
        self.representative_values_capped(column, limit, usize::MAX)
    }

    /// Like [`Table::representative_values`] but scanning at most
    /// `max_scan` rows — used by hot feature-extraction paths where an
    /// approximate sample is sufficient.
    pub fn representative_values_capped(&self, column: &str, limit: usize, max_scan: usize) -> Vec<Value> {
        let Some(idx) = self.schema.column_index(column) else {
            return Vec::new();
        };
        // Hashed by reference: only the values kept are cloned.
        let mut seen: HashSet<&Value> = HashSet::new();
        let mut out = Vec::new();
        for row in self.rows.iter().take(max_scan) {
            let v = &row[idx];
            if v.is_null() {
                continue;
            }
            if seen.insert(v) {
                out.push(v.clone());
                if out.len() >= limit {
                    break;
                }
            }
        }
        out
    }

    /// Number of stored rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }
}

/// Process-global source of revision tokens: every catalog mutation stamps
/// the database with a fresh, never-reused value, so two databases (or two
/// states of one database) never share a revision unless one is an
/// unmutated clone of the other.
static REVISION_TOKENS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn next_revision() -> u64 {
    REVISION_TOKENS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// A database: a named collection of tables.
#[derive(Debug, Clone)]
pub struct Database {
    /// Database id (the benchmark `db_id`).
    pub name: String,
    /// Tables in creation order.
    pub tables: Vec<Table>,
    /// Mutation token: refreshed by every catalog mutation (DDL or row
    /// access through [`Database::table_mut`]). Caches key derived state on
    /// this, so stale entries become unreachable the moment the catalog
    /// changes. In-process only — not stable across runs.
    revision: u64,
}

impl Default for Database {
    fn default() -> Database {
        Database::new("")
    }
}

impl Database {
    /// An empty database.
    pub fn new(name: impl Into<String>) -> Database {
        Database { name: name.into(), tables: Vec::new(), revision: next_revision() }
    }

    /// The current mutation token. Equal revisions imply identical catalog
    /// state (within this process); a differing revision means derived
    /// state (BM25 indexes, cached schema filters) must be rebuilt.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Stamp a fresh revision. Called by every mutating accessor; public so
    /// callers that mutate table internals through other routes can mark
    /// the database dirty themselves.
    pub fn bump_revision(&mut self) -> u64 {
        self.revision = next_revision();
        self.revision
    }

    /// Stamp this catalog with an externally observed revision token.
    ///
    /// For introspection mirrors: a catalog reconstructed from a live
    /// connection must carry the *backend's* revision, not the fresh tokens
    /// its own construction minted — otherwise every re-introspection of an
    /// unchanged schema would look like a mutation and invalidate caches.
    /// Callers must only stamp a faithful copy of the catalog state the
    /// token describes, preserving the "equal revisions imply identical
    /// catalog state" invariant.
    pub fn set_revision(&mut self, token: u64) {
        self.revision = token;
    }

    /// Create a table; errors if the name already exists.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<&mut Table> {
        if self.table(&schema.name).is_some() {
            return Err(Error::Catalog(format!("table {} already exists", schema.name)));
        }
        self.bump_revision();
        self.tables.push(Table::new(schema));
        Ok(self.tables.last_mut().unwrap())
    }

    /// Case-insensitive table access.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.schema.name.eq_ignore_ascii_case(name))
    }

    /// Case-insensitive mutable table access. Conservatively stamps a new
    /// revision when the table exists: handing out `&mut Table` means rows
    /// or schema may change.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        let ix = self
            .tables
            .iter()
            .position(|t| t.schema.name.eq_ignore_ascii_case(name))?;
        self.bump_revision();
        Some(&mut self.tables[ix])
    }

    /// The table names, in creation order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.iter().map(|t| t.schema.name.as_str()).collect()
    }

    /// Total number of non-null cell values in the database — the quantity
    /// the paper cites when motivating the BM25 coarse filter ("116.5
    /// million valid values").
    pub fn value_count(&self) -> usize {
        self.tables
            .iter()
            .map(|t| {
                t.rows
                    .iter()
                    .map(|r| r.iter().filter(|v| !v.is_null()).count())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Iterate `(table, column, value)` over every distinct *text* value —
    /// the stream the value retriever indexes.
    pub fn text_values(&self) -> Vec<(String, String, String)> {
        let mut out = Vec::new();
        for t in &self.tables {
            for (ci, col) in t.schema.columns.iter().enumerate() {
                let mut seen = HashSet::new();
                for row in &t.rows {
                    if let Value::Text(s) = &row[ci] {
                        if seen.insert(s.as_str()) {
                            out.push((t.schema.name.clone(), col.name.clone(), s.clone()));
                        }
                    }
                }
            }
        }
        out
    }

    /// All foreign-key edges in the database.
    pub fn foreign_keys(&self) -> Vec<(String, ForeignKey)> {
        self.tables
            .iter()
            .flat_map(|t| {
                t.schema
                    .foreign_keys
                    .iter()
                    .map(|fk| (t.schema.name.clone(), fk.clone()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Database {
        let mut db = Database::new("shop");
        let customers = TableSchema::new(
            "customers",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("name", DataType::Text),
                Column::new("balance", DataType::Real),
            ],
        );
        db.create_table(customers).unwrap();
        let orders = TableSchema::new(
            "orders",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("customer_id", DataType::Integer),
                Column::new("amount", DataType::Real),
            ],
        )
        .with_foreign_key("customer_id", "customers", "id");
        db.create_table(orders).unwrap();
        let t = db.table_mut("customers").unwrap();
        t.insert(vec![1.into(), "Alice".into(), 10.5.into()]).unwrap();
        t.insert(vec![2.into(), "Bob".into(), Value::Null]).unwrap();
        t.insert(vec![3.into(), "Alice".into(), 2.0.into()]).unwrap();
        db
    }

    #[test]
    fn create_and_lookup_are_case_insensitive() {
        let db = sample_db();
        assert!(db.table("CUSTOMERS").is_some());
        let t = db.table("customers").unwrap();
        assert_eq!(t.schema.column_index("NAME"), Some(1));
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = sample_db();
        let dup = TableSchema::new("customers", vec![Column::new("x", DataType::Integer)]);
        assert!(matches!(db.create_table(dup), Err(Error::Catalog(_))));
    }

    #[test]
    fn insert_enforces_arity_and_not_null() {
        let mut db = sample_db();
        let t = db.table_mut("customers").unwrap();
        assert!(t.insert(vec![1.into()]).is_err());
        assert!(t.insert(vec![Value::Null, "x".into(), Value::Null]).is_err());
    }

    #[test]
    fn insert_coerces_storage_classes() {
        let mut db = sample_db();
        let t = db.table_mut("customers").unwrap();
        t.insert(vec![Value::Text("7".into()), Value::Integer(42), Value::Integer(3)])
            .unwrap();
        let row = t.rows.last().unwrap();
        assert_eq!(row[0], Value::Integer(7));
        assert_eq!(row[1], Value::Text("42".into()));
        assert_eq!(row[2], Value::Real(3.0));
    }

    #[test]
    fn representative_values_distinct_nonnull_limited() {
        let db = sample_db();
        let t = db.table("customers").unwrap();
        let names = t.representative_values("name", 2);
        assert_eq!(names, vec![Value::Text("Alice".into()), Value::Text("Bob".into())]);
        let balances = t.representative_values("balance", 5);
        assert_eq!(balances.len(), 2); // NULL skipped
    }

    #[test]
    fn representative_values_capped_stops_scanning_at_max_scan() {
        // 30 rows cycling NULL, 0, 1, 2, 3 and then one value seen nowhere else.
        let mut t = Table::new(TableSchema::new("t", vec![Column::new("x", DataType::Integer)]));
        for i in 0..30i64 {
            let v = if i % 5 == 0 { Value::Null } else { Value::Integer(i % 5 - 1) };
            t.insert(vec![v]).unwrap();
        }
        t.insert(vec![Value::Integer(99)]).unwrap();
        let first_seen: Vec<Value> = (0..4).map(Value::Integer).collect();
        // First-seen order, distinct, NULLs skipped; row 31 is past the cap.
        assert_eq!(t.representative_values_capped("x", 16, 30), first_seen);
        assert_eq!(t.representative_values_capped("x", 3, 30), first_seen[..3]);
        assert_eq!(t.representative_values_capped("x", 16, 3), first_seen[..2]);
        let mut all = first_seen.clone();
        all.push(Value::Integer(99));
        assert_eq!(t.representative_values("x", 16), all);
        assert!(t.representative_values_capped("nope", 16, 30).is_empty());
    }

    #[test]
    fn value_count_and_text_values() {
        let db = sample_db();
        assert_eq!(db.value_count(), 8); // 9 cells minus one NULL
        let texts = db.text_values();
        assert_eq!(texts.len(), 2); // Alice, Bob (distinct)
    }

    #[test]
    fn revision_changes_on_mutation_and_is_stable_otherwise() {
        let mut db = sample_db();
        let r0 = db.revision();
        assert!(db.table("customers").is_some());
        assert_eq!(db.revision(), r0, "read access leaves the revision alone");
        db.table_mut("customers").unwrap();
        let r1 = db.revision();
        assert_ne!(r1, r0);
        db.create_table(TableSchema::new("t2", vec![Column::new("x", DataType::Integer)]))
            .unwrap();
        assert_ne!(db.revision(), r1);
        // A fresh database never shares a token with an existing one, even
        // under the same name.
        assert_ne!(Database::new("shop").revision(), db.revision());
    }

    #[test]
    fn foreign_keys_enumerated() {
        let db = sample_db();
        let fks = db.foreign_keys();
        assert_eq!(fks.len(), 1);
        assert_eq!(fks[0].0, "orders");
        assert_eq!(fks[0].1.ref_table, "customers");
    }
}
