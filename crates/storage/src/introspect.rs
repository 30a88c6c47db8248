//! Live schema introspection: build a full [`Catalog`] from a connection.
//!
//! This is the paper's Algorithm-1 metadata — tables, columns with types
//! and comments, PK/FK edges, and the cell values the BM25 value indexes
//! and representative-value prompt sections feed on — but *discovered at
//! runtime* over the [`crate::Connection`] trait instead of requiring a
//! pre-registered database. The result is an executable mirror: schema
//! via the catalog-introspection calls, rows harvested through paged
//! `SELECT`s over the same wire every query takes, so everything
//! downstream (Figure-4 prompt construction, value indexing, EX-style
//! execution of candidate SQL) works on the mirror exactly as it would on
//! a hand-registered catalog.
//!
//! **Revision stamping.** The backend's revision token is read before and
//! after the harvest; on mismatch (the schema moved under the reader) the
//! harvest retries, and after [`IntrospectOptions::consistency_retries`]
//! failures reports [`StorageError::Introspect`]. The mirror is stamped
//! with the *backend's* token ([`sqlengine::Database::set_revision`]), so
//! the existing cache generation-invalidation works unchanged: an
//! unchanged schema re-introspects to the same token (no spurious
//! invalidation), a changed schema yields a fresh token and bumps
//! generations exactly like a local catalog mutation.

use std::collections::VecDeque;

use parking_lot::Mutex;
use sqlengine::{Database, Table};

use crate::backend::{quote_ident, Connection};
use crate::error::StorageError;
use crate::pool::ConnectionPool;

/// Introspection tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct IntrospectOptions {
    /// Rows fetched per paged `SELECT` during the row harvest.
    pub page_size: usize,
    /// Cap on harvested rows per table; `None` mirrors everything (the
    /// right choice for in-process backends, where the mirror doubles as
    /// the execution target).
    pub max_rows_per_table: Option<usize>,
    /// How many times to restart the harvest when the revision token
    /// moves mid-read before giving up.
    pub consistency_retries: u32,
}

impl Default for IntrospectOptions {
    fn default() -> IntrospectOptions {
        IntrospectOptions { page_size: 256, max_rows_per_table: None, consistency_retries: 3 }
    }
}

/// A catalog discovered from a live connection.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// The backend's revision token at harvest time (also stamped into
    /// [`Catalog::database`]).
    pub revision: u64,
    /// Executable mirror of the discovered schema and data, named after
    /// the source `db_id`.
    pub database: Database,
}

impl Catalog {
    /// The source database id.
    pub fn db_id(&self) -> &str {
        &self.database.name
    }

    /// Number of discovered tables.
    pub fn table_count(&self) -> usize {
        self.database.tables.len()
    }

    /// Number of discovered columns, across all tables.
    pub fn column_count(&self) -> usize {
        self.database.tables.iter().map(|t| t.schema.columns.len()).sum()
    }

    /// Number of harvested cell values, across all tables.
    pub fn value_count(&self) -> usize {
        self.database
            .tables
            .iter()
            .map(|t| t.rows.len() * t.schema.columns.len())
            .sum()
    }
}

/// Wrap a non-transport error into the introspection kind; transport and
/// pool failures keep their own kinds so callers can tell "the backend is
/// down" from "the backend answered nonsense".
fn introspect_err(context: &str, e: StorageError) -> StorageError {
    match e {
        StorageError::Connect(_)
        | StorageError::Exhausted { .. }
        | StorageError::Closed
        | StorageError::UnknownDatabase(_) => e,
        StorageError::Introspect(what) => StorageError::Introspect(format!("{context}: {what}")),
        StorageError::Engine(engine) => {
            StorageError::Introspect(format!("{context}: {engine}"))
        }
    }
}

/// Build a [`Catalog`] for `db_id` over `conn` alone.
pub fn introspect(
    conn: &mut dyn Connection,
    db_id: &str,
    options: &IntrospectOptions,
) -> Result<Catalog, StorageError> {
    introspect_with(conn, None, None, db_id, options)
}

/// [`introspect`] with what a [`crate::CatalogService`] can add: `lender`,
/// a pool whose spare connections harvest tables beside `conn`, and
/// `known`, a revision token the caller has just read. `known` stands in
/// for the first pass's `before` read — anything that moved since it was
/// read still fails `before == after` — and a retry reads its own.
pub(crate) fn introspect_with(
    conn: &mut dyn Connection,
    lender: Option<&ConnectionPool>,
    mut known: Option<u64>,
    db_id: &str,
    options: &IntrospectOptions,
) -> Result<Catalog, StorageError> {
    let mut last_moved = (0u64, 0u64);
    for _ in 0..=options.consistency_retries {
        let before = match known.take() {
            Some(token) => token,
            None => conn.revision(db_id)?,
        };
        let database = harvest(conn, lender, db_id, options)?;
        let after = conn.revision(db_id)?;
        if before == after {
            let mut database = database;
            database.set_revision(before);
            return Ok(Catalog { revision: before, database });
        }
        last_moved = (before, after);
    }
    Err(StorageError::Introspect(format!(
        "{db_id}: revision kept moving during harvest ({} -> {} on the final attempt)",
        last_moved.0, last_moved.1
    )))
}

/// One harvest pass: the table listing over `conn`, then every listed
/// table pulled off a shared queue by `conn` and by as many connections
/// as `lender` can spare without making anyone wait (none when `lender`
/// is `None`, the pool has no free slot, or there is a single table).
/// The mirror is assembled in listing order, so it does not depend on
/// which connection harvested what. Returns once every lent connection
/// is back in the pool.
fn harvest(
    conn: &mut dyn Connection,
    lender: Option<&ConnectionPool>,
    db_id: &str,
    options: &IntrospectOptions,
) -> Result<Database, StorageError> {
    let tables = conn.tables(db_id)?;
    let pass = Pass {
        db_id,
        tables: &tables,
        options,
        progress: Mutex::new(Progress {
            pending: (0..tables.len()).collect(),
            harvested: Vec::with_capacity(tables.len()),
            failed: None,
        }),
    };
    let helpers =
        lender.map_or(0, |pool| pool.free_slots().min(tables.len().saturating_sub(1)));
    std::thread::scope(|scope| {
        for _ in 0..helpers {
            // Checked out on the helper's own thread: an establishment is
            // a round trip the caller should not wait for.
            let helper = std::thread::Builder::new().spawn_scoped(scope, || {
                if let Some(mut lent) = lender.and_then(ConnectionPool::try_checkout) {
                    pass.pull(&mut lent, true);
                }
            });
            // No thread to be had: the harvest goes on with the help it has.
            if helper.is_err() {
                break;
            }
        }
        pass.pull(conn, false);
    });
    // Every helper has joined: a table one of them handed back after the
    // caller's loop had run dry is harvested now.
    pass.pull(conn, false);

    let Progress { mut harvested, failed, .. } = pass.progress.into_inner();
    if let Some((_, e)) = failed {
        return Err(e);
    }
    harvested.sort_by_key(|(at, _)| *at);
    let mut database = Database::new(db_id);
    for (at, table) in harvested {
        // `create_table` stamps local revisions freely; the final
        // `set_revision` overwrites them with the backend's token.
        match database.create_table(table.schema) {
            Ok(created) => created.rows = table.rows,
            Err(_) => {
                return Err(StorageError::Introspect(format!(
                    "{db_id}: backend listed table '{}' twice",
                    tables[at]
                )))
            }
        }
    }
    Ok(database)
}

/// What the connections of one harvest pass share.
struct Pass<'a> {
    db_id: &'a str,
    tables: &'a [String],
    options: &'a IntrospectOptions,
    progress: Mutex<Progress>,
}

struct Progress {
    /// Indices into [`Pass::tables`] nobody has taken yet, in listing order.
    pending: VecDeque<usize>,
    harvested: Vec<(usize, Table)>,
    /// The failure of the earliest-listed table that had one — the one a
    /// single connection walking the listing would have reported. Once
    /// set, nobody takes another table.
    failed: Option<(usize, StorageError)>,
}

impl Pass<'_> {
    /// The table loop: take the next pending table and harvest it over
    /// `conn`, until none is left or the pass has failed. A `lent`
    /// connection that fails at the transport (it died while parked, say)
    /// does not fail the pass: its table goes back on the queue for the
    /// caller's connection, which has proved itself live, and the guard,
    /// tainted by that failure, is probed or discarded when it drops.
    /// Every other error, and any error on the caller's connection, fails
    /// the pass.
    fn pull(&self, conn: &mut dyn Connection, lent: bool) {
        loop {
            let at = {
                let mut progress = self.progress.lock();
                if progress.failed.is_some() {
                    return;
                }
                let Some(at) = progress.pending.pop_front() else {
                    return;
                };
                at
            };
            let outcome = harvest_table(conn, self.db_id, &self.tables[at], self.options);
            let mut progress = self.progress.lock();
            match outcome {
                Ok(table) => progress.harvested.push((at, table)),
                Err(StorageError::Connect(_)) if lent => {
                    progress.pending.push_front(at);
                    return;
                }
                Err(e) => {
                    match &progress.failed {
                        Some((first, _)) if *first < at => {}
                        _ => progress.failed = Some((at, e)),
                    }
                    return;
                }
            }
        }
    }
}

/// The unit of work: one table's schema via catalog introspection, then
/// its rows via the chain of paged SELECTs through `execute`.
fn harvest_table(
    conn: &mut dyn Connection,
    db_id: &str,
    table_name: &str,
    options: &IntrospectOptions,
) -> Result<Table, StorageError> {
    let page_size = options.page_size.max(1);
    let schema = conn.table_schema(db_id, table_name)?;
    if !schema.name.eq_ignore_ascii_case(table_name) {
        return Err(StorageError::Introspect(format!(
            "{db_id}: backend described table '{}' when asked for '{table_name}'",
            schema.name
        )));
    }
    let column_count = schema.columns.len();
    let mut table = Table::new(schema);
    let mut offset = 0usize;
    loop {
        let remaining = options
            .max_rows_per_table
            .map_or(page_size, |cap| cap.saturating_sub(offset).min(page_size));
        if remaining == 0 {
            break;
        }
        let sql = format!(
            "SELECT * FROM {} LIMIT {remaining} OFFSET {offset}",
            quote_ident(table_name)
        );
        let page = conn
            .execute(db_id, &sql)
            .map_err(|e| introspect_err(&format!("{db_id}.{table_name} row harvest"), e))?;
        let fetched = page.rows.len();
        if fetched == 0 {
            break;
        }
        for row in page.rows {
            if row.len() != column_count {
                return Err(StorageError::Introspect(format!(
                    "{db_id}.{table_name}: row arity {} does not match {} columns",
                    row.len(),
                    column_count
                )));
            }
            if let Err(e) = table.insert(row) {
                return Err(StorageError::Introspect(format!(
                    "{db_id}.{table_name}: harvested row rejected by schema: {e}"
                )));
            }
        }
        offset += fetched;
        if fetched < remaining {
            break;
        }
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::memory::MemoryBackend;
    use sqlengine::{Column, DataType, TableSchema};

    fn fixture() -> Database {
        let mut db = Database::new("shop");
        let items = db
            .create_table(
                TableSchema::new(
                    "items",
                    vec![
                        Column::new("id", DataType::Integer).primary_key(),
                        Column::new("label", DataType::Text).with_comment("display name"),
                        Column::new("price", DataType::Real),
                    ],
                )
                .with_foreign_key("id", "stock", "item_id"),
            )
            .expect("fresh table");
        for i in 0..700i64 {
            items
                .insert(vec![i.into(), format!("item-{i}").into(), (i as f64 * 0.5).into()])
                .expect("row fits");
        }
        db.create_table(TableSchema::new(
            "stock",
            vec![Column::new("item_id", DataType::Integer), Column::new("n", DataType::Integer)],
        ))
        .expect("fresh table");
        db
    }

    #[test]
    fn mirror_is_faithful_and_revision_stamped() {
        let source = fixture();
        let source_revision = source.revision();
        let backend = MemoryBackend::new(vec![source]);
        let mut conn = backend.connect().expect("connect");
        let catalog =
            introspect(&mut conn, "shop", &IntrospectOptions::default()).expect("introspects");

        assert_eq!(catalog.revision, source_revision, "stamped with the backend's token");
        assert_eq!(catalog.database.revision(), source_revision);
        assert_eq!(catalog.table_count(), 2);
        assert_eq!(catalog.column_count(), 5);
        let items = catalog.database.table("items").expect("mirrored");
        assert_eq!(items.rows.len(), 700, "paged harvest crosses page boundaries");
        assert_eq!(items.schema.columns[1].comment.as_deref(), Some("display name"));
        assert_eq!(items.schema.foreign_keys.len(), 1, "FK edges survive");
        // Row content and order survive the wire.
        assert_eq!(items.rows[699][1], "item-699".into());
    }

    #[test]
    fn row_cap_limits_the_harvest() {
        let backend = MemoryBackend::new(vec![fixture()]);
        let mut conn = backend.connect().expect("connect");
        let options =
            IntrospectOptions { max_rows_per_table: Some(10), ..IntrospectOptions::default() };
        let catalog = introspect(&mut conn, "shop", &options).expect("introspects");
        assert_eq!(catalog.database.table("items").expect("mirrored").rows.len(), 10);
    }

    #[test]
    fn unknown_database_keeps_its_kind() {
        let backend = MemoryBackend::new(vec![]);
        let mut conn = backend.connect().expect("connect");
        let err = introspect(&mut conn, "nowhere", &IntrospectOptions::default())
            .expect_err("no such db");
        assert_eq!(err.kind(), "unknown_database");
    }
}
