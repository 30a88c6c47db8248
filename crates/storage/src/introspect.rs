//! Live schema introspection: build a full [`Catalog`] from a connection.
//!
//! This is the paper's Algorithm-1 metadata — tables, columns with types
//! and comments, PK/FK edges, and the cell values the BM25 value indexes
//! and representative-value prompt sections feed on — but *discovered at
//! runtime* over the [`crate::Connection`] trait instead of requiring a
//! pre-registered database. The result is an executable mirror: schema
//! via the catalog-introspection calls, each table's rows through one
//! `SELECT *` over the same wire every query takes, so everything
//! downstream (Figure-4 prompt construction, value indexing, EX-style
//! execution of candidate SQL) works on the mirror exactly as it would on
//! a hand-registered catalog.
//!
//! **Pipelines.** Every fact is one request — the table listing, one
//! table's schema, one table's rows — and a harvest sends them in
//! [`Connection::pipeline`]s over one connection, a table's rows beside
//! its schema. A pass is at most two pipelines. A refresh's first names
//! the listing and every table the mirror it replaces predicts; a second
//! follows only for listed tables nobody predicted. An attach predicts
//! nothing: the listing, then every listed table.
//!
//! **Revision stamping.** The backend's revision token is read before the
//! harvest (the first request of its first pipeline, unless the caller has
//! just read it) and at the end of every later pipeline; the last of those
//! is `after`. When one differs from `before` (the schema moved under the
//! reader) the harvest retries, and after `CONSISTENCY_RETRIES` failures
//! reports [`StorageError::Introspect`]. Tokens are never reused, so the
//! bracket holds whether or not the backend runs a pipeline atomically.
//! The mirror is stamped with the *backend's* token
//! ([`sqlengine::Database::set_revision`]), so the existing cache
//! generation-invalidation works unchanged: an unchanged schema
//! re-introspects to the same token (no spurious invalidation), a changed
//! schema yields a fresh token and bumps generations exactly like a local
//! catalog mutation.

use std::ops::Range;

use sqlengine::{Database, Row, TableSchema};

use crate::backend::{quote_ident, Connection, Reply, Request};
use crate::error::StorageError;
use crate::service::{Commit, Observer};

/// How many times a harvest restarts when the revision token moves
/// mid-read before giving up.
const CONSISTENCY_RETRIES: u32 = 3;

/// Introspection options: there are none. [`crate::CatalogService::new`]
/// takes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntrospectOptions {}

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

/// Build a [`Catalog`] for `db_id` over `conn`.
pub fn introspect(conn: &mut dyn Connection, db_id: &str) -> Result<Catalog, StorageError> {
    introspect_with(conn, None, None, db_id, None).map(|(catalog, _)| catalog)
}

/// [`introspect`] with what a [`crate::CatalogService`] can add:
/// `prediction`, the mirror this one replaces, whose tables name the first
/// pipeline; `known`, a revision token the caller has just read; and
/// `observer`, whose build runs on the mirror once its bracket has held.
/// `known` stands in for the first pass's `before` read — anything that
/// moved since it was read still fails `before == after` — and a retry
/// reads its own.
pub(crate) fn introspect_with(
    conn: &mut dyn Connection,
    prediction: Option<&Database>,
    mut known: Option<u64>,
    db_id: &str,
    observer: Option<&Observer>,
) -> Result<(Catalog, Option<Commit>), StorageError> {
    let mut last_moved = (0u64, 0u64);
    for _ in 0..=CONSISTENCY_RETRIES {
        match harvest(conn, prediction, known.take(), db_id)? {
            Bracket::Held(before, mut database) => {
                database.set_revision(before);
                let commit = observer.map(|observe| observe(&database));
                return Ok((Catalog { revision: before, database }, commit));
            }
            Bracket::Moved(before, after) => last_moved = (before, after),
        }
    }
    Err(StorageError::Introspect(format!(
        "{db_id}: revision kept moving during harvest ({} -> {} on the final attempt)",
        last_moved.0, last_moved.1
    )))
}

/// How one harvest pass ended.
enum Bracket {
    /// Every revision read matched `before`: the pass's mirror.
    Held(u64, Database),
    /// A revision read saw `after`, not `before`.
    Moved(u64, u64),
}

/// One harvest pass, at most two pipelines: the listing beside every
/// predicted table, then every listed table nobody predicted. `before` is
/// `known`, or the first request of the first pipeline. The first
/// pipeline of a pass with a prediction ends in a revision read, and so
/// does the second.
fn harvest(
    conn: &mut dyn Connection,
    prediction: Option<&Database>,
    known: Option<u64>,
    db_id: &str,
) -> Result<Bracket, StorageError> {
    let mut pass = Pass { db_id, tables: Vec::new() };
    for table in prediction.map_or(&[][..], |db| &db.tables[..]) {
        pass.table(&table.schema.name);
    }
    let predicted = pass.tables.len();
    let first = pass.send(conn, known.is_none(), true, 0..predicted, prediction.is_some())?;
    let (Some(before), Some(listing)) = (known.or(first.before), first.listing) else {
        unreachable!("the first pipeline reads the listing, and `before` unless it is known")
    };
    // Tables the listing names that nobody predicted join the pass here.
    // Tables predicted but no longer listed are dropped from here on,
    // their failures included.
    let listed: Vec<usize> = listing.iter().map(|name| pass.table(name)).collect();
    // An attach asks for every listed table here. A refresh asks only for
    // those nobody predicted, and not once its first bracket has moved.
    let mut after = first.after;
    let unpredicted = predicted..pass.tables.len();
    if prediction.is_none() || (after == Some(before) && !unpredicted.is_empty()) {
        after = pass.send(conn, false, false, unpredicted, true)?.after;
    }
    // Of the listed tables that failed, the earliest-listed one is
    // reported: what a serial walk of the listing reports.
    for &at in &listed {
        if let Some(e) = pass.tables[at].failed.take() {
            return Err(e);
        }
    }
    match after {
        Some(after) if after != before => Ok(Bracket::Moved(before, after)),
        _ => Ok(Bracket::Held(before, pass.assemble(&listing, &listed)?)),
    }
}

/// What one pipeline read besides its tables' answers.
struct Sent {
    before: Option<u64>,
    listing: Option<Vec<String>>,
    after: Option<u64>,
}

/// A revision read's answer.
fn revision(db_id: &str, reply: Result<Reply, StorageError>) -> Result<u64, StorageError> {
    match reply? {
        Reply::Revision(token) => Ok(token),
        _ => Err(mismatched(db_id, "a revision read")),
    }
}

fn mismatched(db_id: &str, request: &str) -> StorageError {
    StorageError::Introspect(format!("{db_id}: backend answered {request} with another kind"))
}

/// What a pass knows of one table, predicted or listed.
struct TableHarvest {
    name: String,
    /// Its schema and rows, once both have come back.
    harvested: Option<(TableSchema, Vec<Row>)>,
    /// Why they did not: the schema's failure before the rows'.
    failed: Option<StorageError>,
}

/// One harvest pass's state between pipelines.
struct Pass<'a> {
    db_id: &'a str,
    /// Every table the pass has asked about, predicted ones first.
    tables: Vec<TableHarvest>,
}

impl Pass<'_> {
    /// The index of table `name`, added on first sight.
    fn table(&mut self, name: &str) -> usize {
        if let Some(at) = self.tables.iter().position(|table| table.name == name) {
            return at;
        }
        self.tables.push(TableHarvest { name: name.to_string(), harvested: None, failed: None });
        self.tables.len() - 1
    }

    /// The mirror, in listing order, so it does not depend on what was
    /// predicted.
    fn assemble(
        mut self,
        listing: &[String],
        listed: &[usize],
    ) -> Result<Database, StorageError> {
        let db_id = self.db_id;
        let mut database = Database::new(db_id);
        for (name, &at) in listing.iter().zip(listed) {
            let twice = || {
                StorageError::Introspect(format!("{db_id}: backend listed table '{name}' twice"))
            };
            // A name listed twice shares one harvest: its second sighting
            // finds it already taken.
            let Some((schema, rows)) = self.tables[at].harvested.take() else {
                return Err(twice());
            };
            // `create_table` stamps local revisions freely; the final
            // `set_revision` overwrites them with the backend's token.
            let created = database.create_table(schema).map_err(|_| twice())?;
            let column_count = created.schema.columns.len();
            for row in rows {
                if row.len() != column_count {
                    return Err(StorageError::Introspect(format!(
                        "{db_id}.{name}: row arity {} does not match {column_count} columns",
                        row.len()
                    )));
                }
                if let Err(e) = created.insert(row) {
                    return Err(StorageError::Introspect(format!(
                        "{db_id}.{name}: harvested row rejected by schema: {e}"
                    )));
                }
            }
        }
        Ok(database)
    }

    /// Send one pipeline over `conn`: a revision read when `before`, the
    /// listing when `list`, the schema and rows of each of `tables`, and a
    /// revision read when `after`; fold the tables' answers in. The pass
    /// fails on a failed revision read or listing, and on a table request
    /// that failed at the transport (the connection is gone); any other
    /// failure is its table's, judged once the listing is known.
    fn send(
        &mut self,
        conn: &mut dyn Connection,
        before: bool,
        list: bool,
        tables: Range<usize>,
        after: bool,
    ) -> Result<Sent, StorageError> {
        let db_id = self.db_id;
        let mut reqs = Vec::with_capacity(2 * tables.len() + 3);
        if before {
            reqs.push(Request::Revision);
        }
        if list {
            reqs.push(Request::Tables);
        }
        for table in &self.tables[tables.clone()] {
            reqs.push(Request::Schema(table.name.clone()));
            reqs.push(Request::Execute(format!("SELECT * FROM {}", quote_ident(&table.name))));
        }
        if after {
            reqs.push(Request::Revision);
        }
        let mut replies = conn.pipeline(db_id, &reqs).into_iter();
        let mut next = || {
            replies.next().unwrap_or_else(|| {
                Err(StorageError::Introspect(format!("{db_id}: backend answered a pipeline short")))
            })
        };
        let before = if before { Some(revision(db_id, next())?) } else { None };
        let listing = match list.then(&mut next).transpose()? {
            Some(Reply::Tables(names)) => Some(names),
            Some(_) => return Err(mismatched(db_id, "the table listing")),
            None => None,
        };
        for table in &mut self.tables[tables] {
            let schema = match next() {
                Err(e @ StorageError::Connect(_)) => return Err(e),
                Ok(Reply::Schema(schema)) if schema.name.eq_ignore_ascii_case(&table.name) => {
                    Ok(schema)
                }
                Ok(Reply::Schema(schema)) => Err(StorageError::Introspect(format!(
                    "{db_id}: backend described table '{}' when asked for '{}'",
                    schema.name, table.name
                ))),
                reply => Err(reply.err().unwrap_or_else(|| mismatched(db_id, "a schema request"))),
            };
            let rows = match next() {
                Err(e @ StorageError::Connect(_)) => return Err(e),
                Ok(Reply::Rows(result)) => Ok(result.rows),
                reply => {
                    let e = reply.err().unwrap_or_else(|| mismatched(db_id, "a row read"));
                    Err(introspect_err(&format!("{db_id}.{} row harvest", table.name), e))
                }
            };
            match (schema, rows) {
                (Ok(schema), Ok(rows)) => table.harvested = Some((schema, rows)),
                (Err(e), _) | (_, Err(e)) => table.failed = Some(e),
            }
        }
        let after = if after { Some(revision(db_id, next())?) } else { None };
        Ok(Sent { before, listing, after })
    }
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
        let catalog = introspect(&mut conn, "shop").expect("introspects");

        assert_eq!(catalog.revision, source_revision, "stamped with the backend's token");
        assert_eq!(catalog.database.revision(), source_revision);
        assert_eq!(catalog.table_count(), 2);
        assert_eq!(catalog.column_count(), 5);
        let items = catalog.database.table("items").expect("mirrored");
        assert_eq!(items.rows.len(), 700, "every row is harvested");
        assert_eq!(items.schema.columns[1].comment.as_deref(), Some("display name"));
        assert_eq!(items.schema.foreign_keys.len(), 1, "FK edges survive");
        // Row content and order survive the wire.
        assert_eq!(items.rows[699][1], "item-699".into());
    }

    #[test]
    fn unknown_database_keeps_its_kind() {
        let backend = MemoryBackend::new(vec![]);
        let mut conn = backend.connect().expect("connect");
        let err = introspect(&mut conn, "nowhere").expect_err("no such db");
        assert_eq!(err.kind(), "unknown_database");
    }
}
