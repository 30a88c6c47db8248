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
//! **Pipelines.** Every fact is one request — the table listing, one
//! table's schema, one page of one table's rows — and a harvest sends them
//! in [`Connection::pipeline`]s over one connection: every request it can
//! name up front at once. A refresh names them all: the mirror it replaces
//! predicts the listing, every schema and every page, so when nothing but
//! rows within a page moved the harvest is one pipeline. What the
//! prediction missed follows in further pipelines: a newly listed table's
//! schema and first page, the next page of a table whose last page came
//! back full.
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

use sqlengine::{Database, Row, TableSchema};

use crate::backend::{quote_ident, Connection, Reply, Request};
use crate::error::StorageError;
use crate::service::{Commit, Observer};

/// How many times a harvest restarts when the revision token moves
/// mid-read before giving up.
const CONSISTENCY_RETRIES: u32 = 3;

/// Introspection tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct IntrospectOptions {
    /// Rows fetched per paged `SELECT` during the row harvest.
    pub page_size: usize,
}

impl Default for IntrospectOptions {
    fn default() -> IntrospectOptions {
        IntrospectOptions { page_size: 256 }
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

/// Build a [`Catalog`] for `db_id` over `conn`.
pub fn introspect(
    conn: &mut dyn Connection,
    db_id: &str,
    options: &IntrospectOptions,
) -> Result<Catalog, StorageError> {
    introspect_with(conn, None, None, db_id, options, None).map(|(catalog, _)| catalog)
}

/// [`introspect`] with what a [`crate::CatalogService`] can add:
/// `prediction`, the mirror this one replaces, whose tables and row counts
/// name the first pipeline; `known`, a revision token the caller has just
/// read; and `observer`, whose build runs on the mirror once its bracket
/// has held. `known` stands in for the first pass's `before` read —
/// anything that moved since it was read still fails `before == after` —
/// and a retry reads its own.
pub(crate) fn introspect_with(
    conn: &mut dyn Connection,
    prediction: Option<&Database>,
    mut known: Option<u64>,
    db_id: &str,
    options: &IntrospectOptions,
    observer: Option<&Observer>,
) -> Result<(Catalog, Option<Commit>), StorageError> {
    let mut last_moved = (0u64, 0u64);
    for _ in 0..=CONSISTENCY_RETRIES {
        match harvest(conn, prediction, known.take(), db_id, options)? {
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

/// One harvest pass: a first pipeline of the listing and everything
/// `prediction` names, then follow-up pipelines for what it missed, until
/// every listed table's page chain has ended on a short page. `before` is
/// `known`, or the first request of the first pipeline. The first pipeline
/// of a pass with a prediction ends in a revision read, and so does every
/// later one: a pass stops as soon as one has moved.
fn harvest(
    conn: &mut dyn Connection,
    prediction: Option<&Database>,
    known: Option<u64>,
    db_id: &str,
    options: &IntrospectOptions,
) -> Result<Bracket, StorageError> {
    let mut pass = Pass { db_id, page_size: options.page_size.max(1), tables: Vec::new() };
    let predicted = prediction.map_or(&[][..], |db| &db.tables[..]);
    let ats: Vec<usize> = predicted.iter().map(|table| pass.table(&table.schema.name)).collect();
    let mut units: Vec<Unit> = ats.iter().map(|&at| Unit::Schema(at)).collect();
    for (&at, table) in ats.iter().zip(predicted) {
        for _ in 0..=table.rows.len() / pass.page_size {
            units.push(pass.next_page(at));
        }
    }
    let first = pass.send(conn, known.is_none(), true, units, prediction.is_some())?;
    let (Some(before), Some(listing)) = (known.or(first.before), first.listing) else {
        unreachable!("the first pipeline reads the listing, and `before` unless it is known")
    };
    let mut after = first.after;
    // Units asked for a predicted table the listing no longer has are
    // dropped from here on, their failures included.
    let listed: Vec<usize> = listing.iter().map(|name| pass.table(name)).collect();
    loop {
        // Of the listed tables that failed, the earliest-listed one is
        // reported: what a serial walk of the listing reports.
        for &at in &listed {
            if let Some((_, e)) = pass.tables[at].failed.take() {
                return Err(e);
            }
        }
        if let Some(after) = after.filter(|&after| after != before) {
            return Ok(Bracket::Moved(before, after));
        }
        let mut units = Vec::new();
        for &at in &listed {
            let table = &pass.tables[at];
            if table.pages.is_empty() {
                // Listed but not predicted: its schema beside its first page.
                units.push(Unit::Schema(at));
                units.push(pass.next_page(at));
            } else if table.chain_open(pass.page_size) {
                units.push(pass.next_page(at));
            }
        }
        if units.is_empty() && after.is_some() {
            break;
        }
        after = pass.send(conn, false, false, units, true)?.after;
    }
    Ok(Bracket::Held(before, pass.assemble(&listing, &listed)?))
}

/// One request of a harvest besides the listing and the revision reads.
#[derive(Debug, Clone, Copy)]
enum Unit {
    /// `table_schema` of [`Pass::tables`]`[at]`.
    Schema(usize),
    /// Page `page` of that table's rows: `LIMIT page_size OFFSET page × page_size`.
    Page(usize, usize),
}

/// What one pipeline read besides its units' answers.
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
    schema: Option<TableSchema>,
    /// Every page asked for so far, in order; `Some` once answered.
    pages: Vec<Option<Vec<Row>>>,
    /// The failure of one of its units, ranked as a serial chain would
    /// have hit it: the schema (0) before page `p` (`p + 1`).
    failed: Option<(usize, StorageError)>,
}

impl TableHarvest {
    fn fail(&mut self, rank: usize, e: StorageError) {
        if self.failed.as_ref().is_none_or(|(first, _)| rank < *first) {
            self.failed = Some((rank, e));
        }
    }

    /// Whether the page chain goes on: every page asked for has come back,
    /// and full. A short page, the empty one included, ends it.
    fn chain_open(&self, page_size: usize) -> bool {
        self.pages.iter().all(|page| page.as_ref().is_some_and(|rows| rows.len() == page_size))
    }

    /// The rows, through the first short page: what the serial chain
    /// would have fetched. Pages predicted past it come back empty.
    fn rows(&mut self, page_size: usize) -> Vec<Row> {
        let mut rows = Vec::new();
        for page in self.pages.drain(..).flatten() {
            let full = page.len() == page_size;
            rows.extend(page);
            if !full {
                break;
            }
        }
        rows
    }
}

/// One harvest pass's state between pipelines.
struct Pass<'a> {
    db_id: &'a str,
    page_size: usize,
    /// Every table the pass has asked about; units index into it.
    tables: Vec<TableHarvest>,
}

impl Pass<'_> {
    /// The index of table `name`, added on first sight.
    fn table(&mut self, name: &str) -> usize {
        if let Some(at) = self.tables.iter().position(|table| table.name == name) {
            return at;
        }
        self.tables.push(TableHarvest {
            name: name.to_string(),
            schema: None,
            pages: Vec::new(),
            failed: None,
        });
        self.tables.len() - 1
    }

    /// Ask for the next page of table `at`.
    fn next_page(&mut self, at: usize) -> Unit {
        let pages = &mut self.tables[at].pages;
        pages.push(None);
        Unit::Page(at, pages.len() - 1)
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
            let table = &mut self.tables[at];
            // A name listed twice shares one harvest: its second sighting
            // finds the schema already taken.
            let Some(schema) = table.schema.take() else {
                return Err(twice());
            };
            let rows = table.rows(self.page_size);
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

    /// The request that runs `unit`.
    fn request(&self, unit: Unit) -> Request {
        match unit {
            Unit::Schema(at) => Request::Schema(self.tables[at].name.clone()),
            Unit::Page(at, page) => Request::Execute(format!(
                "SELECT * FROM {} LIMIT {} OFFSET {}",
                quote_ident(&self.tables[at].name),
                self.page_size,
                page * self.page_size
            )),
        }
    }

    /// Send one pipeline over `conn`: a revision read when `before`, the
    /// listing when `list`, `units`, and a revision read when `after`; fold
    /// the units' answers in. The pass fails on a failed revision read or
    /// listing, and on a unit that failed at the transport (the connection
    /// is gone); any other unit failure is its table's, judged once the
    /// listing is known.
    fn send(
        &mut self,
        conn: &mut dyn Connection,
        before: bool,
        list: bool,
        units: Vec<Unit>,
        after: bool,
    ) -> Result<Sent, StorageError> {
        let db_id = self.db_id;
        let mut reqs = Vec::with_capacity(units.len() + 3);
        if before {
            reqs.push(Request::Revision);
        }
        if list {
            reqs.push(Request::Tables);
        }
        reqs.extend(units.iter().map(|&unit| self.request(unit)));
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
        for unit in units {
            let (at, rank, outcome) = match (unit, next()) {
                (_, Err(e @ StorageError::Connect(_))) => return Err(e),
                (Unit::Schema(at), Ok(Reply::Schema(schema))) => {
                    let table = &mut self.tables[at];
                    if schema.name.eq_ignore_ascii_case(&table.name) {
                        table.schema = Some(schema);
                        continue;
                    }
                    let e = StorageError::Introspect(format!(
                        "{db_id}: backend described table '{}' when asked for '{}'",
                        schema.name, table.name
                    ));
                    (at, 0, e)
                }
                (Unit::Page(at, page), Ok(Reply::Rows(result))) => {
                    self.tables[at].pages[page] = Some(result.rows);
                    continue;
                }
                (Unit::Schema(at), reply) => {
                    (at, 0, reply.err().unwrap_or_else(|| mismatched(db_id, "a schema request")))
                }
                (Unit::Page(at, page), reply) => {
                    let e = reply.err().unwrap_or_else(|| mismatched(db_id, "a page"));
                    let name = &self.tables[at].name;
                    (at, page + 1, introspect_err(&format!("{db_id}.{name} row harvest"), e))
                }
            };
            self.tables[at].fail(rank, outcome);
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
    fn unknown_database_keeps_its_kind() {
        let backend = MemoryBackend::new(vec![]);
        let mut conn = backend.connect().expect("connect");
        let err = introspect(&mut conn, "nowhere", &IntrospectOptions::default())
            .expect_err("no such db");
        assert_eq!(err.kind(), "unknown_database");
    }
}
