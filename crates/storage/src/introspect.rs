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
//! **Waves.** Every fact is one round trip — the table listing, one
//! table's schema, one page of one table's rows — and a harvest issues
//! them in *waves*: all the round trips it can name up front at once, over
//! the caller's connection and whatever connections the pool can lend.
//! A refresh names them all: the mirror it replaces predicts the listing,
//! every schema and every page, so when nothing but rows within a page
//! moved the harvest is one wave. What the prediction missed follows in
//! further waves: a newly listed table's schema and first page, the next
//! page of a table whose last page came back full.
//!
//! **Revision stamping.** The backend's revision token is read before and
//! after the harvest; on mismatch (the schema moved under the reader) the
//! harvest retries, and after `CONSISTENCY_RETRIES` failures reports
//! [`StorageError::Introspect`]. The mirror is stamped with the
//! *backend's* token ([`sqlengine::Database::set_revision`]), so the
//! existing cache generation-invalidation works unchanged: an unchanged
//! schema re-introspects to the same token (no spurious invalidation), a
//! changed schema yields a fresh token and bumps generations exactly like
//! a local catalog mutation.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use sqlengine::{Database, Row, TableSchema};

use crate::backend::{quote_ident, Connection};
use crate::error::StorageError;
use crate::helpers::Helpers;
use crate::pool::ConnectionPool;
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

/// Build a [`Catalog`] for `db_id` over `conn` alone.
pub fn introspect(
    conn: &mut dyn Connection,
    db_id: &str,
    options: &IntrospectOptions,
) -> Result<Catalog, StorageError> {
    introspect_with(conn, None, None, None, db_id, options, None).map(|(catalog, _)| catalog)
}

/// What a [`crate::CatalogService`] lends an introspection: its pool's
/// spare connections, and the threads that run them and the build.
#[derive(Clone, Copy)]
pub(crate) struct Lender<'a> {
    pub(crate) pool: &'a ConnectionPool,
    pub(crate) helpers: &'a Helpers,
}

/// [`introspect`] with what a [`crate::CatalogService`] can add: `lender`,
/// whose spare connections run round trips beside `conn`; `prediction`,
/// the mirror this one replaces, whose tables and row counts name the first
/// wave; `known`, a revision token the caller has just read; and
/// `observer`, whose build runs on the pass's mirror. `known` stands in for
/// the first pass's `before` read — anything that moved since it was read
/// still fails `before == after` — and a retry reads its own.
///
/// A pass assembles its mirror and runs the observer's build on a lent
/// thread while `after` is on the wire, stamping the mirror with `before`:
/// the stamp it gets if the bracket holds. A pass whose bracket fails drops
/// what it built; the caller commits what the passing one built.
pub(crate) fn introspect_with(
    conn: &mut dyn Connection,
    lender: Option<Lender<'_>>,
    prediction: Option<&Database>,
    mut known: Option<u64>,
    db_id: &str,
    options: &IntrospectOptions,
    observer: Option<&Observer>,
) -> Result<(Catalog, Option<Commit>), StorageError> {
    let mut last_moved = (0u64, 0u64);
    for _ in 0..=CONSISTENCY_RETRIES {
        let before = match known.take() {
            Some(token) => token,
            None => conn.revision(db_id)?,
        };
        let harvested = harvest(conn, lender, prediction, db_id, options)?;
        let observer = observer.cloned();
        let build = move || {
            let mut database = harvested.assemble()?;
            database.set_revision(before);
            let commit = observer.map(|observe| observe(&database));
            Ok::<_, StorageError>((database, commit))
        };
        let lent = match lender {
            Some(lender) => lender.helpers.lend(build),
            None => Err(build),
        };
        let after = conn.revision(db_id);
        // With no thread to lend, the build runs once `after` is in.
        let built = lent.map_or_else(|build| build(), |lent| lent.join());
        // An assembly failure is the pass's own, whatever `after` says.
        let (database, commit) = built?;
        let after = after?;
        if before == after {
            return Ok((Catalog { revision: before, database }, commit));
        }
        last_moved = (before, after);
    }
    Err(StorageError::Introspect(format!(
        "{db_id}: revision kept moving during harvest ({} -> {} on the final attempt)",
        last_moved.0, last_moved.1
    )))
}

/// One harvest pass's answers: a first wave of the listing and everything
/// `prediction` names, then follow-up waves for what it missed, until every
/// listed table's page chain has ended on a short page.
fn harvest(
    conn: &mut dyn Connection,
    lender: Option<Lender<'_>>,
    prediction: Option<&Database>,
    db_id: &str,
    options: &IntrospectOptions,
) -> Result<Harvested, StorageError> {
    let mut pass = Pass { db_id, page_size: options.page_size.max(1), lender, tables: Vec::new() };
    let predicted = prediction.map_or(&[][..], |db| &db.tables[..]);
    let ats: Vec<usize> = predicted.iter().map(|table| pass.table(&table.schema.name)).collect();
    let mut units: Vec<Unit> = ats.iter().map(|&at| Unit::Schema(at)).collect();
    for (&at, table) in ats.iter().zip(predicted) {
        for _ in 0..=table.rows.len() / pass.page_size {
            units.push(pass.next_page(at));
        }
    }
    let listing = pass.wave(conn, true, units)?;
    // Units asked for a predicted table the listing no longer has are
    // dropped from here on, their failures included.
    let listed: Vec<usize> = listing.iter().map(|name| pass.table(name)).collect();
    loop {
        // Of the listed tables that failed, the earliest-listed one is
        // reported: what a single connection walking the listing reports.
        for &at in &listed {
            if let Some((_, e)) = pass.tables[at].failed.take() {
                return Err(e);
            }
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
        if units.is_empty() {
            break;
        }
        pass.wave(conn, false, units)?;
    }
    Ok(Harvested {
        db_id: db_id.to_string(),
        page_size: pass.page_size,
        listing,
        listed,
        tables: pass.tables,
    })
}

/// A pass's answers, owned, so the mirror can be assembled off the
/// caller's thread.
struct Harvested {
    db_id: String,
    page_size: usize,
    listing: Vec<String>,
    /// `tables` index of each listed name.
    listed: Vec<usize>,
    tables: Vec<TableHarvest>,
}

impl Harvested {
    /// The mirror, in listing order, so it does not depend on which
    /// connection ran what, nor on what was predicted.
    fn assemble(mut self) -> Result<Database, StorageError> {
        let db_id = &self.db_id;
        let mut database = Database::new(db_id);
        for (name, &at) in self.listing.iter().zip(&self.listed) {
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
}

/// One round trip of a harvest. The listing is not one: it is always the
/// caller's own first round trip of a pass (see [`Pass::wave`]).
#[derive(Debug, Clone, Copy)]
enum Unit {
    /// `table_schema` of [`Pass::tables`]`[at]`.
    Schema(usize),
    /// Page `page` of that table's rows: `LIMIT page_size OFFSET page × page_size`.
    Page(usize, usize),
}

/// What a unit brought back.
enum Answer {
    Schema(usize, TableSchema),
    Page(usize, usize, Vec<Row>),
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

/// One harvest pass's state between waves.
struct Pass<'a> {
    db_id: &'a str,
    page_size: usize,
    lender: Option<Lender<'a>>,
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

    /// Run one wave: `units`, and when `list` the table listing (returned;
    /// empty otherwise) on the caller's connection first. Units are pulled
    /// off one queue by `conn` and by as many connections as the lender can
    /// spare without making anyone wait; returns once every lent
    /// connection is back in the pool, with the answers folded in.
    fn wave(
        &mut self,
        conn: &mut dyn Connection,
        list: bool,
        units: Vec<Unit>,
    ) -> Result<Vec<String>, StorageError> {
        let work = units.len() + usize::from(list);
        let wave = Arc::new(Wave {
            db_id: self.db_id.to_string(),
            page_size: self.page_size,
            names: self.tables.iter().map(|table| table.name.clone()).collect(),
            state: Mutex::new(WaveState {
                pending: units.into(),
                answers: Vec::with_capacity(work),
                failures: Vec::new(),
                fatal: None,
            }),
        });
        let lent = match self.lender {
            Some(Lender { pool, helpers }) => {
                helpers.lend_many(pool.free_slots().min(work.saturating_sub(1)), || {
                    let (wave, pool) = (Arc::clone(&wave), pool.clone());
                    // Checked out on the helper's own thread: an
                    // establishment is a round trip the caller should not
                    // wait for.
                    move || {
                        if let Some(mut lent) = pool.try_checkout() {
                            wave.pull(&mut lent, true);
                        }
                    }
                })
            }
            None => Vec::new(),
        };
        let listing = if list { wave.list(conn) } else { Vec::new() };
        wave.pull(conn, false);
        for helper in lent {
            helper.join();
        }
        // Every helper is done: a unit one of them handed back after the
        // caller's loop had run dry runs now.
        wave.pull(conn, false);

        let WaveState { answers, failures, fatal, .. } = std::mem::take(&mut *wave.state.lock());
        if let Some(e) = fatal {
            return Err(e);
        }
        for answer in answers {
            match answer {
                Answer::Schema(at, schema) => {
                    let table = &mut self.tables[at];
                    if schema.name.eq_ignore_ascii_case(&table.name) {
                        table.schema = Some(schema);
                    } else {
                        let e = StorageError::Introspect(format!(
                            "{}: backend described table '{}' when asked for '{}'",
                            self.db_id, schema.name, table.name
                        ));
                        table.fail(0, e);
                    }
                }
                Answer::Page(at, page, rows) => self.tables[at].pages[page] = Some(rows),
            }
        }
        for (unit, e) in failures {
            match unit {
                Unit::Schema(at) => self.tables[at].fail(0, e),
                Unit::Page(at, page) => self.tables[at].fail(page + 1, e),
            }
        }
        Ok(listing)
    }
}

/// What the connections of one wave share; owned, so the service's
/// long-lived helpers can hold it.
struct Wave {
    db_id: String,
    page_size: usize,
    /// [`Pass::tables`]' names, which units index.
    names: Vec<String>,
    state: Mutex<WaveState>,
}

#[derive(Default)]
struct WaveState {
    /// Units nobody has taken yet.
    pending: VecDeque<Unit>,
    answers: Vec<Answer>,
    failures: Vec<(Unit, StorageError)>,
    /// Why the wave cannot finish: the listing failed, or the caller's own
    /// connection failed at the transport. Once set, nobody takes another
    /// unit.
    fatal: Option<StorageError>,
}

impl Wave {
    /// The table listing, over the caller's connection.
    fn list(&self, conn: &mut dyn Connection) -> Vec<String> {
        conn.tables(&self.db_id).unwrap_or_else(|e| {
            self.state.lock().fatal.get_or_insert(e);
            Vec::new()
        })
    }

    /// The unit loop: take the next pending unit and run it over `conn`,
    /// until none is left or the wave has failed. A `lent` connection that
    /// fails at the transport (it died while parked, say) does not fail
    /// the wave: its unit goes back on the queue for the caller's
    /// connection, which has proved itself live, and the guard, tainted by
    /// that failure, is probed or discarded when it drops. A transport
    /// failure on the caller's connection fails the wave. Any other error
    /// is the unit's, judged once the listing is known.
    fn pull(&self, conn: &mut dyn Connection, lent: bool) {
        loop {
            let unit = {
                let mut state = self.state.lock();
                if state.fatal.is_some() {
                    return;
                }
                let Some(unit) = state.pending.pop_front() else {
                    return;
                };
                unit
            };
            let outcome = self.run(conn, unit);
            let mut state = self.state.lock();
            match outcome {
                Ok(answer) => state.answers.push(answer),
                Err(StorageError::Connect(_)) if lent => {
                    state.pending.push_front(unit);
                    return;
                }
                Err(e @ StorageError::Connect(_)) => {
                    state.fatal.get_or_insert(e);
                    return;
                }
                Err(e) => state.failures.push((unit, e)),
            }
        }
    }

    /// One round trip.
    fn run(&self, conn: &mut dyn Connection, unit: Unit) -> Result<Answer, StorageError> {
        let db_id = &self.db_id;
        match unit {
            Unit::Schema(at) => {
                conn.table_schema(db_id, &self.names[at]).map(|s| Answer::Schema(at, s))
            }
            Unit::Page(at, page) => {
                let name = &self.names[at];
                let sql = format!(
                    "SELECT * FROM {} LIMIT {} OFFSET {}",
                    quote_ident(name),
                    self.page_size,
                    page * self.page_size
                );
                conn.execute(db_id, &sql)
                    .map(|result| Answer::Page(at, page, result.rows))
                    .map_err(|e| introspect_err(&format!("{db_id}.{name} row harvest"), e))
            }
        }
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
