//! The in-memory sqlengine as one [`Backend`] implementation.
//!
//! What used to be "a `HashMap<String, Database>` handed directly to the
//! serving layer" is now a shared store behind the trait: connections
//! execute through [`sqlengine::execute_query`], introspection
//! reads schemas out of the live catalog, and revision tokens are the
//! engine's own mutation stamps. The store stays mutable from outside
//! (tests, chaos suites, live administration) through
//! [`MemoryBackend::mutate`], which is exactly how a "schema change on the
//! live backend" is simulated.
//!
//! The store pushes: [`MemoryBackend::mutate`] and
//! [`MemoryBackend::insert_database`] are its only writers, and each calls
//! every [`Backend::subscribe`]d hook with the database's new revision once
//! the store lock is released and before it returns. Hooks live in the
//! shared store, so a backend opened [`MemoryBackend::over`] another's
//! store hears that one's writes. Announcements go out in commit order.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use sqlengine::{Database, QueryResult, TableSchema};

use crate::backend::{Backend, CommitHook, Connection, Reply, Request};
use crate::error::StorageError;

/// The shared database store a [`MemoryBackend`] serves. Clones share the
/// live state: a write through one handle is visible to every connection
/// and announced to every subscriber. It offers no write lock: every write
/// goes through a [`MemoryBackend`], which announces it.
#[derive(Clone)]
pub struct SharedStore(Arc<Store>);

struct Store {
    dbs: RwLock<HashMap<String, Database>>,
    hooks: Mutex<Vec<CommitHook>>,
}

impl SharedStore {
    /// Read the live databases, holding off writers until the guard drops.
    pub fn read(&self) -> impl Deref<Target = HashMap<String, Database>> + '_ {
        self.0.dbs.read()
    }

    /// Run `write` under the write lock and, when it succeeds, announce
    /// `db_id`'s revision once the lock is released. The hook list is
    /// locked before the store is, so commits are announced in the order
    /// they were made.
    fn commit<R>(
        &self,
        db_id: &str,
        write: impl FnOnce(&mut HashMap<String, Database>) -> Result<R, StorageError>,
    ) -> Result<R, StorageError> {
        let mut dbs = self.0.dbs.write();
        let result = write(&mut dbs)?;
        let revision = dbs.get(db_id).map(Database::revision);
        let hooks = self.0.hooks.lock();
        drop(dbs);
        if let Some(revision) = revision {
            for hook in hooks.iter() {
                hook(db_id, revision);
            }
        }
        Ok(result)
    }
}

/// [`Backend`] over in-process [`sqlengine`] databases.
pub struct MemoryBackend {
    store: SharedStore,
}

impl MemoryBackend {
    /// A backend serving `dbs`, keyed by database name, with unlimited
    /// execution budgets (trusted in-process callers).
    pub fn new(dbs: Vec<Database>) -> MemoryBackend {
        let dbs = dbs.into_iter().map(|db| (db.name.clone(), db)).collect();
        let store = Store { dbs: RwLock::new(dbs), hooks: Mutex::default() };
        MemoryBackend { store: SharedStore(Arc::new(store)) }
    }

    /// A backend over an existing shared store (e.g. one also wrapped by a
    /// fault-injecting backend).
    pub fn over(store: SharedStore) -> MemoryBackend {
        MemoryBackend { store }
    }

    /// A handle to the live store.
    pub fn store(&self) -> SharedStore {
        self.store.clone()
    }

    /// Mutate one database in place (DDL, row changes). The engine stamps
    /// a fresh revision through `table_mut`/`create_table`, so the change
    /// is observable to re-introspection exactly like any local catalog
    /// mutation, and announced to every subscriber before this returns.
    pub fn mutate<R>(
        &self,
        db_id: &str,
        f: impl FnOnce(&mut Database) -> R,
    ) -> Result<R, StorageError> {
        self.store.commit(db_id, |dbs| {
            let db = dbs
                .get_mut(db_id)
                .ok_or_else(|| StorageError::UnknownDatabase(db_id.to_string()))?;
            Ok(f(db))
        })
    }

    /// Add (or replace) a database in the live store, and announce it.
    pub fn insert_database(&self, db: Database) {
        let db_id = db.name.clone();
        let _ = self.store.commit(&db_id, |dbs| Ok(dbs.insert(db_id.clone(), db)));
    }
}

impl Backend for MemoryBackend {
    fn name(&self) -> &str {
        "memory"
    }

    fn connect(&self) -> Result<Box<dyn Connection>, StorageError> {
        Ok(Box::new(MemoryConnection { store: self.store.clone() }))
    }

    fn subscribe(&self, hook: CommitHook) -> bool {
        self.store.0.hooks.lock().push(hook);
        true
    }
}

/// One session against the shared in-memory store.
struct MemoryConnection {
    store: SharedStore,
}

impl MemoryConnection {
    fn with_db<R>(
        &self,
        db_id: &str,
        f: impl FnOnce(&Database) -> Result<R, StorageError>,
    ) -> Result<R, StorageError> {
        let store = self.store.read();
        let db = store
            .get(db_id)
            .ok_or_else(|| StorageError::UnknownDatabase(db_id.to_string()))?;
        f(db)
    }

}

fn run_sql(db: &Database, sql: &str) -> Result<QueryResult, StorageError> {
    sqlengine::execute_query(db, sql).map_err(StorageError::Engine)
}

fn table_names(db: &Database) -> Vec<String> {
    db.table_names().into_iter().map(String::from).collect()
}

fn schema_of(db: &Database, table: &str) -> Result<TableSchema, StorageError> {
    db.table(table)
        .map(|t| t.schema.clone())
        .ok_or_else(|| StorageError::Introspect(format!("{}: no table '{table}'", db.name)))
}

impl Connection for MemoryConnection {
    fn execute(&mut self, db_id: &str, sql: &str) -> Result<QueryResult, StorageError> {
        self.with_db(db_id, |db| run_sql(db, sql))
    }

    fn ping(&mut self) -> Result<(), StorageError> {
        // The process *is* the server: an in-memory connection cannot break.
        Ok(())
    }

    fn databases(&mut self) -> Result<Vec<String>, StorageError> {
        let mut names: Vec<String> = self.store.read().keys().cloned().collect();
        names.sort();
        Ok(names)
    }

    fn tables(&mut self, db_id: &str) -> Result<Vec<String>, StorageError> {
        self.with_db(db_id, |db| Ok(table_names(db)))
    }

    fn table_schema(&mut self, db_id: &str, table: &str) -> Result<TableSchema, StorageError> {
        self.with_db(db_id, |db| schema_of(db, table))
    }

    fn revision(&mut self, db_id: &str) -> Result<u64, StorageError> {
        self.with_db(db_id, |db| Ok(db.revision()))
    }

    /// In order, under one read lock: no write lands between two requests,
    /// so a trailing [`Request::Revision`] stamps everything before it.
    fn pipeline(&mut self, db_id: &str, reqs: &[Request]) -> Vec<Result<Reply, StorageError>> {
        let store = self.store.read();
        let Some(db) = store.get(db_id) else {
            return reqs
                .iter()
                .map(|_| Err(StorageError::UnknownDatabase(db_id.to_string())))
                .collect();
        };
        reqs.iter()
            .map(|req| match req {
                Request::Tables => Ok(Reply::Tables(table_names(db))),
                Request::Schema(table) => schema_of(db, table).map(Reply::Schema),
                Request::Execute(sql) => run_sql(db, sql).map(Reply::Rows),
                Request::Revision => Ok(Reply::Revision(db.revision())),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::{Column, DataType};

    fn fixture() -> Database {
        let mut db = Database::new("shop");
        let table = db
            .create_table(TableSchema::new(
                "items",
                vec![
                    Column::new("id", DataType::Integer).primary_key(),
                    Column::new("label", DataType::Text),
                ],
            ))
            .expect("fresh table");
        table.insert(vec![1.into(), "anvil".into()]).expect("row fits");
        table.insert(vec![2.into(), "rope".into()]).expect("row fits");
        db
    }

    #[test]
    fn execute_and_introspect_against_live_store() {
        let backend = MemoryBackend::new(vec![fixture()]);
        let mut conn = backend.connect().expect("in-memory connect");
        assert_eq!(conn.databases().expect("list"), vec!["shop".to_string()]);
        assert_eq!(conn.tables("shop").expect("tables"), vec!["items".to_string()]);
        let schema = conn.table_schema("shop", "items").expect("schema");
        assert_eq!(schema.columns.len(), 2);
        assert!(schema.columns[0].primary_key);
        let result = conn.execute("shop", "SELECT label FROM items").expect("query runs");
        assert_eq!(result.row_count(), 2);
        assert!(conn.ping().is_ok());
    }

    #[test]
    fn mutation_changes_the_revision_seen_over_connections() {
        let backend = MemoryBackend::new(vec![fixture()]);
        let mut conn = backend.connect().expect("connect");
        let before = conn.revision("shop").expect("revision");
        backend
            .mutate("shop", |db| {
                db.table_mut("items")
                    .expect("items exists")
                    .insert(vec![3.into(), "tnt".into()])
                    .expect("row fits");
            })
            .expect("shop exists");
        let after = conn.revision("shop").expect("revision");
        assert_ne!(before, after, "mutation must stamp a fresh token");
    }

    /// Every commit is announced once, in order, with the revision a
    /// connection over another handle on the store already reads when the
    /// hook runs.
    #[test]
    fn every_commit_is_announced_after_it_is_visible() {
        let backend = MemoryBackend::new(vec![fixture()]);
        let heard: Arc<Mutex<Vec<(String, u64, u64)>>> = Arc::default();
        let (log, reader) = (Arc::clone(&heard), MemoryBackend::over(backend.store()));
        assert!(backend.subscribe(Arc::new(move |db_id, revision| {
            let mut conn = reader.connect().expect("connect");
            let visible = conn.revision(db_id).expect("revision");
            log.lock().push((db_id.to_string(), revision, visible));
        })));
        backend
            .mutate("shop", |db| {
                db.table_mut("items").expect("items").insert(vec![3.into(), "tnt".into()])
            })
            .expect("shop exists")
            .expect("row fits");
        let mut depot = Database::new("depot");
        depot.bump_revision();
        backend.insert_database(depot);
        assert!(backend.mutate("nowhere", |_| ()).is_err(), "no commit, no announcement");

        let mut conn = backend.connect().expect("connect");
        let expected: Vec<_> = ["shop", "depot"]
            .into_iter()
            .map(|db| {
                let revision = conn.revision(db).expect("revision");
                (db.to_string(), revision, revision)
            })
            .collect();
        assert_eq!(*heard.lock(), expected);
    }

    #[test]
    fn unknown_database_is_typed() {
        let backend = MemoryBackend::new(vec![]);
        let mut conn = backend.connect().expect("connect");
        let err = conn.execute("nowhere", "SELECT 1").expect_err("no such db");
        assert_eq!(err.kind(), "unknown_database");
    }
}
