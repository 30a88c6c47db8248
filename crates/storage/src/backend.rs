//! The `Backend`/`Connection` trait split.
//!
//! A [`Backend`] is a factory for connections to a database server; a
//! [`Connection`] is one live session against it. The split mirrors real
//! database drivers: backends are cheap, shared, and `Sync`; connections
//! are stateful, owned by one caller at a time, and can *break* — which is
//! exactly what the pool's health-checked recycling exists to absorb.
//!
//! A connection exposes the three capabilities the CodeS stack needs:
//!
//! * **execute** — run SQL against one database and get rows back;
//! * **catalog introspection** — enumerate databases/tables and fetch each
//!   table's schema (types, PK/FK edges), the raw facts
//!   [`crate::introspect`] assembles into a full [`crate::Catalog`];
//! * **revision stamping** — a token that changes whenever the database's
//!   catalog state changes, the currency of the existing cache
//!   generation-invalidation.
//!
//! **Pipelining.** [`Connection::pipeline`] sends several of those
//! requests at once and reads their replies in order, one wire delay for
//! the lot (libpq's pipeline mode is the model). The default runs them one
//! by one, so every connection pipelines correctly; a remote backend
//! overrides it to pay one round trip, and a wrapper forwards it.
//!
//! **Commit announcements.** [`Backend::subscribe`] registers a
//! [`CommitHook`] the backend calls with `(db_id, revision)` for every
//! commit, after the commit is visible and before the write returns — so a
//! client that was told nothing knows nothing moved. A backend that cannot
//! push answers `false` (the default) and its clients read
//! [`Connection::revision`] instead; a wrapper forwards it (DESIGN.md §4k).

use std::sync::Arc;

use sqlengine::{QueryResult, TableSchema};

use crate::error::StorageError;

/// A storage backend: a shared, thread-safe factory for connections.
pub trait Backend: Send + Sync {
    /// Backend label, used in metrics and error messages.
    fn name(&self) -> &str;

    /// Open a new connection. Remote-ish backends may refuse
    /// ([`StorageError::Connect`]); the pool re-establishes with backoff.
    fn connect(&self) -> Result<Box<dyn Connection>, StorageError>;

    /// Call `hook` with `(db_id, revision)` after every commit from now on,
    /// before the write returns. Returns whether the backend can: the
    /// default cannot, and a client then learns of commits only by reading
    /// [`Connection::revision`]. A hook must not write to the store.
    fn subscribe(&self, _hook: CommitHook) -> bool {
        false
    }
}

/// What [`Backend::subscribe`] registers: called with the database id and
/// its revision after each commit.
pub type CommitHook = Arc<dyn Fn(&str, u64) + Send + Sync>;

/// One live session against a backend. `Send` but not `Sync`: a connection
/// belongs to exactly one caller at a time (the pool enforces this).
pub trait Connection: Send {
    /// Execute one SQL statement against `db_id`.
    fn execute(&mut self, db_id: &str, sql: &str) -> Result<QueryResult, StorageError>;

    /// Liveness probe. A broken connection must fail here so the pool can
    /// discard it instead of recycling it.
    fn ping(&mut self) -> Result<(), StorageError>;

    /// The database ids visible over this connection.
    fn databases(&mut self) -> Result<Vec<String>, StorageError>;

    /// The table names of one database, in creation order.
    fn tables(&mut self, db_id: &str) -> Result<Vec<String>, StorageError>;

    /// One table's full schema: columns with types/comments/PK flags and
    /// the outgoing foreign-key edges.
    fn table_schema(&mut self, db_id: &str, table: &str) -> Result<TableSchema, StorageError>;

    /// The database's current catalog revision token. Two equal tokens
    /// mean identical catalog state; any mutation yields a fresh,
    /// never-reused token.
    fn revision(&mut self, db_id: &str) -> Result<u64, StorageError>;

    /// Send `reqs` against `db_id` without waiting in between, and return
    /// their replies in order, one per request. A backend that can should
    /// answer them in one round trip; this default sends them one at a
    /// time. A request that fails does not stop the later ones: on a broken
    /// connection they fail too.
    fn pipeline(&mut self, db_id: &str, reqs: &[Request]) -> Vec<Result<Reply, StorageError>> {
        reqs.iter().map(|req| req.send(self, db_id)).collect()
    }
}

/// One request of a [`Connection::pipeline`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// [`Connection::tables`].
    Tables,
    /// [`Connection::table_schema`] of this table.
    Schema(String),
    /// [`Connection::execute`] of this SQL (introspection's `SELECT *`
    /// of one table's rows).
    Execute(String),
    /// [`Connection::revision`].
    Revision,
}

/// The answer to one [`Request`], of the matching kind.
#[derive(Debug)]
pub enum Reply {
    /// The table names.
    Tables(Vec<String>),
    /// The table's schema.
    Schema(TableSchema),
    /// The statement's result.
    Rows(QueryResult),
    /// The revision token.
    Revision(u64),
}

impl Request {
    /// Send this request alone over `conn`.
    pub fn send<C: Connection + ?Sized>(
        &self,
        conn: &mut C,
        db_id: &str,
    ) -> Result<Reply, StorageError> {
        match self {
            Request::Tables => conn.tables(db_id).map(Reply::Tables),
            Request::Schema(table) => conn.table_schema(db_id, table).map(Reply::Schema),
            Request::Execute(sql) => conn.execute(db_id, sql).map(Reply::Rows),
            Request::Revision => conn.revision(db_id).map(Reply::Revision),
        }
    }
}

impl Connection for Box<dyn Connection> {
    fn execute(&mut self, db_id: &str, sql: &str) -> Result<QueryResult, StorageError> {
        (**self).execute(db_id, sql)
    }

    fn ping(&mut self) -> Result<(), StorageError> {
        (**self).ping()
    }

    fn databases(&mut self) -> Result<Vec<String>, StorageError> {
        (**self).databases()
    }

    fn tables(&mut self, db_id: &str) -> Result<Vec<String>, StorageError> {
        (**self).tables(db_id)
    }

    fn table_schema(&mut self, db_id: &str, table: &str) -> Result<TableSchema, StorageError> {
        (**self).table_schema(db_id, table)
    }

    fn revision(&mut self, db_id: &str) -> Result<u64, StorageError> {
        (**self).revision(db_id)
    }

    fn pipeline(&mut self, db_id: &str, reqs: &[Request]) -> Vec<Result<Reply, StorageError>> {
        (**self).pipeline(db_id, reqs)
    }
}

/// Quote an identifier for embedding in generated SQL (introspection's
/// `SELECT *` of each table). Doubles embedded quotes, so arbitrary table names
/// round-trip through the engine's lexer.
pub(crate) fn quote_ident(name: &str) -> String {
    let mut quoted = String::with_capacity(name.len() + 2);
    quoted.push('"');
    for c in name.chars() {
        if c == '"' {
            quoted.push('"');
        }
        quoted.push(c);
    }
    quoted.push('"');
    quoted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoting_escapes_embedded_quotes() {
        assert_eq!(quote_ident("plain"), "\"plain\"");
        assert_eq!(quote_ident("we\"ird"), "\"we\"\"ird\"");
    }
}
