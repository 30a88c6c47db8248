//! Test support shared by the storage, serving and gateway suites: a
//! [`Backend`] wrapper that counts every wire operation, pipeline and
//! connection, and runs a per-test hook before each operation (and,
//! optionally, one after it). Not part of the crate's API.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use sqlengine::{QueryResult, TableSchema};

use crate::backend::{Backend, CommitHook, Connection, Reply, Request};
use crate::error::StorageError;

/// The six [`Connection`] operations. A pipeline's requests count as the
/// operations they name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// [`Connection::execute`].
    Execute,
    /// [`Connection::ping`].
    Ping,
    /// [`Connection::databases`].
    Databases,
    /// [`Connection::tables`].
    Tables,
    /// [`Connection::table_schema`].
    TableSchema,
    /// [`Connection::revision`].
    Revision,
}

/// One operation as a hook sees it.
#[derive(Debug, Clone, Copy)]
pub struct Call<'a> {
    /// Which operation.
    pub op: Op,
    /// The connection it runs on: connections are numbered from 0 in the
    /// order the backend established them.
    pub conn: u64,
    /// The table [`Connection::table_schema`] asks for, the SQL
    /// [`Connection::execute`] runs; empty for every other operation.
    pub target: &'a str,
}

/// Runs before an operation; an `Err` fails it without reaching the inner
/// backend.
pub type Before = Box<dyn Fn(&Call<'_>) -> Result<(), StorageError> + Send + Sync>;

/// Runs after the inner backend answered, before the answer is returned.
pub type After = Box<dyn Fn(&Call<'_>) + Send + Sync>;

/// What crossed the wire, from the backend's own point of view.
#[derive(Debug, Default)]
pub struct Wire {
    ops: [AtomicU64; 6],
    pipelines: AtomicU64,
    connects: AtomicU64,
    live: AtomicI64,
    peak: AtomicI64,
    live_faulted: AtomicI64,
}

impl Wire {
    /// Operations of kind `op` issued since the last [`Wire::reset`].
    pub fn count(&self, op: Op) -> u64 {
        self.ops[op as usize].load(Ordering::SeqCst)
    }

    /// [`Connection::pipeline`] calls since the last [`Wire::reset`].
    pub fn pipelines(&self) -> u64 {
        self.pipelines.load(Ordering::SeqCst)
    }

    /// Zero the operation and pipeline counts (connection counts are kept).
    pub fn reset(&self) {
        for op in &self.ops {
            op.store(0, Ordering::SeqCst);
        }
        self.pipelines.store(0, Ordering::SeqCst);
    }

    /// Connections ever established.
    pub fn connects(&self) -> u64 {
        self.connects.load(Ordering::SeqCst)
    }

    /// Connections alive right now.
    pub fn live(&self) -> i64 {
        self.live.load(Ordering::SeqCst)
    }

    /// The most connections ever alive at once.
    pub fn peak(&self) -> i64 {
        self.peak.load(Ordering::SeqCst)
    }

    /// Live connections that have returned a transport error to someone.
    pub fn live_faulted(&self) -> i64 {
        self.live_faulted.load(Ordering::SeqCst)
    }
}

/// A backend wrapper: counts into a [`Wire`], runs the hooks.
///
/// A pipeline is forwarded to the inner backend as one, less the requests
/// whose `before` hook failed them: every `before` runs first, every
/// `after` once the inner pipeline has answered. [`Hooked::unpipelined`]
/// runs a pipeline's requests one at a time instead, each with its hooks,
/// as a backend that does not pipeline would.
pub struct Hooked<B> {
    inner: B,
    wire: Arc<Wire>,
    before: Arc<Before>,
    after: Arc<After>,
    unpipelined: bool,
}

impl<B: Backend> Hooked<B> {
    /// Count `inner`'s traffic; no hooks yet.
    pub fn new(inner: B) -> Hooked<B> {
        Hooked {
            inner,
            wire: Arc::default(),
            before: Arc::new(Box::new(|_| Ok(()))),
            after: Arc::new(Box::new(|_| {})),
            unpipelined: false,
        }
    }

    /// Run every pipeline's requests one at a time, hooks between them.
    pub fn unpipelined(mut self) -> Hooked<B> {
        self.unpipelined = true;
        self
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Run `hook` before every operation.
    pub fn before(
        mut self,
        hook: impl Fn(&Call<'_>) -> Result<(), StorageError> + Send + Sync + 'static,
    ) -> Hooked<B> {
        self.before = Arc::new(Box::new(hook));
        self
    }

    /// Run `hook` after every operation the inner backend answered.
    pub fn after(mut self, hook: impl Fn(&Call<'_>) + Send + Sync + 'static) -> Hooked<B> {
        self.after = Arc::new(Box::new(hook));
        self
    }

    /// The counters, shared with every connection this backend opens.
    pub fn wire(&self) -> Arc<Wire> {
        Arc::clone(&self.wire)
    }
}

impl<B: Backend> Backend for Hooked<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn connect(&self) -> Result<Box<dyn Connection>, StorageError> {
        let inner = self.inner.connect()?;
        let id = self.wire.connects.fetch_add(1, Ordering::SeqCst);
        let live = self.wire.live.fetch_add(1, Ordering::SeqCst) + 1;
        self.wire.peak.fetch_max(live, Ordering::SeqCst);
        Ok(Box::new(HookedConn {
            inner,
            id,
            faulted: false,
            wire: Arc::clone(&self.wire),
            before: Arc::clone(&self.before),
            after: Arc::clone(&self.after),
            unpipelined: self.unpipelined,
        }))
    }

    fn subscribe(&self, hook: CommitHook) -> bool {
        self.inner.subscribe(hook)
    }
}

struct HookedConn {
    inner: Box<dyn Connection>,
    id: u64,
    faulted: bool,
    wire: Arc<Wire>,
    before: Arc<Before>,
    after: Arc<After>,
    unpipelined: bool,
}

impl HookedConn {
    fn run<R>(
        &mut self,
        op: Op,
        target: &str,
        run: impl FnOnce(&mut dyn Connection) -> Result<R, StorageError>,
    ) -> Result<R, StorageError> {
        self.wire.ops[op as usize].fetch_add(1, Ordering::SeqCst);
        let call = Call { op, conn: self.id, target };
        let result = (self.before)(&call).and_then(|()| {
            let answer = run(self.inner.as_mut());
            (self.after)(&call);
            answer
        });
        self.note(&result);
        result
    }

    /// Count a transport error the first time this connection returns one.
    fn note<R>(&mut self, result: &Result<R, StorageError>) {
        if matches!(result, Err(StorageError::Connect(_))) && !self.faulted {
            self.faulted = true;
            self.wire.live_faulted.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// How a hook sees `req`.
    fn call<'a>(&self, req: &'a Request) -> Call<'a> {
        let (op, target) = match req {
            Request::Tables => (Op::Tables, ""),
            Request::Schema(table) => (Op::TableSchema, table.as_str()),
            Request::Execute(sql) => (Op::Execute, sql.as_str()),
            Request::Revision => (Op::Revision, ""),
        };
        Call { op, conn: self.id, target }
    }
}

impl Drop for HookedConn {
    fn drop(&mut self) {
        self.wire.live.fetch_sub(1, Ordering::SeqCst);
        if self.faulted {
            self.wire.live_faulted.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl Connection for HookedConn {
    fn execute(&mut self, db_id: &str, sql: &str) -> Result<QueryResult, StorageError> {
        self.run(Op::Execute, sql, |c| c.execute(db_id, sql))
    }

    fn ping(&mut self) -> Result<(), StorageError> {
        self.run(Op::Ping, "", |c| c.ping())
    }

    fn databases(&mut self) -> Result<Vec<String>, StorageError> {
        self.run(Op::Databases, "", |c| c.databases())
    }

    fn tables(&mut self, db_id: &str) -> Result<Vec<String>, StorageError> {
        self.run(Op::Tables, "", |c| c.tables(db_id))
    }

    fn table_schema(&mut self, db_id: &str, table: &str) -> Result<TableSchema, StorageError> {
        self.run(Op::TableSchema, table, |c| c.table_schema(db_id, table))
    }

    fn revision(&mut self, db_id: &str) -> Result<u64, StorageError> {
        self.run(Op::Revision, "", |c| c.revision(db_id))
    }

    fn pipeline(&mut self, db_id: &str, reqs: &[Request]) -> Vec<Result<Reply, StorageError>> {
        self.wire.pipelines.fetch_add(1, Ordering::SeqCst);
        if self.unpipelined {
            return reqs
                .iter()
                .map(|req| {
                    let call = self.call(req);
                    self.run(call.op, call.target, |c| req.send(c, db_id))
                })
                .collect();
        }
        let mut replies: Vec<Option<Result<Reply, StorageError>>> = Vec::new();
        let mut sent = Vec::new();
        for req in reqs {
            let call = self.call(req);
            self.wire.ops[call.op as usize].fetch_add(1, Ordering::SeqCst);
            match (self.before)(&call) {
                Ok(()) => {
                    sent.push(req.clone());
                    replies.push(None);
                }
                Err(e) => replies.push(Some(Err(e))),
            }
        }
        let mut answers = self.inner.pipeline(db_id, &sent).into_iter();
        for req in &sent {
            (self.after)(&self.call(req));
        }
        let replies: Vec<_> = replies
            .into_iter()
            .map(|reply| {
                reply.or_else(|| answers.next()).unwrap_or_else(|| {
                    Err(StorageError::Introspect("the pipeline answered too few".into()))
                })
            })
            .collect();
        for reply in &replies {
            self.note(reply);
        }
        replies
    }
}
