//! A `codes_storage::Backend` wrapper that counts and times wire
//! operations. Storage sits beside the gateway → core call chain, so the
//! traced run sees it through this wrapper; the measured run does not
//! install it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use codes_storage::{Backend, Connection, StorageError};
use sqlengine::{QueryResult, TableSchema};

/// Statistics only: nothing is published through these, so `Relaxed`.
#[derive(Default)]
pub struct WireCounters {
    ops: AtomicU64,
    busy_ns: AtomicU64,
    harvests: AtomicU64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireSnapshot {
    /// Operations on connections, connects included.
    pub ops: u64,
    pub busy_ns: u64,
    /// Table listings, one per introspection pass (attach or refresh).
    pub harvests: u64,
}

impl WireCounters {
    pub fn snapshot(&self) -> WireSnapshot {
        WireSnapshot {
            ops: self.ops.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            harvests: self.harvests.load(Ordering::Relaxed),
        }
    }

    fn timed<T>(&self, op: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = op();
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl WireSnapshot {
    pub fn since(&self, earlier: &WireSnapshot) -> WireSnapshot {
        WireSnapshot {
            ops: self.ops - earlier.ops,
            busy_ns: self.busy_ns - earlier.busy_ns,
            harvests: self.harvests - earlier.harvests,
        }
    }
}

pub struct Probe {
    inner: Arc<dyn Backend>,
    counters: Arc<WireCounters>,
}

impl Probe {
    pub fn new(inner: Arc<dyn Backend>) -> (Probe, Arc<WireCounters>) {
        let counters = Arc::new(WireCounters::default());
        (
            Probe {
                inner,
                counters: Arc::clone(&counters),
            },
            counters,
        )
    }
}

impl Backend for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn connect(&self) -> Result<Box<dyn Connection>, StorageError> {
        let inner = self.counters.timed(|| self.inner.connect())?;
        Ok(Box::new(ProbeConnection {
            inner,
            counters: Arc::clone(&self.counters),
        }))
    }
}

struct ProbeConnection {
    inner: Box<dyn Connection>,
    counters: Arc<WireCounters>,
}

impl Connection for ProbeConnection {
    fn execute(&mut self, db_id: &str, sql: &str) -> Result<QueryResult, StorageError> {
        self.counters.timed(|| self.inner.execute(db_id, sql))
    }

    fn ping(&mut self) -> Result<(), StorageError> {
        self.counters.timed(|| self.inner.ping())
    }

    fn databases(&mut self) -> Result<Vec<String>, StorageError> {
        self.counters.timed(|| self.inner.databases())
    }

    fn tables(&mut self, db_id: &str) -> Result<Vec<String>, StorageError> {
        self.counters.harvests.fetch_add(1, Ordering::Relaxed);
        self.counters.timed(|| self.inner.tables(db_id))
    }

    fn table_schema(&mut self, db_id: &str, table: &str) -> Result<TableSchema, StorageError> {
        self.counters
            .timed(|| self.inner.table_schema(db_id, table))
    }

    fn revision(&mut self, db_id: &str) -> Result<u64, StorageError> {
        self.counters.timed(|| self.inner.revision(db_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codes_storage::MemoryBackend;

    #[test]
    fn counts_every_operation_and_each_harvest() {
        let db = sqlengine::Database::new("d");
        let (probe, counters) = Probe::new(Arc::new(MemoryBackend::new(vec![db])));
        let mut conn = probe.connect().expect("connect");
        conn.ping().expect("ping");
        conn.tables("d").expect("tables");
        conn.revision("d").expect("revision");
        let seen = counters.snapshot();
        assert_eq!((seen.ops, seen.harvests), (4, 1));
        assert_eq!(counters.snapshot().since(&seen).ops, 0);
    }
}
