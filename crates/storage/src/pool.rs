//! Checkout/checkin connection pool with health-checked recycling.
//!
//! The free list is a bounded channel of *slots*, one per unit of
//! capacity. A slot is either empty (capacity with no live connection) or
//! holds an idle connection with its last-used timestamp. Checkout =
//! receive a slot (blocking up to the checkout timeout — a structural
//! occupancy bound: a connection can only exist while its slot is held);
//! checkin = send the slot back. Because establishment happens only while
//! holding a slot, live connections can never exceed capacity, no matter
//! how many threads race.
//!
//! Recycling is health-checked: a connection that errored during use is
//! probed before reuse, a connection that completed no round trip while
//! checked out is probed too ([`PoolConfig::ping_on_checkin`]), and a
//! probe failure discards the connection — its slot returns empty, and
//! the next checkout re-establishes against the backend with jittered
//! exponential backoff. A connection that just answered an operation is
//! parked as is: that round trip was the liveness proof. One that dies
//! after it fails its next caller's first operation and is discarded at
//! that checkin; [`ConnectionPool::checkout_probed`] is the hand-out for
//! retrying past it (`CatalogService` does, for its catalog reads).
//! Idle connections past [`PoolConfig::idle_timeout`] are reaped at
//! checkout instead of being handed out stale.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use sqlengine::{Backoff, QueryResult, TableSchema};

use crate::backend::{Backend, CommitHook, Connection, Reply, Request};
use crate::error::StorageError;
use crate::metrics::{PoolMetrics, PoolStats};

/// Pool tuning knobs.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Maximum live connections (and the size of the slot channel).
    pub capacity: usize,
    /// How long a checkout waits for a slot before
    /// [`StorageError::Exhausted`].
    pub checkout_timeout: Duration,
    /// Idle connections older than this are discarded at checkout and
    /// replaced with a fresh establishment. `None` disables reaping.
    pub idle_timeout: Option<Duration>,
    /// Probe liveness at checkin when the checkout itself proved nothing:
    /// a connection that completed no operation while checked out is
    /// pinged before it is parked. One that completed an operation
    /// without a transport error is parked unprobed — that round trip
    /// already proved it live, and a second one would only prove it again
    /// a moment later. (A connection that *reported* a transport error is
    /// always probed, whatever this is set to.) Guarantees the free list
    /// only holds connections that answered a round trip during the
    /// checkout that parked them; one that dies afterwards fails its next
    /// caller's first operation and is discarded at that checkin — a
    /// caller that can repeat the operation does so on
    /// [`ConnectionPool::checkout_probed`].
    pub ping_on_checkin: bool,
    /// Connect attempts per establishment before giving up.
    pub connect_attempts: u32,
    /// Backoff schedule between connect attempts.
    pub backoff: Backoff,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            capacity: 8,
            checkout_timeout: Duration::from_secs(2),
            idle_timeout: Some(Duration::from_secs(300)),
            ping_on_checkin: true,
            connect_attempts: 3,
            backoff: Backoff::new(Duration::from_millis(1), Duration::from_millis(50), 0),
        }
    }
}

/// One unit of pool capacity: empty, or holding an idle connection.
struct Slot {
    conn: Option<(Box<dyn Connection>, Instant)>,
}

struct PoolInner {
    backend: Arc<dyn Backend>,
    config: PoolConfig,
    slots_tx: Sender<Slot>,
    slots_rx: Receiver<Slot>,
    metrics: PoolMetrics,
    closed: parking_lot::RwLock<bool>,
}

/// The connection pool. Cheap to clone; all clones share the same slots.
#[derive(Clone)]
pub struct ConnectionPool {
    inner: Arc<PoolInner>,
}

impl ConnectionPool {
    /// A pool over `backend`, registering its metrics in the global
    /// registry.
    pub fn new(backend: Arc<dyn Backend>, config: PoolConfig) -> ConnectionPool {
        ConnectionPool::with_registry(backend, config, &codes_obs::global())
    }

    /// A pool registering metrics in `registry` — tests use a private
    /// registry for isolation.
    pub fn with_registry(
        backend: Arc<dyn Backend>,
        config: PoolConfig,
        registry: &codes_obs::Registry,
    ) -> ConnectionPool {
        let capacity = config.capacity.max(1);
        let (slots_tx, slots_rx) = bounded(capacity);
        for _ in 0..capacity {
            // A freshly built channel has room for every slot.
            let _ = slots_tx.try_send(Slot { conn: None });
        }
        ConnectionPool {
            inner: Arc::new(PoolInner {
                backend,
                config: PoolConfig { capacity, ..config },
                slots_tx,
                slots_rx,
                metrics: PoolMetrics::new(registry),
                closed: parking_lot::RwLock::new(false),
            }),
        }
    }

    /// The backend this pool connects to.
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.inner.backend
    }

    /// [`Backend::subscribe`] on the backend this pool connects to.
    pub fn subscribe(&self, hook: CommitHook) -> bool {
        self.inner.backend.subscribe(hook)
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.inner.config.capacity
    }

    /// Check out a connection, establishing one (with backoff) if the
    /// received slot is empty or its connection is stale/dead.
    pub fn checkout(&self) -> Result<PooledConn, StorageError> {
        if *self.inner.closed.read() {
            return Err(StorageError::Closed);
        }
        let started = Instant::now();
        let slot = match self.inner.slots_rx.recv_timeout(self.inner.config.checkout_timeout) {
            Ok(slot) => slot,
            Err(RecvTimeoutError::Timeout) => {
                self.inner.metrics.exhausted.inc();
                return Err(StorageError::Exhausted {
                    capacity: self.inner.config.capacity,
                    waited_ms: started.elapsed().as_millis() as u64,
                });
            }
            Err(RecvTimeoutError::Disconnected) => return Err(StorageError::Closed),
        };
        self.inner.metrics.checkout_wait.record_seconds(started.elapsed().as_secs_f64());
        let slot = self.prefer_idle(slot);
        self.hand_out(slot)
    }

    /// Prefer recycling an idle connection over establishing a new one:
    /// the slot channel is FIFO, so an empty slot can sit ahead of a
    /// perfectly good idle connection. Scan the remaining slots for one
    /// (holding the empties briefly), and give every surplus slot back.
    fn prefer_idle(&self, mut slot: Slot) -> Slot {
        if slot.conn.is_none() {
            let mut empties_held = 1usize;
            for _ in 1..self.inner.config.capacity {
                match self.inner.slots_rx.try_recv() {
                    Ok(found) if found.conn.is_some() => {
                        slot = found;
                        break;
                    }
                    Ok(_) => empties_held += 1,
                    Err(_) => break,
                }
            }
            let surplus =
                if slot.conn.is_some() { empties_held } else { empties_held - 1 };
            for _ in 0..surplus {
                self.return_empty();
            }
        }
        slot
    }

    /// Turn a slot into a checked-out connection: its idle connection if
    /// it holds a fresh one, else a new establishment (with backoff). On
    /// failure the slot goes back empty.
    fn hand_out(&self, slot: Slot) -> Result<PooledConn, StorageError> {
        let conn = match slot.conn {
            Some((conn, parked)) => {
                let stale = self
                    .inner
                    .config
                    .idle_timeout
                    .is_some_and(|limit| parked.elapsed() > limit);
                if stale {
                    self.inner.metrics.discarded_idle.inc();
                    self.inner.metrics.idle.add(-1);
                    drop(conn);
                    match self.establish() {
                        Ok(conn) => conn,
                        Err(e) => {
                            self.return_empty();
                            return Err(e);
                        }
                    }
                } else {
                    self.inner.metrics.idle.add(-1);
                    conn
                }
            }
            None => match self.establish() {
                Ok(conn) => conn,
                Err(e) => {
                    self.return_empty();
                    return Err(e);
                }
            },
        };

        self.inner.metrics.checkouts.inc();
        self.inner.metrics.in_use.add(1);
        Ok(PooledConn {
            pool: Arc::clone(&self.inner),
            conn: Some(conn),
            tainted: false,
            proved_live: false,
        })
    }

    /// Check out a connection that answered a probe at hand-out. A parked
    /// connection is only as live as the round trip that parked it; this is
    /// the checkout for a caller whose first operation on a recycled
    /// connection just failed at the transport. Each connection that fails
    /// the probe is discarded, so after at most `capacity` dead parked ones
    /// the next is a fresh establishment.
    pub fn checkout_probed(&self) -> Result<PooledConn, StorageError> {
        let mut last = StorageError::Connect("no pooled connection answered a probe".to_string());
        for _ in 0..=self.inner.config.capacity {
            let mut conn = self.checkout()?;
            match conn.ping() {
                Ok(()) => return Ok(conn),
                Err(e) => {
                    last = e;
                    conn.discard();
                }
            }
        }
        Err(last)
    }

    /// Establish a fresh connection, retrying with backoff. The caller
    /// must hold a slot.
    fn establish(&self) -> Result<Box<dyn Connection>, StorageError> {
        let mut last = StorageError::Connect("no connect attempts configured".to_string());
        for attempt in 0..self.inner.config.connect_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(self.inner.config.backoff.delay(attempt - 1));
            }
            match self.inner.backend.connect() {
                Ok(conn) => {
                    self.inner.metrics.established.inc();
                    return Ok(conn);
                }
                Err(e) => {
                    self.inner.metrics.connect_failures.inc();
                    last = e;
                }
            }
        }
        Err(last)
    }

    /// Return an empty slot to the free list (capacity conservation: every
    /// slot taken out must go back, with or without a connection).
    fn return_empty(&self) {
        let _ = self.inner.slots_tx.try_send(Slot { conn: None });
    }

    /// Close the pool: in-flight connections finish and are discarded on
    /// checkin; new checkouts fail with [`StorageError::Closed`]. Idle
    /// connections are dropped immediately.
    pub fn close(&self) {
        *self.inner.closed.write() = true;
        // Drain whatever is idle right now; checked-out connections are
        // handled by their guards' drop. Bounded by capacity so the slots
        // pushed back empty are not re-drained forever.
        for _ in 0..self.inner.config.capacity {
            let Ok(slot) = self.inner.slots_rx.try_recv() else {
                break;
            };
            if slot.conn.is_some() {
                self.inner.metrics.discarded_drained.inc();
                self.inner.metrics.idle.add(-1);
            }
            let _ = self.inner.slots_tx.try_send(Slot { conn: None });
        }
    }

    /// Point-in-time counters (reads the registry handles).
    pub fn stats(&self) -> PoolStats {
        let m = &self.inner.metrics;
        PoolStats {
            checkouts: m.checkouts.get(),
            checkins: m.checkins.get(),
            established: m.established.get(),
            discarded_broken: m.discarded_broken.get(),
            discarded_ping: m.discarded_ping.get(),
            discarded_closed: m.discarded_closed.get(),
            discarded_idle: m.discarded_idle.get(),
            discarded_drained: m.discarded_drained.get(),
            connect_failures: m.connect_failures.get(),
            exhausted: m.exhausted.get(),
            in_use: m.in_use.get(),
            idle: m.idle.get(),
        }
    }
}

/// RAII checkout guard. Implements [`Connection`] by delegation, tracking
/// connection-level failures so drop can decide between recycling and
/// discarding. Dropping the guard checks the connection in; a connection
/// that errored (or, with [`PoolConfig::ping_on_checkin`], one that
/// completed no round trip on this checkout) is probed first and
/// discarded on failure.
pub struct PooledConn {
    pool: Arc<PoolInner>,
    conn: Option<Box<dyn Connection>>,
    tainted: bool,
    /// A delegated operation completed without a transport error: the
    /// backend answered on this connection during this checkout.
    proved_live: bool,
}

impl std::fmt::Debug for PooledConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledConn")
            .field("live", &self.conn.is_some())
            .field("tainted", &self.tainted)
            .finish()
    }
}

impl PooledConn {
    /// Run one delegated operation, recording connection-level failures.
    /// Engine/catalog errors don't taint: the connection is fine, the
    /// request was not.
    fn run<R>(
        &mut self,
        f: impl FnOnce(&mut dyn Connection) -> Result<R, StorageError>,
    ) -> Result<R, StorageError> {
        let conn = match self.conn.as_mut() {
            Some(conn) => conn,
            // Unreachable outside `drop`; typed rather than panicking to
            // honor the crate's no-unwrap policy.
            None => return Err(StorageError::Closed),
        };
        let result = f(conn.as_mut());
        self.account(&result);
        result
    }

    /// Fold one answer into the checkout's health: a transport error
    /// taints it, anything else proves it live.
    fn account<R>(&mut self, result: &Result<R, StorageError>) {
        if matches!(result, Err(StorageError::Connect(_))) {
            self.tainted = true;
        } else {
            self.proved_live = true;
        }
    }

    /// Explicitly discard this connection instead of recycling it.
    pub fn discard(mut self) {
        if self.conn.take().is_some() {
            self.pool.metrics.discarded_broken.inc();
            self.pool.metrics.in_use.add(-1);
            let _ = self.pool.slots_tx.try_send(Slot { conn: None });
        }
    }

    /// Whether the backend answered any operation on this checkout. A
    /// tainted guard that never did failed on its first operation: nothing
    /// ran, and the connection most likely died while parked.
    pub fn proved_live(&self) -> bool {
        self.proved_live
    }
}

impl Connection for PooledConn {
    fn execute(&mut self, db_id: &str, sql: &str) -> Result<QueryResult, StorageError> {
        self.run(|c| c.execute(db_id, sql))
    }

    fn ping(&mut self) -> Result<(), StorageError> {
        self.run(|c| c.ping())
    }

    fn databases(&mut self) -> Result<Vec<String>, StorageError> {
        self.run(|c| c.databases())
    }

    fn tables(&mut self, db_id: &str) -> Result<Vec<String>, StorageError> {
        self.run(|c| c.tables(db_id))
    }

    fn table_schema(&mut self, db_id: &str, table: &str) -> Result<TableSchema, StorageError> {
        self.run(|c| c.table_schema(db_id, table))
    }

    fn revision(&mut self, db_id: &str) -> Result<u64, StorageError> {
        self.run(|c| c.revision(db_id))
    }

    fn pipeline(&mut self, db_id: &str, reqs: &[Request]) -> Vec<Result<Reply, StorageError>> {
        let replies = match self.conn.as_mut() {
            Some(conn) => conn.pipeline(db_id, reqs),
            None => reqs.iter().map(|_| Err(StorageError::Closed)).collect(),
        };
        for reply in &replies {
            self.account(reply);
        }
        replies
    }
}

impl Drop for PooledConn {
    fn drop(&mut self) {
        let Some(mut conn) = self.conn.take() else {
            return; // already discarded explicitly
        };
        self.pool.metrics.in_use.add(-1);
        if *self.pool.closed.read() {
            self.pool.metrics.discarded_closed.inc();
            let _ = self.pool.slots_tx.try_send(Slot { conn: None });
            return;
        }
        if self.tainted {
            // The connection already reported a transport-level failure;
            // probe it once — a transient blip may have healed, a broken
            // connection must go.
            if conn.ping().is_err() {
                self.pool.metrics.discarded_broken.inc();
                let _ = self.pool.slots_tx.try_send(Slot { conn: None });
                return;
            }
        } else if self.pool.config.ping_on_checkin && !self.proved_live && conn.ping().is_err() {
            self.pool.metrics.discarded_ping.inc();
            let _ = self.pool.slots_tx.try_send(Slot { conn: None });
            return;
        }
        self.pool.metrics.checkins.inc();
        self.pool.metrics.idle.add(1);
        let _ = self.pool.slots_tx.try_send(Slot { conn: Some((conn, Instant::now())) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flaky::{FaultSpec, FlakyBackend};
    use crate::memory::MemoryBackend;
    use sqlengine::{Column, DataType, Database, TableSchema};

    fn backend() -> MemoryBackend {
        let mut db = Database::new("d");
        let t = db
            .create_table(TableSchema::new("t", vec![Column::new("c", DataType::Integer)]))
            .expect("fresh table");
        t.insert(vec![1.into()]).expect("row fits");
        MemoryBackend::new(vec![db])
    }

    fn quiet_pool(capacity: usize) -> ConnectionPool {
        let registry = codes_obs::Registry::new();
        ConnectionPool::with_registry(
            Arc::new(backend()),
            PoolConfig { capacity, checkout_timeout: Duration::from_millis(50), ..PoolConfig::default() },
            &registry,
        )
    }

    #[test]
    fn checkout_reuses_the_recycled_connection() {
        let pool = quiet_pool(2);
        {
            let mut conn = pool.checkout().expect("capacity free");
            conn.execute("d", "SELECT c FROM t").expect("query runs");
        }
        let _conn = pool.checkout().expect("recycled");
        let stats = pool.stats();
        assert_eq!(stats.checkouts, 2);
        assert_eq!(stats.checkins, 1);
        assert_eq!(stats.established, 1, "the second checkout reuses, not re-establishes");
        assert_eq!(stats.in_use, 1);
    }

    #[test]
    fn exhaustion_is_typed_and_bounded() {
        let pool = quiet_pool(1);
        let _held = pool.checkout().expect("first checkout");
        let err = pool.checkout().expect_err("capacity 1 is taken");
        assert_eq!(err.kind(), "storage_exhausted");
        let stats = pool.stats();
        assert_eq!(stats.exhausted, 1);
        assert_eq!(stats.in_use, 1);
    }

    #[test]
    fn broken_connections_are_discarded_and_replaced() {
        let registry = codes_obs::Registry::new();
        // io_fail high enough that breaks happen quickly; connects quiet.
        let flaky = FlakyBackend::new(backend(), FaultSpec { seed: 5, io_fail: 0.5, ..FaultSpec::default() });
        let pool = ConnectionPool::with_registry(
            Arc::new(flaky),
            PoolConfig { capacity: 1, ..PoolConfig::default() },
            &registry,
        );
        let mut saw_fault = false;
        for _ in 0..30 {
            let mut conn = pool.checkout().expect("quiet connects");
            if conn.execute("d", "SELECT c FROM t").is_err() {
                saw_fault = true;
            }
        }
        assert!(saw_fault, "50% io_fail fires within 30 checkouts");
        let stats = pool.stats();
        assert!(stats.discarded_broken > 0, "faulted connections are discarded: {stats:?}");
        assert_eq!(
            stats.checkouts,
            stats.checkins + stats.discarded(),
            "every checkout is checked in or discarded exactly once: {stats:?}"
        );
        assert_eq!(stats.in_use, 0);
        assert!(stats.established > stats.discarded(), "discards are re-established");
    }

    #[test]
    fn idle_reaping_discards_stale_connections() {
        let registry = codes_obs::Registry::new();
        let pool = ConnectionPool::with_registry(
            Arc::new(backend()),
            PoolConfig {
                capacity: 1,
                idle_timeout: Some(Duration::ZERO),
                ..PoolConfig::default()
            },
            &registry,
        );
        drop(pool.checkout().expect("establishes"));
        std::thread::sleep(Duration::from_millis(2));
        drop(pool.checkout().expect("reaps and re-establishes"));
        let stats = pool.stats();
        assert_eq!(stats.discarded_idle, 1);
        assert_eq!(stats.established, 2);
    }

    #[test]
    fn close_rejects_new_checkouts_and_drains_idle() {
        let pool = quiet_pool(2);
        drop(pool.checkout().expect("establishes"));
        pool.close();
        assert_eq!(pool.checkout().expect_err("closed").kind(), "shutting_down");
        let stats = pool.stats();
        assert_eq!(stats.idle, 0, "idle connections drained on close");
        assert_eq!(stats.discarded_drained, 1);
        assert_eq!(
            stats.checkouts,
            stats.checkins + stats.discarded(),
            "a parked connection was checked in; draining it is not a second ending: {stats:?}"
        );
    }

    #[test]
    fn connect_refusals_retry_with_backoff_then_surface() {
        let registry = codes_obs::Registry::new();
        let flaky =
            FlakyBackend::new(backend(), FaultSpec { seed: 1, connect_fail: 1.0, ..FaultSpec::default() });
        let pool = ConnectionPool::with_registry(
            Arc::new(flaky),
            PoolConfig { capacity: 1, connect_attempts: 3, ..PoolConfig::default() },
            &registry,
        );
        let err = pool.checkout().expect_err("every connect refused");
        assert_eq!(err.kind(), "storage_connect");
        let stats = pool.stats();
        assert_eq!(stats.connect_failures, 3, "each attempt counted");
        // The slot went back: a later checkout can still try (and fail).
        assert_eq!(pool.checkout().expect_err("still refused").kind(), "storage_connect");
    }
}
