//! A deterministic "remote-ish" [`Backend`]: real data underneath,
//! injectable latency and connection faults on top.
//!
//! The trait split is only proven when a backend can actually *fail* the
//! way a network database does: refused connects, I/O errors that kill a
//! session mid-statement, and connections that die silently and are only
//! discovered by the next liveness probe. [`FlakyBackend`] wraps any inner
//! backend with exactly those failure modes, decided by a pure
//! SplitMix64 stream over `(seed, connection id, operation counter)` — the
//! same storm replays identically for a given seed, which is what makes
//! the chaos suite assertable.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sqlengine::{QueryResult, TableSchema};

use crate::backend::{Backend, CommitHook, Connection, Reply, Request};
use crate::error::StorageError;

/// Deterministic fault plan for a [`FlakyBackend`]. Probabilities are in
/// `[0, 1]`; the default injects nothing.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Seed of the fault stream; same seed, same faults.
    pub seed: u64,
    /// Probability that [`Backend::connect`] is refused outright.
    pub connect_fail: f64,
    /// Probability that an operation fails with an I/O error *and* breaks
    /// the connection (every later operation fails until discarded).
    pub io_fail: f64,
    /// Probability that an operation succeeds but silently breaks the
    /// connection afterwards — the failure mode only a liveness probe
    /// catches.
    pub silent_break: f64,
    /// Injected latency per round trip (a connect, an operation, a probe,
    /// a whole pipeline), simulating the network.
    pub latency: Duration,
}

impl Default for FaultSpec {
    fn default() -> FaultSpec {
        FaultSpec {
            seed: 0,
            connect_fail: 0.0,
            io_fail: 0.0,
            silent_break: 0.0,
            latency: Duration::ZERO,
        }
    }
}

impl FaultSpec {
    /// A plan that injects nothing but a fixed per-operation latency —
    /// what the storage bench uses to make pooling visible.
    pub fn latency_only(latency: Duration) -> FaultSpec {
        FaultSpec { latency, ..FaultSpec::default() }
    }

    /// A stormy plan for chaos tests: some refused connects, I/O faults,
    /// and silent breaks.
    pub fn chaos(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            connect_fail: 0.10,
            io_fail: 0.05,
            silent_break: 0.05,
            latency: Duration::ZERO,
        }
    }
}

/// SplitMix64: cheap, stateless, deterministic.
fn mix(seed: u64, stream: u64, counter: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(counter.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Unit-interval sample from one mixed word.
fn unit(word: u64) -> f64 {
    (word >> 11) as f64 / (1u64 << 53) as f64
}

/// [`Backend`] wrapper injecting the [`FaultSpec`] over any inner backend.
pub struct FlakyBackend<B: Backend> {
    inner: B,
    spec: FaultSpec,
    /// Connection ids double as fault-stream ids.
    conns: AtomicU64,
    /// Connect attempts get their own counter so refusals don't depend on
    /// how many connections were handed out before.
    attempts: AtomicU64,
    /// Round trips paid, by every connection: see [`FlakyBackend::wire_waits`].
    waits: Arc<AtomicU64>,
}

impl<B: Backend> FlakyBackend<B> {
    /// Wrap `inner` with the given fault plan.
    pub fn new(inner: B, spec: FaultSpec) -> FlakyBackend<B> {
        FlakyBackend {
            inner,
            spec,
            conns: AtomicU64::new(0),
            attempts: AtomicU64::new(0),
            waits: Arc::default(),
        }
    }

    /// Wire waits paid so far: each connect attempt, operation, probe and
    /// pipeline is one, whatever [`FaultSpec::latency`] is.
    pub fn wire_waits(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: Backend> Backend for FlakyBackend<B> {
    fn name(&self) -> &str {
        "flaky"
    }

    fn connect(&self) -> Result<Box<dyn Connection>, StorageError> {
        wire_wait(&self.waits, self.spec.latency);
        let attempt = self.attempts.fetch_add(1, Ordering::Relaxed);
        if unit(mix(self.spec.seed, u64::MAX, attempt)) < self.spec.connect_fail {
            return Err(StorageError::Connect("injected connect refusal".to_string()));
        }
        let id = self.conns.fetch_add(1, Ordering::Relaxed);
        let inner = self.inner.connect()?;
        Ok(Box::new(FlakyConnection {
            inner,
            spec: self.spec,
            waits: Arc::clone(&self.waits),
            id,
            ops: 0,
            broken: false,
        }))
    }

    /// Forwarded untouched: an announcement is the server's, not a
    /// session's, so no fault or latency applies to it.
    fn subscribe(&self, hook: CommitHook) -> bool {
        self.inner.subscribe(hook)
    }
}

fn broken() -> StorageError {
    StorageError::Connect("connection is broken".to_string())
}

/// One round trip: counted, and slept when there is latency to inject.
fn wire_wait(waits: &AtomicU64, latency: Duration) {
    waits.fetch_add(1, Ordering::Relaxed);
    if !latency.is_zero() {
        std::thread::sleep(latency);
    }
}

struct FlakyConnection {
    inner: Box<dyn Connection>,
    spec: FaultSpec,
    waits: Arc<AtomicU64>,
    id: u64,
    ops: u64,
    broken: bool,
}

impl FlakyConnection {
    /// Pre-flight for every operation: one round trip, then [`Self::draw`].
    fn gate(&mut self) -> Result<(), StorageError> {
        wire_wait(&self.waits, self.spec.latency);
        self.draw()
    }

    /// One operation's fate: the broken-state check and the two injected
    /// failure modes.
    fn draw(&mut self) -> Result<(), StorageError> {
        if self.broken {
            return Err(broken());
        }
        let word = mix(self.spec.seed, self.id, self.ops);
        self.ops += 1;
        if unit(word) < self.spec.io_fail {
            self.broken = true;
            return Err(StorageError::Connect("injected I/O fault".to_string()));
        }
        // A silent break is decided from an independent sub-stream so the
        // two fault kinds don't shadow each other.
        if unit(mix(word, 1, 1)) < self.spec.silent_break {
            // The current operation succeeds; the *next* one finds the
            // connection dead — gate() runs before the inner call, so
            // flagging now produces exactly that ordering.
            self.broken = true;
            return Ok(());
        }
        Ok(())
    }
}

impl Connection for FlakyConnection {
    fn execute(&mut self, db_id: &str, sql: &str) -> Result<QueryResult, StorageError> {
        self.gate()?;
        self.inner.execute(db_id, sql)
    }

    fn ping(&mut self) -> Result<(), StorageError> {
        wire_wait(&self.waits, self.spec.latency);
        // Pings answer the broken-state question truthfully and never
        // inject new faults: the probe exists to *detect* breakage.
        if self.broken {
            return Err(broken());
        }
        self.inner.ping()
    }

    fn databases(&mut self) -> Result<Vec<String>, StorageError> {
        self.gate()?;
        self.inner.databases()
    }

    fn tables(&mut self, db_id: &str) -> Result<Vec<String>, StorageError> {
        self.gate()?;
        self.inner.tables(db_id)
    }

    fn table_schema(&mut self, db_id: &str, table: &str) -> Result<TableSchema, StorageError> {
        self.gate()?;
        self.inner.table_schema(db_id, table)
    }

    fn revision(&mut self, db_id: &str) -> Result<u64, StorageError> {
        self.gate()?;
        self.inner.revision(db_id)
    }

    /// One round trip for the lot, faults drawn per request as if each had
    /// been sent alone. The requests before the first one to fail reach the
    /// inner backend as one pipeline; that one fails, and so does every
    /// later one: the connection is broken by then.
    fn pipeline(&mut self, db_id: &str, reqs: &[Request]) -> Vec<Result<Reply, StorageError>> {
        wire_wait(&self.waits, self.spec.latency);
        let mut failed = None;
        let mut sent = 0;
        for _ in reqs {
            match self.draw() {
                Ok(()) => sent += 1,
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        let mut replies = self.inner.pipeline(db_id, &reqs[..sent]);
        if let Some(e) = failed {
            replies.push(Err(e));
            replies.resize_with(reqs.len(), || Err(broken()));
        }
        replies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryBackend;
    use sqlengine::{Column, DataType, Database};

    fn store() -> MemoryBackend {
        let mut db = Database::new("d");
        db.create_table(sqlengine::TableSchema::new(
            "t",
            vec![Column::new("c", DataType::Integer)],
        ))
        .expect("fresh table");
        MemoryBackend::new(vec![db])
    }

    #[test]
    fn quiet_spec_is_transparent() {
        let backend = FlakyBackend::new(store(), FaultSpec::default());
        let mut conn = backend.connect().expect("no injected refusals");
        for _ in 0..50 {
            conn.execute("d", "SELECT c FROM t").expect("no injected faults");
            conn.ping().expect("never broken");
        }
    }

    #[test]
    fn faults_are_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let backend = FlakyBackend::new(store(), FaultSpec {
                seed,
                io_fail: 0.3,
                ..FaultSpec::default()
            });
            let mut conn = backend.connect().expect("connects are quiet in this spec");
            (0..20).map(|_| conn.execute("d", "SELECT c FROM t").is_ok()).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same fault stream");
        let distinct: std::collections::HashSet<Vec<bool>> = (0..16).map(run).collect();
        assert!(distinct.len() > 1, "fault streams vary across seeds");
        let outcomes = run(7);
        let first_fail = outcomes.iter().position(|ok| !ok).expect("30% io_fail fires in 20 ops");
        assert!(
            outcomes[first_fail..].iter().all(|ok| !ok),
            "an I/O fault breaks the connection for good: {outcomes:?}"
        );
    }

    #[test]
    fn silent_breaks_are_caught_by_ping_not_by_the_breaking_op() {
        let backend = FlakyBackend::new(store(), FaultSpec {
            seed: 3,
            silent_break: 0.4,
            ..FaultSpec::default()
        });
        let mut conn = backend.connect().expect("quiet connects");
        let mut broke_after_success = false;
        for _ in 0..30 {
            if conn.execute("d", "SELECT c FROM t").is_ok() && conn.ping().is_err() {
                broke_after_success = true;
                break;
            }
        }
        assert!(broke_after_success, "a silent break follows a successful operation");
    }
}
