//! Property tests for the connection pool: whatever the checkout / use /
//! fault / drop / `discard()` / idle-reap / `close()` interleaving looks
//! like, (1) live backend connections never exceed the pool's capacity,
//! (2) every checkout is checked in or discarded exactly once and every
//! established connection is parked, held or discarded, and (3) a
//! connection handed out from the free list is healthy wherever a probe
//! vouches for it; one that broke silently after its last clean operation
//! fails exactly one first operation and is discarded at that checkin,
//! and a catalog read retries past it.

use std::sync::Arc;
use std::time::Duration;

use codes_storage::testing::{Hooked, Op, Wire};
use codes_storage::{
    Connection, ConnectionPool, FaultSpec, FlakyBackend, MemoryBackend, PoolConfig, PooledConn,
    StorageError,
};
use proptest::prelude::*;
use sqlengine::{Backoff, Column, DataType, Database, TableSchema};

fn fixture() -> Database {
    let mut db = Database::new("d");
    let t = db
        .create_table(TableSchema::new("t", vec![Column::new("c", DataType::Integer)]))
        .expect("fresh table");
    t.insert(vec![1.into()]).expect("row fits");
    db
}

/// The pool under test, and ground truth from the backend's own point of
/// view: the properties are asserted against the [`Wire`], not against the
/// pool's self-reported gauges.
struct Harness {
    pool: ConnectionPool,
    truth: Arc<Wire>,
}

impl Harness {
    /// The accounting identities that must hold whenever no guard is held
    /// (see [`codes_storage::PoolStats`]), checked against ground truth.
    fn assert_conserved(&self, capacity: usize) {
        let stats = self.pool.stats();
        let live = self.truth.live();
        assert!(
            self.truth.peak() <= capacity as i64,
            "occupancy bound held: {stats:?}"
        );
        assert_eq!(
            stats.checkouts,
            stats.checkins + stats.discarded(),
            "every checkout checked in or discarded exactly once: {stats:?}"
        );
        assert_eq!(stats.in_use, 0, "no guard outlives the sequence: {stats:?}");
        assert_eq!(live, stats.idle, "live backend connections are exactly the parked ones: {stats:?}");
        assert_eq!(
            stats.established,
            live as u64 + stats.discarded() + stats.discarded_parked(),
            "every established connection is parked or was discarded once: {stats:?}"
        );
        assert_eq!(
            self.truth.live_faulted(),
            0,
            "no connection that reported a transport failure is parked: {stats:?}"
        );
    }
}

fn harness(seed: u64, capacity: usize, spec: FaultSpec) -> Harness {
    harness_with(seed, capacity, spec, PoolConfig::default().idle_timeout)
}

fn harness_with(
    seed: u64,
    capacity: usize,
    spec: FaultSpec,
    idle_timeout: Option<Duration>,
) -> Harness {
    let backend =
        Hooked::new(FlakyBackend::new(MemoryBackend::new(vec![fixture()]), FaultSpec { seed, ..spec }));
    let truth = backend.wire();
    let registry = codes_obs::Registry::new();
    let pool = ConnectionPool::with_registry(
        Arc::new(backend),
        PoolConfig {
            capacity,
            checkout_timeout: Duration::from_millis(20),
            idle_timeout,
            connect_attempts: 2,
            backoff: Backoff::new(Duration::from_micros(50), Duration::from_micros(200), seed),
            ..PoolConfig::default()
        },
        &registry,
    );
    Harness { pool, truth }
}

const STORM: FaultSpec = FaultSpec {
    seed: 0,
    connect_fail: 0.15,
    io_fail: 0.10,
    silent_break: 0.10,
    latency: Duration::ZERO,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Decode an op sequence from generated words (the vendored proptest
    /// has no tuple combinators): `word % 64` picks checkout / drop / use
    /// (which the fault stream may fail) / `discard()` / `close()`, the
    /// remaining bits pick which held guard to act on. The first word
    /// seeds the fault stream, the second decides whether parked
    /// connections are reaped (a zero idle timeout makes every recycle a
    /// reap).
    #[test]
    fn occupancy_bound_and_conservation_over_arbitrary_op_sequences(
        words in prop::collection::vec(0u64..u64::MAX, 3..160),
    ) {
        let capacity = 3usize;
        let idle_timeout = (words[1] % 2 == 0).then_some(Duration::ZERO);
        let h = harness_with(words[0], capacity, STORM, idle_timeout);
        let mut held: Vec<PooledConn> = Vec::new();
        let mut closed = false;
        for &word in &words[2..] {
            let pick = |held: &[PooledConn]| (word / 64) as usize % held.len();
            match word % 64 {
                0..=23 => match h.pool.checkout() {
                    Ok(conn) => {
                        prop_assert!(!closed, "a closed pool hands nothing out");
                        held.push(conn);
                    }
                    Err(e) => prop_assert!(
                        matches!(
                            e,
                            StorageError::Connect(_)
                                | StorageError::Exhausted { .. }
                                | StorageError::Closed
                        ),
                        "only connect refusals, exhaustion or closure may surface, got {e}"
                    ),
                },
                24..=35 if !held.is_empty() => drop(held.remove(pick(&held))),
                36..=53 if !held.is_empty() => {
                    let idx = pick(&held);
                    let _ = held[idx].execute("d", "SELECT c FROM t");
                }
                54..=62 if !held.is_empty() => held.remove(pick(&held)).discard(),
                63 => {
                    h.pool.close();
                    closed = true;
                }
                _ => {}
            }
            prop_assert!(
                h.truth.peak() <= capacity as i64,
                "live connections never exceed capacity"
            );
        }
        held.clear();
        h.assert_conserved(capacity);
        if closed {
            prop_assert!(h.pool.stats().idle == 0, "a closed pool parks nothing");
        }
    }

    /// A recycled connection is healthy at hand-out in every case where a
    /// probe still vouches for it — a fresh establishment, a checkout that
    /// did no round trip (probed at checkin), one that reported a failure
    /// (probed, then discarded) — and in the one case where nothing does,
    /// a connection that broke silently right after its last clean
    /// operation, the damage is one failed first operation: that checkin
    /// discards it, so the very next hand-out is healthy again. Nothing
    /// that has reported a transport failure is ever parked.
    #[test]
    fn recycled_connections_are_healthy_or_fail_one_first_op_and_are_discarded(
        words in prop::collection::vec(0u64..u64::MAX, 2..80),
    ) {
        let h = harness(words[0], 2, STORM);
        // The parked connection's last round trip was an operation that may
        // have broken it silently, and no probe has run since. One guard
        // at a time, and checkout prefers the parked connection, so this
        // tracks exactly the connection the next checkout hands out.
        let mut parked_unprobed = false;
        for &word in &words[1..] {
            match h.pool.checkout() {
                // Held without a round trip: the checkin probe's case, it
                // parks the connection only if it answers.
                Ok(conn) if word % 3 == 0 => {
                    drop(conn);
                    parked_unprobed = false;
                }
                Ok(mut conn) => {
                    let healthy = conn.ping().is_ok();
                    prop_assert!(
                        healthy || parked_unprobed,
                        "a handed-out connection that a probe vouched for must answer"
                    );
                    // A dead one is tainted now and discarded at checkin; a
                    // healthy one is used (possibly breaking it) or parked
                    // on the strength of that ping.
                    parked_unprobed = healthy
                        && word % 3 == 1
                        && conn.execute("d", "SELECT c FROM t").is_ok();
                }
                Err(e) => prop_assert!(
                    matches!(e, StorageError::Connect(_) | StorageError::Exhausted { .. }),
                    "only connect refusals or exhaustion may surface, got {e}"
                ),
            }
            prop_assert!(
                h.truth.live_faulted() == 0,
                "a connection that reported a transport failure was parked"
            );
        }
    }

    /// `checkout_probed` is the hand-out that never needs the exception
    /// above: whatever state earlier callers left the free list in, the
    /// connection it returns answers.
    #[test]
    fn a_probed_checkout_is_always_healthy(
        words in prop::collection::vec(0u64..u64::MAX, 2..80),
    ) {
        let h = harness(words[0], 2, STORM);
        for &word in &words[1..] {
            let checkout =
                if word % 2 == 0 { h.pool.checkout() } else { h.pool.checkout_probed() };
            match checkout {
                Ok(mut conn) => {
                    if word % 2 == 1 {
                        prop_assert!(conn.ping().is_ok(), "a probed checkout must answer");
                    }
                    let _ = conn.execute("d", "SELECT c FROM t");
                }
                Err(e) => prop_assert!(
                    matches!(e, StorageError::Connect(_) | StorageError::Exhausted { .. }),
                    "only connect refusals or exhaustion may surface, got {e}"
                ),
            }
        }
        h.assert_conserved(2);
    }
}

/// The checkin probe runs only when the checkout proved nothing: a clean
/// round trip parks the connection without a second one, an untouched
/// checkout is pinged before it is parked.
#[test]
fn checkin_pings_only_when_the_checkout_did_no_round_trip() {
    let h = harness(1, 1, FaultSpec::default());
    {
        let mut conn = h.pool.checkout().expect("quiet backend");
        conn.execute("d", "SELECT c FROM t").expect("quiet backend");
    }
    assert_eq!(h.truth.count(Op::Ping), 0, "the operation was the liveness proof");
    drop(h.pool.checkout().expect("recycled"));
    assert_eq!(h.truth.count(Op::Ping), 1, "an untouched connection is probed");
    h.assert_conserved(1);
}

/// Multithreaded storm: six threads hammer a capacity-four pool over a
/// chaotic backend. The occupancy bound and checkout conservation must
/// hold under real contention, and the storm must terminate (bounded
/// checkout timeout — no hangs).
#[test]
fn concurrent_storm_conserves_capacity_and_leaks_nothing() {
    let capacity = 4usize;
    let h = harness(42, capacity, FaultSpec::chaos(42));
    let result = crossbeam::thread::scope(|scope| {
        for t in 0..6u64 {
            let pool = h.pool.clone();
            scope.spawn(move |_| {
                for i in 0..40u64 {
                    match pool.checkout() {
                        Ok(mut conn) => {
                            let _ = conn.execute("d", "SELECT c FROM t");
                            if (t + i) % 7 == 0 {
                                conn.discard();
                            }
                        }
                        Err(e) => assert!(
                            matches!(
                                e,
                                StorageError::Connect(_) | StorageError::Exhausted { .. }
                            ),
                            "unexpected checkout error under storm: {e}"
                        ),
                    }
                }
            });
        }
    });
    assert!(result.is_ok(), "storm threads joined without panicking");
    h.assert_conserved(capacity);
    assert!(h.pool.stats().established > 0, "the storm actually exercised the backend");
}
