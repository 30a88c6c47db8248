//! The pipeline contract: [`Connection::pipeline`] answers in order, one
//! reply per request; `FlakyBackend` charges one wire wait per pipeline
//! and draws its faults per request, as if each had been sent alone; every
//! wrapper forwards a pipeline to the backend's own; a pooled pipeline that
//! fails at the transport before proving its connection live is retried on
//! a probed one; and a memory pipeline runs under one lock, so its trailing
//! revision read stamps everything before it. Everything is counted; no
//! test reads a clock.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use codes_storage::testing::{Hooked, Op};
use codes_storage::{
    Backend, CatalogService, Connection, ConnectionPool, FaultSpec, FlakyBackend,
    IntrospectOptions, MemoryBackend, PoolConfig, Reply, Request, StorageError, SyncOutcome,
};
use sqlengine::{Column, DataType, Database, TableSchema};

const DB: &str = "d";

fn store(rows: i64) -> MemoryBackend {
    let mut db = Database::new(DB);
    let t = db
        .create_table(TableSchema::new(
            "t",
            vec![Column::new("c", DataType::Integer)],
        ))
        .expect("fresh table");
    for i in 0..rows {
        t.insert(vec![i.into()]).expect("row fits");
    }
    MemoryBackend::new(vec![db])
}

/// `n` requests of every kind a harvest sends.
fn requests(n: usize) -> Vec<Request> {
    (0..n)
        .map(|i| match i % 4 {
            0 => Request::Tables,
            1 => Request::Schema("t".to_string()),
            2 => Request::Execute("SELECT * FROM t".to_string()),
            _ => Request::Revision,
        })
        .collect()
}

fn pool_over(backend: Arc<dyn Backend>, capacity: usize) -> ConnectionPool {
    ConnectionPool::with_registry(
        backend,
        PoolConfig {
            capacity,
            ..PoolConfig::default()
        },
        &codes_obs::Registry::new(),
    )
}

fn quiet_flaky() -> FlakyBackend<MemoryBackend> {
    FlakyBackend::new(store(3), FaultSpec::default())
}

#[test]
fn a_pooled_flaky_pipeline_pays_exactly_one_wire_wait() {
    let hooked = Arc::new(Hooked::new(quiet_flaky()));
    let wire = hooked.wire();
    let pool = pool_over(Arc::clone(&hooked) as Arc<dyn Backend>, 2);
    let mut conn = pool.checkout().expect("quiet connects");
    let flaky = hooked.inner();
    assert_eq!(flaky.wire_waits(), 1, "the establishment");

    let replies = conn.pipeline(DB, &requests(12));
    assert_eq!(flaky.wire_waits(), 2, "twelve requests, one wire wait");
    assert_eq!(replies.len(), 12);
    assert!(replies.iter().all(Result::is_ok), "{replies:?}");
    assert!(matches!(replies[2], Ok(Reply::Rows(ref rows)) if rows.row_count() == 3));
    assert_eq!(wire.pipelines(), 1);
    assert_eq!(wire.count(Op::Tables) + wire.count(Op::TableSchema), 6);
    assert_eq!(wire.count(Op::Execute) + wire.count(Op::Revision), 6);
    drop(conn);
    assert_eq!(
        flaky.wire_waits(),
        2,
        "a connection that answered is parked unprobed"
    );
}

#[test]
fn every_forwarding_impl_reaches_the_inner_backends_override() {
    let flaky = Arc::new(quiet_flaky());
    let reqs = requests(9);
    let paid = |run: &mut dyn FnMut()| {
        let before = flaky.wire_waits();
        run();
        flaky.wire_waits() - before
    };

    // `Box<dyn Connection>`, as `Backend::connect` hands it out.
    let mut boxed = flaky.connect().expect("quiet connects");
    assert_eq!(
        paid(&mut || assert_eq!(boxed.pipeline(DB, &reqs).len(), 9)),
        1,
        "Box"
    );

    // `PooledConn` over the bare backend.
    let pool = pool_over(Arc::clone(&flaky) as Arc<dyn Backend>, 1);
    let mut pooled = pool.checkout().expect("quiet connects");
    assert_eq!(
        paid(&mut || assert_eq!(pooled.pipeline(DB, &reqs).len(), 9)),
        1,
        "PooledConn"
    );
    drop(pooled);

    // `HookedConn`, forwarding and one request at a time.
    let hooked = Hooked::new(FlakyBackend::new(store(3), FaultSpec::default()));
    let mut conn = hooked.connect().expect("quiet connects");
    let before = hooked.inner().wire_waits();
    assert!(conn.pipeline(DB, &reqs).iter().all(Result::is_ok));
    assert_eq!(hooked.inner().wire_waits() - before, 1, "HookedConn");
    let unpipelined = Hooked::new(FlakyBackend::new(store(3), FaultSpec::default())).unpipelined();
    let mut conn = unpipelined.connect().expect("quiet connects");
    let before = unpipelined.inner().wire_waits();
    assert!(conn.pipeline(DB, &reqs).iter().all(Result::is_ok));
    assert_eq!(
        unpipelined.inner().wire_waits() - before,
        9,
        "one at a time, as asked"
    );
}

/// The outcome of each request, `true` for an answer.
fn outcomes(replies: &[Result<Reply, StorageError>]) -> Vec<bool> {
    replies.iter().map(Result::is_ok).collect()
}

#[test]
fn fault_draws_advance_once_per_request_and_a_break_fails_every_later_one() {
    let spec = |seed| FaultSpec {
        seed,
        io_fail: 0.08,
        silent_break: 0.08,
        ..FaultSpec::default()
    };
    let mut broke_mid_pipeline = 0;
    for seed in 0..40 {
        let (serial, piped) = (
            FlakyBackend::new(store(1), spec(seed)),
            FlakyBackend::new(store(1), spec(seed)),
        );
        let (mut one, mut many) = (
            serial.connect().expect("quiet"),
            piped.connect().expect("quiet"),
        );
        // Two pipelines in a row: the second picks the fault stream up
        // where the first left it.
        for reqs in [requests(7), requests(6)] {
            let alone: Vec<_> = reqs.iter().map(|req| req.send(&mut one, DB)).collect();
            let together = many.pipeline(DB, &reqs);
            assert_eq!(outcomes(&together), outcomes(&alone), "seed {seed}");
            if let Some(first) = together.iter().position(Result::is_err) {
                assert!(
                    together[first..]
                        .iter()
                        .all(|reply| matches!(reply, Err(StorageError::Connect(_)))),
                    "seed {seed}: every request after a break fails at the transport"
                );
                broke_mid_pipeline += usize::from(first > 0);
            }
        }
        assert_eq!(
            piped.wire_waits(),
            1 + 2,
            "seed {seed}: one connect, two pipelines"
        );
    }
    assert!(
        broke_mid_pipeline > 0,
        "some pipeline broke after answering a request"
    );
}

/// Connection 0 answers the attach and the dispatch's revision read, and
/// dies while parked right after it: the refresh's pipeline fails at its
/// first request without proving the connection live, and runs once more
/// on a connection that has just answered a probe.
#[test]
fn a_pipeline_failing_first_on_an_unproved_connection_is_retried_once_on_a_probed_one() {
    let store = store(3);
    let admin = MemoryBackend::over(store.store());
    let dead = Arc::new(Mutex::new(HashSet::new()));
    let armed = Arc::new(AtomicBool::new(false));
    let (killed, on, morgue) = (Arc::clone(&dead), Arc::clone(&armed), Arc::clone(&dead));
    let hooked = Hooked::new(store)
        .before(move |call| {
            if morgue
                .lock()
                .expect("no panic under this lock")
                .contains(&call.conn)
            {
                return Err(StorageError::Connect("died while parked".to_string()));
            }
            Ok(())
        })
        .after(move |call| {
            if call.op == Op::Revision && on.swap(false, Ordering::SeqCst) {
                killed
                    .lock()
                    .expect("no panic under this lock")
                    .insert(call.conn);
            }
        });
    let wire = hooked.wire();
    let service = CatalogService::new(pool_over(Arc::new(hooked), 1), IntrospectOptions::default());
    service.attach(DB).expect("attach");
    admin
        .mutate(DB, |db| {
            db.table_mut("t")
                .expect("t")
                .insert(vec![9.into()])
                .expect("fits")
        })
        .expect("d exists");

    wire.reset();
    armed.store(true, Ordering::SeqCst);
    let outcome = service
        .sync(DB)
        .expect("the retry on a probed connection succeeds");
    assert!(
        matches!(outcome, SyncOutcome::Refreshed { .. }),
        "{outcome:?}"
    );
    assert_eq!(
        service.catalog(DB).expect("attached").database.tables[0]
            .rows
            .len(),
        4
    );
    assert_eq!(
        wire.pipelines(),
        2,
        "the failed pipeline, and its one retry"
    );
    assert_eq!(
        wire.count(Op::Ping),
        2,
        "the dead one's checkin probe, the fresh one's"
    );
    let stats = service.pool().stats();
    assert_eq!(
        (stats.established, stats.discarded_broken),
        (2, 1),
        "{stats:?}"
    );
    assert_eq!(
        stats.checkouts,
        stats.checkins + stats.discarded(),
        "{stats:?}"
    );
}

#[test]
fn memory_pipelines_under_a_concurrent_writer_match_their_tail_revision() {
    const WRITES: i64 = 300;
    let backend = store(0);
    let admin = MemoryBackend::over(backend.store());
    // Row count of `t` at each revision, recorded under the store's write
    // lock: a reader that can see a revision finds it here.
    let rows_at = Arc::new(Mutex::new(HashMap::new()));
    let initial = backend
        .connect()
        .expect("connect")
        .revision(DB)
        .expect("revision");
    rows_at
        .lock()
        .expect("no panic under this lock")
        .insert(initial, 0usize);
    let done = AtomicBool::new(false);
    let mut checked = 0u64;
    std::thread::scope(|scope| {
        let record = Arc::clone(&rows_at);
        let done = &done;
        scope.spawn(move || {
            for i in 0..WRITES {
                admin
                    .mutate(DB, |db| {
                        let t = db.table_mut("t").expect("t");
                        t.insert(vec![i.into()]).expect("row fits");
                        let rows = t.rows.len();
                        record
                            .lock()
                            .expect("no panic under this lock")
                            .insert(db.revision(), rows);
                    })
                    .expect("d exists");
            }
            done.store(true, Ordering::SeqCst);
        });
        let mut conn = backend.connect().expect("connect");
        let reqs = [
            Request::Revision,
            Request::Execute("SELECT * FROM t".to_string()),
            Request::Revision,
        ];
        while !done.load(Ordering::SeqCst) || checked == 0 {
            let replies = conn.pipeline(DB, &reqs);
            let (Ok(Reply::Revision(head)), Ok(Reply::Rows(rows)), Ok(Reply::Revision(tail))) =
                (&replies[0], &replies[1], &replies[2])
            else {
                panic!("a memory pipeline answers every request in kind: {replies:?}");
            };
            assert_eq!(head, tail, "no write lands inside a pipeline");
            let expected = rows_at.lock().expect("no panic under this lock")[tail];
            assert_eq!(rows.row_count(), expected, "the rows are the tail revision's");
            checked += 1;
        }
    });
    assert!(checked > 0);
}
