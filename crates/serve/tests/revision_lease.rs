//! Catalog freshness without a revision lease, clause by clause (DESIGN.md
//! §4k): the store announces every commit before the write returns, and a
//! [`SystemBackend`] asks storage only when an announced revision differs
//! from the catalog it has installed. The stack runs over a storage backend
//! that counts its wire operations. Nothing here reads a clock or sleeps;
//! each forced interleaving is held by a latch (its bounded waits only turn
//! a hang into a failure).

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use codes::{
    pretrain, table4_models, CacheSettings, CodesModel, CodesSystem, Config, PretrainConfig,
    PromptOptions, SketchCatalog, SystemCache,
};
use codes_obs::Registry;
use codes_serve::{Backend, BackendReply, InferenceRequest, Pool, ServeConfig, SystemBackend};
use codes_storage::testing::{Hooked, Op, Wire};
use codes_storage::{
    CatalogService, Connection, ConnectionPool, IntrospectOptions, MemoryBackend, PoolConfig,
    StorageError, SyncOutcome,
};
use sqlengine::{Column, DataType, Database, TableSchema};

const DB: &str = "shop";
/// Answered `… FROM events` off the attach-time mirror and `… FROM tickets`
/// off a mirror that has seen [`Stack::write`]: which catalog a dispatch
/// was handed is read off its SQL.
const PROBE: &str = "How many tickets are there?";
/// What a dispatch's refresh after [`Stack::write`] adds to the
/// `revision()` count: the read closing the pipeline the mirror it
/// replaces predicts, and the one closing the pipeline that asks for the
/// new table. The announced revision is the pass's `before` (DESIGN.md
/// §4k).
const DISPATCH_REFRESH_READS: u64 = 2;
/// What an explicit [`CatalogService::sync`] after [`Stack::write`] adds:
/// its own read that saw the store move, then the two closing reads.
const SYNC_REFRESH_READS: u64 = 3;
/// What an attach adds: its opening read, and the one closing the pipeline
/// that follows the listing.
const ATTACH_READS: u64 = 2;
/// Releases a held operation or fails the test, never hangs it.
const HANG: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------
// A latch that holds one operation until the test lets it go on; the store
// under the stack counts what crosses the wire.
// ---------------------------------------------------------------------

struct Latch {
    hold: Hold,
    entered: Sender<()>,
    release: Receiver<()>,
}

/// Where a [`Latch`] parks the operation it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hold {
    /// A `revision()` read, answer in hand.
    RevisionAnswered,
    /// A `tables()` listing, before it goes out.
    ListingUnsent,
}

/// Park here if the armed latch holds at `hold`, until the test releases it.
fn park(slot: &Mutex<Option<Latch>>, hold: Hold) {
    let latch = {
        let mut armed = slot.lock().expect("latch lock");
        match armed.take() {
            Some(latch) if latch.hold == hold => latch,
            other => {
                *armed = other;
                return;
            }
        }
    };
    latch.entered.send(()).expect("the test waits for the held operation");
    latch.release.recv_timeout(HANG).expect("the test releases the held operation");
}

/// A storage backend wrapper that does not forward
/// [`codes_storage::Backend::subscribe`]: to its clients, a store that
/// cannot push.
struct CannotPush<B>(B);

impl<B: codes_storage::Backend> codes_storage::Backend for CannotPush<B> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn connect(&self) -> Result<Box<dyn Connection>, StorageError> {
        self.0.connect()
    }
}

// ---------------------------------------------------------------------
// The stack under test.
// ---------------------------------------------------------------------

fn shop(name: &str) -> Database {
    let mut db = Database::new(name);
    let events = db
        .create_table(TableSchema::new(
            "events",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("label", DataType::Text),
            ],
        ))
        .expect("fresh table");
    events.insert(vec![1.into(), "open".into()]).expect("row fits");
    events.insert(vec![2.into(), "close".into()]).expect("row fits");
    db
}

struct Stack {
    registry: Arc<Registry>,
    cache: Arc<SystemCache>,
    wire: Arc<Wire>,
    latch: Arc<Mutex<Option<Latch>>>,
    /// A second handle on the live store, for writes.
    admin: MemoryBackend,
    service: Arc<CatalogService>,
    backend: SystemBackend,
}

impl Stack {
    /// A small but real SFT system (no classifier, so the schema filter is
    /// off and a clean dispatch is undegraded) with a cache, serving one
    /// [`shop`] attached up front over a store that pushes; the wire
    /// counters start at zero after the attach.
    fn start() -> Stack {
        Stack::build(true)
    }

    /// [`Stack::start`] over a store wrapped in [`CannotPush`].
    fn start_without_push() -> Stack {
        Stack::build(false)
    }

    fn build(push: bool) -> Stack {
        let registry = Arc::new(Registry::new());
        let cache = Arc::new(SystemCache::with_registry(&registry, CacheSettings::default()));

        let sketches = Arc::new(SketchCatalog::build());
        let spec = table4_models().into_iter().find(|m| m.name == "CodeS-1B").expect("known model");
        let lm = pretrain(&sketches, &spec, &PretrainConfig { scale: 10, seed: 3 });
        let system = CodesSystem::new(
            CodesModel::new(lm, sketches),
            PromptOptions::sft().without_schema_filter(),
        )
        .with_cache(Arc::clone(&cache));

        let admin = MemoryBackend::new(vec![shop(DB)]);
        let latch: Arc<Mutex<Option<Latch>>> = Arc::default();
        let (unsent, answered) = (Arc::clone(&latch), Arc::clone(&latch));
        let counting = Hooked::new(MemoryBackend::over(admin.store()))
            .before(move |call| {
                if call.op == Op::Tables {
                    park(&unsent, Hold::ListingUnsent);
                }
                Ok(())
            })
            .after(move |call| {
                if call.op == Op::Revision {
                    park(&answered, Hold::RevisionAnswered);
                }
            });
        let wire = counting.wire();
        let store: Arc<dyn codes_storage::Backend> = match push {
            true => Arc::new(counting),
            false => Arc::new(CannotPush(counting)),
        };
        let pool = ConnectionPool::with_registry(store, PoolConfig::default(), &registry);
        let service = Arc::new(CatalogService::new(pool, IntrospectOptions::default()));
        let backend =
            SystemBackend::with_registry(Arc::new(system), Arc::clone(&service), &registry);
        assert!(service.contains(DB), "attached up front");
        wire.reset();
        Stack { registry, cache, wire, latch, admin, service, backend }
    }

    fn revisions(&self) -> u64 {
        self.wire.count(Op::Revision)
    }

    fn listings(&self) -> u64 {
        self.wire.count(Op::Tables)
    }

    /// Every operation count, in [`Op`] order, then the pipelines.
    fn traffic(&self) -> [u64; 7] {
        let ops = [Op::Execute, Op::Ping, Op::Databases, Op::Tables, Op::TableSchema, Op::Revision];
        let mut counts = [0; 7];
        for (count, op) in counts.iter_mut().zip(ops) {
            *count = self.wire.count(op);
        }
        counts[6] = self.wire.pipelines();
        counts
    }

    /// Arm the latch: the next operation `hold` names reports on the
    /// returned receiver and parks until the returned sender fires.
    fn hold_next(&self, hold: Hold) -> (Receiver<()>, Sender<()>) {
        let (entered, entered_rx) = channel();
        let (release_tx, release) = channel();
        *self.latch.lock().expect("latch lock") = Some(Latch { hold, entered, release });
        (entered_rx, release_tx)
    }

    /// One dispatch of `question`, straight into the backend as a pool
    /// worker would make it.
    fn dispatch_of(&self, db: &str, question: &str) -> BackendReply {
        self.backend
            .infer(&InferenceRequest::new(db, question), 0, &Config::default())
            .expect("a dispatch answers, degraded at worst")
    }

    fn dispatch(&self) -> BackendReply {
        self.dispatch_of(DB, PROBE)
    }

    /// A schema change on the live store that nobody invalidates: the
    /// store's own announcement is all the stack hears of it.
    fn write(&self) {
        self.create_table("tickets");
    }

    /// A write that adds no table: one more row in `events`.
    fn insert_event(&self, id: i64) {
        self.admin
            .mutate(DB, |db| {
                let events = db.table_mut("events").expect("events");
                events.insert(vec![id.into(), format!("event {id}").into()]).expect("row fits");
            })
            .expect("shop is registered");
    }

    /// The store's revision, read past the counted wire.
    fn live_revision(&self) -> u64 {
        let mut conn = codes_storage::Backend::connect(&self.admin).expect("connect");
        conn.revision(DB).expect("shop is registered")
    }

    /// The installed mirror's revision and its `events` row count.
    fn mirror(&self) -> (u64, usize) {
        let catalog = self.service.catalog(DB).expect("attached");
        let events = catalog.database.table("events").expect("events").rows.len();
        (catalog.revision, events)
    }

    fn create_table(&self, table: &str) {
        self.admin
            .mutate(DB, |db| {
                db.create_table(TableSchema::new(table, vec![Column::new("id", DataType::Integer)]))
                    .expect("fresh table");
            })
            .expect("shop is registered");
    }

    /// The value of one `codes_serve_catalog_checks_total` series, read
    /// back from the rendered exposition.
    fn checks(&self, outcome: &str) -> u64 {
        let series = format!("codes_serve_catalog_checks_total{{outcome=\"{outcome}\"}} ");
        let exposition = self.registry.render_prometheus();
        let line = exposition
            .lines()
            .find(|line| line.starts_with(&series))
            .unwrap_or_else(|| panic!("series {series}is exposed:\n{exposition}"));
        line[series.len()..].parse().expect("a counter value")
    }
}

fn sync_failed(degradations: &[String]) -> bool {
    degradations.iter().any(|d| d.contains("storage sync failed"))
}

// ---------------------------------------------------------------------
// The clauses.
// ---------------------------------------------------------------------

#[test]
fn dispatches_with_no_write_read_no_revision() {
    let stack = Stack::start();
    let checkouts = stack.service.pool().stats().checkouts;
    for _ in 0..25 {
        stack.dispatch();
    }
    assert_eq!(stack.traffic(), [0; 7], "nothing was announced, nothing crossed the wire");
    assert_eq!(stack.service.pool().stats().checkouts, checkouts, "nor checked a connection out");
    assert_eq!(stack.cache.stats().invalidations, 0);
    assert_eq!((stack.checks("current"), stack.checks("unchanged")), (25, 0));
}

/// The fallback is the read, not a timer: every dispatch asks the store.
#[test]
fn a_backend_that_cannot_push_is_synced_on_every_dispatch() {
    let stack = Stack::start_without_push();
    for _ in 0..5 {
        stack.dispatch();
    }
    assert_eq!(stack.revisions(), 5, "one revision read per dispatch");
    assert_eq!((stack.checks("current"), stack.checks("unchanged")), (0, 5));

    // Unheard, the write is found by the next dispatch's own read.
    stack.write();
    assert_eq!(stack.cache.generation(DB), 0, "nobody told the cache");
    let fresh = stack.dispatch();
    assert!(fresh.sql.contains("tickets"), "the read found the write: {}", fresh.sql);
    assert_eq!(stack.cache.generation(DB), 1, "the refresh observed the revision");
    assert_eq!((stack.revisions(), stack.listings()), (5 + SYNC_REFRESH_READS, 1));
    assert_eq!(stack.wire.standalone(), 5 + 1, "each dispatch's own read");
}

/// Item 3's bug, fixed: a write nobody invalidates is served by the very
/// next dispatch, and costs that dispatch exactly the refresh's pipelines:
/// the announced revision is the refresh's opening read.
#[test]
fn an_announced_write_is_served_by_the_next_dispatch() {
    let stack = Stack::start();
    assert!(stack.dispatch().sql.contains("events"), "the attach-time mirror has no tickets");
    stack.write();
    assert_eq!(stack.cache.generation(DB), 1, "the announcement bumped before mutate returned");
    assert_eq!(stack.traffic(), [0; 7], "and asked the store nothing");

    let fresh = stack.dispatch();
    assert!(fresh.sql.contains("tickets"), "the post-write mirror ({})", fresh.sql);
    assert!(fresh.degradations.is_empty(), "{:?}", fresh.degradations);
    // The pipeline the replaced mirror predicts (listing, the schema and
    // rows of `events`, revision); the pipeline for the new table (its
    // schema and rows, revision). Nothing outside them.
    assert_eq!(stack.traffic(), [2, 0, 0, 1, 2, DISPATCH_REFRESH_READS, 2]);
    assert_eq!(stack.wire.standalone(), 0, "two round trips");
    assert_eq!(stack.cache.generation(DB), 1, "the refresh's commit found nothing new");

    stack.dispatch();
    assert_eq!(stack.traffic()[5], DISPATCH_REFRESH_READS, "the refreshed mirror is current");
    assert_eq!(
        (stack.checks("current"), stack.checks("refreshed"), stack.checks("unchanged")),
        (2, 1, 0)
    );
}

/// A write that adds no table costs the next dispatch one round trip: the
/// pipeline the replaced mirror predicts, closed by the read that brackets
/// it. The announced revision is its `before`, so no read goes out alone.
#[test]
fn a_one_row_write_costs_the_next_dispatch_one_pipeline() {
    let stack = Stack::start();
    stack.dispatch();
    stack.insert_event(3);
    let fresh = stack.dispatch();
    assert!(fresh.degradations.is_empty(), "{:?}", fresh.degradations);
    // Listing, the schema and rows of `events`, revision.
    assert_eq!(stack.traffic(), [1, 0, 0, 1, 1, 1, 1]);
    assert_eq!(stack.wire.standalone(), 0, "one round trip");
    assert_eq!(stack.mirror(), (stack.live_revision(), 3), "the mirror is the written store");
    assert_eq!(stack.cache.generation(DB), 1, "the announcement's one bump");
    assert_eq!((stack.checks("current"), stack.checks("refreshed")), (1, 1));
}

/// A write that lands after the announcement a dispatch acts on, before
/// its pipeline goes out, fails that pipeline's bracket: the pass is
/// retried once, with its own opening read, and the mirror and the cache
/// end at the newest revision.
#[test]
fn a_write_after_the_announcement_costs_one_retried_pass() {
    let stack = Stack::start();
    stack.insert_event(3);
    let (entered, release) = stack.hold_next(Hold::ListingUnsent);
    let d1 = std::thread::scope(|scope| {
        let d1 = scope.spawn(|| stack.dispatch());
        entered.recv_timeout(HANG).expect("D1 is about to send its pipeline");
        stack.insert_event(4);
        release.send(()).expect("D1 is parked on the latch");
        d1.join().expect("D1 answered")
    });
    assert!(d1.degradations.is_empty(), "{:?}", d1.degradations);
    // The pass on the announced revision: listing, `events`, revision —
    // which saw the second write. The retry: revision, listing, `events`,
    // revision.
    assert_eq!(stack.traffic(), [2, 0, 0, 2, 2, 3, 2]);
    assert_eq!(stack.wire.standalone(), 0, "two round trips, one per pass");

    let newest = stack.live_revision();
    assert_eq!(stack.mirror(), (newest, 4), "the mirror is the newest store");
    let generation = stack.cache.generation(DB);
    assert_eq!(generation, 2, "one bump per announced write; the refresh commits none");
    assert_eq!(
        stack.cache.observe_revision_token(DB, newest),
        generation,
        "the cache last saw the newest revision: observing it again bumps nothing"
    );
    stack.dispatch();
    assert_eq!(stack.traffic()[6], 2, "the next dispatch finds its mirror current");
    assert_eq!((stack.checks("current"), stack.checks("refreshed")), (1, 1));
}

#[test]
fn an_invalidation_without_a_write_reads_nothing() {
    let stack = Stack::start();
    stack.dispatch();
    stack.cache.invalidate_database(DB);
    stack.dispatch();
    assert_eq!(stack.revisions(), 0, "an invalidation is not a commit");

    // Written and invalidated: two bumps (the announcement, the
    // invalidation) and one listing; the nine behind it ask nothing.
    stack.write();
    stack.cache.invalidate_database(DB);
    let after = stack.dispatch();
    assert!(after.sql.contains("tickets"), "the post-write mirror answers: {}", after.sql);
    assert_eq!((stack.cache.generation(DB), stack.listings()), (3, 1));
    let checkouts = stack.service.pool().stats().checkouts;
    for _ in 0..9 {
        stack.dispatch();
    }
    assert_eq!(stack.service.pool().stats().checkouts, checkouts, "the nine behind it: current");
    assert_eq!(stack.revisions(), DISPATCH_REFRESH_READS);
}

#[test]
fn a_refresh_by_anyone_else_leaves_nothing_to_check() {
    let stack = Stack::start();
    stack.dispatch();
    stack.write();
    let outcome = stack.service.sync(DB).expect("healthy store");
    assert!(matches!(outcome, SyncOutcome::Refreshed { .. }), "{outcome:?}");
    assert_eq!(stack.revisions(), SYNC_REFRESH_READS, "their refresh");

    // What they installed is the revision the store announced.
    let after = stack.dispatch();
    assert_eq!(stack.revisions(), SYNC_REFRESH_READS, "the next dispatch asks nothing");
    assert!(after.sql.contains("tickets"), "and serves what they installed: {}", after.sql);
    assert_eq!(stack.cache.generation(DB), 1, "the announcement's one bump");
    assert_eq!((stack.checks("current"), stack.checks("refreshed")), (2, 0));
}

#[test]
fn a_severed_store_is_seen_by_the_first_dispatch_after_a_write() {
    let stack = Stack::start();
    let Stack { registry, cache, admin, service, backend, .. } = stack;
    let config =
        ServeConfig { workers: 1, cache: Some(Arc::clone(&cache)), ..ServeConfig::default() };
    let pool = Pool::start_with_registry(backend, config, registry);
    let ask = |question: &str| {
        pool.submit(InferenceRequest::new(DB, question))
            .expect("admitted")
            .wait_timeout(HANG)
            .expect("resolved")
            .expect("answered, degraded at worst")
    };

    ask("how many events are there");
    service.pool().close();

    // With nothing written the installed catalog is the store's: the
    // dispatch never asks the severed store, and its clean answer is
    // admitted to the result cache like any other.
    let clean = ask("list the label of all events");
    assert!(clean.degradations.is_empty(), "nothing to check: {:?}", clean.degradations);
    assert!(ask("list the label of all events").cached, "the clean answer was admitted");

    // A write makes the installed catalog stale: the check runs and fails,
    // the stale catalog serves with the note, and since the announced
    // revision still differs, the next dispatch tries again.
    admin
        .mutate(DB, |db| {
            db.table_mut("events").expect("events").insert(vec![3.into(), "late".into()])
        })
        .expect("shop is registered")
        .expect("row fits");
    for question in ["count the events", "show every event id"] {
        let stale = ask(question);
        assert!(sync_failed(&stale.degradations), "{question}: {:?}", stale.degradations);
        assert!(!ask(question).cached, "a degraded answer is never admitted");
    }
    assert!(!ask("list the label of all events").cached, "the write put the old answer away");
    pool.shutdown();
}

/// A write is never lost to a race. An announced write sends D1 to the
/// store; the read closing its refresh's first pipeline is held with the
/// answer in hand while a second write lands and is invalidated. Whatever
/// D1 installs, D2 — submitted after the second write returned — serves
/// it.
#[test]
fn an_invalidation_landing_mid_read_is_not_lost() {
    let stack = Stack::start();
    stack.write();
    let (entered, release) = stack.hold_next(Hold::RevisionAnswered);
    let d1 = std::thread::scope(|scope| {
        let d1 = scope.spawn(|| stack.dispatch());
        entered.recv_timeout(HANG).expect("D1 reached its revision read");
        stack.create_table("refunds");
        stack.cache.invalidate_database(DB);
        release.send(()).expect("D1 is parked on the latch");
        d1.join().expect("D1 answered")
    });
    assert!(d1.sql.contains("tickets"), "D1 serves at least the first write: {}", d1.sql);
    assert!(d1.degradations.is_empty(), "{:?}", d1.degradations);

    let d2 = stack.dispatch_of(DB, "How many refunds are there?");
    assert!(d2.sql.contains("refunds"), "D2 serves the second write: {}", d2.sql);
    assert!(stack.cache.generation(DB) >= 3, "two announcements and the invalidation");
}

/// The operator's view: every way `catalog_for` can settle a dispatch is
/// one series of one family, and a run with no write shows storage
/// leaving the hot path.
#[test]
fn catalog_checks_are_counted_by_outcome() {
    let stack = Stack::start();
    // 25 dispatches with nothing written.
    for _ in 0..25 {
        stack.dispatch();
    }
    // A write, its invalidation, the dispatch behind it, nine more.
    stack.write();
    stack.cache.invalidate_database(DB);
    for _ in 0..10 {
        stack.dispatch();
    }
    // A database that reached the store after start-up: its first dispatch
    // attaches it, the second takes what it attached.
    stack.admin.insert_database(shop("late"));
    stack.dispatch_of("late", PROBE);
    stack.dispatch_of("late", PROBE);
    // The store severed, then written: a failed check, twice.
    stack.service.pool().close();
    stack.create_table("refunds");
    assert!(sync_failed(&stack.dispatch().degradations));
    assert!(sync_failed(&stack.dispatch().degradations));

    let counts: Vec<u64> = ["current", "unchanged", "refreshed", "attached", "failed"]
        .into_iter()
        .map(|outcome| stack.checks(outcome))
        .collect();
    assert_eq!(counts, [25 + 9 + 1, 0, 1, 1, 2]);
    assert_eq!(
        stack.revisions(),
        DISPATCH_REFRESH_READS + ATTACH_READS,
        "37 healthy dispatches: a refresh and an attach"
    );
}
