//! The revision lease, clause by clause (DESIGN.md §4k): a [`SystemBackend`]
//! over a storage backend that counts its wire operations, its cache on a
//! manual clock. Nothing here reads the wall clock or sleeps — time moves
//! when a test advances it, and the one forced interleaving is held by a
//! latch (its bounded waits only turn a hang into a failure).

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use codes::{
    pretrain, table4_models, CacheSettings, CodesModel, CodesSystem, Config, PretrainConfig,
    PromptOptions, SketchCatalog, SystemCache, REVISION_LEASE,
};
use codes_obs::{Clock, Registry};
use codes_serve::{Backend, BackendReply, InferenceRequest, Pool, ServeConfig, SystemBackend};
use codes_storage::testing::{Hooked, Op, Wire};
use codes_storage::{
    CatalogService, ConnectionPool, IntrospectOptions, MemoryBackend, PoolConfig, SyncOutcome,
};
use sqlengine::{Column, DataType, Database, TableSchema};

const DB: &str = "shop";
/// Answered `… FROM events` off the attach-time mirror and `… FROM tickets`
/// off a mirror that has seen [`Stack::write`]: which catalog a dispatch
/// was handed is read off its SQL.
const PROBE: &str = "How many tickets are there?";
/// What a refresh after [`Stack::write`] adds to the `revision()` count:
/// the sync's read that saw the store move, the one closing the pipeline
/// the mirror it replaces predicts, and the one closing the pipeline that
/// asks for the new table (DESIGN.md §4k).
const REFRESH_READS: u64 = 3;
/// What an attach adds: its opening read, and the one closing the pipeline
/// that follows the listing.
const ATTACH_READS: u64 = 2;
/// Releases a held `revision()` or fails the test, never hangs it.
const HANG: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------
// A latch that holds one `revision()` read, answer in hand, until the test
// lets it return; the store under the stack counts what crosses the wire.
// ---------------------------------------------------------------------

struct Latch {
    entered: Sender<()>,
    release: Receiver<()>,
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
    clock: Clock,
    /// `None`: the system has no cache attached, so no lease exists.
    cache: Option<Arc<SystemCache>>,
    wire: Arc<Wire>,
    latch: Arc<Mutex<Option<Latch>>>,
    /// A second handle on the live store, for writes.
    admin: MemoryBackend,
    service: Arc<CatalogService>,
    backend: SystemBackend,
}

impl Stack {
    /// A small but real SFT system (no classifier, so the schema filter is
    /// off and a clean dispatch is undegraded) serving one [`shop`], attached
    /// up front; the wire counters start at zero after the attach.
    fn start(with_cache: bool) -> Stack {
        let registry = Arc::new(Registry::new());
        let clock = Clock::manual();
        let cache = with_cache.then(|| {
            Arc::new(SystemCache::with_clock(&registry, CacheSettings::default(), clock.clone()))
        });

        let sketches = Arc::new(SketchCatalog::build());
        let spec = table4_models().into_iter().find(|m| m.name == "CodeS-1B").expect("known model");
        let lm = pretrain(&sketches, &spec, &PretrainConfig { scale: 10, seed: 3 });
        let system = CodesSystem::new(
            CodesModel::new(lm, sketches),
            PromptOptions::sft().without_schema_filter(),
        );
        let system = match &cache {
            Some(cache) => system.with_cache(Arc::clone(cache)),
            None => system,
        };

        let admin = MemoryBackend::new(vec![shop(DB)]);
        let latch: Arc<Mutex<Option<Latch>>> = Arc::default();
        let held = Arc::clone(&latch);
        let counting = Hooked::new(MemoryBackend::over(admin.store())).after(move |call| {
            if call.op != Op::Revision {
                return;
            }
            let latch = held.lock().expect("latch lock").take();
            if let Some(latch) = latch {
                latch.entered.send(()).expect("the test waits for the held read");
                latch.release.recv_timeout(HANG).expect("the test releases the held read");
            }
        });
        let wire = counting.wire();
        let pool =
            ConnectionPool::with_registry(Arc::new(counting), PoolConfig::default(), &registry);
        let service = Arc::new(CatalogService::new(pool, IntrospectOptions::default()));
        let backend =
            SystemBackend::with_registry(Arc::new(system), Arc::clone(&service), &registry);
        assert!(service.contains(DB), "attached up front");
        wire.reset();
        Stack { registry, clock, cache, wire, latch, admin, service, backend }
    }

    fn revisions(&self) -> u64 {
        self.wire.count(Op::Revision)
    }

    fn listings(&self) -> u64 {
        self.wire.count(Op::Tables)
    }

    /// Arm the latch: the next `revision()` reads its answer, reports on
    /// the returned receiver and parks until the returned sender fires.
    fn hold_next_revision(&self) -> (Receiver<()>, Sender<()>) {
        let (entered, entered_rx) = channel();
        let (release_tx, release) = channel();
        *self.latch.lock().expect("latch lock") = Some(Latch { entered, release });
        (entered_rx, release_tx)
    }

    fn cache(&self) -> &Arc<SystemCache> {
        self.cache.as_ref().expect("a stack started with a cache")
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

    /// A schema change on the live store, unannounced: nobody invalidates.
    fn write(&self) {
        self.admin
            .mutate(DB, |db| {
                db.create_table(TableSchema::new(
                    "tickets",
                    vec![Column::new("id", DataType::Integer)],
                ))
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
fn one_revision_read_vouches_for_every_dispatch_inside_the_lease() {
    let stack = Stack::start(true);
    for _ in 0..25 {
        stack.dispatch();
    }
    assert_eq!(stack.revisions(), 1, "the clock stood still: one read, 24 leased dispatches");

    stack.clock.advance(REVISION_LEASE - Duration::from_nanos(1));
    stack.dispatch();
    assert_eq!(stack.revisions(), 1, "a nanosecond short of the lease's end it still holds");

    stack.clock.advance(Duration::from_nanos(1));
    for _ in 0..25 {
        stack.dispatch();
    }
    assert_eq!(stack.revisions(), 2, "at REVISION_LEASE exactly one more read, leased again");
    assert_eq!(stack.listings(), 0, "nothing changed, nothing was re-introspected");
    assert_eq!(stack.cache().stats().invalidations, 0);
    assert_eq!((stack.checks("unchanged"), stack.checks("leased")), (2, 49));
}

#[test]
fn without_a_cache_every_dispatch_reads_the_revision() {
    let stack = Stack::start(false);
    for _ in 0..5 {
        stack.dispatch();
    }
    assert_eq!(stack.revisions(), 5, "no generation to qualify, so no lease");
    assert_eq!((stack.checks("unchanged"), stack.checks("leased")), (5, 0));
}

/// The documented staleness bound, asserted rather than hidden: a write
/// nobody announces is invisible until the lease runs out.
#[test]
fn an_unannounced_write_is_served_stale_inside_the_lease_and_refreshed_after_it() {
    let stack = Stack::start(true);
    assert!(stack.dispatch().sql.contains("events"), "the attach-time mirror has no tickets");
    stack.write();

    stack.clock.advance(REVISION_LEASE - Duration::from_nanos(1));
    let stale = stack.dispatch();
    assert!(stale.sql.contains("events"), "inside the lease: the pre-write mirror ({})", stale.sql);
    assert!(stale.degradations.is_empty(), "and nothing says so: {:?}", stale.degradations);
    assert_eq!((stack.revisions(), stack.cache().generation(DB)), (1, 0));

    stack.clock.advance(Duration::from_nanos(1));
    let fresh = stack.dispatch();
    assert!(fresh.sql.contains("tickets"), "after it: the post-write mirror ({})", fresh.sql);
    assert_eq!(stack.cache().generation(DB), 1, "one revision change, one bump");
    assert_eq!((stack.revisions(), stack.listings()), (1 + REFRESH_READS, 1));

    // The dispatch that refreshed confirmed the generation its own refresh
    // produced: the request behind it pays no second read.
    stack.dispatch();
    assert_eq!(
        stack.revisions(),
        1 + REFRESH_READS,
        "a refreshing dispatch leaves the lease live"
    );
    assert_eq!((stack.checks("refreshed"), stack.checks("leased")), (1, 2));
}

#[test]
fn an_invalidation_ends_the_lease_at_once() {
    let stack = Stack::start(true);
    stack.dispatch();
    stack.dispatch();
    assert_eq!(stack.revisions(), 1);

    // Announced with nothing written: the next dispatch checks, finds the
    // store unchanged, and that check vouches for the new generation.
    stack.cache().invalidate_database(DB);
    stack.dispatch();
    stack.dispatch();
    assert_eq!(stack.revisions(), 2, "one read after the bump, the clock standing still");

    // Written and announced: the dispatch behind it serves the write, for
    // two bumps (the announcement, the observed revision) and one listing.
    stack.write();
    stack.cache().invalidate_database(DB);
    let after = stack.dispatch();
    assert!(after.sql.contains("tickets"), "the post-write mirror answers: {}", after.sql);
    assert_eq!((stack.cache().generation(DB), stack.listings()), (3, 1));
    let checkouts = stack.service.pool().stats().checkouts;
    for _ in 0..9 {
        stack.dispatch();
    }
    assert_eq!(stack.service.pool().stats().checkouts, checkouts, "the nine behind it: leased");
    assert_eq!(stack.revisions(), 2 + REFRESH_READS);
}

#[test]
fn a_refresh_by_anyone_else_ends_the_lease() {
    let stack = Stack::start(true);
    stack.dispatch();
    stack.write();
    let outcome = stack.service.sync(DB).expect("healthy store");
    assert!(matches!(outcome, SyncOutcome::Refreshed { .. }), "{outcome:?}");
    assert_eq!(stack.revisions(), 1 + REFRESH_READS, "the dispatch's read, their refresh");

    // Their refresh bumped the generation through the revision observer;
    // the lease confirmed for the old one is dead though no time passed.
    let after = stack.dispatch();
    assert_eq!(stack.revisions(), 2 + REFRESH_READS, "the next dispatch checks for itself");
    assert!(after.sql.contains("tickets"), "and serves what they installed: {}", after.sql);
    assert_eq!(stack.cache().generation(DB), 1, "their one bump; the re-check found no more");
    assert_eq!((stack.checks("unchanged"), stack.checks("refreshed")), (2, 0));
}

#[test]
fn a_severed_store_is_not_seen_inside_the_lease_and_never_confirms_one() {
    let stack = Stack::start(true);
    let Stack { registry, clock, service, backend, .. } = stack;
    let cache = stack.cache.expect("started with a cache");
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

    // Inside the lease the dispatch never touches the severed store: a
    // clean answer, admitted to the result cache like any other.
    let clean = ask("list the label of all events");
    assert!(clean.degradations.is_empty(), "a blip inside the lease: {:?}", clean.degradations);
    assert!(ask("list the label of all events").cached, "the clean answer was admitted");

    // Outside it the check runs and fails: stale-serve with the note, and
    // a failed sync confirms nothing, so the next dispatch tries again.
    clock.advance(REVISION_LEASE);
    for question in ["count the events", "show every event id"] {
        let stale = ask(question);
        assert!(sync_failed(&stale.degradations), "{question}: {:?}", stale.degradations);
        assert!(!ask(question).cached, "a degraded answer is never admitted");
    }
    pool.shutdown();
}

/// An invalidation is never lost to a race. D1's revision read is held
/// with its pre-write answer in hand; the writer writes and invalidates;
/// D1 returns, finds "unchanged" and confirms. Confirming whatever
/// generation is current *then* would resurrect the lease and let D2 skip
/// the check the writer asked for; confirming the generation D1 read
/// *before* its revision read leaves the lease dead.
#[test]
fn an_invalidation_landing_mid_read_is_not_lost() {
    let stack = Stack::start(true);
    let (entered, release) = stack.hold_next_revision();
    let d1 = std::thread::scope(|scope| {
        let d1 = scope.spawn(|| stack.dispatch());
        entered.recv_timeout(HANG).expect("D1 reached its revision read");
        stack.write();
        stack.cache().invalidate_database(DB);
        release.send(()).expect("D1 is parked on the latch");
        d1.join().expect("D1 answered")
    });
    assert!(d1.sql.contains("events"), "D1 read the pre-write revision: {}", d1.sql);
    assert_eq!((stack.revisions(), stack.cache().generation(DB)), (1, 1));

    let d2 = stack.dispatch();
    assert_eq!(
        stack.revisions(),
        1 + REFRESH_READS,
        "D2 makes the check the writer asked for"
    );
    assert!(d2.sql.contains("tickets"), "and serves the write: {}", d2.sql);
    assert_eq!(stack.cache().generation(DB), 2, "the invalidation, then the observed revision");
}

/// The operator's view: every way `catalog_for` can settle a dispatch is
/// one series of one family, and a leased run shows the read leaving the
/// hot path.
#[test]
fn catalog_checks_are_counted_by_outcome() {
    let stack = Stack::start(true);
    // Clause (i): 25 dispatches on a still clock.
    for _ in 0..25 {
        stack.dispatch();
    }
    // Clause (ii): a write, its invalidation, the dispatch behind it, nine more.
    stack.write();
    stack.cache().invalidate_database(DB);
    for _ in 0..10 {
        stack.dispatch();
    }
    // A database that reached the store after start-up: its first dispatch
    // attaches it, the second is leased.
    stack.admin.insert_database(shop("late"));
    stack.dispatch_of("late", PROBE);
    stack.dispatch_of("late", PROBE);
    // The store severed, the lease run out: a failed check, twice.
    stack.service.pool().close();
    stack.clock.advance(REVISION_LEASE);
    assert!(sync_failed(&stack.dispatch().degradations));
    assert!(sync_failed(&stack.dispatch().degradations));

    let counts: Vec<u64> = ["leased", "unchanged", "refreshed", "attached", "failed"]
        .into_iter()
        .map(|outcome| stack.checks(outcome))
        .collect();
    assert_eq!(counts, [24 + 9 + 1, 1, 1, 1, 2]);
    assert_eq!(
        stack.revisions(),
        1 + REFRESH_READS + ATTACH_READS,
        "37 healthy dispatches: three checks"
    );
}
