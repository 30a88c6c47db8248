//! A refresh's derived state is built from a mirror whose revision bracket
//! held, and committed beside the catalog it was built from.
//!
//! The revision observer has two halves (DESIGN.md §4k): the build derives
//! the value index and schema profile from the harvested mirror, the commit
//! installs them, reconciles the cache and runs under the database's
//! refresh lock. The observer here builds and commits through
//! `CodesSystem::{build_database, commit_database}` as `SystemBackend`'s
//! does, recording each half. Interleavings are forced with latches on the
//! wire and in the observer; a bounded wait only turns a hang into a
//! failure, except where a comment says what else it does.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;

use codes::{
    pretrain, table4_models, CacheSettings, CodesModel, CodesSystem, Config, InferenceRequest,
    PretrainConfig, PromptOptions, SketchCatalog, SystemCache,
};
use codes_linker::{LogReg, SchemaClassifier, SchemaProfile};
use codes_obs::Registry;
use codes_retrieval::ValueIndex;
use codes_serve::{Backend, SystemBackend};
use codes_storage::testing::{Call, Hooked, Op};
use codes_storage::{
    CatalogService, Connection, ConnectionPool, IntrospectOptions, MemoryBackend, PoolConfig,
    StorageError, SyncOutcome,
};
use sqlengine::{Column, DataType, Database, TableSchema};

const DB: &str = "shop";
const HANG: Duration = Duration::from_secs(20);

/// A counter threads can wait on, up to [`HANG`].
#[derive(Default)]
struct Gate {
    count: Mutex<u64>,
    moved: Condvar,
}

impl Gate {
    fn arrive(&self) {
        *self.count.lock().expect("gate lock") += 1;
        self.moved.notify_all();
    }

    fn wait_for(&self, target: u64, within: Duration) -> bool {
        let count = self.count.lock().expect("gate lock");
        let (_count, waited) = self
            .moved
            .wait_timeout_while(count, within, |count| *count < target)
            .expect("gate lock");
        !waited.timed_out()
    }
}

fn shop() -> Database {
    let mut db = Database::new(DB);
    for table in ["events", "people", "places"] {
        let t = db
            .create_table(TableSchema::new(
                table,
                vec![
                    Column::new("id", DataType::Integer).primary_key(),
                    Column::new("label", DataType::Text),
                ],
            ))
            .expect("fresh table");
        t.insert(vec![1.into(), format!("{table} one").into()]).expect("row fits");
    }
    db
}

fn write(admin: &MemoryBackend, id: i64) {
    admin
        .mutate(DB, |db| {
            let events = db.table_mut("events").expect("events");
            events.insert(vec![id.into(), format!("written {id}").into()]).expect("row fits");
        })
        .expect("shop is registered");
}

fn live_revision(admin: &MemoryBackend) -> u64 {
    let mut conn = codes_storage::Backend::connect(admin).expect("connect");
    conn.revision(DB).expect("revision")
}

type Before = Box<dyn Fn(&Call<'_>) -> Result<(), StorageError> + Send + Sync>;
type After = Box<dyn Fn(&Call<'_>) + Send + Sync>;

struct Stack {
    system: Arc<CodesSystem>,
    cache: Arc<SystemCache>,
    admin: MemoryBackend,
    service: Arc<CatalogService>,
    backend: SystemBackend,
}

impl Stack {
    /// A small real system — schema filter on, so every build has a
    /// profile — with a cache, serving [`shop`] from a hooked store, attached
    /// up front. An `unpipelined` store runs a pipeline's requests one at a
    /// time, hooks between them.
    fn start(before: Before, after: After, unpipelined: bool) -> Stack {
        let sketches = Arc::new(SketchCatalog::build());
        let spec = table4_models().into_iter().find(|m| m.name == "CodeS-1B").expect("known model");
        let lm = pretrain(&sketches, &spec, &PretrainConfig { scale: 10, seed: 3 });
        let registry = Registry::new();
        let cache = Arc::new(SystemCache::with_registry(&registry, CacheSettings::default()));
        let system = Arc::new(
            CodesSystem::new(CodesModel::new(lm, sketches), PromptOptions::sft())
                .with_classifier(SchemaClassifier::new(LogReg::new(8), LogReg::new(10), false))
                .with_cache(Arc::clone(&cache)),
        );
        let admin = MemoryBackend::new(vec![shop()]);
        let mut hooked =
            Hooked::new(MemoryBackend::over(admin.store())).before(before).after(after);
        if unpipelined {
            hooked = hooked.unpipelined();
        }
        let pool =
            ConnectionPool::with_registry(Arc::new(hooked), PoolConfig::default(), &registry);
        let service = Arc::new(CatalogService::new(pool, IntrospectOptions::default()));
        let backend =
            SystemBackend::with_registry(Arc::clone(&system), Arc::clone(&service), &registry);
        assert!(service.contains(DB), "attached up front");
        Stack { system, cache, admin, service, backend }
    }

    /// Replace the observer with one that builds and commits as
    /// `SystemBackend`'s does, calling `built` once a build has returned
    /// and `committing` before a commit installs anything.
    fn observe(
        &self,
        built: impl Fn(u64) + Send + Sync + 'static,
        committing: impl Fn(u64) + Send + Sync + 'static,
    ) -> Arc<Observed> {
        let observed = Arc::new(Observed::default());
        let (system, log) = (Arc::clone(&self.system), Arc::clone(&observed));
        let committing = Arc::new(committing);
        self.service.set_revision_observer(Box::new(move |db| {
            let prepared = system.build_database(db);
            let revision = prepared.revision();
            let profile = prepared.profile().expect("the schema filter is on");
            log.builds.lock().expect("log lock").push(Build {
                revision,
                index: Arc::downgrade(prepared.index()),
                profile: Arc::downgrade(profile),
            });
            built(revision);
            let (system, log, committing) =
                (Arc::clone(&system), Arc::clone(&log), Arc::clone(&committing));
            Box::new(move || {
                committing(revision);
                system.commit_database(prepared);
                log.commits.lock().expect("log lock").push(revision);
            })
        }));
        observed
    }

    fn revision(&self) -> u64 {
        self.service.catalog(DB).expect("attached").revision
    }

    /// The installed catalog, the held index and profile, and the cache's
    /// last-seen revision all describe one revision.
    fn assert_consistent(&self) {
        let catalog = self.service.catalog(DB).expect("attached");
        let index = Arc::clone(&self.system.value_index_snapshot()[DB]);
        assert_eq!(index.built_revision(), catalog.revision, "the index is the catalog's");
        let classifier = self.system.classifier.as_ref().expect("classifier attached");
        // The held profile when it is current for this catalog, a fresh
        // one otherwise: equal revisions say nothing, identity does.
        let held = classifier.build_profile(&catalog.database);
        assert_eq!(held.revision(), catalog.revision);
        assert!(
            Arc::ptr_eq(&held, &classifier.profile(&catalog.database)),
            "the profile held is the catalog's"
        );
        let generation = self.cache.generation(DB);
        assert_eq!(
            self.cache.observe_revision_token(DB, catalog.revision),
            generation,
            "the cache last saw the catalog's revision: observing it again bumps nothing"
        );
    }
}

struct Build {
    revision: u64,
    index: Weak<ValueIndex>,
    profile: Weak<SchemaProfile>,
}

#[derive(Default)]
struct Observed {
    builds: Mutex<Vec<Build>>,
    commits: Mutex<Vec<u64>>,
}

impl Observed {
    fn commits(&self) -> Vec<u64> {
        self.commits.lock().expect("log lock").clone()
    }
}

/// A hook that counts `revision()` reads once armed, and runs `on(n)` on
/// the `n`th.
struct RevisionReads {
    armed: AtomicBool,
    seen: AtomicU64,
}

impl RevisionReads {
    fn new() -> Arc<RevisionReads> {
        Arc::new(RevisionReads { armed: AtomicBool::new(false), seen: AtomicU64::new(0) })
    }

    fn arm(&self) {
        self.seen.store(0, Ordering::SeqCst);
        self.armed.store(true, Ordering::SeqCst);
    }

    /// The ordinal of this read since arming, if armed and it is one.
    fn count(&self, call: &Call<'_>) -> Option<u64> {
        (self.armed.load(Ordering::SeqCst) && call.op == Op::Revision)
            .then(|| self.seen.fetch_add(1, Ordering::SeqCst) + 1)
    }
}

/// A store that does not pipeline answers the refresh's requests one at a
/// time, and a write lands between two of them: after the listing and the
/// first schema, before the first table's rows. The closing revision read
/// sees it, the pass is discarded and retried, and the retry is committed
/// once, for the revision installed; the cache generation moves once per
/// announced write and never for the commit, and the discarded pass built
/// nothing that could stay resident.
#[test]
fn a_write_between_two_requests_of_a_pipeline_retries_and_commits_once() {
    let armed = Arc::new(AtomicBool::new(false));
    let writes = Arc::new(Mutex::new(None::<MemoryBackend>));
    let (on, writer) = (Arc::clone(&armed), Arc::clone(&writes));
    let stack = Stack::start(
        Box::new(move |call| {
            if call.op == Op::Execute && on.swap(false, Ordering::SeqCst) {
                if let Some(admin) = writer.lock().expect("writer lock").take() {
                    write(&admin, 200);
                }
            }
            Ok(())
        }),
        Box::new(|_| {}),
        true,
    );
    *writes.lock().expect("writer lock") = Some(MemoryBackend::over(stack.admin.store()));
    let observed = stack.observe(|_| {}, |_| {});
    let from = stack.revision();
    let generation = stack.cache.generation(DB);

    write(&stack.admin, 100);
    let written = live_revision(&stack.admin);
    armed.store(true, Ordering::SeqCst);
    let outcome = stack.service.sync(DB).expect("the retry is quiet");
    let to = stack.revision();
    assert_eq!(outcome, SyncOutcome::Refreshed { from, to });
    assert_ne!(to, written, "the retry installed the write made mid-pipeline");
    assert!(!armed.load(Ordering::SeqCst), "the write was made");

    let builds = std::mem::take(&mut *observed.builds.lock().expect("log lock"));
    let revisions: Vec<u64> = builds.iter().map(|build| build.revision).collect();
    assert_eq!(revisions, vec![to], "only the pass whose bracket held built anything");
    assert_eq!(observed.commits(), vec![to], "one commit, for the installed revision");
    assert_eq!(
        stack.cache.generation(DB),
        generation + 2,
        "one bump per announced write; the retried refresh commits none"
    );
    let index = builds[0].index.upgrade().expect("the committed index is held");
    assert!(builds[0].profile.upgrade().is_some(), "the committed profile is held");
    assert!(Arc::ptr_eq(&index, &stack.system.value_index_snapshot()[DB]));
    stack.assert_consistent();
}

/// A write lands as the closing read goes out: that pass's bracket fails
/// and it retries. The failed pass builds nothing; the passing one is
/// committed once, for the revision installed, and the cache generation
/// moves once per announced write and never for the commit.
#[test]
fn a_write_at_the_closing_read_retries_and_commits_once() {
    let reads = RevisionReads::new();
    let writes = Arc::new(Mutex::new(None::<MemoryBackend>));
    let (counting, writer) = (Arc::clone(&reads), Arc::clone(&writes));
    let stack = Stack::start(
        Box::new(move |call| {
            if counting.count(call) == Some(2) {
                let admin = writer.lock().expect("writer lock").take();
                if let Some(admin) = admin {
                    write(&admin, 200);
                }
            }
            Ok(())
        }),
        Box::new(|_| {}),
        false,
    );
    *writes.lock().expect("writer lock") = Some(MemoryBackend::over(stack.admin.store()));
    let observed = stack.observe(|_| {}, |_| {});
    let from = stack.revision();
    let generation = stack.cache.generation(DB);

    write(&stack.admin, 100);
    let written = live_revision(&stack.admin);
    reads.arm();
    let outcome = stack.service.sync(DB).expect("the retry is quiet");
    let to = stack.revision();
    assert_eq!(outcome, SyncOutcome::Refreshed { from, to });
    assert_ne!(to, written, "the retry installed the second write");
    assert_eq!(reads.seen.load(Ordering::SeqCst), 4, "two brackets");

    let builds = std::mem::take(&mut *observed.builds.lock().expect("log lock"));
    let revisions: Vec<u64> = builds.iter().map(|build| build.revision).collect();
    assert_eq!(revisions, vec![to], "a build for the pass whose bracket held, none for the other");
    assert_eq!(observed.commits(), vec![to], "one commit, for the installed revision");
    assert_eq!(
        stack.cache.generation(DB),
        generation + 2,
        "one bump per announced write; the retried refresh commits none"
    );

    let index = builds[0].index.upgrade().expect("the committed index is held");
    assert!(builds[0].profile.upgrade().is_some(), "the committed profile is held");
    assert!(Arc::ptr_eq(&index, &stack.system.value_index_snapshot()[DB]));
    stack.assert_consistent();

    let request = InferenceRequest::new(DB, "How many events are there?");
    let reply = stack.backend.infer(&request, 0, &Config::default()).expect("answers");
    assert!(reply.degradations.is_empty(), "{:?}", reply.degradations);
}

/// A re-attach harvests without the refresh lock. Parked in its build, it
/// lets a write and that write's refresh complete, then commits under the
/// lock: whichever install commits last, the catalog and everything derived
/// from it agree.
#[test]
fn a_re_attach_parked_in_its_build_commits_beside_its_own_catalog() {
    let reads = RevisionReads::new();
    let answered = Arc::new(Gate::default());
    let (counting, signal) = (Arc::clone(&reads), Arc::clone(&answered));
    let stack = Stack::start(
        Box::new(|_| Ok(())),
        Box::new(move |call| {
            if counting.count(call).is_some() {
                signal.arrive();
            }
        }),
        false,
    );
    let park = Arc::new(AtomicBool::new(false));
    let (entered, release) = (Arc::new(Gate::default()), Arc::new(Gate::default()));
    let (parking, entering, releasing) =
        (Arc::clone(&park), Arc::clone(&entered), Arc::clone(&release));
    let observed = stack.observe(
        move |_| {
            if parking.swap(false, Ordering::SeqCst) {
                entering.arrive();
                assert!(releasing.wait_for(1, HANG), "the test releases the build");
            }
        },
        |_| {},
    );
    let attached = stack.revision();

    park.store(true, Ordering::SeqCst);
    reads.arm();
    std::thread::scope(|scope| {
        let attach = scope.spawn(|| stack.service.attach(DB).expect("re-attach"));
        assert!(entered.wait_for(1, HANG), "the re-attach reached its build");
        // Its opening read and its closing one have answered: its bracket
        // is settled before the write.
        assert!(answered.wait_for(2, HANG), "the re-attach's bracket was read");
        reads.armed.store(false, Ordering::SeqCst);

        write(&stack.admin, 300);
        let refreshed = stack.service.sync(DB).expect("the refresh does not wait for the attach");
        assert!(matches!(refreshed, SyncOutcome::Refreshed { .. }), "{refreshed:?}");
        assert_ne!(stack.revision(), attached);
        stack.assert_consistent();

        release.arrive();
        let catalog = attach.join().expect("the attach thread");
        assert_eq!(catalog.revision, attached, "the re-attach read the store before the write");
    });
    assert_eq!(stack.revision(), attached, "the re-attach committed last");
    assert_eq!(observed.commits().last(), Some(&attached));
    stack.assert_consistent();
    // The next dispatch sees the store moved on and refreshes again.
    assert!(matches!(stack.service.sync(DB).expect("refresh"), SyncOutcome::Refreshed { .. }));
    stack.assert_consistent();
}

/// The window the lock closes: a refresh has inserted its catalog and is
/// parked before its commit when a re-attach of a newer revision finishes
/// its harvest. The re-attach's install waits for the refresh's commit, so
/// it cannot land between the refresh's insert and commit.
#[test]
fn a_re_attach_never_commits_between_a_refreshs_insert_and_commit() {
    let stack = Stack::start(Box::new(|_| Ok(())), Box::new(|_| {}), false);
    let park = Arc::new(AtomicBool::new(false));
    let (entered, release) = (Arc::new(Gate::default()), Arc::new(Gate::default()));
    let (parking, entering, releasing) =
        (Arc::clone(&park), Arc::clone(&entered), Arc::clone(&release));
    let attach_built = Arc::new(Gate::default());
    let built = Arc::clone(&attach_built);
    let observed = stack.observe(
        move |_| built.arrive(),
        move |_| {
            if parking.swap(false, Ordering::SeqCst) {
                entering.arrive();
                assert!(releasing.wait_for(1, HANG), "the test releases the commit");
            }
        },
    );

    write(&stack.admin, 400);
    park.store(true, Ordering::SeqCst);
    std::thread::scope(|scope| {
        let refresh = scope.spawn(|| stack.service.sync(DB).expect("refresh"));
        assert!(entered.wait_for(1, HANG), "the refresh parked in its commit");
        let refreshed = stack.revision();
        let builds = observed.builds.lock().expect("log lock").len() as u64;

        write(&stack.admin, 401);
        let (done_tx, done) = std::sync::mpsc::channel();
        let service = &stack.service;
        let attach = scope.spawn(move || {
            let catalog = service.attach(DB).expect("re-attach");
            let _ = done_tx.send(());
            catalog
        });
        assert!(attach_built.wait_for(builds + 1, HANG), "the re-attach built");
        // The re-attach is past its build; a bounded wait gives an attach
        // that did not take the lock the time to commit in the window. One
        // that takes it is still waiting when the wait runs out.
        assert!(
            done.recv_timeout(Duration::from_millis(200)).is_err(),
            "the re-attach installed while the refresh had not committed"
        );
        assert_eq!(stack.revision(), refreshed, "nothing was inserted over the refresh");

        release.arrive();
        refresh.join().expect("the refresh thread");
        let newest = attach.join().expect("the attach thread").revision;
        assert_ne!(newest, refreshed);
        assert_eq!(stack.revision(), newest, "the re-attach committed after the refresh");
    });
    assert_eq!(observed.commits().len(), 2);
    stack.assert_consistent();
}
