//! The serving-side storage facade: attached catalogs over a pooled
//! backend, kept fresh by revision checks.
//!
//! A [`CatalogService`] owns a [`ConnectionPool`] and a map of attached
//! [`Catalog`]s. `attach` introspects a database on registration (the
//! gateway's `POST /v1/databases` endpoint lands here); `sync` is the
//! cheap check a dispatch makes — one pooled revision read — that
//! re-introspects and swaps the catalog only when the backend's token
//! moved, one re-introspection per database at a time however many
//! dispatches saw the token move. An introspection runs on one pooled
//! connection, and a re-introspection asks for every table the catalog it
//! replaces predicts in one pipeline (DESIGN.md §4k). Every install runs
//! the registered revision observer in two halves: its build derives state
//! from the fresh mirror on the caller's thread once the harvest's bracket
//! has held, and its commit installs that state beside the catalog, under
//! the database's refresh lock. An attach builds before it takes that lock,
//! so a re-attach busy building never holds up a refresh. The serving layer
//! builds the value index and schema profile and commits them with
//! `SystemCache::observe_revision`, so a schema change on the live backend
//! bumps cache generations exactly like a local catalog mutation.
//! [`CatalogService::subscribe`] hands a commit hook to the backend: a
//! client the backend can push to needs a `sync` only after a commit it
//! was told of (DESIGN.md §4k).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use sqlengine::Database;

use crate::backend::{CommitHook, Connection};
use crate::error::StorageError;
use crate::introspect::{introspect_with, Catalog, IntrospectOptions};
use crate::pool::{ConnectionPool, PooledConn};

/// The second half of a [`RevisionObserver`]: installs what its build
/// derived. Runs once per installed catalog, right after the insert, under
/// the database's refresh lock.
pub type Commit = Box<dyn FnOnce() + Send>;

/// The build half of a revision observer, run on every mirror an attach or
/// a sync installs (first sighting included): pure work on the
/// revision-stamped mirror, done once the harvest's bracket has held and
/// outside the refresh lock. It returns the [`Commit`] that installs its
/// result.
pub type RevisionObserver = Box<dyn Fn(&Database) -> Commit + Send + Sync>;

/// A registered observer, held by a harvest without the service's lock.
pub(crate) type Observer = Arc<dyn Fn(&Database) -> Commit + Send + Sync>;

/// What a [`CatalogService::sync`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOutcome {
    /// The backend's revision matches the attached catalog; nothing moved.
    Unchanged,
    /// The revision moved; the catalog was re-introspected and swapped.
    Refreshed {
        /// Revision of the replaced catalog.
        from: u64,
        /// Revision of the fresh catalog.
        to: u64,
    },
    /// The database was not attached yet; this sync attached it.
    Attached,
}

/// Live view of the databases served through one storage backend.
pub struct CatalogService {
    pool: ConnectionPool,
    catalogs: RwLock<HashMap<String, Arc<Catalog>>>,
    /// One lock per database that has ever been installed. `sync` holds it
    /// across a re-introspection so concurrent dispatches share one, and
    /// every install holds it across its insert and commit.
    refreshing: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    observer: RwLock<Option<Observer>>,
}

impl CatalogService {
    /// A service over `pool`. [`IntrospectOptions`] has no field.
    pub fn new(pool: ConnectionPool, _options: IntrospectOptions) -> CatalogService {
        CatalogService {
            pool,
            catalogs: RwLock::new(HashMap::new()),
            refreshing: Mutex::new(HashMap::new()),
            observer: RwLock::new(None),
        }
    }

    /// The underlying pool (for health/metrics inspection).
    pub fn pool(&self) -> &ConnectionPool {
        &self.pool
    }

    /// [`crate::Backend::subscribe`] on the backend behind the pool: `hook`
    /// hears every commit from now on, if the backend can push.
    pub fn subscribe(&self, hook: CommitHook) -> bool {
        self.pool.subscribe(hook)
    }

    /// Register the revision observer (replacing any previous one). The
    /// serving layer points this at its system and cache so the derived
    /// state and the generation bump land at swap time, before any
    /// post-change request can consult the cache.
    pub fn set_revision_observer(&self, observer: RevisionObserver) {
        *self.observer.write() = Some(Arc::from(observer));
    }

    /// The refresh lock of `db_id`.
    fn flight(&self, db_id: &str) -> Arc<Mutex<()>> {
        Arc::clone(self.refreshing.lock().entry(db_id.to_string()).or_default())
    }

    /// Run an idempotent read over a pooled connection. The pool parks a
    /// connection on the strength of its last round trip, so one that died
    /// afterwards is found by the next caller's first operation; when that
    /// is what failed — a transport error before the backend answered
    /// anything on this checkout — the read runs once more on a connection
    /// that just answered a probe, instead of failing the caller.
    fn read<R>(
        &self,
        op: impl Fn(&mut PooledConn) -> Result<R, StorageError>,
    ) -> Result<R, StorageError> {
        let mut conn = self.pool.checkout()?;
        match op(&mut conn) {
            Err(StorageError::Connect(_)) if !conn.proved_live() => {
                drop(conn);
                op(&mut self.pool.checkout_probed()?)
            }
            result => result,
        }
    }

    /// Attach (or re-attach) a database: introspect it over a pooled
    /// connection and install the catalog. Only the install takes the refresh lock, so an
    /// attach and a refresh of one database harvest side by side and
    /// commit one after the other.
    pub fn attach(&self, db_id: &str) -> Result<Arc<Catalog>, StorageError> {
        let harvested = self.harvest(db_id, None)?;
        let flight = self.flight(db_id);
        let _refreshing = flight.lock();
        Ok(self.install(db_id, harvested))
    }

    /// Introspect `db_id`, with `known` — a revision token read a moment
    /// ago — saving the introspection its own first read. The installed
    /// catalog, if any, predicts what the introspection will find.
    fn harvest(
        &self,
        db_id: &str,
        known: Option<u64>,
    ) -> Result<(Catalog, Option<Commit>), StorageError> {
        let installed = self.catalog(db_id);
        let prediction = installed.as_ref().map(|catalog| &catalog.database);
        let observer = self.observer.read().clone();
        self.read(|conn| introspect_with(conn, prediction, known, db_id, observer.as_ref()))
    }

    /// Insert a harvested catalog and run its observer's commit. The
    /// caller holds `db_id`'s refresh lock, so the catalog and the state
    /// derived from it are installed together.
    fn install(&self, db_id: &str, (catalog, commit): (Catalog, Option<Commit>)) -> Arc<Catalog> {
        let catalog = Arc::new(catalog);
        self.catalogs.write().insert(db_id.to_string(), Arc::clone(&catalog));
        if let Some(commit) = commit {
            commit();
        }
        catalog
    }

    /// Attach every database the backend reports. Returns the attached
    /// ids, sorted.
    pub fn attach_all(&self) -> Result<Vec<String>, StorageError> {
        let ids = self.read(|conn| conn.databases())?;
        for db_id in &ids {
            self.attach(db_id)?;
        }
        Ok(ids)
    }

    /// Reconcile one attached catalog with the live backend: read the
    /// revision over a pooled connection and re-introspect only on change.
    pub fn sync(&self, db_id: &str) -> Result<SyncOutcome, StorageError> {
        let Some(current) = self.catalog(db_id) else {
            self.attach(db_id)?;
            return Ok(SyncOutcome::Attached);
        };
        let live = self.read(|conn| conn.revision(db_id))?;
        if live == current.revision {
            return Ok(SyncOutcome::Unchanged);
        }
        // The token moved. Every dispatch that sees it move lands here; one
        // re-introspects, the others wait and find its catalog installed.
        let flight = self.flight(db_id);
        let _refreshing = flight.lock();
        let installed = self.catalog(db_id).map(|catalog| catalog.revision);
        if installed == Some(live) {
            return Ok(SyncOutcome::Refreshed { from: current.revision, to: live });
        }
        // `live` is as good as a `before` read now unless a refresh was
        // installed since it was taken and is not it: then it is known stale.
        let known = (installed == Some(current.revision)).then_some(live);
        let fresh = self.install(db_id, self.harvest(db_id, known)?);
        Ok(SyncOutcome::Refreshed { from: current.revision, to: fresh.revision })
    }

    /// The attached catalog for `db_id`, if any.
    pub fn catalog(&self, db_id: &str) -> Option<Arc<Catalog>> {
        self.catalogs.read().get(db_id).cloned()
    }

    /// Whether `db_id` is attached.
    pub fn contains(&self, db_id: &str) -> bool {
        self.catalogs.read().contains_key(db_id)
    }

    /// Attached database ids, sorted.
    pub fn attached(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.catalogs.read().keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Detach a database (e.g. after the backend dropped it). Returns
    /// whether it was attached.
    pub fn detach(&self, db_id: &str) -> bool {
        self.catalogs.write().remove(db_id).is_some()
    }
}

impl std::fmt::Debug for CatalogService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CatalogService")
            .field("attached", &self.attached())
            .field("capacity", &self.pool.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryBackend;
    use crate::pool::PoolConfig;
    use sqlengine::{Column, DataType, TableSchema};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn service() -> (Arc<MemoryBackend>, CatalogService) {
        let mut db = Database::new("d");
        db.create_table(TableSchema::new("t", vec![Column::new("c", DataType::Integer)]))
            .expect("fresh table");
        let backend = Arc::new(MemoryBackend::new(vec![db]));
        let registry = codes_obs::Registry::new();
        let pool = ConnectionPool::with_registry(
            Arc::clone(&backend) as Arc<dyn crate::Backend>,
            PoolConfig { capacity: 2, ..PoolConfig::default() },
            &registry,
        );
        (backend, CatalogService::new(pool, IntrospectOptions::default()))
    }

    #[test]
    fn sync_refreshes_only_on_revision_change_and_notifies() {
        let (backend, service) = service();
        let observed = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&observed);
        service.set_revision_observer(Box::new(move |_| {
            let counter = Arc::clone(&counter);
            Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            })
        }));

        assert_eq!(service.sync("d").expect("first sync attaches"), SyncOutcome::Attached);
        assert_eq!(observed.load(Ordering::SeqCst), 1);
        assert_eq!(service.sync("d").expect("steady state"), SyncOutcome::Unchanged);
        assert_eq!(observed.load(Ordering::SeqCst), 1, "no notify without a change");

        let from = service.catalog("d").expect("attached").revision;
        backend
            .mutate("d", |db| {
                db.table_mut("t").expect("t exists").insert(vec![9.into()]).expect("row fits");
            })
            .expect("d exists");
        match service.sync("d").expect("refresh") {
            SyncOutcome::Refreshed { from: f, to } => {
                assert_eq!(f, from);
                assert_ne!(f, to);
            }
            other => panic!("expected refresh, got {other:?}"),
        }
        assert_eq!(observed.load(Ordering::SeqCst), 2, "swap notifies the observer");
        let mirrored = service.catalog("d").expect("attached");
        assert_eq!(mirrored.database.table("t").expect("t").rows.len(), 1, "fresh rows visible");
    }

    /// The pool parks a connection on the strength of its last operation,
    /// so one that broke silently right after it is handed to the next
    /// sync. That sync must not fail for it: with silent breaks as the
    /// only fault no sync fails at all, and under the full storm the only
    /// errors left are the ones the injector raised on a live connection.
    #[test]
    fn a_connection_that_died_while_parked_never_fails_a_sync() {
        use crate::flaky::{FaultSpec, FlakyBackend};
        let storm = |spec: FaultSpec| {
            let mut db = Database::new("d");
            db.create_table(TableSchema::new("t", vec![Column::new("c", DataType::Integer)]))
                .expect("fresh table");
            let pool = ConnectionPool::with_registry(
                Arc::new(FlakyBackend::new(MemoryBackend::new(vec![db]), spec)),
                PoolConfig { capacity: 2, ..PoolConfig::default() },
                &codes_obs::Registry::new(),
            );
            let service = CatalogService::new(pool, IntrospectOptions::default());
            assert!((0..50).any(|_| service.attach("d").is_ok()), "attach beats the injector");
            let errors: Vec<String> = (0..400)
                .filter_map(|_| service.sync("d").err())
                .map(|e| e.to_string())
                .collect();
            (errors, service.pool().stats())
        };

        let (errors, stats) =
            storm(FaultSpec { seed: 7, silent_break: 0.2, ..FaultSpec::default() });
        assert!(errors.is_empty(), "silent breaks alone must never fail a sync: {errors:?}");
        assert!(stats.discarded_broken > 20, "the storm did park dead connections: {stats:?}");
        assert_eq!(stats.checkouts, stats.checkins + stats.discarded(), "{stats:?}");

        let (errors, stats) = storm(FaultSpec { silent_break: 0.2, ..FaultSpec::chaos(7) });
        assert!(!errors.is_empty(), "injected I/O faults and refusals still surface");
        assert!(
            errors.iter().all(|e| e.contains("injected")),
            "every failed sync is an injected fault on a live connection, \
             never a connection that was parked dead: {errors:?}"
        );
        assert_eq!(stats.checkouts, stats.checkins + stats.discarded(), "{stats:?}");
    }

    #[test]
    fn detach_and_contains() {
        let (_backend, service) = service();
        assert!(!service.contains("d"));
        service.attach("d").expect("attach");
        assert!(service.contains("d"));
        assert_eq!(service.attached(), vec!["d".to_string()]);
        assert!(service.detach("d"));
        assert!(!service.detach("d"));
    }
}
