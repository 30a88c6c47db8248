//! One result cache with a revision fence, over [`codes_cache::ShardedCache`].
//!
//! Production question streams are repetitive per database, so the final
//! SQL for a request is cached (`tier="full_result"`, "T3"), keyed by (db
//! generation, normalized question, [`Config`] fingerprint). It is checked
//! at pool admission in `codes-serve`, so a hit bypasses the worker queue
//! entirely. Degraded or deadline-clamped inferences are never admitted.
//! The Algorithm-1 stages are not cached: they are cheap by construction
//! and every repeat they could serve is a full-result hit first.
//!
//! Invalidation is generation-based: every key embeds the database's
//! generation token, [`SystemCache::observe_revision`] auto-bumps it when
//! the `sqlengine` catalog revision changes, and
//! [`SystemCache::invalidate_database`] bumps it explicitly. Old-generation
//! entries become unreachable immediately and are reclaimed lazily by LRU
//! pressure.
//!
//! Each generation also carries a **revision lease**: a dispatch whose
//! revision read found the store where the installed catalog left it
//! confirms the generation it read beforehand
//! ([`SystemCache::confirm_revision`]), and for [`REVISION_LEASE`] after
//! that, dispatches of the same generation skip the read
//! ([`SystemCache::revision_lease_live`]). The lease is keyed on the
//! generation, so every bump ends it at once (DESIGN.md §4k).
//!
//! One [`SystemCache`] belongs to one trained system: keys do not embed the
//! model or classifier weights, so sharing a cache between systems with
//! different weights would serve one system the other's answers.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use codes_cache::{
    CacheConfig, CacheStats, GenerationMap, RevisionMap, ShardedCache, INVALIDATIONS_TOTAL,
};
use codes_obs::{Clock, Counter, Registry};
use parking_lot::Mutex;
use sqlengine::Database;

use crate::config::Config;

/// A cached end-to-end answer. Holds what a served response needs —
/// not the full [`crate::Inference`], whose generation beam is heavyweight
/// and irrelevant once a winning SQL exists.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedAnswer {
    /// The winning SQL.
    pub sql: String,
    /// Prompt length of the original computation, in whitespace tokens.
    pub prompt_tokens: usize,
    /// Wall-clock latency of the original computation, in seconds.
    pub compute_latency_seconds: f64,
}

/// Sizing of the result cache. Entries live until LRU pressure evicts
/// them or a generation bump makes them unreachable.
#[derive(Debug, Clone, Copy)]
pub struct CacheSettings {
    /// Entries (one SQL string each).
    pub full_capacity: usize,
    /// Shards.
    pub shards: usize,
}

impl Default for CacheSettings {
    fn default() -> CacheSettings {
        CacheSettings { full_capacity: 8192, shards: 8 }
    }
}

/// Counter snapshot plus the invalidation count, as surfaced in
/// `HealthSnapshot` and the cache bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystemCacheStats {
    /// Always zero: the schema-filter tier is gone, `e2e/` still reads the
    /// field. The ROADMAP item-2 benchmark PR removes it.
    pub schema: CacheStats,
    /// Always zero: the value-retrieval tier is gone, `e2e/` still reads
    /// the field. The ROADMAP item-2 benchmark PR removes it.
    pub values: CacheStats,
    /// Full-result counters.
    pub full: CacheStats,
    /// Explicit + revision-triggered generation bumps.
    pub invalidations: u64,
}

/// How long one confirmed revision read vouches for a database's cache
/// generation: at most ten revision reads per second per database, and an
/// unannounced write is served stale for at most this long.
pub const REVISION_LEASE: Duration = Duration::from_millis(100);

/// The generation a revision read last confirmed for one database, and
/// when.
#[derive(Debug, Clone, Copy)]
struct Lease {
    generation: u64,
    confirmed_at: Instant,
}

impl Lease {
    /// The whole rule: a lease vouches only for the generation it
    /// confirmed, and only for [`REVISION_LEASE`].
    fn live(self, current: u64, now: Instant) -> bool {
        self.generation == current && now.duration_since(self.confirmed_at) < REVISION_LEASE
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct FullKey {
    db: String,
    generation: u64,
    question: String,
    config_fingerprint: u64,
}

/// The result cache one serving stack shares: `CodesSystem` reconciles
/// catalog revisions inside `infer`, the serve pool looks answers up at
/// admission and admits clean ones.
pub struct SystemCache {
    generations: GenerationMap,
    /// Last-seen `sqlengine` catalog revision per database, so any mutation
    /// observed at inference time auto-bumps the generation.
    revisions: RevisionMap,
    full: ShardedCache<FullKey, CachedAnswer>,
    invalidations: Arc<Counter>,
    /// One revision lease per database, beside the generation it
    /// qualifies.
    leases: Mutex<HashMap<String, Lease>>,
    clock: Clock,
}

impl SystemCache {
    /// Default-sized cache registering its metrics in the global registry
    /// (the one `codes_obs::render_prometheus` scrapes).
    pub fn new() -> SystemCache {
        SystemCache::with_registry(&codes_obs::global(), CacheSettings::default())
    }

    /// Cache with explicit sizing, registering metrics in `registry` —
    /// tests use a private registry for isolation.
    pub fn with_registry(registry: &Registry, settings: CacheSettings) -> SystemCache {
        SystemCache::with_clock(registry, settings, Clock::real())
    }

    /// [`SystemCache::with_registry`] reading time from `clock` — tests
    /// hand in [`Clock::manual`] to walk a revision lease to its end.
    pub fn with_clock(registry: &Registry, settings: CacheSettings, clock: Clock) -> SystemCache {
        SystemCache {
            generations: GenerationMap::new(),
            revisions: RevisionMap::new(),
            full: ShardedCache::with_metrics(
                CacheConfig { capacity: settings.full_capacity, shards: settings.shards },
                registry,
                "full_result",
            ),
            invalidations: registry.counter(INVALIDATIONS_TOTAL, &[]),
            leases: Mutex::new(HashMap::new()),
            clock,
        }
    }

    /// Current generation token for a database id.
    pub fn generation(&self, db_id: &str) -> u64 {
        self.generations.generation(db_id)
    }

    /// Explicitly invalidate everything cached for `db_id`; returns the new
    /// generation.
    pub fn invalidate_database(&self, db_id: &str) -> u64 {
        self.invalidations.inc();
        self.generations.bump(db_id)
    }

    /// Reconcile the cache with the database's catalog revision and return
    /// the current generation. The first sighting of a database records its
    /// revision; any later revision change (DDL, row mutations) bumps the
    /// generation so pre-mutation entries can no longer be served.
    pub fn observe_revision(&self, db: &Database) -> u64 {
        self.observe_revision_token(&db.name, db.revision())
    }

    /// [`SystemCache::observe_revision`] for callers that hold a revision
    /// token without the catalog itself — e.g. a storage layer that read
    /// the token over a live connection.
    pub fn observe_revision_token(&self, db_id: &str, revision: u64) -> u64 {
        if self.revisions.observe(db_id, revision).is_changed() {
            self.invalidate_database(db_id)
        } else {
            self.generations.generation(db_id)
        }
    }

    /// Whether a revision read confirmed `db_id`'s *current* generation
    /// less than [`REVISION_LEASE`] ago, so a dispatch may take the
    /// installed catalog without asking the store.
    pub fn revision_lease_live(&self, db_id: &str) -> bool {
        let lease = self.leases.lock().get(db_id).copied();
        lease.is_some_and(|lease| lease.live(self.generation(db_id), self.clock.now()))
    }

    /// Record that a revision read found the store at the installed
    /// catalog. `generation` is the one the caller read *before* that read
    /// (plus the observer's one bump when its own sync refreshed), never
    /// the one current now: an invalidation that landed in between has
    /// moved the generation on, and a confirmation for any generation but
    /// the current one is dropped — it vouches for nothing now, and kept,
    /// one for a generation not reached yet would come alive at a later
    /// bump. The next dispatch checks again.
    pub fn confirm_revision(&self, db_id: &str, generation: u64) {
        if generation == self.generation(db_id) {
            let lease = Lease { generation, confirmed_at: self.clock.now() };
            self.leases.lock().insert(db_id.to_string(), lease);
        }
    }

    /// Admission-path lookup.
    pub fn lookup_full(
        &self,
        db_id: &str,
        generation: u64,
        question_key: &str,
        config_fingerprint: u64,
    ) -> Option<CachedAnswer> {
        self.full.get(&FullKey {
            db: db_id.to_string(),
            generation,
            question: question_key.to_string(),
            config_fingerprint,
        })
    }

    /// Admit a clean end-to-end result under the generation that was
    /// current when the request was *submitted* — a result computed before
    /// an invalidation must land under the pre-invalidation token, where
    /// post-invalidation lookups can't reach it. Callers must not admit
    /// degraded or deadline-clamped inferences.
    pub fn admit_full(
        &self,
        db_id: &str,
        generation: u64,
        question_key: &str,
        config_fingerprint: u64,
        answer: CachedAnswer,
    ) {
        self.full.insert(
            FullKey {
                db: db_id.to_string(),
                generation,
                question: question_key.to_string(),
                config_fingerprint,
            },
            answer,
        );
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> SystemCacheStats {
        SystemCacheStats {
            full: self.full.stats(),
            invalidations: self.invalidations.get(),
            ..SystemCacheStats::default()
        }
    }
}

impl Default for SystemCache {
    fn default() -> SystemCache {
        SystemCache::new()
    }
}

impl fmt::Debug for SystemCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemCache").field("stats", &self.stats()).finish()
    }
}

/// Canonical question key: lowercased, whitespace-collapsed, with the
/// external knowledge (same treatment) appended under a separator. Trivial
/// reformattings of the same question share cache entries; distinct
/// knowledge never collides with the bare question.
pub fn normalize_question(question: &str, external_knowledge: Option<&str>) -> String {
    let mut key = String::with_capacity(question.len());
    for word in question.split_whitespace() {
        if !key.is_empty() {
            key.push(' ');
        }
        for c in word.chars() {
            key.extend(c.to_lowercase());
        }
    }
    if let Some(ek) = external_knowledge {
        key.push('\u{1f}');
        for word in ek.split_whitespace() {
            key.push(' ');
            for c in word.chars() {
                key.extend(c.to_lowercase());
            }
        }
    }
    key
}

/// FNV-1a fingerprint of every [`Config`] field that can change an answer.
/// Two configs with equal fingerprints produce the same SQL for the same
/// (database state, question), so cached answers are keyed on it.
pub fn config_fingerprint(config: &Config) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    let mut word = |w: u64| {
        for byte in w.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let duration = |d: Option<Duration>| d.map_or(u64::MAX, |d| d.as_nanos() as u64);
    word(duration(config.inference_deadline));
    word(u64::from(config.retry_attempts));
    word(duration(config.exec_limits.deadline));
    word(config.exec_limits.max_rows.unwrap_or(u64::MAX));
    word(config.exec_limits.max_intermediate_rows.unwrap_or(u64::MAX));
    word(config.exec_limits.max_memory_bytes.unwrap_or(u64::MAX));
    word(config.exec_limits.max_recursion_depth.map_or(u64::MAX, u64::from));
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_canonicalizes_but_keeps_knowledge_distinct() {
        assert_eq!(
            normalize_question("  How many  CLIENTS? ", None),
            normalize_question("how many clients?", None)
        );
        assert_ne!(
            normalize_question("how many clients?", None),
            normalize_question("how many clients?", Some("F means female")),
        );
        assert_ne!(
            normalize_question("a b", None),
            normalize_question("ab", None),
            "word boundaries survive normalization"
        );
    }

    #[test]
    fn config_fingerprint_tracks_answer_relevant_fields() {
        let base = Config::serving();
        assert_eq!(config_fingerprint(&base), config_fingerprint(&base.clone()));
        let mut tighter = base;
        tighter.inference_deadline = Some(Duration::from_millis(100));
        assert_ne!(config_fingerprint(&base), config_fingerprint(&tighter));
        let mut fewer_rows = base;
        fewer_rows.exec_limits.max_rows = Some(7);
        assert_ne!(config_fingerprint(&base), config_fingerprint(&fewer_rows));
    }

    #[test]
    fn observe_revision_bumps_generation_on_catalog_change() {
        let registry = Registry::new();
        let cache = SystemCache::with_registry(&registry, CacheSettings::default());
        let mut db = Database::new("shop");
        db.create_table(sqlengine::TableSchema::new(
            "t",
            vec![sqlengine::Column::new("c", sqlengine::DataType::Text)],
        ))
        .expect("fresh table");

        let g0 = cache.observe_revision(&db);
        assert_eq!(g0, 0, "first sighting records the revision without invalidating");
        assert_eq!(cache.observe_revision(&db), 0, "unchanged catalog keeps the generation");

        db.table_mut("t")
            .expect("t exists")
            .insert(vec!["x".into()])
            .expect("row matches schema");
        let g1 = cache.observe_revision(&db);
        assert_eq!(g1, 1, "catalog mutation bumps the generation");
        assert_eq!(cache.stats().invalidations, 1);
    }

    fn manual_cache() -> (Clock, SystemCache) {
        let clock = Clock::manual();
        let cache =
            SystemCache::with_clock(&Registry::new(), CacheSettings::default(), clock.clone());
        (clock, cache)
    }

    #[test]
    fn a_lease_vouches_for_one_generation_for_one_lease_length() {
        let (clock, cache) = manual_cache();
        let tick = Duration::from_nanos(1);
        assert!(!cache.revision_lease_live("db"), "nothing was ever confirmed");
        cache.confirm_revision("db", 0);
        assert!(cache.revision_lease_live("db"));
        assert!(!cache.revision_lease_live("other"), "one lease per database");

        clock.advance(REVISION_LEASE - tick);
        assert!(cache.revision_lease_live("db"), "a tick short of its end");
        clock.advance(tick);
        assert!(!cache.revision_lease_live("db"), "over at REVISION_LEASE exactly");

        cache.confirm_revision("db", 0);
        assert!(cache.revision_lease_live("db"));
        cache.invalidate_database("db");
        assert!(!cache.revision_lease_live("db"), "an explicit bump ends it with no time passed");
        cache.confirm_revision("db", 0);
        assert!(!cache.revision_lease_live("db"), "a confirmation for the old generation is void");
        cache.confirm_revision("db", 1);
        cache.confirm_revision("db", 2);
        assert!(
            cache.revision_lease_live("db"),
            "one for a generation not reached yet displaces nothing"
        );

        cache.observe_revision_token("db", 7);
        assert!(cache.revision_lease_live("db"), "a first sighting bumps nothing");
        cache.observe_revision_token("db", 8);
        assert_eq!(cache.generation("db"), 2, "an observed revision change bumps");
        assert!(
            !cache.revision_lease_live("db"),
            "which ends the lease too; the early confirmation of 2 was dropped, not parked"
        );
    }

    /// One step of an interleaving of dispatches, writers and time.
    #[derive(Debug, Clone, Copy)]
    enum LeaseOp {
        /// A dispatch confirms `current + 1 - back`: the generation it read
        /// before its revision read, which since fell 0–2 bumps behind — or
        /// (`back == 0`) one it expected a refresh's bump to produce.
        Confirm { back: u64 },
        /// An explicit invalidation.
        Bump,
        /// A refresh observed under this revision token (may bump).
        Observe(u64),
        /// Time passes, in quarter leases.
        Advance(u32),
    }

    /// The vendored proptest draws integers: `code % 4` picks the step,
    /// `code / 4` (0–5) is its argument.
    fn lease_op(code: u64) -> LeaseOp {
        let arg = code / 4;
        match code % 4 {
            0 => LeaseOp::Confirm { back: arg % 4 },
            1 => LeaseOp::Bump,
            2 => LeaseOp::Observe(arg % 3),
            _ => LeaseOp::Advance(arg as u32),
        }
    }

    proptest::proptest! {
        /// Whatever the interleaving: a live lease was confirmed for the
        /// current generation less than a lease ago, and a bump is never
        /// followed by a live lease without a confirmation after it.
        #[test]
        fn a_live_lease_is_a_fresh_confirmation_of_the_current_generation(
            codes in proptest::prop::collection::vec(0u64..24, 0..48),
        ) {
            let (clock, cache) = manual_cache();
            let mut now = Duration::ZERO;
            // The last confirmation that named the then-current generation.
            let mut confirmed: Option<(u64, Duration)> = None;
            let mut bumped_since = false;
            for op in codes.iter().copied().map(lease_op) {
                let before = cache.generation("db");
                match op {
                    LeaseOp::Confirm { back } => {
                        let generation = (before + 1).saturating_sub(back);
                        cache.confirm_revision("db", generation);
                        if generation == before {
                            confirmed = Some((generation, now));
                            bumped_since = false;
                        }
                    }
                    LeaseOp::Bump => {
                        cache.invalidate_database("db");
                    }
                    LeaseOp::Observe(revision) => {
                        cache.observe_revision_token("db", revision);
                    }
                    LeaseOp::Advance(quarters) => {
                        let step = REVISION_LEASE / 4 * quarters;
                        clock.advance(step);
                        now += step;
                    }
                }
                let current = cache.generation("db");
                bumped_since |= current != before;
                let live = cache.revision_lease_live("db");
                let expected = confirmed
                    .is_some_and(|(generation, at)| generation == current && now - at < REVISION_LEASE);
                proptest::prop_assert!(live == expected, "live {live}, expected {expected} after {op:?}");
                proptest::prop_assert!(!(live && bumped_since), "live after a bump: {:?}", op);
            }
        }
    }

    #[test]
    fn full_tier_is_generation_scoped() {
        let registry = Registry::new();
        let cache = SystemCache::with_registry(&registry, CacheSettings::default());
        let fp = config_fingerprint(&Config::serving());
        let answer = CachedAnswer {
            sql: "SELECT 1".into(),
            prompt_tokens: 12,
            compute_latency_seconds: 0.1,
        };
        cache.admit_full("db", 0, "q", fp, answer.clone());
        assert_eq!(cache.lookup_full("db", 0, "q", fp), Some(answer));
        let bumped = cache.invalidate_database("db");
        assert_eq!(bumped, 1);
        assert_eq!(
            cache.lookup_full("db", bumped, "q", fp),
            None,
            "post-invalidation lookups cannot reach pre-invalidation entries"
        );
        // Different config fingerprints never share answers either.
        assert_eq!(cache.lookup_full("db", 0, "q", fp ^ 1), None);
    }
}
