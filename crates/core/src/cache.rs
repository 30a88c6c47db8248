//! One result cache with a revision fence.
//!
//! The final SQL for a request is cached (`tier="full_result"`, "T3") under
//! (db, generation, normalized question, [`Config`] fingerprint) and looked
//! up at pool admission in `codes-serve`, so a hit bypasses the worker queue.
//! Every key embeds the database's generation: [`SystemCache::invalidate_database`]
//! bumps it explicitly and [`SystemCache::observe_revision`] when the
//! `sqlengine` catalog revision moved, so older entries become unreachable at
//! once and leave by LRU pressure. A database's generation and last-seen
//! revision are one entry under one lock. A store that announces its
//! commits reaches [`SystemCache::observe_revision_token`] before its write
//! returns, so no admission after a write can be served a pre-write answer
//! (DESIGN.md §4k). DESIGN.md §4f tables the key, invalidation, admission,
//! sizing and metrics.
//!
//! One [`SystemCache`] belongs to one trained system: keys do not embed the
//! model or classifier weights, so sharing a cache between systems with
//! different weights would serve one system the other's answers.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

use codes_obs::{Counter, Gauge, Registry};
use parking_lot::{Mutex, RwLock};
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
}

/// Entries the result cache holds (one SQL string each), rounded up to a
/// multiple of [`SHARDS`].
const CAPACITY: usize = 8192;
/// Independently locked LRU shards.
const SHARDS: usize = 8;

/// The result cache's sizing, which is fixed: 8192 entries over 8 shards.
/// Kept, with no fields, for [`SystemCache::with_registry`]'s signature;
/// build it with `CacheSettings::default()`.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct CacheSettings {}

/// Snapshot of one tier's counters, for health endpoints and bench reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by LRU capacity pressure.
    pub evictions: u64,
    /// Live entries currently resident.
    pub entries: u64,
}

/// Counter snapshot plus the invalidation count, as surfaced in
/// `HealthSnapshot` and the cache bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystemCacheStats {
    /// Always zero: the schema-filter tier is gone, `e2e/` still reads the
    /// field. ROADMAP item 1(h)'s benchmark PR removes it.
    pub schema: CacheStats,
    /// Always zero: the value-retrieval tier is gone, `e2e/` still reads
    /// the field. ROADMAP item 1(h)'s benchmark PR removes it.
    pub values: CacheStats,
    /// Full-result counters.
    pub full: CacheStats,
    /// Explicit + revision-triggered generation bumps.
    pub invalidations: u64,
}

/// Everything the cache knows about one database.
#[derive(Default)]
struct DbState {
    /// Embedded in every key; a bump makes older entries unreachable.
    generation: u64,
    /// The last `sqlengine` catalog revision observed, once one was.
    revision: Option<u64>,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct FullKey {
    db: String,
    generation: u64,
    question: String,
    config_fingerprint: u64,
}

impl FullKey {
    fn new(db: &str, generation: u64, question: &str, config_fingerprint: u64) -> FullKey {
        FullKey { db: db.to_string(), generation, question: question.to_string(), config_fingerprint }
    }
}

/// The result cache one serving stack shares: `CodesSystem` reconciles
/// catalog revisions inside `infer`, the serve pool looks answers up at
/// admission and admits clean ones.
pub struct SystemCache {
    dbs: RwLock<HashMap<String, DbState>>,
    full: Sharded<FullKey, CachedAnswer>,
    invalidations: Arc<Counter>,
}

impl SystemCache {
    /// The result cache, registering its metrics in `registry` — the
    /// serving stack passes `codes_obs::global()`, tests a private registry.
    pub fn with_registry(registry: &Registry, _settings: CacheSettings) -> SystemCache {
        SystemCache {
            dbs: RwLock::new(HashMap::new()),
            full: Sharded::new(CAPACITY, SHARDS, registry),
            invalidations: registry.counter("codes_cache_invalidations_total", &[]),
        }
    }

    /// Run `f` on `db_id`'s state under the write lock.
    fn update<R>(&self, db_id: &str, f: impl FnOnce(&mut DbState) -> R) -> R {
        f(self.dbs.write().entry(db_id.to_string()).or_default())
    }

    /// Every bump, explicit or revision-triggered, counts as an
    /// invalidation.
    fn bump(&self, state: &mut DbState) -> u64 {
        self.invalidations.inc();
        state.generation += 1;
        state.generation
    }

    /// Current generation token for a database id; databases start at 0.
    pub fn generation(&self, db_id: &str) -> u64 {
        self.dbs.read().get(db_id).map_or(0, |state| state.generation)
    }

    /// Explicitly invalidate everything cached for `db_id`; returns the new
    /// generation.
    pub fn invalidate_database(&self, db_id: &str) -> u64 {
        self.update(db_id, |state| self.bump(state))
    }

    /// Reconcile the cache with the database's catalog revision and return
    /// the current generation. The first sighting of a database records its
    /// revision; any later revision change (DDL, row mutations) bumps the
    /// generation so pre-mutation entries can no longer be served.
    pub fn observe_revision(&self, db: &Database) -> u64 {
        self.observe_revision_token(&db.name, db.revision())
    }

    /// [`SystemCache::observe_revision`] for callers that hold a revision
    /// token without the catalog itself — e.g. a store announcing a commit,
    /// or a storage layer that read the token over a live connection.
    pub fn observe_revision_token(&self, db_id: &str, revision: u64) -> u64 {
        self.update(db_id, |state| match state.revision.replace(revision) {
            Some(seen) if seen != revision => self.bump(state),
            _ => state.generation,
        })
    }

    /// Admission-path lookup.
    pub fn lookup_full(
        &self,
        db_id: &str,
        generation: u64,
        question_key: &str,
        config_fingerprint: u64,
    ) -> Option<CachedAnswer> {
        self.full.get(&FullKey::new(db_id, generation, question_key, config_fingerprint))
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
        self.full.insert(FullKey::new(db_id, generation, question_key, config_fingerprint), answer);
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

impl fmt::Debug for SystemCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemCache").field("stats", &self.stats()).finish()
    }
}

/// The separator between a key's question and its external knowledge. It
/// also splits words inside either text, so its first occurrence in a key
/// always marks where the knowledge starts.
const KNOWLEDGE_SEPARATOR: char = '\u{1f}';

/// Canonical question key: lowercased, whitespace-collapsed, with the
/// external knowledge (same treatment) appended under a separator. Trivial
/// reformattings of the same question share cache entries; distinct
/// knowledge never collides with the bare question or with a question that
/// contains the separator itself.
pub fn normalize_question(question: &str, external_knowledge: Option<&str>) -> String {
    fn push_words(key: &mut String, text: &str, mut first: bool) {
        let words = text.split(|c: char| c.is_whitespace() || c == KNOWLEDGE_SEPARATOR);
        for word in words.filter(|word| !word.is_empty()) {
            if !first {
                key.push(' ');
            }
            first = false;
            key.extend(word.chars().flat_map(char::to_lowercase));
        }
    }
    let mut key = String::with_capacity(question.len());
    push_words(&mut key, question, true);
    if let Some(ek) = external_knowledge {
        key.push(KNOWLEDGE_SEPARATOR);
        push_words(&mut key, ek, false);
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

/// One LRU shard: entries in a slot vector threaded on an intrusive
/// recency list. At capacity (at least 1) an insert reuses the least
/// recent slot in place, so a full shard never allocates a slot again.
struct Lru<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    /// Most and least recently used slots (`NIL` while empty).
    head: usize,
    tail: usize,
    capacity: usize,
}

struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// What an insert did to occupancy.
#[derive(Debug, PartialEq)]
enum Insert {
    Replaced,
    Added,
    Evicted,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    fn new(capacity: usize) -> Lru<K, V> {
        Lru {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, ix: usize) {
        let (prev, next) = (self.slots[ix].prev, self.slots[ix].next);
        match prev {
            NIL => self.head = next,
            _ => self.slots[prev].next = next,
        }
        match next {
            NIL => self.tail = prev,
            _ => self.slots[next].prev = prev,
        }
    }

    fn push_front(&mut self, ix: usize) {
        self.slots[ix].prev = NIL;
        self.slots[ix].next = self.head;
        match self.head {
            NIL => self.tail = ix,
            head => self.slots[head].prev = ix,
        }
        self.head = ix;
    }

    fn touch(&mut self, ix: usize) {
        self.unlink(ix);
        self.push_front(ix);
    }

    fn get(&mut self, key: &K) -> Option<V> {
        let ix = *self.map.get(key)?;
        self.touch(ix);
        Some(self.slots[ix].value.clone())
    }

    fn insert(&mut self, key: K, value: V) -> Insert {
        if let Some(&ix) = self.map.get(&key) {
            self.slots[ix].value = value;
            self.touch(ix);
            return Insert::Replaced;
        }
        if self.slots.len() < self.capacity {
            self.slots.push(Slot { key: key.clone(), value, prev: NIL, next: NIL });
            let ix = self.slots.len() - 1;
            self.map.insert(key, ix);
            self.push_front(ix);
            return Insert::Added;
        }
        let ix = self.tail;
        let slot = &mut self.slots[ix];
        let evicted = std::mem::replace(&mut slot.key, key.clone());
        slot.value = value;
        self.map.remove(&evicted);
        self.map.insert(key, ix);
        self.touch(ix);
        Insert::Evicted
    }
}

/// Independently locked [`Lru`] shards, instrumented as
/// `codes_cache_*{tier="full_result"}`.
struct Sharded<K, V> {
    shards: Vec<Mutex<Lru<K, V>>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    entries: Arc<Gauge>,
}

impl<K: Hash + Eq + Clone, V: Clone> Sharded<K, V> {
    /// `capacity` (at least 1) is rounded up to a multiple of `shards`.
    fn new(capacity: usize, shards: usize, registry: &Registry) -> Sharded<K, V> {
        let per_shard = capacity.div_ceil(shards);
        let labels = &[("tier", "full_result")];
        Sharded {
            shards: (0..shards).map(|_| Mutex::new(Lru::new(per_shard))).collect(),
            hits: registry.counter("codes_cache_hits_total", labels),
            misses: registry.counter("codes_cache_misses_total", labels),
            evictions: registry.counter("codes_cache_evictions_total", labels),
            entries: registry.gauge("codes_cache_entries", labels),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<Lru<K, V>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    fn get(&self, key: &K) -> Option<V> {
        let found = self.shard(key).lock().get(key);
        match found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    fn insert(&self, key: K, value: V) {
        match self.shard(&key).lock().insert(key, value) {
            Insert::Replaced => {}
            Insert::Added => self.entries.add(1),
            Insert::Evicted => self.evictions.inc(),
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            entries: self.entries.get().max(0) as u64,
        }
    }
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
        assert_ne!(
            normalize_question("a\u{1f} b", None),
            normalize_question("a", Some("b")),
            "the separator inside a question is a word break, not knowledge"
        );
        assert_eq!(normalize_question("a\u{1f} b", None), normalize_question("a b", None));
        assert_eq!(
            normalize_question("a", Some("b\u{1f}c")),
            normalize_question("a", Some("b c"))
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

    #[test]
    fn generations_start_at_zero_and_bump_independently() {
        let cache = SystemCache::with_registry(&Registry::new(), CacheSettings::default());
        assert_eq!(cache.generation("a"), 0);
        assert_eq!(cache.invalidate_database("a"), 1);
        assert_eq!(cache.invalidate_database("a"), 2);
        assert_eq!(cache.generation("a"), 2);
        assert_eq!(cache.generation("b"), 0);
        assert_eq!(cache.stats().invalidations, 2);
    }

    /// Threads on one database interleave fresh revision tokens, explicit
    /// bumps and generation reads: every bump lands exactly once, and no
    /// reader ever sees the generation go back.
    #[test]
    fn concurrent_per_database_state_loses_no_bump() {
        let cache = SystemCache::with_registry(&Registry::new(), CacheSettings::default());
        cache.observe_revision_token("db", 0);
        std::thread::scope(|scope| {
            for thread in 0..4u64 {
                let cache = &cache;
                scope.spawn(move || {
                    let mut seen = 0;
                    for i in 0..500u64 {
                        let read = cache.generation("db");
                        assert!(read >= seen, "generation went back: {read} < {seen}");
                        seen = read;
                        match (thread + i) % 4 {
                            // Tokens are unique across threads, so every
                            // observation is a change.
                            0 => {
                                let token = (thread << 32) | (i + 1);
                                assert!(cache.observe_revision_token("db", token) > seen);
                            }
                            1 => assert!(cache.invalidate_database("db") > seen),
                            _ => {}
                        }
                    }
                });
            }
        });
        // Each thread made 125 observations and 125 explicit bumps.
        assert_eq!(cache.generation("db"), 4 * 250);
        assert_eq!(cache.stats().invalidations, 4 * 250);
    }

    #[test]
    fn full_tier_is_generation_scoped() {
        let registry = Registry::new();
        let cache = SystemCache::with_registry(&registry, CacheSettings::default());
        let fp = config_fingerprint(&Config::serving());
        let answer = CachedAnswer {
            sql: "SELECT 1".into(),
            prompt_tokens: 12,
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

    impl<K, V> Lru<K, V> {
        fn len(&self) -> usize {
            self.slots.len()
        }
    }

    impl<K: Hash + Eq + Clone, V: Clone> Sharded<K, V> {
        fn len(&self) -> usize {
            self.shards.iter().map(|shard| shard.lock().len()).sum()
        }

        fn capacity(&self) -> usize {
            self.shards.iter().map(|shard| shard.lock().capacity).sum()
        }
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut shard: Lru<&str, u32> = Lru::new(2);
        shard.insert("a", 1);
        shard.insert("b", 2);
        // Touch "a" so "b" becomes the LRU victim.
        assert_eq!(shard.get(&"a"), Some(1));
        assert_eq!(shard.insert("c", 3), Insert::Evicted);
        assert_eq!(shard.get(&"b"), None);
        assert_eq!(shard.get(&"a"), Some(1));
        assert_eq!(shard.get(&"c"), Some(3));
        assert_eq!(shard.len(), 2);
    }

    #[test]
    fn replacing_a_key_does_not_evict() {
        let mut shard: Lru<&str, u32> = Lru::new(2);
        shard.insert("a", 1);
        shard.insert("b", 2);
        assert_eq!(shard.insert("a", 10), Insert::Replaced);
        assert_eq!(shard.get(&"a"), Some(10));
        assert_eq!(shard.get(&"b"), Some(2));
    }

    #[test]
    fn slots_are_reused_after_eviction() {
        let mut shard: Lru<u32, u32> = Lru::new(2);
        for i in 0..100 {
            shard.insert(i, i);
        }
        assert_eq!(shard.len(), 2);
        assert_eq!(shard.slots.len(), 2, "a full shard never grows its slot storage");
        assert_eq!(shard.map.len(), 2);
        assert_eq!((shard.get(&98), shard.get(&99)), (Some(98), Some(99)));
    }

    #[test]
    fn eviction_counts_and_entries_gauge_stay_consistent() {
        let registry = Registry::new();
        let cache: Sharded<u64, u64> = Sharded::new(4, 1, &registry);
        for i in 0..20 {
            cache.insert(i, i);
        }
        let stats = cache.stats();
        assert_eq!(cache.len(), 4);
        assert_eq!(stats.evictions, 16);
        assert_eq!(stats.entries as usize, cache.len());
        let scrape = registry.render_prometheus();
        assert!(scrape.contains("codes_cache_evictions_total{tier=\"full_result\"} 16"), "{scrape}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Whatever sequence of inserts and lookups lands on it, the
        /// sharded LRU never holds more entries than its effective
        /// capacity, and the entries gauge tracks true occupancy.
        #[test]
        fn occupancy_never_exceeds_capacity(
            capacity in 1usize..24,
            shards in 1usize..6,
            ops in proptest::prop::collection::vec(proptest::prelude::any::<u64>(), 1..300),
        ) {
            let cache: Sharded<u16, u32> = Sharded::new(capacity, shards, &Registry::new());
            for &op in &ops {
                // The vendored proptest has no tuple strategies; decode the
                // (key, value, is_insert) triple from one generated word.
                let key = (op % 64) as u16;
                let value = ((op >> 6) % 1000) as u32;
                if (op >> 63) == 1 {
                    cache.insert(key, value);
                } else {
                    let _ = cache.get(&key);
                }
                proptest::prop_assert!(
                    cache.len() <= cache.capacity(),
                    "len {} exceeded effective capacity {}",
                    cache.len(),
                    cache.capacity()
                );
            }
            proptest::prop_assert_eq!(cache.stats().entries as usize, cache.len());
            proptest::prop_assert!(cache.capacity() >= capacity);
        }

        /// A hit always returns the most recently inserted value for the key.
        #[test]
        fn lookups_never_return_stale_values(
            ops in proptest::prop::collection::vec(proptest::prelude::any::<u64>(), 1..200),
        ) {
            let cache: Sharded<u16, u32> = Sharded::new(8, 2, &Registry::new());
            let mut model: HashMap<u16, u32> = HashMap::new();
            for &op in &ops {
                let key = (op % 16) as u16;
                let value = ((op >> 4) % 1000) as u32;
                cache.insert(key, value);
                model.insert(key, value);
                if let Some(got) = cache.get(&key) {
                    proptest::prop_assert_eq!(Some(&got), model.get(&key));
                }
            }
        }
    }
}
