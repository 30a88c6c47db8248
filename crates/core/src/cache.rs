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
//! One [`SystemCache`] belongs to one trained system: keys do not embed the
//! model or classifier weights, so sharing a cache between systems with
//! different weights would serve one system the other's answers.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use codes_cache::{
    CacheConfig, CacheStats, GenerationMap, RevisionMap, ShardedCache, INVALIDATIONS_TOTAL,
};
use codes_obs::{Counter, Registry};
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

/// Capacity/TTL policy of the result cache.
#[derive(Debug, Clone, Copy)]
pub struct CacheSettings {
    /// Entries (one SQL string each).
    pub full_capacity: usize,
    /// Shards.
    pub shards: usize,
    /// Optional TTL; `None` relies on LRU pressure and generation bumps
    /// alone.
    pub ttl: Option<Duration>,
}

impl Default for CacheSettings {
    fn default() -> CacheSettings {
        CacheSettings { full_capacity: 8192, shards: 8, ttl: None }
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
        SystemCache {
            generations: GenerationMap::new(),
            revisions: RevisionMap::new(),
            full: ShardedCache::with_metrics(
                CacheConfig {
                    capacity: settings.full_capacity,
                    shards: settings.shards,
                    ttl: settings.ttl,
                },
                registry,
                "full_result",
            ),
            invalidations: registry.counter(INVALIDATIONS_TOTAL, &[]),
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
