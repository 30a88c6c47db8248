//! The end-to-end text-to-SQL system: schema classifier + value indexes +
//! demonstration retriever + model, wired per Figure 3 (d)/(e).
//!
//! Inference degrades gracefully instead of failing: a missing classifier
//! means an unfiltered schema (noted, not fatal), a missing value index is
//! built lazily while the inference deadline allows it, and a nearly-blown
//! deadline shrinks the beam to greedy. Every degradation taken is recorded
//! on the [`Inference`] so callers can audit quality loss.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use codes_datasets::{Benchmark, Sample};
use codes_linker::{SchemaClassifier, SchemaProfile};
use codes_obs::{
    Span, StageTimings, STAGE_METADATA, STAGE_PROMPT_BUILD, STAGE_SCHEMA_FILTER,
    STAGE_VALUE_RETRIEVAL,
};
use codes_retrieval::{DemoRetriever, DemoStrategy, ValueIndex};
use parking_lot::RwLock;
use sqlengine::Database;

use crate::cache::SystemCache;
use crate::config::Config;
use crate::model::{finetune, CodesModel, Generation, GenerationBatchItem};
use crate::prompt::{
    stage_assemble, stage_metadata, stage_schema_filter, stage_value_retrieval, DbPrompt,
    PromptOptions,
};
use crate::request::InferenceRequest;

/// Few-shot configuration.
#[derive(Debug, Clone, Copy)]
pub struct FewShot {
    /// Number of demonstrations per question.
    pub k: usize,
    /// Retrieval strategy (Eq. 4 / ablations).
    pub strategy: DemoStrategy,
}

/// A ready-to-serve text-to-SQL system.
pub struct CodesSystem {
    /// The generation model.
    pub model: CodesModel,
    /// Schema-item classifier powering the schema filter.
    pub classifier: Option<SchemaClassifier>,
    /// Prompt-construction options (incl. ablation switches).
    pub options: PromptOptions,
    /// Runtime robustness configuration (execution budgets, inference
    /// deadline, retry policy).
    pub config: Config,
    /// Pre-built BM25 value indexes keyed by database id (shared between
    /// systems — building them is the offline cost of §6.2). Behind a lock
    /// so `infer(&self)` can fill a missing index lazily.
    value_indexes: RwLock<HashMap<String, Arc<ValueIndex>>>,
    /// Demonstration pool + retriever (ICL mode).
    demo_pool: Arc<Vec<Sample>>,
    demo_retriever: Option<Arc<DemoRetriever>>,
    /// Few-shot configuration (None = SFT/zero-shot mode).
    pub few_shot: Option<FewShot>,
    /// Optional result cache: [`CodesSystem::infer`] reconciles the
    /// database's catalog revision with it; the serving pool holds the same
    /// `Arc` for admission lookups.
    cache: Option<Arc<SystemCache>>,
}

/// A database's derived serving state, built from one revision of its
/// catalog by [`CodesSystem::build_database`] and not yet installed.
pub struct PreparedDatabase {
    db_id: String,
    revision: u64,
    index: Arc<ValueIndex>,
    profile: Option<Arc<SchemaProfile>>,
}

impl PreparedDatabase {
    /// The catalog revision it was built from.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The BM25 value index.
    pub fn index(&self) -> &Arc<ValueIndex> {
        &self.index
    }

    /// The schema filter's profile; `None` when the system filters no
    /// schema.
    pub fn profile(&self) -> Option<&Arc<SchemaProfile>> {
        self.profile.as_ref()
    }
}

/// One inference outcome.
#[derive(Debug, Clone)]
pub struct Inference {
    /// The chosen SQL.
    pub sql: String,
    /// Full generation output (beam with scores).
    pub generation: Generation,
    /// Wall-clock latency of the full online pipeline (prompt construction
    /// + generation), in seconds.
    pub latency_seconds: f64,
    /// Prompt length in whitespace tokens.
    pub prompt_tokens: usize,
    /// Graceful degradations taken during this inference (unfiltered
    /// schema, lazy/skipped value index, beam shrunk to greedy). Empty on
    /// a fully-resourced inference.
    pub degradations: Vec<String>,
    /// Wall-clock seconds per Algorithm-1 stage. The same durations feed
    /// the global `codes_stage_duration_seconds` histogram via spans.
    pub stages: StageTimings,
}

impl CodesSystem {
    /// A system with no classifier, indexes or demonstrations yet.
    pub fn new(model: CodesModel, options: PromptOptions) -> CodesSystem {
        CodesSystem {
            model,
            classifier: None,
            options,
            config: Config::default(),
            value_indexes: RwLock::new(HashMap::new()),
            demo_pool: Arc::new(Vec::new()),
            demo_retriever: None,
            few_shot: None,
            cache: None,
        }
    }

    /// Attach a trained schema-item classifier (enables the schema filter).
    pub fn with_classifier(mut self, clf: SchemaClassifier) -> CodesSystem {
        self.classifier = Some(clf);
        self
    }

    /// Attach a result cache. Shares the `Arc` with the serving pool so the
    /// revision fence here and the admission lookups there agree on
    /// generations. A cache must not be shared between systems with
    /// different weights or classifiers — keys embed neither.
    pub fn with_cache(mut self, cache: Arc<SystemCache>) -> CodesSystem {
        self.cache = Some(cache);
        self
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<SystemCache>> {
        self.cache.as_ref()
    }

    /// Replace the runtime robustness configuration.
    pub fn with_config(mut self, config: Config) -> CodesSystem {
        self.config = config;
        self
    }

    /// Pre-build the BM25 value index and schema profile of every database
    /// (the offline part of §6.1–6.2; `prepare_database` can be called
    /// lazily too). Runtime method: takes `&self` like every other
    /// post-construction operation.
    pub fn prepare_databases<'a>(&self, dbs: impl Iterator<Item = &'a Database>) {
        for db in dbs {
            self.prepare_database(db);
        }
    }

    /// Make one database servable: build its BM25 value index and the
    /// schema filter's profile of it, and reconcile the attached cache with
    /// its revision, so the cache generation reflects the state the catalog
    /// was read from. [`CodesSystem::build_database`], then
    /// [`CodesSystem::commit_database`].
    pub fn prepare_database(&self, db: &Database) {
        self.commit_database(self.build_database(db));
    }

    /// The pure half of [`CodesSystem::prepare_database`]: derive `db`'s
    /// value index and schema profile without installing either. An index
    /// or a profile current for `db.revision()` is taken as-is; an index
    /// built for an earlier catalog state is rebuilt, taking over its BM25
    /// index when no text value changed.
    pub fn build_database(&self, db: &Database) -> PreparedDatabase {
        let profile = match &self.classifier {
            Some(classifier) if self.options.use_schema_filter => {
                Some(classifier.build_profile(db))
            }
            _ => None,
        };
        let previous = self.value_indexes.read().get(&db.name).cloned();
        let index = match previous {
            Some(index) if index.built_revision() == db.revision() => index,
            previous => Arc::new(ValueIndex::build_reusing(db, previous.as_deref())),
        };
        PreparedDatabase { db_id: db.name.clone(), revision: db.revision(), index, profile }
    }

    /// The installing half of [`CodesSystem::prepare_database`]: hold
    /// `prepared`'s index and profile in place of the database's current
    /// ones, and reconcile the attached cache with its revision.
    pub fn commit_database(&self, prepared: PreparedDatabase) {
        let PreparedDatabase { db_id, revision, index, profile } = prepared;
        if let (Some(classifier), Some(profile)) = (&self.classifier, profile) {
            classifier.install_profile(&db_id, profile);
        }
        self.value_indexes.write().insert(db_id.clone(), index);
        if let Some(cache) = self.cache.as_ref() {
            cache.observe_revision_token(&db_id, revision);
        }
    }

    /// Install already-built value indexes (shared across systems).
    pub fn install_value_indexes(&self, indexes: &HashMap<String, Arc<ValueIndex>>) {
        let mut mine = self.value_indexes.write();
        for (k, v) in indexes {
            mine.insert(k.clone(), Arc::clone(v));
        }
    }

    /// A snapshot of the currently-built value indexes (for sharing with
    /// another system via [`CodesSystem::install_value_indexes`]).
    pub fn value_index_snapshot(&self) -> HashMap<String, Arc<ValueIndex>> {
        self.value_indexes.read().clone()
    }

    /// Install a demonstration pool for few-shot in-context learning.
    pub fn with_demonstrations(mut self, pool: Vec<Sample>, few_shot: FewShot) -> CodesSystem {
        let questions: Vec<String> = pool.iter().map(|s| s.question.clone()).collect();
        self.demo_retriever = Some(Arc::new(DemoRetriever::new(
            self.model.pretrained.embedder.clone(),
            &questions,
        )));
        self.demo_pool = Arc::new(pool);
        self.few_shot = Some(few_shot);
        self
    }

    /// Install an already-built retriever + pool (shared across systems).
    pub fn with_shared_demonstrations(
        mut self,
        pool: Arc<Vec<Sample>>,
        retriever: Arc<DemoRetriever>,
        few_shot: FewShot,
    ) -> CodesSystem {
        self.demo_retriever = Some(retriever);
        self.demo_pool = pool;
        self.few_shot = Some(few_shot);
        self
    }

    /// Fine-tune the model on a benchmark's training split (Figure 3(d)).
    /// Build-time operation: consumes and returns the system like the other
    /// `with_*` builders, so fully-constructed systems can be immutable.
    pub fn finetune_on(mut self, benchmark: &Benchmark) -> CodesSystem {
        let pairs = benchmark
            .train
            .iter()
            .filter_map(|s| benchmark.database(&s.db_id).map(|db| (s, db)));
        finetune(&mut self.model, pairs);
        self
    }

    /// Fine-tune on explicit (sample, database) pairs (e.g. augmented or
    /// merged data, Table 10). Consuming builder, like
    /// [`CodesSystem::finetune_on`].
    pub fn finetune_pairs<'a>(
        mut self,
        pairs: impl Iterator<Item = (&'a Sample, &'a Database)>,
    ) -> CodesSystem {
        finetune(&mut self.model, pairs);
        self
    }

    /// Answer a request over a database: an [`CodesSystem::infer_batch`]
    /// of one.
    pub fn infer(&self, db: &Database, request: &InferenceRequest) -> Inference {
        self.infer_batch(db, std::slice::from_ref(request))
            .pop()
            .expect("one inference per request")
    }

    /// Answer N ≥ 1 requests over one database in a single model pass
    /// ([`CodesModel::generate_governed_batch`]).
    ///
    /// Each [`InferenceRequest`] carries the question, optional external
    /// knowledge, and optional per-request [`Config`]/deadline overrides
    /// (resolved via [`InferenceRequest::resolved_config`]); the same type
    /// feeds the serving pool's `submit`.
    ///
    /// Degrades gracefully instead of failing (each degradation is recorded
    /// on the returned [`Inference`]):
    ///
    /// * classifier missing while the schema filter is on → unfiltered
    ///   schema in the prompt;
    /// * value index missing → built lazily if the inference deadline still
    ///   allows it, otherwise value retrieval is skipped;
    /// * inference deadline nearly spent → beam truncated to greedy.
    ///
    /// Every stage runs — and records its span — once per member, so
    /// `StageTimings` and degradations stay per-member. The members share
    /// the database, so they share its value index: the first member
    /// resolves it (and pays for any lazy build) and the degradation that
    /// took belongs to every member. Generation shares LM scores and
    /// execution verdicts across members, which never changes an answer:
    /// each member's SQL is what the same request answers in a batch of one.
    pub fn infer_batch(&self, db: &Database, requests: &[InferenceRequest]) -> Vec<Inference> {
        let start = Instant::now();
        let configs: Vec<Config> =
            requests.iter().map(|r| r.resolved_config(&self.config)).collect();
        // The revision fence: a mutated database bumps its generation here,
        // so no admission after this point is served a pre-mutation answer.
        if let Some(cache) = self.cache.as_ref() {
            cache.observe_revision(db);
        }
        // Resolved under the first member's budget — the pool only batches
        // requests with compatible configs and deadline classes, so the
        // members agree on whether a lazy build is affordable.
        let mut shared_index = None;

        struct Member<'a> {
            prompt: DbPrompt,
            demos: Vec<&'a Sample>,
            degradations: Vec<String>,
            stages: StageTimings,
        }

        let mut members: Vec<Member<'_>> = Vec::with_capacity(requests.len());
        for (request, config) in requests.iter().zip(&configs) {
            let question = request.question.as_str();
            let external_knowledge = request.knowledge();
            let mut degradations = Vec::new();
            let mut stages = StageTimings::zero();

            if self.options.use_schema_filter && self.classifier.is_none() {
                degradations.push("classifier missing: unfiltered schema in prompt".to_string());
            }

            // Algorithm 1, one span per stage. Spans feed the global
            // `codes_stage_duration_seconds` histogram and the trace ring;
            // their durations also ride along on the returned Inference.
            let span = Span::enter(STAGE_SCHEMA_FILTER);
            let filtered = stage_schema_filter(
                db,
                question,
                external_knowledge,
                self.classifier.as_ref(),
                &self.options,
            );
            stages.schema_filter = span.finish().as_secs_f64();

            // Index resolution is part of the retrieval stage: when the
            // index must be built on demand, that cost IS value retrieval.
            let span = Span::enter(STAGE_VALUE_RETRIEVAL);
            let (value_index, index_degradation) =
                shared_index.get_or_insert_with(|| self.resolve_value_index(db, start, config));
            degradations.extend(index_degradation.clone());
            let matched_values = stage_value_retrieval(
                &filtered,
                question,
                external_knowledge,
                value_index.as_deref(),
                &self.options,
            );
            stages.value_retrieval = span.finish().as_secs_f64();

            let span = Span::enter(STAGE_METADATA);
            let tables = stage_metadata(db, &filtered, &self.options);
            stages.metadata = span.finish().as_secs_f64();

            let span = Span::enter(STAGE_PROMPT_BUILD);
            let prompt = stage_assemble(db, tables, matched_values, &self.options);
            let demos: Vec<&Sample> = match (&self.demo_retriever, self.few_shot) {
                (Some(retriever), Some(fs)) => retriever
                    .retrieve(question, fs.k, fs.strategy)
                    .into_iter()
                    .map(|i| &self.demo_pool[i])
                    .collect(),
                _ => Vec::new(),
            };
            stages.prompt_build = span.finish().as_secs_f64();

            if config.nearly_spent(start.elapsed()) {
                degradations
                    .push("inference deadline nearly spent: beam truncated to greedy".to_string());
            }
            members.push(Member { prompt, demos, degradations, stages });
        }

        // Generation and execution selection record their own spans (see
        // `CodesModel::generate_governed_batch`) and report the durations
        // back.
        let items: Vec<GenerationBatchItem<'_>> = members
            .iter()
            .zip(requests)
            .zip(&configs)
            .map(|((member, request), config)| GenerationBatchItem {
                prompt: &member.prompt,
                question: &request.question,
                external_knowledge: request.knowledge(),
                demos: &member.demos,
                config,
                started: start,
            })
            .collect();
        let generations = self.model.generate_governed_batch(db, &items);
        drop(items);

        members
            .into_iter()
            .zip(generations)
            .map(|(member, generation)| {
                let mut stages = member.stages;
                stages.generation = generation.generation_seconds;
                stages.execution_selection = generation.selection_seconds;
                Inference {
                    sql: generation.sql.clone(),
                    generation,
                    latency_seconds: start.elapsed().as_secs_f64(),
                    prompt_tokens: member.prompt.token_len(),
                    degradations: member.degradations,
                    stages,
                }
            })
            .collect()
    }

    /// Look up the value index for `db`, building it lazily when allowed;
    /// the second half of the pair is the degradation taken, if any.
    ///
    /// Returns no index (value retrieval skipped) when it is absent and the
    /// inference deadline no longer leaves room for a lazy build. No-op when
    /// value retrieval is off entirely.
    fn resolve_value_index(
        &self,
        db: &Database,
        started: Instant,
        config: &Config,
    ) -> (Option<Arc<ValueIndex>>, Option<String>) {
        if !self.options.use_value_retriever {
            return (None, None);
        }
        let previous = match self.value_indexes.read().get(&db.name) {
            // Current index: the fast path, no degradation.
            Some(idx) if idx.built_revision() == db.revision() => {
                return (Some(Arc::clone(idx)), None);
            }
            previous => previous.cloned(),
        };
        if config.allow_lazy_index_build(started.elapsed()) {
            let built = Arc::new(ValueIndex::build_reusing(db, previous.as_deref()));
            self.value_indexes.write().insert(db.name.clone(), Arc::clone(&built));
            let note = if previous.is_some() {
                format!("value index for '{}' rebuilt after database change", db.name)
            } else {
                format!("value index for '{}' built lazily", db.name)
            };
            (Some(built), Some(note))
        } else {
            let note =
                format!("value index for '{}' unavailable: value retrieval skipped", db.name);
            (None, Some(note))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::table4_models;
    use crate::pretrain::{pretrain, PretrainConfig};
    use crate::sketch::SketchCatalog;
    use std::sync::Arc;
    use std::time::Duration;

    fn mini_benchmark() -> Benchmark {
        let mut cfg = codes_datasets::BenchmarkConfig::spider(51);
        cfg.train_samples_per_db = 10;
        cfg.dev_samples_per_db = 4;
        codes_datasets::build_benchmark("mini", &cfg)
    }

    fn system(name: &str) -> CodesSystem {
        let catalog = Arc::new(SketchCatalog::build());
        let spec = table4_models().into_iter().find(|m| m.name == name).unwrap();
        let lm = pretrain(&catalog, &spec, &PretrainConfig { scale: 10, seed: 3 });
        CodesSystem::new(CodesModel::new(lm, catalog), PromptOptions::sft())
    }

    fn req(s: &Sample) -> InferenceRequest {
        InferenceRequest::new(&s.db_id, &s.question)
    }

    #[test]
    fn end_to_end_sft_inference() {
        let bench = mini_benchmark();
        let clf = SchemaClassifier::train(&bench, false, 7);
        let sys = system("CodeS-7B").with_classifier(clf).finetune_on(&bench);
        sys.prepare_databases(bench.databases.iter());
        let mut executable = 0usize;
        let n = bench.dev.len().min(20);
        for s in bench.dev.iter().take(n) {
            let db = bench.database(&s.db_id).unwrap();
            let out = sys.infer(db, &req(s));
            if sqlengine::execute_query(db, &out.sql).is_ok() {
                executable += 1;
            }
            assert!(out.latency_seconds < 5.0);
            assert!(out.prompt_tokens > 0);
        }
        assert!(
            executable as f64 / n as f64 > 0.8,
            "only {executable}/{n} outputs executable"
        );
    }

    #[test]
    fn sft_beats_zero_shot_on_dev_accuracy() {
        let bench = mini_benchmark();
        let clf = SchemaClassifier::train(&bench, false, 7);
        let sft = system("CodeS-7B").with_classifier(clf.clone()).finetune_on(&bench);
        sft.prepare_databases(bench.databases.iter());
        let zero = system("CodeS-7B").with_classifier(clf);
        zero.prepare_databases(bench.databases.iter());

        let n = bench.dev.len().min(30);
        let acc = |sys: &CodesSystem| {
            let mut correct = 0usize;
            for s in bench.dev.iter().take(n) {
                let db = bench.database(&s.db_id).unwrap();
                let out = sys.infer(db, &req(s));
                let gold = sqlengine::execute_query(db, &s.sql).unwrap();
                if let Ok(pred) = sqlengine::execute_query(db, &out.sql) {
                    if pred.same_result(&gold) {
                        correct += 1;
                    }
                }
            }
            correct as f64 / n as f64
        };
        let a_sft = acc(&sft);
        let a_zero = acc(&zero);
        assert!(
            a_sft >= a_zero,
            "SFT ({a_sft:.2}) should not be worse than zero-shot ({a_zero:.2})"
        );
        assert!(a_sft > 0.3, "SFT accuracy suspiciously low: {a_sft:.2}");
    }

    #[test]
    fn request_deadline_propagates_to_inference() {
        let bench = mini_benchmark();
        let sys = system("CodeS-1B");
        sys.prepare_databases(bench.databases.iter());
        let s = &bench.dev[0];
        let db = bench.database(&s.db_id).unwrap();
        // A request admitted with (effectively) no time left must degrade
        // to greedy rather than fail — and still answer.
        let starved =
            req(s).with_config(Config::serving()).with_deadline(Duration::from_nanos(1));
        let out = sys.infer(db, &starved);
        assert!(!out.sql.is_empty());
        assert!(
            out.degradations.iter().any(|d| d.contains("greedy")),
            "starved deadline must truncate the beam: {:?}",
            out.degradations
        );
        // The override is per-request: the system's own config still applies.
        let relaxed = sys.infer(db, &req(s));
        assert!(!relaxed.degradations.iter().any(|d| d.contains("greedy")));
    }

    #[test]
    fn inference_reports_all_six_stage_timings() {
        let bench = mini_benchmark();
        let clf = SchemaClassifier::train(&bench, false, 7);
        let sys = system("CodeS-1B").with_classifier(clf);
        sys.prepare_databases(bench.databases.iter());
        let s = &bench.dev[0];
        let db = bench.database(&s.db_id).unwrap();
        let out = sys.infer(db, &req(s));
        for (stage, seconds) in out.stages.entries() {
            assert!(seconds > 0.0, "stage {stage} reported zero seconds");
        }
        // Stage work happens inside the measured pipeline: the stage sum
        // cannot exceed the end-to-end latency.
        assert!(out.stages.total() <= out.latency_seconds);
    }

    #[test]
    fn inference_over_a_mutated_catalog_bumps_the_cache_generation_once() {
        use crate::cache::CacheSettings;

        let bench = mini_benchmark();
        let registry = codes_obs::Registry::new();
        let cache = Arc::new(SystemCache::with_registry(&registry, CacheSettings::default()));
        let sys = system("CodeS-1B").with_cache(Arc::clone(&cache));
        sys.prepare_databases(bench.databases.iter());
        let s = &bench.dev[0];
        let db = bench.database(&s.db_id).unwrap();

        let first = sys.infer(db, &req(s));
        let unmutated = db.clone();
        assert_eq!(sys.infer(&unmutated, &req(s)).sql, first.sql);
        assert_eq!(cache.generation(&db.name), 0, "an unmutated clone is the same catalog state");
        assert_eq!(cache.stats().invalidations, 0);

        let mut mutated = db.clone();
        let table = mutated.tables[0].schema.name.clone();
        mutated.table_mut(&table).expect("table exists");
        sys.infer(&mutated, &req(s));
        sys.infer(&mutated, &req(s));
        assert_eq!(cache.generation(&db.name), 1, "one mutation, one bump");
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn few_shot_retrieval_feeds_demonstrations() {
        let bench = mini_benchmark();
        let sys = system("CodeS-3B").with_demonstrations(
            bench.train.clone(),
            FewShot { k: 3, strategy: DemoStrategy::PatternAware },
        );
        sys.prepare_databases(bench.databases.iter());
        let s = &bench.dev[0];
        let db = bench.database(&s.db_id).unwrap();
        let out = sys.infer(db, &req(s));
        assert!(!out.sql.is_empty());
    }

    /// A fine-tuned system over one prepared database plus a small pool of
    /// requests against it, built once for every generated case.
    fn batch_fixture() -> &'static (CodesSystem, Database, Vec<InferenceRequest>) {
        static FIXTURE: std::sync::OnceLock<(CodesSystem, Database, Vec<InferenceRequest>)> =
            std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let bench = mini_benchmark();
            let clf = SchemaClassifier::train(&bench, false, 7);
            let sys = system("CodeS-7B").with_classifier(clf).finetune_on(&bench);
            sys.prepare_databases(bench.databases.iter());
            let db = bench.database(&bench.dev[0].db_id).unwrap().clone();
            let pool: Vec<InferenceRequest> =
                bench.dev.iter().filter(|s| s.db_id == db.name).take(4).map(req).collect();
            assert_eq!(pool.len(), 4, "need a question pool to draw batches from");
            (sys, db, pool)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

        /// Cross-member sharing (LM memo, duplicate-decode collapse, shared
        /// execution verdicts) never changes an answer: each member of an
        /// N-batch — duplicates included, which a pool of four makes common
        /// — answers exactly as the same request in a batch of one.
        #[test]
        fn batched_inference_matches_solo_sql(
            picks in proptest::prop::collection::vec(0usize..4, 1..9),
        ) {
            let (sys, db, pool) = batch_fixture();
            let requests: Vec<InferenceRequest> = picks.iter().map(|&i| pool[i].clone()).collect();
            let batched = sys.infer_batch(db, &requests);
            proptest::prop_assert_eq!(batched.len(), requests.len());
            for (request, out) in requests.iter().zip(&batched) {
                let alone = sys.infer(db, request);
                proptest::prop_assert!(
                    out.sql == alone.sql,
                    "batched SQL diverged from a batch of one for {:?}", request.question
                );
                proptest::prop_assert!(out.degradations.is_empty(), "{:?}", out.degradations);
            }
        }
    }
}
