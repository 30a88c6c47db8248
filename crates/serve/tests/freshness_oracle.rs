//! The freshness oracle: whatever was written before a request was
//! submitted, its reply is what the system answers on the store as it stood
//! at submit. A [`Pool`] (one worker, with the result cache) serves from a
//! [`SystemBackend`] over a [`MemoryBackend`]; seeded sequences of asks,
//! repeated so that result-cache hits occur, are mixed with writes that
//! nobody invalidates — a new table, inserted rows, a changed text value.
//! Every reply's SQL must equal [`CodesSystem::infer`] on a snapshot of the
//! store taken at its submit. Nothing here reads a clock or sleeps; bounded
//! waits only turn a hang into a failure.

use std::sync::Arc;
use std::time::Duration;

use codes::{
    pretrain, table4_models, CacheSettings, CodesModel, CodesSystem, Config, PretrainConfig,
    PretrainedLm, PromptOptions, SketchCatalog, SystemCache,
};
use codes_obs::Registry;
use codes_serve::{InferenceRequest, Pool, ServeConfig, SystemBackend};
use codes_storage::{CatalogService, ConnectionPool, IntrospectOptions, MemoryBackend, PoolConfig};
use sqlengine::{Column, DataType, Database, TableSchema, Value};

const DB: &str = "shop";
const HANG: Duration = Duration::from_secs(30);

/// Asks drawn from: each names a table or a value that some write below
/// creates, changes or already holds.
const QUESTIONS: [&str; 8] = [
    "How many tickets are there?",
    "How many events are there?",
    "List the label of all events",
    "Which events have the label opened?",
    "How many refunds are there?",
    "Show the amount of every invoice",
    "Which events have the label audit?",
    "How many events have the label close?",
];

/// Tables a write may add, in order.
const NEW_TABLES: [&str; 3] = ["tickets", "refunds", "invoices"];

fn shop() -> Database {
    let mut db = Database::new(DB);
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

fn lm() -> (Arc<PretrainedLm>, Arc<SketchCatalog>) {
    let sketches = Arc::new(SketchCatalog::build());
    let spec = table4_models().into_iter().find(|m| m.name == "CodeS-1B").expect("known model");
    (Arc::new(pretrain(&sketches, &spec, &PretrainConfig { scale: 10, seed: 3 })), sketches)
}

fn system(lm: &(Arc<PretrainedLm>, Arc<SketchCatalog>)) -> CodesSystem {
    CodesSystem::new(
        CodesModel::new(Arc::clone(&lm.0), Arc::clone(&lm.1)),
        PromptOptions::sft().without_schema_filter(),
    )
    .with_config(Config::serving())
}

/// The served stack and, beside it, the system that says what each reply
/// must be.
struct Oracle {
    admin: MemoryBackend,
    pool: Pool,
    reference: CodesSystem,
    tables_added: usize,
    rows_added: i64,
}

impl Oracle {
    fn start(lm: &(Arc<PretrainedLm>, Arc<SketchCatalog>)) -> Oracle {
        let registry = Arc::new(Registry::new());
        let cache = Arc::new(SystemCache::with_registry(&registry, CacheSettings::default()));
        let served = Arc::new(system(lm).with_cache(Arc::clone(&cache)));
        let admin = MemoryBackend::new(vec![shop()]);
        let pool = ConnectionPool::with_registry(
            Arc::new(MemoryBackend::over(admin.store())),
            PoolConfig::default(),
            &registry,
        );
        let service = Arc::new(CatalogService::new(pool, IntrospectOptions::default()));
        let backend = SystemBackend::with_registry(served, service, &registry);
        let config = ServeConfig { workers: 1, cache: Some(cache), ..ServeConfig::default() };
        Oracle {
            admin,
            pool: Pool::start_with_registry(backend, config, registry),
            reference: system(lm),
            tables_added: 0,
            rows_added: 0,
        }
    }

    /// Submit `question`; its reply must be what the reference answers on
    /// the store as it stands now. Returns the reply's SQL and whether it
    /// was a result-cache hit.
    fn ask(&self, question: &str, context: &str) -> (String, bool) {
        let snapshot = self.admin.store().read().get(DB).expect("shop is registered").clone();
        let ticket = self.pool.submit(InferenceRequest::new(DB, question)).expect("admitted");
        let served = ticket.wait_timeout(HANG).expect("resolved").expect("answered");
        let expected = self.reference.infer(&snapshot, &InferenceRequest::new(DB, question)).sql;
        assert_eq!(served.sql, expected, "{context}: {question:?} (cached: {})", served.cached);
        (served.sql, served.cached)
    }

    /// One write, chosen by `pick`; nobody invalidates anything.
    fn write(&mut self, pick: u64) -> String {
        match pick % 3 {
            0 if self.tables_added < NEW_TABLES.len() => {
                let table = NEW_TABLES[self.tables_added];
                self.tables_added += 1;
                self.admin
                    .mutate(DB, |db| {
                        let t = db
                            .create_table(TableSchema::new(
                                table,
                                vec![
                                    Column::new("id", DataType::Integer).primary_key(),
                                    Column::new("amount", DataType::Integer),
                                ],
                            ))
                            .expect("fresh table");
                        t.insert(vec![1.into(), 10.into()]).expect("row fits");
                    })
                    .expect("shop is registered");
                format!("created {table}")
            }
            1 => {
                self.rows_added += 1;
                let id = 100 + self.rows_added;
                let label = ["audit", "opened", "close"][(pick / 3 % 3) as usize];
                self.admin
                    .mutate(DB, |db| {
                        db.table_mut("events")
                            .expect("events")
                            .insert(vec![id.into(), label.into()])
                            .expect("row fits");
                    })
                    .expect("shop is registered");
                format!("inserted event {id} '{label}'")
            }
            _ => {
                let label = ["opened", "open", "closed", "audit"][(pick / 3 % 4) as usize];
                self.admin
                    .mutate(DB, |db| {
                        let events = db.table_mut("events").expect("events");
                        events.rows[0][1] = Value::Text(label.to_string());
                    })
                    .expect("shop is registered");
                format!("relabelled event 1 '{label}'")
            }
        }
    }
}

/// SplitMix64: the seeded draws of one sequence.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The reproduction: an answer from before a write, then the same question
/// after it. The repeat must not be the pre-write answer, hit or not.
#[test]
fn a_question_asked_again_after_a_write_is_answered_on_the_write() {
    let lm = lm();
    let mut oracle = Oracle::start(&lm);
    let (before, _) = oracle.ask(QUESTIONS[0], "before the write");
    assert!(before.contains("FROM events"), "the store has no tickets yet: {before}");
    oracle.write(0);
    let (after, cached) = oracle.ask(QUESTIONS[0], "after the write");
    assert!(after.contains("FROM tickets"), "the write added tickets: {after}");
    assert!(!cached, "the pre-write answer is out of reach");
    oracle.pool.shutdown();
}

#[test]
fn every_reply_matches_inference_on_the_store_at_its_submit() {
    let lm = lm();
    let (mut hits, mut writes) = (0, 0);
    for seed in 0..6u64 {
        let mut oracle = Oracle::start(&lm);
        let mut draws = Draws(seed);
        let mut log = Vec::new();
        for step in 0..30 {
            let draw = draws.next();
            if draw.is_multiple_of(4) {
                log.push(oracle.write(draw >> 2));
                writes += 1;
                continue;
            }
            // Four questions most of the time, so repeats hit.
            let span = if draw.is_multiple_of(5) { QUESTIONS.len() } else { 4 };
            let question = QUESTIONS[(draw >> 8) as usize % span];
            let context = format!("seed {seed} step {step} after {log:?}");
            let (_, cached) = oracle.ask(question, &context);
            hits += u64::from(cached);
        }
        oracle.pool.shutdown();
    }
    assert!(hits > 0 && writes > 0, "the sequences mixed hits ({hits}) and writes ({writes})");
}
