//! Builds the stack exactly as shipped: SFT `CodeS-7B` with classifier and
//! a shared default-sized `SystemCache`, `SystemBackend` over a
//! `CatalogService`/`ConnectionPool`, one shard with `ServeConfig`
//! defaults, `RouterConfig` defaults plus one tenant, and a gateway with
//! `GatewayConfig` defaults, API-key auth and the audit journal on.
//!
//! No knob is tuned for the bench. The three values that differ from
//! `Default::default()` are wiring, not tuning: the cache handle on the
//! shard, the tenant rows (auth and limiter code runs, unmetered), and the
//! journal path.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use codes::{
    pretrain, table4_models, CacheSettings, CodesModel, CodesSystem, PretrainConfig, PretrainedLm,
    PromptOptions, SketchCatalog, SystemCache,
};
use codes_datasets::finance::bank_financials_db;
use codes_datasets::{build_benchmark, Benchmark, BenchmarkConfig};
use codes_gateway::{Gateway, GatewayConfig, GatewayStats, TenantSpec};
use codes_linker::SchemaClassifier;
use codes_obs::Registry;
use codes_router::{Router, RouterConfig, RouterHealth, ShardSpec, TenantConfig};
use codes_serve::{ServeConfig, SystemBackend};
use codes_storage::{
    Backend, CatalogService, ConnectionPool, FaultSpec, FlakyBackend, IntrospectOptions,
    MemoryBackend, PoolConfig,
};
use sqlengine::Database;

use crate::client::{API_KEY, TENANT};
use crate::probe::{Probe, WireCounters};
use crate::workload::Workload;

/// Fixture seeds and sizes, the ones the experiment harness ships with
/// (`codes_bench::workbench` at its default scale).
const SPIDER_SEED: u64 = 0x5B1D;
const BIRD_SEED: u64 = 0xB12D;
const TRAIN_SAMPLES_PER_DB: usize = 60;
const PRETRAIN: PretrainConfig = PretrainConfig {
    scale: 24,
    seed: 0xC0DE5,
};
const CLASSIFIER_SEED: u64 = 0xC1A5;
const MODEL: &str = "CodeS-7B";

/// The databases and training split of one workload.
pub struct Fixture {
    pub bench: Benchmark,
    /// `live_catalog` only: attached over HTTP once the stack is up.
    pub bank: Option<Database>,
    /// Names of the databases that are served and asked about: the
    /// benchmark's dev databases, which training never saw.
    pub served: Vec<String>,
}

impl Fixture {
    pub fn datasets(workload: Workload) -> Fixture {
        let mut cfg = if workload.bird() {
            BenchmarkConfig::bird(BIRD_SEED)
        } else {
            BenchmarkConfig::spider(SPIDER_SEED)
        };
        cfg.train_samples_per_db = TRAIN_SAMPLES_PER_DB;
        // The bench generates its own dev questions from `--seed`.
        cfg.dev_samples_per_db = 4;
        let bench = build_benchmark(if workload.bird() { "bird" } else { "spider" }, &cfg);
        let mut served: Vec<String> = Vec::new();
        for sample in &bench.dev {
            if !served.contains(&sample.db_id) {
                served.push(sample.db_id.clone());
            }
        }
        let bank = (workload == Workload::LiveCatalog).then(|| bank_financials_db(SPIDER_SEED));
        Fixture {
            bench,
            bank,
            served,
        }
    }

    /// The served databases in serving order, Bank-Financials last.
    pub fn served_refs(&self) -> Vec<&Database> {
        self.served
            .iter()
            .filter_map(|id| self.bench.database(id))
            .chain(self.bank.as_ref())
            .collect()
    }
}

/// What training produces; shared by the fresh stacks of a traced run.
pub struct Trained {
    catalog: Arc<SketchCatalog>,
    lm: Arc<PretrainedLm>,
    pub classifier: SchemaClassifier,
}

impl Trained {
    /// Returns the model with the seconds spent on pre-training and on the
    /// schema classifier.
    pub fn train(fixture: &Fixture, workload: Workload) -> (Trained, f64, f64) {
        let started = Instant::now();
        let catalog = Arc::new(SketchCatalog::build());
        let spec = table4_models()
            .into_iter()
            .find(|m| m.name == MODEL)
            .expect("CodeS-7B is a Table 4 model");
        let lm = Arc::new(pretrain(&catalog, &spec, &PRETRAIN));
        let pretrain_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let classifier = SchemaClassifier::train(&fixture.bench, workload.bird(), CLASSIFIER_SEED);
        (
            Trained {
                catalog,
                lm,
                classifier,
            },
            pretrain_s,
            started.elapsed().as_secs_f64(),
        )
    }
}

/// Everything below the router: system, cache, storage, backend.
pub struct Serving {
    pub registry: Arc<Registry>,
    pub system: Arc<CodesSystem>,
    pub cache: Arc<SystemCache>,
    pub service: Arc<CatalogService>,
    /// A second handle on the live store, for writes and late databases.
    pub admin: MemoryBackend,
    pub backend: Arc<SystemBackend>,
    /// Wire counters, when the storage probe is installed.
    pub wire: Option<Arc<WireCounters>>,
    pub finetune_s: f64,
    pub attach_s: f64,
}

impl Serving {
    pub fn start(fixture: &Fixture, trained: &Trained, workload: Workload, probe: bool) -> Serving {
        let registry = Arc::new(Registry::new());
        let started = Instant::now();
        let cache = Arc::new(SystemCache::with_registry(
            &registry,
            CacheSettings::default(),
        ));
        let model = CodesModel::new(Arc::clone(&trained.lm), Arc::clone(&trained.catalog));
        let system = Arc::new(
            CodesSystem::new(model, PromptOptions::sft())
                .with_classifier(trained.classifier.clone())
                .finetune_on(&fixture.bench)
                .with_cache(Arc::clone(&cache)),
        );
        let finetune_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let dbs: Vec<Database> = fixture
            .served
            .iter()
            .filter_map(|id| fixture.bench.database(id).cloned())
            .collect();
        let admin = MemoryBackend::new(dbs);
        let store = MemoryBackend::over(admin.store());
        let mut backend: Arc<dyn Backend> = match workload.wire_latency() {
            Some(delay) => Arc::new(FlakyBackend::new(store, FaultSpec::latency_only(delay))),
            None => Arc::new(store),
        };
        let mut wire = None;
        if probe {
            let (probed, counters) = Probe::new(backend);
            backend = Arc::new(probed);
            wire = Some(counters);
        }
        let pool = ConnectionPool::with_registry(backend, PoolConfig::default(), &registry);
        let service = Arc::new(CatalogService::new(pool, IntrospectOptions::default()));
        // Attaches every database and builds its value index.
        let backend = Arc::new(SystemBackend::with_catalogs(
            Arc::clone(&system),
            Arc::clone(&service),
        ));
        let attach_s = started.elapsed().as_secs_f64();
        Serving {
            registry,
            system,
            cache,
            service,
            admin,
            backend,
            wire,
            finetune_s,
            attach_s,
        }
    }

    /// The shard's pool configuration: defaults plus the cache handle.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            cache: Some(Arc::clone(&self.cache)),
            ..ServeConfig::default()
        }
    }
}

/// Router and gateway over a [`Serving`].
pub struct Edge {
    pub router: Arc<Router>,
    pub gateway: Gateway,
}

impl Edge {
    pub fn start(serving: &Serving, journal: PathBuf) -> Edge {
        let shard = ShardSpec::new(
            Arc::clone(&serving.backend) as Arc<dyn codes_serve::Backend>,
            serving.serve_config(),
        );
        let router = Arc::new(Router::start_with_registry(
            vec![shard],
            RouterConfig {
                tenants: vec![TenantConfig::new(TENANT, 1)],
                ..RouterConfig::default()
            },
            Arc::clone(&serving.registry),
        ));
        // An existing journal would be replayed as history; start empty.
        let _ = std::fs::remove_file(&journal);
        let gateway = Gateway::start_with_storage(
            Arc::clone(&router),
            GatewayConfig {
                // Effectively unmetered: the limiter runs, nothing is shed.
                tenants: vec![TenantSpec::new(TENANT, API_KEY).with_rate(1e9, 1e6)],
                journal_path: Some(journal.clone()),
                ..GatewayConfig::default()
            },
            Arc::clone(&serving.service),
        )
        .expect("loopback bind and journal open");
        Edge { router, gateway }
    }

    /// Drain and stop; returns the gateway's and the router's final
    /// snapshots.
    pub fn shutdown(self) -> (GatewayStats, RouterHealth) {
        let stats = self.gateway.shutdown();
        let router = Arc::into_inner(self.router).expect("the gateway released its router handle");
        (stats, router.shutdown())
    }
}

/// Seconds spent in each set-up step of one stack.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub dataset_s: f64,
    pub pretrain_s: f64,
    pub classifier_s: f64,
    pub finetune_s: f64,
    pub attach_s: f64,
    pub bind_s: f64,
    pub total_s: f64,
}

/// A stack ready to serve its workload.
pub struct Stack {
    pub fixture: Fixture,
    pub trained: Trained,
    pub serving: Serving,
    pub edge: Edge,
    pub times: SetupTimes,
}

/// One full set-up: datasets, pre-training, classifier, SFT, storage
/// attach and index builds, bind — until the gateway answers a health
/// check and, for `live_catalog`, Bank-Financials is attached through
/// `POST /v1/databases`.
pub fn set_up(workload: Workload, journal: &Path, probe: bool) -> Stack {
    let origin = Instant::now();
    let fixture = Fixture::datasets(workload);
    let dataset_s = origin.elapsed().as_secs_f64();
    let (trained, pretrain_s, classifier_s) = Trained::train(&fixture, workload);
    let serving = Serving::start(&fixture, &trained, workload, probe);
    let started = Instant::now();
    let edge = Edge::start(&serving, journal.to_path_buf());
    let mut conn = crate::client::Connection::open(edge.gateway.local_addr())
        .expect("the gateway accepts connections");
    let health = conn
        .exchange(&crate::client::encode_get("/v1/health"))
        .expect("health answers");
    assert_eq!(health.status, 200, "the stack is ready");
    let bind_s = started.elapsed().as_secs_f64();
    let mut attach_s = serving.attach_s;
    if let Some(bank) = &fixture.bank {
        attach_s += attach_over_http(&serving, &mut conn, bank).as_secs_f64();
    }
    let times = SetupTimes {
        dataset_s,
        pretrain_s,
        classifier_s,
        finetune_s: serving.finetune_s,
        attach_s,
        bind_s,
        total_s: origin.elapsed().as_secs_f64(),
    };
    Stack {
        fixture,
        trained,
        serving,
        edge,
        times,
    }
}

/// Put `db` into the live store and attach it through the gateway, the way
/// an operator registers a new database on a running deployment.
pub fn attach_over_http(
    serving: &Serving,
    conn: &mut crate::client::Connection,
    db: &Database,
) -> Duration {
    serving.admin.insert_database(db.clone());
    let wire =
        crate::client::encode_post("/v1/databases", &format!("{{\"db_id\":\"{}\"}}", db.name));
    let started = Instant::now();
    let reply = conn.exchange(&wire).expect("attach answers");
    assert_eq!(
        reply.status,
        200,
        "attach: {}",
        String::from_utf8_lossy(reply.body)
    );
    started.elapsed()
}
