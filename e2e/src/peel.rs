//! The traced run: a *peel*. The first requests of the workload's
//! sequence are replayed by one caller once per entry point, outermost to
//! innermost, each time against a fresh identically-configured stack:
//!
//! `gateway` (HTTP, buffered and streamed) → `router`
//! (`Router::submit_as` + `Ticket::wait`) → `serve` (`Pool::submit` +
//! wait) → `backend` (`SystemBackend::infer`) → `core`
//! (`CodesSystem::infer`) → leaves timed alone on the same inputs.
//!
//! Every call is one span; the span one level in is its child, paired by
//! request index, and a layer's self time is its span minus its child's.
//! Requests that the `serve` replay answered from the cache never reach
//! `backend` or below, so they have no spans there. Spans inside the
//! program are ROADMAP item 2; when they land they replace the peel under
//! the same metric names.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use codes::{CodesSystem, Config, InferenceRequest, PromptOptions, SystemCacheStats};
use codes_gateway::{envelope, GatewayStats, HttpResponse, ParseLimits, RequestParser};
use codes_obs::StageTimings;
use codes_retrieval::ValueIndex;
use codes_router::RouterHealth;
use codes_serve::{Backend as _, Pool, ServeConfig, ServeError, ServedInference, Ticket};
use codes_storage::PoolStats;

use crate::check::verify;
use crate::client::TENANT;
use crate::load::{drive, write_row, Drive, Framing, Outcome, Stop, Wires};
use crate::measure::gold_databases;
use crate::probe::WireSnapshot;
use crate::report::{Metric, Report};
use crate::stack::{set_up, Edge, Fixture, Serving, Stack, Trained};
use crate::stats::{mean, percentile, self_times_ms, sorted, SpanLog};
use crate::workload::{plan, Plan, Sizes, Workload};

/// Replays in a traced run, the untraced one included; each may use this
/// share of `--seconds`.
const PASSES: f64 = 8.0;

/// Warm-up of the traced replays. `hot_repeat` keeps its whole warming
/// pass; the others keep this many requests so that eight replays of a
/// 10 ms request still fit the run.
const PEEL_WARMUP: usize = 50;

/// Counters of every layer, read at one instant.
#[derive(Clone, Copy)]
struct Counters {
    cache: SystemCacheStats,
    storage: PoolStats,
    wire: WireSnapshot,
}

fn counters(serving: &Serving) -> Counters {
    Counters {
        cache: serving.cache.stats(),
        storage: serving.service.pool().stats(),
        wire: serving
            .wire
            .as_ref()
            .map(|w| w.snapshot())
            .unwrap_or_default(),
    }
}

/// What stays the same over the replays of one traced run.
struct Peel<'a> {
    /// Span times count from here.
    epoch: Instant,
    workload: Workload,
    fixture: &'a Fixture,
    trained: &'a Trained,
    plan: &'a Plan,
    wires: &'a Wires,
    /// One `InferenceRequest` per question, built before any clock starts.
    requests: Vec<InferenceRequest>,
    warmup: usize,
    scratch: &'a Path,
}

impl Peel<'_> {
    /// A fresh stack below the router, with the storage probe installed
    /// and, for `live_catalog`, Bank-Financials attached.
    fn serving(&self) -> Serving {
        let serving = Serving::start(self.fixture, self.trained, self.workload, true);
        if let Some(bank) = &self.fixture.bank {
            serving.admin.insert_database(bank.clone());
            serving
                .service
                .attach(&bank.name)
                .expect("Bank-Financials attaches");
        }
        serving
    }

    /// One single-caller replay over HTTP. Returns the load's outcome with
    /// the gateway's and router's final snapshots.
    fn over_http(
        &self,
        serving: &Serving,
        framing: Framing,
        stop: Stop,
        on_warmed: Option<&(dyn Fn() + Sync)>,
    ) -> (Outcome, GatewayStats, RouterHealth) {
        let edge = Edge::start(serving, self.scratch.join("audit.jsonl"));
        let outcome = drive(&Drive {
            epoch: self.epoch,
            plan: self.plan,
            wires: self.wires,
            admin: &serving.admin,
            addr: edge.gateway.local_addr(),
            connections: 1,
            framing,
            warmup: self.warmup,
            stop,
            keep_all: true,
            windows: 0,
            on_warmed,
        });
        let (stats, health) = edge.shutdown();
        (outcome, stats, health)
    }

    /// Replay through an entry point that takes a request and resolves to
    /// a served inference (`Router::submit_as`, `Pool::submit`): one span
    /// per measured request under `parents`, plus what the replies said.
    #[allow(clippy::too_many_arguments)]
    fn submit_replay(
        &self,
        serving: &Serving,
        n: usize,
        parents: &Links,
        log: &mut SpanLog,
        layer: &'static str,
        name: &'static str,
        submit: impl Fn(InferenceRequest) -> Result<codes_serve::Outcome, ServeError>,
    ) -> (Links, Replies) {
        let mut links: Links = vec![None; n];
        let mut replies = Replies::default();
        self.in_process(serving, n, |index, slot, timed| {
            let request = self.requests[slot].clone();
            let start = log.now_ns();
            let outcome = submit(request);
            let end = log.now_ns();
            if timed {
                let at = index - self.warmup;
                links[at] = Some(log.record(index as u32, parents[at], layer, name, start, end));
                replies.take(
                    index,
                    outcome.and_then(|served| served).map_err(|e| e.to_string()),
                );
            }
        });
        (links, replies)
    }

    /// Walk requests `0..warmup + n` in order on this thread, writing the
    /// rows `live_catalog` schedules; `call(index, slot, timed)`.
    fn in_process(&self, serving: &Serving, n: usize, mut call: impl FnMut(usize, usize, bool)) {
        for index in 0..self.warmup + n {
            let Some(slot) = self.plan.slot_at(index) else {
                break;
            };
            if self.plan.writes_before(index) {
                let db_id = &self.plan.questions[slot].db_id;
                write_row(&serving.admin, db_id, self.plan.write_pick(index));
                // What `POST /v1/invalidate` comes down to below the edge.
                serving.cache.invalidate_database(db_id);
            }
            call(index, slot, index >= self.warmup);
        }
    }
}

/// One replay's span ids by request position (`index - warmup`).
type Links = Vec<Option<u32>>;

/// What the replies of one in-process replay said, by request position.
#[derive(Default)]
struct Replies {
    cached: Vec<bool>,
    failed: u64,
    errors: Vec<String>,
}

impl Replies {
    fn take(&mut self, index: usize, outcome: Result<ServedInference, String>) {
        match outcome {
            Ok(served) => self.cached.push(served.cached),
            Err(what) => {
                self.cached.push(false);
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(format!("request {index}: {what}"));
                }
            }
        }
    }
}

fn p50(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), 0.50).value
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    scratch: &Path,
    spans_path: &Path,
) -> Report {
    let epoch = Instant::now();
    let fixture = Fixture::datasets(workload);
    let plan = plan(workload, seed, &fixture.served_refs(), sizes);
    let wires = Wires::encode(&plan);
    drop(fixture);
    let mut report = Report::new(workload);
    report.note(format!(
        "seed {seed:#x}, request sequence hash {:#018x}",
        plan.sequence_hash()
    ));
    let mut log = SpanLog::new(epoch);

    // ---- untraced single caller: the figure the peel must add up to ----
    let journal = scratch.join("audit.jsonl");
    let stack = set_up(workload, &journal, false);
    let setup = stack.times;
    let Stack {
        fixture,
        trained,
        serving: first_serving,
        edge: first_edge,
        ..
    } = stack;
    let warmup = if workload == Workload::HotRepeat {
        plan.warmup
    } else {
        plan.warmup.min(PEEL_WARMUP)
    };
    let untraced = drive(&Drive {
        epoch,
        plan: &plan,
        wires: &wires,
        admin: &first_serving.admin,
        addr: first_edge.gateway.local_addr(),
        connections: 1,
        framing: Framing::Buffered,
        warmup,
        stop: Stop {
            after: Some((Duration::from_secs_f64(seconds / PASSES), sizes.peel_min)),
            requests: Some(sizes.peel_max),
        },
        keep_all: true,
        windows: 0,
        on_warmed: None,
    });
    first_edge.shutdown();
    drop(first_serving);
    // Every later replay covers exactly the requests this one measured.
    let n = untraced.samples.len().max(1);
    let single_qps = untraced.samples.len() as f64 / untraced.wall_s.max(1e-9);
    let single_p50 = p50(untraced.samples.iter().map(|s| s.latency_ms()).collect());
    let base_config = ServeConfig::default();
    let peel = Peel {
        epoch,
        workload,
        fixture: &fixture,
        trained: &trained,
        plan: &plan,
        wires: &wires,
        requests: plan
            .questions
            .iter()
            .map(|q| {
                let request = InferenceRequest::new(&q.db_id, &q.question);
                match &q.knowledge {
                    Some(knowledge) => request.with_knowledge(knowledge),
                    None => request,
                }
            })
            .collect(),
        warmup,
        scratch,
    };
    let count = Stop {
        after: None,
        requests: Some(n),
    };
    let position = |index: u32| index as usize - warmup;

    // ---- gateway, buffered: spans, response fields, layer counters ----
    let gw_serving = peel.serving();
    let at_warmed: Mutex<Option<Counters>> = Mutex::new(None);
    let snapshot = || *at_warmed.lock().expect("snapshot lock") = Some(counters(&gw_serving));
    let (traced, gw_stats, gw_health) =
        peel.over_http(&gw_serving, Framing::Buffered, count, Some(&snapshot));
    let before = at_warmed
        .lock()
        .expect("snapshot lock")
        .expect("the load reached its measured phase");
    let after = counters(&gw_serving);
    let traced_qps = traced.samples.len() as f64 / traced.wall_s.max(1e-9);
    let mut gateway_links: Links = vec![None; n];
    for sample in &traced.samples {
        gateway_links[position(sample.index)] = Some(log.record(
            sample.index,
            None,
            "gateway",
            "infer",
            sample.start_ns,
            sample.end_ns(),
        ));
    }
    let golds = gold_databases(&fixture, &gw_serving, workload);
    let verdict = verify(&plan, &traced.kept, &golds);
    report.attempted = traced.attempted;
    report.failed = traced.failed + verdict.failed + untraced.failed;
    report.errors.extend(
        untraced
            .errors
            .iter()
            .chain(&traced.errors)
            .chain(&verdict.errors)
            .cloned(),
    );
    for (what, count) in [
        ("gateway infer_admitted", gw_stats.infer_admitted),
        ("gateway infer_resolved", gw_stats.infer_resolved),
        ("gateway journal_records", gw_stats.journal_records),
    ] {
        if count != traced.attempted {
            report.gate(format!(
                "{what} is {count}, the client sent {}",
                traced.attempted
            ));
        }
    }
    // Every database was harvested once when it was attached; the rest
    // are refreshes, one per write: the request behind a write misses the
    // invalidated cache, is dispatched, and the dispatch's sync refreshes.
    let attached = gw_serving.service.attached().len() as u64;
    if after.wire.harvests - attached != traced.writes.len() as u64 {
        report.gate(format!(
            "{} refreshes after {} writes",
            after.wire.harvests - attached,
            traced.writes.len()
        ));
    }
    let measured: Vec<_> = verdict
        .served
        .iter()
        .filter(|(index, _)| *index as usize >= warmup)
        .map(|(_, s)| s)
        .collect();

    // ---- gateway, streamed ----
    let (streamed, _, _) = {
        let serving = peel.serving();
        peel.over_http(&serving, Framing::Streamed, count, None)
    };
    report.failed += streamed.failed;
    report.errors.extend(streamed.errors.iter().cloned());
    for sample in &streamed.samples {
        let start = sample.start_ns;
        let whole = log.record(
            sample.index,
            None,
            "gateway",
            "infer_stream",
            start,
            sample.end_ns(),
        );
        if sample.first_event_ns > 0 {
            let first = start + u64::from(sample.first_event_ns);
            log.record(
                sample.index,
                Some(whole),
                "gateway",
                "stream_first_event",
                start,
                first,
            );
        }
    }

    // ---- router ----
    let (router_links, router_replies) = {
        let serving = peel.serving();
        let edge = Edge::start(&serving, scratch.join("audit.jsonl"));
        let replay = peel.submit_replay(
            &serving,
            n,
            &gateway_links,
            &mut log,
            "router",
            "submit_as",
            |request| edge.router.submit_as(TENANT, request).map(Ticket::wait),
        );
        edge.shutdown();
        replay
    };

    // ---- serve ----
    let (serve_links, serve_replies) = {
        let serving = peel.serving();
        let backend = Arc::clone(&serving.backend) as Arc<dyn codes_serve::Backend>;
        let pool = Pool::start_shared(
            backend,
            serving.serve_config(),
            Arc::clone(&serving.registry),
        );
        let replay = peel.submit_replay(
            &serving,
            n,
            &router_links,
            &mut log,
            "serve",
            "submit",
            |request| pool.submit(request).map(Ticket::wait),
        );
        pool.shutdown();
        replay
    };
    // Requests the pool answered from its cache never reach the backend.
    let reaches_backend: Vec<bool> = serve_replies.cached.iter().map(|cached| !cached).collect();

    // ---- backend ----
    // What the pool hands its backend: the base config clamped to the
    // request's remaining deadline, here the whole default deadline.
    let config: Config = base_config
        .base_config
        .clamped_to_deadline(base_config.default_deadline);
    let mut backend_links: Links = vec![None; n];
    let mut backend_failed = 0u64;
    {
        let serving = peel.serving();
        peel.in_process(&serving, n, |index, slot, timed| {
            if timed && !reaches_backend[index - warmup] {
                return;
            }
            let start = log.now_ns();
            let reply = serving
                .backend
                .infer(&peel.requests[slot], index as u64, &config);
            let end = log.now_ns();
            backend_failed += u64::from(reply.is_err());
            if timed {
                let at = index - warmup;
                backend_links[at] = Some(log.record(
                    index as u32,
                    serve_links[at],
                    "backend",
                    "infer",
                    start,
                    end,
                ));
            }
        });
    }

    // ---- core, then the leaves on the same stack and inputs ----
    let core_serving = peel.serving();
    let mut core_links: Links = vec![None; n];
    let mut core_sql: Vec<Option<String>> = vec![None; n];
    // Stage times by request; zero for the requests the cache answered.
    let mut core_stages: Vec<StageTimings> = vec![StageTimings::zero(); n];
    peel.in_process(&core_serving, n, |index, slot, timed| {
        if timed && !reaches_backend[index - warmup] {
            return;
        }
        let mut request = peel.requests[slot].clone();
        request.config = Some(config);
        // The backend syncs before it calls the core; not the core's time.
        let _ = core_serving.service.sync(&request.db_id);
        let catalog = core_serving
            .service
            .catalog(&request.db_id)
            .expect("the database is attached");
        let start = log.now_ns();
        let inference = core_serving.system.infer(&catalog.database, &request);
        let end = log.now_ns();
        if timed {
            let at = index - warmup;
            core_links[at] =
                Some(log.record(index as u32, backend_links[at], "core", "infer", start, end));
            core_stages[at] = inference.stages;
            core_sql[at] = Some(inference.sql);
        }
    });
    let leaves = leaves(
        &peel,
        &core_serving,
        &gw_serving,
        n,
        &core_links,
        &backend_links,
        &core_sql,
        &measured,
        &mut log,
    );

    // ---- metrics ----
    report.failed += router_replies.failed + serve_replies.failed + backend_failed;
    report.errors.extend(
        router_replies
            .errors
            .iter()
            .chain(&serve_replies.errors)
            .cloned(),
    );
    report.errors.truncate(8);
    let spans = log.spans();
    let self_p50 = |layer: &str, name: &str| p50(self_times_ms(spans, layer, name));
    // Backend time per request, 0 for the requests that never reach it,
    // so that the four p50s describe the same population.
    let backend_all: Vec<f64> = (0..n)
        .map(|at| backend_links[at].map_or(0.0, |id| spans[id as usize].duration_ns() as f64 / 1e6))
        .collect();
    let (gateway_self, router_self, serve_self, backend_p50) = (
        self_p50("gateway", "infer"),
        self_p50("router", "submit_as"),
        self_p50("serve", "submit"),
        p50(backend_all),
    );
    let stage =
        |read: fn(&StageTimings) -> f64| p50(core_stages.iter().map(|s| read(s) * 1e3).collect());
    let core_ms = sorted(
        (0..n)
            .map(|at| {
                core_links[at].map_or(0.0, |id| spans[id as usize].duration_ns() as f64 / 1e6)
            })
            .collect(),
    );
    let queue_wait = sorted(measured.iter().map(|s| s.queue_wait_ms).collect());
    // Hit share of one tier over the measured phase, from (hits, misses).
    let cache = |tier: fn(&SystemCacheStats) -> (u64, u64)| {
        let ((hits_before, misses_before), (hits, misses)) =
            (tier(&before.cache), tier(&after.cache));
        ratio(
            hits - hits_before,
            (hits - hits_before) + (misses - misses_before),
        )
    };
    let evictions =
        |s: &SystemCacheStats| s.schema.evictions + s.values.evictions + s.full.evictions;
    let wire = after.wire.since(&before.wire);
    let pool = &gw_health.shards[0].pool;
    let render_started = Instant::now();
    let exposition = gw_serving.registry.render_prometheus();
    let render_ms = render_started.elapsed().as_secs_f64() * 1e3;
    let queue_p50 = percentile(&queue_wait, 0.50);
    let queue_p95 = percentile(&queue_wait, 0.95);
    let core_p95 = percentile(&core_ms, 0.95);
    report.per_layer = vec![
        Metric::new("gateway.self_ms_p50", gateway_self, "ms"),
        Metric::new("gateway.parse_us_p50", leaves.parse_us, "us"),
        Metric::new("gateway.serialize_us_p50", leaves.serialize_us, "us"),
        Metric::new(
            "gateway.stream_ttfe_ms_p50",
            p50(log.durations_ms("gateway", "stream_first_event")),
            "ms",
        ),
        Metric::new(
            "gateway.stream_ttc_ms_p50",
            p50(log.durations_ms("gateway", "infer_stream")),
            "ms",
        ),
        Metric::new("gateway.reconnects", traced.reconnects as f64, "count"),
        Metric::new(
            "gateway.journal_lines",
            gw_stats.journal_records as f64,
            "count",
        ),
        Metric::new("router.self_ms_p50", router_self, "ms"),
        Metric::new(
            "router.shed_total",
            (gw_health.aggregated.shed_overloaded
                + gw_health.aggregated.shed_breaker
                + gw_health.aggregated.shed_deadline
                + gw_serving
                    .registry
                    .counters_by_name(codes_router::SHED)
                    .iter()
                    .map(|(_, v)| v)
                    .sum::<u64>()) as f64,
            "count",
        ),
        Metric::new("serve.self_ms_p50", serve_self, "ms"),
        Metric::new("serve.queue_wait_ms_p50", queue_p50.value, "ms").with_sample(queue_p50, 0.50),
        Metric::new("serve.queue_wait_ms_p95", queue_p95.value, "ms").with_sample(queue_p95, 0.95),
        Metric::new(
            "serve.batch_size_mean",
            ratio(
                pool.metrics.batch_size.sum_ns,
                pool.metrics.batch_size.count,
            ),
            "count",
        ),
        Metric::new(
            "serve.served_from_cache_share",
            ratio(
                measured.iter().filter(|s| s.cached).count() as u64,
                measured.len() as u64,
            ),
            "ratio",
        ),
        Metric::new(
            "cache.t1_hit_share",
            cache(|s| (s.schema.hits, s.schema.misses)),
            "ratio",
        ),
        Metric::new(
            "cache.t2_hit_share",
            cache(|s| (s.values.hits, s.values.misses)),
            "ratio",
        ),
        Metric::new(
            "cache.t3_hit_share",
            cache(|s| (s.full.hits, s.full.misses)),
            "ratio",
        ),
        Metric::new("cache.lookup_full_us_p50", leaves.lookup_full_us, "us"),
        Metric::new(
            "cache.evictions",
            (evictions(&after.cache) - evictions(&before.cache)) as f64,
            "count",
        ),
        Metric::new(
            "cache.invalidations",
            (after.cache.invalidations - before.cache.invalidations) as f64,
            "count",
        ),
        Metric::new("core.infer_ms_p50", percentile(&core_ms, 0.50).value, "ms"),
        Metric::new("core.infer_ms_p95", core_p95.value, "ms").with_sample(core_p95, 0.95),
        Metric::new(
            "core.schema_filter_ms_p50",
            stage(|s| s.schema_filter),
            "ms",
        ),
        Metric::new(
            "core.value_retrieval_ms_p50",
            stage(|s| s.value_retrieval),
            "ms",
        ),
        Metric::new("core.metadata_ms_p50", stage(|s| s.metadata), "ms"),
        Metric::new("core.prompt_build_ms_p50", stage(|s| s.prompt_build), "ms"),
        Metric::new("core.generation_ms_p50", stage(|s| s.generation), "ms"),
        Metric::new(
            "core.execution_selection_ms_p50",
            stage(|s| s.execution_selection),
            "ms",
        ),
        Metric::new(
            "core.prompt_tokens_mean",
            mean(&measured.iter().map(|s| s.prompt_tokens).collect::<Vec<_>>()),
            "tokens",
        ),
        Metric::new(
            "core.degraded_share",
            ratio(
                measured
                    .iter()
                    .filter(|s| !s.degradations.is_empty())
                    .count() as u64,
                measured.len() as u64,
            ),
            "ratio",
        ),
        Metric::new("linker.filter_schema_us_p50", leaves.filter_schema_us, "us"),
        Metric::new(
            "linker.columns_scored_mean",
            leaves.columns_scored_mean,
            "count",
        ),
        Metric::new("retrieval.retrieve_us_p50", leaves.retrieve_us, "us"),
        Metric::new("retrieval.index_build_ms_p50", leaves.index_build_ms, "ms"),
        Metric::new("retrieval.index_values", leaves.index_values, "count"),
        Metric::new("sqlengine.execute_us_p50", leaves.execute_us.0, "us"),
        Metric::new("sqlengine.execute_us_p95", leaves.execute_us.1, "us"),
        Metric::new(
            "sqlengine.result_rows_mean",
            leaves.result_rows_mean,
            "rows",
        ),
        Metric::new("storage.sync_ms_p50", leaves.sync_ms, "ms"),
        Metric::new("storage.refresh_ms_p50", leaves.refresh_ms, "ms"),
        Metric::new("storage.attach_ms", leaves.attach_ms, "ms"),
        Metric::new("storage.checkout_us_p50", leaves.checkout_us, "us"),
        Metric::new(
            "storage.ops_per_req",
            ratio(wire.ops, traced.samples.len() as u64),
            "count",
        ),
        Metric::new("storage.refreshes", wire.harvests as f64, "count"),
        Metric::new(
            "storage.pool_established",
            after.storage.established as f64,
            "count",
        ),
        Metric::new("obs.render_ms", render_ms, "ms"),
        Metric::new(
            "obs.series",
            exposition
                .lines()
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .count() as f64,
            "count",
        ),
        Metric::new(
            "trace.overhead_share",
            1.0 - traced_qps / single_qps.max(1e-9),
            "ratio",
        ),
        Metric::new("trace.single_caller_lat_p50_ms", single_p50, "ms"),
        Metric::new(
            "trace.peel_sum_ms",
            gateway_self + router_self + serve_self + backend_p50,
            "ms",
        ),
        Metric::new("trace.backend_ms_p50", backend_p50, "ms"),
        Metric::new("setup.dataset_s", setup.dataset_s, "s"),
        Metric::new("setup.pretrain_s", setup.pretrain_s, "s"),
        Metric::new("setup.classifier_s", setup.classifier_s, "s"),
        Metric::new("setup.finetune_s", setup.finetune_s, "s"),
        Metric::new("setup.attach_s", setup.attach_s, "s"),
        Metric::new("setup.bind_s", setup.bind_s, "s"),
        Metric::new("client.requests", traced.attempted as f64, "count"),
        Metric::new("client.warmup_requests", warmup as f64, "count"),
        Metric::new(
            "client.fail_share",
            ratio(report.failed, report.attempted),
            "ratio",
        ),
    ];
    report.note(format!(
        "{n} traced requests per replay after {warmup} warm-up; {} of them reach the backend",
        reaches_backend.iter().filter(|r| **r).count()
    ));
    match log.write_jsonl(spans_path) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            log.spans().len(),
            spans_path.display()
        )),
        Err(e) => report.gate(format!(
            "could not write spans to {}: {e}",
            spans_path.display()
        )),
    }
    report
}

/// What the leaf calls read, each timed alone on the traced inputs.
struct Leaves {
    parse_us: f64,
    serialize_us: f64,
    lookup_full_us: f64,
    filter_schema_us: f64,
    columns_scored_mean: f64,
    retrieve_us: f64,
    index_build_ms: f64,
    index_values: f64,
    /// p50 and p95.
    execute_us: (f64, f64),
    result_rows_mean: f64,
    sync_ms: f64,
    refresh_ms: f64,
    attach_ms: f64,
    checkout_us: f64,
}

/// Time a call and record it as a span under `parent`.
fn timed<T>(
    log: &mut SpanLog,
    trace: u32,
    parent: Option<u32>,
    layer: &'static str,
    name: &'static str,
    call: impl FnOnce() -> T,
) -> (T, f64) {
    let start = log.now_ns();
    let out = call();
    let end = log.now_ns();
    log.record(trace, parent, layer, name, start, end);
    (out, (end - start) as f64 / 1e3)
}

#[allow(clippy::too_many_arguments)]
fn leaves(
    peel: &Peel<'_>,
    serving: &Serving,
    gw_serving: &Serving,
    n: usize,
    core_links: &Links,
    backend_links: &Links,
    core_sql: &[Option<String>],
    measured: &[&crate::check::Served],
    log: &mut SpanLog,
) -> Leaves {
    let system: &CodesSystem = &serving.system;
    let options: PromptOptions = system.options;
    let indexes = system.value_index_snapshot();
    let (mut parse, mut filter, mut retrieve, mut execute, mut sync, mut lookup) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let (mut columns, mut rows) = (Vec::new(), Vec::new());
    let fingerprint = codes::config_fingerprint(&ServeConfig::default().base_config);
    for at in 0..n {
        let index = peel.warmup + at;
        let Some(slot) = peel.plan.slot_at(index) else {
            break;
        };
        let question = &peel.plan.questions[slot];
        let trace = index as u32;

        // Edge leaves: every request is parsed and looked up in T3.
        let wire = peel.wires.buffered(slot);
        let (parsed, us) = timed(log, trace, None, "gateway", "parse", || {
            RequestParser::new(ParseLimits::default()).feed(wire)
        });
        assert!(
            matches!(parsed, Ok(Some(_))),
            "the bench's own request parses"
        );
        parse.push(us);
        let key = codes::normalize_question(&question.question, question.knowledge.as_deref());
        let generation = gw_serving.cache.generation(&question.db_id);
        let (_, us) = timed(log, trace, None, "cache", "lookup_full", || {
            gw_serving
                .cache
                .lookup_full(&question.db_id, generation, &key, fingerprint)
        });
        lookup.push(us);

        // Pipeline leaves: only for requests that reach the core.
        let Some(core) = core_links[at] else { continue };
        let catalog = serving
            .service
            .catalog(&question.db_id)
            .expect("the database is attached");
        let db = &catalog.database;
        let (_, us) = timed(log, trace, Some(core), "linker", "filter_schema", || {
            codes::stage_schema_filter(
                db,
                &question.question,
                question.knowledge.as_deref(),
                system.classifier.as_ref(),
                &options,
            )
        });
        filter.push(us);
        columns.push(
            db.tables
                .iter()
                .map(|t| t.schema.columns.len())
                .sum::<usize>() as f64,
        );
        if let Some(index) = indexes.get(&question.db_id) {
            let query = match &question.knowledge {
                Some(knowledge) => format!("{} {knowledge}", question.question),
                None => question.question.clone(),
            };
            let (_, us) = timed(log, trace, Some(core), "retrieval", "retrieve", || {
                index.retrieve(
                    &query,
                    options.coarse_k,
                    options.fine_k,
                    options.min_match_degree,
                )
            });
            retrieve.push(us);
        }
        if let Some(sql) = &core_sql[at] {
            let (result, us) = timed(log, trace, Some(core), "sqlengine", "execute", || {
                sqlengine::execute_query(db, sql)
            });
            execute.push(us);
            rows.push(result.map_or(0.0, |r| r.row_count() as f64));
        }
        let (_, us) = timed(log, trace, backend_links[at], "storage", "sync", || {
            serving.service.sync(&question.db_id)
        });
        sync.push(us / 1e3);
    }

    let serialize: Vec<f64> = measured
        .iter()
        .take(n)
        .map(|served| {
            let payload = served_payload(served);
            let started = Instant::now();
            let bytes = HttpResponse::json(200, &envelope::success(payload)).encode(false);
            let us = started.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(bytes);
            us
        })
        .collect();

    // Storage leaves per database: checkout, index build, refresh after a
    // write, full attach. Last, because they write to this stack's store.
    let (mut checkout, mut build, mut refresh, mut attach) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut index_values = 0.0;
    for (round, db_id) in serving
        .service
        .attached()
        .iter()
        .cycle()
        .take(3 * serving.service.attached().len())
        .enumerate()
    {
        let started = Instant::now();
        let conn = serving.service.pool().checkout();
        checkout.push(started.elapsed().as_secs_f64() * 1e6);
        drop(conn);
        let catalog = serving.service.catalog(db_id).expect("attached");
        let started = Instant::now();
        let index = ValueIndex::build(&catalog.database);
        build.push(started.elapsed().as_secs_f64() * 1e3);
        if round < serving.service.attached().len() {
            index_values += index.len() as f64;
        }
        write_row(&serving.admin, db_id, round as u64);
        let started = Instant::now();
        let _ = serving.service.sync(db_id);
        refresh.push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        let _ = serving.service.attach(db_id);
        attach.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let execute = sorted(execute);
    Leaves {
        parse_us: p50(parse),
        serialize_us: p50(serialize),
        lookup_full_us: p50(lookup),
        filter_schema_us: p50(filter),
        columns_scored_mean: mean(&columns),
        retrieve_us: p50(retrieve),
        index_build_ms: p50(build),
        index_values,
        execute_us: (
            percentile(&execute, 0.50).value,
            percentile(&execute, 0.95).value,
        ),
        result_rows_mean: mean(&rows),
        sync_ms: p50(sync),
        refresh_ms: p50(refresh),
        attach_ms: p50(attach),
        checkout_us: p50(checkout),
    }
}

/// The payload the gateway serialises for one served inference, rebuilt
/// from a parsed response (the gateway's own builder is private).
fn served_payload(served: &crate::check::Served) -> serde::Json {
    use serde::Json;
    Json::Obj(vec![
        ("sql".to_string(), Json::Str(served.sql.clone())),
        ("request_id".to_string(), Json::Int(0)),
        ("tenant".to_string(), Json::Str(TENANT.to_string())),
        ("cached".to_string(), Json::Bool(served.cached)),
        ("worker".to_string(), Json::Int(0)),
        ("latency_ms".to_string(), Json::Num(served.latency_ms)),
        ("queue_wait_ms".to_string(), Json::Num(served.queue_wait_ms)),
        (
            "prompt_tokens".to_string(),
            Json::Int(served.prompt_tokens as i64),
        ),
        (
            "degradations".to_string(),
            Json::Arr(
                served
                    .degradations
                    .iter()
                    .map(|d| Json::Str(d.clone()))
                    .collect(),
            ),
        ),
    ])
}
