//! Fault-injection stress run for the execution governor and the fault
//! boundaries around it (DESIGN.md "Execution limits & failure semantics").
//!
//! Four sections, each exercising one robustness claim end to end:
//!
//! 1. **Budget kills** — pathological statements (cross-join blowups, deep
//!    nesting, oversized scans) against a real benchmark database must
//!    return `BudgetExceeded` quickly instead of wedging.
//! 2. **Retry semantics** — transient failures retry under halved budgets
//!    with bounded total cost; permanent failures never retry.
//! 3. **Run survival** — an evaluation run whose dev set is poisoned with
//!    `__FAULT_PANIC()` gold queries completes, recording per-sample
//!    failures instead of aborting.
//! 4. **Graceful degradation** — a system missing its classifier and value
//!    indexes under a serving deadline still answers, and reports exactly
//!    which degradations it took.
//! 5. **Pool-level chaos** — a real system behind the supervised serving
//!    pool survives a seeded storm of injected worker panics, stalls and
//!    budget exhaustion: every request resolves to a typed outcome, dead
//!    workers are replaced, and the final health snapshot is clean.

use std::time::{Duration, Instant};

use codes::{CodesModel, CodesSystem, Config, InferenceRequest, PromptOptions};
use codes_bench::workbench;
use codes_eval::{evaluate, EvalConfig, TextTable};
use codes_serve::{
    BreakerConfig, FaultPlan, FaultyBackend, Pool, ServeConfig, SystemBackend,
};
use sqlengine::{execute_query_governed, with_retry, Backoff, Error, ExecLimits};

fn main() {
    let spider = workbench::spider();
    budget_kills(spider);
    retry_semantics();
    run_survival(spider);
    degradation(spider);
    pool_chaos(spider);
}

/// Adversarial statements that must be killed by the evaluation budgets.
fn budget_kills(spider: &codes_datasets::Benchmark) {
    let db = &spider.databases[0];
    let t = &db.tables[0].schema.name;
    let adversarial = [
        ("cross-join blowup", format!("SELECT * FROM {t} a, {t} b, {t} c, {t} d, {t} e")),
        ("self-join square", format!("SELECT a.* FROM {t} a, {t} b")),
        ("deep nesting", {
            let mut q = format!("SELECT * FROM {t}");
            for i in 0..64 {
                q = format!("SELECT * FROM ({q}) AS d{i}");
            }
            q
        }),
    ];
    let limits = ExecLimits {
        max_rows: Some(10_000),
        max_intermediate_rows: Some(50_000),
        ..ExecLimits::evaluation()
    };
    let mut table = TextTable::new("Budget kills (evaluation limits, tightened rows)")
        .headers(&["Statement", "Outcome", "Elapsed (ms)"]);
    for (name, sql) in &adversarial {
        let started = Instant::now();
        let outcome = match execute_query_governed(db, sql, &limits) {
            Ok((result, _)) => format!("completed: {} rows", result.rows.len()),
            Err(Error::BudgetExceeded { resource, spent, limit }) => {
                format!("killed: {} {spent}/{limit}", resource.label())
            }
            Err(other) => format!("error: {other}"),
        };
        let elapsed = started.elapsed().as_secs_f64() * 1_000.0;
        assert!(
            elapsed < 10_000.0,
            "'{name}' ran past the deadline backstop: {elapsed:.0}ms"
        );
        table.row(vec![(*name).to_string(), outcome, format!("{elapsed:.2}")]);
    }
    println!("{}", table.render());
}

/// Transient failures retry under halved budgets; permanent ones do not.
fn retry_semantics() {
    let mut table =
        TextTable::new("Retry semantics").headers(&["Scenario", "Attempts", "Final outcome"]);

    // Transient: every attempt trips a budget; with_retry halves and
    // re-runs until attempts are exhausted.
    let mut attempts = 0u32;
    let limits = ExecLimits { max_rows: Some(64), ..ExecLimits::unlimited() };
    let result: Result<(), Error> = with_retry(&limits, 2, |attempt_limits| {
        attempts += 1;
        Err(Error::BudgetExceeded {
            resource: sqlengine::Resource::Rows,
            spent: attempt_limits.max_rows.unwrap_or(0),
            limit: attempt_limits.max_rows.unwrap_or(0),
        })
    });
    table.row(vec![
        "all attempts budget-killed".to_string(),
        attempts.to_string(),
        format!("{result:?}"),
    ]);
    assert_eq!(attempts, 3, "2 retries = 3 attempts");

    // Permanent: a parse-class failure must not burn retries.
    let mut attempts = 0u32;
    let result: Result<(), Error> = with_retry(&limits, 2, |_| {
        attempts += 1;
        Err(Error::UnknownTable("no_such_table".to_string()))
    });
    table.row(vec![
        "permanent (unknown table)".to_string(),
        attempts.to_string(),
        format!("{result:?}"),
    ]);
    assert_eq!(attempts, 1, "permanent failures must not retry");
    println!("{}", table.render());
}

/// An evaluation run over a dev set poisoned with panicking gold queries
/// completes and reports the failures per sample.
fn run_survival(spider: &codes_datasets::Benchmark) {
    let sys = workbench::sft_system("CodeS-1B", spider, false);
    let mut dev = spider.dev.clone();
    let n = dev.len().min(12);
    dev.truncate(n);
    // Poison every third sample's gold with an injected engine panic.
    let mut poisoned = 0usize;
    for s in dev.iter_mut().step_by(3) {
        s.sql = "SELECT __FAULT_PANIC()".to_string();
        poisoned += 1;
    }
    let cfg = EvalConfig { compute_ts: false, compute_ves: false, ..Default::default() };
    let started = Instant::now();
    // The injected panics are caught at the fault boundaries; silence the
    // global panic hook so they don't spray backtraces over the report.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (outcome, results) = evaluate(&sys, &dev, &spider.databases, &cfg);
    std::panic::set_hook(hook);
    let recorded = results.iter().filter(|r| r.failure.is_some()).count();
    let poisoned_misses = results
        .iter()
        .filter(|r| r.gold.contains("__FAULT_PANIC") && !r.ex)
        .count();
    let mut table = TextTable::new("Run survival under injected panics").headers(&[
        "Samples",
        "Poisoned",
        "Poisoned misses",
        "Sample failures",
        "EX",
        "Elapsed (ms)",
    ]);
    table.row(vec![
        outcome.n.to_string(),
        poisoned.to_string(),
        poisoned_misses.to_string(),
        recorded.to_string(),
        format!("{:.2}", outcome.ex),
        format!("{:.0}", started.elapsed().as_secs_f64() * 1_000.0),
    ]);
    println!("{}", table.render());
    assert_eq!(outcome.n, n, "run must complete every sample");
    // A panicking gold is caught at the innermost fault boundary it crosses:
    // either the metric layer converts it into a scoring miss, or the
    // per-sample boundary records it on `failure`. Both keep the run alive,
    // and in neither case may the sample score an execution match.
    assert_eq!(
        poisoned_misses, poisoned,
        "every panicking gold must score a miss (or a recorded failure)"
    );
}

/// A half-provisioned system under serving deadlines degrades instead of
/// failing, and reports what it gave up.
fn degradation(spider: &codes_datasets::Benchmark) {
    let model = CodesModel::new(workbench::pretrained("CodeS-1B"), workbench::catalog());
    // No classifier, no pre-built value indexes, tight serving budgets.
    let sys = CodesSystem::new(model, PromptOptions::sft()).with_config(Config::serving());
    let s = &spider.dev[0];
    let db = spider.database(&s.db_id).expect("dev sample references a known db");
    let out = sys.infer(db, &InferenceRequest::new(&s.db_id, &s.question));
    let mut table =
        TextTable::new("Graceful degradation (no classifier, no indexes, serving config)")
            .headers(&["Degradations taken", "SQL produced"]);
    let notes = if out.degradations.is_empty() {
        "(none)".to_string()
    } else {
        out.degradations.join("; ")
    };
    table.row(vec![notes, out.sql.clone()]);
    println!("{}", table.render());
    assert!(!out.sql.is_empty(), "degraded inference must still answer");
    assert!(
        out.degradations.iter().any(|d| d.contains("classifier missing")),
        "missing classifier must be reported: {:?}",
        out.degradations
    );
}

/// A real SFT system behind the supervised pool under a seeded fault storm:
/// every request resolves, crashed/wedged workers are replaced, and the
/// queue drains clean on shutdown.
fn pool_chaos(spider: &codes_datasets::Benchmark) {
    let sys = workbench::sft_system("CodeS-1B", spider, false);
    let backend = SystemBackend::new(sys, spider.databases.clone());
    let plan = FaultPlan {
        seed: 0xFA0175,
        panic_prob: 0.15,
        stall_prob: 0.10,
        stall: Duration::from_millis(400),
        budget_prob: 0.10,
    };
    let config = ServeConfig {
        workers: 4,
        queue_capacity: 24,
        default_deadline: Duration::from_secs(20),
        heartbeat_interval: Duration::from_millis(10),
        wedged_after: Duration::from_millis(150),
        breaker: BreakerConfig {
            failure_threshold: 8,
            backoff: Backoff::new(Duration::from_millis(20), Duration::from_millis(200), 0xB0B),
        },
        ..ServeConfig::default()
    };
    let pool = Pool::start(FaultyBackend::new(backend, plan), config);

    // Injected panics are expected and typed at the pool boundary; keep
    // their backtraces out of the report (real panics in other threads are
    // also silenced for the duration of this section — the asserts below
    // would still catch a malfunction).
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let started = Instant::now();
    let total = 120usize;
    let mut tickets = Vec::new();
    let mut shed_at_admission = 0usize;
    for i in 0..total {
        let sample = &spider.dev[i % spider.dev.len()];
        match pool.submit(InferenceRequest::new(&sample.db_id, &sample.question)) {
            Ok(t) => tickets.push(t),
            Err(codes::Error::Overloaded { .. }) => shed_at_admission += 1,
            Err(e) => panic!("unexpected admission failure: {e}"),
        }
        // Offered load ~2x capacity: enough pressure to demonstrate
        // backpressure without shedding the whole run at admission.
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut served = 0usize;
    let mut by_kind: std::collections::BTreeMap<&'static str, usize> = Default::default();
    for ticket in tickets {
        match ticket.wait_timeout(Duration::from_secs(10)).expect("no request may hang") {
            Ok(_) => served += 1,
            Err(e) => *by_kind.entry(e.kind()).or_default() += 1,
        }
    }
    let elapsed_ms = started.elapsed().as_secs_f64() * 1_000.0;
    let health = pool.shutdown();
    std::panic::set_hook(hook);

    let mut table = TextTable::new("Pool-level chaos (supervised pool, seeded fault storm)")
        .headers(&["Outcome", "Requests"]);
    table.row(vec!["served".to_string(), served.to_string()]);
    table.row(vec!["overloaded (admission)".to_string(), shed_at_admission.to_string()]);
    for (kind, n) in &by_kind {
        table.row(vec![(*kind).to_string(), n.to_string()]);
    }
    println!("{}", table.render());

    let mut table = TextTable::new("Pool health after drain").headers(&[
        "Queue",
        "In flight",
        "Workers replaced (panic)",
        "Workers replaced (wedged)",
        "Elapsed (ms)",
    ]);
    table.row(vec![
        health.queue_depth.to_string(),
        health.in_flight.to_string(),
        health.stats.replaced_panic.to_string(),
        health.stats.replaced_wedged.to_string(),
        format!("{elapsed_ms:.0}"),
    ]);
    println!("{}", table.render());

    let resolved: usize = served + shed_at_admission + by_kind.values().sum::<usize>();
    assert_eq!(resolved, total, "every request must resolve to a typed outcome");
    assert_eq!(health.queue_depth, 0, "shutdown must drain the queue");
    assert_eq!(health.in_flight, 0, "shutdown must leave nothing in flight");
    assert!(served > 0, "healthy requests must still be served under chaos");
    assert!(
        health.stats.replaced_panic > 0,
        "the fault plan must have exercised worker replacement"
    );
}
