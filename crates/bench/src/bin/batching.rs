//! Micro-batching benchmark: throughput and latency of the serving pool at
//! `max_batch` 1 (batching disabled) vs 4/8/16 over an offered burst of
//! compatible requests.
//!
//! One worker, no result cache (every request reaches the backend), all
//! requests on the same database so they share a compatibility key. With
//! batching enabled the worker drains up to `max_batch` queued requests per
//! dispatch and the batched decode shares one value-index resolution and
//! one LM score memo across members, and collapses duplicate members into
//! a single decode — repeated questions amortize almost the whole
//! generation stage.
//!
//! Formation is work-conserving — a worker batches what is already queued
//! and never waits for more — so a burst batches because it queues behind
//! the busy worker, and a lone closed-loop caller (one request in flight
//! at a time, nothing ever queued behind it) must see the same latency
//! with batching on as with it off. The last two rows check exactly that.
//!
//! Run with: `cargo run --release -p codes-bench --bin batching`

use std::sync::Arc;
use std::time::{Duration, Instant};

use codes::InferenceRequest;
use codes_bench::workbench::{self, percentile};
use codes_eval::TextTable;
use codes_serve::{Pool, ServeConfig, SystemBackend};

struct Pass {
    max_batch: usize,
    qps: f64,
    p50_ms: f64,
    p95_ms: f64,
}

/// Drive `work` through a fresh single-worker pool with the given
/// `max_batch` — as one offered burst, or (`closed_loop`) one request at
/// a time — and report wall-clock throughput plus per-request
/// submit-to-resolve latency quantiles.
fn run_pass(
    max_batch: usize,
    sys: &Arc<codes::CodesSystem>,
    dbs: &[sqlengine::Database],
    work: &[(String, String)],
    closed_loop: bool,
) -> Pass {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: work.len() + 8,
        default_deadline: Duration::from_secs(60),
        max_batch,
        ..ServeConfig::default()
    };
    let backend = SystemBackend::new(Arc::clone(sys), dbs.to_vec());
    let pool = Pool::start(backend, config);

    let started = Instant::now();
    let submit = |(db_id, question): &(String, String)| {
        let submitted = Instant::now();
        let ticket =
            pool.submit(InferenceRequest::new(db_id, question)).expect("queue has headroom");
        (submitted, ticket)
    };
    let resolve = |(submitted, ticket): (Instant, codes_serve::Ticket)| {
        ticket.wait().expect("benchmark inference succeeds");
        submitted.elapsed().as_secs_f64()
    };
    let mut latencies: Vec<f64> = if closed_loop {
        // One caller, one request in flight: submit, wait, repeat.
        work.iter().map(|w| resolve(submit(w))).collect()
    } else {
        let tickets: Vec<_> = work.iter().map(submit).collect();
        tickets.into_iter().map(resolve).collect()
    };
    let wall = started.elapsed().as_secs_f64();
    pool.shutdown();

    latencies.sort_by(f64::total_cmp);
    Pass {
        max_batch,
        qps: work.len() as f64 / wall.max(1e-9),
        p50_ms: percentile(&latencies, 0.50) * 1000.0,
        p95_ms: percentile(&latencies, 0.95) * 1000.0,
    }
}

fn main() {
    let spider = workbench::spider();
    // No cache: a T3 hit at admission would bypass the queue and measure
    // nothing about the dispatch path.
    let sys = Arc::new(workbench::sft_system("CodeS-1B", spider, false));

    // One database, a handful of distinct questions repeated into a burst:
    // every request shares a compatibility key, so formation is limited
    // only by `max_batch`, and the repeats exercise the shared score memo
    // exactly like a production hot query mix.
    let db_id = spider
        .dev
        .iter()
        .map(|s| &s.db_id)
        .max_by_key(|id| spider.dev.iter().filter(|s| &&s.db_id == id).count())
        .expect("benchmark has dev samples")
        .clone();
    let questions: Vec<String> = spider
        .dev
        .iter()
        .filter(|s| s.db_id == db_id)
        .take(8)
        .map(|s| s.question.clone())
        .collect();
    let n = workbench::eval_limit().unwrap_or(64).clamp(16, 256);
    // Runs of identical questions (a hot query burst): consecutive
    // requests are what a worker drains into one dispatch, so the run
    // length — not the total mix — decides how much the shared score memo
    // can collapse inside a batch.
    let run_len = 16;
    let work: Vec<(String, String)> = (0..n)
        .map(|i| (db_id.clone(), questions[(i / run_len) % questions.len()].clone()))
        .collect();

    // Warm the lazy per-database state (value indexes are installed by the
    // workbench, but first-touch costs should not land in the first pass).
    {
        let db = spider.database(&db_id).expect("chosen database exists");
        for q in &questions {
            let _ = sys.infer(db, &InferenceRequest::new(&db_id, q));
        }
    }

    let mut t = TextTable::new("Micro-batching: throughput vs max_batch (1 worker, shared key)")
        .headers(&["max_batch", "qps", "p50 (ms)", "p95 (ms)", "speedup vs unbatched"]);
    let mut records = Vec::new();
    // Best of three trials per size: the passes are short enough that one
    // unlucky scheduler hiccup would otherwise dominate the comparison.
    let passes: Vec<Pass> = [1usize, 4, 8, 16]
        .iter()
        .map(|&b| {
            (0..3)
                .map(|_| run_pass(b, &sys, &spider.databases, &work, false))
                .max_by(|a, b| a.qps.total_cmp(&b.qps))
                .expect("three trials ran")
        })
        .collect();
    let lone: Vec<Pass> = [1usize, 4]
        .iter()
        .map(|&b| {
            (0..3)
                .map(|_| run_pass(b, &sys, &spider.databases, &work, true))
                .min_by(|a, b| a.p50_ms.total_cmp(&b.p50_ms))
                .expect("three trials ran")
        })
        .collect();
    let unbatched_qps = passes[0].qps;
    for pass in &passes {
        t.row(vec![
            pass.max_batch.to_string(),
            format!("{:.1}", pass.qps),
            format!("{:.3}", pass.p50_ms),
            format!("{:.3}", pass.p95_ms),
            format!("{:.2}x", pass.qps / unbatched_qps.max(1e-9)),
        ]);
        let label = format!("batch{}", pass.max_batch);
        records.push(workbench::record("batching", "SFT CodeS-1B", "spider", &format!("{label} qps"), pass.qps, n));
        records.push(workbench::record("batching", "SFT CodeS-1B", "spider", &format!("{label} p50_ms"), pass.p50_ms, n));
        records.push(workbench::record("batching", "SFT CodeS-1B", "spider", &format!("{label} p95_ms"), pass.p95_ms, n));
        eprintln!("done: max_batch {}", pass.max_batch);
    }
    for pass in &lone {
        t.row(vec![
            format!("{} (lone caller)", pass.max_batch),
            format!("{:.1}", pass.qps),
            format!("{:.3}", pass.p50_ms),
            format!("{:.3}", pass.p95_ms),
            "-".to_string(),
        ]);
        let label = format!("lone batch{}", pass.max_batch);
        records.push(workbench::record("batching", "SFT CodeS-1B", "spider", &format!("{label} p50_ms"), pass.p50_ms, n));
    }
    println!("{}", t.render());
    println!("expected shape: throughput rises with max_batch — each dispatch amortizes queue");
    println!("handoff, breaker accounting and value-index resolution; the batched decode shares");
    println!("one LM score memo and collapses duplicate members (a hot query burst is in flight");
    println!("together, so the full-result cache cannot catch it); latency falls with the backlog.");
    println!("a lone closed-loop caller never has company queued, so max_batch costs it nothing.");
    workbench::save_records("batching", &records);

    for pass in &passes[1..] {
        assert!(
            pass.qps > unbatched_qps,
            "batched throughput must beat unbatched: max_batch {} gave {:.1} qps vs {:.1} qps",
            pass.max_batch,
            pass.qps,
            unbatched_qps
        );
    }
    // Batching may not tax a caller it cannot help: nothing is ever queued
    // behind a lone closed-loop request, so its p50 is the unbatched p50.
    let (off, on) = (lone[0].p50_ms, lone[1].p50_ms);
    assert!(
        (on - off).abs() <= 0.2 * off,
        "a lone caller's p50 must not depend on max_batch: {on:.3} ms at 4 vs {off:.3} ms at 1"
    );
}
