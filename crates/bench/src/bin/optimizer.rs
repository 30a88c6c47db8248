//! Query-optimizer benchmark: naive (syntactic) vs cost-based optimized
//! plans over a join-heavy star-schema workload.
//!
//! The workload is written the way model-generated SQL often comes out —
//! comma-separated cross joins with every predicate piled into `WHERE` —
//! which the naive plan executes literally (cross products, one top
//! filter) and the optimized plan rewrites (predicate pushdown, join
//! reordering by estimated cardinality, hash equi joins, LIMIT caps).
//! Reports p50/p95 per-statement latency for both modes, saves them to
//! `results/optimizer.json`, and asserts the optimized p95 does not
//! regress past the naive p95.

use std::time::Instant;

use codes_bench::workbench;
use codes_eval::TextTable;
use sqlengine::{database_from_script, execute_query_plan, Database, ExecLimits, PlanMode};

/// Star schema sized so naive cross products are painful but still finish
/// under the evaluation budgets: `fact` 300 rows, two small dimensions
/// (the naive three-way cross product materializes 300k wide rows).
fn star_db() -> Database {
    let mut script = String::from(
        "CREATE TABLE dim1 (id INTEGER PRIMARY KEY, val INTEGER, name TEXT);\n\
         CREATE TABLE dim2 (id INTEGER PRIMARY KEY, val INTEGER, name TEXT);\n\
         CREATE TABLE fact (id INTEGER PRIMARY KEY, d1_id INTEGER, d2_id INTEGER, amount INTEGER, \
            FOREIGN KEY (d1_id) REFERENCES dim1(id), FOREIGN KEY (d2_id) REFERENCES dim2(id));\n",
    );
    for pk in 1..=20 {
        script.push_str(&format!("INSERT INTO dim1 VALUES ({pk}, {}, 'd1-{pk}');\n", pk % 5));
    }
    for pk in 1..=50 {
        script.push_str(&format!("INSERT INTO dim2 VALUES ({pk}, {}, 'd2-{pk}');\n", pk % 7));
    }
    for pk in 1..=300 {
        script.push_str(&format!(
            "INSERT INTO fact VALUES ({pk}, {}, {}, {});\n",
            1 + pk % 20,
            1 + pk % 50,
            pk % 100,
        ));
    }
    database_from_script("star", &script).expect("star schema loads")
}

/// Join-heavy statements in the syntactic order a generator would emit.
const WORKLOAD: &[(&str, &str)] = &[
    (
        "two-dim star join",
        "SELECT f.id, d1.name FROM fact AS f, dim1 AS d1, dim2 AS d2 \
         WHERE f.d1_id = d1.id AND f.d2_id = d2.id AND d1.val = 3",
    ),
    (
        "selective dim filter",
        "SELECT f.amount, d2.name FROM dim2 AS d2, fact AS f \
         WHERE f.d2_id = d2.id AND d2.val = 1 AND f.amount > 90",
    ),
    (
        "self join on fk",
        "SELECT a.id FROM fact AS a, fact AS b \
         WHERE a.d1_id = b.d1_id AND a.amount > 95 AND b.amount > 95",
    ),
    (
        "limited probe",
        "SELECT f.id FROM fact AS f, dim1 AS d1 WHERE f.d1_id = d1.id LIMIT 10",
    ),
];

const REPS: usize = 25;

fn percentile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    if samples.is_empty() {
        return 0.0;
    }
    let idx = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[idx]
}

fn run_mode(db: &Database, sql: &str, mode: PlanMode, limits: &ExecLimits) -> Vec<f64> {
    // One warm-up execution, then timed reps.
    let _ = execute_query_plan(db, sql, limits, mode);
    (0..REPS)
        .map(|_| {
            let started = Instant::now();
            let result = execute_query_plan(db, sql, limits, mode);
            assert!(result.is_ok(), "workload statement failed: {sql}: {:?}", result.err());
            started.elapsed().as_secs_f64() * 1000.0
        })
        .collect()
}

fn main() {
    let db = star_db();
    let limits = ExecLimits::evaluation();
    let mut t = TextTable::new("Cost-based optimizer: naive vs optimized plans").headers(&[
        "Statement",
        "Naive p50 (ms)",
        "Naive p95 (ms)",
        "Optimized p50 (ms)",
        "Optimized p95 (ms)",
        "Speedup (p50)",
    ]);

    let mut all_naive = Vec::new();
    let mut all_opt = Vec::new();
    for (label, sql) in WORKLOAD {
        // Both plans must agree before timing means anything.
        let (naive_result, _) = execute_query_plan(&db, sql, &limits, PlanMode::Naive)
            .expect("naive workload statement runs");
        let (opt_result, _) = execute_query_plan(&db, sql, &limits, PlanMode::Optimized)
            .expect("optimized workload statement runs");
        assert!(
            naive_result.rows.len() == opt_result.rows.len(),
            "plan divergence in benchmark workload: {label}"
        );

        let mut naive = run_mode(&db, sql, PlanMode::Naive, &limits);
        let mut opt = run_mode(&db, sql, PlanMode::Optimized, &limits);
        let (n50, n95) = (percentile(&mut naive, 0.50), percentile(&mut naive, 0.95));
        let (o50, o95) = (percentile(&mut opt, 0.50), percentile(&mut opt, 0.95));
        t.row(vec![
            label.to_string(),
            format!("{n50:.3}"),
            format!("{n95:.3}"),
            format!("{o50:.3}"),
            format!("{o95:.3}"),
            format!("{:.1}x", n50 / o50.max(1e-9)),
        ]);
        all_naive.extend(naive);
        all_opt.extend(opt);
        eprintln!("done: {label}");
    }

    let (n50, n95) = (percentile(&mut all_naive, 0.50), percentile(&mut all_naive, 0.95));
    let (o50, o95) = (percentile(&mut all_opt, 0.50), percentile(&mut all_opt, 0.95));
    println!("{}", t.render());
    println!("workload aggregate: naive p50 {n50:.3} ms / p95 {n95:.3} ms;");
    println!("optimized p50 {o50:.3} ms / p95 {o95:.3} ms.");
    println!("expected shape: pushdown + join reordering + hash equi joins cut the cross-join");
    println!("workload by an order of magnitude; the LIMIT cap keeps the probe constant-time.");

    let n = WORKLOAD.len() * REPS;
    let records = vec![
        workbench::record("optimizer", "naive", "star", "p50_ms", n50, n),
        workbench::record("optimizer", "naive", "star", "p95_ms", n95, n),
        workbench::record("optimizer", "optimized", "star", "p50_ms", o50, n),
        workbench::record("optimizer", "optimized", "star", "p95_ms", o95, n),
    ];
    workbench::save_records("optimizer", &records);

    assert!(
        o95 <= n95,
        "optimized p95 ({o95:.3} ms) must not regress past naive p95 ({n95:.3} ms)"
    );
    println!("optimizer benchmark OK: optimized p95 {o95:.3} ms <= naive p95 {n95:.3} ms");
}
