//! Per-stage latency profile of the Algorithm-1 inference pipeline.
//!
//! Runs the SFT system over Spider dev and reports p50/p95/p99/mean
//! wall-clock per pipeline stage from the `codes_stage_duration_seconds`
//! histograms the pipeline records into the global metrics registry —
//! the observability-layer counterpart of the §9.7 end-to-end latency
//! table, showing *where* inside an inference the time goes.
//!
//! It then replays execution-guided selection over each dev question's
//! beam (SFT CodeS-7B; Spider-sim, and BIRD-sim with external knowledge)
//! and prints the allocations made per executed candidate, counted by a
//! global allocator in this binary only. Candidates are judged under the
//! system's budgets with no deadline, so the count is an exact function
//! of the commit and repeats from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use codes::{select_first_executable_batch, CodesSystem, InferenceRequest};
use codes_bench::workbench;
use codes_datasets::Benchmark;
use codes_eval::TextTable;
use codes_obs::{StageTimings, PIPELINE_STAGES, STAGE_HISTOGRAM};

/// Counts the allocator calls that hand out memory (`alloc`,
/// `alloc_zeroed`, `realloc`).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Replay selection over the first `n` dev beams of `bench`; returns
/// (questions, candidates executed, allocations made while selecting).
fn selection_allocations(sys: &CodesSystem, bench: &Benchmark, n: usize) -> (usize, u64, u64) {
    let mut limits = sys.config.exec_limits;
    limits.deadline = None;
    let budget = [(limits, sys.config.retry_attempts)];
    let (mut questions, mut executed, mut allocations) = (0usize, 0u64, 0u64);
    for s in bench.dev.iter().take(n) {
        let db = bench.database(&s.db_id).expect("dev samples reference generated databases");
        let mut request = InferenceRequest::new(&s.db_id, &s.question);
        request.external_knowledge = s.external_knowledge.clone();
        let mut beam = sys.infer(db, &request).generation.beam;
        for c in &mut beam {
            c.executable = false;
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let chosen = select_first_executable_batch(db, std::slice::from_mut(&mut beam), &budget)[0].chosen;
        allocations += ALLOCATIONS.load(Ordering::Relaxed) - before;
        // Each distinct statement up to the chosen one is judged once.
        let judged = &beam[..chosen.map_or(beam.len(), |i| i + 1)];
        let mut seen = std::collections::HashSet::new();
        executed += judged.iter().filter(|c| seen.insert(c.sql.as_str())).count() as u64;
        questions += 1;
    }
    (questions, executed, allocations)
}

fn main() {
    let spider = workbench::spider();
    let sys = workbench::sft_system("CodeS-7B", spider, false);

    let n = spider.dev.len().min(workbench::eval_limit().unwrap_or(100));
    let mut totals = StageTimings::zero();
    let mut evaluated = 0usize;
    for s in spider.dev.iter().take(n) {
        let db = spider.database(&s.db_id).expect("dev samples reference generated databases");
        let out = sys.infer(db, &InferenceRequest::new(&s.db_id, &s.question));
        totals.accumulate(&out.stages);
        evaluated += 1;
    }

    let mut t = TextTable::new("Pipeline stage latency (SFT CodeS-7B, spider dev)").headers(&[
        "Stage",
        "Samples",
        "p50 (ms)",
        "p95 (ms)",
        "p99 (ms)",
        "Mean (ms)",
        "Share (%)",
    ]);
    let mut records = Vec::new();
    let histograms = codes_obs::global().histograms_by_label(STAGE_HISTOGRAM, "stage");
    let pipeline_total = totals.total();
    for stage in PIPELINE_STAGES {
        let Some((_, snap)) = histograms.iter().find(|(name, _)| name == stage) else {
            eprintln!("warning: no samples recorded for stage {stage}");
            continue;
        };
        let ms = |q: f64| snap.quantile_seconds(q).map_or(0.0, |s| s * 1000.0);
        let mean_ms = snap.mean_seconds().unwrap_or(0.0) * 1000.0;
        let share = if pipeline_total > 0.0 { totals.get(stage) / pipeline_total * 100.0 } else { 0.0 };
        t.row(vec![
            stage.to_string(),
            snap.count.to_string(),
            format!("{:.3}", ms(0.50)),
            format!("{:.3}", ms(0.95)),
            format!("{:.3}", ms(0.99)),
            format!("{mean_ms:.3}"),
            format!("{share:.1}"),
        ]);
        for (metric, value) in
            [("stage_p50_ms", ms(0.50)), ("stage_p95_ms", ms(0.95)), ("stage_p99_ms", ms(0.99))]
        {
            records.push(workbench::record(
                "stages",
                "SFT CodeS-7B",
                &format!("spider/{stage}"),
                metric,
                value,
                evaluated,
            ));
        }
    }
    println!("{}", t.render());
    println!(
        "pipeline total {:.2} ms/sample over {evaluated} samples; generation and execution-guided",
        pipeline_total / evaluated.max(1) as f64 * 1000.0
    );
    println!("selection dominate, mirroring the paper's observation that decoding, not prompt");
    println!("construction, sets the latency floor (§9.7).");

    let bird = workbench::bird();
    let bird_sys = workbench::sft_system("CodeS-7B", bird, true);
    let mut a = TextTable::new("Execution-guided selection replay (SFT CodeS-7B, counted allocations)")
        .headers(&["Dataset", "Questions", "Executed", "Allocations", "Per executed"]);
    for (dataset, sys, bench) in [("spider", &sys, spider), ("bird_ek", &bird_sys, bird)] {
        let limit = bench.dev.len().min(workbench::eval_limit().unwrap_or(120));
        let (questions, executed, allocations) = selection_allocations(sys, bench, limit);
        let per = allocations as f64 / executed.max(1) as f64;
        a.row(vec![
            dataset.to_string(),
            questions.to_string(),
            executed.to_string(),
            allocations.to_string(),
            format!("{per:.1}"),
        ]);
        records.push(workbench::record(
            "stages",
            "SFT CodeS-7B",
            &format!("{dataset}/execution_selection"),
            "allocations_per_executed_candidate",
            per,
            executed as usize,
        ));
    }
    println!("{}", a.render());
    workbench::save_records("stages", &records);
}
