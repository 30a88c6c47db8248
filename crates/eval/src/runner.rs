//! Evaluation harness: run a [`CodesSystem`] over a sample set and compute
//! EX / TS / VES / HE with per-hardness breakdowns, in parallel.
//!
//! Every sample is evaluated inside a fault boundary: metric executions run
//! under [`EvalConfig::exec_limits`] budgets, and a panic anywhere in one
//! sample's inference or scoring is caught and recorded on that sample's
//! [`SampleResult::failure`] — one poisoned sample never takes down the
//! run or the other samples sharing its worker thread.
//!
//! [`evaluate_resumable`] layers crash-resumability on top: each finished
//! sample is journaled to a JSONL file as it completes, and a restarted run
//! reloads the journal and evaluates only the samples that are missing.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Mutex;

use codes::{CodesSystem, InferenceRequest};
use codes_datasets::parallel::{build_threads, map_in_order};
use codes_datasets::{Hardness, Sample};
use codes_obs::StageTimings;
use sqlengine::{Database, ExecLimits};

use crate::journal::{sample_fingerprint, EvalError, Journal};
use crate::metrics::{
    execution_match_governed, human_equivalent_governed, test_suite_match_governed,
    test_suite_variants, ves_component_governed,
};

/// Which metrics to compute.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// Compute test-suite accuracy (multi-instance EX).
    pub compute_ts: bool,
    /// Number of database variants for TS.
    pub ts_variants: usize,
    /// Compute the valid efficiency score.
    pub compute_ves: bool,
    /// Compute the human-evaluation proxy.
    pub compute_he: bool,
    /// Cap on evaluated samples (None = all).
    pub limit: Option<usize>,
    /// Threads, the caller's included (default: every core).
    pub threads: usize,
    /// Resource budgets for every metric execution. Defaults to
    /// [`ExecLimits::evaluation`]: deterministic budgets sized so realistic
    /// queries pass while cross-join blowups are killed quickly.
    pub exec_limits: ExecLimits,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            compute_ts: true,
            ts_variants: 4,
            compute_ves: true,
            compute_he: false,
            limit: None,
            threads: build_threads(),
            exec_limits: ExecLimits::evaluation(),
        }
    }
}

/// Aggregate outcome of one evaluation run.
#[derive(Debug, Clone, Default)]
pub struct EvalOutcome {
    /// Number of evaluated samples.
    pub n: usize,
    /// Execution accuracy in [0, 1].
    pub ex: f64,
    /// Test-suite accuracy in [0, 1].
    pub ts: f64,
    /// Mean valid efficiency score.
    pub ves: f64,
    /// Human-equivalence proxy in [0, 1].
    pub he: f64,
    /// Mean online latency per sample.
    pub avg_latency_seconds: f64,
    /// Mean prompt length (whitespace tokens).
    pub avg_prompt_tokens: f64,
    /// Mean wall-clock seconds per Algorithm-1 pipeline stage.
    pub avg_stages: StageTimings,
    /// `(hardness, sample count, EX)` per Spider hardness level.
    pub per_hardness: Vec<(Hardness, usize, f64)>,
}

impl EvalOutcome {
    /// EX as a percentage.
    pub fn ex_pct(&self) -> f64 {
        self.ex * 100.0
    }

    /// TS as a percentage.
    pub fn ts_pct(&self) -> f64 {
        self.ts * 100.0
    }

    /// VES as a percentage.
    pub fn ves_pct(&self) -> f64 {
        self.ves * 100.0
    }
}

/// Per-sample evaluation record (also consumed by the bench harness for
/// error analysis).
#[derive(Debug, Clone)]
pub struct SampleResult {
    /// The evaluated question.
    pub question: String,
    /// Gold SQL.
    pub gold: String,
    /// Predicted SQL.
    pub predicted: String,
    /// Spider hardness of the gold query.
    pub hardness: Hardness,
    /// Execution match.
    pub ex: bool,
    /// Test-suite match (EX across all variants).
    pub ts: bool,
    /// Valid efficiency score (0 when wrong).
    pub ves: f64,
    /// Human-equivalence proxy.
    pub he: bool,
    /// Online latency of this inference.
    pub latency_seconds: f64,
    /// Per-stage wall-clock breakdown of this inference (zero for samples
    /// that failed before inference finished, and for journals written
    /// before stage timings existed).
    pub stages: StageTimings,
    /// Prompt length (whitespace tokens).
    pub prompt_tokens: usize,
    /// Set when this sample's evaluation was cut short by a caught panic;
    /// the sample scores 0 on every metric but the run continues.
    pub failure: Option<String>,
}

/// Evaluate `system` on `samples` over the databases in `dbs`. Each
/// harness thread infers its samples directly ([`CodesSystem::infer`]) and
/// scores them.
pub fn evaluate(
    system: &CodesSystem,
    samples: &[Sample],
    dbs: &[Database],
    cfg: &EvalConfig,
) -> (EvalOutcome, Vec<SampleResult>) {
    let by_name: HashMap<&str, &Database> = dbs.iter().map(|d| (d.name.as_str(), d)).collect();
    let limit = cfg.limit.unwrap_or(samples.len()).min(samples.len());
    let samples = &samples[..limit];
    let variants = build_variants(&by_name, cfg);
    let work: Vec<(usize, &Sample)> = samples.iter().enumerate().collect();
    let results = run_indexed(system, &work, &by_name, &variants, cfg, &|_, _| {});
    let results: Vec<SampleResult> = results.into_iter().map(|(_, r)| r).collect();
    (summarize(&results), results)
}

/// Outcome of a crash-resumable evaluation run (see [`evaluate_resumable`]).
#[derive(Debug)]
pub struct ResumedEvaluation {
    /// Aggregate metrics over journaled + freshly evaluated samples.
    pub outcome: EvalOutcome,
    /// Per-sample results in sample order.
    pub results: Vec<SampleResult>,
    /// How many samples were reloaded from the journal (not re-executed).
    pub resumed: usize,
    /// How many samples this run actually evaluated.
    pub executed: usize,
}

/// [`evaluate`] with a per-sample JSONL journal at `journal_path`: every
/// finished sample is appended and flushed as it completes, and a restart
/// skips samples the journal already holds. A journal whose entries do not
/// fingerprint-match the sample set is rejected with
/// [`EvalError::JournalMismatch`] rather than silently mixing runs.
pub fn evaluate_resumable(
    system: &CodesSystem,
    samples: &[Sample],
    dbs: &[Database],
    cfg: &EvalConfig,
    journal_path: &Path,
) -> Result<ResumedEvaluation, EvalError> {
    let by_name: HashMap<&str, &Database> = dbs.iter().map(|d| (d.name.as_str(), d)).collect();
    let limit = cfg.limit.unwrap_or(samples.len()).min(samples.len());
    let samples = &samples[..limit];

    let (journal, entries) = Journal::open(journal_path)?;
    let mut done: HashMap<usize, SampleResult> = HashMap::new();
    for entry in entries {
        // Entries past the current limit are fine (a previous, larger run);
        // they are simply not part of this evaluation.
        let Some(sample) = samples.get(entry.index) else { continue };
        let expected = sample_fingerprint(sample);
        if entry.fingerprint != expected {
            return Err(EvalError::JournalMismatch {
                index: entry.index,
                detail: format!(
                    "journal fingerprint {:016x} != sample fingerprint {expected:016x} \
                     (different sample set or ordering?)",
                    entry.fingerprint
                ),
            });
        }
        done.entry(entry.index).or_insert(entry.result);
    }
    let resumed = done.len();

    let variants = build_variants(&by_name, cfg);
    let work: Vec<(usize, &Sample)> = samples
        .iter()
        .enumerate()
        .filter(|(i, _)| !done.contains_key(i))
        .collect();

    // Workers append each finished sample through this sink; the first
    // journal-write failure is kept and surfaced after the run.
    let sink_state = Mutex::new((journal, None::<EvalError>));
    let sink = |index: usize, result: &SampleResult| {
        let mut guard = sink_state.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let (journal, first_error) = &mut *guard;
        if first_error.is_none() {
            if let Err(e) = journal.append(index, sample_fingerprint(&samples[index]), result) {
                *first_error = Some(e);
            }
        }
    };
    let fresh = run_indexed(system, &work, &by_name, &variants, cfg, &sink);
    let executed = fresh.len();
    let (_, sink_error) = sink_state.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner());
    if let Some(e) = sink_error {
        return Err(e);
    }

    let mut indexed: Vec<(usize, SampleResult)> = done.into_iter().chain(fresh).collect();
    indexed.sort_by_key(|(index, _)| *index);
    let results: Vec<SampleResult> = indexed.into_iter().map(|(_, r)| r).collect();
    Ok(ResumedEvaluation { outcome: summarize(&results), results, resumed, executed })
}

/// TS variants built once per database.
fn build_variants<'a>(
    by_name: &HashMap<&'a str, &Database>,
    cfg: &EvalConfig,
) -> HashMap<&'a str, Vec<Database>> {
    if cfg.compute_ts {
        by_name
            .iter()
            .map(|(name, db)| (*name, test_suite_variants(db, cfg.ts_variants, 0x7575)))
            .collect()
    } else {
        HashMap::new()
    }
}

/// Evaluate `work` (sample-index pairs) on up to [`EvalConfig::threads`]
/// threads, the caller's included, invoking `sink` for each finished
/// sample from the thread that produced it. Samples referencing an unknown
/// database are skipped, matching the non-indexed path. Pairs come back in
/// work order. Each sample runs inside its own fault boundary, so a panic
/// that still reaches here is a harness bug and resumes on the caller.
fn run_indexed(
    system: &CodesSystem,
    work: &[(usize, &Sample)],
    by_name: &HashMap<&str, &Database>,
    variants: &HashMap<&str, Vec<Database>>,
    cfg: &EvalConfig,
    sink: &(dyn Fn(usize, &SampleResult) + Sync),
) -> Vec<(usize, SampleResult)> {
    let evaluated = map_in_order(work, cfg.threads, |&(index, s)| {
        let db = by_name.get(s.db_id.as_str())?;
        let result = eval_one_isolated(system, s, db, variants.get(s.db_id.as_str()), cfg);
        sink(index, &result);
        Some((index, result))
    });
    evaluated.into_iter().flatten().collect()
}

/// Evaluate one sample inside a fault boundary. A panic anywhere in the
/// sample's inference or scoring is caught and converted into a failed
/// [`SampleResult`] (all metrics 0, [`SampleResult::failure`] set), so a
/// single poisoned sample never aborts the evaluation run.
fn eval_one_isolated(
    system: &CodesSystem,
    sample: &Sample,
    db: &Database,
    variants: Option<&Vec<Database>>,
    cfg: &EvalConfig,
) -> SampleResult {
    catch_unwind(AssertUnwindSafe(|| eval_one(system, sample, db, variants, cfg)))
        .unwrap_or_else(|payload| {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            failed_sample(sample, format!("caught panic: {message}"))
        })
}

/// A zero-scored [`SampleResult`] for a sample whose inference or scoring
/// could not complete: every metric is 0 and `failure` records why, but
/// the run carries on.
fn failed_sample(sample: &Sample, failure: String) -> SampleResult {
    SampleResult {
        question: sample.question.clone(),
        gold: sample.sql.clone(),
        predicted: String::new(),
        hardness: sample.hardness,
        ex: false,
        ts: false,
        ves: 0.0,
        he: false,
        latency_seconds: 0.0,
        stages: StageTimings::zero(),
        prompt_tokens: 0,
        failure: Some(failure),
    }
}

fn eval_one(
    system: &CodesSystem,
    sample: &Sample,
    db: &Database,
    variants: Option<&Vec<Database>>,
    cfg: &EvalConfig,
) -> SampleResult {
    let limits = &cfg.exec_limits;
    let mut request = InferenceRequest::new(&sample.db_id, &sample.question);
    request.external_knowledge = sample.external_knowledge.clone();
    let inference = system.infer(db, &request);
    let ex = execution_match_governed(db, &inference.sql, &sample.sql, limits);
    let ts = match (cfg.compute_ts, variants) {
        (true, Some(vs)) => {
            ex && test_suite_match_governed(db, vs, &inference.sql, &sample.sql, limits)
        }
        _ => ex,
    };
    let ves = if cfg.compute_ves {
        ves_component_governed(db, &inference.sql, &sample.sql, limits)
    } else {
        f64::from(ex)
    };
    let he = if cfg.compute_he {
        human_equivalent_governed(db, &inference.sql, &sample.sql, limits)
    } else {
        ex
    };
    SampleResult {
        question: sample.question.clone(),
        gold: sample.sql.clone(),
        predicted: inference.sql,
        hardness: sample.hardness,
        ex,
        ts,
        ves,
        he,
        latency_seconds: inference.latency_seconds,
        stages: inference.stages,
        prompt_tokens: inference.prompt_tokens,
        failure: None,
    }
}

fn summarize(results: &[SampleResult]) -> EvalOutcome {
    let n = results.len();
    if n == 0 {
        return EvalOutcome::default();
    }
    let frac = |f: &dyn Fn(&SampleResult) -> f64| results.iter().map(f).sum::<f64>() / n as f64;
    let mut per_hardness: HashMap<Hardness, (usize, usize)> = HashMap::new();
    for r in results {
        let e = per_hardness.entry(r.hardness).or_insert((0, 0));
        e.0 += 1;
        e.1 += usize::from(r.ex);
    }
    let mut per_hardness: Vec<(Hardness, usize, f64)> = per_hardness
        .into_iter()
        .map(|(h, (count, correct))| (h, count, correct as f64 / count as f64))
        .collect();
    per_hardness.sort_by_key(|(h, _, _)| *h);
    let mut stage_sum = StageTimings::zero();
    for r in results {
        stage_sum.accumulate(&r.stages);
    }
    EvalOutcome {
        n,
        ex: frac(&|r| f64::from(r.ex)),
        ts: frac(&|r| f64::from(r.ts)),
        ves: frac(&|r| r.ves),
        he: frac(&|r| f64::from(r.he)),
        avg_latency_seconds: frac(&|r| r.latency_seconds),
        avg_prompt_tokens: frac(&|r| r.prompt_tokens as f64),
        avg_stages: stage_sum.scaled(1.0 / n as f64),
        per_hardness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codes::{pretrain, CodesModel, PretrainConfig, PromptOptions, SketchCatalog};
    use std::sync::Arc;

    fn mini_bench() -> codes_datasets::Benchmark {
        let mut cfg = codes_datasets::BenchmarkConfig::spider(61);
        cfg.train_samples_per_db = 10;
        cfg.dev_samples_per_db = 4;
        codes_datasets::build_benchmark("mini", &cfg)
    }

    fn mini_system_and_bench() -> (Arc<CodesSystem>, codes_datasets::Benchmark) {
        let bench = mini_bench();
        let catalog = Arc::new(SketchCatalog::build());
        let spec = codes::table4_models()
            .into_iter()
            .find(|m| m.name == "CodeS-7B")
            .expect("CodeS-7B is a fixed Table 4 row");
        let lm = pretrain(&catalog, &spec, &PretrainConfig { scale: 10, seed: 3 });
        let sys = CodesSystem::new(CodesModel::new(lm, catalog), PromptOptions::sft())
            .finetune_on(&bench);
        sys.prepare_databases(bench.databases.iter());
        (Arc::new(sys), bench)
    }

    #[test]
    fn evaluation_produces_consistent_summary() {
        let (sys, bench) = mini_system_and_bench();
        let cfg = EvalConfig { limit: Some(16), ts_variants: 2, compute_he: true, ..Default::default() };
        let (outcome, results) = evaluate(&sys, &bench.dev, &bench.databases, &cfg);
        assert_eq!(outcome.n, results.len());
        assert!(outcome.n >= 12);
        // Invariants: TS <= EX <= HE (TS is stricter, HE is looser).
        assert!(outcome.ts <= outcome.ex + 1e-12, "ts {} ex {}", outcome.ts, outcome.ex);
        assert!(outcome.ex <= outcome.he + 1e-12, "ex {} he {}", outcome.ex, outcome.he);
        assert!((0.0..=1.0).contains(&outcome.ex));
        let hard_n: usize = outcome.per_hardness.iter().map(|(_, c, _)| c).sum();
        assert_eq!(hard_n, outcome.n);
    }

    #[test]
    fn deterministic_across_runs() {
        let (sys, bench) = mini_system_and_bench();
        let cfg = EvalConfig { limit: Some(10), compute_ts: false, ..Default::default() };
        let (a, _) = evaluate(&sys, &bench.dev, &bench.databases, &cfg);
        let (b, _) = evaluate(&sys, &bench.dev, &bench.databases, &cfg);
        assert_eq!(a.ex, b.ex);
        assert_eq!(a.ves, b.ves);
    }

    fn journal_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("codes-eval-runner-tests");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// The resume workhorse test: interrupt an eval run mid-stream (here by
    /// capping the first run's limit — equivalent to the process dying after
    /// k journaled samples), restart over the full set, and require that
    /// (a) no already-journaled sample executes twice, (b) the journal
    /// prefix is untouched, and (c) the final report is byte-identical to
    /// an uninterrupted run's.
    #[test]
    fn interrupted_run_resumes_without_reexecution_and_matches_uninterrupted_report() {
        let (sys, bench) = mini_system_and_bench();
        let cfg = EvalConfig { limit: Some(12), ts_variants: 2, ..Default::default() };
        let path = journal_path("resume");

        // First run dies after 5 samples.
        let partial_cfg = EvalConfig { limit: Some(5), ..cfg };
        let partial = evaluate_resumable(&sys, &bench.dev, &bench.databases, &partial_cfg, &path)
            .expect("partial run");
        assert_eq!(partial.resumed, 0);
        assert_eq!(partial.executed, 5);
        // The crashed run began under the previous release: its first three
        // lines carry the per-stage `cache_hits` object this one no longer
        // writes, so the resume reads both formats.
        let journal_after_crash = std::fs::read_to_string(&path).expect("journal exists").replacen(
            ",\"failure\":",
            ",\"cache_hits\":{\"schema_filter\":false,\"value_retrieval\":true},\"failure\":",
            3,
        );
        assert_eq!(journal_after_crash.matches("\"cache_hits\"").count(), 3);
        std::fs::write(&path, &journal_after_crash).expect("rewrite journal");

        // Restarted run: only the missing 7 samples execute.
        let resumed = evaluate_resumable(&sys, &bench.dev, &bench.databases, &cfg, &path)
            .expect("resumed run");
        assert_eq!(resumed.resumed, 5, "journaled samples must not re-execute");
        assert_eq!(resumed.executed, 12 - 5);
        assert_eq!(resumed.outcome.n, 12);
        let journal_after_resume = std::fs::read_to_string(&path).expect("journal exists");
        assert!(
            journal_after_resume.starts_with(&journal_after_crash),
            "resume must append, never rewrite, the journal prefix"
        );

        // Uninterrupted reference run (fresh journal).
        let fresh_path = journal_path("fresh");
        let fresh = evaluate_resumable(&sys, &bench.dev, &bench.databases, &cfg, &fresh_path)
            .expect("uninterrupted run");
        assert_eq!(fresh.resumed, 0);
        assert_eq!(fresh.executed, 12);

        // Byte-identical report over the deterministic verdict fields.
        let report = |r: &ResumedEvaluation| {
            let records: Vec<crate::ExperimentRecord> = [
                ("ex", r.outcome.ex),
                ("ts", r.outcome.ts),
                ("ves", r.outcome.ves),
                ("he", r.outcome.he),
            ]
            .into_iter()
            .map(|(metric, value)| crate::ExperimentRecord {
                experiment: "resume-test".into(),
                system: "CodeS-7B".into(),
                dataset: "mini-dev".into(),
                metric: metric.into(),
                value: value * 100.0,
                n: r.outcome.n,
            })
            .collect();
            crate::records_to_json(&records)
        };
        assert_eq!(report(&resumed), report(&fresh), "resumed report must be byte-identical");
        // Stronger: the per-sample verdicts agree sample by sample.
        for (a, b) in resumed.results.iter().zip(fresh.results.iter()) {
            assert_eq!(a.predicted, b.predicted);
            assert_eq!((a.ex, a.ts, a.he), (b.ex, b.ts, b.he));
            assert_eq!(a.ves.to_bits(), b.ves.to_bits());
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&fresh_path);
    }

    #[test]
    fn resume_rejects_mismatched_journal() {
        let (sys, bench) = mini_system_and_bench();
        let cfg = EvalConfig { limit: Some(4), compute_ts: false, ..Default::default() };
        let path = journal_path("mismatch");
        evaluate_resumable(&sys, &bench.dev, &bench.databases, &cfg, &path).expect("first run");
        // Same journal, shuffled samples: fingerprints no longer line up.
        let mut shuffled = bench.dev.clone();
        shuffled.reverse();
        match evaluate_resumable(&sys, &shuffled, &bench.databases, &cfg, &path) {
            Err(crate::EvalError::JournalMismatch { .. }) => {}
            other => panic!("expected JournalMismatch, got {:?}", other.map(|r| r.outcome.n)),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn panicking_sample_does_not_abort_the_run() {
        let (sys, bench) = mini_system_and_bench();
        let mut dev = bench.dev.clone();
        let n = dev.len().min(8);
        dev.truncate(n);
        // Poison one sample's gold query with an injected engine panic.
        dev[2].sql = "SELECT __FAULT_PANIC()".to_string();
        let cfg = EvalConfig { compute_ts: false, compute_ves: false, ..Default::default() };
        let (outcome, results) = evaluate(&sys, &dev, &bench.databases, &cfg);
        assert_eq!(outcome.n, n, "the run must complete every sample");
        // The poisoned sample is contained at a fault boundary: it scores
        // no metric, while the rest of the run is unaffected.
        let poisoned = &results[2];
        assert_eq!(poisoned.gold, "SELECT __FAULT_PANIC()");
        assert!(!poisoned.ex && !poisoned.ts && !poisoned.he);
        assert_eq!(poisoned.ves, 0.0);
    }

}
