//! §9.7: latency and deployment requirements — measured per-size online
//! latency of the simulated models (median, with the generation /
//! execution-selection split the pipeline reports per inference) alongside
//! the paper's reported transformer latencies and float16 memory footprints.

use codes::{InferenceRequest, ModelSize};
use codes_bench::workbench::{self, percentile};
use codes_eval::TextTable;

/// Median of unsorted samples, in milliseconds.
fn p50_ms(mut seconds: Vec<f64>) -> f64 {
    seconds.sort_by(f64::total_cmp);
    percentile(&seconds, 0.5) * 1000.0
}

fn main() {
    let spider = workbench::spider();
    let mut t = TextTable::new("Latency & deployment requirements (§9.7)").headers(&[
        "Model",
        "p50 latency (ms)",
        "generation p50 (ms)",
        "execution selection p50 (ms)",
        "Candidates executed",
        "LM tokens / candidate",
        "BPE vocabulary",
        "Paper latency (s/sample)",
        "Paper fp16 GPU memory (GB)",
        "Avg prompt tokens",
    ]);
    let mut records = Vec::new();
    let mut shape = Vec::new();

    for (name, size) in [
        ("CodeS-1B", ModelSize::B1),
        ("CodeS-3B", ModelSize::B3),
        ("CodeS-7B", ModelSize::B7),
        ("CodeS-15B", ModelSize::B15),
    ] {
        let sys = workbench::sft_system(name, spider, false);
        // Warm up, then measure.
        let warm = spider.dev.len().min(5);
        for s in spider.dev.iter().take(warm) {
            let db = spider.database(&s.db_id).unwrap();
            let _ = sys.infer(db, &InferenceRequest::new(&s.db_id, &s.question));
        }
        let n = spider.dev.len().min(workbench::eval_limit().unwrap_or(100));
        let (mut latency, mut generation, mut selection) = (Vec::new(), Vec::new(), Vec::new());
        let (mut tokens, mut executed, mut lm_tokens, mut candidates) = (0.0, 0usize, 0usize, 0usize);
        for s in spider.dev.iter().take(n) {
            let db = spider.database(&s.db_id).unwrap();
            let out = sys.infer(db, &InferenceRequest::new(&s.db_id, &s.question));
            latency.push(out.latency_seconds);
            generation.push(out.stages.generation);
            selection.push(out.stages.execution_selection);
            tokens += out.prompt_tokens as f64;
            // Selection stops at the first executable candidate.
            let beam = &out.generation.beam;
            executed += beam.iter().position(|c| c.executable).map_or(beam.len(), |i| i + 1);
            candidates += beam.len();
            lm_tokens += beam
                .iter()
                .map(|c| sys.model.pretrained.bpe.encode(&codes_corpus::normalize_sql(&c.sql)).len())
                .sum::<usize>();
        }
        let (ms, generation_ms, selection_ms) = (p50_ms(latency), p50_ms(generation), p50_ms(selection));
        t.row(vec![
            format!("SFT {name}"),
            format!("{ms:.2}"),
            format!("{generation_ms:.2}"),
            format!("{selection_ms:.2}"),
            format!("{:.2}", executed as f64 / n as f64),
            format!("{:.1}", lm_tokens as f64 / candidates.max(1) as f64),
            sys.model.pretrained.bpe.vocab_size().to_string(),
            format!("{:.1}", size.paper_latency_seconds()),
            size.deployment_memory_gb().to_string(),
            format!("{:.0}", tokens / n as f64),
        ]);
        for (metric, value) in [
            ("latency_p50_ms", ms),
            ("generation_p50_ms", generation_ms),
            ("execution_selection_p50_ms", selection_ms),
        ] {
            records.push(workbench::record("latency", &format!("SFT {name}"), "spider", metric, value, n));
        }
        shape.push((size.label(), ms));
        eprintln!("done: {name}");
    }
    println!("{}", t.render());
    let fastest = shape.iter().map(|s| s.1).fold(f64::INFINITY, f64::min);
    let slowest = shape.iter().map(|s| s.1).fold(0.0, f64::max);
    let shape: Vec<String> = shape.iter().map(|(size, ms)| format!("{size} {ms:.2}")).collect();
    println!(
        "measured shape (p50 ms/sample): {}; slowest / fastest {:.2}x, the paper's 2.5x.",
        shape.join(" / "),
        slowest / fastest
    );
    println!("Size does not order these as it orders the paper's 0.6 -> 1.5 s/sample: every size links the");
    println!("prompt once, fills and LM-scores the same 12 best-ranked templates (the beam width only");
    println!("truncates afterwards) and executes candidates until the first one runs (see the column).");
    println!("What size changes is the n-gram order (2..5 look-ups per LM token) against the BPE");
    println!("vocabulary (fewer tokens per candidate); 7B and 15B share the beam width and, the merges");
    println!("running out near 1 200 entries, their encodings, so one look-up per token separates them:");
    println!("less than the run-to-run spread, which is why 15B can read below 7B.");
    println!("The DIN-SQL+GPT-4 reference point is ~60 s/sample.");
    workbench::save_records("latency", &records);
}
