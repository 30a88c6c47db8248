//! The simulated CodeS model: sketch ranking, slot filling, candidate
//! scoring and beam decoding (§8, §9.1.4: "a beam search produces 4 SQL
//! candidates, picking the first executable one as the outcome").

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use codes_datasets::Sample;
use codes_obs::{Span, STAGE_EXECUTION_SELECTION, STAGE_GENERATION};
use codes_retrieval::ValueMatch;
use sqlengine::ast::Statement;
use sqlengine::{
    catch_panics, execute_ast_governed, parse_statement, with_retry, Database, ExecLimits,
};

use crate::config::{Capacity, Config};
use crate::generator::{fill_ranked, Candidate, SlotContext};
use crate::intent::{extract_intent, template_intent_score, Intent};
use crate::pretrain::{LmMemo, PretrainedLm};
use crate::prompt::DbPrompt;
use crate::sketch::SketchCatalog;

/// Scoring weights of the candidate ranker.
const W_TEMPLATE: f64 = 1.0;
const W_SLOT: f64 = 1.1;
const W_LM: f64 = 0.3;
const W_PRIOR: f64 = 0.55;

/// Fine-tuned state: what SFT adds on top of pre-training.
#[derive(Debug, Clone, Default)]
pub struct FineTuned {
    /// intent-bucket -> (template id -> count)
    bucket_counts: HashMap<String, HashMap<usize, u64>>,
    /// Marginal template counts.
    pub template_counts: HashMap<usize, u64>,
    total: u64,
    /// Learned NL-alias -> (table, column, stored value) mappings
    /// (domain knowledge absorbed from training data).
    pub alias_map: HashMap<String, (String, String, String)>,
    /// Template ids newly learned during fine-tuning (within capacity).
    pub learned_templates: Vec<usize>,
}

impl FineTuned {
    /// Smoothed P(template | bucket), backing off to the marginal.
    fn prior(&self, bucket: &str, template_id: usize) -> f64 {
        let n_templates = codes_datasets::TEMPLATE_COUNT as f64;
        let marginal = {
            let c = self.template_counts.get(&template_id).copied().unwrap_or(0) as f64;
            (c + 0.25) / (self.total as f64 + 0.25 * n_templates)
        };
        match self.bucket_counts.get(bucket) {
            Some(counts) => {
                let total: u64 = counts.values().sum();
                let c = counts.get(&template_id).copied().unwrap_or(0) as f64;
                let conditional = (c + 0.25) / (total as f64 + 0.25 * n_templates);
                0.8 * conditional + 0.2 * marginal
            }
            None => marginal,
        }
    }

    /// Whether SFT learned an alias mapping for this question word.
    pub fn knows_alias(&self, word: &str) -> bool {
        self.alias_map.contains_key(word)
    }
}

/// One decoded candidate with its score breakdown.
#[derive(Debug, Clone)]
pub struct ScoredCandidate {
    /// Candidate SQL text.
    pub sql: String,
    /// Producing sketch/template.
    pub template_id: usize,
    /// Final ranking score.
    pub score: f64,
    /// Whether the SQL executed successfully on the database. Selection
    /// stops at the first executable candidate: those ranked after the
    /// chosen one are never run and stay `false`.
    pub executable: bool,
}

/// The output of one generation call.
#[derive(Debug, Clone)]
pub struct Generation {
    /// The chosen SQL (first executable candidate of the beam).
    pub sql: String,
    /// The full beam, ranked.
    pub beam: Vec<ScoredCandidate>,
    /// Wall-clock seconds decoding the beam (template ranking + slot
    /// filling + scoring) — the `generation` pipeline stage.
    pub generation_seconds: f64,
    /// Wall-clock seconds executing candidates to pick the first
    /// executable one — the `execution_selection` pipeline stage.
    pub selection_seconds: f64,
}

/// One member of a generation call: the per-member inputs that
/// [`CodesModel::generate_governed_batch`] needs alongside the shared
/// database.
pub struct GenerationBatchItem<'a> {
    /// Assembled prompt for this member.
    pub prompt: &'a DbPrompt,
    /// The member's natural-language question.
    pub question: &'a str,
    /// Optional external knowledge (BIRD-style evidence).
    pub external_knowledge: Option<&'a str>,
    /// Few-shot demonstrations (ICL mode; empty under SFT).
    pub demos: &'a [&'a Sample],
    /// The member's resolved runtime config (budgets, retries, deadline).
    pub config: &'a Config,
    /// When the member's inference started, for deadline accounting.
    pub started: Instant,
}

/// The simulated CodeS model. Pre-trained state is shared (`Arc`) so a
/// sweep over prompt configurations does not repeat pre-training.
pub struct CodesModel {
    /// Shared pre-trained state (tokenizer, LM, sketches, embedder).
    pub pretrained: Arc<PretrainedLm>,
    /// Shared sketch-to-template catalog.
    pub catalog: Arc<SketchCatalog>,
    /// Fine-tuned state (None before SFT).
    pub finetuned: Option<FineTuned>,
}

impl CodesModel {
    /// Wrap a pre-trained LM into a (not yet fine-tuned) model.
    pub fn new(pretrained: impl Into<Arc<PretrainedLm>>, catalog: Arc<SketchCatalog>) -> CodesModel {
        CodesModel { pretrained: pretrained.into(), catalog, finetuned: None }
    }

    /// A fresh (not fine-tuned) model sharing this model's pre-training.
    pub fn fork(&self) -> CodesModel {
        CodesModel {
            pretrained: Arc::clone(&self.pretrained),
            catalog: Arc::clone(&self.catalog),
            finetuned: None,
        }
    }

    /// The model's capacity profile.
    pub fn capacity(&self) -> &Capacity {
        &self.pretrained.capacity
    }

    /// Generate SQL for a question over a prompt. `demos` are few-shot
    /// demonstrations (ICL mode); SFT state is used when present.
    /// Ungoverned: candidate execution runs without budgets (panics are
    /// still isolated). Serving and evaluation paths should prefer
    /// [`CodesModel::generate_governed`].
    pub fn generate(
        &self,
        db: &Database,
        prompt: &DbPrompt,
        question: &str,
        external_knowledge: Option<&str>,
        demos: &[&Sample],
    ) -> Generation {
        let (config, started) = (Config::unlimited(), Instant::now());
        self.generate_governed(db, prompt, question, external_knowledge, demos, &config, started)
    }

    /// Generate SQL under a runtime [`Config`]: a
    /// [`CodesModel::generate_governed_batch`] of one.
    pub fn generate_governed(
        &self,
        db: &Database,
        prompt: &DbPrompt,
        question: &str,
        external_knowledge: Option<&str>,
        demos: &[&Sample],
        config: &Config,
        started: Instant,
    ) -> Generation {
        let item =
            GenerationBatchItem { prompt, question, external_knowledge, demos, config, started };
        self.generate_governed_batch(db, std::slice::from_ref(&item))
            .pop()
            .expect("one generation per batch item")
    }

    /// Generate for N ≥ 1 members over one database in a single pass.
    ///
    /// Candidate execution is budgeted (`config.exec_limits`) with
    /// transient-failure retries, and when three quarters of a member's
    /// inference deadline are already gone by the time its candidates are
    /// scored, its beam degrades to greedy — only the top candidate is
    /// executed, bounding the tail latency of a nearly-blown inference.
    ///
    /// Members share work that cannot change an answer. The scoring phase
    /// shares an [`LmMemo`] (candidate SQL repeats under real traffic, its
    /// words in every beam, and the likelihood is a pure function of the SQL);
    /// duplicate members — identical question, external knowledge, and
    /// beam cap, which under a deterministic pipeline means identical
    /// decode inputs — reuse the first copy's beam instead of re-decoding
    /// (a burst of one hot query is in flight together, so the full-result
    /// cache cannot catch it yet); and [`select_first_executable_batch`]
    /// shares execution verdicts. Each member's chosen SQL is what the same
    /// item answers in a batch of one.
    ///
    /// Every member records one generation span and one selection span;
    /// their durations ride along as `generation_seconds` /
    /// `selection_seconds` on the returned [`Generation`].
    pub fn generate_governed_batch(
        &self,
        db: &Database,
        items: &[GenerationBatchItem<'_>],
    ) -> Vec<Generation> {
        let mut lm_memo = LmMemo::default();
        let mut beams: Vec<Vec<ScoredCandidate>> = Vec::with_capacity(items.len());
        let mut generation_seconds: Vec<f64> = Vec::with_capacity(items.len());
        let mut budgets: Vec<(ExecLimits, u32)> = Vec::with_capacity(items.len());
        // Duplicate-member collapse: decode output is a pure function of
        // (question, external knowledge, beam cap) — the prompt and demos
        // are themselves derived deterministically from the question on
        // one database — so the first member of each equivalence class
        // decodes and the rest clone its beam.
        let mut decoded: HashMap<(String, Option<String>, Option<usize>), usize> = HashMap::new();
        for (i, item) in items.iter().enumerate() {
            let span = Span::enter(STAGE_GENERATION);
            let beam_cap =
                if item.config.nearly_spent(item.started.elapsed()) { Some(1) } else { None };
            let key = (
                item.question.to_string(),
                item.external_knowledge.map(str::to_string),
                beam_cap,
            );
            match decoded.get(&key) {
                Some(&first) => beams.push(beams[first].clone()),
                None => {
                    beams.push(self.decode_beam(
                        item.prompt,
                        item.question,
                        item.external_knowledge,
                        item.demos,
                        beam_cap,
                        &mut lm_memo,
                    ));
                    decoded.insert(key, i);
                }
            }
            generation_seconds.push(span.finish().as_secs_f64());
            budgets.push((item.config.exec_limits, item.config.retry_attempts));
        }

        let selections = select_first_executable_batch(db, &mut beams, &budgets);

        beams
            .into_iter()
            .zip(selections)
            .zip(items)
            .zip(generation_seconds)
            .map(|(((beam, selection), item), gen_secs)| {
                let sql = selection
                    .chosen
                    .and_then(|i| beam.get(i).map(|c| c.sql.clone()))
                    .or_else(|| beam.first().map(|c| c.sql.clone()))
                    .unwrap_or_else(|| fallback_sql(item.prompt));
                Generation {
                    sql,
                    beam,
                    generation_seconds: gen_secs,
                    selection_seconds: selection.selection_seconds,
                }
            })
            .collect()
    }

    /// The beam-decoding core: template ranking, slot filling and
    /// candidate scoring — everything up to (but excluding) execution
    /// selection. `lm_memo` memoizes LM scoring across the batch, by
    /// candidate SQL and by word; the likelihood is deterministic in the
    /// SQL, so memoized scores are identical to freshly computed ones.
    fn decode_beam(
        &self,
        prompt: &DbPrompt,
        question: &str,
        external_knowledge: Option<&str>,
        demos: &[&Sample],
        beam_cap: Option<usize>,
        lm_memo: &mut LmMemo,
    ) -> Vec<ScoredCandidate> {
        let mut intent = extract_intent(question);
        let bucket = intent_bucket(&intent);
        // Domain knowledge: extend the matched values with alias-derived
        // hits from EK text and from SFT-learned alias mappings.
        let mut enriched = prompt.clone();
        self.enrich_values(&mut enriched, question, external_knowledge);
        // Retrieved/aliased values anchor the question to the database even
        // when nothing is quoted verbatim.
        intent.value_hints = enriched.matched_values.len();

        // Which templates can the model even consider? Fine-tuned models
        // use their re-allocated sketch set; otherwise the pre-trained one.
        let mut known: Vec<usize> = match &self.finetuned {
            Some(ft) if !ft.learned_templates.is_empty() => ft.learned_templates.clone(),
            _ => self.pretrained.sketches.known_templates(),
        };

        // Demo-derived boosts (ICL): demonstrations vote for their sketch.
        let mut demo_boost: HashMap<usize, f64> = HashMap::new();
        for demo in demos {
            if let Some(id) = self.catalog.template_of_sql(&demo.sql) {
                let e = demo_boost.entry(id).or_insert(0.0);
                *e += 0.12 * (1.0 - *e); // diminishing returns per extra demo
                if !known.contains(&id) {
                    // A demonstration can surface a shape the model's corpus
                    // lacked — but only a model already fluent in SQL can
                    // absorb structure from a demonstration, and only within
                    // its capacity headroom.
                    let fluent =
                        self.pretrained.sql_log_likelihood_memo(&demo.sql, lm_memo) > -8.5;
                    if fluent && known.len() < self.capacity().sketch_capacity + demos.len() {
                        known.push(id);
                    }
                }
            }
        }

        // Rank templates by intent compatibility + priors + demo votes.
        let mut ranked: Vec<(usize, f64)> = known
            .iter()
            .map(|&id| {
                let mut s = W_TEMPLATE * template_intent_score(id, &intent);
                // Priors disambiguate between intent-compatible sketches but
                // saturate well below a clear intent signal.
                s += W_PRIOR
                    * match &self.finetuned {
                        Some(ft) => {
                            let p = ft.prior(&bucket, id);
                            p / (p + 0.08)
                        }
                        None => {
                            let p = self.pretrained.sketches.prior(id);
                            0.6 * p / (p + 0.08)
                        }
                    };
                if let Some(b) = demo_boost.get(&id) {
                    s += b;
                }
                (id, s)
            })
            .collect();
        // total_cmp: scores come from model arithmetic over untrusted data;
        // a NaN must produce an arbitrary-but-stable order, not a panic.
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

        // Fill slots for the most promising templates. External knowledge
        // reaches generation through the enriched value matches and the
        // schema filter; appending its raw text to the linking surface
        // would pollute column scores (it names related columns).
        let capacity = self.capacity();
        let ctx = SlotContext::new(&enriched, question, &intent, capacity);
        let mut scored: Vec<ScoredCandidate> = Vec::new();
        // Decision reliability: SQL exposure steadies the ranking (a model
        // that barely saw SQL judges candidates erratically), and task
        // alignment through fine-tuning shrinks the whole variance.
        // Fine-tuning data counts toward exposure only at a steep discount:
        // a few thousand task samples cannot substitute for SQL-centric
        // pre-training (the paper's Table 5/6: SFT Llama2 < SFT CodeS).
        let exposure = self.pretrained.sql_statements_seen
            + self.finetuned.as_ref().map(|ft| ft.total / 10).unwrap_or(0);
        let unfamiliarity = 0.55 / (1.0 + exposure as f64 / 60.0).sqrt();
        let alignment = if self.finetuned.is_some() { 0.6 } else { 1.0 };
        let noise_scale = alignment * (capacity.decision_noise + unfamiliarity);
        for (Candidate { sql, template_id, slot_score }, template_score) in
            fill_ranked(&ctx, &ranked, 12)
        {
            let lm = normalize_ll(self.pretrained.sql_log_likelihood_memo(&sql, lm_memo));
            let noise = noise_scale * deterministic_noise(question, &sql);
            let score = template_score + W_SLOT * slot_score + W_LM * lm + noise;
            scored.push(ScoredCandidate { sql, template_id, score, executable: false });
        }
        scored.sort_by(|a, b| b.score.total_cmp(&a.score));
        scored.truncate(capacity.beam_width);
        if let Some(cap) = beam_cap {
            // Deadline degradation: execute only the greedy choice.
            scored.truncate(cap.max(1));
        }
        scored
    }

    /// Add alias-derived value matches: EK text like
    /// `"women refers to client.gender = 'F'"` and SFT-learned mappings.
    fn enrich_values(&self, prompt: &mut DbPrompt, question: &str, ek: Option<&str>) {
        let lower_q = question.to_lowercase();
        let add = |table: String, column: String, value: String, degree: f64, prompt: &mut DbPrompt| {
            let exists = prompt
                .matched_values
                .iter()
                .any(|m| m.table.eq_ignore_ascii_case(&table) && m.column.eq_ignore_ascii_case(&column));
            if !exists && prompt.table(&table).and_then(|t| t.column(&column)).is_some() {
                // Alias matches outrank fuzzy LCS hits: prepend.
                prompt.matched_values.insert(0, ValueMatch { table, column, value, degree });
            }
        };
        if let Some(ek) = ek {
            for (alias, table, column, value) in parse_knowledge(ek) {
                if lower_q.contains(&alias.to_lowercase()) {
                    add(table, column, value, 1.0, prompt);
                }
            }
        }
        if let Some(ft) = &self.finetuned {
            for w in codes_nlp::words(&lower_q) {
                if let Some((t, c, v)) = ft.alias_map.get(&w) {
                    add(t.clone(), c.clone(), v.clone(), 0.95, prompt);
                }
            }
        }
    }
}

/// The verdict of [`select_first_executable_batch`] for one member.
#[derive(Debug, Clone)]
pub struct BatchSelection {
    /// Index of the member's first executable candidate, when any.
    pub chosen: Option<usize>,
    /// Wall-clock seconds of the member's selection span (memo hits cost
    /// effectively nothing).
    pub selection_seconds: f64,
}

/// §9.1.4's "pick the first executable candidate" for N ≥ 1 beams over one
/// database: each member's candidates are tried in rank order, marking
/// `executable`, until one runs.
///
/// * **early exit** — once a member's first executable candidate is
///   found, its remaining candidates are never executed (their
///   `executable` flags stay `false`);
/// * **shared execution verdicts** — members running under the same
///   `(ExecLimits, retries)` budget share a verdict memo keyed by SQL.
///   Execution is deterministic, so a statement one member already tried
///   is not re-executed for another; budgets must match exactly because a
///   budget kill under tight limits says nothing about looser ones.
///
/// This is the fault boundary of selection: each candidate runs under its
/// member's limits with panic isolation, so a candidate that panics the
/// engine or exhausts its budget is simply marked non-executable and
/// selection moves on to the next — one bad statement can never abort the
/// whole generation. One `execution_selection` span is recorded per member.
pub fn select_first_executable_batch(
    db: &Database,
    beams: &mut [Vec<ScoredCandidate>],
    budgets: &[(ExecLimits, u32)],
) -> Vec<BatchSelection> {
    // One verdict memo per distinct budget; batches are small, so a linear
    // scan beats hashing the limits.
    let mut memos: Vec<(ExecLimits, u32, HashMap<String, bool>)> = Vec::new();
    beams
        .iter_mut()
        .zip(budgets)
        .map(|(beam, &(limits, retries))| {
            let span = Span::enter(STAGE_EXECUTION_SELECTION);
            let shared = memos
                .iter()
                .position(|(l, r, _)| *l == limits && *r == retries)
                .unwrap_or_else(|| {
                    memos.push((limits, retries, HashMap::new()));
                    memos.len() - 1
                });
            let memo = &mut memos[shared].2;
            let chosen = beam.iter_mut().position(|c| {
                c.executable = match memo.get(&c.sql) {
                    Some(&verdict) => verdict,
                    None => {
                        // The candidate is parsed once and run under the
                        // governor; a statement that does not parse as a
                        // query is non-executable.
                        let ok = match parse_statement(&c.sql) {
                            Ok(Statement::Query(q)) => {
                                let run = |attempt_limits: &ExecLimits| {
                                    catch_panics(|| {
                                        execute_ast_governed(db, &q, attempt_limits).map(|_| ())
                                    })
                                };
                                with_retry(&limits, retries, run).is_ok()
                            }
                            _ => false,
                        };
                        memo.insert(c.sql.clone(), ok);
                        ok
                    }
                };
                c.executable
            });
            BatchSelection { chosen, selection_seconds: span.finish().as_secs_f64() }
        })
        .collect()
}

/// Parse external-knowledge statements of the forms the benchmarks emit:
/// `"<alias> refers to <table>.<column> = '<value>'"`.
pub fn parse_knowledge(ek: &str) -> Vec<(String, String, String, String)> {
    let mut out = Vec::new();
    for clause in ek.split(';') {
        let Some((alias_part, rest)) = clause.split_once(" refers to ") else {
            continue;
        };
        let Some((target, value_part)) = rest.split_once('=') else {
            continue;
        };
        let Some((table, column)) = target.trim().split_once('.') else {
            continue;
        };
        let value = value_part.trim().trim_matches('\'').to_string();
        out.push((
            alias_part.trim().to_string(),
            table.trim().to_string(),
            column.trim().to_string(),
            value,
        ));
    }
    out
}

/// Map an average per-token log2-likelihood (~[-12, -2]) into [0, 1].
fn normalize_ll(ll: f64) -> f64 {
    ((ll + 12.0) / 10.0).clamp(0.0, 1.0)
}

/// Deterministic pseudo-noise in [-1, 1] keyed by (question, sql).
fn deterministic_noise(question: &str, sql: &str) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in question.bytes().chain(sql.bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    (h as f64 / u64::MAX as f64) * 2.0 - 1.0
}

/// Last-resort output when no template fills.
fn fallback_sql(prompt: &DbPrompt) -> String {
    match prompt.tables.first() {
        Some(t) => format!("SELECT COUNT(*) FROM {}", t.name),
        None => "SELECT 1".to_string(),
    }
}

/// Discretize an intent into a bucket key for SFT priors.
pub fn intent_bucket(intent: &Intent) -> String {
    format!(
        "c{}a{}o{}n{}q{}g{}s{}d{}x{}b{}l{}u{}r{}v{}m{}",
        u8::from(intent.wants_count),
        match intent.agg {
            None => 0,
            Some(crate::intent::AggHint::Avg) => 1,
            Some(crate::intent::AggHint::Sum) => 2,
            Some(crate::intent::AggHint::Max) => 3,
            Some(crate::intent::AggHint::Min) => 4,
        },
        u8::from(intent.op.is_some()),
        intent.numbers.len().min(2),
        intent.quoted.len().min(2),
        u8::from(intent.group_by),
        u8::from(intent.superlative_desc || intent.superlative_asc),
        u8::from(intent.distinct),
        u8::from(intent.negation),
        u8::from(intent.between),
        u8::from(intent.contains_like),
        u8::from(intent.null_check),
        u8::from(intent.sorted_listing),
        u8::from(intent.above_average),
        u8::from(intent.most_common),
    )
}

// ---------------------------------------------------------------------------
// Supervised fine-tuning
// ---------------------------------------------------------------------------

/// Fine-tune the model on (question, SQL) pairs over their databases
/// (Eq. 3's SFT objective, realized as learned sketch priors conditioned
/// on intent buckets plus absorbed domain aliases).
pub fn finetune<'a>(
    model: &mut CodesModel,
    samples: impl Iterator<Item = (&'a Sample, &'a Database)>,
) {
    let mut ft = model.finetuned.take().unwrap_or_default();
    let mut alias_votes: HashMap<String, HashMap<(String, String, String), u32>> = HashMap::new();
    // Schema words are column references, not value aliases; each
    // database's are read once per call.
    let mut schema_words: HashMap<*const Database, HashSet<String>> = HashMap::new();
    let capacity = model.pretrained.capacity;
    for (sample, db) in samples {
        let Some(template_id) = model.catalog.template_of_sql(&sample.sql) else {
            continue;
        };
        let intent = extract_intent(&sample.question);
        let bucket = intent_bucket(&intent);
        *ft.bucket_counts.entry(bucket).or_default().entry(template_id).or_insert(0) += 1;
        *ft.template_counts.entry(template_id).or_insert(0) += 1;
        ft.total += 1;
        // Alias learning: gold predicates whose value the question never
        // mentions must be referenced through some other question word.
        let words = schema_words.entry(db).or_insert_with(|| {
            db.tables
                .iter()
                .flat_map(|t| {
                    std::iter::once(t.schema.name.clone())
                        .chain(t.schema.columns.iter().map(|c| c.name.clone()))
                        .chain(t.schema.columns.iter().filter_map(|c| c.comment.clone()))
                })
                .flat_map(|s| codes_nlp::words(&s))
                .collect()
        });
        collect_alias_votes(sample, db, words, &mut alias_votes);
    }
    // Fine-tuning re-allocates sketch capacity toward the training
    // distribution: the most frequent training shapes are learned first,
    // pretraining shapes fill whatever capacity remains. Specializing the
    // whole model to one task stretches the budget by 25% relative to
    // pre-training (where SQL shares capacity with other domains), yet
    // small models still cannot hold every shape — the source of their
    // hard/extra errors after SFT.
    let budget = capacity.sketch_capacity + capacity.sketch_capacity / 4;
    let mut ranked: Vec<(usize, u64)> = ft.template_counts.iter().map(|(id, c)| (*id, *c)).collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut learned: Vec<usize> = ranked.into_iter().take(budget).map(|(id, _)| id).collect();
    for id in model.pretrained.sketches.known_templates() {
        if learned.len() >= budget {
            break;
        }
        if !learned.contains(&id) {
            learned.push(id);
        }
    }
    ft.learned_templates = learned;
    // Keep alias mappings with at least 2 agreeing votes and a clear winner.
    for (word, votes) in alias_votes {
        let mut ranked: Vec<((String, String, String), u32)> = votes.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1));
        if let Some((mapping, count)) = ranked.first() {
            let runner_up = ranked.get(1).map(|(_, c)| *c).unwrap_or(0);
            if *count >= 2 && *count >= runner_up * 2 {
                ft.alias_map.insert(word, mapping.clone());
            }
        }
    }
    model.finetuned = Some(ft);
}

/// English words too generic to be value aliases.
const STOPWORDS: &[&str] = &[
    "what", "which", "show", "list", "find", "give", "the", "of", "all", "are", "is", "with",
    "whose", "that", "have", "has", "and", "or", "in", "for", "how", "many", "much", "count",
    "number", "average", "total", "maximum", "minimum", "per", "each", "every", "from", "their",
    "there", "between", "than", "more", "less", "least", "most", "highest", "lowest", "sorted",
    "descending", "ascending", "order", "containing", "either", "were", "was", "did", "does",
];

fn collect_alias_votes(
    sample: &Sample,
    db: &Database,
    schema_words: &HashSet<String>,
    votes: &mut HashMap<String, HashMap<(String, String, String), u32>>,
) {
    let Ok(query) = sqlengine::parse_query(&sample.sql) else {
        return;
    };
    let lower_q = sample.question.to_lowercase();
    let qwords: Vec<String> = codes_nlp::words(&lower_q)
        .into_iter()
        .filter(|w| w.len() >= 4 && !STOPWORDS.contains(&w.as_str()))
        .collect();
    for (table, column, value) in eq_text_predicates(&query, db) {
        if lower_q.contains(&value.to_lowercase()) {
            continue; // verbatim mention: no alias involved
        }
        for w in &qwords {
            if schema_words.contains(w) {
                continue;
            }
            *votes
                .entry(w.clone())
                .or_default()
                .entry((table.clone(), column.clone(), value.clone()))
                .or_insert(0) += 1;
        }
    }
}

/// `(table, column, value)` for every `col = 'text'` predicate of a query.
fn eq_text_predicates(query: &sqlengine::ast::Query, db: &Database) -> Vec<(String, String, String)> {
    use sqlengine::ast::{Expr, SetExpr};
    let mut out = Vec::new();
    fn walk_set(se: &SetExpr, db: &Database, out: &mut Vec<(String, String, String)>) {
        match se {
            SetExpr::Select(s) => {
                if let Some(sel) = &s.selection {
                    walk(sel, db, out);
                }
                if let Some(h) = &s.having {
                    walk(h, db, out);
                }
            }
            SetExpr::Nested(q) => walk_set(&q.body, db, out),
            SetExpr::SetOp { left, right, .. } => {
                walk_set(left, db, out);
                walk_set(right, db, out);
            }
        }
    }
    fn walk(e: &Expr, db: &Database, out: &mut Vec<(String, String, String)>) {
        match e {
            Expr::Binary { left, op: sqlengine::ast::BinaryOp::Eq, right } => {
                if let (Expr::Column { name, .. }, Expr::Literal(sqlengine::Value::Text(v))) =
                    (left.as_ref(), right.as_ref())
                {
                    // Resolve the column's table by name search.
                    if let Some(t) = db.tables.iter().find(|t| t.schema.column(name).is_some()) {
                        out.push((t.schema.name.clone(), name.clone(), v.clone()));
                    }
                }
            }
            Expr::Binary { left, right, .. } => {
                walk(left, db, out);
                walk(right, db, out);
            }
            Expr::InSubquery { query, .. } => walk_set(&query.body, db, out),
            Expr::Unary { expr, .. } => walk(expr, db, out),
            _ => {}
        }
    }
    walk_set(&query.body, db, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{table4_models, ModelSize};
    use crate::pretrain::{pretrain, PretrainConfig};
    use crate::prompt::{build_prompt, PromptOptions};
    use codes_datasets::finance::bank_financials_db;
    use codes_retrieval::ValueIndex;

    fn model(name: &str) -> CodesModel {
        let catalog = Arc::new(SketchCatalog::build());
        let spec = table4_models().into_iter().find(|m| m.name == name).unwrap();
        let lm = pretrain(&catalog, &spec, &PretrainConfig { scale: 10, seed: 3 });
        CodesModel::new(lm, catalog)
    }

    #[test]
    fn generates_executable_sql_for_simple_question() {
        let m = model("CodeS-7B");
        let db = bank_financials_db(1);
        let idx = ValueIndex::build(&db);
        let q = "How many clients do we have?";
        let prompt = build_prompt(&db, q, None, None, Some(&idx), &PromptOptions::sft());
        let g = m.generate(&db, &prompt, q, None, &[]);
        assert!(sqlengine::execute_query(&db, &g.sql).is_ok(), "{}", g.sql);
        assert!(g.beam.len() <= ModelSize::B7.capacity().beam_width);
        assert!(g.sql.to_uppercase().contains("COUNT"));
    }

    #[test]
    fn ek_aliases_supply_missing_values() {
        let m = model("CodeS-7B");
        let db = bank_financials_db(1);
        let idx = ValueIndex::build(&db);
        let q = "How many clients are women?";
        let ek = "women refers to client.gender = 'F'";
        let prompt = build_prompt(&db, q, Some(ek), None, Some(&idx), &PromptOptions::sft());
        let g = m.generate(&db, &prompt, q, Some(ek), &[]);
        assert!(g.sql.contains("'F'"), "EK should surface the code: {}", g.sql);
    }

    #[test]
    fn parse_knowledge_extracts_mappings() {
        let parsed = parse_knowledge("women refers to client.gender = 'F'; canine refers to pet.pet_type = 'dog'");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], ("women".into(), "client".into(), "gender".into(), "F".into()));
    }

    #[test]
    fn finetuning_sharpens_priors() {
        let mut m = model("CodeS-3B");
        let db = bank_financials_db(1);
        let train = codes_datasets::finance::test_samples(&db, 60, 77);
        finetune(&mut m, train.iter().map(|s| (s, &db)));
        let ft = m.finetuned.as_ref().unwrap();
        assert!(ft.total > 40);
        // Counting questions should strongly prefer counting templates.
        let intent = extract_intent("How many clients do we have?");
        let bucket = intent_bucket(&intent);
        let _ = bucket;
        assert!(!ft.template_counts.is_empty());
    }

    #[test]
    fn alias_learning_from_training_data() {
        let mut m = model("CodeS-7B");
        let db = bank_financials_db(1);
        // Build a tiny training set where "women" consistently maps to 'F'.
        let mk = |q: &str, sql: &str| codes_datasets::finance::manual_sample(&db, q, sql);
        let train = [mk("How many clients are women?", "SELECT COUNT(*) FROM client WHERE gender = 'F'"),
            mk("List the cities of women clients?", "SELECT city FROM client WHERE gender = 'F'"),
            mk("Count the women with accounts?", "SELECT COUNT(*) FROM client WHERE gender = 'F'")];
        finetune(&mut m, train.iter().map(|s| (s, &db)));
        let ft = m.finetuned.as_ref().unwrap();
        assert!(ft.knows_alias("women"), "alias map: {:?}", ft.alias_map);
        // And generation now uses it without EK.
        let idx = ValueIndex::build(&db);
        let q = "How many clients are women?";
        let prompt = build_prompt(&db, q, None, None, Some(&idx), &PromptOptions::sft());
        let g = m.generate(&db, &prompt, q, None, &[]);
        assert!(g.sql.contains("'F'"), "{}", g.sql);
    }

    #[test]
    fn demos_boost_their_sketch() {
        let m = model("CodeS-7B");
        let db = bank_financials_db(1);
        let idx = ValueIndex::build(&db);
        // An ambiguous question; a distinct-count demo should pull the model
        // toward COUNT(DISTINCT ...).
        let q = "How many different cities do clients live in?";
        let prompt = build_prompt(&db, q, None, None, Some(&idx), &PromptOptions::few_shot());
        let demo = codes_datasets::finance::manual_sample(
            &db,
            "How many different branches are there?",
            "SELECT COUNT(DISTINCT branch) FROM account",
        );
        let g = m.generate(&db, &prompt, q, None, &[&demo]);
        assert!(
            g.sql.to_uppercase().contains("DISTINCT"),
            "demo should steer toward COUNT(DISTINCT): {}",
            g.sql
        );
    }

    #[test]
    fn noise_is_deterministic() {
        assert_eq!(deterministic_noise("q", "s"), deterministic_noise("q", "s"));
        assert_ne!(deterministic_noise("q", "s1"), deterministic_noise("q", "s2"));
        let n = deterministic_noise("abc", "def");
        assert!((-1.0..=1.0).contains(&n));
    }

    #[test]
    fn intent_buckets_distinguish_question_kinds() {
        let a = intent_bucket(&extract_intent("How many singers are there?"));
        let b = intent_bucket(&extract_intent("What is the average age of singers?"));
        assert_ne!(a, b);
        let a2 = intent_bucket(&extract_intent("How many stadiums are there?"));
        assert_eq!(a, a2);
    }

    fn candidate(sql: &str, score: f64) -> ScoredCandidate {
        ScoredCandidate { sql: sql.to_string(), template_id: 0, score, executable: false }
    }

    #[test]
    fn budget_killed_candidate_falls_through_to_next() {
        let db = bank_financials_db(1);
        // Candidate 0 cross-joins itself into a budget kill; candidate 1 is
        // cheap and valid. Selection must skip to candidate 1.
        let mut beams = vec![vec![
            candidate("SELECT * FROM client AS a, client AS b, client AS c", 0.9),
            candidate("SELECT COUNT(*) FROM client", 0.8),
        ]];
        let limits = sqlengine::ExecLimits {
            max_intermediate_rows: Some(500),
            ..sqlengine::ExecLimits::unlimited()
        };
        let chosen = select_first_executable_batch(&db, &mut beams, &[(limits, 0)])[0].chosen;
        assert_eq!(chosen, Some(1));
        assert!(!beams[0][0].executable, "blowup candidate must be marked non-executable");
        assert!(beams[0][1].executable);
        // The kill is a budget verdict, not a semantic one: a two-way join
        // of the same shape fits unlimited budgets and stays executable.
        let mut beams2 =
            vec![vec![candidate("SELECT COUNT(*) FROM client AS a, client AS b", 0.9)]];
        let unlimited = [(ExecLimits::unlimited(), 0)];
        assert_eq!(select_first_executable_batch(&db, &mut beams2, &unlimited)[0].chosen, Some(0));
    }

    #[test]
    fn panicking_candidate_never_aborts_selection() {
        let db = bank_financials_db(1);
        let mut beams = vec![vec![
            candidate("SELECT __FAULT_PANIC()", 0.9),
            candidate("SELECT COUNT(*) FROM client", 0.8),
        ]];
        let budget = [(ExecLimits::unlimited(), 1)];
        let chosen = select_first_executable_batch(&db, &mut beams, &budget)[0].chosen;
        assert_eq!(chosen, Some(1), "selection must survive the panicking candidate");
        assert!(!beams[0][0].executable);
        assert!(beams[0][1].executable);
    }

    #[test]
    fn batched_selection_agrees_with_solo_and_early_exits() {
        let db = bank_financials_db(1);
        let budget = (ExecLimits::unlimited(), 0);
        let beam_a = vec![
            candidate("SELECT nonsense FROM nowhere", 0.9),
            candidate("SELECT COUNT(*) FROM client", 0.8),
            candidate("SELECT city FROM client", 0.7),
        ];
        let beam_b = vec![
            candidate("SELECT COUNT(*) FROM client", 0.9),
            candidate("SELECT city FROM client", 0.8),
        ];
        // Duplicate included: shared verdicts must not change an answer.
        let mut beams = vec![beam_a.clone(), beam_b, beam_a];
        let alone: Vec<Vec<ScoredCandidate>> = beams
            .iter()
            .map(|beam| {
                let mut one = vec![beam.clone()];
                select_first_executable_batch(&db, &mut one, &[budget]);
                one.remove(0)
            })
            .collect();
        let batched = select_first_executable_batch(&db, &mut beams, &[budget; 3]);
        for ((beam, alone), selection) in beams.iter().zip(&alone).zip(&batched) {
            let flags = |b: &[ScoredCandidate]| b.iter().map(|c| c.executable).collect::<Vec<_>>();
            assert_eq!(flags(beam), flags(alone), "a member must answer as in a batch of one");
            assert_eq!(selection.chosen, beam.iter().position(|c| c.executable));
        }
        // Early exit: member A chose index 1, so its index-2 candidate was
        // never executed and keeps executable=false.
        assert_eq!(batched[0].chosen, Some(1));
        assert!(!beams[0][0].executable);
        assert!(beams[0][1].executable);
        assert!(!beams[0][2].executable, "post-chosen candidates must not be executed");
    }

    #[test]
    fn batched_generation_matches_solo_sql() {
        let mut m = model("CodeS-7B");
        let db = bank_financials_db(1);
        let train = codes_datasets::finance::test_samples(&db, 60, 77);
        finetune(&mut m, train.iter().map(|s| (s, &db)));
        let idx = ValueIndex::build(&db);
        let questions = [
            "How many clients do we have?",
            "What is the average amount of loans?",
            "List the cities of clients?",
            "How many clients do we have?", // duplicate: exercises the memos
        ];
        let cfg = Config::evaluation();
        let started = Instant::now();
        let prompts: Vec<DbPrompt> = questions
            .iter()
            .map(|q| build_prompt(&db, q, None, None, Some(&idx), &PromptOptions::sft()))
            .collect();
        let items: Vec<GenerationBatchItem> = prompts
            .iter()
            .zip(&questions)
            .map(|(prompt, q)| GenerationBatchItem {
                prompt,
                question: q,
                external_knowledge: None,
                demos: &[],
                config: &cfg,
                started,
            })
            .collect();
        let batched = m.generate_governed_batch(&db, &items);
        assert_eq!(batched.len(), questions.len());
        // Cross-member sharing (LM memo, duplicate-decode collapse, shared
        // verdicts) never changes an answer: each member matches the same
        // item in a batch of one, beam flags included.
        for (i, item) in items.iter().enumerate() {
            let alone = m.generate_governed_batch(&db, std::slice::from_ref(item)).remove(0);
            assert_eq!(batched[i].sql, alone.sql, "member {i} ({}) diverged", item.question);
            let flags = |g: &Generation| {
                g.beam.iter().map(|c| (c.sql.clone(), c.executable)).collect::<Vec<_>>()
            };
            assert_eq!(flags(&batched[i]), flags(&alone), "member {i} beam diverged");
        }
    }

    #[test]
    fn spent_deadline_truncates_beam_to_greedy() {
        let m = model("CodeS-7B");
        let db = bank_financials_db(1);
        let idx = ValueIndex::build(&db);
        let q = "How many clients do we have?";
        let prompt = build_prompt(&db, q, None, None, Some(&idx), &PromptOptions::sft());
        // A zero deadline is always nearly spent: generation degrades to
        // the greedy single candidate but still answers.
        let cfg = Config {
            inference_deadline: Some(std::time::Duration::ZERO),
            ..Config::evaluation()
        };
        let g = m.generate_governed(&db, &prompt, q, None, &[], &cfg, Instant::now());
        assert_eq!(g.beam.len(), 1, "beam must degrade to greedy");
        assert!(sqlengine::execute_query(&db, &g.sql).is_ok(), "{}", g.sql);
        // With a generous deadline the beam keeps its width.
        let full = m.generate_governed(
            &db,
            &prompt,
            q,
            None,
            &[],
            &Config::evaluation(),
            Instant::now(),
        );
        assert!(full.beam.len() > 1, "undegraded beam should keep multiple candidates");
    }
}
