//! Grammar-constrained SQL candidate generation.
//!
//! The generator reads ONLY the database prompt — the filtered schema with
//! its metadata and the retrieved values — plus the question's intent
//! signals. For each SQL sketch the model knows, it greedily fills slots
//! (tables, columns, values, thresholds) using linking scores quantized to
//! the model's similarity resolution. Prompt ablations therefore degrade
//! generation exactly the way Table 9 describes: no value retriever → no
//! reliable predicates, no comments → ambiguous columns mislink, no keys →
//! guessed join paths, no types → arithmetic on text columns.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::collections::HashMap;

use codes_linker::QuestionProfile;
use codes_nlp::similarity::{packed_bigrams, singularize};
use codes_nlp::words;

use crate::config::Capacity;
use crate::intent::{AggHint, Intent, OpHint};
use crate::prompt::{DbPrompt, PromptColumn, PromptTable};

/// A generated candidate query.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The generated SQL text.
    pub sql: String,
    /// The sketch/template that produced it.
    pub template_id: usize,
    /// Mean linking quality of the filled slots, in [0, 1].
    pub slot_score: f64,
}

/// The highest-scoring item, equal scores going to the smaller `position`.
/// Scores are arithmetic over untrusted strings: `total_cmp` gives a NaN a
/// place in the order (above every number) where `partial_cmp` panicked.
fn best_scored<T>(
    items: impl Iterator<Item = (T, f64)>,
    position: impl Fn(&T) -> usize,
) -> Option<(T, f64)> {
    items.max_by(|a, b| a.1.total_cmp(&b.1).then(position(&b.0).cmp(&position(&a.0))))
}

/// How one prompt table or column meets the question.
#[derive(Clone, Copy)]
struct Link {
    /// Linking score, quantized to the model's resolution.
    score: f64,
    /// Byte offset of its first mention in the question (`usize::MAX` when
    /// unmentioned) — used to order projections and break ties.
    mention: usize,
}

/// The links of one prompt table: `columns[j]` belongs to
/// `prompt.tables[i].columns[j]`.
struct TableLinks {
    table: Link,
    columns: Vec<Link>,
}

/// How one distinct word of the prompt's names and comments meets the
/// question.
#[derive(Clone, Copy)]
struct WordHit {
    /// Its singular is the singular of a question word.
    covered: bool,
    /// Best dice similarity to any question word.
    dice: f64,
    /// Byte offset of its first occurrence in the lower-cased question
    /// (`usize::MAX` when absent).
    mention: usize,
}

/// Link every table and column of `prompt` against `question`: the question
/// is read once, each distinct prompt word meets it once, and each item
/// folds the hits of its words.
fn link_table(prompt: &DbPrompt, question: &str, capacity: &Capacity) -> Vec<TableLinks> {
    let profile = QuestionProfile::new(question);
    let mut hits: HashMap<String, WordHit> = HashMap::new();
    // Coverage of the surface's words by the question (plural-insensitive)
    // or the best per-word dice, whichever is stronger.
    let mut link = |nl: &str| {
        let (mut covered, mut count, mut best_dice) = (0usize, 0usize, 0.0f64);
        let mut mention = usize::MAX;
        for word in words(nl) {
            let hit = *hits.entry(word).or_insert_with_key(|word| WordHit {
                covered: profile.has_singular(&singularize(word)),
                dice: profile.best_dice(&packed_bigrams(word)),
                mention: profile.lower().find(word.as_str()).unwrap_or(usize::MAX),
            });
            count += 1;
            covered += usize::from(hit.covered);
            best_dice = best_dice.max(hit.dice);
            mention = mention.min(hit.mention);
        }
        let coverage = if count == 0 { 0.0 } else { covered as f64 / count as f64 };
        Link { score: capacity.quantize(coverage.max(best_dice * 0.9)), mention }
    };
    prompt
        .tables
        .iter()
        .map(|t| {
            let columns: Vec<Link> = t.columns.iter().map(|c| link(&c.nl())).collect();
            // A table links through its name or its best column.
            let name = link(&t.nl());
            let best_col = columns.iter().map(|c| c.score).fold(0.0f64, f64::max);
            let score = capacity.quantize(name.score.max(0.8 * best_col));
            TableLinks { table: Link { score, mention: name.mention }, columns }
        })
        .collect()
}

/// Index of `item` in `items` when it is borrowed from that slice.
fn position_in<T>(items: &[T], item: &T) -> Option<usize> {
    let offset = (item as *const T as usize).checked_sub(items.as_ptr() as usize)?;
    let index = offset / std::mem::size_of::<T>();
    items.get(index).is_some_and(|at| std::ptr::eq(at, item)).then_some(index)
}

/// Slot-filling context over one prompt.
pub struct SlotContext<'a> {
    /// The model's view of the database.
    pub prompt: &'a DbPrompt,
    /// The question being answered.
    pub question: &'a str,
    /// Extracted intent signals.
    pub intent: &'a Intent,
    /// Capacity of the generating model (quantization, beam...).
    pub capacity: &'a Capacity,
    /// One entry per prompt table, index-aligned with `prompt.tables`.
    links: Vec<TableLinks>,
}

impl<'a> SlotContext<'a> {
    /// Bundle the inputs of one generation call and link the prompt against
    /// the question, once: every score and mention position the slot
    /// fillers ask for afterwards is a look-up.
    pub fn new(prompt: &'a DbPrompt, question: &'a str, intent: &'a Intent, capacity: &'a Capacity) -> Self {
        let links = link_table(prompt, question, capacity);
        SlotContext { prompt, question, intent, capacity, links }
    }

    /// The link of a column borrowed from `self.prompt`.
    fn column_link(&self, col: &PromptColumn) -> Link {
        self.prompt
            .tables
            .iter()
            .zip(&self.links)
            .find_map(|(t, links)| Some(links.columns[position_in(&t.columns, col)?]))
            .expect("slot fillers pass columns borrowed from the context's prompt")
    }

    /// The link of a table borrowed from `self.prompt`.
    fn table_link(&self, t: &PromptTable) -> Link {
        let index = position_in(&self.prompt.tables, t)
            .expect("slot fillers pass tables borrowed from the context's prompt");
        self.links[index].table
    }

    /// Linking score of a column NL surface against the question.
    fn column_score(&self, col: &PromptColumn) -> f64 {
        self.column_link(col).score
    }

    /// Linking score of a table against the question (name or best column).
    ///
    /// # Panics
    /// When `t` is not borrowed from `self.prompt.tables`.
    pub fn table_score(&self, t: &PromptTable) -> f64 {
        self.table_link(t).score
    }

    /// Whether a column is numeric, judged from the prompt alone.
    fn is_numeric(&self, col: &PromptColumn) -> Option<bool> {
        if let Some(dt) = col.data_type {
            return Some(dt.is_numeric());
        }
        if !col.representative.is_empty() {
            return Some(col.representative.iter().all(|v| v.parse::<f64>().is_ok()));
        }
        None
    }

    /// Best table for the query, biased toward the table holding the best
    /// value match.
    fn main_table(&self) -> Option<(&PromptTable, f64)> {
        if let Some(m) = self.prompt.matched_values.first() {
            if let Some(t) = self.prompt.table(&m.table) {
                return Some((t, self.capacity.quantize(0.6 + 0.4 * m.degree)));
            }
        }
        best_scored(self.prompt.tables.iter().map(|t| (t, self.table_score(t))), |t| {
            self.table_mention_position(t)
        })
    }

    /// Best non-PK "content" column of a table (optionally excluding one).
    /// Ties break toward the column mentioned earliest in the question.
    fn content_col<'t>(&self, t: &'t PromptTable, exclude: &[&str]) -> Option<(&'t PromptColumn, f64)> {
        let scored = t
            .columns
            .iter()
            .filter(|c| !c.is_primary_key && !exclude.iter().any(|e| e.eq_ignore_ascii_case(&c.name)))
            .filter(|c| !c.name.to_lowercase().ends_with("_id"))
            .map(|c| (c, self.column_score(c)));
        best_scored(scored, |c| self.mention_position(c))
    }

    /// Best numeric column of a table by linking score.
    fn numeric_col<'t>(&self, t: &'t PromptTable, exclude: &[&str]) -> Option<(&'t PromptColumn, f64)> {
        let scored = t
            .columns
            .iter()
            .filter(|c| !c.is_primary_key && !exclude.iter().any(|e| e.eq_ignore_ascii_case(&c.name)))
            .filter(|c| !c.name.to_lowercase().ends_with("_id"))
            .filter_map(|c| match self.is_numeric(c) {
                Some(true) => Some((c, self.column_score(c))),
                Some(false) => None,
                // Type unknown (types + values ablated): usable but risky.
                None => Some((c, self.column_score(c) * 0.5)),
            });
        best_scored(scored, |c| self.mention_position(c))
    }

    /// Best text-valued filter: (table, column, value literal, score).
    /// Primary source is the value retriever; the fallback pairs a quoted
    /// question span with the best-linked text column (weaker).
    fn text_filter(&self) -> Option<(String, String, String, f64)> {
        if let Some(m) = self.prompt.matched_values.first() {
            return Some((
                m.table.clone(),
                m.column.clone(),
                m.value.clone(),
                self.capacity.quantize(0.55 + 0.45 * m.degree),
            ));
        }
        let quoted = self.intent.quoted.first()?;
        // Guess the column: best text column across the prompt.
        let mut best: Option<(String, String, f64)> = None;
        for t in &self.prompt.tables {
            for c in &t.columns {
                if self.is_numeric(c) == Some(true) || c.is_primary_key {
                    continue;
                }
                let s = self.column_score(c) * 0.55;
                if best.as_ref().map(|(_, _, bs)| s > *bs).unwrap_or(true) {
                    best = Some((t.name.clone(), c.name.clone(), s));
                }
            }
        }
        let (t, c, s) = best?;
        Some((t, c, quoted.clone(), s))
    }

    /// A second value for disjunction templates, from the question text.
    fn second_value(&self, first: &str) -> Option<String> {
        self.intent.quoted.iter().find(|q| *q != first).cloned()
    }

    /// FK edges among prompt tables: (child, fk, parent, pk). When keys are
    /// ablated from the prompt, joins are guessed from identical column
    /// names — the realistic failure mode of `-w/o primary and foreign keys`.
    fn join_edges(&self) -> Vec<(String, String, String, String)> {
        if !self.prompt.foreign_keys.is_empty() {
            return self.prompt.foreign_keys.clone();
        }
        let mut out = Vec::new();
        for (i, a) in self.prompt.tables.iter().enumerate() {
            for b in self.prompt.tables.iter().skip(i + 1) {
                for ca in &a.columns {
                    if ca.name.to_lowercase().ends_with("_id") {
                        if let Some(cb) = b.column(&ca.name) {
                            out.push((a.name.clone(), ca.name.clone(), b.name.clone(), cb.name.clone()));
                        }
                    }
                }
            }
        }
        out
    }

    /// Byte offset of the column's first mention in the question
    /// (usize::MAX when unmentioned) — used to order projections.
    fn mention_position(&self, col: &PromptColumn) -> usize {
        self.column_link(col).mention
    }

    /// Byte offset of the table's first mention in the question.
    fn table_mention_position(&self, t: &PromptTable) -> usize {
        self.table_link(t).mention
    }

    /// Join edge whose parent table holds the value filter.
    fn edge_to_value_table(&self, value_table: &str) -> Option<(String, String, String, String)> {
        self.join_edges()
            .into_iter()
            .find(|(child, _, parent, _)| {
                parent.eq_ignore_ascii_case(value_table) && !child.eq_ignore_ascii_case(value_table)
            })
    }

    fn first_number(&self) -> Option<&String> {
        self.intent.numbers.first()
    }

    fn two_numbers(&self) -> Option<(&String, &String)> {
        if self.intent.numbers.len() >= 2 {
            Some((&self.intent.numbers[0], &self.intent.numbers[1]))
        } else {
            None
        }
    }

    fn agg(&self) -> &'static str {
        match self.intent.agg {
            Some(AggHint::Avg) => "AVG",
            Some(AggHint::Sum) => "SUM",
            Some(AggHint::Max) => "MAX",
            Some(AggHint::Min) => "MIN",
            None => "AVG",
        }
    }

    fn op(&self) -> &'static str {
        match self.intent.op {
            Some(OpHint::Gt) | None => ">",
            Some(OpHint::Lt) => "<",
            Some(OpHint::Ge) => ">=",
            Some(OpHint::Le) => "<=",
        }
    }

    fn direction(&self) -> &'static str {
        if self.intent.superlative_asc || self.intent.agg == Some(AggHint::Min) {
            "ASC"
        } else {
            "DESC"
        }
    }
}

fn esc(v: &str) -> String {
    v.replace('\'', "''")
}

/// Fill the top `take` entries of a ranked `(template_id, score)` list in
/// one pass, keeping the candidates that fill. This is the beam step:
/// one traversal of the ranked list per member, yielding each filled
/// [`Candidate`] alongside its template score for the ranker.
pub fn fill_ranked(
    ctx: &SlotContext,
    ranked: &[(usize, f64)],
    take: usize,
) -> Vec<(Candidate, f64)> {
    let mut out = Vec::with_capacity(take.min(ranked.len()));
    for &(id, template_score) in ranked.iter().take(take) {
        if let Some(candidate) = fill_template(ctx, id) {
            out.push((candidate, template_score));
        }
    }
    out
}

/// Generate the best slot assignment for one template. `None` when the
/// prompt cannot satisfy the template's requirements.
pub fn fill_template(ctx: &SlotContext, template_id: usize) -> Option<Candidate> {
    let mut scores: Vec<f64> = Vec::new();
    let push = |s: f64, scores: &mut Vec<f64>| scores.push(s.clamp(0.0, 1.0));

    let sql = match template_id {
        0 => {
            let (t, s) = ctx.main_table()?;
            push(s, &mut scores);
            format!("SELECT COUNT(*) FROM {}", t.name)
        }
        1 | 30 => {
            let (t, ts) = ctx.main_table()?;
            push(ts, &mut scores);
            if template_id == 30 {
                // Pick the sort column first so a numeric best-linked column
                // is not consumed by the projection slot.
                let (cn, ns) = ctx.numeric_col(t, &[])?;
                let (c, cs) = ctx.content_col(t, &[&cn.name])?;
                push(cs, &mut scores);
                push(ns, &mut scores);
                let (first, second) = if ctx.mention_position(cn) < ctx.mention_position(c) {
                    (cn, c)
                } else {
                    (c, cn)
                };
                format!(
                    "SELECT {}, {} FROM {} ORDER BY {} {}",
                    first.name, second.name, t.name, cn.name, ctx.direction()
                )
            } else {
                let (c, cs) = ctx.content_col(t, &[])?;
                push(cs, &mut scores);
                format!("SELECT {} FROM {}", c.name, t.name)
            }
        }
        2 => {
            let (t, ts) = ctx.main_table()?;
            let (c1, s1) = ctx.content_col(t, &[])?;
            let (c2, s2) = ctx.content_col(t, &[&c1.name])?;
            push(ts, &mut scores);
            push(s1, &mut scores);
            push(s2, &mut scores);
            // Project in the order the question mentions the columns.
            let (first, second) = if ctx.mention_position(c2) < ctx.mention_position(c1) {
                (c2, c1)
            } else {
                (c1, c2)
            };
            format!("SELECT {}, {} FROM {}", first.name, second.name, t.name)
        }
        3 => {
            let (t, s) = ctx.main_table()?;
            push(s, &mut scores);
            format!("SELECT * FROM {}", t.name)
        }
        4 => {
            let (t, ts) = ctx.main_table()?;
            let (c, cs) = ctx.content_col(t, &[])?;
            push(ts, &mut scores);
            push(cs, &mut scores);
            format!("SELECT DISTINCT {} FROM {}", c.name, t.name)
        }
        5 => {
            let (vt, vc, value, vs) = ctx.text_filter()?;
            let t = ctx.prompt.table(&vt)?;
            let (c, cs) = ctx.content_col(t, &[&vc])?;
            push(vs, &mut scores);
            push(cs, &mut scores);
            format!("SELECT {} FROM {} WHERE {} = '{}'", c.name, vt, vc, esc(&value))
        }
        6 => {
            let (t, ts) = ctx.main_table()?;
            let (cn, ns) = ctx.numeric_col(t, &[])?;
            let (c, cs) = ctx.content_col(t, &[&cn.name])?;
            let n = ctx.first_number()?;
            push(ts, &mut scores);
            push(ns, &mut scores);
            push(cs, &mut scores);
            format!("SELECT {} FROM {} WHERE {} {} {}", c.name, t.name, cn.name, ctx.op(), n)
        }
        7 => {
            let (vt, vc, value, vs) = ctx.text_filter()?;
            push(vs, &mut scores);
            format!("SELECT COUNT(*) FROM {} WHERE {} = '{}'", vt, vc, esc(&value))
        }
        8 => {
            let (t, ts) = ctx.main_table()?;
            let (cn, ns) = ctx.numeric_col(t, &[])?;
            push(ts, &mut scores);
            push(ns, &mut scores);
            format!("SELECT {}({}) FROM {}", ctx.agg(), cn.name, t.name)
        }
        9 => {
            let (t, ts) = ctx.main_table()?;
            let (cn, ns) = ctx.numeric_col(t, &[])?;
            let (c, cs) = ctx.content_col(t, &[&cn.name])?;
            push(ts, &mut scores);
            push(ns, &mut scores);
            push(cs, &mut scores);
            // Templates 9 and 16 share a sketch; the question's number (if
            // any) parametrizes the LIMIT.
            let limit = ctx.first_number().cloned().unwrap_or_else(|| "1".to_string());
            format!(
                "SELECT {} FROM {} ORDER BY {} {} LIMIT {}",
                c.name, t.name, cn.name, ctx.direction(), limit
            )
        }
        10 => {
            let (vt, vc, value, vs) = ctx.text_filter()?;
            let t = ctx.prompt.table(&vt)?;
            let (cn, ns) = ctx.numeric_col(t, &[&vc])?;
            push(vs, &mut scores);
            push(ns, &mut scores);
            format!(
                "SELECT {}({}) FROM {} WHERE {} = '{}'",
                ctx.agg(),
                cn.name,
                vt,
                vc,
                esc(&value)
            )
        }
        11 => {
            let (vt, vc, value, vs) = ctx.text_filter()?;
            let t = ctx.prompt.table(&vt)?;
            let (cn, ns) = ctx.numeric_col(t, &[&vc])?;
            let (c, cs) = ctx.content_col(t, &[])?;
            let n = ctx.first_number()?;
            push(vs, &mut scores);
            push(ns, &mut scores);
            push(cs, &mut scores);
            format!(
                "SELECT {} FROM {} WHERE {} = '{}' AND {} {} {}",
                c.name,
                vt,
                vc,
                esc(&value),
                cn.name,
                ctx.op(),
                n
            )
        }
        12 | 32 => {
            let (t, ts) = ctx.main_table()?;
            let (c, cs) = ctx.group_col(t)?;
            push(ts, &mut scores);
            push(cs, &mut scores);
            // One-table grouping loses credibility when a second table is
            // strongly mentioned (the join-group templates should win then).
            let other = ctx
                .prompt
                .tables
                .iter()
                .filter(|o| !o.name.eq_ignore_ascii_case(&t.name))
                .map(|o| ctx.table_score(o))
                .fold(0.0f64, f64::max);
            push(1.0 - 0.8 * other, &mut scores);
            let tail = if template_id == 32 { " ORDER BY COUNT(*) DESC" } else { "" };
            format!(
                "SELECT {}, COUNT(*) FROM {} GROUP BY {}{tail}",
                c.name, t.name, c.name
            )
        }
        13 => {
            let (t, ts) = ctx.main_table()?;
            let (c, cs) = ctx.group_col(t)?;
            let (cn, ns) = ctx.numeric_col(t, &[&c.name])?;
            push(ts, &mut scores);
            push(cs, &mut scores);
            push(ns, &mut scores);
            format!(
                "SELECT {}, {}({}) FROM {} GROUP BY {}",
                c.name,
                ctx.agg(),
                cn.name,
                t.name,
                c.name
            )
        }
        14 => {
            let (t, ts) = ctx.main_table()?;
            let (c, cs) = ctx.group_col(t)?;
            let n = ctx.first_number()?;
            push(ts, &mut scores);
            push(cs, &mut scores);
            format!(
                "SELECT {} FROM {} GROUP BY {} HAVING COUNT(*) >= {}",
                c.name, t.name, c.name, n
            )
        }
        15 => {
            let (t, ts) = ctx.main_table()?;
            let (c, cs) = ctx.group_col(t)?;
            push(ts, &mut scores);
            push(cs, &mut scores);
            format!(
                "SELECT {} FROM {} GROUP BY {} ORDER BY COUNT(*) DESC LIMIT 1",
                c.name, t.name, c.name
            )
        }
        16 => {
            let (t, ts) = ctx.main_table()?;
            let (cn, ns) = ctx.numeric_col(t, &[])?;
            let (c, cs) = ctx.content_col(t, &[&cn.name])?;
            let n = ctx.first_number()?;
            push(ts, &mut scores);
            push(ns, &mut scores);
            push(cs, &mut scores);
            format!(
                "SELECT {} FROM {} ORDER BY {} {} LIMIT {}",
                c.name,
                t.name,
                cn.name,
                ctx.direction(),
                n
            )
        }
        17 => {
            let (t, ts) = ctx.main_table()?;
            let (c, cs) = ctx.content_col(t, &[])?;
            push(ts, &mut scores);
            push(cs, &mut scores);
            format!("SELECT COUNT(DISTINCT {}) FROM {}", c.name, t.name)
        }
        18 => {
            let (t, ts) = ctx.main_table()?;
            let (cn, ns) = ctx.numeric_col(t, &[])?;
            let (c, cs) = ctx.content_col(t, &[&cn.name])?;
            let (lo, hi) = ctx.two_numbers()?;
            push(ts, &mut scores);
            push(ns, &mut scores);
            push(cs, &mut scores);
            format!(
                "SELECT {} FROM {} WHERE {} BETWEEN {} AND {}",
                c.name, t.name, cn.name, lo, hi
            )
        }
        19 => {
            let (vt, vc, value, vs) = ctx.text_filter()?;
            let t = ctx.prompt.table(&vt)?;
            let (c, cs) = ctx.content_col(t, &[&vc])?;
            push(vs, &mut scores);
            push(cs, &mut scores);
            // LIKE uses the first word of the matched value as the needle.
            let needle = value.split_whitespace().next().unwrap_or(&value);
            format!(
                "SELECT {} FROM {} WHERE {} LIKE '%{}%'",
                c.name,
                vt,
                vc,
                esc(needle)
            )
        }
        20 => {
            let (t, ts) = ctx.main_table()?;
            let (c, cs) = ctx.content_col(t, &[])?;
            push(ts, &mut scores);
            push(cs, &mut scores);
            // The word, not the substring: "unknown" asks for the NULLs.
            let negated = words(ctx.question).iter().any(|w| w == "known");
            format!(
                "SELECT COUNT(*) FROM {} WHERE {} IS {}NULL",
                t.name,
                c.name,
                if negated { "NOT " } else { "" }
            )
        }
        21 => {
            let (vt, vc, value, vs) = ctx.text_filter()?;
            let (child, fk, parent, pk) = ctx.edge_to_value_table(&vt)?;
            let child_t = ctx.prompt.table(&child)?;
            let (c, cs) = ctx.content_col(child_t, &[&fk])?;
            push(vs, &mut scores);
            push(cs, &mut scores);
            format!(
                "SELECT T1.{} FROM {} AS T1 JOIN {} AS T2 ON T1.{} = T2.{} WHERE T2.{} = '{}'",
                c.name,
                child,
                parent,
                fk,
                pk,
                vc,
                esc(&value)
            )
        }
        22 => {
            let (vt, vc, value, vs) = ctx.text_filter()?;
            let (child, fk, parent, pk) = ctx.edge_to_value_table(&vt)?;
            push(vs, &mut scores);
            format!(
                "SELECT COUNT(*) FROM {} AS T1 JOIN {} AS T2 ON T1.{} = T2.{} WHERE T2.{} = '{}'",
                child,
                parent,
                fk,
                pk,
                vc,
                esc(&value)
            )
        }
        23 | 24 => {
            // join group (count | argmax) over the best edge by table link.
            let (child, fk, parent, pk) = ctx.best_edge()?;
            let parent_t = ctx.prompt.table(&parent)?;
            let (label, ls) = ctx.content_col(parent_t, &[&pk])?;
            push(ls, &mut scores);
            // The counted noun is the child table: require evidence that
            // the question mentions it, or this is really a one-table group.
            if let Some(child_t) = ctx.prompt.table(&child) {
                push(ctx.table_score(child_t), &mut scores);
            }
            if template_id == 23 {
                format!(
                    "SELECT T2.{}, COUNT(*) FROM {} AS T1 JOIN {} AS T2 ON T1.{} = T2.{} GROUP BY T2.{}",
                    label.name, child, parent, fk, pk, label.name
                )
            } else {
                format!(
                    "SELECT T2.{} FROM {} AS T1 JOIN {} AS T2 ON T1.{} = T2.{} GROUP BY T2.{} ORDER BY COUNT(*) DESC LIMIT 1",
                    label.name, child, parent, fk, pk, label.name
                )
            }
        }
        25 => {
            let (vt, vc, value, vs) = ctx.text_filter()?;
            let (child, fk, parent, pk) = ctx.edge_to_value_table(&vt)?;
            let child_t = ctx.prompt.table(&child)?;
            let (cn, ns) = ctx.numeric_col(child_t, &[&fk])?;
            push(vs, &mut scores);
            push(ns, &mut scores);
            format!(
                "SELECT {}(T1.{}) FROM {} AS T1 JOIN {} AS T2 ON T1.{} = T2.{} WHERE T2.{} = '{}'",
                ctx.agg(),
                cn.name,
                child,
                parent,
                fk,
                pk,
                vc,
                esc(&value)
            )
        }
        26 => {
            let (t, ts) = ctx.main_table()?;
            let (cn, ns) = ctx.numeric_col(t, &[])?;
            let (c, cs) = ctx.content_col(t, &[&cn.name])?;
            push(ts, &mut scores);
            push(ns, &mut scores);
            push(cs, &mut scores);
            format!(
                "SELECT {} FROM {} WHERE {} > (SELECT AVG({}) FROM {})",
                c.name, t.name, cn.name, cn.name, t.name
            )
        }
        27 => {
            let (child, fk, parent, pk) = ctx.best_edge()?;
            let parent_t = ctx.prompt.table(&parent)?;
            let child_t = ctx.prompt.table(&child)?;
            let (label, ls) = ctx.content_col(parent_t, &[&pk])?;
            let (cn, ns) = ctx.numeric_col(child_t, &[&fk])?;
            let n = ctx.first_number()?;
            push(ls, &mut scores);
            push(ns, &mut scores);
            format!(
                "SELECT {} FROM {} WHERE {} IN (SELECT {} FROM {} WHERE {} {} {})",
                label.name,
                parent,
                pk,
                fk,
                child,
                cn.name,
                ctx.op(),
                n
            )
        }
        28 => {
            let (child, fk, parent, pk) = ctx.best_edge()?;
            let parent_t = ctx.prompt.table(&parent)?;
            let (label, ls) = ctx.content_col(parent_t, &[&pk])?;
            push(ls, &mut scores);
            format!(
                "SELECT {} FROM {} WHERE {} NOT IN (SELECT {} FROM {} WHERE {} IS NOT NULL)",
                label.name, parent, pk, fk, child, fk
            )
        }
        29 => {
            let (vt, vc, v1, vs) = ctx.text_filter()?;
            let v2 = ctx.second_value(&v1)?;
            let t = ctx.prompt.table(&vt)?;
            let (c, cs) = ctx.content_col(t, &[&vc])?;
            push(vs, &mut scores);
            push(cs, &mut scores);
            format!(
                "SELECT {} FROM {} WHERE {} = '{}' OR {} = '{}'",
                c.name,
                vt,
                vc,
                esc(&v1),
                vc,
                esc(&v2)
            )
        }
        31 => {
            let (t, ts) = ctx.main_table()?;
            let (c, cs) = ctx.group_col(t)?;
            let (cn, ns) = ctx.numeric_col(t, &[&c.name])?;
            let n = ctx.first_number()?;
            push(ts, &mut scores);
            push(cs, &mut scores);
            push(ns, &mut scores);
            format!(
                "SELECT {} FROM {} GROUP BY {} HAVING AVG({}) {} {}",
                c.name,
                t.name,
                c.name,
                cn.name,
                ctx.op(),
                n
            )
        }
        33 => {
            let (vt, vc, value, vs) = ctx.text_filter()?;
            let t = ctx.prompt.table(&vt)?;
            let (c, cs) = ctx.content_col(t, &[&vc])?;
            let (cn, ns) = ctx.numeric_col(t, &[&vc, &c.name])?;
            let n = ctx.first_number()?;
            push(vs, &mut scores);
            push(cs, &mut scores);
            push(ns, &mut scores);
            format!(
                "SELECT {} FROM {} WHERE {} = '{}' UNION SELECT {} FROM {} WHERE {} {} {}",
                c.name,
                vt,
                vc,
                esc(&value),
                c.name,
                vt,
                cn.name,
                ctx.op(),
                n
            )
        }
        34 => {
            let (t, ts) = ctx.main_table()?;
            let (cn, ns) = ctx.numeric_col(t, &[])?;
            let (c, cs) = ctx.content_col(t, &[&cn.name])?;
            let (lo, hi) = ctx.two_numbers()?;
            push(ts, &mut scores);
            push(ns, &mut scores);
            push(cs, &mut scores);
            format!(
                "SELECT {} FROM {} WHERE {} > {} INTERSECT SELECT {} FROM {} WHERE {} < {}",
                c.name, t.name, cn.name, lo, c.name, t.name, cn.name, hi
            )
        }
        35 => {
            let (child, fk, parent, pk) = ctx.best_edge()?;
            push(0.6, &mut scores);
            format!("SELECT {} FROM {} EXCEPT SELECT {} FROM {}", pk, parent, fk, child)
        }
        36 => {
            let (child, fk, parent, pk) = ctx.best_edge()?;
            let parent_t = ctx.prompt.table(&parent)?;
            let (label, ls) = ctx.content_col(parent_t, &[&pk])?;
            let n = ctx.first_number()?;
            push(ls, &mut scores);
            format!(
                "SELECT {} FROM {} WHERE {} IN (SELECT {} FROM {} GROUP BY {} HAVING COUNT(*) > {})",
                label.name,
                parent,
                pk,
                fk,
                child,
                fk,
                n
            )
        }
        37 => {
            let (vt, vc, value, vs) = ctx.text_filter()?;
            // Find a link table with edges to both the value table and a
            // second parent.
            let edges = ctx.join_edges();
            let mut found = None;
            for (c1, fk1, p1, pk1) in &edges {
                if !p1.eq_ignore_ascii_case(&vt) {
                    continue;
                }
                for (c2, fk2, p2, pk2) in &edges {
                    if c2 == c1 && !p2.eq_ignore_ascii_case(&vt) {
                        found = Some((
                            c1.clone(),
                            (fk2.clone(), p2.clone(), pk2.clone()),
                            (fk1.clone(), p1.clone(), pk1.clone()),
                        ));
                    }
                }
            }
            let (link, (fk_a, parent_a, pk_a), (fk_b, parent_b, pk_b)) = found?;
            let pa = ctx.prompt.table(&parent_a)?;
            let (label, ls) = ctx.content_col(pa, &[&pk_a])?;
            push(vs, &mut scores);
            push(ls, &mut scores);
            format!(
                "SELECT DISTINCT T2.{} FROM {} AS T1 JOIN {} AS T2 ON T1.{} = T2.{} JOIN {} AS T3 ON T1.{} = T3.{} WHERE T3.{} = '{}'",
                label.name,
                link,
                parent_a,
                fk_a,
                pk_a,
                parent_b,
                fk_b,
                pk_b,
                vc,
                esc(&value)
            )
        }
        38 => {
            let (t, ts) = ctx.main_table()?;
            let (cn, ns) = ctx.numeric_col(t, &[])?;
            let (c, cs) = ctx.content_col(t, &[&cn.name])?;
            push(ts, &mut scores);
            push(ns, &mut scores);
            push(cs, &mut scores);
            let f = if ctx.direction() == "ASC" { "MIN" } else { "MAX" };
            format!(
                "SELECT {} FROM {} WHERE {} = (SELECT {f}({}) FROM {})",
                c.name, t.name, cn.name, cn.name, t.name
            )
        }
        39 => {
            let (t, ts) = ctx.main_table()?;
            let (c, cs) = ctx.group_col(t)?;
            let (cn, ns) = ctx.numeric_col(t, &[&c.name])?;
            let n = ctx.first_number()?;
            push(ts, &mut scores);
            push(cs, &mut scores);
            push(ns, &mut scores);
            format!(
                "SELECT {}, COUNT(*) FROM {} WHERE {} {} {} GROUP BY {} ORDER BY COUNT(*) DESC",
                c.name,
                t.name,
                cn.name,
                ctx.op(),
                n,
                c.name
            )
        }
        40 => {
            let (t, ts) = ctx.main_table()?;
            let (cn, ns) = ctx.numeric_col(t, &[])?;
            let n = ctx.first_number()?;
            push(ts, &mut scores);
            push(ns, &mut scores);
            format!(
                "SELECT COUNT(*) FROM {} WHERE {} {} {}",
                t.name,
                cn.name,
                ctx.op(),
                n
            )
        }
        _ => return None,
    };

    let slot_score = if scores.is_empty() {
        0.4
    } else {
        scores.iter().sum::<f64>() / scores.len() as f64
    };
    Some(Candidate { sql, template_id, slot_score })
}

impl<'a> SlotContext<'a> {
    /// Grouping column: prefer low-cardinality text columns that the
    /// question links to.
    fn group_col(&self, t: &'a PromptTable) -> Option<(&'a PromptColumn, f64)> {
        let scored = t
            .columns
            .iter()
            .filter(|c| !c.is_primary_key && !c.name.to_lowercase().ends_with("_id"))
            .filter(|c| self.is_numeric(c) != Some(true))
            .map(|c| (c, self.column_score(c)));
        best_scored(scored, |c| self.mention_position(c))
    }

    /// The join edge whose endpoints the question links to best.
    fn best_edge(&self) -> Option<(String, String, String, String)> {
        self.join_edges()
            .into_iter()
            .map(|e| {
                let child_score = self.prompt.table(&e.0).map(|t| self.table_score(t)).unwrap_or(0.0);
                let parent_score = self.prompt.table(&e.2).map(|t| self.table_score(t)).unwrap_or(0.0);
                (e, child_score + parent_score)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(e, _)| e)
    }
}

/// The four scoring functions as they were before the link table, verbatim:
/// each call re-reads the question. `fill_template` reads links only through
/// them, so a table whose every entry equals theirs fills the same beams.
#[cfg(test)]
mod oracle {
    use codes_nlp::similarity::{dice_char_bigrams, word_coverage};
    use codes_nlp::words;

    use crate::config::Capacity;
    use crate::prompt::{PromptColumn, PromptTable};

    pub struct Oracle<'a> {
        pub question: &'a str,
        pub capacity: &'a Capacity,
    }

    impl Oracle<'_> {
        /// Linking score of a column NL surface against the question.
        fn link(&self, nl: &str) -> f64 {
            let cov = word_coverage(self.question, nl);
            let mut best_dice = 0.0f64;
            let qwords = words(self.question);
            for nw in words(nl) {
                for qw in &qwords {
                    let d = dice_char_bigrams(&nw, qw);
                    if d > best_dice {
                        best_dice = d;
                    }
                }
            }
            self.capacity.quantize(cov.max(best_dice * 0.9))
        }

        pub fn column_score(&self, col: &PromptColumn) -> f64 {
            self.link(&col.nl())
        }

        /// Linking score of a table against the question (name or best column).
        pub fn table_score(&self, t: &PromptTable) -> f64 {
            let name_score = self.link(&t.nl());
            let best_col = t
                .columns
                .iter()
                .map(|c| self.column_score(c))
                .fold(0.0f64, f64::max);
            self.capacity.quantize(name_score.max(0.8 * best_col))
        }

        /// Byte offset of the column's first mention in the question
        /// (usize::MAX when unmentioned) — used to order projections.
        pub fn mention_position(&self, col: &PromptColumn) -> usize {
            let lower_q = self.question.to_lowercase();
            codes_nlp::words(&col.nl())
                .into_iter()
                .filter_map(|w| lower_q.find(&w))
                .min()
                .unwrap_or(usize::MAX)
        }

        /// Byte offset of the table's first mention in the question.
        pub fn table_mention_position(&self, t: &PromptTable) -> usize {
            let lower_q = self.question.to_lowercase();
            codes_nlp::words(&t.nl())
                .into_iter()
                .filter_map(|w| lower_q.find(&w))
                .min()
                .unwrap_or(usize::MAX)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::Oracle;
    use super::*;
    use crate::config::ModelSize;
    use crate::intent::extract_intent;
    use crate::prompt::{build_prompt, PromptOptions};
    use codes_datasets::finance::bank_financials_db;
    use codes_retrieval::ValueIndex;

    fn ctx_fixture(question: &str) -> (DbPrompt, Intent) {
        let db = bank_financials_db(1);
        let idx = ValueIndex::build(&db);
        let prompt = build_prompt(&db, question, None, None, Some(&idx), &PromptOptions::sft());
        let intent = extract_intent(question);
        (prompt, intent)
    }

    #[test]
    fn count_template_picks_right_table() {
        let (prompt, intent) = ctx_fixture("How many clients do we have?");
        let cap = ModelSize::B15.capacity();
        let ctx = SlotContext::new(&prompt, "How many clients do we have?", &intent, &cap);
        let c = fill_template(&ctx, 0).unwrap();
        assert_eq!(c.sql, "SELECT COUNT(*) FROM client");
    }

    #[test]
    fn value_filter_uses_retrieved_value() {
        let q = "How many accounts were opened in the Jesenik branch?";
        let (prompt, intent) = ctx_fixture(q);
        let cap = ModelSize::B15.capacity();
        let ctx = SlotContext::new(&prompt, q, &intent, &cap);
        let c = fill_template(&ctx, 7).unwrap();
        assert!(c.sql.contains("'Jesenik'"), "{}", c.sql);
        assert!(c.sql.contains("branch"), "{}", c.sql);
    }

    #[test]
    fn join_template_uses_fk() {
        let q = "How many clients opened their accounts in Jesenik branch were women?";
        let (prompt, intent) = ctx_fixture(q);
        let cap = ModelSize::B15.capacity();
        let ctx = SlotContext::new(&prompt, q, &intent, &cap);
        if let Some(c) = fill_template(&ctx, 22) {
            assert!(c.sql.contains("JOIN"), "{}", c.sql);
            assert!(c.sql.to_lowercase().contains("account"), "{}", c.sql);
        }
    }

    #[test]
    fn all_templates_generate_valid_sql_when_filled() {
        let db = bank_financials_db(1);
        let idx = ValueIndex::build(&db);
        let questions = [
            "How many clients are there with balance more than 50000 and 2 accounts between 10 and 20?",
            "Show the average balance of accounts in 'Jesenik' or 'Praha' with at least 3 clients?",
        ];
        let cap = ModelSize::B15.capacity();
        let mut filled = 0;
        for q in questions {
            let prompt = build_prompt(&db, q, None, None, Some(&idx), &PromptOptions::sft());
            let intent = extract_intent(q);
            let ctx = SlotContext::new(&prompt, q, &intent, &cap);
            for id in 0..codes_datasets::TEMPLATE_COUNT {
                if let Some(c) = fill_template(&ctx, id) {
                    filled += 1;
                    sqlengine::parse_query(&c.sql)
                        .unwrap_or_else(|e| panic!("template {id} invalid SQL `{}`: {e}", c.sql));
                    assert!((0.0..=1.0).contains(&c.slot_score));
                }
            }
        }
        assert!(filled >= 30, "only {filled} template fills across fixtures");
    }

    #[test]
    fn generated_sql_executes() {
        let db = bank_financials_db(1);
        let idx = ValueIndex::build(&db);
        let q = "What is the average balance of accounts in the Jesenik branch?";
        let prompt = build_prompt(&db, q, None, None, Some(&idx), &PromptOptions::sft());
        let intent = extract_intent(q);
        let cap = ModelSize::B7.capacity();
        let ctx = SlotContext::new(&prompt, q, &intent, &cap);
        let c = fill_template(&ctx, 10).unwrap();
        let r = sqlengine::execute_query(&db, &c.sql);
        assert!(r.is_ok(), "{} -> {:?}", c.sql, r.err());
    }

    /// Every template filled over `prompt`, as `decode_beam` asks for them.
    fn beam(prompt: &DbPrompt, question: &str) -> Vec<(String, u64)> {
        let intent = extract_intent(question);
        let cap = ModelSize::B7.capacity();
        let ctx = SlotContext::new(prompt, question, &intent, &cap);
        let ranked: Vec<(usize, f64)> =
            (0..codes_datasets::TEMPLATE_COUNT).map(|id| (id, 0.0)).collect();
        fill_ranked(&ctx, &ranked, ranked.len())
            .into_iter()
            .map(|(c, _)| (c.sql, c.slot_score.to_bits()))
            .collect()
    }

    #[test]
    fn nan_match_degree_fills_a_beam_without_panicking() {
        let q = "How many accounts were opened in the Jesenik branch?";
        let (mut prompt, _) = ctx_fixture(q);
        assert!(!prompt.matched_values.is_empty(), "fixture retrieves 'Jesenik'");
        for m in &mut prompt.matched_values {
            m.degree = f64::NAN;
        }
        let first = beam(&prompt, q);
        assert!(first.iter().any(|(sql, _)| sql.contains("'Jesenik'")), "{first:?}");
        assert_eq!(first, beam(&prompt, q), "same prompt, same beam, bit for bit");
    }

    #[test]
    fn nan_scoring_column_has_a_place_in_the_order() {
        let (prompt, _) = ctx_fixture("How many clients do we have?");
        let columns = &prompt.tables[0].columns;
        assert!(columns.len() >= 3);
        let pick = |scores: [f64; 3]| {
            best_scored(columns.iter().zip(scores), |c| {
                columns.iter().position(|x| std::ptr::eq(x, *c)).unwrap_or(usize::MAX)
            })
            .map(|(c, _)| c.name.clone())
        };
        // NaN sorts above every number, wherever it sits in the input.
        assert_eq!(pick([0.4, f64::NAN, 0.9]), Some(columns[1].name.clone()));
        assert_eq!(pick([f64::NAN, 0.4, 0.9]), Some(columns[0].name.clone()));
        // Among equals — NaNs included — the earliest position wins.
        assert_eq!(pick([f64::NAN, f64::NAN, 0.9]), Some(columns[0].name.clone()));
        assert_eq!(pick([0.5, 0.9, 0.9]), Some(columns[1].name.clone()));
    }

    #[test]
    fn no_value_retriever_degrades_filter_quality() {
        let db = bank_financials_db(1);
        let idx = ValueIndex::build(&db);
        let q = "How many clients have gender 'F'?";
        let intent = extract_intent(q);
        let cap = ModelSize::B15.capacity();
        let with = build_prompt(&db, q, None, None, Some(&idx), &PromptOptions::sft());
        let without = build_prompt(&db, q, None, None, Some(&idx), &PromptOptions::sft().without_value_retriever());
        let ctx_with = SlotContext::new(&with, q, &intent, &cap);
        let ctx_without = SlotContext::new(&without, q, &intent, &cap);
        let c_with = fill_template(&ctx_with, 7).unwrap();
        let c_without = fill_template(&ctx_without, 7).unwrap();
        assert!(c_with.slot_score >= c_without.slot_score);
    }

    #[test]
    fn null_check_negates_on_the_word_known() {
        let cap = ModelSize::B15.capacity();
        for (q, predicate) in [
            ("How many clients have an unknown city?", "IS NULL"),
            ("How many clients have a known city?", "IS NOT NULL"),
            ("How many clients are missing a city?", "IS NULL"),
        ] {
            let (prompt, intent) = ctx_fixture(q);
            assert!(intent.null_check, "{q}");
            let ctx = SlotContext::new(&prompt, q, &intent, &cap);
            let c = fill_template(&ctx, 20).unwrap();
            assert!(c.sql.ends_with(predicate), "{q} -> {}", c.sql);
        }
    }

    /// Every entry of the link table against the four functions it replaced.
    fn links_equal_the_oracle(prompt: &DbPrompt, question: &str) -> Result<(), String> {
        let intent = extract_intent(question);
        for size in [ModelSize::B1, ModelSize::B3, ModelSize::B7, ModelSize::B15] {
            let capacity = size.capacity();
            let ctx = SlotContext::new(prompt, question, &intent, &capacity);
            let oracle = Oracle { question, capacity: &capacity };
            let same = |what: &str, name: &str, got: (f64, usize), want: (f64, usize)| {
                if (got.0.to_bits(), got.1) == (want.0.to_bits(), want.1) {
                    return Ok(());
                }
                Err(format!("{what} {name:?} for {question:?} at {size:?}: {got:?}, oracle {want:?}"))
            };
            for t in &prompt.tables {
                same(
                    "table",
                    &t.name,
                    (ctx.table_score(t), ctx.table_mention_position(t)),
                    (oracle.table_score(t), oracle.table_mention_position(t)),
                )?;
                for c in &t.columns {
                    same(
                        "column",
                        &c.name,
                        (ctx.column_score(c), ctx.mention_position(c)),
                        (oracle.column_score(c), oracle.mention_position(c)),
                    )?;
                }
            }
        }
        Ok(())
    }

    #[test]
    fn link_table_equals_the_oracle_on_the_mini_dev_sets() {
        let mini = |cfg: codes_datasets::BenchmarkConfig, name: &str| {
            let cfg = codes_datasets::BenchmarkConfig {
                train_samples_per_db: 12,
                dev_samples_per_db: 20,
                ..cfg
            };
            codes_datasets::build_benchmark(name, &cfg)
        };
        let sft = PromptOptions::sft();
        let arms = [
            sft,
            sft.without_value_retriever(),
            sft.without_comments(),
            sft.without_types().without_representative_values(),
        ];
        let mut entries = 0usize;
        for bench in [
            mini(codes_datasets::BenchmarkConfig::spider(41), "mini"),
            mini(codes_datasets::BenchmarkConfig::bird(33), "mini-bird"),
        ] {
            let use_ek = bench.dev.iter().any(|s| s.external_knowledge.is_some());
            let clf = codes_linker::SchemaClassifier::train(&bench, use_ek, 3);
            for db in &bench.databases {
                let idx = ValueIndex::build(db);
                for s in bench.dev.iter().filter(|s| s.db_id == db.name) {
                    let ek = s.external_knowledge.as_deref();
                    for opts in &arms {
                        let prompt = build_prompt(db, &s.question, ek, Some(&clf), Some(&idx), opts);
                        entries += prompt.tables.iter().map(|t| 1 + t.columns.len()).sum::<usize>();
                        links_equal_the_oracle(&prompt, &s.question).unwrap();
                    }
                }
            }
        }
        assert!(entries > 5000, "only {entries} entries compared");
    }

    /// Words that overlap each other in stems, plurals, case and script.
    const STEMS: &[&str] = &[
        "singer", "singers", "city", "cities", "name", "Name", "id", "Größe", "straße", "ÉCOLE",
        "école", "年份", "İstanbul", "ΟΔΟΣ", "box", "boxes", "class", "top5", "a2", "date2009",
    ];

    /// SplitMix64 over a proptest-drawn seed.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn stem(&mut self) -> &'static str {
            STEMS[self.below(STEMS.len())]
        }

        /// An identifier in snake_case, camelCase or spaced upper case;
        /// words repeat within and across identifiers.
        fn identifier(&mut self) -> String {
            let parts: Vec<&str> = (0..1 + self.below(3)).map(|_| self.stem()).collect();
            match self.below(3) {
                0 => parts.join("_"),
                1 => parts
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        let mut cs = p.chars();
                        match (i, cs.next()) {
                            (0, _) | (_, None) => p.to_string(),
                            (_, Some(c)) => c.to_uppercase().chain(cs).collect(),
                        }
                    })
                    .collect(),
                _ => parts.join(" ").to_uppercase(),
            }
        }

        /// 0–4 tables; comments present, empty or absent.
        fn prompt(&mut self) -> DbPrompt {
            let tables = (0..self.below(5))
                .map(|_| PromptTable {
                    name: self.identifier(),
                    columns: (0..self.below(7))
                        .map(|_| PromptColumn {
                            name: self.identifier(),
                            data_type: None,
                            comment: match self.below(3) {
                                0 => Some(format!("{} of the {}", self.stem(), self.stem())),
                                1 => Some(String::new()),
                                _ => None,
                            },
                            representative: Vec::new(),
                            is_primary_key: false,
                        })
                        .collect(),
                })
                .collect();
            DbPrompt {
                db_id: "generated".into(),
                tables,
                foreign_keys: Vec::new(),
                matched_values: Vec::new(),
            }
        }

        /// Sometimes a question with no words at all.
        fn question(&mut self) -> String {
            let words: Vec<&str> = (0..self.below(9)).map(|_| self.stem()).collect();
            match self.below(6) {
                0 => "?! — …".to_string(),
                1 => words.join(", "),
                _ => format!("How many {} have {}?", words.join(" "), self.below(12)),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn link_table_equals_the_oracle_on_generated_prompts(seed in proptest::prelude::any::<u64>()) {
            let mut g = Gen(seed);
            let prompt = g.prompt();
            for _ in 0..4 {
                let question = g.question();
                links_equal_the_oracle(&prompt, &question)?;
            }
        }
    }
}
