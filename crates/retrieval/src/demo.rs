//! Question-pattern-aware demonstration retriever (§8.2).
//!
//! Scores a training question `d` against a test question `t` with Eq. 4:
//! `max(sentsim(t, d), sentsim(pattern(t), pattern(d)))`, where `pattern`
//! strips entities. The pattern term prevents the retriever from fixating
//! on shared entities ("singers and songs") and instead surfaces
//! structurally similar demonstrations.

use codes_nlp::{question_pattern, Embedder};

/// A retrievable demonstration: pre-embedded question and pattern.
struct DemoEntry {
    question_vec: Vec<f32>,
    pattern_vec: Vec<f32>,
}

/// Retrieval strategy, exposed so the Table 9 ablations can switch off the
/// pattern term or the retriever entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DemoStrategy {
    /// Eq. 4: max of question similarity and pattern similarity.
    #[default]
    PatternAware,
    /// Question similarity only (`-w/o pattern similarity`).
    QuestionOnly,
    /// Deterministic pseudo-random selection (`-w/o demonstration
    /// retriever`), seeded by the query text.
    Random,
}

/// Pre-indexed retriever over a pool of training questions.
pub struct DemoRetriever {
    embedder: Embedder,
    entries: Vec<DemoEntry>,
}

impl DemoRetriever {
    /// Index `questions` with the given embedder.
    pub fn new(embedder: Embedder, questions: &[String]) -> DemoRetriever {
        let entries = questions
            .iter()
            .map(|q| DemoEntry {
                question_vec: embedder.embed(q),
                pattern_vec: embedder.embed(&question_pattern(q)),
            })
            .collect();
        DemoRetriever { embedder, entries }
    }

    /// Number of indexed demonstrations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Return the indices of the top-`k` demonstrations for `question`.
    pub fn retrieve(&self, question: &str, k: usize, strategy: DemoStrategy) -> Vec<usize> {
        if self.entries.is_empty() || k == 0 {
            return Vec::new();
        }
        match strategy {
            DemoStrategy::Random => {
                // Deterministic but question-dependent: hash-stride walk.
                let n = self.entries.len();
                let seed = question.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
                });
                let mut out = Vec::with_capacity(k.min(n));
                let stride = (seed as usize % n.max(1)).max(1) | 1;
                let mut pos = seed as usize % n;
                let mut seen = vec![false; n];
                while out.len() < k.min(n) {
                    // The stride's orbit covers only n / gcd(stride, n)
                    // positions: on a revisit, step to the next unseen one.
                    while seen[pos] {
                        pos = (pos + 1) % n;
                    }
                    seen[pos] = true;
                    out.push(pos);
                    pos = (pos + stride) % n;
                }
                out
            }
            DemoStrategy::QuestionOnly | DemoStrategy::PatternAware => {
                let qv = self.embedder.embed(question);
                let pv = self.embedder.embed(&question_pattern(question));
                let mut scored: Vec<(usize, f32)> = self
                    .entries
                    .iter()
                    .enumerate()
                    .map(|(i, e)| {
                        let qsim = codes_nlp::cosine(&qv, &e.question_vec);
                        let score = match strategy {
                            DemoStrategy::QuestionOnly => qsim,
                            _ => qsim.max(codes_nlp::cosine(&pv, &e.pattern_vec)),
                        };
                        (i, score)
                    })
                    .collect();
                // total_cmp: cosine over degenerate embeddings can yield
                // NaN, which must order deterministically, not panic.
                scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                scored.truncate(k);
                scored.into_iter().map(|(i, _)| i).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codes_nlp::EmbedderBuilder;

    fn pool() -> Vec<String> {
        vec![
            "Show the names of singers born in 1948 or 1949".to_string(), // 0
            "Show the names of members from either 'United States' or 'Canada'".to_string(), // 1
            "Which artist sang the most songs?".to_string(),              // 2
            "What is the total capacity of all stadiums?".to_string(),    // 3
            "List every concert held in 2014".to_string(),                // 4
        ]
    }

    fn retriever() -> DemoRetriever {
        let questions = pool();
        let mut b = EmbedderBuilder::new();
        for q in &questions {
            b.observe(q);
        }
        DemoRetriever::new(b.build(512), &questions)
    }

    #[test]
    fn pattern_similarity_rescues_structural_matches() {
        let r = retriever();
        // The paper's example: an "X or Y" disjunction question should rank
        // the structurally identical members-question (demo 1) higher once
        // pattern similarity participates in the max of Eq. 4.
        let q = "Find the singers born in 1975 or 1976";
        let with_pattern = r.retrieve(q, 5, DemoStrategy::PatternAware);
        let without = r.retrieve(q, 5, DemoStrategy::QuestionOnly);
        let rank = |order: &[usize], target: usize| order.iter().position(|&i| i == target).unwrap();
        assert!(
            rank(&with_pattern, 1) <= rank(&without, 1),
            "pattern-aware {with_pattern:?} should not rank demo 1 below question-only {without:?}"
        );
        // The near-duplicate question (demo 0) stays on top either way.
        assert_eq!(with_pattern[0], 0);
    }

    #[test]
    fn question_only_prefers_entity_overlap() {
        let r = retriever();
        let q = "Which singer sang the most songs in stadium concerts?";
        let top = r.retrieve(q, 1, DemoStrategy::QuestionOnly);
        assert_eq!(top, vec![2]);
    }

    #[test]
    fn random_strategy_is_deterministic_per_question() {
        let r = retriever();
        let a = r.retrieve("some question", 3, DemoStrategy::Random);
        let b = r.retrieve("some question", 3, DemoStrategy::Random);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let c = r.retrieve("another question", 3, DemoStrategy::Random);
        // Usually different (not guaranteed, but for these strings it is).
        assert_ne!(a, c);
    }

    #[test]
    fn k_larger_than_pool_returns_all() {
        let r = retriever();
        assert_eq!(r.retrieve("capacity", 99, DemoStrategy::PatternAware).len(), 5);
        assert_eq!(r.retrieve("capacity", 99, DemoStrategy::Random).len(), 5);
    }

    #[test]
    fn empty_pool_is_safe() {
        let r = DemoRetriever::new(codes_nlp::Embedder::untrained(64), &[]);
        assert!(r.retrieve("q", 3, DemoStrategy::PatternAware).is_empty());
        assert!(r.is_empty());
    }

    #[test]
    fn results_are_unique_indices() {
        let r = retriever();
        for strat in [DemoStrategy::PatternAware, DemoStrategy::QuestionOnly, DemoStrategy::Random] {
            let got = r.retrieve("total stadium capacity", 5, strat);
            let set: std::collections::HashSet<_> = got.iter().collect();
            assert_eq!(set.len(), got.len(), "{strat:?} returned duplicates: {got:?}");
        }
    }
}
