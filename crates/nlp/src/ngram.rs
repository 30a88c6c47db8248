//! Interpolated n-gram language model over token ids.
//!
//! This is the "pre-trained language model" substrate of the reproduction:
//! CodeS' incremental pre-training (§5) optimizes next-token likelihood over
//! a SQL-centric corpus; here the same corpus exposure is captured by count
//! statistics. Models with larger capacity use higher n-gram orders, which
//! measurably improves sequence scoring — the property the few-shot
//! experiments (Table 4) depend on.

use std::collections::HashMap;

use crate::bpe::TokenId;

/// Sentinel id used for begin-of-sequence padding contexts.
const BOS: TokenId = u32::MAX;

/// What followed one context in training.
#[derive(Debug, Clone, Default)]
struct Successors {
    /// successor -> count
    counts: HashMap<TokenId, u64>,
    /// Sum of `counts`, kept as they grow.
    total: u64,
}

impl Successors {
    fn add(&mut self, tok: TokenId, count: u64) {
        *self.counts.entry(tok).or_insert(0) += count;
        self.total += count;
    }
}

/// An interpolated n-gram model with Witten-Bell-style smoothing.
#[derive(Debug, Clone)]
pub struct NgramLm {
    order: usize,
    /// Per context length 1..order: context -> its successors.
    counts: Vec<HashMap<Vec<TokenId>, Successors>>,
    /// Unigram totals.
    unigrams: HashMap<TokenId, u64>,
    total_tokens: u64,
    vocab_size: usize,
}

impl NgramLm {
    /// Create an empty model of the given order (>= 1).
    pub fn new(order: usize, vocab_size: usize) -> NgramLm {
        let order = order.max(1);
        NgramLm {
            order,
            counts: vec![HashMap::new(); order.saturating_sub(1)],
            unigrams: HashMap::new(),
            total_tokens: 0,
            vocab_size: vocab_size.max(1),
        }
    }

    /// The model's n-gram order.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of tokens observed during training.
    pub fn tokens_seen(&self) -> u64 {
        self.total_tokens
    }

    /// Accumulate counts from one training sequence.
    pub fn observe(&mut self, seq: &[TokenId]) {
        for (i, &tok) in seq.iter().enumerate() {
            *self.unigrams.entry(tok).or_insert(0) += 1;
            self.total_tokens += 1;
            for n in 2..=self.order {
                let ctx = context_at(seq, i, n - 1);
                self.counts[n - 2].entry(ctx).or_default().add(tok, 1);
            }
        }
    }

    /// Interpolated probability of `tok` following `history` (most recent
    /// token last).
    pub fn prob(&self, history: &[TokenId], tok: TokenId) -> f64 {
        let longest = self.order - 1;
        match history.len().checked_sub(longest) {
            Some(start) => self.prob_after(&history[start..], tok),
            None => {
                let mut padded = vec![BOS; longest - history.len()];
                padded.extend_from_slice(history);
                self.prob_after(&padded, tok)
            }
        }
    }

    /// [`NgramLm::prob`] given the `order - 1` tokens before `tok`,
    /// BOS-padded: the context of every order is a suffix of it.
    fn prob_after(&self, context: &[TokenId], tok: TokenId) -> f64 {
        // Base: add-one smoothed unigram.
        let mut p = (self.unigrams.get(&tok).copied().unwrap_or(0) as f64 + 1.0)
            / (self.total_tokens as f64 + self.vocab_size as f64);
        // Recursively interpolate higher orders (Witten-Bell weights).
        for (level, contexts) in self.counts.iter().enumerate() {
            let ctx = &context[context.len() - (level + 1)..];
            if let Some(successors) = contexts.get(ctx) {
                let ctx_total = successors.total;
                let distinct = successors.counts.len() as f64;
                let lambda = ctx_total as f64 / (ctx_total as f64 + distinct);
                let c = successors.counts.get(&tok).copied().unwrap_or(0) as f64;
                p = lambda * (c / ctx_total as f64) + (1.0 - lambda) * p;
            }
            // Unseen context: keep lower-order estimate.
        }
        p
    }

    /// Total log2-probability of a sequence.
    pub fn log2_prob(&self, seq: &[TokenId]) -> f64 {
        let longest = self.order - 1;
        let mut padded = vec![BOS; longest];
        padded.extend_from_slice(seq);
        let mut lp = 0.0;
        for (i, &tok) in seq.iter().enumerate() {
            lp += self.prob_after(&padded[i..i + longest], tok).log2();
        }
        lp
    }

    /// Perplexity of a sequence (2^(-avg log2 prob)).
    pub fn perplexity(&self, seq: &[TokenId]) -> f64 {
        if seq.is_empty() {
            return f64::INFINITY;
        }
        let lp = self.log2_prob(seq);
        2f64.powf(-lp / seq.len() as f64)
    }

    /// Merge another model's counts into this one (corpus mixing).
    pub fn absorb(&mut self, other: &NgramLm) {
        assert_eq!(self.order, other.order, "orders must match to absorb");
        for (tok, c) in &other.unigrams {
            *self.unigrams.entry(*tok).or_insert(0) += c;
        }
        self.total_tokens += other.total_tokens;
        for (level, contexts) in other.counts.iter().enumerate() {
            for (ctx, successors) in contexts {
                let entry = self.counts[level].entry(ctx.clone()).or_default();
                for (tok, c) in &successors.counts {
                    entry.add(*tok, *c);
                }
            }
        }
    }
}

fn context_at(seq: &[TokenId], i: usize, len: usize) -> Vec<TokenId> {
    let mut ctx = Vec::with_capacity(len);
    for k in (1..=len).rev() {
        if i >= k {
            ctx.push(seq[i - k]);
        } else {
            ctx.push(BOS);
        }
    }
    ctx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_sequences() -> Vec<Vec<TokenId>> {
        // "1 2 3" repeated, plus "1 2 4" once: after [1,2], 3 is likelier.
        let mut v = vec![vec![1, 2, 3]; 9];
        v.push(vec![1, 2, 4]);
        v
    }

    fn trained(order: usize) -> NgramLm {
        let mut lm = NgramLm::new(order, 10);
        for s in toy_sequences() {
            lm.observe(&s);
        }
        lm
    }

    #[test]
    fn probabilities_sum_to_at_most_one() {
        let lm = trained(3);
        let total: f64 = (0..10).map(|t| lm.prob(&[1, 2], t)).sum();
        assert!(total <= 1.0 + 1e-9, "total={total}");
    }

    #[test]
    fn context_disambiguates() {
        let lm = trained(3);
        assert!(lm.prob(&[1, 2], 3) > lm.prob(&[1, 2], 4));
        assert!(lm.prob(&[1, 2], 3) > lm.prob(&[], 3));
    }

    #[test]
    fn higher_order_fits_training_data_better() {
        let uni = trained(1);
        let tri = trained(3);
        let seq = vec![1, 2, 3];
        assert!(tri.perplexity(&seq) < uni.perplexity(&seq));
    }

    #[test]
    fn more_training_data_lowers_perplexity() {
        let mut small = NgramLm::new(3, 10);
        small.observe(&[1, 2, 3]);
        let big = trained(3);
        assert!(big.perplexity(&[1, 2, 3]) < small.perplexity(&[1, 2, 3]));
    }

    #[test]
    fn unseen_tokens_get_nonzero_probability() {
        let lm = trained(3);
        assert!(lm.prob(&[1, 2], 9) > 0.0);
        assert!(lm.log2_prob(&[9, 9, 9]).is_finite());
    }

    #[test]
    fn absorb_merges_counts() {
        let mut a = NgramLm::new(2, 10);
        a.observe(&[1, 2]);
        let mut b = NgramLm::new(2, 10);
        b.observe(&[1, 3]);
        let p_before = a.prob(&[1], 3);
        a.absorb(&b);
        assert!(a.prob(&[1], 3) > p_before);
        assert_eq!(a.tokens_seen(), 4);
    }

    #[test]
    fn successor_totals_equal_the_sum_of_their_counts() {
        let assert_totals = |lm: &NgramLm| {
            let mut contexts = 0;
            for successors in lm.counts.iter().flat_map(HashMap::values) {
                assert_eq!(successors.total, successors.counts.values().sum::<u64>());
                contexts += 1;
            }
            assert!(contexts > 0);
        };
        let mut a = trained(3);
        assert_totals(&a);
        let mut b = NgramLm::new(3, 10);
        b.observe(&[1, 2, 4, 1, 2, 5]);
        b.observe(&[7]);
        a.absorb(&b);
        assert_totals(&a);
        // [1, 2] was followed by 3 nine times and by 4 once, then by 4 and 5.
        assert_eq!(a.counts[1][&[1, 2][..]].total, 12);
    }

    #[test]
    fn short_histories_are_padded_like_sequence_starts() {
        let lm = trained(3);
        let seq = [1, 2, 3];
        let by_token: f64 = (0..seq.len()).map(|i| lm.prob(&seq[..i], seq[i]).log2()).sum();
        assert_eq!(lm.log2_prob(&seq).to_bits(), (0.0 + by_token).to_bits());
        // A longer history than the order reads is cut to its tail.
        assert_eq!(lm.prob(&[9, 9, 1, 2], 3).to_bits(), lm.prob(&[1, 2], 3).to_bits());
    }

    #[test]
    fn empty_sequence_perplexity_is_infinite() {
        let lm = trained(2);
        assert!(lm.perplexity(&[]).is_infinite());
    }
}
