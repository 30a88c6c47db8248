//! A trainable byte-pair-encoding tokenizer.
//!
//! CodeS inherits StarCoder's 49,152-token BPE vocabulary; this module is
//! the corresponding substrate: it learns merges from a corpus and encodes
//! text into subword ids that the n-gram language model consumes. Vocabulary
//! size is one of the capacity knobs of the simulated model sizes.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Token id type.
pub type TokenId = u32;

/// Two adjacent token ids.
type Pair = (TokenId, TokenId);

/// A trained BPE tokenizer.
#[derive(Debug, Clone)]
pub struct Bpe {
    /// token string -> id
    vocab: HashMap<String, TokenId>,
    /// id -> token string
    tokens: Vec<String>,
    /// Ordered merge rules: (left, right) -> merged id, rank = position.
    merges: HashMap<(TokenId, TokenId), (TokenId, usize)>,
    /// Id reserved for unknown bytes.
    unk: TokenId,
}

impl Bpe {
    /// Train a tokenizer on `corpus` with at most `vocab_size` entries.
    /// Training operates on whitespace-delimited words with a `</w>` end
    /// marker so merges never cross word boundaries.
    pub fn train(corpus: &[&str], vocab_size: usize) -> Bpe {
        // 1. Base vocabulary: every character observed plus <unk>.
        let mut tokens: Vec<String> = vec!["<unk>".to_string()];
        let mut vocab: HashMap<String, TokenId> = HashMap::new();
        vocab.insert("<unk>".into(), 0);
        let mut word_counts: HashMap<Vec<TokenId>, u64> = HashMap::new();
        let intern = |s: String, tokens: &mut Vec<String>, vocab: &mut HashMap<String, TokenId>| -> TokenId {
            if let Some(&id) = vocab.get(&s) {
                return id;
            }
            let id = tokens.len() as TokenId;
            vocab.insert(s.clone(), id);
            tokens.push(s);
            id
        };
        for text in corpus {
            for word in text.split_whitespace() {
                let mut seq: Vec<TokenId> = Vec::with_capacity(word.len() + 1);
                for ch in word.chars() {
                    seq.push(intern(ch.to_string(), &mut tokens, &mut vocab));
                }
                seq.push(intern("</w>".into(), &mut tokens, &mut vocab));
                *word_counts.entry(seq).or_insert(0) += 1;
            }
        }

        // 2. Pair counts over every word type, and which word types hold
        //    each pair. A word is listed under every pair it holds, and
        //    may stay listed under pairs it has since lost.
        let mut words: Vec<(Vec<TokenId>, u64)> = word_counts.into_iter().collect();
        let mut pair_counts: HashMap<Pair, u64> = HashMap::new();
        let mut holders: HashMap<Pair, Vec<usize>> = HashMap::new();
        for (w, (seq, count)) in words.iter().enumerate() {
            for p in seq.windows(2) {
                *pair_counts.entry((p[0], p[1])).or_insert(0) += count;
                holders.entry((p[0], p[1])).or_default().push(w);
            }
        }
        // Highest count first, then smallest ids. An entry whose count no
        // longer matches `pair_counts` is stale and dropped when popped.
        let mut heap: BinaryHeap<(u64, Reverse<Pair>)> =
            pair_counts.iter().map(|(&pair, &count)| (count, Reverse(pair))).collect();

        // 3. Repeatedly merge the most frequent adjacent pair. Every merge
        //    applied has count ≥ 2 and replaces at least one occurrence, so
        //    each shortens the corpus by at least one token: the loop ends
        //    once the vocabulary is full or no pair repeats.
        let mut merges: HashMap<(TokenId, TokenId), (TokenId, usize)> = HashMap::new();
        let mut rank = 0usize;
        while tokens.len() < vocab_size {
            let Some((best_count, Reverse(best_pair))) = heap.pop() else {
                break;
            };
            if pair_counts.get(&best_pair) != Some(&best_count) {
                continue;
            }
            if best_count < 2 {
                break;
            }
            let merged_str = format!("{}{}", tokens[best_pair.0 as usize], tokens[best_pair.1 as usize]);
            let merged_id = intern(merged_str, &mut tokens, &mut vocab);
            merges.insert(best_pair, (merged_id, rank));
            rank += 1;
            // Re-count only the words that hold the pair: take out all of
            // their windows and put back those of the merged sequence.
            let mut deltas: HashMap<Pair, i64> = HashMap::new();
            for w in holders.remove(&best_pair).unwrap_or_default() {
                let (seq, count) = &mut words[w];
                // Listed once per occurrence, or since lost: nothing to do.
                if !seq.windows(2).any(|p| (p[0], p[1]) == best_pair) {
                    continue;
                }
                let count = *count as i64;
                for p in seq.windows(2) {
                    *deltas.entry((p[0], p[1])).or_insert(0) -= count;
                }
                *seq = apply_merge(seq, best_pair, merged_id);
                for p in seq.windows(2) {
                    *deltas.entry((p[0], p[1])).or_insert(0) += count;
                    if p.contains(&merged_id) {
                        holders.entry((p[0], p[1])).or_default().push(w);
                    }
                }
            }
            for (pair, delta) in deltas {
                if delta == 0 {
                    continue;
                }
                let count = pair_counts.entry(pair).or_insert(0);
                *count = count.checked_add_signed(delta).expect("a pair count never goes below zero");
                if *count == 0 {
                    pair_counts.remove(&pair);
                } else {
                    heap.push((*count, Reverse(pair)));
                }
            }
        }

        Bpe { vocab, tokens, merges, unk: 0 }
    }

    /// Encode text into token ids: the concatenation of its
    /// whitespace-delimited words' encodings, since merges never cross a
    /// word boundary.
    pub fn encode(&self, text: &str) -> Vec<TokenId> {
        let mut out = Vec::new();
        for word in text.split_whitespace() {
            out.extend(self.encode_word(word));
        }
        out
    }

    /// Encode one whitespace-free word, end marker included.
    pub fn encode_word(&self, word: &str) -> Vec<TokenId> {
        let mut utf8 = [0u8; 4];
        let mut seq: Vec<TokenId> = word
            .chars()
            .map(|c| self.vocab.get(&*c.encode_utf8(&mut utf8)).copied().unwrap_or(self.unk))
            .collect();
        if let Some(&end) = self.vocab.get("</w>") {
            seq.push(end);
        }
        // Repeatedly apply the lowest-rank applicable merge. Each pass
        // shortens the sequence by one, so the loop runs at most the
        // word's length in passes.
        loop {
            let mut best: Option<(usize, (TokenId, usize))> = None; // (pos, (merged, rank))
            for (i, w) in seq.windows(2).enumerate() {
                if let Some(&m) = self.merges.get(&(w[0], w[1])) {
                    if best.map(|(_, (_, r))| m.1 < r).unwrap_or(true) {
                        best = Some((i, m));
                    }
                }
            }
            match best {
                Some((pos, (merged, _))) => {
                    seq[pos] = merged;
                    seq.remove(pos + 1);
                }
                None => break,
            }
        }
        seq
    }

    /// Decode ids back to a string (lossy for unknown tokens).
    pub fn decode(&self, ids: &[TokenId]) -> String {
        let mut s = String::new();
        for &id in ids {
            match self.tokens.get(id as usize) {
                Some(t) if t == "<unk>" => s.push('\u{FFFD}'),
                // `</w>` markers may be embedded in merged tokens.
                Some(t) => s.push_str(&t.replace("</w>", " ")),
                None => s.push('\u{FFFD}'),
            }
        }
        s.trim_end().to_string()
    }

    /// Number of tokens in the vocabulary (chars + merges + <unk>).
    pub fn vocab_size(&self) -> usize {
        self.tokens.len()
    }

    /// The surface string of a token id.
    pub fn token_str(&self, id: TokenId) -> Option<&str> {
        self.tokens.get(id as usize).map(String::as_str)
    }
}

fn apply_merge(seq: &[TokenId], pair: (TokenId, TokenId), merged: TokenId) -> Vec<TokenId> {
    let mut out = Vec::with_capacity(seq.len());
    let mut i = 0;
    while i < seq.len() {
        if i + 1 < seq.len() && seq[i] == pair.0 && seq[i + 1] == pair.1 {
            out.push(merged);
            i += 2;
        } else {
            out.push(seq[i]);
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_corpus() -> Vec<&'static str> {
        vec![
            "select name from users where age > 10",
            "select count ( * ) from users",
            "select name from orders where total > 10",
            "select avg ( age ) from users group by name",
        ]
    }

    #[test]
    fn training_grows_vocabulary_with_merges() {
        let corpus = sample_corpus();
        let small = Bpe::train(&corpus, 30);
        let large = Bpe::train(&corpus, 120);
        assert!(large.vocab_size() > small.vocab_size());
        assert!(large.vocab_size() <= 120);
    }

    #[test]
    fn frequent_words_become_single_tokens() {
        let corpus = sample_corpus();
        let bpe = Bpe::train(&corpus, 200);
        let ids = bpe.encode("select");
        assert_eq!(ids.len(), 1, "'select' should be one token, got {ids:?}");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let corpus = sample_corpus();
        let bpe = Bpe::train(&corpus, 150);
        for text in ["select name from users", "avg age group by name"] {
            assert_eq!(bpe.decode(&bpe.encode(text)), text);
        }
    }

    #[test]
    fn unknown_characters_map_to_unk() {
        let corpus = sample_corpus();
        let bpe = Bpe::train(&corpus, 100);
        let ids = bpe.encode("日本");
        assert!(ids.contains(&0));
    }

    #[test]
    fn larger_vocab_produces_shorter_encodings() {
        let corpus = sample_corpus();
        let small = Bpe::train(&corpus, 40);
        let large = Bpe::train(&corpus, 300);
        let text = "select count ( * ) from users where age > 10";
        assert!(large.encode(text).len() <= small.encode(text).len());
    }

    /// `Bpe::encode` as it was before `encode_word`, verbatim: the whole
    /// text in one loop, a `String` per character.
    fn encode_reference(bpe: &Bpe, text: &str) -> Vec<TokenId> {
        let mut out = Vec::new();
        for word in text.split_whitespace() {
            let mut seq: Vec<TokenId> = word
                .chars()
                .map(|c| bpe.vocab.get(&c.to_string()).copied().unwrap_or(bpe.unk))
                .collect();
            if let Some(&end) = bpe.vocab.get("</w>") {
                seq.push(end);
            }
            loop {
                let mut best: Option<(usize, (TokenId, usize))> = None;
                for (i, w) in seq.windows(2).enumerate() {
                    if let Some(&m) = bpe.merges.get(&(w[0], w[1])) {
                        if best.map(|(_, (_, r))| m.1 < r).unwrap_or(true) {
                            best = Some((i, m));
                        }
                    }
                }
                match best {
                    Some((pos, (merged, _))) => {
                        seq[pos] = merged;
                        seq.remove(pos + 1);
                    }
                    None => break,
                }
            }
            out.extend(seq);
        }
        out
    }

    proptest::proptest! {
        /// Unicode, characters the vocabulary never saw, runs of whitespace.
        #[test]
        fn encoding_is_the_concatenation_of_its_words(
            text in "[ \t\nacelst(*)>日İß]{0,40}",
            vocab in 20usize..200,
        ) {
            let bpe = Bpe::train(&sample_corpus(), vocab);
            let by_word: Vec<TokenId> =
                text.split_whitespace().flat_map(|w| bpe.encode_word(w)).collect();
            proptest::prop_assert_eq!(&by_word, &encode_reference(&bpe, &text));
            proptest::prop_assert_eq!(&by_word, &bpe.encode(&text));
        }
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = sample_corpus();
        let a = Bpe::train(&corpus, 100);
        let b = Bpe::train(&corpus, 100);
        assert_eq!(a.encode("select name from users"), b.encode("select name from users"));
    }
}
