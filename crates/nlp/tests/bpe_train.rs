//! `Bpe::train` against the textbook trainer it replaced, kept here
//! verbatim: every merge recounts every adjacent pair of every word type
//! and rebuilds the word map. The incremental trainer must learn the same
//! tokens in the same id order and the same ranked merges, which shows as
//! identical encodings of every training word and of unseen probe words.

use std::collections::HashMap;

use codes_nlp::{Bpe, TokenId};
use proptest::prelude::*;

/// The trainer's output, as the reference learns it.
struct Reference {
    vocab: HashMap<String, TokenId>,
    tokens: Vec<String>,
    merges: HashMap<(TokenId, TokenId), (TokenId, usize)>,
}

impl Reference {
    fn train(corpus: &[&str], vocab_size: usize) -> Reference {
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

        let mut merges: HashMap<(TokenId, TokenId), (TokenId, usize)> = HashMap::new();
        let mut rank = 0usize;
        while tokens.len() < vocab_size {
            let mut pair_counts: HashMap<(TokenId, TokenId), u64> = HashMap::new();
            for (seq, count) in &word_counts {
                for w in seq.windows(2) {
                    *pair_counts.entry((w[0], w[1])).or_insert(0) += count;
                }
            }
            let Some((&best_pair, &best_count)) = pair_counts
                .iter()
                .max_by_key(|(pair, count)| (*count, std::cmp::Reverse(**pair)))
            else {
                break;
            };
            if best_count < 2 {
                break;
            }
            let merged_str = format!("{}{}", tokens[best_pair.0 as usize], tokens[best_pair.1 as usize]);
            let merged_id = intern(merged_str, &mut tokens, &mut vocab);
            merges.insert(best_pair, (merged_id, rank));
            rank += 1;
            let old: Vec<(Vec<TokenId>, u64)> = word_counts.drain().collect();
            for (seq, count) in old {
                let merged = apply_merge(&seq, best_pair, merged_id);
                *word_counts.entry(merged).or_insert(0) += count;
            }
        }

        Reference { vocab, tokens, merges }
    }

    fn encode_word(&self, word: &str) -> Vec<TokenId> {
        let mut seq: Vec<TokenId> = word
            .chars()
            .map(|c| self.vocab.get(&c.to_string()).copied().unwrap_or(0))
            .collect();
        if let Some(&end) = self.vocab.get("</w>") {
            seq.push(end);
        }
        loop {
            let mut best: Option<(usize, (TokenId, usize))> = None;
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

    /// Merge rules whose merged string was already a token: two pairs that
    /// concatenate to one string share its id.
    fn shared_merge_ids(&self) -> usize {
        let mut ids: Vec<TokenId> = self.merges.values().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        let distinct = ids.len() - ids.windows(2).filter(|w| w[0] == w[1]).count();
        self.merges.len() - distinct
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

/// Token strings, training-word encodings and probe encodings all agree.
fn assert_matches(corpus: &[&str], vocab_size: usize, probes: &[String]) -> Result<(), String> {
    let bpe = Bpe::train(corpus, vocab_size);
    let reference = Reference::train(corpus, vocab_size);
    let tokens: Vec<&str> = (0..bpe.vocab_size())
        .map(|id| bpe.token_str(id as TokenId).expect("id below vocab_size"))
        .collect();
    let expected: Vec<&str> = reference.tokens.iter().map(String::as_str).collect();
    prop_assert_eq!(tokens, expected);
    let words = corpus.iter().flat_map(|t| t.split_whitespace());
    for word in words.chain(probes.iter().map(String::as_str)) {
        let (got, want) = (bpe.encode_word(word), reference.encode_word(word));
        prop_assert!(got == want, "word {word:?}: {got:?} != {want:?}");
    }
    Ok(())
}

/// Pieces a generated corpus draws its words from: plain letters, letters
/// mixed with multi-byte characters, or markup that spells the end
/// marker's string `</w>` (so a merge can intern a string that already is
/// a token). The last piece of each is the one past the alphabet.
const ALPHABETS: [[&str; 6]; 3] = [
    ["a", "b", "c", "d", "e", "z"],
    ["a", "日", "b", "ß", "é", "ø"],
    ["a", "</w>", "</", "w>", "b", "z"],
];
const SPACES: [&str; 3] = [" ", "\t", "\n"];

/// Each index picks one of the first `alphabet` pieces, or (one time in
/// `alphabet + 1`) a whitespace character.
fn text(indices: &[usize], alphabet: usize, pieces: &[&str; 6]) -> String {
    indices
        .iter()
        .map(|&i| match i % (alphabet + 1) {
            l if l < alphabet => pieces[l],
            _ => SPACES[i % SPACES.len()],
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Small alphabets make runs like `aaa` (overlapping pairs) common;
    /// vocab sizes run from 0 to well past the point where no pair repeats.
    #[test]
    fn incremental_training_matches_the_reference(
        alphabet in 1usize..6,
        kind in 0usize..3,
        docs in prop::collection::vec(prop::collection::vec(0usize..1000, 0..60), 0..6),
        probes in prop::collection::vec(prop::collection::vec(0usize..1000, 1..12), 0..8),
        vocab_size in 0usize..160,
    ) {
        let pieces = &ALPHABETS[kind];
        let docs: Vec<String> = docs.iter().map(|d| text(d, alphabet, pieces)).collect();
        let corpus: Vec<&str> = docs.iter().map(String::as_str).collect();
        // Probes may hold the piece past the alphabet, which training never saw.
        let probes: Vec<String> = probes
            .iter()
            .map(|p| text(p, alphabet + 1, pieces).split_whitespace().collect())
            .collect();
        assert_matches(&corpus, vocab_size, &probes)?;
    }
}

#[test]
fn the_empty_corpus_learns_only_unk() {
    for vocab_size in [0, 1, 2, 50] {
        assert_matches(&[], vocab_size, &["abc".to_string()]).unwrap();
        assert_eq!(Bpe::train(&[], vocab_size).vocab_size(), 1);
    }
}

#[test]
fn overlapping_runs_match_the_reference() {
    let corpus = ["aaa aaa aaaa a aa", "aaaaaaa bbb abab"];
    for vocab_size in 0..40 {
        assert_matches(&corpus, vocab_size, &["aaaaa".into(), "ababab".into(), "ba".into()]).unwrap();
    }
}

/// `a` + `</w>` (the end marker) and `a</` + `w>` both merge, into one
/// `a</w>` token: the second merge interns a string that already is a
/// token, so the vocabulary does not grow, and training must still end
/// where the reference does. Over single characters no two merges spell
/// one string (`ab` + `c` needs `ab` merged before `bc`, `a` + `bc` the
/// reverse), so the case needs a word that spells the end marker.
#[test]
fn two_pairs_that_concatenate_to_one_string_share_its_id() {
    let corpus = ["a</w></a a</w></a"];
    let reference = Reference::train(&corpus, 1000);
    let id = |s: &str| reference.vocab[s];
    let shared = reference.merges[&(id("a"), id("</w>"))].0;
    assert_eq!(reference.merges[&(id("a</"), id("w>"))].0, shared);
    assert_eq!(reference.shared_merge_ids(), 1);
    for vocab_size in 0..20 {
        assert_matches(&corpus, vocab_size, &["a</w>".into(), "a".into(), "</a</w>".into()]).unwrap();
    }
    assert_matches(&corpus, 1000, &[]).unwrap();
}
