//! Lightweight string-similarity measures used by schema linking.

use std::collections::HashSet;

use crate::tokenize::words;

/// Jaccard similarity of the word sets of two strings.
pub fn jaccard_words(a: &str, b: &str) -> f64 {
    let sa: HashSet<String> = words(a).into_iter().collect();
    let sb: HashSet<String> = words(b).into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 0.0;
    }
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    inter / union
}

/// Dice coefficient over character bigrams — robust to morphology
/// ("singer" vs "singers"). Hot path: bigrams are packed into `u64`s and
/// intersected with a sorted two-pointer sweep (no hashing, no per-gram
/// allocation).
pub fn dice_char_bigrams(a: &str, b: &str) -> f64 {
    dice_packed(&packed_bigrams(a), &packed_bigrams(b))
}

/// The distinct character bigrams of the lower-cased `s`, each packed into
/// a `u64`, sorted. Callers that compare one string against many pack it
/// once and sweep with [`dice_packed`].
pub fn packed_bigrams(s: &str) -> Vec<u64> {
    // Boundary padding '#' as in `char_ngrams(s, 2)`.
    let mut prev = '#';
    let mut out = Vec::with_capacity(s.len() + 1);
    for c in s.chars().flat_map(char::to_lowercase) {
        out.push(((prev as u64) << 32) | c as u64);
        prev = c;
    }
    out.push(((prev as u64) << 32) | '#' as u64);
    out.sort_unstable();
    out.dedup();
    out
}

/// Dice coefficient of two [`packed_bigrams`] lists.
pub fn dice_packed(ga: &[u64], gb: &[u64]) -> f64 {
    if ga.is_empty() || gb.is_empty() {
        return 0.0;
    }
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < ga.len() && j < gb.len() {
        match ga[i].cmp(&gb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    2.0 * inter as f64 / (ga.len() + gb.len()) as f64
}

/// Levenshtein edit distance (character level).
pub fn edit_distance(a: &str, b: &str) -> usize {
    let ac: Vec<char> = a.chars().collect();
    let bc: Vec<char> = b.chars().collect();
    if ac.is_empty() {
        return bc.len();
    }
    if bc.is_empty() {
        return ac.len();
    }
    let mut prev: Vec<usize> = (0..=bc.len()).collect();
    let mut cur = vec![0usize; bc.len() + 1];
    for (i, &ca) in ac.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in bc.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[bc.len()]
}

/// Normalized edit similarity in [0, 1].
pub fn edit_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - edit_distance(a, b) as f64 / max_len as f64
}

/// Fraction of `needle`'s words that occur in `haystack`'s word set.
/// Plural-insensitive: "song" covers "songs" and vice versa.
pub fn word_coverage(haystack: &str, needle: &str) -> f64 {
    let hs: HashSet<String> = words(haystack)
        .into_iter()
        .map(|w| singularize(&w))
        .collect();
    let ns = words(needle);
    if ns.is_empty() {
        return 0.0;
    }
    ns.iter().filter(|w| hs.contains(&singularize(w))).count() as f64 / ns.len() as f64
}

/// Crude plural stripping for matching purposes ("cities" -> "city",
/// "songs" -> "song"); words of 3 letters or fewer are left alone.
pub fn singularize(word: &str) -> String {
    if word.len() <= 3 {
        return word.to_string();
    }
    if let Some(stem) = word.strip_suffix("ies") {
        return format!("{stem}y");
    }
    if let Some(stem) = word.strip_suffix("es") {
        if stem.ends_with("sh") || stem.ends_with("ch") || stem.ends_with('s') || stem.ends_with('x') {
            return stem.to_string();
        }
    }
    if let Some(stem) = word.strip_suffix('s') {
        if !stem.ends_with('s') {
            return stem.to_string();
        }
    }
    word.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaccard_identity_and_disjoint() {
        assert!((jaccard_words("a b c", "c b a") - 1.0).abs() < 1e-12);
        assert_eq!(jaccard_words("a b", "x y"), 0.0);
        assert_eq!(jaccard_words("", ""), 0.0);
    }

    #[test]
    fn dice_catches_morphology() {
        assert!(dice_char_bigrams("singer", "singers") >= 0.75);
        assert!(dice_char_bigrams("singer", "stadium") < 0.4);
    }

    #[test]
    fn edit_distance_reference_cases() {
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
    }

    #[test]
    fn edit_similarity_bounds() {
        assert_eq!(edit_similarity("", ""), 1.0);
        assert!((edit_similarity("abcd", "abce") - 0.75).abs() < 1e-12);
    }

    #[test]
    fn coverage_is_directional() {
        assert_eq!(word_coverage("show all singer names", "singer names"), 1.0);
        assert!(word_coverage("singer names", "show all singer names") < 1.0);
    }
}
