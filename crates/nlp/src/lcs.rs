//! Longest-common-substring matching (§6.2's fine-grained value matcher).
//!
//! The paper notes the O(f·u) cost of LCS and motivates the BM25 coarse
//! filter with it. We implement the classic dynamic program (rolling array)
//! plus the `match_degree` normalization used to rank candidate values.

/// Length of the longest common substring of `a` and `b`, case-insensitive.
pub fn lcs_len(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.to_lowercase().chars().collect();
    let b: Vec<char> = b.to_lowercase().chars().collect();
    lcs_len_chars(&a, &b)
}

/// [`lcs_len`] over already lower-cased character slices, for callers that
/// fold one side once and match it against many.
pub fn lcs_len_chars(a: &[char], b: &[char]) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    // Keep the smaller string as the row to bound memory.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut prev = vec![0usize; short.len() + 1];
    let mut cur = vec![0usize; short.len() + 1];
    let mut best = 0usize;
    for &cl in long {
        for (j, &cs) in short.iter().enumerate() {
            cur[j + 1] = if cl == cs { prev[j] + 1 } else { 0 };
            if cur[j + 1] > best {
                best = cur[j + 1];
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    best
}

/// The longest common substring itself (first occurrence).
pub fn lcs_substring(a: &str, b: &str) -> String {
    let ac: Vec<char> = a.to_lowercase().chars().collect();
    let bc: Vec<char> = b.to_lowercase().chars().collect();
    if ac.is_empty() || bc.is_empty() {
        return String::new();
    }
    let mut prev = vec![0usize; bc.len() + 1];
    let mut cur = vec![0usize; bc.len() + 1];
    let mut best = 0usize;
    let mut end_in_a = 0usize;
    for (i, &ca) in ac.iter().enumerate() {
        for (j, &cb) in bc.iter().enumerate() {
            cur[j + 1] = if ca == cb { prev[j] + 1 } else { 0 };
            if cur[j + 1] > best {
                best = cur[j + 1];
                end_in_a = i + 1;
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    ac[end_in_a - best..end_in_a].iter().collect()
}

/// Matching degree of a candidate `value` against a `question`:
/// `LCS length / value length`, in [0, 1]. A value fully contained in the
/// question scores 1.0.
pub fn match_degree(question: &str, value: &str) -> f64 {
    let vlen = value.chars().count();
    if vlen == 0 {
        return 0.0;
    }
    lcs_len(question, value) as f64 / vlen as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_lcs() {
        assert_eq!(lcs_len("abcdef", "zcdem"), 3); // "cde"
        assert_eq!(lcs_substring("abcdef", "zcdem"), "cde");
        assert_eq!(lcs_len("abc", "xyz"), 0);
        assert_eq!(lcs_len("", "abc"), 0);
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(lcs_len("Jesenik", "JESENIK"), 7);
    }

    #[test]
    fn symmetric() {
        assert_eq!(lcs_len("hello world", "low"), lcs_len("low", "hello world"));
    }

    #[test]
    fn match_degree_full_containment() {
        let q = "How many clients opened their accounts in Jesenik branch were women?";
        assert!((match_degree(q, "Jesenik") - 1.0).abs() < 1e-12);
        assert!(match_degree(q, "Jesenik") > match_degree(q, "Jablonec"));
    }

    #[test]
    fn match_degree_bounds() {
        assert_eq!(match_degree("anything", ""), 0.0);
        let d = match_degree("short", "a much longer candidate value");
        assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn unicode_safe() {
        assert_eq!(lcs_len("naïve café", "café"), 4);
    }
}
