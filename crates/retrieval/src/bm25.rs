//! An inverted-index BM25 engine — the Lucene substitute behind the
//! coarse-grained value search of §6.2.

use std::collections::HashMap;

use codes_nlp::words;

/// BM25 hyper-parameters (Lucene defaults).
const K1: f64 = 1.2;
const B: f64 = 0.75;

/// A ranked search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Index of the document, in insertion order.
    pub doc: usize,
    /// BM25 relevance score.
    pub score: f64,
}

/// An inverted-index BM25 scorer over tokenized documents.
#[derive(Debug, Default)]
pub struct Bm25Index {
    /// term -> postings (doc id, term frequency)
    postings: HashMap<String, Vec<(u32, u32)>>,
    doc_lens: Vec<u32>,
    total_len: u64,
}

impl Bm25Index {
    /// An empty index.
    pub fn new() -> Bm25Index {
        Bm25Index::default()
    }

    /// Add a document; returns its id.
    pub fn add_document(&mut self, text: &str) -> usize {
        let id = self.doc_lens.len() as u32;
        let tokens = words(text);
        let mut tf: HashMap<String, u32> = HashMap::new();
        for t in &tokens {
            *tf.entry(t.clone()).or_insert(0) += 1;
        }
        for (term, count) in tf {
            self.postings.entry(term).or_default().push((id, count));
        }
        self.doc_lens.push(tokens.len() as u32);
        self.total_len += tokens.len() as u64;
        id as usize
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.doc_lens.len()
    }

    /// True when no documents are indexed.
    pub fn is_empty(&self) -> bool {
        self.doc_lens.is_empty()
    }

    /// BM25 search: returns up to `top_k` hits sorted by descending score.
    /// Documents sharing no term with the query are never returned.
    pub fn search(&self, query: &str, top_k: usize) -> Vec<SearchHit> {
        if self.doc_lens.is_empty() || top_k == 0 {
            return Vec::new();
        }
        let n = self.doc_lens.len() as f64;
        let avg_len = self.total_len as f64 / n;
        let mut scores: HashMap<u32, f64> = HashMap::new();
        // Deduplicate query terms but keep multiplicity as a weight. Terms are
        // visited in first-occurrence order: a document's score is a sum of
        // per-term contributions, and a fixed order keeps its bits fixed.
        let mut qtf: Vec<(String, u32)> = Vec::new();
        for t in words(query) {
            match qtf.iter_mut().find(|(term, _)| *term == t) {
                Some((_, count)) => *count += 1,
                None => qtf.push((t, 1)),
            }
        }
        for (term, q_count) in qtf {
            let Some(posts) = self.postings.get(&term) else {
                continue;
            };
            let df = posts.len() as f64;
            let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
            for &(doc, tf) in posts {
                let dl = self.doc_lens[doc as usize] as f64;
                let tf = tf as f64;
                let norm = tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * dl / avg_len));
                *scores.entry(doc).or_insert(0.0) += idf * norm * q_count as f64;
            }
        }
        let mut hits: Vec<SearchHit> = scores
            .into_iter()
            .map(|(doc, score)| SearchHit { doc: doc as usize, score })
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        hits.truncate(top_k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> Bm25Index {
        let mut idx = Bm25Index::new();
        for doc in [
            "Jesenik",                   // 0
            "Praha east branch",         // 1
            "Jablonec nad Nisou",        // 2
            "south Jesenik district",    // 3
            "completely unrelated text", // 4
        ] {
            idx.add_document(doc);
        }
        idx
    }

    #[test]
    fn exact_term_ranks_first() {
        let idx = index();
        let hits = idx.search("clients opened accounts in Jesenik branch", 3);
        assert!(!hits.is_empty());
        // Both Jesenik docs should appear before unrelated docs.
        let docs: Vec<usize> = hits.iter().map(|h| h.doc).collect();
        assert!(docs.contains(&0));
        assert!(docs.contains(&3));
        assert!(!docs.contains(&4));
    }

    #[test]
    fn shorter_documents_score_higher_for_same_match() {
        let idx = index();
        let hits = idx.search("Jesenik", 5);
        assert_eq!(hits[0].doc, 0, "bare 'Jesenik' should beat the longer doc");
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn no_shared_terms_returns_empty() {
        let idx = index();
        assert!(idx.search("zzz qqq", 10).is_empty());
    }

    #[test]
    fn top_k_truncation() {
        let idx = index();
        let hits = idx.search("branch district east", 1);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn rare_terms_outweigh_common_terms() {
        let mut idx = Bm25Index::new();
        for _ in 0..50 {
            idx.add_document("common filler words");
        }
        idx.add_document("common rarity");
        let hits = idx.search("rarity", 3);
        assert_eq!(hits[0].doc, 50);
    }

    #[test]
    fn empty_index_is_safe() {
        let idx = Bm25Index::new();
        assert!(idx.search("anything", 5).is_empty());
        assert!(idx.is_empty());
    }
}
