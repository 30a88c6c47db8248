//! `DemoStrategy::Random` terminates: its hash-stride walk steps past a
//! revisit to the next unseen demonstration, so a stride whose orbit is
//! shorter than `min(k, n)` (a pool of 15 and a stride of 15, say) still
//! returns `min(k, n)` demonstrations, and returns what the walk always
//! returned wherever its orbit was long enough.

use std::collections::HashSet;
use std::sync::mpsc::channel;
use std::time::Duration;

use codes_nlp::Embedder;
use codes_retrieval::{DemoRetriever, DemoStrategy};
use proptest::prelude::*;

/// The walk before it stepped past revisits, bounded: `None` where it
/// never ended (its orbit is shorter than `min(k, n)`).
fn orbit_walk(question: &str, n: usize, k: usize) -> Option<Vec<usize>> {
    let seed = question.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    });
    let stride = (seed as usize % n).max(1) | 1;
    let mut pos = seed as usize % n;
    let mut out = Vec::new();
    for _ in 0..n {
        if out.contains(&pos) {
            return None;
        }
        out.push(pos);
        if out.len() == k.min(n) {
            return Some(out);
        }
        pos = (pos + stride) % n;
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Each retrieval runs on its own thread behind a latch: the bounded
    /// wait only turns a walk that never ends into a failure.
    #[test]
    fn the_random_walk_returns_min_k_n_distinct_indices(
        n in 0usize..64,
        k in 0usize..8,
        question in "[ -~]{0,40}",
    ) {
        let questions: Vec<String> = (0..n).map(|i| format!("question {i}")).collect();
        let retriever = DemoRetriever::new(Embedder::untrained(16), &questions);
        let (latch, done) = channel();
        let asked = question.clone();
        let worker = std::thread::spawn(move || {
            let _ = latch.send(retriever.retrieve(&asked, k, DemoStrategy::Random));
        });
        let got = done.recv_timeout(Duration::from_secs(20)).expect("the walk never ended");
        worker.join().expect("the retrieval thread");
        let distinct: HashSet<_> = got.iter().collect();
        prop_assert_eq!(got.len(), k.min(n));
        prop_assert_eq!(distinct.len(), got.len());
        prop_assert!(got.iter().all(|&i| i < n));
        if n > 0 && k > 0 {
            if let Some(old) = orbit_walk(&question, n, k) {
                prop_assert_eq!(got, old);
            }
        }
    }
}
