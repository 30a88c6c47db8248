//! Per-database generation tokens for lazy invalidation.

use std::collections::HashMap;

use parking_lot::RwLock;

/// Monotonically increasing generation per database id.
///
/// Cache keys embed the generation current at lookup time. Bumping a
/// database's generation therefore makes every entry keyed under the old
/// token unreachable immediately — the entries themselves are reclaimed
/// lazily by LRU pressure, which keeps invalidation O(1) regardless
/// of how many entries the database had.
#[derive(Default)]
pub struct GenerationMap {
    inner: RwLock<HashMap<String, u64>>,
}

impl GenerationMap {
    pub fn new() -> GenerationMap {
        GenerationMap::default()
    }

    /// Current generation for `id`; databases start at generation 0.
    pub fn generation(&self, id: &str) -> u64 {
        self.inner.read().get(id).copied().unwrap_or(0)
    }

    /// Invalidate everything cached for `id`; returns the new generation.
    pub fn bump(&self, id: &str) -> u64 {
        let mut map = self.inner.write();
        let gen = map.entry(id.to_string()).or_insert(0);
        *gen += 1;
        *gen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_start_at_zero_and_bump_independently() {
        let map = GenerationMap::new();
        assert_eq!(map.generation("a"), 0);
        assert_eq!(map.bump("a"), 1);
        assert_eq!(map.bump("a"), 2);
        assert_eq!(map.generation("a"), 2);
        assert_eq!(map.generation("b"), 0);
    }
}
