//! Model sizes, capacity profiles, and the runtime robustness [`Config`].
//!
//! Table 1 of the paper fixes the transformer architecture of each CodeS
//! size; §9.7 reports deployment footprints. Our simulated model maps each
//! size to a [`Capacity`]: the knobs that make a bigger simulated model
//! measurably stronger (higher n-gram order, larger BPE vocabulary and
//! sketch library, wider beam, finer similarity resolution, less decision
//! noise). The architecture numbers are carried verbatim for reporting.
//!
//! [`Config`] is orthogonal to capacity: it bounds what one inference may
//! *consume* (execution budgets, an inference deadline, retry policy)
//! rather than how strong the model is.

use std::fmt;
use std::time::Duration;

use sqlengine::ExecLimits;

/// Runtime robustness configuration of a [`crate::CodesSystem`].
///
/// Every knob bounds failure, not quality: what a candidate statement may
/// consume during beam selection, how long one inference may take before
/// the system degrades, and how transient failures are retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Budgets for executing candidate SQL during generation and for any
    /// lazy index work charged to the inference.
    pub exec_limits: ExecLimits,
    /// Wall-clock budget for one full inference (prompt construction +
    /// generation). When three quarters of it are spent before candidate
    /// selection, the beam degrades to greedy (first candidate only).
    pub inference_deadline: Option<Duration>,
    /// Extra attempts for transient (budget) failures during candidate
    /// execution; each retry runs under halved budgets.
    pub retry_attempts: u32,
}

impl Config {
    /// No budgets, no deadline, no retries: the pre-governor behaviour.
    /// Tests and offline experiments that want raw model behaviour use
    /// this; serving and evaluation should not.
    pub fn unlimited() -> Config {
        Config {
            exec_limits: ExecLimits::unlimited(),
            inference_deadline: None,
            retry_attempts: 0,
        }
    }

    /// Generous bounds for evaluation runs: budgets deterministic enough
    /// that EX/TS/VES verdicts are reproducible, a deadline loose enough
    /// that only pathological statements hit it.
    pub fn evaluation() -> Config {
        Config {
            exec_limits: ExecLimits::evaluation(),
            inference_deadline: Some(Duration::from_secs(30)),
            retry_attempts: 0,
        }
    }

    /// Tight bounds for interactive serving.
    pub fn serving() -> Config {
        Config {
            exec_limits: ExecLimits::serving(),
            inference_deadline: Some(Duration::from_secs(2)),
            retry_attempts: 1,
        }
    }

    /// Propagate a caller deadline into this configuration: the inference
    /// deadline and the per-statement execution deadline are both clamped
    /// to `remaining` (budgets that were already tighter stay tighter).
    ///
    /// This is how the serving runtime flows a request's remaining time
    /// into the whole stack: a request admitted with little time left gets
    /// a proportionally small inference deadline, so [`Config::nearly_spent`]
    /// fires early and the beam degrades to greedy instead of the request
    /// timing out with nothing to show.
    pub fn clamped_to_deadline(mut self, remaining: Duration) -> Config {
        let clamp = |d: Option<Duration>| Some(d.map_or(remaining, |x| x.min(remaining)));
        self.inference_deadline = clamp(self.inference_deadline);
        self.exec_limits.deadline = clamp(self.exec_limits.deadline);
        self
    }

    /// True when at least three quarters of the inference deadline are
    /// gone — the trigger for degrading beam selection to greedy.
    pub fn nearly_spent(&self, elapsed: Duration) -> bool {
        match self.inference_deadline {
            Some(deadline) => elapsed >= deadline.mul_f64(0.75),
            None => false,
        }
    }

    /// Whether a lazy value-index build may still start `elapsed` into the
    /// inference: allowed only while under half the deadline, so the build
    /// cannot eat the whole budget before generation runs.
    pub fn allow_lazy_index_build(&self, elapsed: Duration) -> bool {
        match self.inference_deadline {
            Some(deadline) => elapsed < deadline.mul_f64(0.5),
            None => true,
        }
    }
}

impl Default for Config {
    fn default() -> Config {
        Config::evaluation()
    }
}

/// The four CodeS sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelSize {
    /// CodeS-1B tier.
    B1,
    /// CodeS-3B tier.
    B3,
    /// CodeS-7B tier.
    B7,
    /// CodeS-15B tier.
    B15,
}

impl ModelSize {
    /// The four sizes, smallest first.
    pub fn all() -> [ModelSize; 4] {
        [ModelSize::B1, ModelSize::B3, ModelSize::B7, ModelSize::B15]
    }

    /// Human-readable size label ("7B").
    pub fn label(&self) -> &'static str {
        match self {
            ModelSize::B1 => "1B",
            ModelSize::B3 => "3B",
            ModelSize::B7 => "7B",
            ModelSize::B15 => "15B",
        }
    }

    /// Nominal parameter count.
    pub fn parameters(&self) -> u64 {
        match self {
            ModelSize::B1 => 1_000_000_000,
            ModelSize::B3 => 3_000_000_000,
            ModelSize::B7 => 7_000_000_000,
            ModelSize::B15 => 15_000_000_000,
        }
    }

    /// Table 1: the transformer architecture of each size.
    pub fn architecture(&self) -> Architecture {
        let (hidden, ffn, heads, blocks, context) = match self {
            ModelSize::B1 => (2_048, 8_192, 16, 24, 8_192),
            ModelSize::B3 => (2_816, 11_264, 22, 36, 8_192),
            ModelSize::B7 => (4_096, 16_384, 32, 42, 8_192),
            ModelSize::B15 => (6_144, 24_576, 48, 40, 6_144),
        };
        Architecture {
            hidden_size: hidden,
            ffn_hidden_size: ffn,
            attention_heads: heads,
            transformer_blocks: blocks,
            max_context_length: context,
            vocabulary_size: 49_152,
        }
    }

    /// §9.7: GPU memory needed to serve the SFT model in float16 (GB).
    pub fn deployment_memory_gb(&self) -> u32 {
        match self {
            ModelSize::B1 => 10,
            ModelSize::B3 => 13,
            ModelSize::B7 => 20,
            ModelSize::B15 => 35,
        }
    }

    /// §9.7: reported per-sample inference latency on Spider (seconds).
    pub fn paper_latency_seconds(&self) -> f64 {
        match self {
            ModelSize::B1 => 0.6,
            ModelSize::B3 => 0.9,
            ModelSize::B7 => 1.1,
            ModelSize::B15 => 1.5,
        }
    }

    /// Capacity profile of the simulated model.
    pub fn capacity(&self) -> Capacity {
        match self {
            ModelSize::B1 => Capacity {
                ngram_order: 2,
                bpe_vocab: 600,
                embed_dim: 64,
                beam_width: 2,
                sketch_capacity: 18,
                similarity_levels: 6,
                decision_noise: 0.22,
            },
            ModelSize::B3 => Capacity {
                ngram_order: 3,
                bpe_vocab: 900,
                embed_dim: 128,
                beam_width: 3,
                sketch_capacity: 26,
                similarity_levels: 10,
                decision_noise: 0.13,
            },
            ModelSize::B7 => Capacity {
                ngram_order: 4,
                bpe_vocab: 1_200,
                embed_dim: 256,
                beam_width: 4,
                sketch_capacity: 34,
                similarity_levels: 16,
                decision_noise: 0.08,
            },
            ModelSize::B15 => Capacity {
                ngram_order: 5,
                bpe_vocab: 1_500,
                embed_dim: 512,
                beam_width: 4,
                sketch_capacity: 40,
                similarity_levels: 24,
                decision_noise: 0.055,
            },
        }
    }
}

impl fmt::Display for ModelSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Table 1's architecture hyper-parameters (shared fields are implicit:
/// decoder-only, learned absolute positions, multi-query attention,
/// FlashAttention-2 enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Architecture {
    /// Transformer hidden size.
    pub hidden_size: u32,
    /// Feed-forward hidden size.
    pub ffn_hidden_size: u32,
    /// Attention head count.
    pub attention_heads: u32,
    /// Number of transformer blocks.
    pub transformer_blocks: u32,
    /// Maximum context length in tokens.
    pub max_context_length: u32,
    /// BPE vocabulary size.
    pub vocabulary_size: u32,
}

/// Simulated-model capacity knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Capacity {
    /// Order of the n-gram language model.
    pub ngram_order: usize,
    /// BPE vocabulary budget.
    pub bpe_vocab: usize,
    /// Sentence-embedding dimensionality.
    pub embed_dim: usize,
    /// Beam width at generation (the paper decodes 4 candidates).
    pub beam_width: usize,
    /// How many SQL sketches the model can hold.
    pub sketch_capacity: usize,
    /// Resolution when comparing linking similarities (quantization levels;
    /// coarser resolution = more tie-breaking mistakes).
    pub similarity_levels: usize,
    /// Stddev of deterministic scoring noise (reasoning slack).
    pub decision_noise: f64,
}

impl Capacity {
    /// Quantize a similarity in [0,1] to the model's resolution.
    pub fn quantize(&self, sim: f64) -> f64 {
        let levels = self.similarity_levels.max(2) as f64;
        (sim.clamp(0.0, 1.0) * levels).round() / levels
    }
}

/// Which pre-training corpus lineage a model has — the independent
/// variable of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorpusLineage {
    /// StarCoder(-Base): mostly code, some SQL.
    StarCoder,
    /// StarCoderPlus: code plus more natural language.
    StarCoderPlus,
    /// CodeGen mono/2: code with almost no SQL.
    CodeGen,
    /// Llama2: mostly natural language.
    Llama,
    /// CodeS: StarCoder incrementally pre-trained on the SQL-centric corpus.
    Codes,
}

/// A named pre-trained LM entry of Table 4.
#[derive(Debug, Clone)]
pub struct LmSpec {
    /// Display name (Table 4 row label).
    pub name: &'static str,
    /// Capacity tier.
    pub size: ModelSize,
    /// Pre-training corpus lineage.
    pub lineage: CorpusLineage,
}

/// The 12 baseline LMs plus the 4 CodeS models of Table 4.
pub fn table4_models() -> Vec<LmSpec> {
    use CorpusLineage::*;
    use ModelSize::*;
    vec![
        LmSpec { name: "StarCoderBase-1B", size: B1, lineage: StarCoder },
        LmSpec { name: "StarCoderBase-3B", size: B3, lineage: StarCoder },
        LmSpec { name: "CodeGen-mono-6B", size: B7, lineage: CodeGen },
        LmSpec { name: "StarCoderBase-7B", size: B7, lineage: StarCoder },
        LmSpec { name: "CodeGen2-7B", size: B7, lineage: CodeGen },
        LmSpec { name: "Llama2-7B", size: B7, lineage: Llama },
        LmSpec { name: "Llama2-13B", size: B15, lineage: Llama },
        LmSpec { name: "StarCoderBase-15B", size: B15, lineage: StarCoder },
        LmSpec { name: "StarCoder-15B", size: B15, lineage: StarCoder },
        LmSpec { name: "StarCoderPlus-15B", size: B15, lineage: StarCoderPlus },
        LmSpec { name: "CodeGen-mono-16B", size: B15, lineage: CodeGen },
        LmSpec { name: "CodeGen2-16B", size: B15, lineage: CodeGen },
        LmSpec { name: "CodeS-1B", size: B1, lineage: Codes },
        LmSpec { name: "CodeS-3B", size: B3, lineage: Codes },
        LmSpec { name: "CodeS-7B", size: B7, lineage: Codes },
        LmSpec { name: "CodeS-15B", size: B15, lineage: Codes },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_monotone_in_size() {
        let sizes = ModelSize::all();
        for w in sizes.windows(2) {
            let (a, b) = (w[0].capacity(), w[1].capacity());
            assert!(a.ngram_order <= b.ngram_order);
            assert!(a.sketch_capacity < b.sketch_capacity);
            assert!(a.decision_noise > b.decision_noise);
            assert!(a.similarity_levels < b.similarity_levels);
        }
    }

    #[test]
    fn architecture_matches_table1() {
        let a = ModelSize::B15.architecture();
        assert_eq!(a.hidden_size, 6_144);
        assert_eq!(a.attention_heads, 48);
        assert_eq!(a.transformer_blocks, 40);
        assert_eq!(a.max_context_length, 6_144); // 15B has the short context
        assert_eq!(ModelSize::B7.architecture().max_context_length, 8_192);
        assert_eq!(a.vocabulary_size, 49_152);
    }

    #[test]
    fn quantization_is_coarser_for_small_models() {
        let small = ModelSize::B1.capacity();
        let large = ModelSize::B15.capacity();
        // Two nearby similarities that a large model distinguishes but a
        // small one cannot.
        let (x, y) = (0.51, 0.55);
        assert_eq!(small.quantize(x), small.quantize(y));
        assert_ne!(large.quantize(x), large.quantize(y));
    }

    #[test]
    fn table4_has_16_entries_with_unique_names() {
        let models = table4_models();
        assert_eq!(models.len(), 16);
        let names: std::collections::HashSet<_> = models.iter().map(|m| m.name).collect();
        assert_eq!(names.len(), 16);
        assert_eq!(models.iter().filter(|m| m.lineage == CorpusLineage::Codes).count(), 4);
    }

    #[test]
    fn config_deadline_predicates() {
        let cfg = Config {
            inference_deadline: Some(Duration::from_secs(4)),
            ..Config::evaluation()
        };
        assert!(!cfg.nearly_spent(Duration::from_secs(2)));
        assert!(cfg.nearly_spent(Duration::from_secs(3)));
        assert!(cfg.allow_lazy_index_build(Duration::from_secs(1)));
        assert!(!cfg.allow_lazy_index_build(Duration::from_secs(2)));
        let unlimited = Config::unlimited();
        assert!(!unlimited.nearly_spent(Duration::from_secs(3600)));
        assert!(unlimited.allow_lazy_index_build(Duration::from_secs(3600)));
    }

    #[test]
    fn clamping_tightens_but_never_loosens_deadlines() {
        let cfg = Config::evaluation(); // 30s inference, 10s exec
        let clamped = cfg.clamped_to_deadline(Duration::from_secs(1));
        assert_eq!(clamped.inference_deadline, Some(Duration::from_secs(1)));
        assert_eq!(clamped.exec_limits.deadline, Some(Duration::from_secs(1)));
        // A budget already tighter than the caller deadline is kept.
        let loose = cfg.clamped_to_deadline(Duration::from_secs(3600));
        assert_eq!(loose.inference_deadline, Some(Duration::from_secs(30)));
        assert_eq!(loose.exec_limits.deadline, Some(Duration::from_secs(10)));
        // An unlimited config picks up the caller deadline.
        let unlimited = Config::unlimited().clamped_to_deadline(Duration::from_millis(500));
        assert_eq!(unlimited.inference_deadline, Some(Duration::from_millis(500)));
        assert_eq!(unlimited.exec_limits.deadline, Some(Duration::from_millis(500)));
        // Non-deadline budgets are untouched.
        assert_eq!(clamped.exec_limits.max_rows, cfg.exec_limits.max_rows);
    }

    #[test]
    fn deployment_numbers_match_paper() {
        assert_eq!(ModelSize::B1.deployment_memory_gb(), 10);
        assert_eq!(ModelSize::B15.deployment_memory_gb(), 35);
        assert!((ModelSize::B7.paper_latency_seconds() - 1.1).abs() < 1e-12);
    }
}
