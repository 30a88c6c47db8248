#![warn(missing_docs)]
// Observability is infrastructure that every fault boundary leans on; it
// must never itself panic. Same policy as sqlengine/eval/serve.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # codes-obs
//!
//! Thread-safe observability core for the CodeS reproduction, built only
//! on `std` plus the workspace's vendored stand-ins:
//!
//! * **Counters** ([`Counter`]) — monotonic `u64` totals (requests served,
//!   sheds, breaker transitions, budget denials).
//! * **Gauges** ([`Gauge`]) — instantaneous `i64` levels (in-flight
//!   requests, queue depth).
//! * **Histograms** ([`Histogram`]) — fixed {1,2,5}-decade latency buckets
//!   over nanoseconds with lock-free concurrent recording; exact
//!   count/sum/min/max, and p50/p95/p99 estimated by rank-walk with linear
//!   interpolation inside the containing bucket (the estimate always falls
//!   within that bucket's bounds).
//! * **Spans** ([`Span`]) — RAII wall-clock guards, one per pipeline
//!   stage. Entering a span while another is open on the same thread
//!   records a parent/child edge; finished spans land in a bounded
//!   in-memory trace ring and feed a per-stage duration histogram.
//! * **Export** — [`Registry::render_prometheus`] (text exposition
//!   format) and [`Registry::trace_dump`] (JSON array of span records).
//! * **Journal** ([`Journal`]) — the append-only JSONL file the eval
//!   harness and the gateway audit log both write, healing a torn tail.
//!
//! Metrics live in a [`Registry`]. Production code uses the process-wide
//! [`global()`] registry; tests construct private registries
//! ([`Registry::new`]) so parallel test threads cannot observe each
//! other's metrics.
//!
//! ## Metric naming convention
//!
//! `codes_<area>_<what>_<unit>`: e.g. `codes_stage_duration_seconds`,
//! `codes_serve_queue_wait_seconds`, `codes_serve_shed_total`,
//! `codes_governor_budget_denied_total`. Counters end in `_total`,
//! histograms in a unit (`_seconds`), gauges in a bare noun. Label keys
//! are static (`stage`, `resource`, `from`, `to`); label values are the
//! only dynamic part.

pub mod journal;
pub mod metrics;
pub mod stages;
pub mod trace;

pub use journal::{Journal, JournalError};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, BUCKET_BOUNDS_NS,
};
pub use stages::{
    StageTimings, PIPELINE_STAGES, STAGE_EXECUTION_SELECTION, STAGE_GENERATION, STAGE_METADATA,
    STAGE_PROMPT_BUILD, STAGE_SCHEMA_FILTER, STAGE_VALUE_RETRIEVAL,
};
pub use trace::{Span, SpanRecord, STAGE_HISTOGRAM};

use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// The process-wide registry. Created on first use; never reset.
pub fn global() -> Arc<Registry> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(Registry::new())))
}

/// Render the global registry in Prometheus text exposition format.
pub fn render_prometheus() -> String {
    global().render_prometheus()
}

/// Dump the global registry's trace ring as a JSON array.
pub fn trace_dump() -> String {
    global().trace_dump()
}
