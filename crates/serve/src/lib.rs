#![warn(missing_docs)]
// Same policy as sqlengine/eval/retrieval: the serving runtime IS the
// fault boundary — failures must flow out as typed values, never unwrap
// panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # codes-serve
//!
//! Resilient concurrent serving runtime for the CodeS reproduction:
//!
//! * **Supervised worker pool** ([`Pool`]) — a fixed set of worker threads
//!   drains a **bounded** admission queue; a full queue is an explicit
//!   [`codes::Error::Overloaded`] rejection (backpressure, never unbounded
//!   buffering).
//! * **Deadline propagation** — each request's remaining time budget is
//!   clamped into the inference [`codes::Config`]
//!   ([`codes::Config::clamped_to_deadline`]), so nearly-out-of-time
//!   requests degrade to greedy decoding instead of missing their SLO, and
//!   requests that expire while queued are shed without running.
//! * **Work-conserving micro-batching** ([`crate::batch`]) — a worker
//!   that dequeues a request drains the compatible requests *already
//!   queued* behind it (same database, config fingerprint, and deadline
//!   class), up to `ServeConfig::max_batch`, and dispatches them through
//!   [`Backend::infer_batch`] in one pass — the only dispatch path, with
//!   a lone request as its N = 1 case. It never waits for company:
//!   batches grow past one when every worker is busy and the queue has
//!   built up, and an idle pool dispatches every request alone, at once.
//! * **Per-database circuit breakers** ([`CircuitBreaker`]) — N
//!   consecutive failures trip a database out of rotation; recovery is
//!   probed under deterministic jittered exponential backoff
//!   ([`sqlengine::Backoff`]).
//! * **Worker supervision** — panicked workers are joined and replaced;
//!   wedged workers (no heartbeat with a request in flight) are abandoned
//!   via a generation bump and replaced. In both cases the orphaned
//!   request resolves to a typed error and queued requests survive.
//! * **Health/readiness** ([`HealthSnapshot`]) — queue depth, in-flight
//!   count, per-worker heartbeats/generations, breaker states, lifetime
//!   counters.
//! * **Deterministic fault injection** ([`FaultPlan`], [`FaultyBackend`])
//!   — seeded probabilistic panics/stalls/budget exhaustion keyed on
//!   request id, powering a reproducible chaos suite.
//!
//! Every submitted request resolves to exactly one of: a successful
//! [`ServedInference`], a typed [`codes::Error`], or an immediate
//! [`codes::Error::Overloaded`] rejection at admission. Nothing hangs.

pub mod batch;
pub mod breaker;
pub mod fault;
pub mod metrics;
pub mod pool;
pub mod progress;

pub use batch::{deadline_class, BatchPolicy, CompatKey, Formation, MemberInfo, Verdict};
pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
// The name the end-to-end benchmark knows the request path's one failure
// type by; nothing in this workspace uses it.
pub use codes::Error as ServeError;
// The unified request type consumed by both direct inference and the pool.
pub use codes::InferenceRequest;
pub use fault::{Fault, FaultPlan, FaultyBackend, Gate, GatedBackend};
pub use metrics::MetricsSnapshot;
pub use pool::{
    Backend, BackendReply, HealthSnapshot, Outcome, Pool, ServeConfig, ServedInference,
    StatsSnapshot, SystemBackend, Ticket, WorkerHealth,
};
pub use progress::{Progress, ProgressSink};
