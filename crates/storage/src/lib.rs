//! Pluggable storage backends for the CodeS text-to-SQL stack.
//!
//! Everything upstream of this crate used to run against one in-memory
//! [`sqlengine`] handed around by value. This crate turns storage into a
//! subsystem with three layers:
//!
//! 1. **Trait split** ([`Backend`] / [`Connection`]) — execute, catalog
//!    introspection, and revision stamping behind object-safe traits. The
//!    in-memory engine is one implementation ([`MemoryBackend`]); a
//!    deterministic remote-ish one with injectable latency and faults
//!    ([`FlakyBackend`]) proves the contract against a backend that can
//!    actually fail.
//! 2. **Connection pool** ([`ConnectionPool`]) — bounded checkout/checkin
//!    with idle reaping and health-checked recycling: liveness probes on
//!    checkin and after errors, broken connections discarded and
//!    re-established with jittered backoff, `codes_storage_pool_*`
//!    metrics through [`codes_obs`].
//! 3. **Introspection** ([`introspect`], [`Catalog`],
//!    [`CatalogService`]) — the paper's Algorithm-1 schema metadata
//!    (types, PK/FK edges, representative cell values) discovered from a
//!    live connection at runtime and stamped with the backend's revision
//!    token, so the existing cache generation-invalidation keeps working
//!    unchanged across backends.
//!
//! See DESIGN.md §4k for the full design discussion.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

mod backend;
mod error;
mod flaky;
mod introspect;
mod memory;
pub mod metrics;
mod pool;
mod service;
#[doc(hidden)]
pub mod testing;

pub use backend::{Backend, CommitHook, Connection, Reply, Request};
pub use error::StorageError;
pub use flaky::{FaultSpec, FlakyBackend};
pub use introspect::{introspect, Catalog, IntrospectOptions};
pub use memory::{MemoryBackend, SharedStore};
pub use metrics::PoolStats;
pub use pool::{ConnectionPool, PoolConfig, PooledConn};
pub use service::{CatalogService, Commit, RevisionObserver, SyncOutcome};
