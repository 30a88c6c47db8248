//! `codes-gateway` — the hardened HTTP/JSON front door over the serving
//! stack.
//!
//! A hand-rolled HTTP/1.1 server on std TCP (this workspace vendors its
//! world; there is no async runtime or HTTP framework to lean on) that
//! fronts a [`codes_router::Router`] with four endpoints:
//!
//! | Endpoint | Method | Purpose |
//! |---|---|---|
//! | `/v1/infer` | POST | Text-to-SQL inference (`db_id`, `question`, optional `external_knowledge`, `deadline_ms`) |
//! | `/v1/infer?stream=1` | POST | Same request, but progress events stream back as ndjson over chunked transfer (`queued` → `dispatched` → `generated` → `result`); also selected by `Accept: application/x-ndjson` |
//! | `/v1/invalidate` | POST | Bump a database's cache generation |
//! | `/v1/health` | GET | Readiness + per-shard / per-tenant health JSON |
//! | `/metrics` | GET | Prometheus exposition of the whole stack's registry |
//!
//! Every body — success, failure, or stream event — travels in the
//! versioned [`envelope`] (`{"v":1,...}`).
//!
//! The interesting part is not the routing, it is the hostile-network
//! posture, layered front to back:
//!
//! 1. **Connection admission** ([`server`]) — a global connection cap
//!    with typed `503 connection_limit` shedding, and per-connection
//!    byte *and* time budgets on request reads (slowloris defense).
//! 2. **Tenant admission** ([`auth`], [`limiter`]) — API-key auth, a
//!    token-bucket rate limit per tenant (`429` + `Retry-After`), and
//!    lifetime compute-spend budgets, all enforced before the router's
//!    weighted-fair queues see the request.
//! 3. **Typed failure mapping** ([`error`]) — every [`codes::Error`]
//!    kind and every edge rejection travels as a stable
//!    `(status, error.code)` pair; the full table is DESIGN.md §4i.
//! 4. **Audit + drain** ([`journal`], [`server`]) — every authenticated
//!    infer attempt lands exactly once in a torn-line-tolerant JSONL
//!    journal, and shutdown drains in-flight work before returning.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod auth;
pub mod client;
pub mod envelope;
pub mod error;
pub mod http;
pub mod journal;
pub mod limiter;
pub mod metrics;
pub mod server;

pub use auth::{AuthTable, TenantAccount, TenantSpec};
pub use client::{ClientResponse, EventStream, HttpClient};
pub use error::{error_response, map_serve_error, serve_error_response, Reject, WireError};
pub use http::{
    encode_chunk, ChunkDecoder, ChunkedWriter, HttpRequest, HttpResponse, ParseError,
    ParseLimits, RequestHead, RequestParser,
};
pub use journal::{AuditJournal, AuditRecord};
pub use limiter::TokenBucket;
pub use server::{Gateway, GatewayConfig, GatewayStats, StartError};
