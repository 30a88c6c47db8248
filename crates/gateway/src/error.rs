//! The gateway's failure taxonomy and the error→HTTP mapping.
//!
//! Two failure families cross the wire:
//!
//! * **Gateway rejections** ([`Reject`]) — produced at the edge before
//!   (or instead of) anything reaching the router: protocol violations,
//!   auth failures, quota sheds, connection caps, read timeouts.
//! * **Serving failures** — a [`codes::Error`] from the router/pool/engine
//!   stack, mapped by [`map_serve_error`].
//!
//! Every failure maps to a stable `(HTTP status, machine-readable code)`
//! pair; the full table lives in DESIGN.md §4i and is asserted
//! exhaustively by `crates/gateway/tests/error_mapping.rs`. Responses
//! carry the versioned envelope (see [`crate::envelope`]) of the shape
//! `{"v": 1, "error": {"code", "message", "retryable"[, "retry_after_ms"]}}`,
//! and retryable rejections also set a `Retry-After` header (integer
//! seconds, rounded up).

use std::fmt;
use std::time::Duration;

use crate::http::{HttpResponse, ParseError};

/// An edge-level rejection: the request never made it into the router.
#[derive(Debug, Clone, PartialEq)]
pub enum Reject {
    /// Structurally invalid HTTP or JSON.
    BadRequest(String),
    /// Missing or unusable API key.
    Unauthorized,
    /// The tenant's token bucket is empty; retry after the hint.
    RateLimited {
        /// Time until one token refills.
        retry_after: Duration,
    },
    /// The tenant's lifetime spend budget is exhausted.
    BudgetExhausted {
        /// Milliseconds of backend compute consumed so far.
        spent_ms: u64,
        /// The configured budget.
        budget_ms: u64,
    },
    /// No route matches the request target.
    NotFound,
    /// The route exists but not for this method.
    MethodNotAllowed,
    /// The client blew a read budget (slowloris defense): `phase` is
    /// `"head"` or `"body"`.
    Timeout {
        /// Which read budget fired.
        phase: &'static str,
    },
    /// Declared body over the byte budget.
    BodyTooLarge {
        /// Declared length.
        declared: usize,
        /// Configured limit.
        limit: usize,
    },
    /// Request head over the byte budget.
    HeadersTooLarge {
        /// Configured limit.
        limit: usize,
    },
    /// Valid HTTP the gateway deliberately does not speak.
    Unimplemented(&'static str),
    /// The global connection cap is reached; shed before the accept queue
    /// collapses.
    ConnectionLimit {
        /// Open connections at rejection.
        open: usize,
        /// The configured cap.
        max: usize,
    },
    /// The gateway is draining; no new requests are accepted.
    ShuttingDown,
}

impl Reject {
    /// Stable machine-readable code (the `error.code` field on the wire).
    pub fn code(&self) -> &'static str {
        match self {
            Reject::BadRequest(_) => "bad_request",
            Reject::Unauthorized => "unauthorized",
            Reject::RateLimited { .. } => "rate_limited",
            Reject::BudgetExhausted { .. } => "budget_exhausted",
            Reject::NotFound => "not_found",
            Reject::MethodNotAllowed => "method_not_allowed",
            Reject::Timeout { .. } => "request_timeout",
            Reject::BodyTooLarge { .. } => "body_too_large",
            Reject::HeadersTooLarge { .. } => "headers_too_large",
            Reject::Unimplemented(_) => "not_implemented",
            Reject::ConnectionLimit { .. } => "connection_limit",
            Reject::ShuttingDown => "shutting_down",
        }
    }

    /// The HTTP status this rejection travels under.
    pub fn status(&self) -> u16 {
        match self {
            Reject::BadRequest(_) => 400,
            Reject::Unauthorized => 401,
            Reject::RateLimited { .. } => 429,
            Reject::BudgetExhausted { .. } => 429,
            Reject::NotFound => 404,
            Reject::MethodNotAllowed => 405,
            Reject::Timeout { .. } => 408,
            Reject::BodyTooLarge { .. } => 413,
            Reject::HeadersTooLarge { .. } => 431,
            Reject::Unimplemented(_) => 501,
            Reject::ConnectionLimit { .. } => 503,
            Reject::ShuttingDown => 503,
        }
    }

    /// Retry hint, when one makes sense.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            Reject::RateLimited { retry_after } => Some(*retry_after),
            Reject::ConnectionLimit { .. } | Reject::ShuttingDown => {
                Some(Duration::from_secs(1))
            }
            _ => None,
        }
    }

    /// Render as the wire response.
    pub fn response(&self) -> HttpResponse {
        error_response(self.status(), self.code(), &self.to_string(), self.retry_after())
    }
}

impl fmt::Display for Reject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reject::BadRequest(what) => write!(f, "bad request: {what}"),
            Reject::Unauthorized => write!(f, "missing or invalid API key"),
            Reject::RateLimited { retry_after } => {
                write!(f, "rate limit exceeded; retry in {retry_after:?}")
            }
            Reject::BudgetExhausted { spent_ms, budget_ms } => {
                write!(f, "spend budget exhausted ({spent_ms}ms of {budget_ms}ms used)")
            }
            Reject::NotFound => write!(f, "no such endpoint"),
            Reject::MethodNotAllowed => write!(f, "method not allowed for this endpoint"),
            Reject::Timeout { phase } => {
                write!(f, "timed out waiting for request {phase}")
            }
            Reject::BodyTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds the {limit}-byte limit")
            }
            Reject::HeadersTooLarge { limit } => {
                write!(f, "request head exceeds the {limit}-byte limit")
            }
            Reject::Unimplemented(what) => write!(f, "not implemented: {what}"),
            Reject::ConnectionLimit { open, max } => {
                write!(f, "connection limit reached ({open}/{max})")
            }
            Reject::ShuttingDown => write!(f, "gateway is shutting down"),
        }
    }
}

impl std::error::Error for Reject {}

impl From<ParseError> for Reject {
    fn from(e: ParseError) -> Reject {
        match e {
            ParseError::HeadersTooLarge { limit } => Reject::HeadersTooLarge { limit },
            ParseError::BodyTooLarge { declared, limit } => {
                Reject::BodyTooLarge { declared, limit }
            }
            ParseError::Malformed(what) => Reject::BadRequest(what.to_string()),
            ParseError::Unsupported(what) => Reject::Unimplemented(what),
        }
    }
}

/// How one serving failure travels over HTTP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// HTTP status.
    pub status: u16,
    /// Stable machine-readable code.
    pub code: &'static str,
    /// Retry hint (becomes `Retry-After`, rounded up to whole seconds).
    pub retry_after: Option<Duration>,
}

/// Map a [`codes::Error`] — the unified taxonomy every router/pool/engine
/// failure funnels into — onto its HTTP representation. Total over every
/// error kind (the exhaustive test enumerates them all):
///
/// * admission sheds (`overloaded`, `circuit_open`, `shutting_down`) are
///   `503` + `Retry-After` — the service protected itself, come back;
/// * deadline exhaustion (queue-level `deadline`, engine-level `budget`)
///   is `504` — the work was attempted but ran out of time;
/// * statement/schema failures (`parse`, `bind`, ... `unsupported`) are
///   `422` — the request is well-formed HTTP but can never succeed as
///   asked;
/// * misaddressed databases (`unknown_database`, engine `unknown_table`)
///   are `404`;
/// * infrastructure faults (`worker_panic`, `worker_wedged`, engine
///   `internal`) are `500`;
/// * storage faults: refused connects (`storage_connect`) and pool
///   exhaustion (`storage_exhausted`) are transient `503` + `Retry-After`;
///   a failed introspection (`storage_introspect`) is a bad-upstream `502`
///   with no retry hint.
pub fn map_serve_error(err: &codes::Error) -> WireError {
    use codes::Error as E;
    use codes_storage::StorageError as S;
    const SOON: Option<Duration> = Some(Duration::from_secs(1));
    let (status, retry_after) = match err {
        E::Engine(e) => return map_engine_error(e),
        E::Overloaded { .. } | E::ShuttingDown => (503, SOON),
        E::CircuitOpen { retry_after, .. } => (503, Some(*retry_after)),
        E::DeadlineExceeded { .. } => (504, None),
        E::WorkerPanic(_) | E::WorkerWedged { .. } => (500, None),
        E::UnknownDatabase { .. } => (404, None),
        // Connect refusals and pool exhaustion are transient by
        // construction (the backend may come back, a connection will free
        // up). A failed introspection means the gateway reached the backend
        // but could not assemble a coherent catalog from it: a bad
        // upstream, and retrying immediately won't change its catalog.
        E::Storage(S::Connect(_) | S::Exhausted { .. }) => (503, SOON),
        E::Storage(S::Introspect(_)) => (502, None),
        // `From<StorageError>` collapses these into the variants above, so
        // one arriving wrapped is our bug, not the client's.
        E::Storage(S::Engine(_) | S::UnknownDatabase(_) | S::Closed) => {
            return WireError { status: 500, code: "storage_internal", retry_after: None }
        }
    };
    WireError { status, code: err.kind(), retry_after }
}

/// The engine rows of [`map_serve_error`]: the code is the engine's kind
/// under an `engine_` prefix, and no engine failure carries a retry hint.
fn map_engine_error(err: &sqlengine::Error) -> WireError {
    use sqlengine::Error as Q;
    let (status, code) = match err {
        Q::Lex(_) => (422, "engine_lex"),
        Q::Parse(_) => (422, "engine_parse"),
        Q::Bind(_) => (422, "engine_bind"),
        Q::Catalog(_) => (422, "engine_catalog"),
        Q::Type(_) => (422, "engine_type"),
        Q::Exec(_) => (422, "engine_exec"),
        Q::Unsupported(_) => (422, "engine_unsupported"),
        Q::UnknownTable(_) => (404, "engine_unknown_table"),
        Q::BudgetExceeded { .. } => (504, "engine_budget"),
        // A bug on our side of the wire, never the client's.
        Q::Internal(_) => (500, "engine_internal"),
    };
    WireError { status, code, retry_after: None }
}

/// Build the standard enveloped JSON error body
/// (`{"v":1,"error":{...}}` — see [`crate::envelope`]).
pub fn error_response(
    status: u16,
    code: &str,
    message: &str,
    retry_after: Option<Duration>,
) -> HttpResponse {
    let body = crate::envelope::failure(code, message, retry_after);
    let mut resp = HttpResponse::json(status, &body);
    if let Some(after) = retry_after {
        // Retry-After is whole seconds; round up so "come back in 300ms"
        // never becomes "come back immediately".
        resp = resp.with_header("retry-after", after.as_secs_f64().ceil().to_string());
    }
    resp
}

/// Render a serving failure as the wire response.
pub fn serve_error_response(err: &codes::Error) -> HttpResponse {
    let mapped = map_serve_error(err);
    error_response(mapped.status, mapped.code, &err.to_string(), mapped.retry_after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_codes_are_distinct() {
        let all = [
            Reject::BadRequest("x".into()),
            Reject::Unauthorized,
            Reject::RateLimited { retry_after: Duration::from_millis(100) },
            Reject::BudgetExhausted { spent_ms: 5, budget_ms: 4 },
            Reject::NotFound,
            Reject::MethodNotAllowed,
            Reject::Timeout { phase: "head" },
            Reject::BodyTooLarge { declared: 10, limit: 5 },
            Reject::HeadersTooLarge { limit: 5 },
            Reject::Unimplemented("x"),
            Reject::ConnectionLimit { open: 3, max: 3 },
            Reject::ShuttingDown,
        ];
        let codes: std::collections::HashSet<_> = all.iter().map(|r| r.code()).collect();
        assert_eq!(codes.len(), all.len());
        for reject in &all {
            assert!(!reject.to_string().is_empty());
            let resp = reject.response();
            assert_eq!(resp.status, reject.status());
        }
    }

    #[test]
    fn retry_after_header_rounds_up() {
        let resp = Reject::RateLimited { retry_after: Duration::from_millis(300) }.response();
        let retry = resp
            .headers
            .iter()
            .find(|(name, _)| name == "retry-after")
            .map(|(_, value)| value.clone())
            .expect("retry-after present");
        assert_eq!(retry, "1");
    }
}
