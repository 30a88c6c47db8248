//! The one failure type of the CodeS request path.
//!
//! The engine ([`sqlengine::Error`]) classifies failures as transient vs
//! permanent; serving adds overload sheds, breaker rejections and worker
//! deaths; storage adds refused connects, failed introspection and pool
//! exhaustion. [`Error`] holds all of them, and is what the serving pool,
//! the router and the gateway pass along unconverted, behind the two
//! questions every caller actually asks: *can a retry help?*
//! ([`Error::is_transient`]) and *was this load shedding rather than a
//! real failure?* ([`Error::is_overload`]). The classification table is in
//! DESIGN.md §4g, the HTTP mapping in §4i.

use std::fmt;
use std::time::Duration;

/// Why an inference request failed, across every layer of the stack.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The engine/model pipeline itself failed (parse error, budget
    /// exhaustion after retries, caught panic, unknown table…).
    Engine(sqlengine::Error),
    /// Load shed at admission: the serving queue is full.
    Overloaded {
        /// Queue depth observed at rejection.
        queue_depth: usize,
        /// Configured queue capacity.
        capacity: usize,
    },
    /// The target database's circuit breaker is open.
    CircuitOpen {
        /// Database whose breaker rejected the request.
        db_id: String,
        /// How long until the breaker will admit a probe.
        retry_after: Duration,
    },
    /// The request's deadline expired before it could run.
    DeadlineExceeded {
        /// Time spent queued.
        queued: Duration,
        /// The request's total time budget.
        budget: Duration,
    },
    /// The worker running the request panicked (and was replaced).
    WorkerPanic(String),
    /// The worker running the request stopped heartbeating (and was
    /// replaced).
    WorkerWedged {
        /// How long the worker had been silent when declared wedged.
        stalled: Duration,
    },
    /// The serving runtime is shutting down.
    ShuttingDown,
    /// The request addressed a database the serving runtime does not know
    /// (e.g. a cache invalidation routed to the wrong pool).
    UnknownDatabase {
        /// The database id nobody serves.
        db_id: String,
    },
    /// The storage layer failed before the request reached the engine:
    /// the backend refused or dropped a connection, introspection could
    /// not assemble a catalog, or the connection pool was exhausted.
    /// Engine/catalog failures surfaced *through* a connection arrive as
    /// [`Error::Engine`]/[`Error::UnknownDatabase`] instead (see
    /// `From<codes_storage::StorageError>`).
    Storage(codes_storage::StorageError),
}

impl Error {
    /// Short machine-readable category, stable across layers.
    pub fn kind(&self) -> &'static str {
        match self {
            Error::Engine(e) => e.kind(),
            Error::Overloaded { .. } => "overloaded",
            Error::CircuitOpen { .. } => "circuit_open",
            Error::DeadlineExceeded { .. } => "deadline",
            Error::WorkerPanic(_) => "worker_panic",
            Error::WorkerWedged { .. } => "worker_wedged",
            Error::ShuttingDown => "shutting_down",
            Error::UnknownDatabase { .. } => "unknown_database",
            Error::Storage(e) => e.kind(),
        }
    }

    /// True when retrying the same request later may succeed: every
    /// overload shed (the load will pass), engine budget exhaustion (the
    /// engine's own transient class), and worker deaths (a property of the
    /// worker, not the statement — the replacement may serve it fine).
    /// Permanent statement/schema failures and shutdown are not transient.
    pub fn is_transient(&self) -> bool {
        match self {
            Error::Engine(e) => e.is_transient(),
            Error::Overloaded { .. }
            | Error::CircuitOpen { .. }
            | Error::DeadlineExceeded { .. }
            | Error::WorkerPanic(_)
            | Error::WorkerWedged { .. } => true,
            Error::ShuttingDown | Error::UnknownDatabase { .. } => false,
            Error::Storage(e) => e.is_transient(),
        }
    }

    /// True when the request was never really attempted — it was shed by
    /// admission control to protect the service (queue full, breaker open,
    /// deadline already blown).
    pub fn is_overload(&self) -> bool {
        matches!(
            self,
            Error::Overloaded { .. }
                | Error::CircuitOpen { .. }
                | Error::DeadlineExceeded { .. }
                // Pool exhaustion is load shedding at the storage layer:
                // every connection was busy for the whole checkout window.
                | Error::Storage(codes_storage::StorageError::Exhausted { .. })
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Engine(e) => write!(f, "inference failed: {e}"),
            Error::Overloaded { queue_depth, capacity } => {
                write!(f, "overloaded: admission queue full ({queue_depth}/{capacity})")
            }
            Error::CircuitOpen { db_id, retry_after } => {
                write!(f, "circuit open for '{db_id}': retry in {retry_after:?}")
            }
            Error::DeadlineExceeded { queued, budget } => {
                write!(f, "deadline exceeded while queued ({queued:?} of a {budget:?} budget)")
            }
            Error::WorkerPanic(msg) => write!(f, "worker panicked: {msg}"),
            Error::WorkerWedged { stalled } => {
                write!(f, "worker wedged (no heartbeat for {stalled:?})")
            }
            Error::ShuttingDown => write!(f, "pool shutting down"),
            Error::UnknownDatabase { db_id } => {
                write!(f, "unknown database '{db_id}': not served by this pool")
            }
            Error::Storage(e) => write!(f, "storage failed: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<sqlengine::Error> for Error {
    fn from(e: sqlengine::Error) -> Error {
        Error::Engine(e)
    }
}

/// Collapse storage failures into the stack's taxonomy. Failures that are
/// really *engine* or *addressing* failures surfaced through a connection
/// keep their established variants (and HTTP mappings); only the failure
/// modes storage introduces — refused connects, introspection faults, pool
/// exhaustion — ride the new [`Error::Storage`] variant.
impl From<codes_storage::StorageError> for Error {
    fn from(e: codes_storage::StorageError) -> Error {
        match e {
            codes_storage::StorageError::Engine(inner) => Error::Engine(inner),
            codes_storage::StorageError::UnknownDatabase(db_id) => {
                Error::UnknownDatabase { db_id }
            }
            codes_storage::StorageError::Closed => Error::ShuttingDown,
            other => Error::Storage(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_and_overload_classification() {
        let overloads = [
            Error::Overloaded { queue_depth: 8, capacity: 8 },
            Error::CircuitOpen { db_id: "bank".into(), retry_after: Duration::from_millis(10) },
            Error::DeadlineExceeded {
                queued: Duration::from_millis(120),
                budget: Duration::from_millis(100),
            },
        ];
        for e in &overloads {
            assert!(e.is_overload(), "{e}");
            assert!(e.is_transient(), "overload sheds pass: {e}");
        }
        // Worker deaths: transient (infrastructure fault) but not overload.
        let panic = Error::WorkerPanic("boom".into());
        assert!(panic.is_transient() && !panic.is_overload());
        let wedged = Error::WorkerWedged { stalled: Duration::from_secs(1) };
        assert!(wedged.is_transient() && !wedged.is_overload());
        // Engine taxonomy flows through unchanged.
        let budget = Error::Engine(sqlengine::Error::BudgetExceeded {
            resource: sqlengine::Resource::Time,
            spent: 1,
            limit: 1,
        });
        assert!(budget.is_transient() && !budget.is_overload());
        let parse = Error::Engine(sqlengine::Error::Parse("bad".into()));
        assert!(!parse.is_transient() && !parse.is_overload());
        assert!(!Error::ShuttingDown.is_transient() && !Error::ShuttingDown.is_overload());
        // A misaddressed database is a caller bug, not a passing storm.
        let unknown = Error::UnknownDatabase { db_id: "nowhere".into() };
        assert!(!unknown.is_transient() && !unknown.is_overload());
        assert_eq!(unknown.kind(), "unknown_database");
    }

    #[test]
    fn storage_errors_bridge_into_the_stack_taxonomy() {
        use codes_storage::StorageError;

        // Storage-native failure modes keep their own kinds on the new
        // variant; connects and exhaustion are retryable, and exhaustion
        // alone counts as load shedding.
        let connect = Error::from(StorageError::Connect("refused".into()));
        assert_eq!(connect.kind(), "storage_connect");
        assert!(connect.is_transient() && !connect.is_overload());
        let introspect = Error::from(StorageError::Introspect("no schema".into()));
        assert_eq!(introspect.kind(), "storage_introspect");
        let exhausted = Error::from(StorageError::Exhausted { capacity: 4, waited_ms: 100 });
        assert_eq!(exhausted.kind(), "storage_exhausted");
        assert!(exhausted.is_transient() && exhausted.is_overload());

        // Failures merely surfaced *through* storage collapse into the
        // established variants, so existing HTTP mappings keep working.
        let engine =
            Error::from(StorageError::Engine(sqlengine::Error::Parse("bad".into())));
        assert!(matches!(engine, Error::Engine(_)));
        let unknown = Error::from(StorageError::UnknownDatabase("nowhere".into()));
        assert!(matches!(unknown, Error::UnknownDatabase { ref db_id } if db_id == "nowhere"));
        assert!(matches!(Error::from(StorageError::Closed), Error::ShuttingDown));
    }
}
