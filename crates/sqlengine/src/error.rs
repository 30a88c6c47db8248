//! Error types shared across the engine.

use std::fmt;

/// Convenient result alias used throughout the engine.
pub type Result<T> = std::result::Result<T, Error>;

/// The resource whose budget was exhausted during governed execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Wall-clock deadline.
    Time,
    /// Output rows of the statement.
    Rows,
    /// Rows materialized by intermediate operators (joins, groups, sorts).
    IntermediateRows,
    /// Approximate bytes materialized by intermediate operators.
    Memory,
    /// Nested query depth (subqueries, derived tables, set operands).
    Depth,
}

impl Resource {
    /// Lower-case label used in messages and failure buckets.
    pub fn label(&self) -> &'static str {
        match self {
            Resource::Time => "time",
            Resource::Rows => "rows",
            Resource::IntermediateRows => "intermediate_rows",
            Resource::Memory => "memory",
            Resource::Depth => "depth",
        }
    }
}

/// Whether a failure is worth retrying.
///
/// Transient failures come from resource budgets — the same statement can
/// succeed under a different budget (or on less loaded hardware). Permanent
/// failures are properties of the statement or schema and will recur on
/// every retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// Retryable: a budget ran out before the statement finished.
    Transient,
    /// Not retryable: the statement itself is invalid or defective.
    Permanent,
}

/// All the ways a statement can fail, from tokenization to execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The raw SQL text could not be tokenized.
    Lex(String),
    /// The token stream did not form a valid statement.
    Parse(String),
    /// Name resolution failed (unknown table/column, ambiguous reference...).
    Bind(String),
    /// A schema operation was invalid (duplicate table, arity mismatch...).
    Catalog(String),
    /// A type error surfaced while evaluating an expression.
    Type(String),
    /// Runtime failure while executing a bound plan.
    Exec(String),
    /// The statement is valid SQL but uses a feature the engine does not support.
    Unsupported(String),
    /// A DML statement referenced a table that does not exist.
    UnknownTable(String),
    /// A resource budget ran out before the statement finished. `spent` is
    /// the observed consumption when the governor fired (for [`Resource::Time`],
    /// milliseconds elapsed vs. the deadline in milliseconds).
    BudgetExceeded {
        /// Which budget fired.
        resource: Resource,
        /// Consumption observed at the check.
        spent: u64,
        /// The configured limit.
        limit: u64,
    },
    /// An engine invariant broke (including a caught panic from a fault
    /// boundary). Reported instead of unwinding through callers.
    Internal(String),
}

impl Error {
    /// Short machine-readable category, used by tests and the evaluation
    /// harness to bucket failures.
    pub fn kind(&self) -> &'static str {
        match self {
            Error::Lex(_) => "lex",
            Error::Parse(_) => "parse",
            Error::Bind(_) => "bind",
            Error::Catalog(_) => "catalog",
            Error::Type(_) => "type",
            Error::Exec(_) => "exec",
            Error::Unsupported(_) => "unsupported",
            Error::UnknownTable(_) => "unknown_table",
            Error::BudgetExceeded { .. } => "budget",
            Error::Internal(_) => "internal",
        }
    }

    /// Whether this failure could succeed on retry (under a fresh budget).
    ///
    /// Only budget exhaustion is transient: parse/bind/type/catalog errors
    /// are properties of the statement, and [`Error::Internal`] marks a bug
    /// (retrying a panic with a smaller budget cannot help).
    pub fn class(&self) -> FailureClass {
        match self {
            Error::BudgetExceeded { .. } => FailureClass::Transient,
            _ => FailureClass::Permanent,
        }
    }

    /// Convenience for `class() == FailureClass::Transient`.
    pub fn is_transient(&self) -> bool {
        self.class() == FailureClass::Transient
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Lex(m) => write!(f, "lex error: {m}"),
            Error::Parse(m) => write!(f, "parse error: {m}"),
            Error::Bind(m) => write!(f, "bind error: {m}"),
            Error::Catalog(m) => write!(f, "catalog error: {m}"),
            Error::Type(m) => write!(f, "type error: {m}"),
            Error::Exec(m) => write!(f, "execution error: {m}"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
            Error::UnknownTable(t) => write!(f, "unknown table: {t}"),
            Error::BudgetExceeded { resource, spent, limit } => {
                write!(f, "budget exceeded: {} ({spent} spent, limit {limit})", resource.label())
            }
            Error::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = Error::Parse("expected FROM".into());
        assert_eq!(e.to_string(), "parse error: expected FROM");
        assert_eq!(e.kind(), "parse");
    }

    #[test]
    fn kinds_are_distinct() {
        let kinds = [
            Error::Lex(String::new()).kind(),
            Error::Parse(String::new()).kind(),
            Error::Bind(String::new()).kind(),
            Error::Catalog(String::new()).kind(),
            Error::Type(String::new()).kind(),
            Error::Exec(String::new()).kind(),
            Error::Unsupported(String::new()).kind(),
            Error::UnknownTable(String::new()).kind(),
            Error::BudgetExceeded { resource: Resource::Time, spent: 0, limit: 0 }.kind(),
            Error::Internal(String::new()).kind(),
        ];
        let unique: std::collections::HashSet<_> = kinds.iter().collect();
        assert_eq!(unique.len(), kinds.len());
    }

    #[test]
    fn only_budget_failures_are_transient() {
        let budget = Error::BudgetExceeded { resource: Resource::Rows, spent: 11, limit: 10 };
        assert_eq!(budget.class(), FailureClass::Transient);
        assert!(budget.is_transient());
        assert!(budget.to_string().contains("rows"));
        for permanent in [
            Error::Parse("p".into()),
            Error::Bind("b".into()),
            Error::UnknownTable("t".into()),
            Error::Internal("panic".into()),
        ] {
            assert_eq!(permanent.class(), FailureClass::Permanent, "{permanent}");
        }
    }
}
