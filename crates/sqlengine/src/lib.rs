#![warn(missing_docs)]

//! # sqlengine
//!
//! An embedded, in-memory relational SQL engine built as the database
//! substrate for the CodeS text-to-SQL reproduction. The paper hosts its
//! benchmarks on SQLite; this crate plays that role, providing everything
//! the pipeline needs:
//!
//! * a catalog with column **comments**, **primary/foreign keys** and typed
//!   columns — the metadata §6.3 of the paper serializes into prompts;
//! * a SQL dialect covering the Spider/BIRD query space: joins, aggregates,
//!   `GROUP BY`/`HAVING`, `ORDER BY`/`LIMIT`, set operations, nested
//!   subqueries, `LIKE`/`BETWEEN`/`IN`, `CAST` and scalar functions;
//! * execution-based result comparison (the EX metric) and a deterministic
//!   cost model (the VES metric);
//! * representative-value extraction (`SELECT DISTINCT ... LIMIT 2`).
//!
//! ```
//! use sqlengine::{database_from_script, execute_query};
//!
//! let db = database_from_script(
//!     "demo",
//!     "CREATE TABLE singer (id INTEGER PRIMARY KEY, name TEXT, age INTEGER);
//!      INSERT INTO singer VALUES (1, 'Joe', 41), (2, 'Ann', 29);",
//! )
//! .unwrap();
//! let result = execute_query(&db, "SELECT name FROM singer WHERE age > 30").unwrap();
//! assert_eq!(result.rows.len(), 1);
//! ```

pub mod ast;
pub mod catalog;
pub mod cost;
pub mod engine;
pub mod error;
pub mod exec;
pub mod functions;
pub mod governor;
pub mod lexer;
pub mod optimizer;
pub mod parser;
pub mod plan;
pub mod result;
pub mod types;
pub mod value;

pub use catalog::{Column, Database, ForeignKey, Table, TableSchema};
pub use cost::{estimate_node, Cost, Estimate, ExecStats, HASH_JOIN_THRESHOLD};
pub use engine::{
    apply_statement, database_from_script, execute_ast, execute_ast_governed, execute_query,
    execute_query_governed, execute_query_naive, execute_query_plan, execute_query_with_stats,
    load_script, preprice_ast, preprice_query, schema_to_ddl,
};
pub use error::{Error, FailureClass, Resource, Result};
/// Alias emphasizing the execution-failure role of [`Error`] at call sites
/// that only ever see runtime failures (governed execution, fault
/// boundaries).
pub use error::Error as ExecError;
pub use governor::{
    catch_panics, with_retry, with_retry_paced, Backoff, ExecLimits, Governor, BUDGET_DENIED,
};
pub use optimizer::{optimize_select, PLAN_PREPRICE_SHED, PLAN_REWRITES, PREPRICE_SHED_FACTOR};
pub use parser::{parse_query, parse_script, parse_statement};
pub use plan::{lower_query, lower_relation, output_bindings, EquiJoin, PlanMode, PlanNode};
pub use result::QueryResult;
pub use types::DataType;
pub use value::{Row, Value};
