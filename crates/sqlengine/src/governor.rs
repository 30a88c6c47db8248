//! Execution governor: cooperative resource budgets for untrusted SQL.
//!
//! Generated SQL is adversarial by accident — beam search produces
//! unconstrained cross joins, deeply nested subqueries and pathological
//! `GROUP BY`s as a matter of course. The governor bounds what one
//! statement may consume, so a bad candidate costs a bounded slice of the
//! budget instead of wedging an evaluation run.
//!
//! Checks are *cooperative*: the executor calls into [`Governor`] at
//! operator boundaries (scan, join pair, group, projected row, query
//! nesting) and receives [`Error::BudgetExceeded`] once a limit trips.
//! Row/memory/depth accounting is exact and deterministic — the same
//! statement against the same data trips the same budget at the same
//! point on every run — while the wall-clock deadline is an amortized
//! backstop (checked every [`TIME_CHECK_MASK`]+1 ticks) for statements
//! that stay small but run hot.
//!
//! The module also hosts the two fault-tolerance primitives the rest of
//! the stack builds on: [`catch_panics`] (unwind isolation at a fault
//! boundary, converting panics into [`Error::Internal`]) and
//! [`with_retry`] (re-running transient failures under halved budgets).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::error::{Error, FailureClass, Resource, Result};

/// Deadline polls happen once per this many ticks (power of two minus one,
/// used as a mask). `Instant::now` is tens of nanoseconds; amortizing keeps
/// the per-row overhead of governed execution negligible.
const TIME_CHECK_MASK: u64 = 0xFF;

/// Counter family for budget denials, labeled by the resource that
/// tripped (`time` / `rows` / `intermediate_rows` / `memory` / `depth`).
pub const BUDGET_DENIED: &str = "codes_governor_budget_denied_total";

/// Count one budget denial into the process-global metrics registry and
/// build the error. Only the denial path pays for the registry lookup —
/// the within-budget hot path stays atomic-free.
fn deny(resource: Resource, spent: u64, limit: u64) -> Error {
    codes_obs::global().counter(BUDGET_DENIED, &[("resource", resource.label())]).inc();
    Error::BudgetExceeded { resource, spent, limit }
}

/// Resource budgets for one statement execution. `None` means unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecLimits {
    /// Wall-clock budget for the whole statement.
    pub deadline: Option<Duration>,
    /// Maximum rows the statement may return.
    pub max_rows: Option<u64>,
    /// Maximum rows intermediate operators may materialize (join outputs,
    /// grouped rows, set-operation inputs), cumulative over the statement.
    pub max_intermediate_rows: Option<u64>,
    /// Approximate cap on bytes materialized by intermediate operators,
    /// cumulative over the statement (see [`crate::value::Value::approx_bytes`]).
    pub max_memory_bytes: Option<u64>,
    /// Maximum nested query depth (subqueries, derived tables, set operands).
    pub max_recursion_depth: Option<u32>,
}

impl ExecLimits {
    /// No limits: the pre-governor behaviour, used by trusted callers
    /// (schema scripts, gold-query sanity checks in tests).
    pub fn unlimited() -> ExecLimits {
        ExecLimits {
            deadline: None,
            max_rows: None,
            max_intermediate_rows: None,
            max_memory_bytes: None,
            max_recursion_depth: None,
        }
    }

    /// Budgets for evaluation runs. The deterministic limits (rows, memory,
    /// depth) are sized so that every realistic Spider/BIRD query passes
    /// while cross-join blowups trip quickly; the generous deadline is a
    /// backstop only, so budget-kills are decided by the deterministic
    /// limits and EX/TS/VES verdicts are reproducible across machines.
    pub fn evaluation() -> ExecLimits {
        ExecLimits {
            deadline: Some(Duration::from_secs(10)),
            max_rows: Some(1_000_000),
            max_intermediate_rows: Some(4_000_000),
            max_memory_bytes: Some(256 << 20),
            max_recursion_depth: Some(32),
        }
    }

    /// Tight budgets for interactive serving, where a wedged statement
    /// stalls a user-visible inference.
    pub fn serving() -> ExecLimits {
        ExecLimits {
            deadline: Some(Duration::from_secs(2)),
            max_rows: Some(100_000),
            max_intermediate_rows: Some(1_000_000),
            max_memory_bytes: Some(64 << 20),
            max_recursion_depth: Some(16),
        }
    }

    /// This budget with `deadline` replaced.
    pub fn with_deadline(mut self, deadline: Duration) -> ExecLimits {
        self.deadline = Some(deadline);
        self
    }

    /// This budget with every finite limit halved (deadline included).
    /// [`with_retry`] uses it so a retried statement contends for half the
    /// resources of the attempt that failed: a statement that was *close*
    /// to finishing still fails fast instead of burning the full budget
    /// again, keeping total retry cost bounded by ~2x one attempt.
    pub fn halved(&self) -> ExecLimits {
        ExecLimits {
            deadline: self.deadline.map(|d| d / 2),
            max_rows: self.max_rows.map(|n| (n / 2).max(1)),
            max_intermediate_rows: self.max_intermediate_rows.map(|n| (n / 2).max(1)),
            max_memory_bytes: self.max_memory_bytes.map(|n| (n / 2).max(1)),
            max_recursion_depth: self.max_recursion_depth.map(|n| (n / 2).max(1)),
        }
    }
}

impl Default for ExecLimits {
    fn default() -> ExecLimits {
        ExecLimits::unlimited()
    }
}

/// Per-statement budget tracker the executor consults at operator
/// boundaries. One governor lives for one statement execution; counters
/// are cumulative, not high-water marks.
#[derive(Debug)]
pub struct Governor {
    limits: ExecLimits,
    started: Instant,
    ticks: u64,
    intermediate_rows: u64,
    memory_bytes: u64,
    depth: u32,
}

impl Governor {
    /// A fresh governor; the deadline clock starts now.
    pub fn new(limits: ExecLimits) -> Governor {
        Governor {
            limits,
            started: Instant::now(),
            ticks: 0,
            intermediate_rows: 0,
            memory_bytes: 0,
            depth: 0,
        }
    }

    /// The limits this governor enforces.
    pub fn limits(&self) -> &ExecLimits {
        &self.limits
    }

    /// Cheap per-unit-of-work check (one join pair probed, one row grouped,
    /// one row projected). Amortizes the deadline poll.
    #[inline]
    pub fn tick(&mut self) -> Result<()> {
        self.ticks += 1;
        if self.ticks & TIME_CHECK_MASK == 0 {
            self.check_deadline()?;
        }
        Ok(())
    }

    /// Unconditional deadline poll, for boundaries that are rare but may
    /// follow a long burst of un-ticked work (operator entry/exit).
    pub fn check_deadline(&self) -> Result<()> {
        if let Some(deadline) = self.limits.deadline {
            let elapsed = self.started.elapsed();
            if elapsed > deadline {
                return Err(deny(
                    Resource::Time,
                    elapsed.as_millis() as u64,
                    deadline.as_millis() as u64,
                ));
            }
        }
        Ok(())
    }

    /// Charge `rows` materialized intermediate rows of ~`bytes` total size.
    /// Borrowed base-table scans charge rows with zero bytes (no copy
    /// happens); join outputs and derived tables charge both.
    pub fn charge_intermediate(&mut self, rows: u64, bytes: u64) -> Result<()> {
        self.intermediate_rows += rows;
        if let Some(limit) = self.limits.max_intermediate_rows {
            if self.intermediate_rows > limit {
                return Err(deny(Resource::IntermediateRows, self.intermediate_rows, limit));
            }
        }
        self.memory_bytes += bytes;
        if let Some(limit) = self.limits.max_memory_bytes {
            if self.memory_bytes > limit {
                return Err(deny(Resource::Memory, self.memory_bytes, limit));
            }
        }
        Ok(())
    }

    /// Check the statement's final row count (after LIMIT is applied, so a
    /// `SELECT ... LIMIT 5` over a big table is not penalized for the scan
    /// — the intermediate-row budget governs that).
    pub fn check_output_rows(&self, rows: u64) -> Result<()> {
        if let Some(limit) = self.limits.max_rows {
            if rows > limit {
                return Err(deny(Resource::Rows, rows, limit));
            }
        }
        Ok(())
    }

    /// Enter a nested query scope (subquery, derived table, set operand).
    /// Paired with [`Governor::exit_query`], which must run on error paths
    /// too (the executor wraps the body so the pair always balances).
    pub fn enter_query(&mut self) -> Result<()> {
        self.depth += 1;
        if let Some(limit) = self.limits.max_recursion_depth {
            if self.depth > limit {
                return Err(deny(Resource::Depth, self.depth as u64, limit as u64));
            }
        }
        // Subquery entry is rare relative to row work and a natural place
        // to notice a blown deadline early.
        self.check_deadline()
    }

    /// Leave a nested query scope.
    pub fn exit_query(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }
}

/// Run `f`, converting a panic into [`Error::Internal`] instead of
/// unwinding. This is the fault boundary used around beam-candidate
/// execution and per-sample evaluation: one defective statement must never
/// take down candidate selection or an evaluation run.
///
/// The closure's captures are treated as unwind-safe. Callers at the fault
/// boundaries uphold this by discarding state the failed call may have
/// half-mutated (the candidate's result, the sample's verdict) rather than
/// reading it after a failure.
pub fn catch_panics<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "panic with non-string payload".to_string()
            };
            Err(Error::Internal(format!("caught panic: {msg}")))
        }
    }
}

/// Run `f` under `limits`, retrying transient failures up to `retries`
/// extra attempts, each under halved budgets (see [`ExecLimits::halved`]).
/// Permanent failures return immediately — retrying a parse error or a
/// caught panic cannot change the outcome.
pub fn with_retry<T>(
    limits: &ExecLimits,
    retries: u32,
    f: impl FnMut(&ExecLimits) -> Result<T>,
) -> Result<T> {
    with_retry_paced(limits, retries, |_| {}, f)
}

/// [`with_retry`] with a pacing hook: before each retry, `pause` receives
/// the delay the caller's [`Backoff`] policy chose for that attempt (the
/// serving runtime sleeps; tests record). The hook runs only between
/// attempts — never before the first or after the last.
pub fn with_retry_paced<T>(
    limits: &ExecLimits,
    retries: u32,
    mut pause: impl FnMut(u32),
    mut f: impl FnMut(&ExecLimits) -> Result<T>,
) -> Result<T> {
    let mut budget = *limits;
    let mut attempt = 0;
    loop {
        match f(&budget) {
            Ok(v) => return Ok(v),
            Err(e) if e.class() == FailureClass::Transient && attempt < retries => {
                pause(attempt);
                attempt += 1;
                budget = budget.halved();
            }
            Err(e) => return Err(e),
        }
    }
}

/// Deterministic jittered exponential backoff policy.
///
/// `delay(attempt)` grows as `base * 2^attempt`, capped at `max`, then
/// spread by a multiplicative jitter drawn from
/// `[1 - jitter/2, 1 + jitter/2)`. The jitter stream is seeded, so the same
/// `(seed, attempt)` pair always yields the same delay — retry schedules
/// and circuit-breaker open windows are reproducible in tests while still
/// decorrelating real fleets started with different seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Backoff {
    /// Delay before the first retry (attempt 0).
    pub base: Duration,
    /// Upper bound on the un-jittered delay.
    pub max: Duration,
    /// Width of the multiplicative jitter band (0 = none, 0.5 = ±25%).
    pub jitter: f64,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl Backoff {
    /// A policy with ±25% jitter.
    pub fn new(base: Duration, max: Duration, seed: u64) -> Backoff {
        Backoff { base, max, jitter: 0.5, seed }
    }

    /// The delay to wait before retry number `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .checked_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX))
            .unwrap_or(self.max)
            .min(self.max);
        if self.jitter <= 0.0 {
            return exp;
        }
        // SplitMix64 over (seed, attempt): cheap, stateless, deterministic.
        let mut z = self
            .seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let factor = 1.0 - self.jitter / 2.0 + unit * self.jitter;
        exp.mul_f64(factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_never_trips() {
        let mut gov = Governor::new(ExecLimits::unlimited());
        for _ in 0..10_000 {
            gov.tick().unwrap();
        }
        gov.charge_intermediate(u64::MAX / 2, u64::MAX / 2).unwrap();
        gov.check_output_rows(u64::MAX).unwrap();
        for _ in 0..1000 {
            gov.enter_query().unwrap();
        }
    }

    #[test]
    fn intermediate_row_budget_trips_exactly() {
        let limits = ExecLimits { max_intermediate_rows: Some(10), ..ExecLimits::unlimited() };
        let mut gov = Governor::new(limits);
        gov.charge_intermediate(10, 0).unwrap();
        let err = gov.charge_intermediate(1, 0).unwrap_err();
        assert_eq!(
            err,
            Error::BudgetExceeded { resource: Resource::IntermediateRows, spent: 11, limit: 10 }
        );
    }

    #[test]
    fn memory_budget_trips() {
        let limits = ExecLimits { max_memory_bytes: Some(100), ..ExecLimits::unlimited() };
        let mut gov = Governor::new(limits);
        gov.charge_intermediate(1, 60).unwrap();
        let err = gov.charge_intermediate(1, 60).unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { resource: Resource::Memory, .. }));
    }

    #[test]
    fn depth_budget_trips_and_exit_rebalances() {
        let limits = ExecLimits { max_recursion_depth: Some(2), ..ExecLimits::unlimited() };
        let mut gov = Governor::new(limits);
        gov.enter_query().unwrap();
        gov.enter_query().unwrap();
        assert!(matches!(
            gov.enter_query().unwrap_err(),
            Error::BudgetExceeded { resource: Resource::Depth, .. }
        ));
        gov.exit_query();
        gov.exit_query();
        gov.enter_query().unwrap();
    }

    #[test]
    fn budget_denials_are_counted_by_resource() {
        // The registry is process-global and shared with parallel tests, so
        // assert on the delta produced by a known number of denials.
        let count = |resource: &str| {
            codes_obs::global().counter(BUDGET_DENIED, &[("resource", resource)]).get()
        };
        let rows_before = count("rows");
        let depth_before = count("depth");

        let limits = ExecLimits { max_rows: Some(5), ..ExecLimits::unlimited() };
        let gov = Governor::new(limits);
        assert!(gov.check_output_rows(6).is_err());
        assert!(gov.check_output_rows(7).is_err());
        assert!(gov.check_output_rows(5).is_ok(), "within budget must not count");

        let limits = ExecLimits { max_recursion_depth: Some(1), ..ExecLimits::unlimited() };
        let mut gov = Governor::new(limits);
        gov.enter_query().unwrap();
        assert!(gov.enter_query().is_err());

        assert_eq!(count("rows") - rows_before, 2);
        assert_eq!(count("depth") - depth_before, 1);
    }

    #[test]
    fn deadline_trips_via_ticks() {
        let limits = ExecLimits::unlimited().with_deadline(Duration::from_millis(0));
        let mut gov = Governor::new(limits);
        std::thread::sleep(Duration::from_millis(2));
        let mut tripped = false;
        for _ in 0..=TIME_CHECK_MASK {
            if gov.tick().is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "deadline not noticed within one amortization window");
    }

    #[test]
    fn halved_shrinks_every_budget() {
        let halved = ExecLimits::evaluation().halved();
        let full = ExecLimits::evaluation();
        assert_eq!(halved.deadline.unwrap(), full.deadline.unwrap() / 2);
        assert_eq!(halved.max_rows.unwrap(), full.max_rows.unwrap() / 2);
        assert_eq!(halved.max_recursion_depth.unwrap(), full.max_recursion_depth.unwrap() / 2);
        // Halving never reaches zero (a zero budget would reject everything).
        let tiny = ExecLimits {
            max_rows: Some(1),
            ..ExecLimits::unlimited()
        };
        assert_eq!(tiny.halved().max_rows, Some(1));
    }

    #[test]
    fn catch_panics_converts_to_internal() {
        let err = catch_panics::<()>(|| panic!("boom {}", 42)).unwrap_err();
        assert_eq!(err.kind(), "internal");
        assert!(err.to_string().contains("boom 42"), "{err}");
        assert!(!err.is_transient());
        assert_eq!(catch_panics(|| Ok(7)).unwrap(), 7);
    }

    #[test]
    fn with_retry_halves_budget_on_transient_failures() {
        let mut seen = Vec::new();
        let result = with_retry(&ExecLimits::evaluation(), 2, |limits| {
            seen.push(limits.max_rows);
            if seen.len() < 3 {
                Err(Error::BudgetExceeded { resource: Resource::Time, spent: 1, limit: 0 })
            } else {
                Ok("done")
            }
        });
        assert_eq!(result.unwrap(), "done");
        let full = ExecLimits::evaluation().max_rows.unwrap();
        assert_eq!(seen, vec![Some(full), Some(full / 2), Some(full / 4)]);
    }

    #[test]
    fn with_retry_stops_on_permanent_failures() {
        let mut attempts = 0;
        let result: Result<()> = with_retry(&ExecLimits::evaluation(), 3, |_| {
            attempts += 1;
            Err(Error::Parse("bad".into()))
        });
        assert_eq!(result.unwrap_err().kind(), "parse");
        assert_eq!(attempts, 1);
    }

    #[test]
    fn backoff_grows_within_jitter_bounds_and_caps() {
        let b = Backoff::new(Duration::from_millis(10), Duration::from_secs(1), 0xFEED);
        for attempt in 0..12u32 {
            let nominal = Duration::from_millis(10 * (1u64 << attempt.min(10)))
                .min(Duration::from_secs(1));
            let d = b.delay(attempt);
            assert!(d >= nominal.mul_f64(0.75), "attempt {attempt}: {d:?} < 75% of {nominal:?}");
            assert!(d <= nominal.mul_f64(1.25), "attempt {attempt}: {d:?} > 125% of {nominal:?}");
        }
        // Deterministic: same (seed, attempt) → same delay.
        assert_eq!(b.delay(3), b.delay(3));
        // Different seeds decorrelate.
        let other = Backoff::new(Duration::from_millis(10), Duration::from_secs(1), 0xBEEF);
        assert_ne!(b.delay(3), other.delay(3));
        // No jitter → exact exponential.
        let flat = Backoff { jitter: 0.0, ..b };
        assert_eq!(flat.delay(2), Duration::from_millis(40));
    }

    #[test]
    fn with_retry_paced_pauses_between_attempts_only() {
        let mut paused = Vec::new();
        let mut attempts = 0;
        let result: Result<()> =
            with_retry_paced(&ExecLimits::evaluation(), 2, |a| paused.push(a), |_| {
                attempts += 1;
                Err(Error::BudgetExceeded { resource: Resource::Time, spent: 2, limit: 1 })
            });
        assert!(result.is_err());
        assert_eq!(attempts, 3);
        assert_eq!(paused, vec![0, 1], "no pause before the first or after the last attempt");
    }

    #[test]
    fn with_retry_exhausts_attempts() {
        let mut attempts = 0;
        let result: Result<()> = with_retry(&ExecLimits::evaluation(), 2, |_| {
            attempts += 1;
            Err(Error::BudgetExceeded { resource: Resource::Memory, spent: 9, limit: 8 })
        });
        assert!(result.unwrap_err().is_transient());
        assert_eq!(attempts, 3); // initial + 2 retries
    }
}
