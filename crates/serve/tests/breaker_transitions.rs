//! Satellite 1: the breaker state machine, table-driven over every edge,
//! plus the pool-level `codes_serve_breaker_transitions_total{from,to}`
//! counters agreeing with behavior observed under a deterministic
//! [`FaultPlan`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use codes::Config;
use codes_serve::{
    Admission, Backend, BackendReply, BreakerConfig, BreakerState, CircuitBreaker, FaultPlan,
    FaultyBackend, InferenceRequest, Pool, ServeConfig,
};
use sqlengine::{Backoff, Error};

/// Symbolic state name for table rows (mirrors `BreakerState::kind`).
fn kind(state: BreakerState) -> &'static str {
    match state {
        BreakerState::Closed { .. } => "closed",
        BreakerState::Open { .. } => "open",
        BreakerState::HalfOpen { .. } => "half_open",
    }
}

/// One scripted operation applied to a breaker.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `record_failure` at `t0 + offset_ms`.
    Fail { offset_ms: u64 },
    /// `record_success`.
    Succeed,
    /// `admit` at `t0 + offset_ms`, asserting the admission decision.
    Admit { offset_ms: u64, expect: Expect },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Allow,
    Probe,
    Reject,
}

fn check_admission(got: Admission, expect: Expect, step: usize, name: &str) {
    let got_kind = match got {
        Admission::Allow => Expect::Allow,
        Admission::Probe => Expect::Probe,
        Admission::Reject { .. } => Expect::Reject,
    };
    assert_eq!(got_kind, expect, "case `{name}` step {step}: admission {got:?}");
}

/// Zero-jitter breaker: open window k is exactly 40ms·2^k.
fn deterministic_breaker() -> CircuitBreaker {
    CircuitBreaker::new(BreakerConfig {
        failure_threshold: 3,
        backoff: Backoff { base: Duration::from_millis(40), max: Duration::from_secs(2), jitter: 0.0, seed: 1 },
    })
}

struct Case {
    name: &'static str,
    ops: &'static [Op],
    /// Expected state kind after each op, in order.
    trace: &'static [&'static str],
}

/// Every edge of the state machine, exercised as an explicit table:
///
/// * closed → closed   (failures below threshold; success resets the run)
/// * closed → open     (threshold-th consecutive failure)
/// * open   → open     (admissions inside the window are rejected)
/// * open   → half_open (first admission after the window becomes the probe)
/// * open   → closed   (success recorded while open, e.g. an in-flight
///   request admitted before the trip finishing after it)
/// * half_open → open  (probe fails; reopen with a longer window)
/// * half_open → half_open (second arrival while the probe is in flight)
/// * half_open → closed (probe succeeds)
#[test]
fn state_machine_table_covers_every_edge() {
    // Window 0 is 40ms; window 1 (after one reopen) is 80ms.
    let cases = [
        Case {
            name: "failures below threshold stay closed; success resets the run",
            ops: &[
                Op::Fail { offset_ms: 0 },
                Op::Fail { offset_ms: 0 },
                Op::Succeed,
                Op::Fail { offset_ms: 0 },
                Op::Fail { offset_ms: 0 },
                Op::Admit { offset_ms: 0, expect: Expect::Allow },
            ],
            trace: &["closed", "closed", "closed", "closed", "closed", "closed"],
        },
        Case {
            name: "threshold-th failure trips closed → open; window rejects",
            ops: &[
                Op::Fail { offset_ms: 0 },
                Op::Fail { offset_ms: 0 },
                Op::Fail { offset_ms: 0 },
                Op::Admit { offset_ms: 10, expect: Expect::Reject },
                Op::Admit { offset_ms: 39, expect: Expect::Reject },
            ],
            trace: &["closed", "closed", "open", "open", "open"],
        },
        Case {
            name: "window elapse turns the next arrival into the probe",
            ops: &[
                Op::Fail { offset_ms: 0 },
                Op::Fail { offset_ms: 0 },
                Op::Fail { offset_ms: 0 },
                Op::Admit { offset_ms: 40, expect: Expect::Probe },
                // While the probe is in flight, everyone else is shed but
                // the state stays half-open.
                Op::Admit { offset_ms: 41, expect: Expect::Reject },
            ],
            trace: &["closed", "closed", "open", "half_open", "half_open"],
        },
        Case {
            name: "failed probe reopens (half_open → open), success then closes",
            ops: &[
                Op::Fail { offset_ms: 0 },
                Op::Fail { offset_ms: 0 },
                Op::Fail { offset_ms: 0 },
                Op::Admit { offset_ms: 40, expect: Expect::Probe },
                Op::Fail { offset_ms: 40 },
                // Reopened window is 80ms from the failure instant.
                Op::Admit { offset_ms: 100, expect: Expect::Reject },
                Op::Admit { offset_ms: 120, expect: Expect::Probe },
                Op::Succeed,
                Op::Admit { offset_ms: 121, expect: Expect::Allow },
            ],
            trace: &[
                "closed", "closed", "open", "half_open", "open", "open", "half_open", "closed",
                "closed",
            ],
        },
        Case {
            name: "successful probe closes fully (half_open → closed)",
            ops: &[
                Op::Fail { offset_ms: 0 },
                Op::Fail { offset_ms: 0 },
                Op::Fail { offset_ms: 0 },
                Op::Admit { offset_ms: 40, expect: Expect::Probe },
                Op::Succeed,
            ],
            trace: &["closed", "closed", "open", "half_open", "closed"],
        },
        Case {
            name: "success while open closes immediately (open → closed)",
            ops: &[
                Op::Fail { offset_ms: 0 },
                Op::Fail { offset_ms: 0 },
                Op::Fail { offset_ms: 0 },
                Op::Succeed,
                Op::Admit { offset_ms: 1, expect: Expect::Allow },
            ],
            trace: &["closed", "closed", "open", "closed", "closed"],
        },
        Case {
            name: "failure while open neither extends nor closes the window",
            ops: &[
                Op::Fail { offset_ms: 0 },
                Op::Fail { offset_ms: 0 },
                Op::Fail { offset_ms: 0 },
                Op::Fail { offset_ms: 5 },
                Op::Admit { offset_ms: 40, expect: Expect::Probe },
            ],
            trace: &["closed", "closed", "open", "open", "half_open"],
        },
    ];

    for case in &cases {
        assert_eq!(case.ops.len(), case.trace.len(), "case `{}` malformed", case.name);
        let mut breaker = deterministic_breaker();
        let t0 = Instant::now();
        for (step, (op, expected_kind)) in case.ops.iter().zip(case.trace).enumerate() {
            match *op {
                Op::Fail { offset_ms } => {
                    breaker.record_failure(t0 + Duration::from_millis(offset_ms));
                }
                Op::Succeed => breaker.record_success(),
                Op::Admit { offset_ms, expect } => {
                    let got = breaker.admit(t0 + Duration::from_millis(offset_ms));
                    check_admission(got, expect, step, case.name);
                }
            }
            assert_eq!(
                kind(breaker.state()),
                *expected_kind,
                "case `{}` step {step}: state after {op:?}",
                case.name
            );
        }
    }
}

#[test]
fn reopen_windows_grow_under_zero_jitter() {
    let mut breaker = deterministic_breaker();
    let t0 = Instant::now();
    for _ in 0..3 {
        breaker.record_failure(t0);
    }
    let mut now = t0;
    for k in 0..4u32 {
        let until = match breaker.state() {
            BreakerState::Open { until, reopened } => {
                assert_eq!(reopened, k);
                until
            }
            s => panic!("expected open at reopen {k}, got {s:?}"),
        };
        assert_eq!(until - now, Duration::from_millis(40 * (1 << k)), "window {k}");
        now = until;
        assert_eq!(breaker.admit(now), Admission::Probe);
        breaker.record_failure(now);
    }
}

/// Backend whose success/failure the test controls directly; only reached
/// when the wrapping [`FaultPlan`] injects nothing.
struct SwitchBackend {
    healthy: Arc<AtomicBool>,
}

impl Backend for SwitchBackend {
    fn infer(&self, request: &InferenceRequest, _id: u64, _config: &Config) -> Result<BackendReply, Error> {
        if self.healthy.load(Ordering::SeqCst) {
            Ok(BackendReply {
                sql: "SELECT 1".to_string(),
                degradations: vec![],
                latency_seconds: 0.0,
                prompt_tokens: request.question.len(),
                ..BackendReply::default()
            })
        } else {
            Err(Error::Exec("database offline".to_string()))
        }
    }
}

/// One `codes_serve_*` counter series, read back from the registry.
fn series(registry: &codes_obs::Registry, name: &str, label: (&str, &str)) -> u64 {
    let label = vec![(label.0.to_string(), label.1.to_string())];
    let found = registry.counters_by_name(name).into_iter().find(|(labels, _)| *labels == label);
    found.map_or(0, |(_, count)| count)
}

fn failed(registry: &codes_obs::Registry) -> u64 {
    series(registry, codes_serve::metrics::REQUESTS, ("outcome", "failed"))
}

fn shed_breaker(registry: &codes_obs::Registry) -> u64 {
    series(registry, codes_serve::metrics::SHED, ("reason", "breaker"))
}

fn pool_config() -> ServeConfig {
    let mut config = ServeConfig {
        workers: 1,
        queue_capacity: 16,
        default_deadline: Duration::from_secs(5),
        heartbeat_interval: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    config.breaker = BreakerConfig {
        failure_threshold: 3,
        backoff: Backoff { base: Duration::from_millis(40), max: Duration::from_secs(1), jitter: 0.0, seed: 1 },
    };
    // No engine-level retries: every submission is exactly one backend call.
    config.base_config.retry_attempts = 0;
    config
}

/// Drive the pool through trip → window shed → failed probe → reopen →
/// successful probe, under a `FaultPlan` whose `budget_prob = 1.0` makes
/// every planned request fail deterministically, and check that the
/// transition counters in the metrics snapshot agree edge-for-edge with the
/// behavior the tickets observed.
#[test]
fn pool_transition_counters_agree_with_observed_breaker_behavior() {
    let healthy = Arc::new(AtomicBool::new(false));
    // budget_prob = 1.0: the uniform roll in [0,1) is always below it, so
    // every request fails with budget exhaustion — same plan, same ids,
    // same schedule on every run.
    let plan =
        FaultPlan { seed: 7, panic_prob: 0.0, stall_prob: 0.0, stall: Duration::ZERO, budget_prob: 1.0 };
    let registry = Arc::new(codes_obs::Registry::new());
    let backend = FaultyBackend::new(SwitchBackend { healthy: Arc::clone(&healthy) }, plan);
    let pool = Pool::start_with_registry(backend, pool_config(), Arc::clone(&registry));

    // Three failures trip the breaker: exactly one closed→open.
    for i in 0..3 {
        let outcome = pool.submit(InferenceRequest::new("bank", format!("q{i}"))).expect("admitted").wait();
        assert!(matches!(outcome, Err(codes::Error::Engine(_))), "failure {i}: {outcome:?}");
    }
    let metrics = pool.health().metrics;
    assert_eq!(metrics.transitions("closed", "open"), 1);
    assert_eq!(metrics.total_transitions(), 1);
    assert_eq!(failed(&registry), 3);

    // Inside the 40ms window: shed, no transition.
    let outcome = pool.submit(InferenceRequest::new("bank", "q3")).expect("admitted").wait();
    assert!(matches!(outcome, Err(codes::Error::CircuitOpen { .. })), "window shed: {outcome:?}");
    let metrics = pool.health().metrics;
    assert_eq!(shed_breaker(&registry), 1);
    assert_eq!(metrics.total_transitions(), 1);

    // Past the window: the request becomes the probe (open→half_open) and
    // fails under the plan (half_open→open). Reopened window is 80ms.
    std::thread::sleep(Duration::from_millis(60));
    let outcome = pool.submit(InferenceRequest::new("bank", "probe1")).expect("admitted").wait();
    assert!(matches!(outcome, Err(codes::Error::Engine(_))), "failed probe: {outcome:?}");
    let metrics = pool.health().metrics;
    assert_eq!(metrics.transitions("open", "half_open"), 1);
    assert_eq!(metrics.transitions("half_open", "open"), 1);
    assert_eq!(metrics.total_transitions(), 3);

    // Under this plan every probe fails, so the breaker can never close:
    // the ledger must record exactly one open→half_open + half_open→open
    // pair per elapsed-window probe and no recovery edge.
    std::thread::sleep(Duration::from_millis(100));
    let outcome = pool.submit(InferenceRequest::new("bank", "probe2")).expect("admitted").wait();
    assert!(matches!(outcome, Err(codes::Error::Engine(_))), "second probe: {outcome:?}");
    let health = pool.shutdown();
    let metrics = &health.metrics;
    assert_eq!(metrics.transitions("open", "half_open"), 2);
    assert_eq!(metrics.transitions("half_open", "open"), 2);
    assert_eq!(metrics.transitions("closed", "open"), 1);
    assert_eq!(metrics.transitions("half_open", "closed"), 0, "no probe ever succeeded");
    assert_eq!(metrics.total_transitions(), 5);

    // The registry counters mirror the pool's own lifetime stats.
    let submitted = registry.counters_by_name(codes_serve::metrics::SUBMITTED);
    assert_eq!(submitted, vec![(vec![], health.stats.submitted)]);
    assert_eq!(failed(&registry), health.stats.failed);
    assert_eq!(shed_breaker(&registry), health.stats.shed_breaker);
    assert_eq!(metrics.queue_wait.count, 6, "every dequeued request samples queue wait");
    assert_eq!(metrics.in_flight, 0);
}

/// The recovery edge (half_open→closed) counted at the pool level: a quiet
/// plan delegates to the switchable backend, which heals after the trip.
#[test]
fn pool_counts_recovery_transition_when_probe_succeeds() {
    let healthy = Arc::new(AtomicBool::new(false));
    let backend =
        FaultyBackend::new(SwitchBackend { healthy: Arc::clone(&healthy) }, FaultPlan::quiet(3));
    let registry = Arc::new(codes_obs::Registry::new());
    let pool = Pool::start_with_registry(backend, pool_config(), Arc::clone(&registry));

    for i in 0..3 {
        let outcome = pool.submit(InferenceRequest::new("bank", format!("q{i}"))).expect("admitted").wait();
        assert!(outcome.is_err(), "failure {i} expected");
    }
    healthy.store(true, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(60));
    let outcome = pool.submit(InferenceRequest::new("bank", "probe")).expect("admitted").wait();
    assert!(outcome.is_ok(), "healed probe should succeed: {outcome:?}");

    let health = pool.shutdown();
    let metrics = &health.metrics;
    assert_eq!(metrics.transitions("closed", "open"), 1);
    assert_eq!(metrics.transitions("open", "half_open"), 1);
    assert_eq!(metrics.transitions("half_open", "closed"), 1);
    assert_eq!(metrics.transitions("half_open", "open"), 0);
    assert_eq!(metrics.total_transitions(), 3);
    assert_eq!(series(&registry, codes_serve::metrics::REQUESTS, ("outcome", "completed")), 1);
    assert_eq!(failed(&registry), 3);
    // The final closed state in the snapshot agrees with the ledger.
    assert!(matches!(
        health.breakers.iter().find(|(d, _)| d == "bank").expect("breaker exists").1,
        BreakerState::Closed { consecutive_failures: 0 }
    ));
}
