//! Deterministic fault injection for chaos testing the pool.
//!
//! A [`FaultPlan`] decides — purely from its seed and a request id —
//! whether a given request panics the worker, stalls it past the wedge
//! threshold, or fails with budget exhaustion. Keying on the request id
//! (assigned at submission) rather than invocation order makes chaos
//! outcomes reproducible regardless of how the OS schedules workers.
//!
//! [`GatedBackend`] is the scheduling counterpart: it parks a worker
//! inside a dispatch until the test opens the gate, so a test decides
//! exactly what is queued behind a busy worker instead of hoping a burst
//! lands inside a timing window.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sqlengine::{Error, Resource};

use codes::InferenceRequest;
use crossbeam::channel::{self, Receiver, Sender};

use crate::pool::{Backend, BackendReply};

/// What the plan injects for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Run normally.
    None,
    /// Panic the worker thread mid-request.
    Panic,
    /// Sleep long enough to trip the supervisor's wedge detector.
    Stall,
    /// Fail with a transient [`Error::BudgetExceeded`].
    BudgetExhaustion,
}

/// A seeded probabilistic fault schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed decorrelating this plan from others.
    pub seed: u64,
    /// Probability a request panics its worker.
    pub panic_prob: f64,
    /// Probability a request stalls its worker.
    pub stall_prob: f64,
    /// How long a stalled request sleeps.
    pub stall: Duration,
    /// Probability a request fails with budget exhaustion.
    pub budget_prob: f64,
}

impl FaultPlan {
    /// A plan that never injects anything.
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan { seed, panic_prob: 0.0, stall_prob: 0.0, stall: Duration::ZERO, budget_prob: 0.0 }
    }

    /// The chaos-suite preset: ≥20% of requests panic or stall their
    /// worker, plus a budget-exhaustion tail.
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            panic_prob: 0.15,
            stall_prob: 0.10,
            stall: Duration::from_millis(250),
            budget_prob: 0.10,
        }
    }

    /// The fault for request `id`. Pure: same plan + same id → same fault,
    /// independent of call order or thread interleaving.
    pub fn decide(&self, id: u64) -> Fault {
        // One uniform roll per request against cumulative probability
        // bands, from an rng keyed on (seed, id).
        let mut rng = StdRng::seed_from_u64(self.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let roll: f64 = rng.random_range(0.0..1.0);
        if roll < self.panic_prob {
            Fault::Panic
        } else if roll < self.panic_prob + self.stall_prob {
            Fault::Stall
        } else if roll < self.panic_prob + self.stall_prob + self.budget_prob {
            Fault::BudgetExhaustion
        } else {
            Fault::None
        }
    }
}

/// Wraps any [`Backend`] with a [`FaultPlan`]. Injected panics carry the
/// marker text `"injected fault"` so test panic hooks can stay quiet
/// without hiding real failures.
pub struct FaultyBackend<B> {
    inner: B,
    plan: FaultPlan,
}

impl<B> FaultyBackend<B> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> FaultyBackend<B> {
        FaultyBackend { inner, plan }
    }

    /// The wrapped plan (so tests can predict outcomes per request id).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl<B: Backend> Backend for FaultyBackend<B> {
    fn infer(
        &self,
        request: &InferenceRequest,
        id: u64,
        config: &codes::Config,
    ) -> Result<BackendReply, Error> {
        match self.plan.decide(id) {
            Fault::None => self.inner.infer(request, id, config),
            Fault::Panic => panic!("injected fault: worker panic for request {id}"),
            Fault::Stall => {
                std::thread::sleep(self.plan.stall);
                self.inner.infer(request, id, config)
            }
            Fault::BudgetExhaustion => {
                Err(Error::BudgetExceeded { resource: Resource::Time, spent: 1_000, limit: 1_000 })
            }
        }
    }

    fn has_database(&self, db_id: &str) -> Option<bool> {
        self.inner.has_database(db_id)
    }
}

/// Test scaffolding, not serving API: wraps any [`Backend`] with a gate.
/// A dispatch carrying a request whose question is [`Gate::HOLD`] parks
/// its worker inside the backend until [`Gate::open`] is called.
/// Everything else passes straight through.
#[doc(hidden)]
pub struct GatedBackend<B> {
    inner: B,
    parked: Sender<()>,
    release: Receiver<()>,
}

/// The test's side of a [`GatedBackend`].
#[doc(hidden)]
pub struct Gate {
    parked: Receiver<()>,
    release: Sender<()>,
}

impl<B> GatedBackend<B> {
    /// Wrap `inner`; the returned [`Gate`] controls the parked worker.
    pub fn new(inner: B) -> (GatedBackend<B>, Gate) {
        let (parked_tx, parked_rx) = channel::unbounded();
        let (release_tx, release_rx) = channel::unbounded();
        (
            GatedBackend { inner, parked: parked_tx, release: release_rx },
            Gate { parked: parked_rx, release: release_tx },
        )
    }

    fn hold_if_asked(&self, request: &InferenceRequest) {
        if request.question == Gate::HOLD {
            let _ = self.parked.send(());
            // A dropped gate releases the worker rather than wedging it.
            let _ = self.release.recv();
        }
    }
}

impl Gate {
    /// The question that parks its worker at the gate.
    pub const HOLD: &'static str = "hold the worker";

    /// Block until a worker is parked at the gate (it has dequeued the
    /// [`Gate::HOLD`] request and is inside the backend).
    pub fn wait_parked(&self) {
        // A dropped backend means the pool is gone; nothing to wait for.
        let _ = self.parked.recv();
    }

    /// Let one parked worker continue.
    pub fn open(&self) {
        let _ = self.release.send(());
    }
}

impl<B: Backend> Backend for GatedBackend<B> {
    fn infer(
        &self,
        request: &InferenceRequest,
        id: u64,
        config: &codes::Config,
    ) -> Result<BackendReply, Error> {
        self.hold_if_asked(request);
        self.inner.infer(request, id, config)
    }

    fn infer_batch(
        &self,
        requests: &[(&InferenceRequest, u64)],
        config: &codes::Config,
    ) -> Vec<Result<BackendReply, Error>> {
        for (request, _) in requests {
            self.hold_if_asked(request);
        }
        self.inner.infer_batch(requests, config)
    }

    fn has_database(&self, db_id: &str) -> Option<bool> {
        self.inner.has_database(db_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_id_and_seed() {
        let plan = FaultPlan::chaos(11);
        let again = FaultPlan::chaos(11);
        for id in 0..500u64 {
            assert_eq!(plan.decide(id), again.decide(id));
        }
        let other = FaultPlan::chaos(12);
        let diverged = (0..500u64).filter(|&id| plan.decide(id) != other.decide(id)).count();
        assert!(diverged > 0, "different seeds should yield different schedules");
    }

    #[test]
    fn chaos_preset_injects_enough_disruption() {
        let plan = FaultPlan::chaos(3);
        let n = 200u64;
        let disruptive = (0..n)
            .filter(|&id| matches!(plan.decide(id), Fault::Panic | Fault::Stall))
            .count();
        // The acceptance bar: ≥20% of a 200-request run panics or stalls.
        assert!(
            disruptive * 100 >= 20 * n as usize,
            "only {disruptive}/{n} requests disrupted"
        );
    }

    #[test]
    fn quiet_plan_never_injects() {
        let plan = FaultPlan::quiet(9);
        assert!((0..200u64).all(|id| plan.decide(id) == Fault::None));
    }
}
