//! Batch-formation policy for the dynamic micro-batching scheduler.
//!
//! This module is pure decision logic — no threads, no channels — so the
//! batching invariants can be property-tested directly:
//!
//! * a batch never mixes databases (one dispatch = one `Database` handle,
//!   hence one revision);
//! * a batch never mixes config fingerprints or deadline classes;
//! * a batch never exceeds `max_batch` members;
//! * the first drained candidate that does not fit stops formation and
//!   seeds the next dispatch — nothing is reordered or dropped.
//!
//! Formation is work-conserving: the pool's worker loop dequeues a seed
//! and [`BatchPolicy::drain`] feeds each job that is *already queued*
//! through [`Formation::consider`] until the batch is full, the queue is
//! empty, or the verdict says stop — then the worker dispatches at once.
//! Nothing here waits, so no deadline can be missed because of batching.

// The scheduler decides who waits for whom under a deadline — a stray
// unwrap here would turn a malformed edge case into a hung batch.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::time::Duration;

use codes::{config_fingerprint, Config, InferenceRequest};

/// Batch-compatibility key: two queued requests may share a dispatch only
/// when every component matches. `db_id` pins the batch to one database
/// handle (hence one catalog revision at dispatch time), `config_fp`
/// pins the inference configuration, and `deadline_class` keeps members
/// whose remaining budgets are within 2× of each other together, so the
/// batch-wide deadline clamp cannot starve a member that would have run
/// comfortably solo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompatKey {
    /// Target database name.
    pub db_id: String,
    /// Fingerprint of the request's effective (pre-clamp) [`Config`].
    pub config_fp: u64,
    /// `floor(log2(remaining_ms))` bucket of the remaining budget.
    pub deadline_class: u32,
}

/// The deadline class of a remaining budget: `floor(log2(remaining_ms))`,
/// with everything below 1ms collapsed into class 0. Members of one class
/// have remaining budgets within a factor of two of each other.
pub fn deadline_class(remaining: Duration) -> u32 {
    let ms = (remaining.as_millis().min(u128::from(u64::MAX)) as u64).max(1);
    ms.ilog2()
}

/// The formation-relevant view of one queued job.
#[derive(Debug, Clone)]
pub struct MemberInfo {
    /// Compatibility key.
    pub key: CompatKey,
    /// Budget remaining when the job was examined (deadline minus time
    /// already spent queued).
    pub remaining: Duration,
}

impl MemberInfo {
    /// Build from a request, the pool's base config, and the job's
    /// remaining budget. The fingerprint covers the request's own config
    /// override when present, the pool default otherwise — *before* any
    /// deadline clamp, which is the deadline class's job to capture.
    pub fn of_request(
        request: &InferenceRequest,
        base: &Config,
        remaining: Duration,
    ) -> MemberInfo {
        let effective = request.config.unwrap_or(*base);
        MemberInfo {
            key: CompatKey {
                db_id: request.db_id.clone(),
                config_fp: config_fingerprint(&effective),
                deadline_class: deadline_class(remaining),
            },
            remaining,
        }
    }
}

/// Batching knobs (mirrors `ServeConfig::max_batch`).
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Largest batch a worker may form; 1 disables batching.
    pub max_batch: usize,
}

impl BatchPolicy {
    /// Form one batch around `seed` from jobs that are already queued.
    /// `next` must not block — `None` means the queue is empty right now —
    /// and is never called once the batch is full, so nothing is dequeued
    /// that this dispatch cannot take. Returns the batch in queue order
    /// plus, when a dequeued job was refused, that job: it must seed the
    /// next dispatch.
    pub fn drain<T>(
        &self,
        seed: T,
        info: impl Fn(&T) -> MemberInfo,
        mut next: impl FnMut() -> Option<T>,
    ) -> (Vec<T>, Option<T>) {
        let mut formation = Formation::new(info(&seed));
        let mut batch = vec![seed];
        while !formation.is_full(self) {
            let Some(job) = next() else {
                break;
            };
            match formation.consider(self, &info(&job)) {
                Verdict::Joined => batch.push(job),
                Verdict::Stop => return (batch, Some(job)),
            }
        }
        (batch, None)
    }
}

/// Verdict of [`Formation::consider`] for one drained candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate joined the batch; keep draining while room remains.
    Joined,
    /// The candidate did not fit (the batch is full, or its database,
    /// config fingerprint or deadline class differs): dispatch the batch
    /// as formed and seed the next dispatch with the candidate.
    Stop,
}

/// Pure formation state: the compatibility key fixed by the seed plus the
/// running member count and tightest remaining budget.
#[derive(Debug, Clone)]
pub struct Formation {
    key: CompatKey,
    len: usize,
    min_remaining: Duration,
}

impl Formation {
    /// Start a batch around its seed.
    pub fn new(seed: MemberInfo) -> Formation {
        Formation { key: seed.key, len: 1, min_remaining: seed.remaining }
    }

    /// Members so far (seed included).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always at least the seed.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether the batch reached `max_batch`.
    pub fn is_full(&self, policy: &BatchPolicy) -> bool {
        self.len >= policy.max_batch
    }

    /// Tightest remaining budget across members — the whole batch's
    /// config is clamped to (at most) this, so no member's deadline can
    /// be exceeded by the shared dispatch.
    pub fn min_remaining(&self) -> Duration {
        self.min_remaining
    }

    /// Offer a drained candidate to the batch.
    pub fn consider(&mut self, policy: &BatchPolicy, candidate: &MemberInfo) -> Verdict {
        if self.is_full(policy) || candidate.key != self.key {
            return Verdict::Stop;
        }
        self.len += 1;
        self.min_remaining = self.min_remaining.min(candidate.remaining);
        Verdict::Joined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(db: &str, fp: u64, remaining_ms: u64) -> MemberInfo {
        MemberInfo {
            key: CompatKey {
                db_id: db.to_string(),
                config_fp: fp,
                deadline_class: deadline_class(Duration::from_millis(remaining_ms)),
            },
            remaining: Duration::from_millis(remaining_ms),
        }
    }

    #[test]
    fn deadline_classes_are_power_of_two_buckets() {
        assert_eq!(deadline_class(Duration::ZERO), 0);
        assert_eq!(deadline_class(Duration::from_millis(1)), 0);
        assert_eq!(deadline_class(Duration::from_millis(2)), 1);
        assert_eq!(deadline_class(Duration::from_millis(3)), 1);
        assert_eq!(deadline_class(Duration::from_millis(1000)), 9);
        assert_eq!(deadline_class(Duration::from_millis(1023)), 9);
        assert_eq!(deadline_class(Duration::from_millis(1024)), 10);
        assert_eq!(deadline_class(Duration::from_millis(2000)), 10);
    }

    #[test]
    fn formation_rejects_mismatches_and_respects_capacity() {
        let policy = BatchPolicy { max_batch: 3 };
        let mut f = Formation::new(info("bank", 7, 900));
        assert_eq!(f.consider(&policy, &info("retail", 7, 900)), Verdict::Stop);
        assert_eq!(f.consider(&policy, &info("bank", 8, 900)), Verdict::Stop);
        assert_eq!(f.consider(&policy, &info("bank", 7, 90)), Verdict::Stop, "deadline class differs");
        assert_eq!(f.consider(&policy, &info("bank", 7, 800)), Verdict::Joined);
        assert_eq!(f.consider(&policy, &info("bank", 7, 700)), Verdict::Joined);
        assert!(f.is_full(&policy));
        assert_eq!(f.consider(&policy, &info("bank", 7, 600)), Verdict::Stop);
        assert_eq!(f.len(), 3);
        assert_eq!(f.min_remaining(), Duration::from_millis(700));
    }
}
