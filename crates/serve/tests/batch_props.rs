//! Property tests for work-conserving batch formation: whatever is queued
//! when a worker picks up a seed, one drain loses nothing and reorders
//! nothing, never exceeds `max_batch`, never mixes compatibility keys
//! (hence never mixes databases or configs), and hands back exactly the
//! first job it could not take.

use std::collections::VecDeque;
use std::time::Duration;

use codes_serve::{BatchPolicy, CompatKey, Formation, MemberInfo, Verdict};
use proptest::prelude::*;

/// Decode one queued job's formation view from a single generated word
/// (the vendored proptest has no tuple/`prop_map` combinators): low bits
/// pick the database and config fingerprint, the rest the remaining
/// budget in `0..5000` ms.
fn member(raw: u64) -> MemberInfo {
    let db = raw % 4;
    let fp = (raw / 4) % 3;
    let remaining = Duration::from_millis((raw / 12) % 5_000);
    MemberInfo {
        key: CompatKey {
            db_id: format!("db{db}"),
            config_fp: fp,
            deadline_class: codes_serve::deadline_class(remaining),
        },
        remaining,
    }
}

/// A queued job: its position in the submitted stream plus its view.
type Job = (usize, MemberInfo);

fn jobs(words: &[u64]) -> Vec<Job> {
    words.iter().map(|&w| member(w)).enumerate().collect()
}

/// One worker-side drain: the stream head seeds, the rest is the queue.
/// Also returns how often the queue was polled.
fn drain_once(
    policy: &BatchPolicy,
    stream: &[Job],
) -> (Vec<Job>, Option<Job>, VecDeque<Job>, usize) {
    let mut queue: VecDeque<Job> = stream.iter().cloned().collect();
    let seed = queue.pop_front().expect("streams are generated non-empty");
    let mut polls = 0;
    let (batch, leftover) = policy.drain(seed, |(_, m)| m.clone(), || {
        polls += 1;
        queue.pop_front()
    });
    (batch, leftover, queue, polls)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_drain_conserves_order_and_respects_capacity_and_keys(
        words in prop::collection::vec(0u64..u64::MAX, 1..40),
        max_batch in 1usize..9,
    ) {
        let policy = BatchPolicy { max_batch };
        let stream = jobs(&words);
        let (batch, leftover, undrained, polls) = drain_once(&policy, &stream);

        // Conservation, FIFO: batch, then leftover, then what was never
        // dequeued is the submitted stream, in the submitted order.
        let seen: Vec<usize> =
            batch.iter().chain(leftover.iter()).chain(undrained.iter()).map(|(i, _)| *i).collect();
        prop_assert_eq!(seen, (0..stream.len()).collect::<Vec<_>>());
        // Capacity.
        prop_assert!(batch.len() <= max_batch);
        // Homogeneity: one database, one config fingerprint, one deadline
        // class per dispatch.
        for (_, m) in &batch {
            prop_assert_eq!(&m.key, &stream[0].1.key);
        }
        // The batch is the longest compatible prefix that fits, and the
        // leftover is exactly the first job that was refused: present only
        // when a dequeued job mismatched, never because the batch filled
        // (a full batch dequeues nothing more) or the queue ran dry.
        let compatible =
            stream.iter().take_while(|(_, m)| m.key == stream[0].1.key).count();
        prop_assert_eq!(batch.len(), compatible.min(max_batch));
        let refused = (compatible < max_batch && compatible < stream.len()).then_some(compatible);
        prop_assert_eq!(leftover.map(|(i, _)| i), refused);
        // Work-conserving: one poll per dequeued job, plus the single
        // empty poll that ends a drain the queue could not fill — an
        // empty queue is never asked twice, so a lone seed waits for
        // nobody.
        let ran_dry = batch.len() < max_batch && refused.is_none();
        prop_assert_eq!(polls, batch.len() - 1 + refused.iter().count() + ran_dry as usize);
    }

    #[test]
    fn chained_drains_dispatch_the_whole_stream_in_order(
        words in prop::collection::vec(0u64..u64::MAX, 1..40),
        max_batch in 1usize..9,
    ) {
        // The worker loop: a leftover seeds the next dispatch, otherwise
        // the next dequeued job does.
        let policy = BatchPolicy { max_batch };
        let mut queue: VecDeque<Job> = jobs(&words).into();
        let mut carried = None;
        let mut dispatched = Vec::new();
        while let Some(seed) = carried.take().or_else(|| queue.pop_front()) {
            let (batch, leftover) = policy.drain(seed, |(_, m)| m.clone(), || queue.pop_front());
            if max_batch == 1 {
                // Batching disabled: solo, and nothing dequeued to find out.
                prop_assert_eq!(batch.len(), 1);
                prop_assert!(leftover.is_none());
            }
            dispatched.extend(batch.into_iter().map(|(i, _)| i));
            carried = leftover;
        }
        prop_assert_eq!(dispatched, (0..words.len()).collect::<Vec<_>>());
    }

    #[test]
    fn verdicts_are_deterministic_and_decided_by_key_alone(
        seed in 0u64..u64::MAX,
        candidate in 0u64..u64::MAX,
        max_batch in 2usize..9,
    ) {
        let policy = BatchPolicy { max_batch };
        let seed = member(seed);
        let candidate = member(candidate);
        let mut a = Formation::new(seed.clone());
        let mut b = Formation::new(seed.clone());
        let va = a.consider(&policy, &candidate);
        // Same inputs, same verdict (formation is pure state).
        prop_assert_eq!(va, b.consider(&policy, &candidate));
        match va {
            Verdict::Joined => {
                prop_assert_eq!(&candidate.key, &seed.key);
                prop_assert_eq!(a.len(), 2);
                prop_assert_eq!(a.min_remaining(), seed.remaining.min(candidate.remaining));
            }
            Verdict::Stop => {
                prop_assert_ne!(&candidate.key, &seed.key);
                prop_assert_eq!(a.len(), 1);
            }
        }
    }
}
