//! `map_in_order`, the parallel map behind benchmark generation and
//! classifier training: results in input order whatever the thread count,
//! and a panicking item reaching the caller (`parallel_no_spawn.rs` holds
//! the no-helper case). No sleeps: the one cross-thread wait is a latch
//! whose bounded wait only turns a hang into a failure.

use std::collections::HashSet;
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::Duration;

use codes_datasets::parallel::map_in_order;

#[test]
fn results_come_back_in_input_order() {
    for threads in [1, 2, 7] {
        for len in 0..=40u64 {
            let items: Vec<u64> = (0..len).map(|i| i * 7919 % 101).collect();
            let ran = Mutex::new(HashSet::new());
            let out = map_in_order(&items, threads, |&x| {
                ran.lock().unwrap().insert(thread::current().id());
                // Uneven work, so threads finish items out of order.
                (0..x * 50).fold(x, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
            });
            let expected: Vec<u64> = items
                .iter()
                .map(|&x| (0..x * 50).fold(x, |acc, i| acc.wrapping_mul(31).wrapping_add(i)))
                .collect();
            assert_eq!(out, expected, "{threads} threads, {len} items");
            assert!(ran.into_inner().unwrap().len() <= threads.max(1));
        }
    }
}

/// Opened once; waits for it are bounded.
struct Latch(Mutex<bool>, Condvar);

impl Latch {
    fn open(&self) {
        *self.0.lock().unwrap() = true;
        self.1.notify_all();
    }

    fn wait(&self) {
        let guard = self.0.lock().unwrap();
        let (guard, timeout) =
            self.1.wait_timeout_while(guard, Duration::from_secs(30), |open| !*open).unwrap();
        assert!(*guard && !timeout.timed_out(), "the helper never started an item");
    }
}

#[test]
fn a_helper_panic_reaches_the_caller() {
    let caller = thread::current().id();
    let helper_started = Latch(Mutex::new(false), Condvar::new());
    // The caller holds its item until a helper runs the other one, so the
    // panic is a helper's.
    let outcome = std::panic::catch_unwind(|| {
        map_in_order(&[0, 1], 2, |&i: &i32| {
            if thread::current().id() == caller {
                helper_started.wait();
                i
            } else {
                helper_started.open();
                panic!("item {i} failed");
            }
        })
    });
    let payload = outcome.expect_err("the helper's panic is the caller's");
    let message = payload.downcast_ref::<String>().expect("the item's own payload");
    assert!(message == "item 0 failed" || message == "item 1 failed", "{message}");
}
