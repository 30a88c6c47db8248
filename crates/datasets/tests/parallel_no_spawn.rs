//! `map_in_order` spawns no helper for one thread or one item. The only
//! test of its binary, so that the process's thread count moves only with
//! what it calls: a helper would be alive while the caller runs an item,
//! or would have run one itself.

use std::thread::{self, ThreadId};

use codes_datasets::parallel::map_in_order;

/// The process's live threads, where the platform lists them.
fn live_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|tasks| tasks.count())
}

#[test]
fn one_thread_or_one_item_spawns_nothing() {
    let caller = thread::current().id();
    let before = live_threads();
    for (threads, len) in [(1, 40), (0, 5), (7, 1), (7, 0)] {
        let items: Vec<usize> = (0..len).collect();
        let ran: Vec<(ThreadId, Option<usize>)> =
            map_in_order(&items, threads, |_| (thread::current().id(), live_threads()));
        assert_eq!(ran.len(), len);
        assert!(ran.iter().all(|&r| r == (caller, before)), "{threads} threads, {len} items");
    }
}
