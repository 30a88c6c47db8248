//! An order-preserving parallel map for build-time work that is
//! independent per item (benchmark samples, classifier features).

use std::sync::atomic::{AtomicUsize, Ordering};

/// The threads build-time work may use: every core the process may run on.
pub fn build_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `items.iter().map(f).collect()` on up to `threads` threads. The caller
/// works too and spawns at most `threads - 1` scoped helpers, none when
/// there is at most one thread or one item. Items are claimed one at a
/// time, so uneven items balance; results come back in input order. A
/// panic in `f` reaches the caller with its payload once every helper has
/// stopped.
pub fn map_in_order<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let helpers = threads.min(items.len()).saturating_sub(1);
    if helpers == 0 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || -> Vec<(usize, R)> {
        let claim = || Some(next.fetch_add(1, Ordering::Relaxed));
        std::iter::from_fn(claim).map_while(|i| Some((i, f(items.get(i)?)))).collect()
    };
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..helpers).map(|_| scope.spawn(&work)).collect();
        let mut done = work();
        for helper in spawned {
            done.extend(helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, result)| result).collect()
    })
}
