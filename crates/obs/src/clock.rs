//! The time source policy code reads: the wall clock in production, a
//! hand-advanced one in tests, so a rule about elapsed time is tested
//! without sleeping.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic time source. Clones share one timeline.
#[derive(Debug, Clone)]
pub struct Clock {
    /// `(origin, nanoseconds advanced)` on a manual clock.
    manual: Option<(Instant, Arc<AtomicU64>)>,
}

impl Clock {
    /// The wall clock: [`Instant::now`].
    pub fn real() -> Clock {
        Clock { manual: None }
    }

    /// A clock that stands still until [`Clock::advance`] moves it.
    pub fn manual() -> Clock {
        Clock { manual: Some((Instant::now(), Arc::default())) }
    }

    /// The current instant on this clock.
    pub fn now(&self) -> Instant {
        match &self.manual {
            None => Instant::now(),
            Some((origin, advanced)) => {
                *origin + Duration::from_nanos(advanced.load(Ordering::SeqCst))
            }
        }
    }

    /// Move a manual clock forward by `d`. Panics on the real clock, which
    /// no test can move.
    pub fn advance(&self, d: Duration) {
        let (_, advanced) = self.manual.as_ref().expect("only a manual clock is advanced");
        let nanos = u64::try_from(d.as_nanos()).expect("an advance of under 584 years");
        advanced.fetch_add(nanos, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_manual_clock_moves_only_when_advanced_and_clones_share_it() {
        let clock = Clock::manual();
        let start = clock.now();
        assert_eq!(clock.now(), start, "time stands still");
        let handle = clock.clone();
        handle.advance(Duration::from_millis(100));
        handle.advance(Duration::from_nanos(1));
        assert_eq!(clock.now() - start, Duration::from_nanos(100_000_001));
    }

    #[test]
    fn the_real_clock_follows_the_wall_clock() {
        let before = Instant::now();
        let read = Clock::real().now();
        assert!(before <= read && read <= Instant::now());
    }
}
