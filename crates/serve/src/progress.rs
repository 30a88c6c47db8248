//! Lifecycle observation for in-flight inference — the contract the
//! gateway's streaming endpoint rides on.
//!
//! A caller that wants progress visibility passes an `Arc<dyn
//! ProgressSink>` alongside its reply channel (see
//! `Pool::submit_routed_with_progress` and the router's
//! `submit_as_with_progress`). The pool and router then *push* one
//! [`Progress`] notification per lifecycle transition — admission to a
//! queue, dispatch onto a worker, decode completion — so the observer
//! never polls and the hot path never blocks on it.
//!
//! Contract, in order of importance:
//!
//! 1. **Never block, never fail the request.** Sinks are invoked inline
//!    on queue and worker threads; implementations must be cheap and
//!    panic-free (a crossbeam unbounded send, an atomic bump). The pool
//!    ignores whatever the sink does — progress is advisory, the
//!    [`Ticket`](crate::Ticket) stays the single source of truth for the
//!    outcome.
//! 2. **At-least-once, monotonic-by-meaning.** A transition may be
//!    reported more than once (both the router queue and the pool queue
//!    report admission) and transitions
//!    may be *skipped* (a cache hit resolves with no dispatch; a shed
//!    resolves with nothing at all). Observers must dedupe by rank —
//!    [`Progress::rank`] — not count events.
//! 3. **No terminal event.** Completion travels on the reply channel,
//!    exactly once, as it always has. The sink only narrates the road.

#![deny(clippy::unwrap_used)]
#![deny(missing_docs)]

use std::fmt;

/// One observed lifecycle transition of a submitted request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Progress {
    /// The request was admitted to a queue (router tenant queue or pool
    /// worker queue — observers see this at least once, possibly twice).
    Queued,
    /// The request left the queue and is running on a worker.
    Dispatched {
        /// Worker slot index executing the request.
        worker: usize,
        /// Number of requests in the micro-batch it joined (1 = solo).
        batch_size: usize,
    },
    /// The backend finished decoding; the outcome is about to resolve.
    Generated {
        /// Backend wall-clock seconds for this request.
        latency_seconds: f64,
    },
}

impl Progress {
    /// Stable wire name of the transition.
    pub fn name(&self) -> &'static str {
        match self {
            Progress::Queued => "queued",
            Progress::Dispatched { .. } => "dispatched",
            Progress::Generated { .. } => "generated",
        }
    }

    /// Ordering rank for monotonic dedupe: queued < dispatched <
    /// generated. Observers drop any notification whose rank does not
    /// exceed the last one they emitted.
    pub fn rank(&self) -> u8 {
        match self {
            Progress::Queued => 0,
            Progress::Dispatched { .. } => 1,
            Progress::Generated { .. } => 2,
        }
    }
}

impl fmt::Display for Progress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Observer for [`Progress`] notifications. See the module docs for the
/// contract implementations must honor.
pub trait ProgressSink: Send + Sync {
    /// Called inline on pool/router threads at each lifecycle transition.
    fn notify(&self, progress: Progress);
}

/// A `crossbeam` channel sender is the canonical sink: unbounded send
/// never blocks, and a dropped receiver turns `notify` into a no-op.
impl ProgressSink for crossbeam::channel::Sender<Progress> {
    fn notify(&self, progress: Progress) {
        let _ = self.try_send(progress);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_order_the_lifecycle() {
        let queued = Progress::Queued;
        let dispatched = Progress::Dispatched { worker: 3, batch_size: 4 };
        let generated = Progress::Generated { latency_seconds: 0.25 };
        assert!(queued.rank() < dispatched.rank());
        assert!(dispatched.rank() < generated.rank());
        assert_eq!(queued.name(), "queued");
        assert_eq!(dispatched.name(), "dispatched");
        assert_eq!(generated.name(), "generated");
        assert_eq!(format!("{generated}"), "generated");
    }

    #[test]
    fn channel_sink_delivers_and_survives_dropped_receiver() {
        let (tx, rx) = crossbeam::channel::unbounded::<Progress>();
        tx.notify(Progress::Queued);
        assert_eq!(rx.try_recv(), Ok(Progress::Queued));
        drop(rx);
        tx.notify(Progress::Generated { latency_seconds: 0.0 }); // must not panic
    }
}
