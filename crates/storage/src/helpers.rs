//! The threads a [`crate::CatalogService`] lends its harvests.
//!
//! A wave's helpers and a pass's build run on long-lived threads the
//! service owns: spawned on first use, never more than the bound the
//! service sets (its pool's capacity less the caller's own connection),
//! parked on one job queue between jobs, and joined when the service drops.
//! A job is handed out only when a parked or newly spawned thread will take
//! it, so it never queues behind another job; when no thread can be had the
//! caller goes on without one.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;

/// A lent job. It calls its argument, which parks the helper again, once
/// its result is ready and before handing it over: a caller that has its
/// result finds the helper parked.
type Job = Box<dyn FnOnce(&dyn Fn()) + Send>;

/// A job handed to a helper: its result, or its panic, arrives here.
pub(crate) struct Lent<T>(Receiver<std::thread::Result<T>>);

impl<T> Lent<T> {
    /// Wait for the job; a panic inside it resumes on the caller.
    pub(crate) fn join(self) -> T {
        match self.0.recv() {
            Ok(Ok(value)) => value,
            Ok(Err(panic)) => resume_unwind(panic),
            // A helper catches its job's panic and always answers.
            Err(_) => unreachable!("a lent job's helper exited without answering"),
        }
    }
}

struct Threads {
    /// Helpers waiting on the queue that no lent job has claimed yet.
    idle: usize,
    spawned: Vec<JoinHandle<()>>,
}

/// The service's helper threads.
pub(crate) struct Helpers {
    max: usize,
    /// Dropped first on drop: every parked helper then sees the queue close.
    jobs: Option<Sender<Job>>,
    queue: Receiver<Job>,
    threads: Arc<Mutex<Threads>>,
    /// One strong count per live helper thread, plus this one.
    pub(crate) alive: Arc<()>,
}

impl Helpers {
    /// No threads yet; at most `max` ever.
    pub(crate) fn new(max: usize) -> Helpers {
        let (jobs, queue) = unbounded();
        Helpers {
            max,
            jobs: Some(jobs),
            queue,
            threads: Arc::new(Mutex::new(Threads { idle: 0, spawned: Vec::new() })),
            alive: Arc::new(()),
        }
    }

    /// Threads spawned so far; each lives until the service drops.
    pub(crate) fn spawned(&self) -> usize {
        self.threads.lock().spawned.len()
    }

    /// Run `job` on a helper, if one can be claimed ([`Helpers::lend_many`]);
    /// `Err` hands the job back when none can.
    pub(crate) fn lend<T, F>(&self, job: F) -> Result<Lent<T>, F>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        if self.claim(1) == 0 {
            return Err(job);
        }
        Ok(self.send(job))
    }

    /// Run up to `n` jobs made by `job`, each on its own helper: a parked
    /// one, or a new one while fewer than the bound exist. The helpers are
    /// claimed at once, so a wave that wants `n` leaves at least `n` threads
    /// behind (the bound permitting), however soon any of them finishes.
    pub(crate) fn lend_many<T, F>(&self, n: usize, mut job: impl FnMut() -> F) -> Vec<Lent<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        (0..self.claim(n)).map(|_| self.send(job())).collect()
    }

    /// Claim up to `n` helpers for jobs about to be sent: parked ones
    /// first, then new ones while fewer than the bound exist.
    fn claim(&self, n: usize) -> usize {
        let mut threads = self.threads.lock();
        let mut claimed = threads.idle.min(n);
        threads.idle -= claimed;
        while claimed < n && threads.spawned.len() < self.max {
            let (queue, shared, alive) =
                (self.queue.clone(), Arc::clone(&self.threads), Arc::clone(&self.alive));
            let spawned = std::thread::Builder::new()
                .name("storage-helper".to_string())
                .spawn(move || helper(&queue, &shared, alive));
            match spawned {
                Ok(thread) => threads.spawned.push(thread),
                // No thread to be had: the caller goes on with what it has.
                Err(_) => break,
            }
            claimed += 1;
        }
        claimed
    }

    /// Hand `job` to a claimed helper.
    fn send<T, F>(&self, job: F) -> Lent<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (answer, lent) = bounded(1);
        let job: Job = Box::new(move |park: &dyn Fn()| {
            let result = catch_unwind(AssertUnwindSafe(job));
            park();
            // Only a caller that is already unwinding stops listening.
            let _ = answer.send(result);
        });
        if let Some(jobs) = &self.jobs {
            // The queue's receiving end lives as long as `self`.
            let _ = jobs.send(job);
        }
        Lent(lent)
    }
}

/// A helper's life: take a job, run it, park, until the queue closes.
fn helper(queue: &Receiver<Job>, threads: &Mutex<Threads>, _alive: Arc<()>) {
    let park = || threads.lock().idle += 1;
    while let Ok(job) = queue.recv() {
        job(&park);
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        self.jobs = None;
        let spawned = std::mem::take(&mut self.threads.lock().spawned);
        for thread in spawned {
            // A helper catches its jobs' panics, so it only ever returns.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reuse, the bound and the join on drop are held by
    /// `tests/helpers.rs` through a `CatalogService`; a panic is not.
    #[test]
    fn a_panicking_job_resumes_on_the_caller_and_keeps_its_helper() {
        let helpers = Helpers::new(1);
        let lent = helpers.lend(|| panic!("job failed")).ok().expect("a helper");
        let caught = catch_unwind(AssertUnwindSafe(|| lent.join()));
        assert!(caught.is_err(), "the panic reached the caller");
        let again = helpers.lend(|| 7).ok().expect("the helper survived");
        assert_eq!((again.join(), helpers.spawned()), (7, 1));
    }
}
