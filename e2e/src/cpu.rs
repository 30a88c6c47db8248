//! The process's CPU clock, and the spinners that keep the cores awake
//! while a workload runs.
//!
//! A virtual core that goes idle halts, and the host gives the physical
//! core to someone else; every wake-up then pays the hypervisor's wake-up
//! path and starts on cold caches, at a price that depends on what the
//! host's other tenants are doing. The workloads here sleep several times
//! per request (the batch linger, `live_catalog`'s wire), so that price
//! was a fifth of `live_catalog`'s CPU time per request in the host's busy
//! minutes and nothing in its calm ones. [`KeepAwake`] runs one
//! `SCHED_IDLE` thread per core that never sleeps: the kernel runs it only
//! when nothing else wants the core and preempts it the moment something
//! does, which is what booting with `idle=poll` would do. What the
//! spinners burn is taken out of [`seconds`] again.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

#[repr(C)]
struct Timespec {
    seconds: i64,
    nanoseconds: i64,
}

#[repr(C)]
struct SchedParam {
    priority: i32,
}

extern "C" {
    fn clock_gettime(clock: i32, at: *mut Timespec) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID`, `CLOCK_THREAD_CPUTIME_ID` and `SCHED_IDLE`
/// of Linux.
const PROCESS_CPU_CLOCK: i32 = 2;
const THREAD_CPU_CLOCK: i32 = 3;
const SCHED_IDLE: i32 = 5;

/// CPU time (user + system) on `clock` in nanoseconds, from the
/// scheduler's own accounting. `/proc/self/stat` gives the process's in
/// 10 ms ticks: over a 3 s window the two agree within half a percent, but
/// a window's share of a tick is not left to chance.
fn clock_ns(clock: i32) -> u64 {
    let mut at = Timespec {
        seconds: 0,
        nanoseconds: 0,
    };
    // SAFETY: `at` is a valid `struct timespec` of the 64-bit Linux ABI
    // that the call only writes to.
    let rc = unsafe { clock_gettime(clock, &mut at) };
    assert_eq!(rc, 0, "CPU clock {clock} is readable");
    at.seconds as u64 * 1_000_000_000 + at.nanoseconds as u64
}

/// CPU time every spinner of this process has used so far.
static SPUN_NS: AtomicU64 = AtomicU64::new(0);

/// CPU time of the process (every thread, ended ones too) in seconds,
/// without what the [`KeepAwake`] spinners used.
pub fn seconds() -> f64 {
    // The process clock is read first: a spinner that publishes between
    // the two reads then makes the figure smaller by microseconds, not
    // negative over a window.
    let process = clock_ns(PROCESS_CPU_CLOCK);
    process.saturating_sub(SPUN_NS.load(Ordering::Relaxed)) as f64 / 1e9
}

/// Iterations between two looks at the clock and the stop flag: some tens
/// of microseconds, which bounds what a reading of [`seconds`] misses.
const SPIN_BATCH: u32 = 20_000;

/// Runs on a spinner's own thread; `idle_priority` hears whether the
/// kernel granted `SCHED_IDLE`.
fn spin(stop: &AtomicBool, idle_priority: &Sender<bool>) {
    let param = SchedParam { priority: 0 };
    // SAFETY: `param` outlives the call, which reads it; pid 0 is the
    // calling thread.
    let granted = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
    let _ = idle_priority.send(granted);
    if !granted {
        // At normal priority a spinner would take half a core from the
        // program under test: rather let the cores sleep.
        return;
    }
    let mut published = clock_ns(THREAD_CPU_CLOCK);
    while !stop.load(Ordering::Relaxed) {
        // Plain work, not `spin_loop`: a run of PAUSE instructions makes
        // the hypervisor take the core away, which is what this prevents.
        for i in 0..SPIN_BATCH {
            black_box(i);
        }
        let now = clock_ns(THREAD_CPU_CLOCK);
        SPUN_NS.fetch_add(now - published, Ordering::Relaxed);
        published = now;
    }
}

/// One idle-priority spinner per core, from [`KeepAwake::start`] until
/// the value is dropped.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
    spinning: usize,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let stop = Arc::new(AtomicBool::new(false));
        let (idle_priority, granted) = channel();
        let spinners = (0..cores)
            .map(|_| {
                let (stop, idle_priority) = (Arc::clone(&stop), idle_priority.clone());
                std::thread::spawn(move || spin(&stop, &idle_priority))
            })
            .collect();
        // One answer per spinner; a spinner keeps its sender while it runs.
        let spinning = granted
            .iter()
            .take(cores)
            .filter(|granted| *granted)
            .count();
        KeepAwake {
            stop,
            spinners,
            spinning,
        }
    }

    /// How many spinners run; 0 where the kernel refuses `SCHED_IDLE`, and
    /// the figures are then those of cores that sleep.
    pub fn spinning(&self) -> usize {
        self.spinning
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            let _ = spinner.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_clock_counts_work_and_the_spinners_stop() {
        let before = seconds();
        let sum = (0..20_000_000u64).fold(0, |sum, i| sum ^ black_box(i));
        black_box(sum);
        assert!(seconds() > before, "the CPU clock advances under work");

        // Other tests use the process's CPU beside this one, so what the
        // spinners leave in the clock cannot be bounded here; that they
        // publish their time and end when dropped can.
        let spun = SPUN_NS.load(Ordering::Relaxed);
        let awake = KeepAwake::start();
        let spinning = awake.spinning();
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(awake);
        assert!(spinning == 0 || SPUN_NS.load(Ordering::Relaxed) > spun);
    }
}
