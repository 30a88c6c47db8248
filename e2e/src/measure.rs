//! The measured run: tracing off, the workload's own connection count,
//! end-to-end metrics only.

use std::collections::HashMap;
use std::io::BufRead;
use std::path::Path;
use std::time::{Duration, Instant};

use sqlengine::Database;

use crate::check::verify;
use crate::load::{drive, Drive, Framing, Outcome, Stop, Window, Wires};
use crate::report::{Metric, Report};
use crate::stack::{set_up, Fixture, Serving, SetupTimes, Stack};
use crate::stats::{median, peak_rss_mib, percentile, Percentile};
use crate::workload::{plan, Sizes, Workload};

/// The databases gold queries run on after the run: the fixture's, or for
/// `live_catalog` the store with every written row in it.
pub fn gold_databases(
    fixture: &Fixture,
    serving: &Serving,
    workload: Workload,
) -> HashMap<String, Database> {
    if workload == Workload::LiveCatalog {
        return serving.admin.store().read().clone();
    }
    fixture
        .served_refs()
        .into_iter()
        .map(|db| (db.name.clone(), db.clone()))
        .collect()
}

/// Set up `repeats` times, shutting every stack but the last down again.
/// Returns the last stack and every set-up's times.
fn set_up_repeatedly(
    workload: Workload,
    journal: &Path,
    probe: bool,
    repeats: usize,
) -> (Stack, Vec<SetupTimes>) {
    let mut times = Vec::with_capacity(repeats);
    let mut stack = set_up(workload, journal, probe);
    times.push(stack.times);
    for _ in 1..repeats {
        stack.edge.shutdown();
        stack = set_up(workload, journal, probe);
        times.push(stack.times);
    }
    (stack, times)
}

/// The measured phase is read as this many windows; throughput and CPU
/// cost are the medians over them, so that a burst of interference from
/// outside the process moves a window and not the run.
const WINDOWS: usize = 20;

/// Lines of the audit journal, read in pieces: `hot_repeat` writes tens of
/// megabytes of it, which must not become the run's peak memory.
fn count_lines(path: &Path) -> u64 {
    let Ok(file) = std::fs::File::open(path) else {
        return 0;
    };
    let mut reader = std::io::BufReader::with_capacity(1 << 16, file);
    let mut lines = 0;
    loop {
        let Ok(piece) = reader.fill_buf() else {
            return lines;
        };
        if piece.is_empty() {
            return lines;
        }
        lines += piece.iter().filter(|b| **b == b'\n').count() as u64;
        let read = piece.len();
        reader.consume(read);
    }
}

/// A window's p95 needs ten samples beyond it, so windows are merged
/// until each holds at least this many requests.
const WINDOW_REQUESTS: usize = 250;

/// What one (merged) window read.
struct WindowRead {
    qps: f64,
    cpu_ms_per_req: f64,
    p50_ms: f64,
    p95_ms: f64,
}

/// Merge the run's [`WINDOWS`] slices into the largest number of equal
/// windows (20, 10, 5 or 4) that leaves [`WINDOW_REQUESTS`] in each, and
/// read each window's throughput, CPU cost and latency percentiles.
fn read_windows(outcome: &Outcome) -> Vec<WindowRead> {
    let count = [20, 10, 5]
        .into_iter()
        .find(|k| outcome.samples.len() / k >= WINDOW_REQUESTS)
        .unwrap_or(4);
    let merged: Vec<&[Window]> = outcome.windows.chunks(WINDOWS / count).collect();
    let mut latencies: Vec<Vec<u32>> = vec![Vec::new(); merged.len()];
    for sample in &outcome.samples {
        // The request in flight when the time was up completes after the
        // last window and belongs to none.
        let window =
            merged.partition_point(|slices| slices[slices.len() - 1].to_ns <= sample.end_ns());
        if let Some(bucket) = latencies.get_mut(window) {
            bucket.push(sample.latency_ns);
        }
    }
    merged
        .iter()
        .zip(latencies)
        .filter(|(_, latencies)| !latencies.is_empty())
        .map(|(slices, mut latencies)| {
            let seconds = (slices[slices.len() - 1].to_ns - slices[0].from_ns) as f64 / 1e9;
            let cpu_s: f64 = slices.iter().map(|w| w.cpu_s).sum();
            latencies.sort_unstable();
            WindowRead {
                qps: latencies.len() as f64 / seconds.max(1e-9),
                cpu_ms_per_req: cpu_s * 1e3 / latencies.len() as f64,
                p50_ms: percentile(&latencies, 0.50).value / 1e6,
                p95_ms: percentile(&latencies, 0.95).value / 1e6,
            }
        })
        .collect()
}

pub fn run(workload: Workload, seed: u64, seconds: f64, sizes: &Sizes, scratch: &Path) -> Report {
    // Inputs first, from the seed alone, before any stack exists.
    let fixture = Fixture::datasets(workload);
    let plan = plan(workload, seed, &fixture.served_refs(), sizes);
    let wires = Wires::encode(&plan);
    drop(fixture);

    let journal = scratch.join("audit.jsonl");
    let (stack, setups) = set_up_repeatedly(workload, &journal, false, sizes.setup_repeats);
    let outcome = drive(&Drive {
        epoch: Instant::now(),
        plan: &plan,
        wires: &wires,
        admin: &stack.serving.admin,
        addr: stack.edge.gateway.local_addr(),
        connections: workload.connections(),
        framing: Framing::Workload,
        warmup: plan.warmup,
        stop: Stop {
            after: Some((Duration::from_secs_f64(seconds), 0)),
            requests: None,
        },
        keep_all: false,
        windows: WINDOWS,
        on_warmed: None,
    });
    let golds = gold_databases(&stack.fixture, &stack.serving, workload);
    let cache = stack.serving.cache.stats();
    let (gateway, _router) = stack.edge.shutdown();
    let verdict = verify(&plan, &outcome.kept, &golds);

    let mut report = Report::new(workload);
    report.note(format!(
        "seed {seed:#x}, request sequence hash {:#018x}",
        plan.sequence_hash()
    ));
    report.attempted = outcome.attempted;
    report.failed = outcome.failed + verdict.failed;
    report.errors.extend(outcome.errors.iter().cloned());
    report.errors.extend(verdict.errors.iter().cloned());

    // Exactly-once accounting across client, gateway and journal.
    let journal_lines = count_lines(&journal);
    for (what, count) in [
        ("gateway infer_admitted", gateway.infer_admitted),
        ("gateway infer_resolved", gateway.infer_resolved),
        ("gateway journal_records", gateway.journal_records),
        ("journal file lines", journal_lines),
    ] {
        if count != outcome.attempted {
            report.gate(format!(
                "{what} is {count}, the client sent {}",
                outcome.attempted
            ));
        }
    }
    // Each write bumps its database's generation twice: the explicit
    // invalidation, then the refresh that the next dispatch's sync finds.
    let writes = outcome.writes.len() as u64;
    if cache.invalidations != 2 * writes {
        report.gate(format!(
            "{} cache generations bumped after {writes} writes, not two each",
            cache.invalidations
        ));
    }
    if outcome.samples.is_empty() {
        report.gate("no request completed in the measured phase".to_string());
    }
    if outcome.exhausted {
        report.note(format!(
            "the pool of {} unique questions ran out before {seconds} s: the measured phase is shorter",
            plan.questions.len()
        ));
    }

    let ok = outcome.samples.len() as f64;
    let mut latencies: Vec<u32> = outcome.samples.iter().map(|s| s.latency_ns).collect();
    latencies.sort_unstable();
    let in_ms = |read: Percentile| Percentile {
        value: read.value / 1e6,
        ..read
    };
    let p50 = in_ms(percentile(&latencies, 0.50));
    let p95 = in_ms(percentile(&latencies, 0.95));
    let p99 = in_ms(percentile(&latencies, 0.99));
    drop(latencies);
    let windows = read_windows(&outcome);
    let over_windows = |read: fn(&WindowRead) -> f64| median(windows.iter().map(read).collect());
    report.end_to_end = vec![
        Metric::new("qps", over_windows(|w| w.qps), "req/s"),
        Metric::new("lat_p50_ms", over_windows(|w| w.p50_ms), "ms"),
        Metric::new("lat_p95_ms", over_windows(|w| w.p95_ms), "ms"),
        Metric::new("cpu_ms_per_req", over_windows(|w| w.cpu_ms_per_req), "ms"),
        Metric::new("ex_share", verdict.ex_share(), "ratio"),
        Metric::new("peak_rss_mb", peak_rss_mib(), "MiB"),
        Metric::new(
            "setup_s",
            median(setups.iter().map(|t| t.total_s).collect()),
            "s",
        ),
    ];
    let window_note = format!(
        "timings are medians over {} windows of {:.2} s, about {:.0} requests each",
        windows.len(),
        seconds / windows.len().max(1) as f64,
        ok / windows.len().max(1) as f64
    );
    report.note(window_note);
    // Not gated (a 0.2 ms figure on hot_repeat moves ±10 % between equal
    // runs), and 0 is not a metric: printed for the reader only.
    report.info = vec![
        Metric::new("whole_run.qps", ok / outcome.wall_s.max(1e-9), "req/s"),
        Metric::new("whole_run.lat_p50_ms", p50.value, "ms").with_sample(p50, 0.50),
        Metric::new("whole_run.lat_p95_ms", p95.value, "ms").with_sample(p95, 0.95),
        Metric::new("whole_run.lat_p99_ms", p99.value, "ms").with_sample(p99, 0.99),
        Metric::new(
            "whole_run.cpu_ms_per_req",
            outcome.cpu_s * 1e3 / ok.max(1.0),
            "ms",
        ),
        Metric::new("client.requests", outcome.attempted as f64, "count"),
        Metric::new("client.measured_requests", ok, "count"),
        Metric::new(
            "client.pool_questions",
            plan.questions.len() as f64,
            "count",
        ),
        Metric::new("client.measured_wall_s", outcome.wall_s, "s"),
        Metric::new(
            "client.fail_share",
            report.failed as f64 / outcome.attempted.max(1) as f64,
            "ratio",
        ),
        Metric::new("gateway.reconnects", outcome.reconnects as f64, "count"),
        Metric::new("cache.t3_hits", cache.full.hits as f64, "count"),
        Metric::new(
            "cache.evictions",
            (cache.schema.evictions + cache.values.evictions + cache.full.evictions) as f64,
            "count",
        ),
        Metric::new("storage.writes", outcome.writes.len() as f64, "count"),
        Metric::new("cache.invalidations", cache.invalidations as f64, "count"),
    ];
    report
}
