//! Percentiles, span arithmetic and process counters.

use std::time::Instant;

/// A percentile read from a sample, with what the sample could support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// The quantile actually read: the requested one, or the highest one
    /// that still has [`TAIL_SAMPLES`] samples beyond it.
    pub quantile: f64,
    pub n: usize,
}

impl Percentile {
    /// True when the requested quantile had too few samples beyond it and
    /// a lower one was read instead.
    pub fn lowered(&self, requested: f64) -> bool {
        self.quantile < requested
    }
}

/// A percentile is only read with at least this many samples beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending sample. A quantile with fewer
/// than [`TAIL_SAMPLES`] samples beyond it is lowered to the highest one
/// that has them (never below the median); an empty sample reads 0.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> Percentile {
    let n = sorted.len();
    if n == 0 {
        return Percentile {
            value: 0.0,
            quantile: q,
            n,
        };
    }
    let supported = (1.0 - TAIL_SAMPLES as f64 / n as f64).max(0.5);
    let quantile = q.min(supported);
    let rank = ((quantile * n as f64).ceil() as usize).clamp(1, n);
    Percentile {
        value: sorted[rank - 1].into(),
        quantile,
        n,
    }
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The middle value, or the mean of the two middle values.
pub fn median(values: Vec<f64>) -> f64 {
    let values = sorted(values);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One timed call into a layer. `trace` is the request's index in the
/// workload sequence; `parent` is the id of the span one level out.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub trace: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn to_json_line(&self) -> String {
        let parent = self.parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            "{{\"trace\":{},\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            self.trace, self.id, parent, self.layer, self.name, self.start_ns, self.end_ns
        )
    }
}

/// Spans kept in memory for the whole run and written out at exit.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record one call; returns the span id. Ids are dense in record order.
    pub fn record(
        &mut self,
        trace: u32,
        parent: Option<u32>,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            trace,
            id,
            parent,
            layer,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span of `layer`/`name`, in record order.
    pub fn durations_ms(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            writeln!(out, "{}", span.to_json_line())?;
        }
        out.flush()
    }
}

/// Self times in ms of every span of `layer`/`name`: its duration minus
/// the summed durations of the spans naming it as parent. Signed: parent
/// and child come from separate replays of the same request, so a child
/// can read longer than its parent by noise, and clamping each pair would
/// bias the median of a thin layer upward.
pub fn self_times_ms(spans: &[Span], layer: &str, name: &str) -> Vec<f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent as usize] += span.duration_ns();
        }
    }
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| (s.duration_ns() as f64 - child_ns[s.id as usize] as f64) / 1e6)
        .collect()
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_hand_built_sample() {
        let sample: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.50).value, 100.0);
        assert_eq!(percentile(&sample, 0.95).value, 190.0);
        assert!(!percentile(&sample, 0.95).lowered(0.95));
        // p99 of 200 samples has two beyond it: lowered to the p95.
        let p99 = percentile(&sample, 0.99);
        assert!(p99.lowered(0.99));
        assert_eq!(p99.value, 190.0);
        assert_eq!(p99.n, 200);
    }

    #[test]
    fn small_and_empty_samples_read_the_median_or_zero() {
        assert_eq!(percentile::<f64>(&[], 0.95).value, 0.0);
        let five = [1.0, 2.0, 3.0, 4.0, 5.0];
        let p = percentile(&five, 0.95);
        assert_eq!((p.value, p.quantile), (3.0, 0.5));
        assert_eq!(median(vec![9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(vec![9.0, 1.0, 5.0, 3.0]), 4.0);
        assert_eq!(median(Vec::new()), 0.0);
    }

    #[test]
    fn self_time_is_span_minus_children_paired_by_request() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch);
        // Request 0: gateway 100, router 70, serve 40.
        let g0 = log.record(0, None, "gateway", "infer", 0, 100_000_000);
        let r0 = log.record(0, Some(g0), "router", "submit", 0, 70_000_000);
        log.record(0, Some(r0), "serve", "submit", 0, 40_000_000);
        // Request 1: the child's replay read longer than its parent's.
        let g1 = log.record(1, None, "gateway", "infer", 0, 10_000_000);
        log.record(1, Some(g1), "router", "submit", 0, 12_000_000);
        assert_eq!(
            self_times_ms(log.spans(), "gateway", "infer"),
            vec![30.0, -2.0]
        );
        assert_eq!(
            self_times_ms(log.spans(), "router", "submit"),
            vec![30.0, 12.0]
        );
        assert_eq!(self_times_ms(log.spans(), "serve", "submit"), vec![40.0]);
        assert_eq!(log.durations_ms("gateway", "infer"), vec![100.0, 10.0]);
    }

    #[test]
    fn span_lines_are_json_objects_with_the_seven_fields() {
        let span = Span {
            trace: 3,
            id: 7,
            parent: None,
            layer: "core",
            name: "infer",
            start_ns: 5,
            end_ns: 9,
        };
        let parsed = serde_json::from_str(&span.to_json_line()).expect("valid JSON");
        for key in [
            "trace", "id", "parent", "layer", "name", "start_ns", "end_ns",
        ] {
            assert!(parsed.get(key).is_some(), "missing {key}");
        }
        assert!(parsed.get("parent").is_some_and(serde::Json::is_null));
    }

    #[test]
    fn process_counters_read_something() {
        assert!(peak_rss_mib() > 0.0);
    }
}
