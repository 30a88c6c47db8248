//! What a run prints: one line per metric, then the result object.

use crate::stats::Percentile;
use crate::workload::Workload;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample size and, when the sample could not support the requested
    /// percentile, the one that was read instead.
    pub sample: Option<String>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            sample: None,
        }
    }

    pub fn with_sample(mut self, read: Percentile, requested: f64) -> Metric {
        self.sample = Some(if read.lowered(requested) {
            format!(
                "n={} too few for p{:.0}: read p{:.1}",
                read.n,
                requested * 100.0,
                read.quantile * 100.0
            )
        } else {
            format!("n={}", read.n)
        });
        self
    }
}

pub struct Report {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    /// Violated run-level invariants; any makes the run incorrect.
    pub gates: Vec<String>,
    pub errors: Vec<String>,
    pub notes: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Printed for the reader, not part of the result object.
    pub info: Vec<Metric>,
}

impl Report {
    pub fn new(workload: Workload) -> Report {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            gates: Vec::new(),
            errors: Vec::new(),
            notes: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            info: Vec::new(),
        }
    }

    pub fn gate(&mut self, what: String) {
        self.gates.push(what);
    }

    pub fn note(&mut self, what: String) {
        self.notes.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.is_empty() && self.attempted > 0
    }

    /// The metrics of the result object: end-to-end for a measured run,
    /// per-layer for a traced one.
    pub fn metrics(&self) -> &[Metric] {
        if self.per_layer.is_empty() {
            &self.end_to_end
        } else {
            &self.per_layer
        }
    }

    /// `workload metric value unit` lines, then notes and violations.
    pub fn lines(&self) -> Vec<String> {
        let name = self.workload.name();
        let mut lines = Vec::new();
        for metric in self.metrics().iter().chain(&self.info) {
            let sample = metric
                .sample
                .as_ref()
                .map_or(String::new(), |s| format!("  ({s})"));
            lines.push(format!(
                "{name} {} {} {}{sample}",
                metric.name, metric.value, metric.unit
            ));
        }
        for note in &self.notes {
            lines.push(format!("{name} note: {note}"));
        }
        for error in &self.errors {
            lines.push(format!("{name} failed: {error}"));
        }
        for gate in &self.gates {
            lines.push(format!("{name} violated: {gate}"));
        }
        lines
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics()
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed + self.gates.len() as u64,
            metrics.join(", ")
        )
    }
}

/// Every digit as measured; JSON has no NaN or infinity.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut report = Report::new(Workload::HotRepeat);
        report.attempted = 10;
        report.end_to_end = vec![Metric::new("qps", 1234.5678, "req/s")];
        let parsed = serde_json::from_str(&report.result_line()).expect("valid JSON");
        let serde::Json::Obj(fields) = &parsed else {
            panic!("an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            parsed.get("correct").and_then(serde::Json::as_bool),
            Some(true)
        );
        let qps = parsed
            .get("metrics")
            .and_then(|m| m.get("qps"))
            .expect("qps");
        assert_eq!(
            qps.get("value").and_then(serde::Json::as_f64),
            Some(1234.5678)
        );
        assert_eq!(qps.get("unit").and_then(serde::Json::as_str), Some("req/s"));
    }

    #[test]
    fn a_violated_gate_makes_the_run_incorrect() {
        let mut report = Report::new(Workload::HotRepeat);
        report.attempted = 10;
        assert!(report.correct());
        report.gate("journal short".to_string());
        assert!(!report.correct());
        assert!(report.result_line().contains("\"failed\": 1"));
    }
}
