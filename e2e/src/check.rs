//! The correctness gate: checks that run after timing, on the responses
//! the load kept.

use std::collections::HashMap;

use serde::Json;
use sqlengine::Database;

use crate::load::Kept;
use crate::workload::Plan;

/// The type class of one payload field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Str,
    Bool,
    Number,
    Array,
    Other,
}

fn kind(value: &Json) -> Kind {
    match value {
        Json::Str(_) => Kind::Str,
        Json::Bool(_) => Kind::Bool,
        Json::Int(_) | Json::Num(_) => Kind::Number,
        Json::Arr(_) => Kind::Array,
        _ => Kind::Other,
    }
}

/// One served payload, from a buffered body or a stream's `result` event.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    pub sql: String,
    pub cached: bool,
    pub latency_ms: f64,
    pub queue_wait_ms: f64,
    pub prompt_tokens: f64,
    pub degradations: Vec<String>,
    /// Field names and type classes in wire order.
    pub shape: Vec<(String, Kind)>,
}

/// Parse a `{"v":1,"data":…}` envelope (buffered) or a
/// `{"v":1,"event":"result","data":…}` line (streamed) into its payload.
pub fn parse_served(body: &[u8], streamed: bool) -> Result<Served, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let json = serde_json::from_str(text).map_err(|e| format!("body is not JSON: {e}"))?;
    if json.get("v").and_then(Json::as_i64) != Some(1) {
        return Err("envelope version is not 1".to_string());
    }
    if streamed && json.get("event").and_then(Json::as_str) != Some("result") {
        return Err(format!(
            "terminal stream event is {:?}, not result",
            json.get("event")
        ));
    }
    let Some(Json::Obj(fields)) = json.get("data") else {
        return Err("envelope carries no data object".to_string());
    };
    let data = Json::Obj(fields.clone());
    let text_of = |name: &str| {
        data.get(name)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("data.{name} is not a string"))
    };
    let number = |name: &str| {
        data.get(name)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("data.{name} is not a number"))
    };
    let sql = text_of("sql")?.to_string();
    if sql.trim().is_empty() {
        return Err("data.sql is empty".to_string());
    }
    let Some(Json::Arr(notes)) = data.get("degradations") else {
        return Err("data.degradations is not an array".to_string());
    };
    Ok(Served {
        sql,
        cached: data
            .get("cached")
            .and_then(Json::as_bool)
            .ok_or_else(|| "data.cached is not a bool".to_string())?,
        latency_ms: number("latency_ms")?,
        queue_wait_ms: number("queue_wait_ms")?,
        prompt_tokens: number("prompt_tokens")?,
        degradations: notes
            .iter()
            .filter_map(Json::as_str)
            .map(str::to_string)
            .collect(),
        shape: fields
            .iter()
            .map(|(name, value)| (name.clone(), kind(value)))
            .collect(),
    })
}

/// What the kept responses add up to.
#[derive(Debug, Default)]
pub struct Verdict {
    pub checked: u64,
    /// Responses that failed a check here (the load counted its own).
    pub failed: u64,
    pub errors: Vec<String>,
    pub ex_matches: u64,
    pub cached: u64,
    pub degraded: u64,
    pub served: Vec<(u32, Served)>,
}

impl Verdict {
    pub fn ex_share(&self) -> f64 {
        if self.checked == 0 {
            0.0
        } else {
            self.ex_matches as f64 / self.checked as f64
        }
    }

    fn fail(&mut self, index: u32, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(format!("request {index}: {what}"));
        }
    }
}

/// Check every kept response: envelope and payload shape (streamed
/// payloads field-for-field like buffered ones), no `storage sync failed`
/// degradation, and execution match against gold on `dbs` — the fixture
/// databases, or for `live_catalog` the store as the run left it.
pub fn verify(plan: &Plan, kept: &[Kept], dbs: &HashMap<String, Database>) -> Verdict {
    let mut verdict = Verdict::default();
    let mut buffered_shape: Option<Vec<(String, Kind)>> = None;
    for k in kept {
        let question = &plan.questions[k.slot as usize];
        verdict.checked += 1;
        let served = match parse_served(&k.body, k.streamed) {
            Ok(served) => served,
            Err(what) => {
                verdict.fail(k.index, what);
                continue;
            }
        };
        match (&buffered_shape, k.streamed) {
            (None, false) => buffered_shape = Some(served.shape.clone()),
            (Some(shape), _) if *shape != served.shape => {
                verdict.fail(
                    k.index,
                    format!("payload shape {:?} differs from {shape:?}", served.shape),
                );
            }
            _ => {}
        }
        if served
            .degradations
            .iter()
            .any(|d| d.contains("storage sync failed"))
        {
            verdict.fail(k.index, "storage sync failed".to_string());
        }
        verdict.cached += u64::from(served.cached);
        verdict.degraded += u64::from(!served.degradations.is_empty());
        if let Some(db) = dbs.get(&question.db_id) {
            let matched = codes_eval::execution_match(db, &served.sql, &question.gold_sql);
            verdict.ex_matches += u64::from(matched);
        }
        verdict.served.push((k.index, served));
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUFFERED: &str = r#"{"v":1,"data":{"sql":"SELECT 1","request_id":4,"tenant":"bench","cached":false,"worker":1,"latency_ms":2.5,"queue_wait_ms":0.1,"prompt_tokens":80,"degradations":[]}}"#;

    #[test]
    fn parses_buffered_and_streamed_payloads_to_the_same_shape() {
        let buffered = parse_served(BUFFERED.as_bytes(), false).expect("buffered parses");
        assert_eq!(buffered.sql, "SELECT 1");
        assert!(!buffered.cached);
        assert_eq!(buffered.shape.len(), 9);
        let line = BUFFERED.replace("\"data\"", "\"event\":\"result\",\"data\"");
        let streamed = parse_served(line.as_bytes(), true).expect("streamed parses");
        assert_eq!(streamed.shape, buffered.shape);
    }

    #[test]
    fn rejects_wrong_envelopes() {
        assert!(parse_served(br#"{"v":2,"data":{}}"#, false).is_err());
        assert!(parse_served(br#"{"v":1,"error":{"code":"x"}}"#, false).is_err());
        assert!(parse_served(BUFFERED.replace("SELECT 1", " ").as_bytes(), false).is_err());
        let queued = br#"{"v":1,"event":"queued","data":{}}"#;
        assert!(parse_served(queued, true).is_err());
    }
}
