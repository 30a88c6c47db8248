//! The audit journal: one JSONL record per `/v1/infer` request that
//! passes authentication, written once its outcome is known — success,
//! typed serving failure, or client-gone — and flushed immediately so a
//! crash loses at most the record being written. The file discipline
//! (torn-tail healing, typed corruption) is [`codes_obs::Journal`]'s; this
//! module owns the record's shape.

use std::path::Path;

use codes_obs::{Journal, JournalError};
use serde::Json;

/// One audited request outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    /// Gateway-assigned sequence number (dense, starts at 0 per process).
    pub seq: u64,
    /// Authenticated tenant name.
    pub tenant: String,
    /// Target database.
    pub db_id: String,
    /// HTTP status the outcome mapped to.
    pub status: u16,
    /// Machine-readable outcome code (`"ok"` on success, otherwise the
    /// error code from the §4i mapping, or `"client_gone"` when the
    /// response could not be written back).
    pub code: String,
    /// End-to-end latency in milliseconds (admission to outcome).
    pub latency_ms: f64,
    /// True when the answer came from the result cache.
    pub cached: bool,
}

impl AuditRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seq".to_string(), Json::Int(self.seq as i64)),
            ("tenant".to_string(), Json::Str(self.tenant.clone())),
            ("db_id".to_string(), Json::Str(self.db_id.clone())),
            ("status".to_string(), Json::Int(i64::from(self.status))),
            ("code".to_string(), Json::Str(self.code.clone())),
            ("latency_ms".to_string(), Json::Num(self.latency_ms)),
            ("cached".to_string(), Json::Bool(self.cached)),
        ])
    }

    fn from_json(value: &Json) -> Result<AuditRecord, String> {
        let field = |name: &str| value.get(name).ok_or_else(|| format!("missing '{name}'"));
        let str_field = |name: &str| -> Result<String, String> {
            field(name)?.as_str().map(str::to_string).ok_or_else(|| format!("'{name}' not a string"))
        };
        let int_field = |name: &str| -> Result<i64, String> {
            field(name)?.as_i64().ok_or_else(|| format!("'{name}' not an integer"))
        };
        Ok(AuditRecord {
            seq: int_field("seq")? as u64,
            tenant: str_field("tenant")?,
            db_id: str_field("db_id")?,
            status: int_field("status")? as u16,
            code: str_field("code")?,
            latency_ms: field("latency_ms")?
                .as_f64()
                .ok_or_else(|| "'latency_ms' not a number".to_string())?,
            cached: field("cached")?
                .as_bool()
                .ok_or_else(|| "'cached' not a bool".to_string())?,
        })
    }
}

/// Append-only JSONL journal of request outcomes.
#[derive(Debug)]
pub struct AuditJournal(Journal);

impl AuditJournal {
    /// Open `path` for appending (creating it if absent), heal a torn
    /// final line, and reload every complete record already present.
    pub fn open(path: &Path) -> Result<(AuditJournal, Vec<AuditRecord>), JournalError> {
        let (journal, records) = Journal::open(path, AuditRecord::from_json)?;
        Ok((AuditJournal(journal), records))
    }

    /// Append one record and flush, so a kill immediately after loses
    /// nothing.
    pub fn append(&mut self, record: &AuditRecord) -> Result<(), JournalError> {
        self.0.append(&record.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn record(seq: u64) -> AuditRecord {
        AuditRecord {
            seq,
            tenant: "acme".to_string(),
            db_id: "bank".to_string(),
            status: 200,
            code: "ok".to_string(),
            latency_ms: 12.5,
            cached: false,
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("codes-gateway-journal-tests");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let unique = format!(
            "{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        );
        dir.join(unique)
    }

    #[test]
    fn roundtrips_records() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let (mut journal, loaded) = AuditJournal::open(&path).expect("open");
            assert!(loaded.is_empty());
            journal.append(&record(0)).expect("append");
            journal.append(&record(1)).expect("append");
        }
        let (_, loaded) = AuditJournal::open(&path).expect("reopen");
        assert_eq!(loaded, vec![record(0), record(1)]);
        let _ = std::fs::remove_file(&path);
    }
}
