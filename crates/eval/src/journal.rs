//! Crash-resumable evaluation journal.
//!
//! [`crate::runner::evaluate_resumable`] writes one JSON line per finished
//! sample (flushed immediately, so a killed process loses at most the line
//! being written). On restart it reloads the journal, verifies each entry
//! still matches the sample at that index via a content fingerprint, and
//! re-evaluates only what is missing — an interrupted run resumes where it
//! died and produces the same report an uninterrupted run would have.
//!
//! Only deterministic verdict fields round-trip byte-exactly (EX/TS/VES/HE
//! and the texts); wall-clock latency is journaled too but naturally varies
//! between the run that produced it and a hypothetical uninterrupted one.

use std::fmt;
use std::path::Path;

use codes_datasets::{Hardness, Sample};
use codes_obs::{JournalError, StageTimings};
use serde::{Json, Serialize};

use crate::runner::SampleResult;

/// Typed failure of the resumable-evaluation machinery. The runner never
/// panics on a bad journal — a corrupt or mismatched file is a caller
/// decision (delete and restart, or point at the right file), not a crash.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The journal file could not be read, healed or appended to, or holds
    /// a newline-terminated line that is not an entry. (A newline-less
    /// final line — the signature of a mid-write kill — is tolerated and
    /// re-evaluated, not reported.)
    Journal(JournalError),
    /// A journal entry whose fingerprint does not match the sample at its
    /// index — the journal belongs to a different sample set or ordering.
    JournalMismatch {
        /// Sample index of the conflicting entry.
        index: usize,
        /// Human-readable explanation.
        detail: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Journal(e) => e.fmt(f),
            EvalError::JournalMismatch { index, detail } => {
                write!(f, "journal does not match sample {index}: {detail}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<JournalError> for EvalError {
    fn from(e: JournalError) -> EvalError {
        EvalError::Journal(e)
    }
}

/// Content fingerprint binding a journal entry to its sample (FNV-1a over
/// database id, question and gold SQL). Catches resuming against a
/// different sample set, ordering, or regenerated benchmark.
pub fn sample_fingerprint(sample: &Sample) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for part in [sample.db_id.as_str(), "\u{1f}", &sample.question, "\u{1f}", &sample.sql] {
        for byte in part.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// One reloaded journal entry.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Position of the sample in the evaluated slice.
    pub index: usize,
    /// [`sample_fingerprint`] recorded at write time.
    pub fingerprint: u64,
    /// The journaled verdicts.
    pub result: SampleResult,
}

/// Append-only JSONL journal of per-sample evaluation results (one
/// [`codes_obs::Journal`] line per entry).
#[derive(Debug)]
pub struct Journal(codes_obs::Journal);

impl Journal {
    /// Open `path` for appending (creating it if absent), heal a torn
    /// final line, and reload every complete entry already present.
    pub fn open(path: &Path) -> Result<(Journal, Vec<JournalEntry>), EvalError> {
        let (journal, entries) = codes_obs::Journal::open(path, parse_entry)?;
        Ok((Journal(journal), entries))
    }

    /// Append one finished sample and flush, so a kill immediately after
    /// loses nothing.
    pub fn append(
        &mut self,
        index: usize,
        fingerprint: u64,
        result: &SampleResult,
    ) -> Result<(), EvalError> {
        Ok(self.0.append(&entry_to_json(index, fingerprint, result))?)
    }
}

fn entry_to_json(index: usize, fingerprint: u64, r: &SampleResult) -> Json {
    Json::Obj(vec![
        ("index".into(), Json::Int(index as i64)),
        ("fp".into(), Json::Str(format!("{fingerprint:016x}"))),
        ("question".into(), Json::Str(r.question.clone())),
        ("gold".into(), Json::Str(r.gold.clone())),
        ("predicted".into(), Json::Str(r.predicted.clone())),
        ("hardness".into(), Json::Str(r.hardness.label().to_string())),
        ("ex".into(), Json::Bool(r.ex)),
        ("ts".into(), Json::Bool(r.ts)),
        ("ves".into(), Json::Num(r.ves)),
        ("he".into(), Json::Bool(r.he)),
        ("latency_seconds".into(), Json::Num(r.latency_seconds)),
        ("stages".into(), r.stages.to_json()),
        ("prompt_tokens".into(), Json::Int(r.prompt_tokens as i64)),
        (
            "failure".into(),
            match &r.failure {
                Some(msg) => Json::Str(msg.clone()),
                None => Json::Null,
            },
        ),
    ])
}

fn parse_entry(value: &Json) -> Result<JournalEntry, String> {
    let field = |key: &str| value.get(key).ok_or_else(|| format!("missing field `{key}`"));
    let str_field = |key: &str| {
        field(key)?.as_str().map(str::to_string).ok_or_else(|| format!("`{key}` not a string"))
    };
    let bool_field =
        |key: &str| field(key)?.as_bool().ok_or_else(|| format!("`{key}` not a bool"));
    let num_field = |key: &str| field(key)?.as_f64().ok_or_else(|| format!("`{key}` not a number"));

    let index = field("index")?
        .as_i64()
        .and_then(|i| usize::try_from(i).ok())
        .ok_or("`index` not a non-negative integer")?;
    let fp_hex = str_field("fp")?;
    let fingerprint =
        u64::from_str_radix(&fp_hex, 16).map_err(|_| format!("bad fingerprint `{fp_hex}`"))?;
    let hardness_label = str_field("hardness")?;
    let hardness = Hardness::from_label(&hardness_label)
        .ok_or_else(|| format!("unknown hardness `{hardness_label}`"))?;
    let failure = match field("failure")? {
        Json::Null => None,
        other => {
            Some(other.as_str().map(str::to_string).ok_or("`failure` not null or a string")?)
        }
    };
    Ok(JournalEntry {
        index,
        fingerprint,
        result: SampleResult {
            question: str_field("question")?,
            gold: str_field("gold")?,
            predicted: str_field("predicted")?,
            hardness,
            ex: bool_field("ex")?,
            ts: bool_field("ts")?,
            ves: num_field("ves")?,
            he: bool_field("he")?,
            latency_seconds: num_field("latency_seconds")?,
            // Tolerant: journals written before stage timings existed have
            // no `stages` object and read as all-zero.
            stages: value.get("stages").map(StageTimings::from_json).unwrap_or_default(),
            prompt_tokens: field("prompt_tokens")?
                .as_i64()
                .and_then(|i| usize::try_from(i).ok())
                .ok_or("`prompt_tokens` not a non-negative integer")?,
            failure,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn result(ix: usize) -> SampleResult {
        SampleResult {
            question: format!("q{ix} with \"quotes\" and\nnewline"),
            gold: format!("SELECT {ix}"),
            predicted: format!("SELECT {ix} -- pred"),
            hardness: Hardness::Medium,
            ex: ix % 2 == 0,
            ts: false,
            ves: 0.1 * ix as f64 + 0.30000000000000004,
            he: true,
            latency_seconds: 0.001 * ix as f64,
            stages: {
                let mut stages = StageTimings::zero();
                stages.generation = 0.002 * ix as f64;
                stages.schema_filter = 0.0001;
                stages
            },
            prompt_tokens: 40 + ix,
            failure: if ix == 3 { Some("caught panic: boom".into()) } else { None },
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("codes-eval-journal-tests");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn round_trips_entries_exactly() {
        let path = tmp("roundtrip");
        let (mut journal, loaded) = Journal::open(&path).expect("open fresh");
        assert!(loaded.is_empty());
        for ix in 0..5 {
            journal.append(ix, 0xABCD + ix as u64, &result(ix)).expect("append");
        }
        drop(journal);
        let (_journal, loaded) = Journal::open(&path).expect("reopen");
        assert_eq!(loaded.len(), 5);
        for (ix, entry) in loaded.iter().enumerate() {
            let expect = result(ix);
            assert_eq!(entry.index, ix);
            assert_eq!(entry.fingerprint, 0xABCD + ix as u64);
            assert_eq!(entry.result.question, expect.question);
            assert_eq!(entry.result.predicted, expect.predicted);
            assert_eq!(entry.result.hardness, expect.hardness);
            assert_eq!(entry.result.ex, expect.ex);
            // Bit-exact float round-trip is what makes resumed reports
            // byte-identical.
            assert_eq!(entry.result.ves.to_bits(), expect.ves.to_bits());
            assert_eq!(entry.result.stages, expect.stages);
            assert_eq!(entry.result.failure, expect.failure);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn entries_without_stage_timings_load_as_zero() {
        // A journal written before stage timings existed: no such key.
        let path = tmp("legacy");
        let mut json = match entry_to_json(0, 7, &result(0)) {
            Json::Obj(fields) => fields,
            other => panic!("expected object, got {other:?}"),
        };
        json.retain(|(key, _)| key != "stages");
        std::fs::write(&path, format!("{}\n", serde_json::to_string(&Json::Obj(json)).unwrap()))
            .expect("write legacy journal");
        let (_journal, loaded) = Journal::open(&path).expect("legacy journal loads");
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].result.stages, StageTimings::zero());
        let _ = std::fs::remove_file(&path);
    }

    /// `result(0)` and `result(3)` as the commit before the stage cache
    /// tiers were deleted journaled them, byte for byte.
    const LEGACY_LINES: &str = concat!(
        r#"{"index":0,"fp":"000000000000abcd","question":"q0 with \"quotes\" and\nnewline","gold":"SELECT 0","predicted":"SELECT 0 -- pred","hardness":"medium","ex":true,"ts":false,"ves":0.30000000000000004,"he":true,"latency_seconds":0.0,"stages":{"schema_filter":0.0001,"value_retrieval":0.0,"metadata":0.0,"prompt_build":0.0,"generation":0.0,"execution_selection":0.0},"prompt_tokens":40,"cache_hits":{"schema_filter":true,"value_retrieval":true},"failure":null}"#,
        "\n",
        r#"{"index":3,"fp":"000000000000abd0","question":"q3 with \"quotes\" and\nnewline","gold":"SELECT 3","predicted":"SELECT 3 -- pred","hardness":"medium","ex":false,"ts":false,"ves":0.6000000000000001,"he":true,"latency_seconds":0.003,"stages":{"schema_filter":0.0001,"value_retrieval":0.0,"metadata":0.0,"prompt_build":0.0,"generation":0.006,"execution_selection":0.0},"prompt_tokens":43,"cache_hits":{"schema_filter":false,"value_retrieval":true},"failure":"caught panic: boom"}"#,
        "\n",
    );

    #[test]
    fn entries_with_legacy_stage_cache_hits_still_load() {
        let path = tmp("legacy-hits");
        std::fs::write(&path, LEGACY_LINES).expect("write legacy journal");
        let (_journal, loaded) = Journal::open(&path).expect("legacy journal loads");
        assert_eq!(loaded.len(), 2);
        for (entry, ix) in loaded.iter().zip([0usize, 3]) {
            let expect = result(ix);
            assert_eq!(entry.index, ix);
            assert_eq!(entry.fingerprint, 0xABCD + ix as u64);
            assert_eq!(entry.result.predicted, expect.predicted);
            assert_eq!(entry.result.ex, expect.ex);
            assert_eq!(entry.result.ves.to_bits(), expect.ves.to_bits());
            assert_eq!(entry.result.stages, expect.stages);
            assert_eq!(entry.result.prompt_tokens, expect.prompt_tokens);
            assert_eq!(entry.result.failure, expect.failure);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_distinguishes_samples() {
        let mk = |db: &str, q: &str, sql: &str| Sample {
            db_id: db.into(),
            question: q.into(),
            question_parts: Vec::new(),
            sql: sql.into(),
            template_id: 0,
            hardness: Hardness::Easy,
            used_tables: Vec::new(),
            used_columns: Vec::new(),
            value_mentions: Vec::new(),
            external_knowledge: None,
        };
        let a = mk("db1", "how many heads", "SELECT count(*) FROM head");
        assert_eq!(sample_fingerprint(&a), sample_fingerprint(&a.clone()));
        assert_ne!(
            sample_fingerprint(&a),
            sample_fingerprint(&mk("db2", "how many heads", "SELECT count(*) FROM head"))
        );
        assert_ne!(
            sample_fingerprint(&a),
            sample_fingerprint(&mk("db1", "how many heads", "SELECT count(*) FROM heads"))
        );
    }
}
