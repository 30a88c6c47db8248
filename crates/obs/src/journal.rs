//! Append-only JSONL journal that survives a kill mid-write: the one
//! implementation behind the evaluation harness's resumable journal
//! (`codes-eval`) and the gateway's audit journal. Each owner keeps only
//! its record's JSON shape.
//!
//! [`Journal::append`] writes a record and its `\n` in one `write_all`, so
//! on open a file that does **not** end in a newline was killed mid-write:
//! its final partial line is dropped and truncated away even if it parses
//! (kept, the next append would extend it into garbage), and appends
//! resume on a clean boundary. A newline-terminated line was fully
//! written, so one that fails to parse is real corruption — a typed
//! [`JournalError::Corrupt`] wherever it sits, the last line included.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::Json;

/// Typed failure of a [`Journal`]. A bad journal is the caller's decision
/// (delete it, or point at the right file), never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// Filesystem failure touching the journal.
    Io {
        /// The journal path involved.
        path: PathBuf,
        /// Operating-system error text.
        message: String,
    },
    /// A newline-terminated line that is not a valid record.
    Corrupt {
        /// The journal path involved.
        path: PathBuf,
        /// 1-based line number of the offending record.
        line: usize,
        /// What failed to parse.
        message: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, message } => {
                write!(f, "journal io error at {}: {message}", path.display())
            }
            JournalError::Corrupt { path, line, message } => {
                write!(f, "corrupt journal {} line {line}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// An open journal, positioned for appending.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Open `path` for appending (creating it if absent), heal a torn final
    /// line, and return every complete record already present, each read
    /// by `parse`.
    pub fn open<R>(
        path: &Path,
        mut parse: impl FnMut(&Json) -> Result<R, String>,
    ) -> Result<(Journal, Vec<R>), JournalError> {
        let io = |e: std::io::Error| JournalError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        };
        let mut records = Vec::new();
        if path.exists() {
            let content = std::fs::read_to_string(path).map_err(io)?;
            // Everything after the last newline is a torn record.
            let committed = content.rfind('\n').map_or(0, |i| i + 1);
            for (i, line) in content[..committed].split_terminator('\n').enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let record = serde_json::from_str(line)
                    .map_err(|e| e.to_string())
                    .and_then(|json| parse(&json))
                    .map_err(|message| JournalError::Corrupt {
                        path: path.to_path_buf(),
                        line: i + 1,
                        message,
                    })?;
                records.push(record);
            }
            if committed < content.len() {
                // Heal in place: cut the torn record off so the next append
                // starts a fresh line instead of extending it.
                let file = OpenOptions::new().write(true).open(path).map_err(io)?;
                file.set_len(committed as u64).map_err(io)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path).map_err(io)?;
        Ok((Journal { path: path.to_path_buf(), file }, records))
    }

    /// Append one record and flush, so a kill immediately after loses
    /// nothing and a kill during it tears only this record.
    pub fn append(&mut self, record: &Json) -> Result<(), JournalError> {
        let io = |message: String| JournalError::Io { path: self.path.clone(), message };
        let mut line = serde_json::to_string(record).map_err(|e| io(e.to_string()))?;
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| io(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(n: i64) -> Json {
        Json::Obj(vec![("n".to_string(), Json::Int(n))])
    }

    fn parse(json: &Json) -> Result<i64, String> {
        json.get("n").and_then(Json::as_i64).ok_or_else(|| "missing 'n'".to_string())
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("codes-obs-journal-tests");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// A journal holding records `0..n`, closed.
    fn committed(name: &str, n: i64) -> PathBuf {
        let path = tmp(name);
        let (mut journal, loaded) = Journal::open(&path, parse).expect("open fresh");
        assert!(loaded.is_empty());
        for i in 0..n {
            journal.append(&record(i)).expect("append");
        }
        path
    }

    fn tear(path: &Path, bytes: &[u8]) {
        let mut file = OpenOptions::new().append(true).open(path).expect("reopen raw");
        file.write_all(bytes).expect("tear");
    }

    fn corrupt_line(path: &Path) -> usize {
        match Journal::open(path, parse) {
            Err(JournalError::Corrupt { line, .. }) => line,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn torn_final_line_is_dropped_midfile_corruption_is_an_error() {
        let path = committed("torn", 2);
        tear(&path, b"{\"n\":2,\"tr");
        let (_journal, loaded) = Journal::open(&path, parse).expect("open with torn tail");
        assert_eq!(loaded, vec![0, 1], "torn tail line must be dropped");

        // Garbage in the middle means the file is not a journal.
        std::fs::write(&path, "not json at all\n{\"n\":0}\n").expect("overwrite");
        assert_eq!(corrupt_line(&path), 1);
        let _ = std::fs::remove_file(&path);
    }

    /// The adversarial torn write: the payload landed, the newline did
    /// not, so the tail parses. It is uncommitted all the same.
    #[test]
    fn torn_line_that_parses_as_valid_json_is_still_dropped_and_healed() {
        let path = committed("torn-valid-json", 1);
        let before = std::fs::read_to_string(&path).expect("read");
        tear(&path, serde_json::to_string(&record(1)).expect("render").as_bytes());
        let (_journal, loaded) = Journal::open(&path, parse).expect("open with valid-JSON tail");
        assert_eq!(loaded, vec![0], "a newline-less tail is dropped even when it parses");
        assert_eq!(
            std::fs::read_to_string(&path).expect("read healed"),
            before,
            "the torn tail is truncated away, not left for the next append to extend"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_heals_even_when_it_parses() {
        let path = committed("torn-append", 1);
        tear(&path, serde_json::to_string(&record(1)).expect("render").as_bytes());
        let (mut journal, _) = Journal::open(&path, parse).expect("heal");
        journal.append(&record(2)).expect("append after heal");
        drop(journal);
        let (_journal, loaded) = Journal::open(&path, parse).expect("reopen");
        assert_eq!(loaded, vec![0, 2], "the healed journal appends on a line boundary");
        let _ = std::fs::remove_file(&path);
    }

    /// A garbage line that IS newline-terminated was fully written — it
    /// cannot be a torn write, so it is corruption even in final position.
    #[test]
    fn newline_terminated_garbage_final_line_is_corruption_not_a_torn_write() {
        let path = committed("terminated-garbage", 1);
        tear(&path, b"definitely not json\n");
        assert_eq!(corrupt_line(&path), 2);
        let _ = std::fs::remove_file(&path);
    }

    /// Corruption is reported, never repaired: a refused open leaves the
    /// file byte for byte as it found it. A parsing line without the
    /// record's fields is corrupt too.
    #[test]
    fn newline_terminated_garbage_is_corrupt() {
        let path = tmp("corrupt");
        let content = "{\"n\":0}\n{\"m\":1}\n{\"n\":2}";
        std::fs::write(&path, content).expect("write");
        assert_eq!(corrupt_line(&path), 2);
        assert_eq!(std::fs::read_to_string(&path).expect("read"), content);
        let _ = std::fs::remove_file(&path);
    }
}
