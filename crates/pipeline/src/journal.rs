//! Crash-safe, corruption-aware batch checkpoint journal.
//!
//! A batch run appends one line per *completed* net — `<key-hex>
//! <crc-hex> <record JSON>` — and fsyncs after each append, so a killed
//! process loses at most the record being written when the power went
//! out. A resumed run loads the journal, skips every net whose content
//! key is present, and splices the journaled record lines into the final
//! output **verbatim**, so the resumed output is byte-identical to what
//! the interrupted run would have produced: a record holds the answer
//! only, with no run telemetry, so whichever run computed it wrote the
//! same bytes.
//!
//! Keys are content digests (the same `(config, name, net text)` digest
//! the solution cache uses), not file names or indices — so a resumed run
//! recomputes a net whose *content* changed since the checkpoint, and a
//! renamed-but-identical batch directory still hits its checkpoints.
//!
//! **Format v3** (v2's lines over the answer-only record; a v2 journal's
//! records still carry run telemetry, so it is refused, never spliced)
//! hardens every line against the storage fault model:
//!
//! - The first line is the format header [`FORMAT_HEADER`]. A journal
//!   whose first line is anything else is refused outright — a foreign
//!   or old-format file should never be silently half-used.
//! - Every record line carries a CRC-64/XZ over `<key-hex> <record>`,
//!   so a bit flip anywhere in the key *or* the record is detected.
//! - A line that fails its check — torn, bit-rotted, malformed, or not
//!   UTF-8 — is appended verbatim to the `<path>.quarantine` sidecar
//!   and simply omitted from the loaded map: the affected net is
//!   recomputed and the resumed output stays byte-identical to an
//!   uninterrupted run, instead of the loader erroring out mid-file.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use buffopt_integrity::{crc64, quarantine_append, quarantine_path};

use crate::fault::{FaultAction, FaultPlan, Seam};
use crate::Outcome;

/// First line of every v3 journal. Version bumps change this string,
/// so an old-format file is refused with a distinct message instead of
/// a per-line parse error.
pub const FORMAT_HEADER: &str = "#buffopt-journal v3";

/// An append-only, fsync-per-record checkpoint journal.
pub struct BatchJournal {
    file: File,
    fault: Option<Arc<FaultPlan>>,
}

impl BatchJournal {
    /// Opens (creating if absent) the journal at `path` for appending.
    /// A fresh (empty) file gets the format header written and fsynced
    /// immediately, so even a run killed before its first record leaves
    /// a well-formed journal behind.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let mut journal = BatchJournal { file, fault: None };
        if journal.file.metadata()?.len() == 0 {
            journal.file.write_all(FORMAT_HEADER.as_bytes())?;
            journal.file.write_all(b"\n")?;
            journal.file.sync_data()?;
        }
        Ok(journal)
    }

    /// Attaches a fault plan: each append arms [`Seam::Store`], and a
    /// [`FaultAction::CorruptJournalLine`] flips one byte of the line
    /// on its way to disk.
    pub fn with_fault(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Appends one completed record and fsyncs. `record_json` must be the
    /// single-line JSON object emitted for the net (no newline).
    pub fn append(&mut self, key: u64, record_json: &str) -> std::io::Result<()> {
        debug_assert!(!record_json.contains('\n'), "records are single lines");
        let body = format!("{key:016x} {record_json}");
        // The CRC covers the key hex as well as the record, so a flipped
        // key bit cannot splice a valid record under the wrong digest.
        let mut line =
            format!("{key:016x} {:016x} {record_json}\n", crc64(body.as_bytes())).into_bytes();
        if let Some(plan) = &self.fault {
            if let Some(FaultAction::CorruptJournalLine) = plan.fire(Seam::Store) {
                let mid = line.len() / 2;
                line[mid] ^= 0x40;
            }
        }
        // One write call for the whole line: concurrent appenders aren't
        // supported, but a crash can then only truncate the *last* line,
        // which the loader quarantines and recomputes.
        self.file.write_all(&line)?;
        self.file.sync_data()
    }
}

/// The result of loading a (possibly interrupted or corrupted) journal.
#[derive(Debug)]
pub struct LoadedJournal {
    /// Content key → the record line exactly as it was journaled.
    pub records: HashMap<u64, String>,
    /// How many lines failed their integrity check and were appended to
    /// the quarantine sidecar (their nets will be recomputed).
    pub quarantined: usize,
}

impl LoadedJournal {
    fn empty() -> Self {
        LoadedJournal {
            records: HashMap::new(),
            quarantined: 0,
        }
    }
}

/// The quarantine sidecar path for a journal at `path`.
pub fn sidecar_path(path: &Path) -> PathBuf {
    quarantine_path(path)
}

/// Loads the journaled records of a previous (possibly interrupted)
/// run. A missing file is an empty journal. A file whose first line is
/// not the v3 [`FORMAT_HEADER`] is refused with a distinct error (it is
/// foreign, or from an older format — never half-use it). Every record
/// line that fails its CRC or shape check is quarantined to the
/// `.quarantine` sidecar and counted, not fatal.
pub fn load(path: &Path) -> std::io::Result<LoadedJournal> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(LoadedJournal::empty()),
        Err(e) => return Err(e),
    }
    if bytes.is_empty() {
        return Ok(LoadedJournal::empty());
    }
    let (first, rest) = match bytes.iter().position(|&b| b == b'\n') {
        Some(nl) => (&bytes[..nl], &bytes[nl + 1..]),
        // No newline at all: a crash while writing the very first line.
        // If it is a prefix of our header this is our (empty) journal;
        // anything else is foreign content.
        None => (&bytes[..], &[][..]),
    };
    if first != FORMAT_HEADER.as_bytes() {
        if bytes.iter().position(|&b| b == b'\n').is_none()
            && FORMAT_HEADER.as_bytes().starts_with(first)
        {
            return Ok(LoadedJournal::empty());
        }
        let msg = match std::str::from_utf8(first) {
            Ok(line) if line.starts_with("#buffopt-journal ") => format!(
                "unsupported journal format `{}` (this build reads `{FORMAT_HEADER}`)",
                line.trim_end()
            ),
            _ => format!("not a buffopt journal (first line is not `{FORMAT_HEADER}`)"),
        };
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, msg));
    }

    let mut out = LoadedJournal::empty();
    let mut remaining = rest;
    loop {
        let (line, next) = match remaining.iter().position(|&b| b == b'\n') {
            Some(nl) => (&remaining[..nl], &remaining[nl + 1..]),
            // Content after the last newline is a crashed append's
            // partial line: quarantine it and recompute that net.
            None => (remaining, &[][..]),
        };
        let complete = !next.is_empty() || remaining.last() == Some(&b'\n');
        if line.is_empty() {
            if next.is_empty() {
                break;
            }
            remaining = next;
            continue;
        }
        match parse_record_line(line, complete) {
            Some((key, record)) => {
                out.records.insert(key, record.to_string());
            }
            None => {
                quarantine_append(path, line)?;
                out.quarantined += 1;
            }
        }
        if next.is_empty() {
            break;
        }
        remaining = next;
    }
    Ok(out)
}

/// Validates one record line — `<key16> <crc16> {record}` with a CRC
/// over `<key16> {record}` — returning the key and the verbatim record
/// on success. `complete` is false for a torn final line, which can
/// never pass (its CRC covered bytes that were lost).
fn parse_record_line(line: &[u8], complete: bool) -> Option<(u64, &str)> {
    if !complete || line.len() < 35 || line[16] != b' ' || line[33] != b' ' {
        return None;
    }
    let line = std::str::from_utf8(line).ok()?;
    let key_hex = &line[..16];
    let key = u64::from_str_radix(key_hex, 16).ok()?;
    let crc = u64::from_str_radix(&line[17..33], 16).ok()?;
    let record = &line[34..];
    if !record.starts_with('{') || !record.ends_with('}') {
        return None;
    }
    let mut h = buffopt_integrity::Crc64::new();
    h.update(key_hex.as_bytes());
    h.update(b" ");
    h.update(record.as_bytes());
    (h.finish() == crc).then_some((key, record))
}

/// Classifies a journaled record line without a full JSON parse:
/// extracts the `"outcome"` token and the `"buffers"` count (0 when
/// null/absent) so a resumed batch can fold spliced lines into the same
/// summary and exit code a fresh run computes. Returns `None` when the
/// line does not carry a recognizable outcome — the caller should treat
/// that as `failed`.
///
/// The flat scan is safe against outcome-like text inside the record's
/// string fields because our serializer always emits the outcome first,
/// right after the net name, and net names escape their quotes.
pub fn classify(record_json: &str) -> Option<(Outcome, usize)> {
    let rest = record_json.split("\"outcome\":\"").nth(1)?;
    let token = rest.split('"').next()?;
    let outcome = [
        Outcome::Optimized,
        Outcome::Degraded,
        Outcome::Infeasible,
        Outcome::ParseError,
        Outcome::Failed,
    ]
    .into_iter()
    .find(|o| o.as_str() == token)?;
    let buffers = record_json
        .split("\"buffers\":")
        .nth(1)
        .and_then(|r| {
            let digits: String = r.chars().take_while(|c| c.is_ascii_digit()).collect();
            digits.parse().ok()
        })
        .unwrap_or(0);
    Some((outcome, buffers))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "buffopt-journal-{}-{tag}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn clean(p: &Path) {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(sidecar_path(p));
    }

    #[test]
    fn roundtrips_records_by_key() {
        let p = temp_path("roundtrip");
        clean(&p);
        {
            let mut j = BatchJournal::open(&p).expect("open");
            j.append(7, r#"{"net":"a","outcome":"optimized"}"#)
                .expect("append");
            j.append(u64::MAX, r#"{"net":"b","outcome":"failed"}"#)
                .expect("append");
        }
        let loaded = load(&p).expect("load");
        assert_eq!(loaded.quarantined, 0);
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(loaded.records[&7], r#"{"net":"a","outcome":"optimized"}"#);
        assert!(loaded.records[&u64::MAX].contains("\"b\""));
        clean(&p);
    }

    #[test]
    fn fresh_journal_starts_with_the_format_header() {
        let p = temp_path("header");
        clean(&p);
        drop(BatchJournal::open(&p).expect("open"));
        let text = std::fs::read_to_string(&p).expect("read");
        assert_eq!(text, format!("{FORMAT_HEADER}\n"));
        // Reopening does not write a second header.
        drop(BatchJournal::open(&p).expect("reopen"));
        assert_eq!(std::fs::read_to_string(&p).expect("read"), text);
        clean(&p);
    }

    #[test]
    fn missing_journal_is_empty_not_an_error() {
        let p = temp_path("missing");
        clean(&p);
        assert!(load(&p).expect("load").records.is_empty());
    }

    #[test]
    fn truncated_final_line_is_quarantined() {
        let p = temp_path("truncated");
        clean(&p);
        {
            let mut j = BatchJournal::open(&p).expect("open");
            j.append(7, "{\"net\":\"a\"}").expect("append");
            j.append(10, "{\"net\":\"b\"}").expect("append");
        }
        // Tear the final append mid-line, as a crash would.
        let full = std::fs::read(&p).expect("read");
        std::fs::write(&p, &full[..full.len() - 5]).expect("truncate");
        let loaded = load(&p).expect("load");
        assert_eq!(loaded.records.len(), 1, "the crashed append is dropped");
        assert!(loaded.records.contains_key(&7));
        assert_eq!(loaded.quarantined, 1);
        let side = std::fs::read(sidecar_path(&p)).expect("sidecar written");
        assert!(
            side.starts_with(b"000000000000000a "),
            "torn line preserved"
        );
        clean(&p);
    }

    #[test]
    fn any_single_byte_flip_quarantines_only_that_line() {
        let p = temp_path("bitflip");
        clean(&p);
        {
            let mut j = BatchJournal::open(&p).expect("open");
            j.append(1, "{\"net\":\"a\",\"outcome\":\"optimized\"}")
                .expect("append");
            j.append(2, "{\"net\":\"b\",\"outcome\":\"optimized\"}")
                .expect("append");
            j.append(3, "{\"net\":\"c\",\"outcome\":\"optimized\"}")
                .expect("append");
        }
        let pristine = std::fs::read(&p).expect("read");
        let header_len = FORMAT_HEADER.len() + 1;
        // Flip one byte at every offset of the middle record line.
        let line2_start = pristine[header_len..]
            .iter()
            .position(|&b| b == b'\n')
            .expect("line 1 ends")
            + header_len
            + 1;
        let line2_end = pristine[line2_start..]
            .iter()
            .position(|&b| b == b'\n')
            .expect("line 2 ends")
            + line2_start;
        for at in line2_start..line2_end {
            let mut copy = pristine.clone();
            copy[at] ^= 0x04;
            clean(&p);
            std::fs::write(&p, &copy).expect("write");
            let loaded = load(&p).expect("load never errors on a bad record line");
            assert_eq!(loaded.quarantined, 1, "flip at byte {at}");
            assert_eq!(loaded.records.len(), 2, "flip at byte {at}");
            assert!(loaded.records.contains_key(&1));
            assert!(loaded.records.contains_key(&3));
        }
        clean(&p);
    }

    #[test]
    fn foreign_content_is_rejected_loudly() {
        let p = temp_path("foreign");
        clean(&p);
        std::fs::write(&p, "this is not a journal\n").expect("write");
        let err = load(&p).expect_err("rejects");
        assert!(err.to_string().contains("not a buffopt journal"), "{err}");
        clean(&p);
    }

    #[test]
    fn old_format_version_is_refused_with_a_distinct_message() {
        let p = temp_path("oldformat");
        clean(&p);
        std::fs::write(
            &p,
            "#buffopt-journal v2\n0000000000000007 {\"net\":\"a\"}\n",
        )
        .expect("write");
        let err = load(&p).expect_err("rejects");
        let msg = err.to_string();
        assert!(msg.contains("unsupported journal format"), "{msg}");
        assert!(msg.contains("v2"), "{msg}");
        assert!(msg.contains("v3"), "{msg}");
        clean(&p);
    }

    #[test]
    fn torn_header_is_an_empty_journal() {
        let p = temp_path("tornheader");
        clean(&p);
        std::fs::write(&p, &FORMAT_HEADER.as_bytes()[..9]).expect("write");
        assert!(load(&p).expect("load").records.is_empty());
        clean(&p);
    }

    #[test]
    fn corrupt_journal_line_fault_flips_a_byte_on_disk() {
        let p = temp_path("fault");
        clean(&p);
        let plan =
            Arc::new(FaultPlan::new().on_nth(Seam::Store, 2, FaultAction::CorruptJournalLine));
        {
            let mut j = BatchJournal::open(&p)
                .expect("open")
                .with_fault(plan.clone());
            j.append(1, "{\"net\":\"a\"}").expect("append");
            j.append(2, "{\"net\":\"b\"}").expect("append");
            j.append(3, "{\"net\":\"c\"}").expect("append");
        }
        assert_eq!(plan.armed(Seam::Store), 3);
        let loaded = load(&p).expect("load");
        assert_eq!(loaded.quarantined, 1, "the corrupted line is detected");
        assert_eq!(loaded.records.len(), 2);
        assert!(!loaded.records.contains_key(&2));
        clean(&p);
    }

    #[test]
    fn classify_reads_outcome_and_buffers() {
        let line = crate::optimize_input(
            &crate::NetInput::Failed {
                name: "n\"et".into(),
                error: "bad".into(),
            },
            &crate::PipelineConfig::new(buffopt_buffers::BufferLibrary::new()),
        )
        .to_json();
        assert_eq!(classify(&line), Some((Outcome::ParseError, 0)));
        assert_eq!(
            classify(r#"{"net":"a","outcome":"optimized","buffers":7}"#),
            Some((Outcome::Optimized, 7))
        );
        assert_eq!(
            classify(r#"{"net":"a","outcome":"degraded","buffers":null}"#),
            Some((Outcome::Degraded, 0))
        );
        assert_eq!(classify("{\"net\":\"a\"}"), None, "no outcome token");
        assert_eq!(classify(r#"{"outcome":"sideways"}"#), None, "unknown token");
    }

    #[test]
    fn resumed_journal_keeps_appending() {
        let p = temp_path("reopen");
        clean(&p);
        {
            let mut j = BatchJournal::open(&p).expect("open");
            j.append(1, "{\"net\":\"a\"}").expect("append");
        }
        {
            let mut j = BatchJournal::open(&p).expect("reopen");
            j.append(2, "{\"net\":\"b\"}").expect("append");
        }
        assert_eq!(load(&p).expect("load").records.len(), 2);
        clean(&p);
    }
}
