//! The crash-safe run journal: an append-only JSONL event log of one
//! search run, written with a flush per event so an interrupted process
//! loses at most the line being written — which [`replay`] tolerates.
//!
//! Event schema (one JSON object per line; see `crates/runtime/README.md`
//! for the full field reference):
//!
//! - `header` — run configuration: label, seed, dims, iterations,
//!   batch_k, workers, optimizer, format version;
//! - `eval` — one evaluated point: index, unit params, error, stage
//!   timings in milliseconds;
//! - `fault` — one *penalized* point (since version 2): index, unit
//!   params, the finite penalty observed, failure kind, detail, and
//!   retry count;
//! - `attempt` — one failed evaluation attempt (since version 2),
//!   written *before* the final verdict so a process killed mid-retry
//!   leaves evidence the resume path can penalize from;
//! - `cache_hit` — one point observed from the evaluation memo cache
//!   (since version 2): index, unit params, the memoized error, and the
//!   `source` index of the evaluation that originally produced it. Lives
//!   in the same contiguous observation stream as `eval`/`fault`;
//! - `checkpoint` — periodic best-so-far marker;
//! - `done` — final outcome.
//!
//! A run continues its own journal through [`JournalWriter::reopen`],
//! which cuts the file back to the prefix [`replay`] accepted before the
//! first append. Resume does **not** re-run profiling for journaled
//! points: the executor re-suggests them from the (deterministic, equally-seeded)
//! optimizer and re-observes the journaled errors — including the
//! penalties of `fault` records, which therefore replay failures
//! faithfully — reconstructing the optimizer state bit-for-bit before
//! continuing with fresh evaluations.

// Durability/IPC path: no discarded results outside tests (crates/audit/README.md).
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::unused_result_ok, unused_must_use))]

use crate::executor::{EvalRecord, RunMeta};
use crate::faultinject::{FaultInjector, WriteSite};
use crate::json::{push_f64, push_f64_array, push_str_escaped, Json};
use crate::supervisor::{FailedAttempt, FailureKind};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;

/// Journal format version written into the header. Version 2 added the
/// `fault`, `attempt`, and `cache_hit` events. The golden test
/// `journal_format_is_pinned_to_its_version` pins it together with the
/// text every appender writes: a changed event or field fails there
/// until this is bumped and the text re-pinned.
pub const JOURNAL_VERSION: u64 = 2;

/// The oldest journal version [`replay`] still reads. Version 1 (no
/// fault or cache-hit events) was never written by a released build, so
/// its read support was dropped; a v1 header is an
/// "unsupported journal version".
pub const OLDEST_READABLE_VERSION: u64 = 2;

/// A failure reading or writing a journal.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file has no parseable header line.
    BadHeader(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadHeader(why) => write!(f, "invalid journal header: {why}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Writes journal events, flushing after each so a crash can lose at most
/// a partial final line.
#[derive(Debug)]
pub struct JournalWriter {
    out: BufWriter<File>,
    /// Deterministic fault injection on the append path (tests and
    /// torture harnesses only; empty in production).
    faults: FaultInjector,
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path` and writes the header.
    pub fn create(path: &Path, meta: &RunMeta) -> Result<Self, JournalError> {
        let mut w = JournalWriter {
            out: BufWriter::new(File::create(path)?),
            faults: FaultInjector::default(),
        };
        let mut line = String::from("{\"event\":\"header\",\"version\":");
        push_f64(&mut line, JOURNAL_VERSION as f64);
        line.push_str(",\"label\":");
        push_str_escaped(&mut line, &meta.label);
        // The seed is written as a decimal string: JSON numbers are f64,
        // which silently corrupts u64 seeds above 2^53.
        line.push_str(",\"seed\":");
        push_str_escaped(&mut line, &meta.seed.to_string());
        line.push_str(",\"dims\":");
        push_f64(&mut line, meta.dims as f64);
        line.push_str(",\"iterations\":");
        push_f64(&mut line, meta.iterations as f64);
        line.push_str(",\"batch_k\":");
        push_f64(&mut line, meta.batch_k as f64);
        line.push_str(",\"workers\":");
        push_f64(&mut line, meta.workers as f64);
        line.push_str(",\"optimizer\":");
        push_str_escaped(&mut line, &meta.optimizer);
        line.push('}');
        w.write_line(&line)?;
        Ok(w)
    }

    /// Reopens an existing journal to continue it — the one way a run
    /// resumes onto its own file. Replays `path`, cuts the file back to
    /// the prefix [`replay`] accepted ([`Replay::valid_len`]: a torn or
    /// malformed tail goes, so the next record starts on a line of its
    /// own instead of glued onto a fragment), syncs the cut, and returns
    /// the replay with a writer positioned at the new end.
    pub fn reopen(path: &Path) -> Result<(Replay, Self), JournalError> {
        let bytes = std::fs::read(path)?;
        let replayed = replay_bytes(&bytes)?;
        let mut file = OpenOptions::new().append(true).open(path)?;
        file.set_len(replayed.valid_len)?;
        if bytes[..replayed.valid_len as usize].last() != Some(&b'\n') {
            // The last record is whole but the crash ate its newline.
            file.write_all(b"\n")?;
        }
        file.sync_all()?;
        let writer = JournalWriter {
            out: BufWriter::new(file),
            faults: FaultInjector::default(),
        };
        Ok((replayed, writer))
    }

    /// Routes every subsequent append through `injector`
    /// ([`WriteSite::Journal`] writes), so seeded ENOSPC / short write /
    /// fsync-failure / crash plans exercise the journal's failure
    /// handling deterministically.
    #[must_use]
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        self.faults = injector;
        self
    }

    fn write_line(&mut self, line: &str) -> Result<(), JournalError> {
        if let Some(kind) = self.faults.next_write(WriteSite::Journal) {
            let mut bytes = Vec::with_capacity(line.len() + 1);
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
            return Err(JournalError::Io(kind.corrupt_append(&mut self.out, &bytes)));
        }
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()?;
        Ok(())
    }

    /// Appends one evaluated point.
    pub fn eval(&mut self, rec: &EvalRecord) -> Result<(), JournalError> {
        let mut line = String::from("{\"event\":\"eval\",\"index\":");
        push_f64(&mut line, rec.index as f64);
        line.push_str(",\"unit\":");
        push_f64_array(&mut line, &rec.unit);
        line.push_str(",\"error\":");
        push_f64(&mut line, rec.error);
        line.push_str(",\"stage_ms\":{");
        for (i, (name, ms)) in rec.stage_ms.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            push_str_escaped(&mut line, name);
            line.push(':');
            push_f64(&mut line, *ms);
        }
        line.push('}');
        push_worker(&mut line, rec.worker);
        line.push('}');
        self.write_line(&line)
    }

    /// Appends one penalized point; `rec.fault` must be set.
    ///
    /// # Panics
    ///
    /// Panics if `rec.fault` is `None` — faults are journaled through
    /// this method precisely because they carry the failure metadata.
    pub fn fault(&mut self, rec: &EvalRecord) -> Result<(), JournalError> {
        let info = rec
            .fault
            .as_ref()
            .expect("fault records must carry FaultInfo");
        let mut line = String::from("{\"event\":\"fault\",\"index\":");
        push_f64(&mut line, rec.index as f64);
        line.push_str(",\"unit\":");
        push_f64_array(&mut line, &rec.unit);
        line.push_str(",\"penalty\":");
        push_f64(&mut line, rec.error);
        line.push_str(",\"kind\":");
        push_str_escaped(&mut line, info.kind.tag());
        line.push_str(",\"detail\":");
        push_str_escaped(&mut line, &info.detail);
        line.push_str(",\"retries\":");
        push_f64(&mut line, f64::from(info.retries));
        push_worker(&mut line, rec.worker);
        line.push('}');
        self.write_line(&line)
    }

    /// Appends one memo-cache hit; `rec.cached` must be set.
    ///
    /// # Panics
    ///
    /// Panics if `rec.cached` is `None` — cache hits are journaled
    /// through this method precisely because they carry the source index.
    pub fn cache_hit(&mut self, rec: &EvalRecord) -> Result<(), JournalError> {
        let source = rec
            .cached
            .expect("cache_hit records must carry a source index");
        let mut line = String::from("{\"event\":\"cache_hit\",\"index\":");
        push_f64(&mut line, rec.index as f64);
        line.push_str(",\"unit\":");
        push_f64_array(&mut line, &rec.unit);
        line.push_str(",\"error\":");
        push_f64(&mut line, rec.error);
        line.push_str(",\"source\":");
        push_f64(&mut line, source as f64);
        push_worker(&mut line, rec.worker);
        line.push('}');
        self.write_line(&line)
    }

    /// Appends one failed evaluation attempt (retries may still follow).
    pub fn attempt(&mut self, a: &FailedAttempt) -> Result<(), JournalError> {
        let mut line = String::from("{\"event\":\"attempt\",\"index\":");
        push_f64(&mut line, a.index as f64);
        line.push_str(",\"attempt\":");
        push_f64(&mut line, f64::from(a.attempt));
        line.push_str(",\"kind\":");
        push_str_escaped(&mut line, a.kind.tag());
        line.push_str(",\"detail\":");
        push_str_escaped(&mut line, &a.detail);
        push_worker(&mut line, a.worker);
        line.push('}');
        self.write_line(&line)
    }

    /// Appends a best-so-far checkpoint after `evals` total observations.
    pub fn checkpoint(
        &mut self,
        evals: usize,
        best_error: f64,
        best_unit: &[f64],
    ) -> Result<(), JournalError> {
        let mut line = String::from("{\"event\":\"checkpoint\",\"evals\":");
        push_f64(&mut line, evals as f64);
        line.push_str(",\"best_error\":");
        push_f64(&mut line, best_error);
        line.push_str(",\"best_unit\":");
        push_f64_array(&mut line, best_unit);
        line.push('}');
        self.write_line(&line)
    }

    /// Appends the final outcome.
    pub fn done(
        &mut self,
        evals: usize,
        best_error: f64,
        best_unit: &[f64],
    ) -> Result<(), JournalError> {
        let mut line = String::from("{\"event\":\"done\",\"evals\":");
        push_f64(&mut line, evals as f64);
        line.push_str(",\"best_error\":");
        push_f64(&mut line, best_error);
        line.push_str(",\"best_unit\":");
        push_f64_array(&mut line, best_unit);
        line.push('}');
        self.write_line(&line)
    }
}

/// Appends the optional `worker` field (out-of-process runs only). The
/// field is additive — version-2 readers that predate it ignore unknown
/// fields, so JOURNAL_VERSION stays at 2.
fn push_worker(line: &mut String, worker: Option<u64>) {
    if let Some(w) = worker {
        line.push_str(",\"worker\":");
        push_f64(line, w as f64);
    }
}

/// Failed attempts journaled for a point that never got a final record —
/// the trace a mid-retry kill leaves behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingFault {
    /// Failure kind of the latest journaled attempt.
    pub kind: FailureKind,
    /// Detail of the latest journaled attempt.
    pub detail: String,
    /// Number of attempts journaled (latest attempt number + 1).
    pub attempts: u32,
}

/// The readable state of a journal file.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The run configuration from the header.
    pub meta: RunMeta,
    /// Evaluated points, a contiguous index-ordered prefix of the run
    /// (penalized `fault` records included, with their `fault` set).
    pub evals: Vec<EvalRecord>,
    /// Failed attempts for points *beyond* the evaluated prefix: the
    /// journal recorded retries in flight but no final verdict. A
    /// supervised resume penalizes these points instead of re-running
    /// them.
    pub fault_attempts: BTreeMap<usize, PendingFault>,
    /// Whether a `done` event was seen (the run finished cleanly).
    pub complete: bool,
    /// Lines dropped as malformed or out-of-order (a crash mid-write
    /// leaves at most one).
    pub dropped_lines: usize,
    /// Byte length of the prefix that was accepted: the end of the last
    /// line before the first dropped one (the whole file when nothing was
    /// dropped). [`JournalWriter::reopen`] truncates to it.
    pub valid_len: u64,
}

/// Reads a journal back, tolerating a truncated or corrupt tail: parsing
/// stops at the first malformed (or non-UTF-8) or out-of-order line and
/// everything before it is kept.
pub fn replay(path: &Path) -> Result<Replay, JournalError> {
    replay_bytes(&std::fs::read(path)?)
}

fn replay_bytes(bytes: &[u8]) -> Result<Replay, JournalError> {
    let mut meta: Option<RunMeta> = None;
    let mut evals = Vec::new();
    let mut fault_attempts: BTreeMap<usize, PendingFault> = BTreeMap::new();
    let mut complete = false;
    let mut dropped_lines = 0;
    let mut valid_len = 0;
    let mut pos = 0;
    for raw in bytes.split_inclusive(|&b| b == b'\n') {
        pos += raw.len();
        let line = std::str::from_utf8(raw).map(str::trim);
        if line == Ok("") {
            continue;
        }
        let Some(meta) = &meta else {
            let text =
                line.map_err(|_| JournalError::BadHeader("first line is not UTF-8".into()))?;
            let header = Json::parse(text)
                .map_err(|e| JournalError::BadHeader(format!("unparseable first line: {e}")))?;
            meta = Some(parse_header(&header)?);
            valid_len = pos;
            continue;
        };
        match line
            .ok()
            .and_then(|l| parse_event(l, evals.len(), meta.dims))
        {
            Some(LineEvent::Eval(rec)) => evals.push(rec),
            Some(LineEvent::Attempt {
                index,
                attempt,
                kind,
                detail,
            }) => {
                let entry = fault_attempts.entry(index).or_insert(PendingFault {
                    kind,
                    detail: String::new(),
                    attempts: 0,
                });
                if attempt + 1 >= entry.attempts {
                    entry.kind = kind;
                    entry.detail = detail;
                    entry.attempts = attempt + 1;
                }
            }
            Some(LineEvent::Checkpoint) => {}
            Some(LineEvent::Done) => complete = true,
            None => {
                // Corrupt tail: drop this and everything after it.
                dropped_lines += 1;
                break;
            }
        }
        valid_len = pos;
    }
    let meta = meta.ok_or_else(|| JournalError::BadHeader("empty journal".to_string()))?;
    // Attempts whose point later got a final record are resolved; only
    // in-flight ones (index beyond the prefix) matter to resume.
    fault_attempts.retain(|index, _| *index >= evals.len());
    Ok(Replay {
        meta,
        evals,
        fault_attempts,
        complete,
        dropped_lines,
        valid_len: valid_len as u64,
    })
}

fn parse_header(v: &Json) -> Result<RunMeta, JournalError> {
    let bad = |what: &str| JournalError::BadHeader(what.to_string());
    if v.get("event").and_then(Json::as_str) != Some("header") {
        return Err(bad("first event is not a header"));
    }
    let version = v
        .get("version")
        .and_then(Json::as_usize)
        .ok_or_else(|| bad("missing version"))?;
    if !(OLDEST_READABLE_VERSION..=JOURNAL_VERSION).contains(&(version as u64)) {
        return Err(bad("unsupported journal version"));
    }
    let seed = v
        .get("seed")
        .and_then(Json::as_str)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("missing or invalid seed"))?;
    Ok(RunMeta {
        label: v
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing label"))?
            .to_string(),
        seed,
        dims: v
            .get("dims")
            .and_then(Json::as_usize)
            .ok_or_else(|| bad("missing dims"))?,
        iterations: v
            .get("iterations")
            .and_then(Json::as_usize)
            .ok_or_else(|| bad("missing iterations"))?,
        batch_k: v
            .get("batch_k")
            .and_then(Json::as_usize)
            .ok_or_else(|| bad("missing batch_k"))?,
        workers: v
            .get("workers")
            .and_then(Json::as_usize)
            .ok_or_else(|| bad("missing workers"))?,
        optimizer: v
            .get("optimizer")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing optimizer"))?
            .to_string(),
    })
}

enum LineEvent {
    Eval(EvalRecord),
    Attempt {
        index: usize,
        attempt: u32,
        kind: FailureKind,
        detail: String,
    },
    Checkpoint,
    Done,
}

/// Parses one post-header line; `None` means "corrupt from here on".
fn parse_event(line: &str, expect_index: usize, dims: usize) -> Option<LineEvent> {
    let v = Json::parse(line).ok()?;
    let parse_unit = |v: &Json| -> Option<Vec<f64>> {
        let unit: Vec<f64> = v
            .get("unit")
            .and_then(Json::as_arr)?
            .iter()
            .map(Json::as_f64)
            .collect::<Option<_>>()?;
        (unit.len() == dims).then_some(unit)
    };
    let parse_worker = |v: &Json| v.get("worker").and_then(Json::as_usize).map(|w| w as u64);
    match v.get("event").and_then(Json::as_str)? {
        "eval" => {
            let index = v.get("index").and_then(Json::as_usize)?;
            if index != expect_index {
                return None;
            }
            let unit = parse_unit(&v)?;
            let error = v.get("error").and_then(Json::as_f64)?;
            if !error.is_finite() {
                return None;
            }
            let stage_ms = match v.get("stage_ms") {
                Some(Json::Obj(fields)) => fields
                    .iter()
                    .map(|(name, ms)| Some((name.clone(), ms.as_f64()?)))
                    .collect::<Option<_>>()?,
                _ => Vec::new(),
            };
            Some(LineEvent::Eval(EvalRecord {
                index,
                unit,
                error,
                stage_ms,
                fault: None,
                cached: None,
                worker: parse_worker(&v),
            }))
        }
        "cache_hit" => {
            // Cache hits live in the same contiguous observation stream
            // as evals — the memoized error *was* observed at this index.
            let index = v.get("index").and_then(Json::as_usize)?;
            if index != expect_index {
                return None;
            }
            let unit = parse_unit(&v)?;
            let error = v.get("error").and_then(Json::as_f64)?;
            if !error.is_finite() {
                return None;
            }
            let source = v.get("source").and_then(Json::as_usize)?;
            Some(LineEvent::Eval(EvalRecord {
                index,
                unit,
                error,
                stage_ms: Vec::new(),
                fault: None,
                cached: Some(source),
                worker: parse_worker(&v),
            }))
        }
        "fault" => {
            // Faults live in the same contiguous observation stream as
            // evals — the penalty *was* observed at this index.
            let index = v.get("index").and_then(Json::as_usize)?;
            if index != expect_index {
                return None;
            }
            let unit = parse_unit(&v)?;
            let penalty = v.get("penalty").and_then(Json::as_f64)?;
            if !penalty.is_finite() {
                return None;
            }
            let kind = FailureKind::from_tag(v.get("kind").and_then(Json::as_str)?)?;
            let detail = v.get("detail").and_then(Json::as_str)?.to_string();
            let retries = v.get("retries").and_then(Json::as_usize)?;
            Some(LineEvent::Eval(EvalRecord {
                index,
                unit,
                error: penalty,
                stage_ms: Vec::new(),
                fault: Some(crate::supervisor::FaultInfo {
                    kind,
                    detail,
                    retries: retries as u32,
                }),
                cached: None,
                worker: parse_worker(&v),
            }))
        }
        "attempt" => {
            // Attempts are not index-contiguous: a parallel batch journals
            // them as they happen, ahead of the batch's final records.
            let index = v.get("index").and_then(Json::as_usize)?;
            let attempt = v.get("attempt").and_then(Json::as_usize)? as u32;
            let kind = FailureKind::from_tag(v.get("kind").and_then(Json::as_str)?)?;
            let detail = v.get("detail").and_then(Json::as_str)?.to_string();
            Some(LineEvent::Attempt {
                index,
                attempt,
                kind,
                detail,
            })
        }
        "checkpoint" => Some(LineEvent::Checkpoint),
        "done" => Some(LineEvent::Done),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::FaultInfo;

    fn record(index: usize, unit: &[f64], error: f64) -> EvalRecord {
        EvalRecord {
            index,
            unit: unit.to_vec(),
            error,
            stage_ms: Vec::new(),
            fault: None,
            cached: None,
            worker: None,
        }
    }

    /// The journal format, pinned: the version constants and the exact
    /// text of a journal written through one call of each appender, which
    /// `replay` must read back whole. Journals outlive the binary that
    /// wrote them, so a change here is a change to every resume.
    #[test]
    fn journal_format_is_pinned_to_its_version() {
        const GOLDEN: &str = r#"{"event":"header","version":2,"label":"golden","seed":"9223372036854775809","dims":2,"iterations":4,"batch_k":1,"workers":1,"optimizer":"bayesian"}
{"event":"eval","index":0,"unit":[0.25,0.5],"error":0.125,"stage_ms":{"build":1.5,"profile":2.25}}
{"event":"cache_hit","index":1,"unit":[0.25,0.5],"error":0.125,"source":0,"worker":1}
{"event":"fault","index":2,"unit":[0.75,1],"penalty":1000000,"kind":"panic","detail":"boom \"here\"","retries":1}
{"event":"attempt","index":3,"attempt":0,"kind":"timeout","detail":"late","worker":2}
{"event":"checkpoint","evals":3,"best_error":0.125,"best_unit":[0.25,0.5]}
{"event":"done","evals":3,"best_error":0.125,"best_unit":[0.25,0.5]}
"#;
        let path =
            std::env::temp_dir().join(format!("datamime-journal-golden-{}", std::process::id()));
        let meta = RunMeta {
            label: "golden".to_string(),
            seed: (1 << 63) + 1,
            dims: 2,
            iterations: 4,
            batch_k: 1,
            workers: 1,
            optimizer: "bayesian".to_string(),
        };
        let mut w = JournalWriter::create(&path, &meta).unwrap();
        w.eval(&EvalRecord {
            stage_ms: vec![("build".to_string(), 1.5), ("profile".to_string(), 2.25)],
            ..record(0, &[0.25, 0.5], 0.125)
        })
        .unwrap();
        w.cache_hit(&EvalRecord {
            cached: Some(0),
            worker: Some(1),
            ..record(1, &[0.25, 0.5], 0.125)
        })
        .unwrap();
        w.fault(&EvalRecord {
            fault: Some(FaultInfo {
                kind: FailureKind::Panic,
                detail: "boom \"here\"".to_string(),
                retries: 1,
            }),
            ..record(2, &[0.75, 1.0], 1e6)
        })
        .unwrap();
        w.attempt(&FailedAttempt {
            index: 3,
            attempt: 0,
            kind: FailureKind::Timeout,
            detail: "late".to_string(),
            worker: Some(2),
        })
        .unwrap();
        w.checkpoint(3, 0.125, &[0.25, 0.5]).unwrap();
        w.done(3, 0.125, &[0.25, 0.5]).unwrap();
        drop(w);

        let back = replay(&path).unwrap();
        assert_eq!(back.meta, meta);
        assert!(back.complete && back.dropped_lines == 0);
        let kinds: Vec<_> = back
            .evals
            .iter()
            .map(|r| (r.index, r.cached, r.fault.as_ref().map(|f| f.kind)))
            .collect();
        assert_eq!(
            kinds,
            [
                (0, None, None),
                (1, Some(0), None),
                (2, None, Some(FailureKind::Panic))
            ]
        );
        assert_eq!(back.fault_attempts[&3].kind, FailureKind::Timeout);

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            (JOURNAL_VERSION, OLDEST_READABLE_VERSION, text.as_str()),
            (2, 2, GOLDEN),
            "the journal format changed: bump JOURNAL_VERSION (and OLDEST_READABLE_VERSION \
             when replay stops reading the old one) and re-pin this text in the same change"
        );
    }
}
