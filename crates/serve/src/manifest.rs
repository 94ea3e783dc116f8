//! The daemon's crash-safe job manifest: a segmented, checkpointed WAL.
//!
//! Job lifecycle transitions — `submit` (with the full spec line),
//! `start`, `done`, `quota`, `cancel`, `fail`, plus the two-phase GC
//! records `gc` / `gc_done` — are appended as JSONL to the active
//! *segment* `manifest.NNNNNN.log` and fsynced before the caller is
//! acknowledged, so the set of jobs and their states survives `SIGKILL`
//! at any instant.
//!
//! When the active segment exceeds the configured size the writer
//! *rotates*: a fresh segment is created, and a compacted **checkpoint**
//! (`manifest.ckpt`) of the folded live-job table is written via
//! write-to-temp + fsync + atomic rename, after which the segments it
//! covers are deleted. Replay on open is therefore checkpoint + the
//! segments newer than it, so startup cost and disk footprint are
//! bounded by the live job set instead of the daemon's whole history.
//! Every step is crash-safe:
//!
//! - a torn final line (the crash window of an append) is *repaired* on
//!   open — the newline-less tail is truncated away so the first
//!   post-restart append starts on a fresh line instead of gluing onto
//!   the fragment and corrupting an acknowledged event;
//! - a failed append self-repairs the same way immediately (the segment
//!   is truncated back to its last acknowledged length), so one short
//!   write cannot poison later events;
//! - a crash between checkpoint-temp write and rename leaves a stale
//!   `manifest.ckpt.tmp` that open deletes — the previous checkpoint
//!   stays authoritative;
//! - a crash between checkpoint rename and segment deletion is resumed
//!   on open (covered segments are deleted then, not replayed);
//! - a *failed* checkpoint attempt is counted and logged, never fatal:
//!   the previous checkpoint and the full segment chain still replay.
//!
//! GC of a terminal job is two-phase: a `gc` intent record makes the
//! deletion durable before any file is unlinked, and `gc_done` closes it
//! after the job directory is gone. A crash in between leaves the
//! intent pending; [`Manifest::take_pending_gc`] hands it to the daemon
//! on startup to finish (directory removal is idempotent).
//!
//! Disk-fault injection (`ENOSPC`, short writes, fsync failures, crash
//! at the boundary) threads through every append and checkpoint via
//! [`DiskFaultInjector`], so the crash matrix can hit each durability
//! edge deterministically. Injected or real `ENOSPC` is flagged via
//! [`Manifest::no_space_seen`] — the daemon's cue to drain into
//! read-only mode.

use datamime::servectl::JobState;
use datamime_runtime::diskfault::{is_no_space, DiskFaultInjector, DiskTarget};
use datamime_runtime::json::{push_f64, push_f64_array, push_str_escaped, Json};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// The single-file manifest name of pre-segmentation daemons. No
/// released daemon wrote one, so it is no longer migrated: a state root
/// holding this file is refused on open rather than silently ignored.
const LEGACY_MANIFEST_FILE: &str = "manifest.log";

/// The compacted checkpoint file under the daemon state root.
pub const CHECKPOINT_FILE: &str = "manifest.ckpt";

/// The checkpoint staging file; deleted on open if a crash left it.
const CHECKPOINT_TMP: &str = "manifest.ckpt.tmp";

/// Default segment-rotation threshold in bytes.
pub const DEFAULT_SEGMENT_BYTES: u64 = 64 * 1024;

/// Manifest WAL format revision. Replay accepts only this revision's
/// event vocabulary and on-disk layout; bump it whenever
/// [`MANIFEST_EVENT_KINDS`] changes meaning or membership, or a layout
/// stops being readable (revision 2 dropped the single-file
/// `manifest.log` migration).
pub const MANIFEST_FORMAT_REVISION: u32 = 2;

/// Every `event` value a WAL line may carry. This registry is a wire
/// surface: the audit's `wire-compat` rule locks it in
/// `audit.wire.lock`, so adding, removing, or renaming a kind without
/// bumping [`MANIFEST_FORMAT_REVISION`] fails CI.
pub const MANIFEST_EVENT_KINDS: [&str; 8] = [
    "submit", "start", "done", "quota", "cancel", "fail", "gc", "gc_done",
];

/// The file name of WAL segment `seq` (`manifest.000007.log`).
pub fn segment_file_name(seq: u64) -> String {
    format!("manifest.{seq:06}.log")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("manifest.")?.strip_suffix(".log")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Tuning and test hooks for [`Manifest::open_with`].
#[derive(Debug, Clone, Default)]
pub struct ManifestOptions {
    /// Segment-rotation threshold; `None` means [`DEFAULT_SEGMENT_BYTES`].
    pub segment_bytes: Option<u64>,
    /// Deterministic disk-fault injection on appends and checkpoints.
    pub faults: Option<DiskFaultInjector>,
}

/// A WAL write failure. `no_space` marks the ENOSPC class that should
/// flip the daemon into draining read-only mode.
#[derive(Debug, Clone)]
pub struct WalError {
    /// Whether the failure was an out-of-space condition.
    pub no_space: bool,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<WalError> for String {
    fn from(e: WalError) -> String {
        e.message
    }
}

/// Counters and sizes describing the on-disk WAL, for the admin plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Live segment files on disk.
    pub segments: u64,
    /// Total bytes across live segment files.
    pub segment_bytes: u64,
    /// Highest segment sequence folded into the checkpoint (0 = none).
    pub checkpoint_seq: u64,
    /// Checkpoint attempts that failed since this writer opened.
    pub checkpoint_failures: u64,
    /// Jobs whose GC completed (cumulative, survives restarts).
    pub gcd_jobs: u64,
    /// GC intents not yet closed by a `gc_done`.
    pub pending_gc: u64,
}

/// A job's folded state after replaying the manifest.
#[derive(Debug, Clone)]
pub struct JobEntry {
    /// The submitted spec, verbatim `key=value` line.
    pub spec: String,
    /// Lifecycle state implied by the last event.
    pub state: JobState,
    /// Best error recorded by a `done` or `quota` event.
    pub best_error: Option<f64>,
    /// Best unit point recorded by a `done` or `quota` event.
    pub best_unit: Vec<f64>,
    /// Failure detail (`fail`) or quota cause (`quota`).
    pub detail: Option<String>,
}

/// The folded replay state: the job table plus the bookkeeping that has
/// to survive compaction (GC progress, the high-water job number).
#[derive(Debug, Clone, Default)]
struct Fold {
    jobs: BTreeMap<String, JobEntry>,
    /// GC intents whose directory removal has not been confirmed.
    pending_gc: Vec<String>,
    /// Jobs fully garbage-collected (cumulative).
    gcd: u64,
    /// Highest numeric job id ever submitted; preserved by checkpoints
    /// so GC of old jobs never recycles an id.
    max_job: u64,
}

/// The append side of the manifest. Every mutator appends one line and
/// fsyncs before returning — a transition the caller saw acknowledged is
/// a transition a restarted daemon will replay. The writer folds each
/// acknowledged line through the *same* parser the replay path uses, so
/// live state and post-crash state cannot drift.
#[derive(Debug)]
pub struct Manifest {
    root: PathBuf,
    out: File,
    active_seq: u64,
    /// Acknowledged bytes in the active segment (the self-repair target
    /// after a failed append).
    active_bytes: u64,
    segment_bytes: u64,
    checkpoint_seq: u64,
    checkpoint_failures: u64,
    no_space_seen: bool,
    fold: Fold,
    faults: Option<DiskFaultInjector>,
}

impl Manifest {
    /// Opens (creating if absent) the manifest under `root` with default
    /// options. See [`Manifest::open_with`].
    ///
    /// # Errors
    ///
    /// As [`Manifest::open_with`].
    pub fn open(root: &Path) -> Result<(Manifest, BTreeMap<String, JobEntry>), String> {
        Manifest::open_with(root, ManifestOptions::default())
    }

    /// Opens (creating if absent) the segmented manifest under `root`:
    /// deletes a stale checkpoint temp, loads the checkpoint, deletes
    /// segments the checkpoint covers (resuming an interrupted
    /// post-checkpoint deletion), replays newer segments in order with
    /// torn-tail repair, and returns the writer plus the folded job table
    /// in id order.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a corrupt checkpoint, a stray single-file
    /// `manifest.log` (a layout this revision no longer reads), or an
    /// unknown event *kind* in any segment (a forward-compatibility
    /// tripwire — old daemons must not silently drop transitions written
    /// by newer ones). Corrupt interior lines and events for unknown jobs
    /// are skipped with a warning.
    pub fn open_with(
        root: &Path,
        options: ManifestOptions,
    ) -> Result<(Manifest, BTreeMap<String, JobEntry>), String> {
        let segment_bytes = options
            .segment_bytes
            .unwrap_or(DEFAULT_SEGMENT_BYTES)
            .max(1);
        let legacy = root.join(LEGACY_MANIFEST_FILE);
        if legacy.exists() {
            return Err(format!(
                "{legacy:?} is a single-file manifest, a layout this daemon no longer reads \
                 (manifest format revision {MANIFEST_FORMAT_REVISION}); refusing to start \
                 without its jobs"
            ));
        }
        let tmp = root.join(CHECKPOINT_TMP);
        if tmp.exists() {
            // Crash between temp write and rename: the temp's content is
            // unacknowledged (possibly torn); the previous checkpoint is
            // authoritative.
            std::fs::remove_file(&tmp)
                .map_err(|e| format!("cannot remove stale checkpoint temp {tmp:?}: {e}"))?;
        }
        let mut segments = list_segments(root)?;
        let ckpt_path = root.join(CHECKPOINT_FILE);
        let (mut fold, checkpoint_seq) = if ckpt_path.exists() {
            load_checkpoint(&ckpt_path)?
        } else {
            (Fold::default(), 0)
        };
        // Segments the checkpoint covers are already folded into it; if
        // they still exist the post-checkpoint deletion was interrupted.
        // Finish it instead of replaying them (replaying would double-
        // apply nothing — folding is idempotent per job — but deleting
        // here keeps open O(live) and the invariant simple).
        for &seq in segments.iter().filter(|&&s| s <= checkpoint_seq) {
            let p = root.join(segment_file_name(seq));
            std::fs::remove_file(&p)
                .map_err(|e| format!("cannot remove checkpointed segment {p:?}: {e}"))?;
        }
        segments.retain(|&s| s > checkpoint_seq);
        for &seq in &segments {
            replay_segment(&root.join(segment_file_name(seq)), &mut fold)?;
        }
        let active_seq = segments.last().copied().unwrap_or(checkpoint_seq + 1);
        let path = root.join(segment_file_name(active_seq));
        let out = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot append to manifest segment {path:?}: {e}"))?;
        let active_bytes = out
            .metadata()
            .map_err(|e| format!("cannot stat manifest segment {path:?}: {e}"))?
            .len();
        let jobs = fold.jobs.clone();
        Ok((
            Manifest {
                root: root.to_path_buf(),
                out,
                active_seq,
                active_bytes,
                segment_bytes,
                checkpoint_seq,
                checkpoint_failures: 0,
                no_space_seen: false,
                fold,
                faults: options.faults,
            },
            jobs,
        ))
    }

    /// The next unused job number (1-based). Tracked through checkpoints
    /// so garbage-collecting old jobs never recycles an id.
    pub fn next_job_number(&self) -> u64 {
        self.fold.max_job + 1
    }

    /// GC intents recorded but not yet closed by `gc_done` — directories
    /// a crashed daemon may have half-deleted. The caller should finish
    /// each (idempotent removal, then [`Manifest::gc_done`]).
    pub fn take_pending_gc(&self) -> Vec<String> {
        self.fold.pending_gc.clone()
    }

    /// Whether any append or checkpoint has hit an out-of-space
    /// condition since this writer opened (the read-only-drain trigger,
    /// also set by checkpoint failures that do not fail a mutator).
    pub fn no_space_seen(&self) -> bool {
        self.no_space_seen
    }

    /// On-disk WAL shape for the admin plane. Scans the state root;
    /// unreadable entries count as zero bytes rather than failing.
    pub fn wal_stats(&self) -> WalStats {
        let (mut segments, mut segment_bytes) = (0u64, 0u64);
        if let Ok(rd) = std::fs::read_dir(&self.root) {
            for entry in rd.flatten() {
                if parse_segment_name(&entry.file_name().to_string_lossy()).is_some() {
                    segments += 1;
                    segment_bytes += entry.metadata().map_or(0, |m| m.len());
                }
            }
        }
        WalStats {
            segments,
            segment_bytes,
            checkpoint_seq: self.checkpoint_seq,
            checkpoint_failures: self.checkpoint_failures,
            gcd_jobs: self.fold.gcd,
            pending_gc: self.fold.pending_gc.len() as u64,
        }
    }

    /// Records a job submission (the WAL point: once this returns, a
    /// restart will know the job).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors (including injected faults).
    pub fn submit(&mut self, job: &str, spec: &str) -> Result<(), WalError> {
        let mut line = String::from(r#"{"event":"submit","job":"#);
        push_str_escaped(&mut line, job);
        line.push_str(",\"spec\":");
        push_str_escaped(&mut line, spec);
        line.push('}');
        self.commit(&line)
    }

    /// Records that a job started running.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors (including injected faults).
    pub fn start(&mut self, job: &str) -> Result<(), WalError> {
        self.event("start", job)
    }

    /// Records successful completion with the result.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors (including injected faults).
    pub fn done(&mut self, job: &str, best_error: f64, best_unit: &[f64]) -> Result<(), WalError> {
        let mut line = String::from(r#"{"event":"done","job":"#);
        push_str_escaped(&mut line, job);
        line.push_str(",\"best_error\":");
        push_f64(&mut line, best_error);
        line.push_str(",\"best_unit\":");
        push_f64_array(&mut line, best_unit);
        line.push('}');
        self.commit(&line)
    }

    /// Records a quota stop (`max_evals=` / `wall_clock_s=`) with the
    /// best-so-far result and the cause string.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors (including injected faults).
    pub fn quota(
        &mut self,
        job: &str,
        best_error: f64,
        best_unit: &[f64],
        cause: &str,
    ) -> Result<(), WalError> {
        let mut line = String::from(r#"{"event":"quota","job":"#);
        push_str_escaped(&mut line, job);
        line.push_str(",\"cause\":");
        push_str_escaped(&mut line, cause);
        line.push_str(",\"best_error\":");
        push_f64(&mut line, best_error);
        line.push_str(",\"best_unit\":");
        push_f64_array(&mut line, best_unit);
        line.push('}');
        self.commit(&line)
    }

    /// Records cancellation.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors (including injected faults).
    pub fn cancel(&mut self, job: &str) -> Result<(), WalError> {
        self.event("cancel", job)
    }

    /// Records failure with a human-readable reason.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors (including injected faults).
    pub fn fail(&mut self, job: &str, detail: &str) -> Result<(), WalError> {
        let mut line = String::from(r#"{"event":"fail","job":"#);
        push_str_escaped(&mut line, job);
        line.push_str(",\"detail\":");
        push_str_escaped(&mut line, detail);
        line.push('}');
        self.commit(&line)
    }

    /// Records the durable *intent* to garbage-collect a terminal job
    /// (phase one of two-phase delete: nothing may be unlinked before
    /// this returns). The job leaves the folded table immediately.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors (including injected faults).
    pub fn gc_intent(&mut self, job: &str) -> Result<(), WalError> {
        self.event("gc", job)
    }

    /// Records that a GC'd job's directory is gone (phase two; closes
    /// the pending intent).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors (including injected faults).
    pub fn gc_done(&mut self, job: &str) -> Result<(), WalError> {
        self.event("gc_done", job)
    }

    fn event(&mut self, event: &str, job: &str) -> Result<(), WalError> {
        let mut line = format!(r#"{{"event":"{event}","job":"#);
        push_str_escaped(&mut line, job);
        line.push('}');
        self.commit(&line)
    }

    /// Appends one acknowledged line, then folds it through the same
    /// `apply` the replay path uses — the one place live and replayed
    /// state are guaranteed to agree.
    fn commit(&mut self, line: &str) -> Result<(), WalError> {
        self.append_line(line)?;
        let parsed = Json::parse(line).map_err(|e| WalError {
            no_space: false,
            message: format!("manifest writer produced an unparseable line: {e}"),
        })?;
        apply(&mut self.fold, &parsed).map_err(|message| WalError {
            no_space: false,
            message,
        })
    }

    fn append_line(&mut self, line: &str) -> Result<(), WalError> {
        if self.active_bytes >= self.segment_bytes {
            self.rotate()?;
        }
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let injected = self
            .faults
            .as_ref()
            .and_then(|inj| inj.next(DiskTarget::Manifest));
        let result = match injected {
            Some(kind) => Err(kind.corrupt_append(&mut self.out, &bytes)),
            None => self
                .out
                .write_all(&bytes)
                .and_then(|()| self.out.sync_all()),
        };
        match result {
            Ok(()) => {
                self.active_bytes += bytes.len() as u64;
                Ok(())
            }
            Err(err) => {
                if is_no_space(&err) {
                    self.no_space_seen = true;
                }
                // Self-repair: truncate back to the last acknowledged
                // length so a torn half-record cannot glue onto the next
                // append (the live-writer analogue of open's tail
                // repair). Best effort — a disk that cannot truncate
                // will be repaired on the next open instead.
                // audit:allow(swallowed-result): repair of an already-failing disk — the append error below is what the caller acts on
                let _ = self.out.set_len(self.active_bytes);
                // audit:allow(swallowed-result): repair of an already-failing disk — the append error below is what the caller acts on
                let _ = self.out.sync_all();
                Err(WalError {
                    no_space: is_no_space(&err),
                    message: format!(
                        "cannot append to manifest segment {}: {err}",
                        self.active_seq
                    ),
                })
            }
        }
    }

    /// Starts a fresh segment, then best-effort checkpoints everything
    /// up to and including the one just retired. Checkpoint failure is
    /// counted and logged, never fatal: the previous checkpoint plus the
    /// un-deleted segment chain still replays every acknowledged event.
    fn rotate(&mut self) -> Result<(), WalError> {
        let new_seq = self.active_seq + 1;
        let path = self.root.join(segment_file_name(new_seq));
        let out = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| WalError {
                no_space: is_no_space(&e),
                message: format!("cannot create manifest segment {path:?}: {e}"),
            })?;
        sync_dir(&self.root).map_err(|message| WalError {
            no_space: false,
            message,
        })?;
        let covers = self.active_seq;
        self.out = out;
        self.active_seq = new_seq;
        self.active_bytes = 0;
        match self.write_checkpoint(covers) {
            Ok(()) => {
                let from = self.checkpoint_seq;
                self.checkpoint_seq = covers;
                for seq in (from + 1)..=covers {
                    // audit:allow(swallowed-result): best effort — a surviving retired segment is deleted by the next open
                    let _ = std::fs::remove_file(self.root.join(segment_file_name(seq)));
                }
            }
            Err(e) => {
                self.checkpoint_failures += 1;
                if e.no_space {
                    self.no_space_seen = true;
                }
                // audit:allow(swallowed-result): best effort — a stale checkpoint temp is overwritten by the next attempt
                let _ = std::fs::remove_file(self.root.join(CHECKPOINT_TMP));
                eprintln!(
                    "datamime-served: checkpoint covering segment {covers} failed \
                     (previous checkpoint stays authoritative): {e}"
                );
            }
        }
        Ok(())
    }

    fn write_checkpoint(&mut self, covers: u64) -> Result<(), WalError> {
        let line = checkpoint_json(&self.fold, covers);
        let tmp = self.root.join(CHECKPOINT_TMP);
        let io_err = |e: std::io::Error| WalError {
            no_space: is_no_space(&e),
            message: format!("cannot write checkpoint temp {tmp:?}: {e}"),
        };
        let injected = self
            .faults
            .as_ref()
            .and_then(|inj| inj.next(DiskTarget::Checkpoint));
        let mut f = File::create(&tmp).map_err(io_err)?;
        if let Some(kind) = injected {
            return Err(io_err(kind.corrupt_append(&mut f, line.as_bytes())));
        }
        f.write_all(line.as_bytes())
            .and_then(|()| f.write_all(b"\n"))
            .and_then(|()| f.sync_all())
            .map_err(io_err)?;
        drop(f);
        let final_path = self.root.join(CHECKPOINT_FILE);
        std::fs::rename(&tmp, &final_path).map_err(|e| WalError {
            no_space: is_no_space(&e),
            message: format!("cannot publish checkpoint {final_path:?}: {e}"),
        })?;
        sync_dir(&self.root).map_err(|message| WalError {
            no_space: false,
            message,
        })
    }
}

/// Fsyncs a directory so a just-created/renamed entry survives a crash.
/// Crate-visible: the server's journal-sidecar staging renames need the
/// same discipline.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), String> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| format!("cannot fsync directory {dir:?}: {e}"))
}

fn list_segments(root: &Path) -> Result<Vec<u64>, String> {
    let mut out = Vec::new();
    let rd =
        std::fs::read_dir(root).map_err(|e| format!("cannot list manifest root {root:?}: {e}"))?;
    for entry in rd {
        let entry = entry.map_err(|e| format!("cannot list manifest root {root:?}: {e}"))?;
        if let Some(seq) = parse_segment_name(&entry.file_name().to_string_lossy()) {
            out.push(seq);
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Replays one segment into `fold`, repairing a torn final line in
/// place (truncate + fsync) before parsing.
fn replay_segment(path: &Path, fold: &mut Fold) -> Result<(), String> {
    let data = std::fs::read(path).map_err(|e| format!("cannot read manifest {path:?}: {e}"))?;
    // Every append is `<line>\n`; a file that does not end in a newline
    // was torn mid-append. Truncate the fragment now — appending after
    // it would glue the next (acknowledged!) event onto the tear,
    // producing one unparseable line and losing that event on the
    // following restart.
    let keep = if data.last().is_some_and(|&b| b != b'\n') {
        data.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1)
    } else {
        data.len()
    };
    if keep < data.len() {
        let f = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| format!("cannot repair manifest {path:?}: {e}"))?;
        f.set_len(keep as u64)
            .and_then(|()| f.sync_all())
            .map_err(|e| format!("cannot repair manifest {path:?}: {e}"))?;
    }
    for raw in data[..keep].split(|&b| b == b'\n') {
        let line = String::from_utf8_lossy(raw);
        if line.trim().is_empty() {
            continue;
        }
        let Ok(v) = Json::parse(&line) else {
            eprintln!("datamime-served: skipping corrupt manifest line: {line}");
            continue;
        };
        apply(fold, &v)?;
    }
    Ok(())
}

fn checkpoint_json(fold: &Fold, covers: u64) -> String {
    let mut s = String::from("{\"covers\":");
    s.push_str(&covers.to_string());
    s.push_str(",\"gcd\":");
    s.push_str(&fold.gcd.to_string());
    s.push_str(",\"max_job\":");
    s.push_str(&fold.max_job.to_string());
    s.push_str(",\"pending_gc\":[");
    for (i, job) in fold.pending_gc.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_str_escaped(&mut s, job);
    }
    s.push_str("],\"jobs\":[");
    for (i, (id, e)) in fold.jobs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"job\":");
        push_str_escaped(&mut s, id);
        s.push_str(",\"spec\":");
        push_str_escaped(&mut s, &e.spec);
        s.push_str(",\"state\":\"");
        s.push_str(e.state.as_str());
        s.push('"');
        if let Some(err) = e.best_error {
            s.push_str(",\"best_error\":");
            push_f64(&mut s, err);
        }
        s.push_str(",\"best_unit\":");
        push_f64_array(&mut s, &e.best_unit);
        if let Some(d) = &e.detail {
            s.push_str(",\"detail\":");
            push_str_escaped(&mut s, d);
        }
        s.push('}');
    }
    s.push_str("]}");
    s
}

/// Loads a published checkpoint. Corruption here is loud: the rename
/// publish is atomic, so a checkpoint that parses wrong was damaged
/// after the fact and silently ignoring it would resurrect GC'd jobs.
fn load_checkpoint(path: &Path) -> Result<(Fold, u64), String> {
    let data = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read checkpoint {path:?}: {e}"))?;
    let v = Json::parse(data.trim()).map_err(|e| format!("corrupt checkpoint {path:?}: {e}"))?;
    let covers =
        v.get("covers")
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("corrupt checkpoint {path:?}: missing covers"))? as u64;
    let gcd = v
        .get("gcd")
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("corrupt checkpoint {path:?}: missing gcd"))? as u64;
    let max_job =
        v.get("max_job")
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("corrupt checkpoint {path:?}: missing max_job"))? as u64;
    let pending_gc: Vec<String> = v
        .get("pending_gc")
        .and_then(Json::as_arr)
        .map(|xs| {
            xs.iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    let mut jobs = BTreeMap::new();
    if let Some(arr) = v.get("jobs").and_then(Json::as_arr) {
        for jv in arr {
            let id = jv
                .get("job")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("corrupt checkpoint {path:?}: job without id"))?;
            let spec = jv
                .get("spec")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("corrupt checkpoint {path:?}: job {id} without spec"))?;
            let state_s = jv
                .get("state")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("corrupt checkpoint {path:?}: job {id} without state"))?;
            let state = JobState::parse(state_s).ok_or_else(|| {
                format!("corrupt checkpoint {path:?}: job {id} has unknown state `{state_s}`")
            })?;
            jobs.insert(
                id.to_string(),
                JobEntry {
                    spec: spec.to_string(),
                    state,
                    best_error: jv.get("best_error").and_then(Json::as_f64),
                    best_unit: jv
                        .get("best_unit")
                        .and_then(Json::as_arr)
                        .map(|xs| xs.iter().filter_map(Json::as_f64).collect())
                        .unwrap_or_default(),
                    detail: jv.get("detail").and_then(Json::as_str).map(str::to_string),
                },
            );
        }
    }
    Ok((
        Fold {
            jobs,
            pending_gc,
            gcd,
            max_job,
        },
        covers,
    ))
}

/// Numeric suffix of a `job-NNNN` id, for high-water tracking.
fn job_number(job: &str) -> Option<u64> {
    job.rsplit('-').next()?.parse().ok()
}

fn apply(fold: &mut Fold, v: &Json) -> Result<(), String> {
    let event = v
        .get("event")
        .and_then(Json::as_str)
        .ok_or("manifest line without an event")?;
    let job = v
        .get("job")
        .and_then(Json::as_str)
        .ok_or("manifest line without a job id")?
        .to_string();
    match event {
        "submit" => {
            let spec = v
                .get("spec")
                .and_then(Json::as_str)
                .ok_or("manifest submit without a spec")?
                .to_string();
            if let Some(n) = job_number(&job) {
                fold.max_job = fold.max_job.max(n);
            }
            fold.jobs.insert(
                job,
                JobEntry {
                    spec,
                    state: JobState::Submitted,
                    best_error: None,
                    best_unit: Vec::new(),
                    detail: None,
                },
            );
        }
        "gc" => {
            // Durable intent: the job is gone from the table now; the
            // directory removal may still be in flight (or lost to a
            // crash — then `pending_gc` resumes it on the next open).
            fold.jobs.remove(&job);
            if !fold.pending_gc.contains(&job) {
                fold.pending_gc.push(job);
            }
        }
        "gc_done" => {
            fold.pending_gc.retain(|j| j != &job);
            fold.gcd += 1;
        }
        "start" | "done" | "cancel" | "fail" | "quota" => {
            // An unknown job here means its submit line was lost to
            // corruption. That job is gone either way; skipping keeps
            // the daemon startable, which beats refusing to open.
            let Some(entry) = fold.jobs.get_mut(&job) else {
                eprintln!("datamime-served: skipping manifest {event} for unknown job {job}");
                return Ok(());
            };
            match event {
                "start" => entry.state = JobState::Running,
                "cancel" => entry.state = JobState::Cancelled,
                "fail" => {
                    entry.state = JobState::Failed;
                    entry.detail = v.get("detail").and_then(Json::as_str).map(str::to_string);
                }
                "quota" => {
                    entry.state = JobState::QuotaExceeded;
                    entry.best_error = v.get("best_error").and_then(Json::as_f64);
                    entry.best_unit = v
                        .get("best_unit")
                        .and_then(Json::as_arr)
                        .map(|xs| xs.iter().filter_map(Json::as_f64).collect())
                        .unwrap_or_default();
                    entry.detail = v.get("cause").and_then(Json::as_str).map(str::to_string);
                }
                _ => {
                    entry.state = JobState::Done;
                    entry.best_error = v.get("best_error").and_then(Json::as_f64);
                    entry.best_unit = v
                        .get("best_unit")
                        .and_then(Json::as_arr)
                        .map(|xs| xs.iter().filter_map(Json::as_f64).collect())
                        .unwrap_or_default();
                }
            }
        }
        other => return Err(format!("unknown manifest event `{other}`")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamime_runtime::diskfault::{DiskFaultKind, DiskFaultPlan};

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("datamime-manifest-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn with_faults(plan: DiskFaultPlan) -> ManifestOptions {
        ManifestOptions {
            segment_bytes: None,
            faults: Some(DiskFaultInjector::new(plan)),
        }
    }

    #[test]
    fn transitions_fold_and_survive_reopen() {
        let root = tmp("fold");
        {
            let (mut m, jobs) = Manifest::open(&root).unwrap();
            assert!(jobs.is_empty());
            m.submit("job-0001", "workload=mem-fb iters=4").unwrap();
            m.submit("job-0002", "workload=xapian iters=4").unwrap();
            m.start("job-0001").unwrap();
            m.start("job-0002").unwrap();
            m.done("job-0001", 0.25, &[0.5, 0.75]).unwrap();
            m.cancel("job-0002").unwrap();
        }
        let (_m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs["job-0001"].state, JobState::Done);
        assert_eq!(jobs["job-0001"].best_error, Some(0.25));
        assert_eq!(jobs["job-0001"].best_unit, vec![0.5, 0.75]);
        assert_eq!(jobs["job-0002"].state, JobState::Cancelled);
        assert_eq!(jobs["job-0002"].spec, "workload=xapian iters=4");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn failure_detail_is_preserved() {
        let root = tmp("fail");
        {
            let (mut m, _) = Manifest::open(&root).unwrap();
            m.submit("job-0001", "workload=nope").unwrap();
            m.fail("job-0001", "unknown workload \"nope\"").unwrap();
        }
        let (_m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(jobs["job-0001"].state, JobState::Failed);
        assert_eq!(
            jobs["job-0001"].detail.as_deref(),
            Some("unknown workload \"nope\"")
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn quota_stop_folds_with_best_so_far_and_cause() {
        let root = tmp("quota");
        {
            let (mut m, _) = Manifest::open(&root).unwrap();
            m.submit("job-0001", "workload=mem-fb iters=24 max_evals=8")
                .unwrap();
            m.start("job-0001").unwrap();
            m.quota("job-0001", 0.5, &[0.25], "max_evals").unwrap();
        }
        let (_m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(jobs["job-0001"].state, JobState::QuotaExceeded);
        assert_eq!(jobs["job-0001"].best_error, Some(0.5));
        assert_eq!(jobs["job-0001"].best_unit, vec![0.25]);
        assert_eq!(jobs["job-0001"].detail.as_deref(), Some("max_evals"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn two_phase_gc_folds_and_pending_intent_survives_crash() {
        let root = tmp("gc");
        {
            let (mut m, _) = Manifest::open(&root).unwrap();
            m.submit("job-0001", "workload=mem-fb").unwrap();
            m.done("job-0001", 0.5, &[]).unwrap();
            m.submit("job-0002", "workload=mem-fb").unwrap();
            m.gc_intent("job-0001").unwrap();
            // Crash here: directory removal never confirmed.
        }
        {
            let (mut m, jobs) = Manifest::open(&root).unwrap();
            assert!(!jobs.contains_key("job-0001"), "gc'd job left the table");
            assert_eq!(m.take_pending_gc(), vec!["job-0001".to_string()]);
            assert_eq!(m.wal_stats().gcd_jobs, 0);
            m.gc_done("job-0001").unwrap();
            assert!(m.take_pending_gc().is_empty());
            assert_eq!(m.wal_stats().gcd_jobs, 1);
        }
        let (m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(jobs.len(), 1);
        assert!(m.take_pending_gc().is_empty());
        // Numbering never recycles a GC'd id.
        assert_eq!(m.next_job_number(), 3);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn rotation_checkpoints_and_deletes_covered_segments() {
        let root = tmp("rotate");
        let opts = ManifestOptions {
            segment_bytes: Some(1), // rotate on every append after the first
            faults: None,
        };
        {
            let (mut m, _) = Manifest::open_with(&root, opts.clone()).unwrap();
            for i in 1..=5u32 {
                let job = format!("job-{i:04}");
                m.submit(&job, "workload=mem-fb iters=4").unwrap();
                m.start(&job).unwrap();
                m.done(&job, f64::from(i) * 0.1, &[0.5]).unwrap();
            }
            let stats = m.wal_stats();
            assert!(stats.checkpoint_seq > 0, "no checkpoint after rotations");
            assert!(
                stats.segments <= 2,
                "covered segments not deleted: {stats:?}"
            );
            assert_eq!(stats.checkpoint_failures, 0);
        }
        assert!(root.join(CHECKPOINT_FILE).exists());
        let (m, jobs) = Manifest::open_with(&root, opts).unwrap();
        assert_eq!(jobs.len(), 5);
        for i in 1..=5u32 {
            let e = &jobs[&format!("job-{i:04}")];
            assert_eq!(e.state, JobState::Done);
            assert_eq!(e.best_error, Some(f64::from(i) * 0.1));
        }
        assert_eq!(m.next_job_number(), 6);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_checkpoint_temp_is_removed_on_open() {
        let root = tmp("staletmp");
        {
            let (mut m, _) = Manifest::open(&root).unwrap();
            m.submit("job-0001", "workload=mem-fb").unwrap();
        }
        // Crash between temp write and rename leaves garbage here.
        std::fs::write(root.join(CHECKPOINT_TMP), b"{\"covers\":99,to").unwrap();
        let (_m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(jobs.len(), 1);
        assert!(!root.join(CHECKPOINT_TMP).exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stray_legacy_manifest_is_refused_loudly() {
        let root = tmp("legacy");
        std::fs::write(
            root.join(LEGACY_MANIFEST_FILE),
            "{\"event\":\"submit\",\"job\":\"job-0001\",\"spec\":\"workload=mem-fb\"}\n",
        )
        .unwrap();
        let err = Manifest::open(&root).expect_err("a manifest.log must not be ignored");
        assert!(err.contains("manifest.log"), "{err}");
        assert!(err.contains("no longer reads"), "{err}");
        // Nothing was renamed, created, or deleted on the way out.
        assert!(root.join(LEGACY_MANIFEST_FILE).exists());
        assert!(!root.join(segment_file_name(1)).exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_tail_is_ignored_but_interior_events_fold() {
        let root = tmp("torn");
        {
            let (mut m, _) = Manifest::open(&root).unwrap();
            m.submit("job-0001", "workload=mem-fb").unwrap();
            m.start("job-0001").unwrap();
        }
        // Simulate a crash mid-append: a torn, unparseable final line on
        // the active segment.
        let path = root.join(segment_file_name(1));
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"event\":\"done\",\"jo").unwrap();
        drop(f);
        let (_m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(jobs["job-0001"].state, JobState::Running);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_tail_is_truncated_so_post_restart_appends_survive() {
        let root = tmp("repair");
        {
            let (mut m, _) = Manifest::open(&root).unwrap();
            m.submit("job-0001", "workload=mem-fb").unwrap();
        }
        let path = root.join(segment_file_name(1));
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"event\":\"submit\",\"job\":\"job-00")
            .unwrap();
        drop(f);
        // Restart: the tear is repaired, and a fresh acknowledged event
        // appended afterwards must fold on the *next* restart too (the
        // original bug glued it onto the fragment and lost it).
        {
            let (mut m, jobs) = Manifest::open(&root).unwrap();
            assert_eq!(jobs.len(), 1);
            m.submit("job-0002", "workload=xapian").unwrap();
            m.start("job-0002").unwrap();
        }
        let (_m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(jobs["job-0002"].state, JobState::Running);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn events_for_unknown_jobs_are_skipped_not_fatal() {
        let root = tmp("orphan");
        std::fs::write(
            root.join(segment_file_name(1)),
            "{\"event\":\"start\",\"job\":\"job-0009\"}\n\
             {\"event\":\"submit\",\"job\":\"job-0001\",\"spec\":\"workload=mem-fb\"}\n\
             {\"event\":\"done\",\"job\":\"job-0009\",\"best_error\":0.5,\"best_unit\":[]}\n",
        )
        .unwrap();
        let (_m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs["job-0001"].state, JobState::Submitted);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_events_are_loud_even_in_old_segments() {
        let root = tmp("loud");
        std::fs::write(
            root.join(segment_file_name(1)),
            "{\"event\":\"explode\",\"job\":\"j\"}\n",
        )
        .unwrap();
        std::fs::write(
            root.join(segment_file_name(2)),
            "{\"event\":\"submit\",\"job\":\"job-0001\",\"spec\":\"workload=mem-fb\"}\n",
        )
        .unwrap();
        assert!(Manifest::open(&root).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_enospc_fails_the_append_and_flags_no_space() {
        let root = tmp("enospc");
        let plan = DiskFaultPlan::new().fail(DiskTarget::Manifest, 1, DiskFaultKind::NoSpace);
        {
            let (mut m, _) = Manifest::open_with(&root, with_faults(plan)).unwrap();
            m.submit("job-0001", "workload=mem-fb").unwrap(); // op 0 ok
            let err = m.start("job-0001").unwrap_err(); // op 1 injected
            assert!(err.no_space, "{err}");
            assert!(m.no_space_seen());
            // The failed event did not fold...
            assert_eq!(m.next_job_number(), 2);
            // ...and later appends still work on the repaired tail.
            m.cancel("job-0001").unwrap();
        }
        let (_m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(jobs["job-0001"].state, JobState::Cancelled);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_short_write_self_repairs_so_later_appends_fold() {
        let root = tmp("short");
        let plan = DiskFaultPlan::new().fail(DiskTarget::Manifest, 1, DiskFaultKind::ShortWrite);
        {
            let (mut m, _) = Manifest::open_with(&root, with_faults(plan)).unwrap();
            m.submit("job-0001", "workload=mem-fb").unwrap();
            assert!(m.start("job-0001").is_err()); // torn half-record, truncated back
            m.done("job-0001", 0.5, &[0.1]).unwrap();
        }
        let (_m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(jobs["job-0001"].state, JobState::Done);
        assert_eq!(jobs["job-0001"].best_error, Some(0.5));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_checkpoint_keeps_previous_one_authoritative() {
        let root = tmp("ckptfail");
        let opts = ManifestOptions {
            segment_bytes: Some(1),
            faults: Some(DiskFaultInjector::new(
                // Every checkpoint attempt hits ENOSPC.
                (0..64).fold(DiskFaultPlan::new(), |p, n| {
                    p.fail(DiskTarget::Checkpoint, n, DiskFaultKind::NoSpace)
                }),
            )),
        };
        {
            let (mut m, _) = Manifest::open_with(&root, opts).unwrap();
            for i in 1..=3u32 {
                let job = format!("job-{i:04}");
                m.submit(&job, "workload=mem-fb").unwrap();
                m.done(&job, 0.5, &[]).unwrap();
            }
            let stats = m.wal_stats();
            assert!(stats.checkpoint_failures > 0);
            assert_eq!(stats.checkpoint_seq, 0, "no checkpoint may publish");
            assert!(m.no_space_seen());
            // Without checkpoints no segment may be deleted: the chain
            // is the only copy of history.
            assert_eq!(stats.segments as usize, {
                let mut n = 0;
                for e in std::fs::read_dir(&root).unwrap().flatten() {
                    if parse_segment_name(&e.file_name().to_string_lossy()).is_some() {
                        n += 1;
                    }
                }
                n
            });
        }
        assert!(!root.join(CHECKPOINT_FILE).exists());
        assert!(!root.join(CHECKPOINT_TMP).exists());
        let (_m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(jobs.len(), 3);
        for e in jobs.values() {
            assert_eq!(e.state, JobState::Done);
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
