//! Cooperative SIGTERM/SIGINT handling without `unsafe`.
//!
//! The workspace forbids `unsafe` code, so the classic
//! `signal(SIGTERM, handler)` route is closed. Instead, a binary that
//! wants graceful termination calls [`install`] first thing in `main`:
//!
//! - If [`TERM_SENTINEL_ENV`] is set (a test harness, CI, or a wrapper
//!   already installed one), the returned [`TermSignal`] simply polls
//!   that sentinel file — no process games at all.
//! - Otherwise [`install`] re-`exec`s the process under a `/bin/sh`
//!   trampoline (via the *safe* `CommandExt::exec`): the shell keeps the
//!   original PID, runs the real binary as its child with
//!   [`TERM_SENTINEL_ENV`] pointing at a fresh sentinel path, traps
//!   `TERM`/`INT` by creating the sentinel file, waits the child out, and
//!   exits with its status. `kill -TERM <pid>` therefore reaches the
//!   trampoline, which flips the sentinel, which the real process
//!   observes via [`TermSignal::requested`] at its next drain point.
//!
//! The indirection is deliberate: tests that want `SIGKILL` to hit the
//! *real* process (crash-resume coverage) set [`TERM_SENTINEL_ENV`]
//! themselves, which disables the trampoline entirely, and can request a
//! graceful drain signal-free by creating the sentinel file.
//!
//! Limitation: this observes only `TERM` and `INT` delivered to the
//! wrapped PID. It is a drain *request* mechanism, not a general signal
//! API — which is exactly what the serve daemon needs.

// Durability/IPC path: no discarded results outside tests (crates/audit/README.md).
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::unused_result_ok, unused_must_use))]

use std::path::{Path, PathBuf};

/// Environment variable naming the sentinel file whose existence means
/// "terminate gracefully". Setting it yourself disables the trampoline.
pub const TERM_SENTINEL_ENV: &str = "DATAMIME_TERM_SENTINEL";

/// The shell trampoline: `"$@"` is the real binary and its arguments.
/// `: >` (not `touch`) creates the sentinel so only shell builtins are
/// needed. A trap interrupts `wait` with status > 128 while the child is
/// still alive, hence the re-`wait` loop guarded by `kill -0`.
const TRAP_SCRIPT: &str = r#"
"$@" &
child=$!
trap ': > "$DATAMIME_TERM_SENTINEL"' TERM INT
status=143
while :; do
  if wait "$child"; then
    status=0
    break
  else
    status=$?
    kill -0 "$child" 2>/dev/null || break
  fi
done
rm -f "$DATAMIME_TERM_SENTINEL"
exit "$status"
"#;

/// A handle polling the termination sentinel; see the module docs.
#[derive(Debug, Clone)]
pub struct TermSignal {
    path: PathBuf,
}

impl TermSignal {
    /// A signal backed by the sentinel file at `path` (which need not
    /// exist yet — existence *is* the signal).
    pub fn at(path: PathBuf) -> Self {
        TermSignal { path }
    }

    /// Whether termination has been requested (the sentinel exists).
    pub fn requested(&self) -> bool {
        self.path.exists()
    }

    /// The sentinel path (hand it to tests or child processes).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Requests termination programmatically by creating the sentinel —
    /// what the admin `shutdown` command and tests use.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the sentinel cannot be created.
    pub fn trigger(&self) -> std::io::Result<()> {
        std::fs::write(&self.path, b"terminate\n")
    }
}

/// Installs graceful-termination handling for the current process and
/// returns the [`TermSignal`] to poll at drain points. Call this before
/// spawning threads or opening sockets: on the first run it replaces the
/// process image with the shell trampoline (same PID), and only the
/// re-executed child actually continues past this point.
///
/// Never fails: if the trampoline cannot be installed (no `/bin/sh`, no
/// `current_exe`), the returned signal still works programmatically via
/// [`TermSignal::trigger`] — only external `kill -TERM` goes unobserved.
pub fn install() -> TermSignal {
    if let Ok(path) = std::env::var(TERM_SENTINEL_ENV) {
        if !path.is_empty() {
            return TermSignal::at(PathBuf::from(path));
        }
    }
    let path = std::env::temp_dir().join(format!("datamime-term-{}.sentinel", std::process::id()));
    #[expect(
        clippy::let_underscore_must_use,
        reason = "a stale sentinel from a previous pid usually does not exist — creation below is authoritative"
    )]
    let _ = std::fs::remove_file(&path);
    let Ok(exe) = std::env::current_exe() else {
        return TermSignal::at(path);
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    use std::os::unix::process::CommandExt;
    // exec() only returns on failure; on success the trampoline now owns
    // this PID and the child it spawns re-enters install() with the
    // sentinel env set, taking the polling branch above.
    let _err = std::process::Command::new("/bin/sh")
        .arg("-c")
        .arg(TRAP_SCRIPT)
        .arg("datamime-trap")
        .arg(&exe)
        .args(&args)
        .env(TERM_SENTINEL_ENV, &path)
        .exec();
    TermSignal::at(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("datamime-termsig-{}-{name}", std::process::id()))
    }

    #[test]
    fn sentinel_existence_is_the_signal() {
        let path = tmp("basic");
        let _ = std::fs::remove_file(&path);
        let sig = TermSignal::at(path.clone());
        assert!(!sig.requested());
        sig.trigger().unwrap();
        assert!(sig.requested());
        let clone = sig.clone();
        assert!(clone.requested());
        std::fs::remove_file(&path).unwrap();
        assert!(!sig.requested());
    }

    #[test]
    fn trampoline_script_uses_only_shell_builtins_and_the_env() {
        // Guard against accidental edits that would break minimal shells:
        // the script may rely on the sentinel env var, not a literal path,
        // and must not call external binaries beyond rm/kill.
        assert!(TRAP_SCRIPT.contains("$DATAMIME_TERM_SENTINEL"));
        assert!(!TRAP_SCRIPT.contains("touch"));
        assert!(TRAP_SCRIPT.contains("trap"));
        assert!(TRAP_SCRIPT.contains("wait"));
    }
}
