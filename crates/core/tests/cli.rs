//! The `datamime` binary's command lines: each command reads only its own
//! flags and the job-spec keys it runs on, and every mistake below exits 1
//! naming the flag or key at fault, before anything is profiled.

use std::path::PathBuf;
use std::process::Command;

/// Runs `datamime <args>` with no daemon root in the environment and
/// returns its exit code and stderr.
fn datamime(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_datamime"))
        .args(args)
        .env_remove("DATAMIME_SERVE_ROOT")
        .output()
        .expect("run datamime");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Asserts that `args` exits 1 with `named` in its error, without a
/// panic and without starting to profile.
fn refused(args: &[&str], named: &str) {
    let (code, stderr) = datamime(args);
    assert_eq!(code, Some(1), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(
        stderr.contains(named),
        "{args:?} must name {named}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(!stderr.contains("profiling"), "{args:?}: {stderr}");
}

#[test]
fn a_flag_outside_the_commands_table_is_refused_by_name() {
    let dir = std::env::temp_dir().join(format!("datamime-cli-{}", std::process::id()));
    let journal = dir.join("w.jsonl");
    let journal = journal.to_str().unwrap();
    refused(
        &[
            "clone",
            "mem-fb",
            "--iters",
            "2",
            "--workers",
            "3",
            "--journal",
            journal,
        ],
        "--iters",
    );
    assert!(!PathBuf::from(journal).exists());
    refused(
        &[
            "profile",
            "mem-fb",
            "--iters",
            "5",
            "--root",
            "/nonexistent",
            "--timeout",
            "3",
        ],
        "--iters",
    );
    refused(&["profile", "mem-fb", "--root", "/nonexistent"], "--root");
    refused(
        &[
            "clone",
            "mem-fb",
            "iters=1",
            "--root",
            "/x",
            "--timeout",
            "4",
        ],
        "--root",
    );
    refused(&["clone", "mem-fb", "iters=1", "--tsv"], "--tsv");
    refused(&["ctl", "list", "--paper"], "--paper");
    refused(&["ctl", "status", "job-1", "--iters", "3"], "--iters");
    refused(&["list", "--paper"], "--paper");
}

#[test]
fn an_old_search_flag_points_at_the_key_value_form() {
    for flag in [
        "--iters",
        "--machine",
        "--parallel",
        "--backend",
        "--workers",
        "--paper",
    ] {
        let (code, stderr) = datamime(&["clone", "mem-fb", flag, "2"]);
        assert_eq!(code, Some(1), "{stderr}");
        assert!(
            stderr.contains(&format!("clone has no flag {flag}")) && stderr.contains("key=value"),
            "{stderr}"
        );
    }
    refused(
        &["ctl", "wait", "job-0001", "--timeout-secs", "600"],
        "--timeout-secs",
    );
}

#[test]
fn each_command_takes_only_its_own_words() {
    refused(
        &["ctl", "status", "job-1", "job-2", "--root", "/nonexistent"],
        "job-1 job-2",
    );
    refused(
        &["ctl", "stats", "job-1", "--root", "/nonexistent"],
        "no arguments",
    );
    refused(&["profile", "mem-fb", "iters=5"], "`iters`");
    refused(&["profile", "mem-fb", "backend=proc"], "`backend`");
    refused(&["clone", "mem-fb", "worker_bin=/bin/true"], "`worker_bin`");
    refused(&["validate", "mem-fb", "iters=0"], "`iters`");
    refused(&["clone", "mem-fb", "iters=1000000"], "`iters`");
    refused(&["clone", "mem-fb", "machine=m1"], "m1");
    refused(&["clone", "nope", "iters=1"], "nope");
}

#[test]
fn values_past_what_a_duration_holds_are_refused_or_unbounded() {
    refused(
        &["clone", "mem-fb", "iters=1", "--eval-timeout", "1e300"],
        "--eval-timeout",
    );
    // A wait deadline past the clock's range is no deadline: the command
    // gets as far as the socket, which is not there.
    refused(
        &[
            "ctl",
            "wait",
            "job-0001",
            "--timeout",
            "18446744073709551615",
            "--root",
            "/nonexistent",
        ],
        "/nonexistent",
    );
}
