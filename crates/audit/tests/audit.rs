//! End-to-end audit runs: each fixture mini-workspace under
//! `tests/fixtures/` trips exactly its intended rule (and its clean
//! twin passes), the CLI reports violations with a non-zero exit, and
//! — the self-check — the live workspace passes with zero violations.

use datamime_audit::config::AuditConfig;
use datamime_audit::diagnostics::Diagnostic;
use datamime_audit::run_check;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn check_fixture(name: &str) -> Vec<Diagnostic> {
    let root = fixture_root(name);
    let cfg = AuditConfig::load(&root.join("audit.toml")).expect("fixture config loads");
    run_check(&root, &cfg)
        .expect("fixture scan succeeds")
        .diagnostics
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule).collect()
}

fn assert_clean(name: &str) {
    let diags = check_fixture(name);
    assert!(diags.is_empty(), "{name} should pass: {diags:?}");
}

#[test]
fn nondet_taint_fixture_flags_the_flow_and_the_strict_container() {
    let diags = check_fixture("nondet_taint");
    assert_eq!(rules_of(&diags), vec!["nondet-taint"; 4], "{diags:?}");
    // One flow diagnostic at the sink, naming source and sink…
    let flow: Vec<_> = diags
        .iter()
        .filter(|d| d.message.contains("flows into"))
        .collect();
    assert_eq!(flow.len(), 1, "{diags:?}");
    assert!(flow[0].message.contains("Instant::now"));
    assert!(flow[0].message.contains("`observe`"));
    assert!(flow[0].file.ends_with("crates/taint/src/lib.rs"));
    // …and three strict-path container mentions (use + type + new).
    let strict = diags
        .iter()
        .filter(|d| d.message.contains("strict deterministic path"))
        .count();
    assert_eq!(strict, 3, "{diags:?}");
}

#[test]
fn nondet_taint_clean_twin_passes() {
    // Same policy, but the clock feeds a log line (not the sink) and
    // the strict half uses BTreeMap.
    assert_clean("nondet_taint_clean");
}

#[test]
fn durability_fixture_flags_all_three_protocol_gaps() {
    let diags = check_fixture("durability");
    assert_eq!(
        rules_of(&diags),
        vec!["durability-protocol"; 3],
        "{diags:?}"
    );
    assert!(diags
        .iter()
        .any(|d| d.message.contains("without `sync_all`")));
    assert!(diags
        .iter()
        .any(|d| d.message.contains("publishes `out` before it is fsynced")));
    assert!(diags.iter().any(|d| d.message.contains("directory fsync")));
}

#[test]
fn durability_clean_twin_passes() {
    // create-temp -> write -> sync_all -> rename -> sync_dir.
    assert_clean("durability_clean");
}

#[test]
fn swallowed_result_fixture_flags_every_discard_shape() {
    let diags = check_fixture("swallowed_result");
    assert_eq!(rules_of(&diags), vec!["swallowed-result"; 3], "{diags:?}");
    assert!(diags[0].message.contains("`let _ =`"), "{diags:?}");
    assert!(diags[1].message.contains("`.ok()`"), "{diags:?}");
    assert!(diags[2].message.contains("unread"), "{diags:?}");
}

#[test]
fn swallowed_result_clean_twin_passes_with_a_used_allow() {
    // `?` propagation plus one reasoned audit:allow on a best-effort
    // cleanup; an unused allow would itself be a violation.
    assert_clean("swallowed_result_clean");
}

#[test]
fn wire_compat_fixture_fails_a_kind_addition_without_a_revision_bump() {
    // The acceptance scenario: `Frame::Retire` exists in the source,
    // the committed lock predates it, and WIRE_REVISION never moved.
    let diags = check_fixture("wire_compat");
    assert_eq!(rules_of(&diags), vec!["wire-compat"], "{diags:?}");
    assert!(diags[0].message.contains("`Frame::Retire`"), "{diags:?}");
    assert!(diags[0].message.contains("without a revision bump"));
    assert_eq!(diags[0].line, 18, "points at the new match arm");
}

#[test]
fn wire_compat_clean_twin_passes_when_the_revision_moved_too() {
    assert_clean("wire_compat_clean");
}

#[test]
fn panic_safety_fixture_trips_only_panic_safety() {
    let diags = check_fixture("panic_safety");
    assert_eq!(rules_of(&diags), vec!["panic-safety"; 3], "{diags:?}");
    assert_eq!(diags[0].line, 6, "unwrap site");
    assert_eq!(diags[1].line, 7, "expect site");
    assert_eq!(diags[2].line, 9, "panic! site");
}

#[test]
fn layering_fixture_flags_the_skipped_layer() {
    let diags = check_fixture("layering");
    assert_eq!(rules_of(&diags), vec!["layering"], "{diags:?}");
    assert!(diags[0].file.ends_with("crates/top/Cargo.toml"));
    assert!(diags[0].message.contains("`top` may not depend on `base`"));
}

#[test]
fn misfiring_allows_are_themselves_violations() {
    let diags = check_fixture("unused_allow");
    let mut rules = rules_of(&diags);
    rules.sort_unstable();
    assert_eq!(
        rules,
        vec![
            "allow-syntax",
            "allow-syntax",
            "allow-syntax",
            "unused-allow"
        ],
        "{diags:?}"
    );
    // A deleted rule's name is an unknown rule like any other typo.
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "allow-syntax" && d.message.contains("unknown rule `lock-order`")),
        "{diags:?}"
    );
}

#[test]
fn scope_entries_matching_no_file_are_reported() {
    // Two entries name a deleted file; the live directory and file
    // entries beside them stay quiet.
    let diags = check_fixture("stale_scope");
    assert_eq!(
        rules_of(&diags),
        vec!["nondet-taint", "swallowed-result"],
        "{diags:?}"
    );
    for d in &diags {
        assert!(d.file.ends_with("crates/core/src/gone.rs"), "{d:?}");
        assert!(d.message.contains("matches no scanned file"), "{d:?}");
    }
    assert!(diags[0].message.contains("`[nondet-taint] strict-paths`"));
    assert!(diags[1].message.contains("`[swallowed-result] paths`"));
}

#[test]
fn clean_fixture_passes_and_its_allow_counts_as_used() {
    assert_clean("clean");
}

fn audit_cli(args: &[&str], root: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_datamime-audit"))
        .args(args)
        .arg("--root")
        .arg(root)
        .output()
        .expect("audit binary runs")
}

/// The facts cache and the SARIF and JSON renderers are gone, and so are
/// their switches: asking for one is a usage error, not a silent no-op.
#[test]
fn removed_cache_and_sarif_switches_are_usage_errors() {
    let root = fixture_root("clean");
    for args in [
        ["check", "--no-cache"],
        ["check", "--format=sarif"],
        ["check", "--format=json"],
    ] {
        let out = audit_cli(&args, &root);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

/// Copies a fixture into a scratch dir so a CLI test can mutate it.
fn copy_fixture(name: &str, tag: &str) -> PathBuf {
    let dst = std::env::temp_dir().join(format!("audit-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dst);
    fn walk(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).expect("mkdir");
        for entry in std::fs::read_dir(from).expect("readdir") {
            let entry = entry.expect("entry");
            let target = to.join(entry.file_name());
            if entry.file_type().expect("ftype").is_dir() {
                walk(&entry.path(), &target);
            } else {
                std::fs::copy(entry.path(), &target).expect("copy");
            }
        }
    }
    walk(&fixture_root(name), &dst);
    dst
}

/// `wire-lock --update` must refuse to paper over an unbumped kind
/// change; `--force` is the explicit escape hatch.
#[test]
fn wire_lock_update_refuses_unbumped_kind_changes() {
    let scratch = copy_fixture("wire_compat", "wirelock");
    let refused = audit_cli(&["wire-lock", "--update"], &scratch);
    assert_eq!(refused.status.code(), Some(1), "unbumped update must fail");
    assert!(
        String::from_utf8_lossy(&refused.stderr).contains("refusing to re-baseline"),
        "{}",
        String::from_utf8_lossy(&refused.stderr)
    );
    let forced = audit_cli(&["wire-lock", "--update", "--force"], &scratch);
    assert_eq!(forced.status.code(), Some(0), "--force must succeed");
    let lock = std::fs::read_to_string(scratch.join("audit.wire.lock")).expect("lock rewritten");
    assert!(lock.contains("kind Frame::Retire = 3"), "{lock}");
    // After the forced re-baseline the audit is clean again.
    let clean = audit_cli(&["check", "--quiet"], &scratch);
    assert_eq!(clean.status.code(), Some(0));
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn cli_exits_nonzero_on_a_fixture_and_zero_on_the_workspace() {
    let bad = audit_cli(&["check"], &fixture_root("panic_safety"));
    assert_eq!(bad.status.code(), Some(1), "fixture must fail the audit");
    let report = String::from_utf8_lossy(&bad.stdout);
    assert!(
        report.starts_with("crates/eval/src/lib.rs:6: [panic-safety] "),
        "{report}"
    );

    let good = audit_cli(&["check"], &workspace_root());
    assert_eq!(
        good.status.code(),
        Some(0),
        "live workspace must pass: {}",
        String::from_utf8_lossy(&good.stdout)
    );
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/audit sits two levels below the root")
        .to_path_buf()
}

/// The self-check gate: the workspace this crate ships in must audit
/// clean under its own committed policy — all six rules.
#[test]
fn live_workspace_audits_clean() {
    let root = workspace_root();
    let cfg = AuditConfig::load(&root.join("audit.toml")).expect("workspace audit.toml loads");
    let report = run_check(&root, &cfg).expect("workspace scan succeeds");
    assert!(
        report.diagnostics.is_empty(),
        "live workspace has audit violations:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the scan actually covered the workspace, and the policy
    // actually engages the new rule families.
    assert!(report.crates_scanned >= 10, "{}", report.crates_scanned);
    assert!(report.files_scanned >= 50, "{}", report.files_scanned);
    assert!(
        !cfg.durability.paths.is_empty(),
        "durability policy engaged"
    );
    assert!(
        !cfg.swallowed_result.paths.is_empty(),
        "swallowed-result engaged"
    );
    assert!(!cfg.wire_compat.files.is_empty(), "wire-compat engaged");
}
