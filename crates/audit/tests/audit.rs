//! End-to-end audit runs: each fixture mini-workspace under
//! `tests/fixtures/` trips exactly its intended rule under its own small
//! policy (and its clean twin passes), the CLI reports violations with a
//! non-zero exit and finds the workspace root on its own, and — the
//! self-check — the live workspace passes with zero violations and still
//! carries the lint attributes that replaced two former rules.

use datamime_audit::diagnostics::Diagnostic;
use datamime_audit::policy::{Policy, WORKSPACE};
use datamime_audit::run_check;
use std::path::{Path, PathBuf};
use std::process::Command;

/// What every fixture policy starts from: no scope and no layering row
/// until the fixture names its own. The source, sink and denylist
/// constants are the workspace's.
const FIXTURE: Policy = Policy {
    taint_paths: &[],
    strict_paths: &[],
    durability_paths: &[],
    layering: &[],
};

/// The `taint` crate's policy, shared by the nondet-taint fixture and
/// its clean twin.
const TAINT: Policy = Policy {
    taint_paths: &["crates/taint/src"],
    strict_paths: &["crates/taint/src/strict.rs"],
    layering: &[("taint", &[])],
    ..FIXTURE
};

/// The `dur` crate's policy, shared by the durability fixture and its
/// clean twin.
const DUR: Policy = Policy {
    durability_paths: &["crates/dur/src"],
    layering: &[("dur", &[])],
    ..FIXTURE
};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn check_fixture(name: &str, policy: &Policy) -> Vec<Diagnostic> {
    run_check(&fixture_root(name), policy)
        .expect("fixture scan succeeds")
        .diagnostics
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule).collect()
}

fn assert_clean(name: &str, policy: &Policy) {
    let diags = check_fixture(name, policy);
    assert!(diags.is_empty(), "{name} should pass: {diags:?}");
}

#[test]
fn nondet_taint_fixture_flags_the_flow_and_the_strict_container() {
    let diags = check_fixture("nondet_taint", &TAINT);
    assert_eq!(rules_of(&diags), vec!["nondet-taint"; 5], "{diags:?}");
    // One flow diagnostic at each sink — the objective observation and
    // the journal's closing record — naming source and sink…
    let flow: Vec<_> = diags
        .iter()
        .filter(|d| d.message.contains("flows into"))
        .collect();
    assert_eq!(flow.len(), 2, "{diags:?}");
    for (d, sink) in flow.iter().zip(["`observe`", "`done`"]) {
        assert!(d.message.contains("Instant::now"), "{d:?}");
        assert!(d.message.contains(sink), "{d:?}");
        assert!(d.file.ends_with("crates/taint/src/lib.rs"));
    }
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
    assert_clean("nondet_taint_clean", &TAINT);
}

#[test]
fn durability_fixture_flags_all_three_protocol_gaps() {
    let diags = check_fixture("durability", &DUR);
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
    assert_clean("durability_clean", &DUR);
}

#[test]
fn layering_fixture_flags_the_skipped_layer() {
    let policy = Policy {
        layering: &[("base", &[]), ("mid", &["base"]), ("top", &["mid"])],
        ..FIXTURE
    };
    let diags = check_fixture("layering", &policy);
    assert_eq!(rules_of(&diags), vec!["layering"], "{diags:?}");
    assert!(diags[0].file.ends_with("crates/top/Cargo.toml"));
    assert!(diags[0].message.contains("`top` may not depend on `base`"));
}

#[test]
fn misfiring_allows_are_themselves_violations() {
    let policy = Policy {
        layering: &[("stale", &[])],
        ..FIXTURE
    };
    let diags = check_fixture("unused_allow", &policy);
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
    // Two entries name the deleted `gone.rs`; the live directory and
    // file entries beside them stay quiet.
    let policy = Policy {
        taint_paths: &["crates/core/src"],
        strict_paths: &["crates/core/src/gone.rs"],
        durability_paths: &["crates/core/src/gone.rs", "crates/core/src/lib.rs"],
        layering: &[("core", &[])],
    };
    let diags = check_fixture("stale_scope", &policy);
    assert_eq!(
        rules_of(&diags),
        vec!["durability-protocol", "nondet-taint"],
        "{diags:?}"
    );
    for d in &diags {
        assert!(d.file.ends_with("crates/core/src/gone.rs"), "{d:?}");
        assert!(d.message.contains("matches no scanned file"), "{d:?}");
    }
    assert!(diags[0].message.contains("`durability_paths`"));
    assert!(diags[1].message.contains("`strict_paths`"));
}

#[test]
fn clean_fixture_passes_and_its_allow_counts_as_used() {
    let policy = Policy {
        taint_paths: &["crates/tidy/src"],
        layering: &[("tidy", &[])],
        ..FIXTURE
    };
    assert_clean("clean", &policy);
}

fn audit_cli(args: &[&str], root: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_datamime-audit"))
        .args(args)
        .arg("--root")
        .arg(root)
        .output()
        .expect("audit binary runs")
}

/// The facts cache, the SARIF and JSON renderers, the wire lock and the
/// policy file are gone, and so are their switches: asking for one is a
/// usage error, not a silent no-op.
#[test]
fn removed_cache_and_sarif_switches_are_usage_errors() {
    let root = fixture_root("clean");
    for args in [
        &["check", "--no-cache"][..],
        &["check", "--format=sarif"],
        &["check", "--format=json"],
        &["check", "--update"],
        &["check", "--config", "audit.toml"],
        &["check", "--config=audit.toml"],
        &["wire-lock"],
        &["wire-lock", "--update", "--force"],
    ] {
        let out = audit_cli(args, &root);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

/// The CLI applies the workspace policy wherever `--root` points: a
/// fixture's crate is in no row of its layering matrix.
#[test]
fn cli_exits_nonzero_on_a_fixture_and_zero_on_the_workspace() {
    let bad = audit_cli(&["check"], &fixture_root("durability"));
    assert_eq!(bad.status.code(), Some(1), "fixture must fail the audit");
    let report = String::from_utf8_lossy(&bad.stdout);
    assert!(
        report.lines().any(|l| l.starts_with(
            "crates/dur/Cargo.toml:0: [layering] crate `dur` is not in the layering matrix"
        )),
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

/// Without `--root`, `check` walks up to the `Cargo.toml` that holds
/// `[workspace]`; with no such manifest above it, it is a usage error.
#[test]
fn check_finds_the_workspace_root_from_a_member_and_refuses_outside_one() {
    let from = |dir: &Path| {
        Command::new(env!("CARGO_BIN_EXE_datamime-audit"))
            .arg("check")
            .current_dir(dir)
            .output()
            .expect("audit binary runs")
    };
    let member = from(&workspace_root().join("crates/core"));
    assert_eq!(
        member.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&member.stderr)
    );

    let outside = std::env::temp_dir().join(format!("audit-no-workspace-{}", std::process::id()));
    std::fs::create_dir_all(&outside).expect("temp dir");
    let out = from(&outside);
    let _ = std::fs::remove_dir(&outside);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no Cargo.toml with [workspace]"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The self-check gate: the workspace this crate ships in must audit
/// clean under its own policy — all three rules.
#[test]
fn live_workspace_audits_clean() {
    let root = workspace_root();
    let report = run_check(&root, &WORKSPACE).expect("workspace scan succeeds");
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
        !WORKSPACE.durability_paths.is_empty(),
        "durability policy engaged"
    );
    assert!(
        !WORKSPACE.strict_paths.is_empty(),
        "nondet-taint strict paths engaged"
    );
}

/// The module attributes that deny panicking shortcuts outside tests,
/// whitespace removed.
const PANIC_LINTS: &str = "#![cfg_attr(not(test),deny(clippy::unwrap_used,clippy::expect_used))]\
     #![cfg_attr(not(test),deny(clippy::panic,clippy::unreachable))]\
     #![cfg_attr(not(test),deny(clippy::todo,clippy::unimplemented))]";
/// The module attributes that deny silently discarded results outside
/// tests, whitespace removed.
const DISCARD_LINTS: &str = "#![cfg_attr(not(test),deny(clippy::let_underscore_must_use))]\
     #![cfg_attr(not(test),deny(clippy::unused_result_ok,unused_must_use))]";

/// Whether the file at `rel` (workspace-relative) carries `attr`,
/// whitespace aside.
fn carries(rel: &str, attr: &str) -> bool {
    let text = std::fs::read_to_string(workspace_root().join(rel)).expect("scoped file exists");
    let squeezed: String = text.split_whitespace().collect();
    squeezed.contains(attr)
}

/// `dir`'s `lib.rs` and every `bin/*.rs`: the crate roots whose
/// attributes cover every module under `dir`, a new one included.
fn crate_roots(dir: &str) -> Vec<String> {
    let bins = std::fs::read_dir(workspace_root().join(dir).join("bin")).expect("bin/ lists");
    let mut roots = vec![format!("{dir}/lib.rs")];
    roots.extend(
        bins.flatten()
            .map(|e| format!("{dir}/bin/{}", e.file_name().to_string_lossy())),
    );
    roots
}

/// The former `panic-safety` and `swallowed-result` rules are clippy
/// lints now; the module attributes are their scope, which must never
/// be narrower than the rules' was. `scripts/ci.sh` proves the lints
/// fire (the `lint_probe` fixture crate).
#[test]
fn lint_attributes_cover_the_former_rule_scopes() {
    for rel in [
        "crates/core/src/arena.rs",
        "crates/core/src/search.rs",
        "crates/core/src/compress.rs",
        "crates/runtime/src/backend.rs",
        "crates/core/src/profiler.rs",
        "crates/stats/src/emd.rs",
        "crates/core/src/profile.rs",
        "crates/core/src/error_model.rs",
        "crates/core/src/generator.rs",
        "crates/core/src/metrics.rs",
        "crates/loadgen/src/lib.rs",
        "crates/dist/src/protocol.rs",
        "crates/dist/src/broker.rs",
        "crates/dist/src/worker.rs",
    ] {
        assert!(carries(rel, PANIC_LINTS), "{rel} lost its panic lints");
    }
    let mut discard: Vec<String> = ["crates/serve/src", "crates/dist/src"]
        .into_iter()
        .flat_map(crate_roots)
        .collect();
    discard.extend(
        [
            "crates/runtime/src/journal.rs",
            "crates/runtime/src/faultinject.rs",
            "crates/runtime/src/termsig.rs",
        ]
        .map(String::from),
    );
    for rel in &discard {
        assert!(carries(rel, DISCARD_LINTS), "{rel} lost its discard lints");
    }
    // The probe must test the attributes the workspace actually uses.
    let probe = "crates/audit/tests/fixtures/lint_probe/src/lib.rs";
    assert!(carries(probe, PANIC_LINTS) && carries(probe, DISCARD_LINTS));
}
