//! The audit's policy: which paths each rule covers and what each rule
//! denies.
//!
//! The policy is explicit on purpose — the deterministic surface, the
//! durability paths, and the journal/wire sink lists are *policy*, not
//! something the tool can infer — and it is Rust, so a misspelt scope or
//! key is a compile error rather than an empty scope that silently
//! enforces nothing. The lists every policy shares are constants; a
//! [`Policy`] holds what differs between the workspace ([`WORKSPACE`])
//! and a fixture test's mini-workspace. Exceptions go in the source as
//! `// audit:allow(rule): reason` — never by shrinking these lists.

use std::path::Path;

/// The directory under the workspace root scanned for crates.
pub const SCAN_ROOT: &str = "crates";

/// Skipped entirely: the audit's own fixture corpus holds intentional
/// violations.
pub const EXCLUDE: &str = "crates/audit/tests/fixtures";

/// nondet-taint: identifiers denied outright in strict paths.
pub const DENY_IDENTS: &[&str] = &[
    "HashMap",
    "HashSet",
    "DefaultHasher",
    "RandomState",
    "thread_rng",
    "from_entropy",
];

/// nondet-taint: nondeterminism sources, as `Type::method` call paths or
/// bare fn names.
pub const SOURCES: &[&str] = &[
    "Instant::now",
    "SystemTime::now",
    "thread_rng",
    "from_entropy",
    "DefaultHasher::new",
    "RandomState::new",
];

/// nondet-taint: sink call names — the replay journal's record appenders
/// (its closing `done` record too), wire frame writes, and objective
/// observations.
pub const SINKS: &[&str] = &[
    "eval",
    "cache_hit",
    "fault",
    "attempt",
    "checkpoint",
    "done",
    "write_frame",
    "observe",
];

/// durability-protocol: calls that fsync a *directory* after a rename.
pub const DIRSYNC_FNS: &[&str] = &["sync_dir"];

/// What each rule covers. Paths are workspace-relative files or
/// directory prefixes.
#[derive(Debug, Clone, Copy)]
pub struct Policy {
    /// nondet-taint: where taint flow from [`SOURCES`] into [`SINKS`] is
    /// checked — wide coverage, whole crates.
    pub taint_paths: &'static [&'static str],
    /// nondet-taint: the narrow deterministic core, where
    /// [`DENY_IDENTS`] are denied outright on top of taint checking.
    pub strict_paths: &'static [&'static str],
    /// durability-protocol: files holding crash-safety-critical writers.
    pub durability_paths: &'static [&'static str],
    /// Each crate's row: the internal crates it may name in
    /// `[dependencies]`/`[build-dependencies]`. A crate absent from the
    /// matrix is itself a layering violation.
    pub layering: &'static [(&'static str, &'static [&'static str])],
}

/// Where the policy's diagnostics (matrix hygiene) point.
pub const POLICY_FILE: &str = "crates/audit/src/policy.rs";

/// Whether `rel` (workspace-relative) falls under any of `paths`.
pub fn in_scope(rel: &Path, paths: &[&str]) -> bool {
    paths.iter().any(|p| rel.starts_with(p))
}

/// The workspace's policy, checked by `datamime-audit check` and by the
/// self-check in `tests/audit.rs`. The paths name the surfaces on which
/// the runtime's guarantees rest. Exceptions go in the source as
/// `// audit:allow(rule): reason` — never by shrinking these lists.
pub const WORKSPACE: Policy = Policy {
    // Flow-sensitive: a violation is nondeterminism *reaching* a sink,
    // not a clock merely existing, so these can be whole crates.
    taint_paths: &[
        "crates/stats/src",
        "crates/sim/src",
        "crates/bayesopt/src",
        "crates/core/src",
        "crates/runtime/src",
        "crates/dist/src",
        "crates/serve/src",
    ],
    // HashMap iteration order is a type-level hazard taint tracking
    // cannot see past.
    strict_paths: &[
        "crates/stats/src",
        "crates/sim/src",
        "crates/bayesopt/src",
        "crates/core/src/arena.rs",
        "crates/core/src/profiler.rs",
        "crates/core/src/profile_store.rs",
        "crates/core/src/search.rs",
        "crates/runtime/src/journal.rs",
        "crates/runtime/src/executor.rs",
        "crates/runtime/src/backend.rs",
        "crates/runtime/src/supervisor.rs",
        "crates/runtime/src/memo.rs",
        "crates/dist/src/protocol.rs",
        "crates/dist/src/broker.rs",
        "crates/core/src/distproc.rs",
        "crates/core/src/compress.rs",
        "crates/serve/src/sched.rs",
        "crates/serve/src/manifest.rs",
        "crates/serve/src/server.rs",
        "crates/runtime/src/faultinject.rs",
    ],
    // The crash-safety write discipline (temp → write → fsync → rename →
    // dir-fsync for the manifest snapshot; append → fsync for journals).
    durability_paths: &[
        "crates/serve/src/manifest.rs",
        "crates/serve/src/server.rs",
        "crates/runtime/src/journal.rs",
    ],
    // Lower layers first. Dev-dependencies are exempt (test graph, not
    // product graph).
    layering: &[
        ("datamime-stats", &[]),
        ("datamime-sim", &["datamime-stats"]),
        ("datamime-apps", &["datamime-stats", "datamime-sim"]),
        (
            "datamime-loadgen",
            &["datamime-stats", "datamime-sim", "datamime-apps"],
        ),
        ("datamime-bayesopt", &["datamime-stats"]),
        ("datamime-runtime", &["datamime-bayesopt"]),
        // The broker/worker plane sees evaluations only as opaque f64 bits, so
        // it needs the runtime's supervision types and nothing above them.
        ("datamime-dist", &["datamime-runtime"]),
        (
            "datamime",
            &[
                "datamime-stats",
                "datamime-sim",
                "datamime-apps",
                "datamime-loadgen",
                "datamime-bayesopt",
                "datamime-runtime",
                "datamime-dist",
            ],
        ),
        (
            "datamime-perfproxy",
            &[
                "datamime-stats",
                "datamime-sim",
                "datamime-apps",
                "datamime-loadgen",
                "datamime",
            ],
        ),
        (
            "datamime-experiments",
            &[
                "datamime-stats",
                "datamime-sim",
                "datamime-apps",
                "datamime-loadgen",
                "datamime-bayesopt",
                "datamime-perfproxy",
                "datamime-runtime",
                "datamime",
            ],
        ),
        (
            "datamime-bench",
            &[
                "datamime-stats",
                "datamime-sim",
                "datamime-apps",
                "datamime-bayesopt",
                "datamime-dist",
            ],
        ),
        // The service plane sits on top: it schedules core searches and reuses
        // the runtime's gates/metrics/journals.
        ("datamime-serve", &["datamime-runtime", "datamime"]),
        // The auditor sits below every layer it audits: no internal deps, ever.
        ("datamime-audit", &[]),
    ],
};
