//! The audit rules.
//!
//! Each rule consumes lexed [`SourceFile`](crate::source::SourceFile)s
//! (most now via the structural [`parser`](crate::parser)) or parsed
//! manifests and emits [`Diagnostic`](crate::diagnostics::Diagnostic)s;
//! the engine in [`crate::run_check`] owns scoping (which files a rule
//! sees) and the `audit:allow` suppression pass.

pub mod durability;
pub mod layering;
pub mod nondet_taint;
pub mod wire_compat;

/// Every rule identifier an `audit:allow(...)` comment may name.
/// (`nondet-taint` superseded the older `determinism` rule;
/// `panic-safety` and `swallowed-result` became clippy lints, see
/// crates/audit/README.md.)
pub const RULES: [&str; 4] = [
    "nondet-taint",
    "layering",
    "durability-protocol",
    "wire-compat",
];
