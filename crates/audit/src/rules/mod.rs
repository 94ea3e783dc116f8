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
pub mod panic_safety;
pub mod swallowed_result;
pub mod wire_compat;

/// Every rule identifier an `audit:allow(...)` comment may name.
/// (`nondet-taint` superseded PR 3's `determinism`; the flow-aware
/// families landed with the audit-v2 engine.)
pub const RULES: [&str; 6] = [
    "nondet-taint",
    "panic-safety",
    "layering",
    "durability-protocol",
    "swallowed-result",
    "wire-compat",
];
