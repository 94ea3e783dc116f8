//! Diagnostics: the violations the audit reports, one `file:line` line
//! each.

use std::fmt;
use std::path::PathBuf;

/// One audit violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier: one of [`RULES`](crate::rules::RULES), or
    /// `unused-allow` / `allow-syntax` for a misfiring suppression.
    pub rule: &'static str,
    /// File the violation is in, relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line (0 when the violation is file-level).
    pub line: u32,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(
        rule: &'static str,
        file: impl Into<PathBuf>,
        line: u32,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            file: file.into(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_rendering_is_file_line_rule_message() {
        let d = Diagnostic::new("determinism", "crates/x/src/lib.rs", 12, "HashMap used");
        assert_eq!(
            d.to_string(),
            "crates/x/src/lib.rs:12: [determinism] HashMap used"
        );
    }
}
