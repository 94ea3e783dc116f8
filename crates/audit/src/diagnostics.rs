//! Diagnostics: the violations the audit reports, with `file:line` spans
//! and two renderings (human-readable lines and `--format=json`).

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

/// Renders diagnostics as a JSON array (one object per diagnostic with
/// `rule`, `file`, `line`, `message` fields), for `--format=json`.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"rule\":");
        push_json_str(&mut out, d.rule);
        out.push_str(",\"file\":");
        push_json_str(&mut out, &d.file.display().to_string());
        out.push_str(",\"line\":");
        out.push_str(&d.line.to_string());
        out.push_str(",\"message\":");
        push_json_str(&mut out, &d.message);
        out.push('}');
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
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

    #[test]
    fn json_escapes_and_structures() {
        let diags = vec![
            Diagnostic::new("layering", "a/Cargo.toml", 3, "dep \"x\" not allowed"),
            Diagnostic::new("lock-order", "b.rs", 9, "cycle: a -> b -> a"),
        ];
        let json = to_json(&diags);
        assert!(json.starts_with('['));
        assert!(json.contains("\"rule\":\"layering\""));
        assert!(json.contains("\\\"x\\\""));
        assert!(json.contains("\"line\":9"));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(to_json(&[]).trim(), "[]");
    }
}
