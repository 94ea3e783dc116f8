//! A minimal TOML subset parser (std-only, no crates.io access).
//!
//! Covers exactly what `audit.toml` and the workspace `Cargo.toml`s use:
//! `[table.paths]`, bare/quoted/dotted keys, basic strings, booleans,
//! (possibly multi-line) arrays, and inline tables. Numbers and dates are
//! accepted but kept as opaque text — no audit rule reads them.
//! `[[bin]]`-style arrays of tables are flattened: every occurrence
//! re-opens the table, so `Doc::table("bin")` returns all entries of all
//! occurrences concatenated — enough for scanning target paths, where the
//! grouping does not matter. Multi-line strings are not supported
//! (rejected with an error naming the line); nothing in this workspace
//! uses them.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A basic or literal string.
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// An array of values.
    Array(Vec<Value>),
    /// An inline table `{ k = v, … }`.
    Inline(BTreeMap<String, Value>),
    /// Anything else (numbers, dates) kept as raw text.
    Other(String),
}

impl Value {
    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// One `key = value` entry with the 1-based line it was defined on.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Dotted key as written (`datamime-stats.workspace` keeps the dot).
    pub key: String,
    /// The parsed value.
    pub value: Value,
    /// 1-based source line of the key.
    pub line: u32,
}

/// A parsed document: entries grouped under their table headers. The
/// top-level (pre-header) table has the empty-string name.
#[derive(Debug, Default)]
pub struct Doc {
    tables: Vec<(String, Vec<Entry>)>,
}

impl Doc {
    /// The entries of table `name` (`""` for the top level), empty if the
    /// table is absent. Concatenates re-opened tables.
    pub fn table(&self, name: &str) -> Vec<&Entry> {
        self.tables
            .iter()
            .filter(|(n, _)| n == name)
            .flat_map(|(_, entries)| entries)
            .collect()
    }

    /// Looks up `key` in table `name`.
    pub fn get(&self, table: &str, key: &str) -> Option<&Entry> {
        self.table(table).into_iter().find(|e| e.key == key)
    }
}

/// A parse failure with its 1-based line.
#[derive(Debug)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based line of the failure.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a TOML document (see the module docs for the supported subset).
pub fn parse(src: &str) -> Result<Doc, ParseError> {
    let mut p = Parser {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
    };
    let mut doc = Doc::default();
    let mut current = (String::new(), Vec::new());
    loop {
        p.skip_trivia();
        let Some(c) = p.peek() else { break };
        if c == '[' {
            doc.tables.push(std::mem::replace(
                &mut current,
                (p.table_header()?, Vec::new()),
            ));
        } else {
            let line = p.line;
            let key = p.dotted_key()?;
            p.skip_spaces();
            if p.peek() != Some('=') {
                return p.fail("expected `=` after key");
            }
            p.bump();
            p.skip_spaces();
            let value = p.value()?;
            current.1.push(Entry { key, value, line });
        }
    }
    doc.tables.push(current);
    Ok(doc)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn fail<T>(&self, message: &str) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.to_string(),
            line: self.line,
        })
    }

    /// Skips spaces and tabs only (not newlines).
    fn skip_spaces(&mut self) {
        while matches!(self.peek(), Some(' ') | Some('\t')) {
            self.bump();
        }
    }

    /// Skips whitespace (including newlines) and `#` comments.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while self.peek().is_some_and(|c| c != '\n') {
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn table_header(&mut self) -> Result<String, ParseError> {
        self.bump(); // '['
        let array_of_tables = self.peek() == Some('[');
        if array_of_tables {
            self.bump(); // second '[' of `[[bin]]`
        }
        let mut name = String::new();
        while let Some(c) = self.peek() {
            if c == ']' {
                self.bump();
                if array_of_tables {
                    if self.peek() != Some(']') {
                        return self.fail("expected `]]` closing array-of-tables header");
                    }
                    self.bump();
                }
                return Ok(name.trim().to_string());
            }
            if c == '\n' {
                break;
            }
            name.push(c);
            self.bump();
        }
        self.fail("unterminated table header")
    }

    fn dotted_key(&mut self) -> Result<String, ParseError> {
        let mut key = String::new();
        loop {
            self.skip_spaces();
            key.push_str(&self.key_segment()?);
            self.skip_spaces();
            if self.peek() == Some('.') {
                self.bump();
                key.push('.');
            } else {
                return Ok(key);
            }
        }
    }

    fn key_segment(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some('"') | Some('\'') => self.quoted_string(),
            Some(c) if c.is_alphanumeric() || c == '_' || c == '-' => {
                let mut seg = String::new();
                while let Some(c) = self.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '-' {
                        seg.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                Ok(seg)
            }
            _ => self.fail("expected a key"),
        }
    }

    fn quoted_string(&mut self) -> Result<String, ParseError> {
        let quote = self.bump().expect("caller saw the quote");
        let mut s = String::new();
        while let Some(c) = self.bump() {
            if c == quote {
                return Ok(s);
            }
            if c == '\n' {
                break;
            }
            if quote == '"' && c == '\\' {
                match self.bump() {
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some(other) => {
                        s.push('\\');
                        s.push(other);
                    }
                    None => break,
                }
            } else {
                s.push(c);
            }
        }
        self.fail("unterminated string")
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some('"') | Some('\'') => Ok(Value::Str(self.quoted_string()?)),
            Some('[') => {
                self.bump();
                let mut items = Vec::new();
                loop {
                    self.skip_trivia(); // arrays may span lines
                    match self.peek() {
                        Some(']') => {
                            self.bump();
                            return Ok(Value::Array(items));
                        }
                        Some(_) => {
                            items.push(self.value()?);
                            self.skip_trivia();
                            if self.peek() == Some(',') {
                                self.bump();
                            } else if self.peek() != Some(']') {
                                return self.fail("expected `,` or `]` in array");
                            }
                        }
                        None => return self.fail("unterminated array"),
                    }
                }
            }
            Some('{') => {
                self.bump();
                let mut map = BTreeMap::new();
                loop {
                    self.skip_spaces();
                    match self.peek() {
                        Some('}') => {
                            self.bump();
                            return Ok(Value::Inline(map));
                        }
                        Some(_) => {
                            let key = self.dotted_key()?;
                            self.skip_spaces();
                            if self.peek() != Some('=') {
                                return self.fail("expected `=` in inline table");
                            }
                            self.bump();
                            self.skip_spaces();
                            let value = self.value()?;
                            map.insert(key, value);
                            self.skip_spaces();
                            if self.peek() == Some(',') {
                                self.bump();
                            } else if self.peek() != Some('}') {
                                return self.fail("expected `,` or `}` in inline table");
                            }
                        }
                        None => return self.fail("unterminated inline table"),
                    }
                }
            }
            Some(_) => {
                // Bare scalar: bool, number, date — raw text up to a
                // delimiter.
                let mut raw = String::new();
                while let Some(c) = self.peek() {
                    if c == '\n' || c == ',' || c == ']' || c == '}' || c == '#' {
                        break;
                    }
                    raw.push(c);
                    self.bump();
                }
                let raw = raw.trim().to_string();
                match raw.as_str() {
                    "true" => Ok(Value::Bool(true)),
                    "false" => Ok(Value::Bool(false)),
                    "" => self.fail("expected a value"),
                    _ => Ok(Value::Other(raw)),
                }
            }
            None => self.fail("expected a value"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_keys_and_values() {
        let doc = parse(
            r#"
            top = "level"
            [package]
            name = "datamime-audit"  # trailing comment
            publish = false
            [a.b]
            list = ["x", "y"]
            "#,
        )
        .unwrap();
        assert_eq!(doc.get("", "top").unwrap().value.as_str(), Some("level"));
        assert_eq!(
            doc.get("package", "name").unwrap().value.as_str(),
            Some("datamime-audit")
        );
        assert_eq!(
            doc.get("package", "publish").unwrap().value,
            Value::Bool(false)
        );
        assert_eq!(
            doc.get("a.b", "list")
                .unwrap()
                .value
                .as_array()
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn parses_dotted_keys_and_inline_tables() {
        let doc = parse(
            r#"
            [dependencies]
            datamime-stats.workspace = true
            other = { path = "crates/other", features = ["x"] }
            "#,
        )
        .unwrap();
        let entries = doc.table("dependencies");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].key, "datamime-stats.workspace");
        match &entries[1].value {
            Value::Inline(map) => assert_eq!(map["path"].as_str(), Some("crates/other")),
            other => panic!("expected inline table, got {other:?}"),
        }
    }

    #[test]
    fn multiline_arrays_with_comments_and_trailing_commas() {
        let doc = parse("[x]\npaths = [\n  \"a\", # one\n  \"b\",\n]\n").unwrap();
        let arr = doc
            .get("x", "paths")
            .unwrap()
            .value
            .as_array()
            .unwrap()
            .to_vec();
        assert_eq!(arr, vec![Value::Str("a".into()), Value::Str("b".into())]);
    }

    #[test]
    fn entry_lines_are_tracked() {
        let doc = parse("a = 1\n[t]\nb = 2\n").unwrap();
        assert_eq!(doc.get("", "a").unwrap().line, 1);
        assert_eq!(doc.get("t", "b").unwrap().line, 3);
    }

    #[test]
    fn arrays_of_tables_flatten_into_one_table() {
        let doc = parse(
            "[[bin]]\nname = \"a\"\npath = \"src/bin/a.rs\"\n\
             [[bin]]\nname = \"b\"\npath = \"src/bin/b.rs\"\n",
        )
        .unwrap();
        let paths: Vec<&str> = doc
            .table("bin")
            .into_iter()
            .filter(|e| e.key == "path")
            .filter_map(|e| e.value.as_str())
            .collect();
        assert_eq!(paths, vec!["src/bin/a.rs", "src/bin/b.rs"]);
    }

    #[test]
    fn errors_carry_lines() {
        let err = parse("[t]\nkey\n").unwrap_err();
        assert_eq!(err.line, 2);
    }
}
