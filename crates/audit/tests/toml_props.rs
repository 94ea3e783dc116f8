//! Property tests for the hand-rolled TOML subset parser, the third
//! decoder of untrusted text next to the lexer and the runtime's JSON.
//!
//! Three properties:
//!
//! 1. **Total.** Arbitrary text, and mutated or truncated copies of the
//!    committed `audit.toml` and the workspace `Cargo.toml`s, parse to
//!    `Ok` or `Err` — never a panic, never a hang, never a stack
//!    overflow.
//! 2. **Depth 128 parses.** Arrays and inline tables nested
//!    [`MAX_DEPTH`] deep are accepted.
//! 3. **Depth 129 is an error** that names its line, however deep the
//!    input goes past it.

use datamime_audit::toml::{parse, MAX_DEPTH};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Characters that steer the parser into its interesting states.
const ALPHABET: &[char] = &[
    '[', ']', '{', '}', '=', '"', '\'', '#', ',', '.', '\n', ' ', '\t', '\\', 'a', 'z', '-', '_',
    '0', '1', 't', 'r', 'u', 'e', 'é',
];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/audit sits two levels below the root")
        .to_path_buf()
}

/// The committed TOML the auditor reads: the policy and every manifest.
fn committed_toml() -> Vec<(PathBuf, String)> {
    let root = workspace_root();
    let mut paths = vec![root.join("audit.toml"), root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates"))
        .expect("crates/ lists")
        .flatten()
    {
        let manifest = entry.path().join("Cargo.toml");
        if manifest.is_file() {
            paths.push(manifest);
        }
    }
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("committed TOML reads");
            (p, text)
        })
        .collect()
}

/// SplitMix64: a fixed-seed generator, so a failure names a reproducible
/// case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn char(&mut self) -> char {
        if self.below(4) == 0 {
            char::from_u32(self.below(0x800) as u32).unwrap_or('?')
        } else {
            ALPHABET[self.below(ALPHABET.len())]
        }
    }
}

/// Parses `text` and fails if it panicked or took over a second.
fn assert_total(what: &str, text: &str) {
    let start = Instant::now();
    let parsed = std::panic::catch_unwind(|| parse(text));
    let shown: String = text.chars().take(200).collect();
    assert!(parsed.is_ok(), "{what}: parse panicked on {shown:?}");
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "{what}: {} bytes took {:?}",
        text.len(),
        start.elapsed()
    );
}

#[test]
fn arbitrary_text_never_panics_or_hangs() {
    let mut rng = Rng(0x7011_5EED);
    for _ in 0..4000 {
        let len = rng.below(256);
        let text: String = (0..len).map(|_| rng.char()).collect();
        assert_total("arbitrary text", &text);
    }
}

#[test]
fn committed_toml_parses_and_its_truncations_never_panic() {
    let files = committed_toml();
    assert!(files.len() >= 10, "found only {} TOML files", files.len());
    for (path, text) in files {
        assert!(parse(&text).is_ok(), "{} must parse", path.display());
        for (cut, _) in text.char_indices() {
            assert_total(&format!("{} cut at {cut}", path.display()), &text[..cut]);
        }
    }
}

#[test]
fn mutated_committed_toml_never_panics() {
    let mut rng = Rng(0xA0D1_7000);
    for (path, text) in committed_toml() {
        let original: Vec<char> = text.chars().collect();
        for _ in 0..300 {
            let mut chars = original.clone();
            for _ in 0..1 + rng.below(8) {
                let at = rng.below(chars.len() + 1);
                match rng.below(3) {
                    0 if at < chars.len() => chars[at] = rng.char(),
                    1 if at < chars.len() => {
                        chars.remove(at);
                    }
                    _ => chars.insert(at, rng.char()),
                }
            }
            let mutant: String = chars.into_iter().collect();
            assert_total(&format!("mutated {}", path.display()), &mutant);
        }
    }
}

/// `x = ` followed by `depth` levels of arrays (or inline tables), on
/// line 2.
fn nested(depth: usize, open: &str, close: &str) -> String {
    format!("[t]\nx = {}1{}\n", open.repeat(depth), close.repeat(depth))
}

#[test]
fn nesting_to_the_cap_parses() {
    for (open, close) in [("[", "]"), ("{ a = ", " }")] {
        let text = nested(MAX_DEPTH, open, close);
        assert!(parse(&text).is_ok(), "depth {MAX_DEPTH} of {open:?}");
    }
}

#[test]
fn nesting_past_the_cap_is_an_error_with_its_line() {
    for (open, close) in [("[", "]"), ("{ a = ", " }")] {
        for depth in [MAX_DEPTH + 1, 200_000] {
            let err = parse(&nested(depth, open, close)).unwrap_err();
            assert_eq!(err.line, 2, "depth {depth} of {open:?}");
            assert!(err.message.contains("nested too deeply"), "{err}");
        }
    }
    // Unclosed: the case that used to overflow the stack.
    let err = parse(&format!("x = {}", "[".repeat(200_000))).unwrap_err();
    assert!(err.message.contains("nested too deeply"), "{err}");
}
