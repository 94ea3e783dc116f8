//! Property tests for the JSON decoder, `Json::parse`, and the journal
//! reader built on it: the code that reads run journals and the serve
//! daemon's `manifest.json` back from disk, where a crash, a full disk or
//! a stray editor can leave any bytes at all.
//!
//! Five invariants:
//!
//! 1. **No input panics the parser, and none takes long.** Random bytes,
//!    soups of JSON's own punctuation, and real journal and manifest
//!    lines with bytes overwritten and a tail cut off come back `Ok` or
//!    `Err`, never a panic or a stack overflow; an input of a megabyte
//!    parses in seconds at most, not minutes.
//! 2. **Nesting is capped.** Arrays and objects nested up to `MAX_DEPTH`
//!    parse; one level more is an error, however deep the input goes.
//! 3. **The writers round-trip.** `push_f64` of any finite value and
//!    `push_str_escaped` of any string parse back to the same bits and
//!    the same text.
//! 4. **A damaged journal replays to a prefix of whole records.** With
//!    random bytes overwritten, appended, or a tail cut off, `replay`
//!    keeps a prefix of the original's records and never panics.
//! 5. **Reopen then append replays cleanly.** `JournalWriter::reopen` on a
//!    journal with random bytes appended or a tail cut off leaves a prefix
//!    of the original's whole lines, and a record appended after it
//!    replays as that prefix plus the new record.

use datamime_runtime::json::{push_f64, push_str_escaped, Json, MAX_DEPTH};
use datamime_runtime::{
    replay, EvalRecord, FailedAttempt, FailureKind, FaultInfo, JournalWriter, RunMeta,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A manifest snapshot in the shape `datamime-served` writes.
const MANIFEST: &str = "{\"revision\":3,\"gcd\":1,\"max_job\":2,\"pending_gc\":[\"job-0001\"],\
\"jobs\":[{\"job\":\"job-0002\",\"spec\":\"workload=mem-fb iters=4 seed=7\",\"state\":\"done\",\
\"best_error\":0.4375,\"best_unit\":[0.25,1,0],\"detail\":\"quota \\\"evals\\\"\\n\"}]}";

/// Fragments the soup strategy strings together: JSON's punctuation,
/// literals and near-misses, escapes, and numbers past every bound.
const TOKENS: [&str; 24] = [
    "{", "}", "[", "]", ":", ",", "\"", "\"k\"", "\\", "\\u00e9", "\\ud800", "\\x", "true", "nul",
    "-", "0", "1e999", "-0.5E+3", ".", " ", "\n", "é", "\u{0}", "\"∞\"",
];

fn soup() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..TOKENS.len(), 0..48)
        .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect())
}

fn noise() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u64>(), 0..24)
        .prop_map(|words| words.iter().flat_map(|w| w.to_le_bytes()).collect())
}

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..24).prop_map(|words| {
        words
            .into_iter()
            .filter_map(|w| char::from_u32(w % 0x11_0000))
            .collect()
    })
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("datamime-json-props-{}-{name}", std::process::id()))
}

fn record(index: usize, error: f64) -> EvalRecord {
    EvalRecord {
        index,
        unit: vec![0.125 * index as f64, 1.0 / 3.0],
        error,
        stage_ms: vec![("profile".to_string(), 12.5)],
        fault: None,
        cached: None,
        worker: None,
    }
}

/// A journal holding every post-header event kind but `done`, written
/// once by the real writer: its bytes and the number of records `replay`
/// reads from it.
fn sample_journal() -> (Vec<u8>, usize) {
    static JOURNAL: OnceLock<Vec<u8>> = OnceLock::new();
    (JOURNAL.get_or_init(write_sample_journal).clone(), 5)
}

fn write_sample_journal() -> Vec<u8> {
    let path = tmp("sample.jsonl");
    let meta = RunMeta {
        label: "mem-fb \"quoted\"".to_string(),
        seed: u64::MAX,
        dims: 2,
        iterations: 8,
        batch_k: 2,
        workers: 2,
        optimizer: "bayesian".to_string(),
    };
    let mut w = JournalWriter::create(&path, &meta).unwrap();
    w.eval(&record(0, 0.75)).unwrap();
    w.attempt(&FailedAttempt {
        index: 1,
        attempt: 0,
        kind: FailureKind::Panic,
        detail: "panic with non-string payload".to_string(),
        worker: Some(2),
    })
    .unwrap();
    let mut fault = record(1, 1e6);
    fault.stage_ms.clear();
    fault.fault = Some(FaultInfo {
        kind: FailureKind::Panic,
        detail: "panic with non-string payload".to_string(),
        retries: 0,
    });
    w.fault(&fault).unwrap();
    w.eval(&record(2, 0.5)).unwrap();
    let mut hit = record(3, 0.75);
    hit.cached = Some(0);
    w.cache_hit(&hit).unwrap();
    w.checkpoint(4, 0.5, &[0.25, 1.0 / 3.0]).unwrap();
    w.eval(&record(4, 0.25)).unwrap();
    drop(w);
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

/// Lines of `bytes` ending at each newline, as byte offsets.
fn line_ends(bytes: &[u8]) -> Vec<usize> {
    (0..bytes.len())
        .filter(|&i| bytes[i] == b'\n')
        .map(|i| i + 1)
        .collect()
}

/// Parses `input` and fails the case if it panicked or took over a second.
fn check_parse(input: &str) -> Result<Option<Json>, String> {
    let start = Instant::now();
    let parsed = std::panic::catch_unwind(|| Json::parse(input).ok());
    prop_assert!(
        start.elapsed() < Duration::from_secs(1),
        "{} bytes took {:?}",
        input.len(),
        start.elapsed()
    );
    parsed.map_err(|_| format!("Json::parse panicked on {input:?}"))
}

#[test]
fn a_megabyte_parses_in_bounded_time() {
    for input in [
        format!("\"{}\"", "é".repeat(500_000)),
        format!("[{}0]", "0.5,".repeat(250_000)),
        "[".repeat(1_000_000),
        format!("{}1", "{\"a\":".repeat(200_000)),
    ] {
        let start = Instant::now();
        let _ = Json::parse(&input);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{:?}",
            start.elapsed()
        );
    }
}

#[test]
fn real_lines_parse() {
    let (journal, _) = sample_journal();
    for line in String::from_utf8(journal).unwrap().lines() {
        assert!(Json::parse(line).is_ok(), "{line}");
    }
    assert!(Json::parse(MANIFEST).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic_the_parser(bytes in noise()) {
        check_parse(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn punctuation_soups_never_panic_the_parser(input in soup()) {
        check_parse(&input)?;
    }

    #[test]
    fn mutated_lines_never_panic_the_parser(
        pick in 0usize..8,
        edits in prop::collection::vec((any::<usize>(), any::<u32>()), 1..4),
        cut in any::<usize>(),
    ) {
        let (journal, _) = sample_journal();
        let journal = String::from_utf8(journal).unwrap();
        let lines: Vec<&str> = journal.lines().chain([MANIFEST]).collect();
        let mut bytes = lines[pick % lines.len()].as_bytes().to_vec();
        for (at, value) in edits {
            let at = at % bytes.len();
            bytes[at] = value as u8;
        }
        bytes.truncate(bytes.len() - cut % (bytes.len() / 4 + 1));
        check_parse(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn nesting_is_capped_at_max_depth(depth in 0usize..4 * MAX_DEPTH, object in any::<bool>()) {
        let (open, close) = if object { ("{\"k\":", "}") } else { ("[", "]") };
        let input = open.repeat(depth) + "0" + &close.repeat(depth);
        let parsed = check_parse(&input)?;
        prop_assert_eq!(parsed.is_some(), depth <= MAX_DEPTH, "depth {}", depth);
    }

    #[test]
    fn finite_floats_round_trip(bits in any::<u64>()) {
        let x = f64::from_bits(bits);
        prop_assume!(x.is_finite());
        let mut s = String::new();
        push_f64(&mut s, x);
        let back = Json::parse(&s).map_err(|e| e.to_string())?;
        prop_assert_eq!(back.as_f64().map(f64::to_bits), Some(bits), "{}", s);
    }

    #[test]
    fn escaped_strings_round_trip(original in text()) {
        let mut s = String::new();
        push_str_escaped(&mut s, &original);
        let back = Json::parse(&s).map_err(|e| e.to_string())?;
        prop_assert_eq!(back.as_str(), Some(original.as_str()), "{}", s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a_damaged_journal_replays_to_a_prefix_of_its_records(
        edits in prop::collection::vec((any::<usize>(), any::<u32>()), 0..4),
        tail in noise(),
        cut in any::<usize>(),
    ) {
        let (journal, records) = sample_journal();
        let clean = {
            let path = tmp("clean.jsonl");
            std::fs::write(&path, &journal).unwrap();
            let clean = replay(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            clean
        };
        prop_assert_eq!(clean.evals.len(), records);
        let mut bytes = journal.clone();
        for (at, value) in edits {
            let at = at % bytes.len();
            bytes[at] = value as u8;
        }
        bytes.truncate(cut % (bytes.len() + 1));
        bytes.extend_from_slice(&tail);
        let path = tmp(&format!("damaged-{cut}.jsonl"));
        std::fs::write(&path, &bytes).unwrap();
        let replayed = std::panic::catch_unwind(|| replay(&path));
        let _ = std::fs::remove_file(&path);
        let replayed = match replayed {
            Ok(Ok(replayed)) => replayed,
            Ok(Err(_)) => return Ok(()), // a damaged header is refused
            Err(_) => return Err("replay panicked".to_string()),
        };
        prop_assert!(replayed.valid_len as usize <= bytes.len());
        for (got, want) in replayed.evals.iter().zip(&clean.evals) {
            // An overwritten digit can still parse; the shape cannot change.
            prop_assert_eq!(got.index, want.index);
            prop_assert_eq!(got.unit.len(), want.unit.len());
        }
    }

    #[test]
    fn reopen_then_append_replays_the_prefix_plus_the_record(
        append in any::<bool>(),
        tail in noise(),
        cut in any::<usize>(),
    ) {
        let (journal, _) = sample_journal();
        let header_len = line_ends(&journal)[0] - 1;
        let mut bytes = journal.clone();
        if append {
            bytes.extend_from_slice(&tail);
        } else {
            bytes.truncate(cut % (journal.len() + 1));
        }
        let path = tmp(&format!("reopen-{append}-{cut}.jsonl"));
        std::fs::write(&path, &bytes).unwrap();
        let reopened = JournalWriter::reopen(&path);
        let result = (|| {
            let (before, mut w) = match reopened {
                Ok(ok) => ok,
                Err(e) => {
                    prop_assert!(bytes.len() < header_len, "refused {} bytes: {}", bytes.len(), e);
                    return Ok(());
                }
            };
            let kept = std::fs::read(&path).unwrap();
            prop_assert!(journal.starts_with(&kept), "kept bytes are not the journal's");
            prop_assert!(line_ends(&journal).contains(&kept.len()), "kept {} bytes", kept.len());
            let valid = before.valid_len as usize;
            prop_assert!(kept.len() == valid || kept.len() == valid + 1, "{} vs {}", kept.len(), valid);

            let next = record(before.evals.len(), 0.0625);
            w.eval(&next).unwrap();
            drop(w);
            let after = replay(&path).unwrap();
            prop_assert_eq!(after.dropped_lines, 0);
            prop_assert_eq!(after.evals.len(), before.evals.len() + 1);
            for (a, b) in after.evals.iter().zip(&before.evals) {
                prop_assert!(a.semantic_eq(b), "{:?} vs {:?}", a, b);
            }
            prop_assert!(after.evals.last().unwrap().semantic_eq(&next));
            Ok(())
        })();
        let _ = std::fs::remove_file(&path);
        result?;
    }
}
