//! Property tests for the one fault grammar, `FaultPlan::from_spec`: the
//! decoder every `--fault` flag feeds with bytes from a command line.
//!
//! Three invariants:
//!
//! 1. **No input panics the parser.** Arbitrary strings — random bytes,
//!    and token soups built from the grammar's own words, separators and
//!    overflowing numbers — come back `Ok` or `Err`, never a panic. An
//!    `Err` names an entry of the input; an `Ok` plan re-parses from its
//!    canonical `to_spec` to itself.
//! 2. **Generated plans round-trip.** Any plan built through the public
//!    builders survives `to_spec` → `from_spec` unchanged.
//! 3. **Bad entries are refused by name.** A kind on the wrong site,
//!    `@attempts` on a write site, `@0`, or an extra field, spliced into
//!    an otherwise valid plan, fails the whole spec with an error naming
//!    that entry.

use datamime_runtime::{EvalFault, FaultPlan, WriteFault, WriteSite};
use proptest::prelude::*;

/// Fragments the soup strategy strings together: the grammar's words and
/// separators, near-miss words, and numbers at and past every bound.
const TOKENS: [&str; 32] = [
    "eval",
    "manifest",
    "journal",
    "gcdir",
    "floppy",
    "panic",
    "nan",
    "inf",
    "stall",
    "kill",
    "enospc",
    "short",
    "syncfail",
    "crash",
    ":",
    ":",
    ";",
    ";",
    "@",
    "@",
    "0",
    "1",
    "7",
    "4294967296",
    "18446744073709551616",
    "-1",
    "+3",
    " ",
    "é",
    "\u{0}",
    "stall",
    "\n",
];

fn soup() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..TOKENS.len(), 0..24)
        .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect())
}

fn noise() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..16).prop_map(|words| {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// One plan entry as builder arguments: `(eval?, index/nth, kind, attempts, stall ms)`.
type EntryArgs = (bool, u64, usize, u32, u32);

fn entries() -> impl Strategy<Value = Vec<EntryArgs>> {
    prop::collection::vec(
        (
            any::<bool>(),
            any::<u64>(),
            0usize..5,
            0u32..4,
            any::<u32>(),
        ),
        0..8,
    )
}

fn build(entries: &[EntryArgs]) -> FaultPlan {
    entries
        .iter()
        .fold(FaultPlan::new(), |plan, &(eval, n, kind, attempts, ms)| {
            if eval {
                let kind = [
                    EvalFault::Panic,
                    EvalFault::Nan,
                    EvalFault::Inf,
                    EvalFault::KillWorker,
                    EvalFault::StallMs(u64::from(ms)),
                ][kind];
                match attempts {
                    0 => plan.fail(n as usize, kind),
                    k => plan.fail_first(n as usize, kind, k),
                }
            } else {
                let site = [WriteSite::Manifest, WriteSite::Journal, WriteSite::GcDir][kind % 3];
                let fault = [
                    WriteFault::NoSpace,
                    WriteFault::ShortWrite,
                    WriteFault::SyncFail,
                    WriteFault::Crash,
                ][attempts as usize];
                plan.fail_write(site, n, fault)
            }
        })
}

/// Entries every parse must refuse, each naming a different rule.
fn bad_entry(shape: usize, n: u64) -> String {
    match shape {
        0 => format!("eval:{n}:enospc"),
        1 => format!("manifest:{n}:kill"),
        2 => format!("journal:{n}:short@2"),
        3 => format!("eval:{n}:panic@0"),
        4 => format!("eval:{n}:nan:extra"),
        _ => format!("gcdir:{n}:crash:1"),
    }
}

fn check_parse(input: &str) -> Result<(), String> {
    match FaultPlan::from_spec(input) {
        Ok(plan) => {
            let again = FaultPlan::from_spec(&plan.to_spec());
            prop_assert_eq!(again, Ok(plan), "canonical re-parse of {:?}", input);
        }
        Err(e) => {
            let named = input
                .split(';')
                .any(|entry| !entry.is_empty() && e.starts_with(&format!("fault `{entry}`:")));
            prop_assert!(named, "error {:?} names no entry of {:?}", e, input);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn token_soup_never_panics_and_errors_name_an_entry(input in soup()) {
        check_parse(&input)?;
    }

    #[test]
    fn random_bytes_never_panic_and_errors_name_an_entry(input in noise()) {
        check_parse(&input)?;
    }

    #[test]
    fn generated_plans_round_trip_through_to_spec(entries in entries()) {
        let plan = build(&entries);
        let spec = plan.to_spec();
        prop_assert_eq!(FaultPlan::from_spec(&spec), Ok(plan.clone()), "spec {:?}", spec);
        prop_assert_eq!(spec.split(';').filter(|e| !e.is_empty()).count(), entries.len());
    }

    #[test]
    fn a_bad_entry_is_refused_by_name(
        entries in entries(),
        shape in 0usize..6,
        n in any::<u64>(),
        at in any::<usize>(),
    ) {
        let bad = bad_entry(shape, n);
        let spec = build(&entries).to_spec();
        let mut parts: Vec<&str> = spec.split(';').filter(|e| !e.is_empty()).collect();
        parts.insert(at % (parts.len() + 1), &bad);
        let err = FaultPlan::from_spec(&parts.join(";")).expect_err("a bad entry must fail the spec");
        prop_assert!(err.starts_with(&format!("fault `{bad}`:")), "{}", err);
    }
}
