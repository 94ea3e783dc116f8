//! Property tests for the core crate's text decoders: `JobSpec::parse`,
//! which the serve daemon runs on every `submit` line a client sends;
//! the `servectl` reply parsers, which `datamime ctl` runs on whatever
//! comes back over the socket; and `Profile::from_tsv`, which reads a
//! shared profile file.
//!
//! Three invariants, per decoder:
//!
//! 1. **No input panics the decoder.** Random text, and soups built from
//!    each grammar's own words, separators and out-of-range numbers, come
//!    back `Ok` or `Err`, never a panic.
//! 2. **What is accepted is canonical.** A job spec parsed from any line
//!    re-parses from its `to_line` to itself.
//! 3. **Generated values round-trip.** `JobSpec::parse(to_line(s)) == s`,
//!    and `Profile::from_tsv(to_tsv(p))` holds the same samples and curve
//!    as `p`, bit for bit.

use datamime::servectl::records;
use datamime::{
    CurvePoint, DistMetric, JobBackend, JobResult, JobSpec, JobState, JobStatus, Profile,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Words of the job-spec, reply and profile grammars, near misses, and
/// numbers at and past every bound.
const TOKENS: [&str; 40] = [
    "workload=",
    "iters=",
    "seed=",
    "machine=",
    "batch=",
    "workers=",
    "backend=",
    "paper=",
    "curves=",
    "grid=",
    "worker_bin=",
    "max_evals=",
    "wall_clock_s=",
    "state=",
    "evals=",
    "iterations=",
    "best_error=",
    "best_unit=",
    "journal=",
    "END",
    "STAT",
    "ipc",
    "llc_mpki_curve@",
    "ipc_curve@",
    "metric\tvalue",
    "mem-fb",
    "proc",
    "true",
    "done",
    "0",
    "1",
    "-1",
    "inf",
    "NaN",
    "18446744073709551616",
    "1e999",
    ",",
    "=",
    " ",
    "\n",
];

fn soup() -> impl Strategy<Value = String> {
    prop::collection::vec((0usize..TOKENS.len(), any::<bool>()), 0..24).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(i, tab)| format!("{}{}", TOKENS[i], if tab { "\t" } else { "" }))
            .collect()
    })
}

fn noise() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..24).prop_map(|words| {
        words
            .into_iter()
            .filter_map(|w| char::from_u32(w % 0x11_0000))
            .collect()
    })
}

fn hostile() -> impl Strategy<Value = String> {
    prop_oneof![soup(), noise()]
}

/// A non-empty value without whitespace, as a spec line can carry one.
fn word() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 1..12).prop_map(|words| {
        let s: String = words
            .into_iter()
            .filter_map(|w| char::from_u32(w % 0x11_0000))
            .filter(|c| !c.is_whitespace())
            .collect();
        if s.is_empty() {
            "x".to_string()
        } else {
            s
        }
    })
}

fn option<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), s).prop_map(|(some, v)| some.then_some(v))
}

fn spec() -> impl Strategy<Value = JobSpec> {
    (
        (
            word(),
            1usize..1 << 20,
            any::<u64>(),
            word(),
            any::<usize>(),
            any::<usize>(),
        ),
        (
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            option(1u32..=u32::MAX),
        ),
        (
            option(word()),
            option(1usize..usize::MAX),
            option(1u64..u64::MAX),
        ),
    )
        .prop_map(
            |(
                (workload, iters, seed, machine, batch, workers),
                (proc, paper, curves, grid),
                (worker_bin, max_evals, wall_clock_s),
            )| JobSpec {
                workload,
                iters,
                seed,
                machine,
                batch,
                workers,
                backend: if proc {
                    JobBackend::Proc
                } else {
                    JobBackend::Thread
                },
                paper,
                curves,
                grid,
                worker_bin: worker_bin.map(PathBuf::from),
                max_evals,
                wall_clock_s,
            },
        )
}

/// Any finite `f64`: arbitrary bit patterns, non-finite ones folded to
/// their mantissa so subnormals and signed zeros stay in play.
fn finite() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            f64::from_bits(bits & 0x000f_ffff_ffff_ffff)
        }
    })
}

fn profile() -> impl Strategy<Value = Profile> {
    (
        prop::collection::vec((0usize..DistMetric::ALL.len(), finite()), 1..40),
        prop::collection::vec((1u64..1 << 20, finite(), finite()), 0..6),
    )
        .prop_map(|(samples, curve)| {
            let mut dists: BTreeMap<DistMetric, Vec<f64>> = BTreeMap::new();
            for (m, v) in samples {
                dists.entry(DistMetric::ALL[m]).or_default().push(v);
            }
            // Strictly increasing sizes: the TSV keys curve rows by size.
            let mut bytes = 0;
            let curve = curve
                .into_iter()
                .map(|(step, llc_mpki, ipc)| {
                    bytes += step;
                    CurvePoint {
                        cache_bytes: bytes,
                        llc_mpki,
                        ipc,
                    }
                })
                .collect();
            Profile::from_parts(dists, curve).expect("at least one sample")
        })
}

/// A profile's sample bits per metric and its curve rows' bits.
type ProfileBits = (Vec<Vec<u64>>, Vec<(u64, u64, u64)>);

fn profile_bits(p: &Profile) -> ProfileBits {
    let dists = DistMetric::ALL
        .iter()
        .map(|&m| p.dist(m).samples().iter().map(|x| x.to_bits()).collect())
        .collect();
    let curve = p
        .curve()
        .iter()
        .map(|c| (c.cache_bytes, c.llc_mpki.to_bits(), c.ipc.to_bits()))
        .collect();
    (dists, curve)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_lines_never_panic_the_spec_parser(line in hostile()) {
        if let Ok(spec) = JobSpec::parse(&line) {
            let again = spec.to_line().and_then(|l| JobSpec::parse(&l));
            prop_assert_eq!(again, Ok(spec), "canonical re-parse of {:?}", line);
        }
    }

    #[test]
    fn generated_specs_round_trip(spec in spec()) {
        let line = spec.to_line()?;
        prop_assert_eq!(JobSpec::parse(&line), Ok(spec), "{}", line);
    }

    #[test]
    fn hostile_replies_never_panic_the_reply_parsers(reply in hostile()) {
        let _ = JobStatus::parse(&reply);
        let _ = JobResult::parse(&reply);
        let _ = records(&reply);
        let _ = JobState::parse(&reply);
        let _ = JobStatus::parse(&format!("{reply}\n"));
        let _ = JobResult::parse(&format!("{reply}\nEND\n"));
    }

    #[test]
    fn hostile_tsv_never_panics_the_profile_parser(text in hostile()) {
        if let Ok(p) = Profile::from_tsv(&text) {
            let again = Profile::from_tsv(&p.to_tsv()).map_err(|e| e.to_string())?;
            prop_assert_eq!(profile_bits(&again), profile_bits(&p));
        }
    }

    #[test]
    fn generated_profiles_round_trip_bit_for_bit(p in profile()) {
        let back = Profile::from_tsv(&p.to_tsv()).map_err(|e| e.to_string())?;
        prop_assert_eq!(profile_bits(&back), profile_bits(&p));
        prop_assert_eq!(back.to_tsv(), p.to_tsv());
    }
}
