//! Memo-cache accounting on a fig10-style convergence search.
//!
//! Runs the same bounded-resolution Datamime search twice — once with the
//! evaluation memo cache disabled (every suggestion pays a simulator run)
//! and once with it enabled — verifies the two runs produce bit-identical
//! histories and best points, and emits the evaluation savings as a JSON
//! object for `scripts/bench.sh` to embed in `BENCH_sim.json`.
//!
//! The search space is `QuantizedGenerator(KvGenerator, STEPS)`: in a
//! fully continuous space two suggestions are never bit-equal, so the
//! memo can only fire on journal replay; bounding each axis to a grid
//! makes the optimizer's late-stage re-suggestions exact (see
//! docs/PERFORMANCE.md). Usage: `memo_fig10 [-o FILE] [--check]`.

#![forbid(unsafe_code)]
use datamime::generator::{KvGenerator, QuantizedGenerator};
use datamime::profiler::profile_workload;
use datamime::search::{search_with_runtime, RuntimeOptions, SearchConfig, SearchOutcome};
use datamime::workload::Workload;
use std::fs;
use std::process::ExitCode;

/// Grid steps per parameter axis (7 values per axis).
const STEPS: u32 = 6;
/// Fig. 10 runs 200 iterations at paper fidelity; the bench uses the
/// same loop at reduced scale so it finishes in about a minute.
const ITERATIONS: usize = 100;
/// `--check` scale: just proves the harness runs end to end.
const CHECK_ITERATIONS: usize = 8;

fn run(iterations: usize, no_memo: bool) -> SearchOutcome {
    let mut cfg = SearchConfig::fast(iterations);
    cfg.profiling = cfg.profiling.without_curves();
    let generator = QuantizedGenerator::new(KvGenerator::new(), STEPS);
    let target = profile_workload(&Workload::mem_fb(), &cfg.machine, &cfg.profiling);
    let opts = RuntimeOptions {
        no_memo,
        ..RuntimeOptions::default()
    };
    search_with_runtime(&generator, &target, &cfg, &opts).expect("journal-less search cannot fail")
}

fn main() -> ExitCode {
    let mut out_path: Option<String> = None;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "-o" => out_path = args.next(),
            "--check" => check = true,
            other => {
                eprintln!("memo_fig10: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let iterations = if check { CHECK_ITERATIONS } else { ITERATIONS };
    eprintln!("memo_fig10: running {iterations}-iteration search twice (memo off, then on)");
    let baseline = run(iterations, true);
    let memoized = run(iterations, false);

    // Memoization must never change results: identical suggestions,
    // identical errors (bit for bit), identical winner.
    let mut identical = baseline.history.len() == memoized.history.len()
        && baseline.best_unit_params == memoized.best_unit_params
        && baseline.best_error.to_bits() == memoized.best_error.to_bits()
        && baseline.best_profile.to_tsv() == memoized.best_profile.to_tsv();
    for (a, b) in baseline.history.iter().zip(&memoized.history) {
        identical &= a.unit_params == b.unit_params && a.error.to_bits() == b.error.to_bits();
    }
    if !identical {
        eprintln!("memo_fig10: FAIL — memoized run diverged from the baseline");
        return ExitCode::FAILURE;
    }

    let s = &memoized.stats;
    assert_eq!(baseline.stats.cache_hits, 0);
    assert_eq!(baseline.stats.evaluated, iterations);
    let savings = 100.0 * s.cache_hits as f64 / iterations as f64;
    let json = format!(
        "{{\n  \"search\": \"fig10-style convergence, mem-fb target, \
         QuantizedGenerator(memcached, steps={STEPS})\",\n  \
         \"iterations\": {iterations},\n  \
         \"baseline_sim_evaluations\": {},\n  \
         \"memoized_sim_evaluations\": {},\n  \
         \"cache_hits\": {},\n  \
         \"savings_pct\": {savings:.1},\n  \
         \"results_bit_identical\": true\n}}",
        baseline.stats.evaluated, s.evaluated, s.cache_hits
    );
    eprintln!(
        "memo_fig10: {} of {iterations} evaluations served from memo ({savings:.1}% saved), \
         results bit-identical",
        s.cache_hits
    );
    match out_path {
        Some(p) => fs::write(&p, json + "\n").expect("write memo accounting"),
        None => println!("{json}"),
    }
    ExitCode::SUCCESS
}
