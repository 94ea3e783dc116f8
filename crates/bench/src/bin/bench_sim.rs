//! Emits `BENCH_sim.json`: median + IQR ns/op for every simulator kernel
//! in [`datamime_bench::simbench`], measured with fixed seeds.
//!
//! ```text
//! bench_sim [-o FILE] [--baseline FILE] [--check] [--cross-check] [--reps N]
//! ```
//!
//! - `-o FILE` — write the JSON report to FILE (default: stdout);
//! - `--baseline FILE` — read a previous report and record its numbers as
//!   `before_ns_per_op` (plus a `speedup` ratio) per bench; checksums are
//!   compared and a mismatch **fails the run**, because it means the
//!   kernel's simulated behaviour changed rather than just its speed;
//! - `--check` — smoke mode for CI: no report, and (unless `--reps` is
//!   given) a single rep per kernel. Proves the benches still compile and
//!   run deterministically within the tier-1 time budget. With
//!   `--baseline` it additionally **fails on regression**: any kernel
//!   whose median exceeds [`REGRESSION_THRESHOLD`] × its baseline median
//!   exits nonzero (the threshold is deliberately loose — see the noise
//!   discussion in docs/PERFORMANCE.md — so it catches structural
//!   regressions, not scheduler jitter);
//! - `--cross-check` — run every reference twin (`scalar/...` against its
//!   batched `sim/...` kernel, `reference/bayesopt_...` against its
//!   column-major `bayesopt/...` kernel) and fail on any checksum
//!   divergence. This is the fast-vs-reference behavioural gate CI runs on
//!   every push;
//! - `--reps N` — timed repetitions per kernel (default 15);
//! - `--memo-json FILE` — embed FILE (the JSON object `memo_fig10` from
//!   the `datamime-experiments` binary of that name) in the report as the
//!   search-level memo-cache accounting. The file is produced elsewhere
//!   because this crate deliberately does not depend on the runtime (see
//!   the layering matrix in `crates/audit/src/policy.rs`).
//!
//! See docs/PERFORMANCE.md for how to read the report.

#![forbid(unsafe_code)]
use datamime_bench::simbench::{all_kernels, quartiles, reference_kernels, BENCH_SEED};
use std::time::Instant;

/// A kernel in `--check --baseline` mode fails if its median ns/op exceeds
/// this multiple of the committed baseline's median. 1.6× sits well above
/// the cross-run noise we measure on shared hosts (docs/PERFORMANCE.md,
/// "Noise") but well below the 2×+ cost of accidentally knocking a kernel
/// off its fast path.
const REGRESSION_THRESHOLD: f64 = 1.6;

struct BenchRow {
    name: &'static str,
    ops: u64,
    q1: f64,
    median: f64,
    q3: f64,
    checksum: u64,
}

/// One prior result scraped from a `--baseline` report.
struct BaselineRow {
    name: String,
    median: f64,
    checksum: String,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut check = false;
    let mut cross_check = false;
    let mut reps: usize = 15;
    let mut reps_explicit = false;
    let mut memo_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-o" => out_path = Some(expect_value(it.next(), "-o")),
            "--baseline" => baseline_path = Some(expect_value(it.next(), "--baseline")),
            "--memo-json" => memo_path = Some(expect_value(it.next(), "--memo-json")),
            "--check" => check = true,
            "--cross-check" => cross_check = true,
            "--reps" => {
                reps = expect_value(it.next(), "--reps")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("--reps: {e}")));
                reps_explicit = true;
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    if check && !reps_explicit {
        reps = 1;
    }

    if cross_check {
        run_cross_check();
        return;
    }

    let baseline = baseline_path.as_deref().map(|p| {
        read_baseline(p).unwrap_or_else(|e| die(&format!("cannot read baseline {p}: {e}")))
    });

    let mut rows = Vec::new();
    for mut kernel in all_kernels() {
        // One untimed warm-up invocation brings cache/TLB/predictor state
        // to steady state so reps measure the warm hot loop. Its checksum
        // is the recorded one: invocation-count independent, so `--check`
        // runs and full runs fingerprint identically.
        let checksum = (kernel.run)();
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let started = Instant::now();
            std::hint::black_box((kernel.run)());
            samples.push(started.elapsed().as_secs_f64() * 1e9 / kernel.ops as f64);
        }
        let (q1, median, q3) = quartiles(&mut samples);
        eprintln!(
            "{:<24} median {median:>8.2} ns/op  IQR {:>6.2}  checksum {checksum:#018x}",
            kernel.name,
            q3 - q1,
        );
        rows.push(BenchRow {
            name: kernel.name,
            ops: kernel.ops,
            q1,
            median,
            q3,
            checksum,
        });
    }

    if check {
        if let Some(base) = baseline.as_deref() {
            enforce_baseline(&rows, base);
        }
        eprintln!("bench_sim --check: {} kernels ran clean", rows.len());
        return;
    }

    let memo = memo_path.as_deref().map(|p| {
        std::fs::read_to_string(p)
            .unwrap_or_else(|e| die(&format!("cannot read memo accounting {p}: {e}")))
    });
    let report = render_report(&rows, baseline.as_deref(), memo.as_deref());
    match out_path {
        Some(p) => {
            std::fs::write(&p, &report).unwrap_or_else(|e| die(&format!("cannot write {p}: {e}")));
            eprintln!("wrote {p}");
        }
        None => println!("{report}"),
    }
}

/// `--cross-check`: run every reference twin against its fast kernel and
/// fail on checksum divergence.
fn run_cross_check() {
    let mut fast = all_kernels();
    let mut failures = 0usize;
    for (fast_name, mut twin) in reference_kernels() {
        let Some(kernel) = fast.iter_mut().find(|k| k.name == fast_name) else {
            die(&format!("{}: no {fast_name} to compare against", twin.name));
        };
        let (got, reference) = ((kernel.run)(), (twin.run)());
        if got == reference {
            eprintln!(
                "{:<24} == {:<32} checksum {got:#018x}",
                kernel.name, twin.name
            );
        } else {
            eprintln!(
                "{:<24} {got:#018x} != {:<32} {reference:#018x}  MISMATCH",
                kernel.name, twin.name
            );
            failures += 1;
        }
    }
    if failures > 0 {
        die(&format!(
            "{failures} fast/reference checksum mismatch(es): a fast path \
             changed behaviour"
        ));
    }
    eprintln!("bench_sim --cross-check: all fast kernels match their reference twins");
}

/// The `--check --baseline` gate: kernels present in the baseline must
/// keep their checksum (behaviour) and stay within [`REGRESSION_THRESHOLD`]
/// of their baseline median (speed).
fn enforce_baseline(rows: &[BenchRow], baseline: &[BaselineRow]) {
    let mut regressed = Vec::new();
    for r in rows {
        let Some(b) = baseline.iter().find(|b| b.name == r.name) else {
            continue;
        };
        let got = format!("{:#018x}", r.checksum);
        if b.checksum != got {
            die(&format!(
                "{}: checksum changed ({} -> {got}); the kernel's simulated \
                 behaviour diverged from the baseline",
                r.name, b.checksum
            ));
        }
        if r.median > REGRESSION_THRESHOLD * b.median {
            regressed.push(format!(
                "{}: {:.2} ns/op vs baseline {:.2} (gate {:.2})",
                r.name,
                r.median,
                b.median,
                REGRESSION_THRESHOLD * b.median
            ));
        }
    }
    if !regressed.is_empty() {
        for line in &regressed {
            eprintln!("bench_sim: REGRESSION {line}");
        }
        eprintln!(
            "bench_sim: {} kernel(s) regressed beyond the {REGRESSION_THRESHOLD}x \
             threshold (docs/PERFORMANCE.md)",
            regressed.len()
        );
        std::process::exit(1);
    }
}

fn expect_value(v: Option<&String>, flag: &str) -> String {
    v.cloned()
        .unwrap_or_else(|| die(&format!("{flag} requires a value")))
}

fn die(msg: &str) -> ! {
    eprintln!("bench_sim: {msg}");
    std::process::exit(2);
}

fn render_report(
    rows: &[BenchRow],
    baseline: Option<&[BaselineRow]>,
    memo: Option<&str>,
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"datamime-bench-sim/1\",\n");
    s.push_str(&format!("  \"seed\": \"{BENCH_SEED:#x}\",\n"));
    s.push_str("  \"unit\": \"ns_per_op\",\n");
    s.push_str("  \"benches\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let mut line = format!(
            "    {{\"name\":\"{}\",\"ops\":{},\"median_ns_per_op\":{:.3},\
             \"iqr_ns_per_op\":{:.3},\"q1\":{:.3},\"q3\":{:.3},\"checksum\":\"{:#018x}\"",
            r.name,
            r.ops,
            r.median,
            r.q3 - r.q1,
            r.q1,
            r.q3,
            r.checksum
        );
        if let Some(base) = baseline {
            if let Some(b) = base.iter().find(|b| b.name == r.name) {
                let got = format!("{:#018x}", r.checksum);
                if b.checksum != got {
                    die(&format!(
                        "{}: checksum changed ({} -> {got}); the kernel's simulated \
                         behaviour diverged from the baseline",
                        r.name, b.checksum
                    ));
                }
                line.push_str(&format!(
                    ",\"before_ns_per_op\":{:.3},\"speedup\":{:.2}",
                    b.median,
                    b.median / r.median
                ));
            }
        }
        line.push('}');
        if i + 1 < rows.len() {
            line.push(',');
        }
        s.push_str(&line);
        s.push('\n');
    }
    s.push_str("  ]");
    if let Some(memo) = memo {
        s.push_str(",\n  \"memo_fig10\": ");
        s.push_str(memo.trim());
    }
    s.push_str("\n}\n");
    s
}

/// Scrapes `name` / `median_ns_per_op` / `checksum` out of a report this
/// binary produced earlier (one bench object per line; not a general JSON
/// parser).
fn read_baseline(path: &str) -> Result<Vec<BaselineRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    for line in text.lines() {
        let Some(name) = scrape_str(line, "\"name\":\"") else {
            continue;
        };
        let median = scrape_num(line, "\"median_ns_per_op\":")
            .ok_or_else(|| format!("bench {name} has no median_ns_per_op"))?;
        let checksum = scrape_str(line, "\"checksum\":\"")
            .ok_or_else(|| format!("bench {name} has no checksum"))?;
        rows.push(BaselineRow {
            name,
            median,
            checksum,
        });
    }
    if rows.is_empty() {
        return Err("no bench rows found".to_string());
    }
    Ok(rows)
}

fn scrape_str(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

fn scrape_num(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let end = line[start..]
        .find([',', '}'])
        .map_or(line.len(), |i| i + start);
    line[start..end].trim().parse().ok()
}
