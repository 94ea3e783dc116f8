//! Results as the driver reads them, the metric lists `BENCHMARK.json`
//! declares, and the two multi-run modes (`--suite`, `--agree`).

use crate::workloads::WORKLOADS;
use datamime_runtime::json::{push_f64, push_str_escaped, Json};
use std::path::PathBuf;
use std::process::Command;

/// The contract this benchmark is written to, compiled in so the binary
/// and the file cannot drift apart unnoticed (a unit test compares them).
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// The unit `BENCHMARK.json` lists.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// One run's result: the last line of standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output checked and found right.
    pub correct: bool,
    /// Observations, jobs and canary observations expected.
    pub attempted: usize,
    /// Penalised observations, jobs not `Done`, repeats or twins whose
    /// checksum differs.
    pub failed: usize,
    /// The metrics of this run's kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The result as one JSON line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"correct\":");
        out.push_str(if self.correct { "true" } else { "false" });
        out.push_str(",\"attempted\":");
        push_f64(&mut out, self.attempted as f64);
        out.push_str(",\"failed\":");
        push_f64(&mut out, self.failed as f64);
        out.push_str(",\"metrics\":{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_escaped(&mut out, m.name);
            out.push_str(":{\"value\":");
            // A non-finite value would not be JSON; it can only come from
            // a broken run, which `correct` already reports.
            push_f64(&mut out, if m.value.is_finite() { m.value } else { 0.0 });
            out.push_str(",\"unit\":");
            push_str_escaped(&mut out, m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// Every per-layer metric: name and unit, in `BENCHMARK.json` order. A
/// traced run reports all of them on every workload; a layer the
/// workload does not reach from this process reads 0.
pub const LAYER_METRICS: [(&str, &str); 61] = [
    ("sim.replay_ms_per_eval", "ms"),
    ("sim.minstr_per_s", "1/s"),
    ("sim.instructions_per_eval", "count"),
    ("sim.events_per_eval", "count"),
    ("apps.build_ms_per_eval", "ms"),
    ("apps.builds_per_eval", "count"),
    ("apps.exec_ms_per_eval", "ms"),
    ("loadgen.driver_run_ms_per_eval", "ms"),
    ("loadgen.requests_per_eval", "count"),
    ("core.instantiate_us", "us"),
    ("core.profile_main_ms_per_eval", "ms"),
    ("core.curve_sweep_ms_per_eval", "ms"),
    ("core.profile_assemble_us", "us"),
    ("core.profile_error_us", "us"),
    ("core.target_profile_ms", "ms"),
    ("core.first_eval_ms", "ms"),
    ("core.tail_ms", "ms"),
    ("core.tail_reprofile_ms", "ms"),
    ("core.target_stage_ms", "ms"),
    ("bayesopt.suggest_plain_ms_p50", "ms"),
    ("bayesopt.suggest_refit_ms_p50", "ms"),
    ("bayesopt.refit_ms_at_64", "ms"),
    ("bayesopt.refit_ms_at_88", "ms"),
    ("bayesopt.refits", "count"),
    ("bayesopt.observe_us", "us"),
    ("bayesopt.share", "ratio"),
    ("runtime.step_ms_p50", "ms"),
    ("runtime.step_ms_p90", "ms"),
    ("runtime.overhead_ms_per_eval", "ms"),
    ("runtime.journal_append_us", "us"),
    ("runtime.journal_appends", "count"),
    ("runtime.journal_bytes", "bytes"),
    ("runtime.memo_lookup_ns", "ns"),
    ("runtime.memo_hits", "count"),
    ("runtime.memo_hit_ratio", "ratio"),
    ("runtime.faults", "count"),
    ("runtime.retries", "count"),
    ("dist.broker_start_ms", "ms"),
    ("dist.first_batch_ms", "ms"),
    ("dist.batch_overhead_ms", "ms"),
    ("dist.parallel_efficiency", "ratio"),
    ("dist.broker_stop_ms", "ms"),
    ("dist.worker_restarts", "count"),
    ("dist.redispatches", "count"),
    ("serve.daemon_start_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.status_us", "us"),
    ("serve.result_ms", "ms"),
    ("serve.submit_to_first_eval_ms", "ms"),
    ("serve.job_turnaround_ms_p50", "ms"),
    ("serve.job_fixed_ms", "ms"),
    ("serve.manifest_append_us", "us"),
    ("serve.jobs_per_s", "1/s"),
    ("serve.shutdown_ms", "ms"),
    ("serve.stats_evals", "count"),
    ("serve.stats_cache_hits", "count"),
    ("host.noise_ratio", "ratio"),
    ("host.cpu_util", "ratio"),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// Per-layer values by name; [`LayerValues::into_metrics`] lays them out
/// in [`LAYER_METRICS`] order.
#[derive(Debug, Default)]
pub struct LayerValues(std::collections::BTreeMap<&'static str, f64>);

impl LayerValues {
    /// Sets one metric; the name must be in [`LAYER_METRICS`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// One metric's value (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every declared metric, unset ones as 0.
    pub fn into_metrics(self) -> Vec<Metric> {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| Metric::new(name, self.get(name), unit))
            .collect()
    }
}

/// One end-to-end metric's declaration in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Allowed worsening as a share (end-to-end only).
    pub bound: Option<f64>,
}

/// Reads one metric list (`end_to_end` / `per_layer`) out of
/// `BENCHMARK.json`.
pub fn declared(list: &str) -> Result<Vec<Declared>, String> {
    let doc = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let items = doc
        .get(list)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no `{list}` list"))?;
    items
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a `{list}` entry lacks `{key}`"))
            };
            Ok(Declared {
                name: text("name")?,
                unit: text("unit")?,
                better: text("better")?,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// How a multi-run mode reaches the single-run binary.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// `--out`.
    pub out: PathBuf,
    /// `--worker-bin`.
    pub worker_bin: Option<PathBuf>,
}

/// Runs one workload in a fresh process (peak RSS is per process) and
/// parses the result line.
fn run_child(args: &SuiteArgs, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if let Some(bin) = &args.worker_bin {
        cmd.arg("--worker-bin").arg(bin);
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{workload} printed no result"))?;
    Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn print_result(workload: &str, trace: bool, result: &Json) -> bool {
    let correct = result.get("correct") == Some(&Json::Bool(true));
    let count = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "== {workload} ({}) correct={correct} attempted={} failed={}",
        if trace { "traced unit" } else { "timed run" },
        count("attempted"),
        count("failed")
    );
    if let Some(Json::Obj(metrics)) = result.get("metrics") {
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("?");
            println!("{name:<34} {value:>16.6} {unit}");
        }
    }
    correct
}

/// One full set: the four timed runs, then (when `traced`) the four
/// traced units. Returns the timed results by workload, and whether every
/// run was correct.
fn run_set(args: &SuiteArgs, traced: bool) -> Result<(Vec<(String, Json)>, bool), String> {
    let mut all_correct = true;
    let mut timed = Vec::new();
    for w in &WORKLOADS {
        let result = run_child(args, w.name, false)?;
        all_correct &= print_result(w.name, false, &result);
        timed.push((w.name.to_string(), result));
    }
    if traced {
        for w in &WORKLOADS {
            let result = run_child(args, w.name, true)?;
            all_correct &= print_result(w.name, true, &result);
        }
    }
    Ok((timed, all_correct))
}

/// `--suite`: every metric of every workload by name with its unit.
/// Returns whether every run was correct.
pub fn suite(args: &SuiteArgs) -> Result<bool, String> {
    let (_, correct) = run_set(args, true)?;
    // This benchmark defines a baseline; it measures no change.
    println!("{{\"correct\":{correct},\"claim\":null}}");
    Ok(correct)
}

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(first: f64, second: f64, better: &str) -> f64 {
    if first == 0.0 {
        return if second == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        "higher" => (first - second) / first.abs(),
        _ => (second - first) / first.abs(),
    }
}

/// `--agree`: two timed sets of the same binary back to back; every
/// workload × end-to-end metric must repeat within its bound (in either
/// direction — it is the same code). Returns whether all did.
pub fn agree(args: &SuiteArgs) -> Result<bool, String> {
    let bounds = declared("end_to_end")?;
    let (first, ok_a) = run_set(args, false)?;
    let (second, ok_b) = run_set(args, false)?;
    let mut outside = Vec::new();
    println!(
        "{:<20} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff %", "bound %"
    );
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        for d in &bounds {
            let value = |r: &Json| {
                r.get("metrics")
                    .and_then(|m| m.get(&d.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{workload}: no {} in a result", d.name))
            };
            let (x, y) = (value(a)?, value(b)?);
            let bound = d.bound.unwrap_or(0.0);
            let diff = worsening(x, y, &d.better);
            println!(
                "{workload:<20} {:<14} {x:>14.6} {y:>14.6} {:>+9.2} {:>7.1}",
                d.name,
                diff * 100.0,
                bound * 100.0
            );
            if diff.abs() > bound {
                outside.push(format!("{workload} × {}: {:+.2} %", d.name, diff * 100.0));
            }
        }
    }
    for pair in &outside {
        println!("OUTSIDE ITS BOUND: {pair}");
    }
    let ok = ok_a && ok_b && outside.is_empty();
    println!("{{\"correct\":{ok},\"claim\":null}}");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_reports() {
        let layers = declared("per_layer").unwrap();
        let names: Vec<&str> = layers.iter().map(|d| d.name.as_str()).collect();
        let want: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        for (d, (_, unit)) in layers.iter().zip(LAYER_METRICS.iter()) {
            assert_eq!(d.unit, *unit, "{}", d.name);
            assert!(
                d.bound.is_none(),
                "{}: layer metrics carry no bound",
                d.name
            );
        }
        let e2e = declared("end_to_end").unwrap();
        let names: Vec<&str> = e2e.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "search_wall_s",
                "evals_per_s",
                "step_ms_p50",
                "peak_rss_mb",
                "best_error"
            ]
        );
        assert!(e2e
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));

        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let listed: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap(),
                    w.get("why").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let r = RunResult {
            correct: true,
            attempted: 180,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.1425, "s")],
        };
        let line = r.to_json();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.1425));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn worsening_follows_the_better_direction() {
        assert!((worsening(10.0, 11.0, "lower") - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, "higher") - 0.1).abs() < 1e-12);
        assert!(worsening(10.0, 9.0, "lower") < 0.0);
        assert_eq!(worsening(0.0, 0.0, "lower"), 0.0);
    }

    #[test]
    fn unset_layer_metrics_read_zero_and_unknown_names_are_refused() {
        let mut v = LayerValues::default();
        v.set("trace.spans", 12.0);
        let metrics = v.into_metrics();
        assert_eq!(metrics.len(), LAYER_METRICS.len());
        assert_eq!(metrics.last().unwrap().value, 12.0);
        assert_eq!(metrics[0].value, 0.0);
        let refused = std::panic::catch_unwind(|| LayerValues::default().set("sim.made_up", 1.0));
        assert!(refused.is_err());
    }
}
