//! Process-backend glue: carrying a search's evaluation context across
//! the process boundary.
//!
//! The broker spawns `datamime-worker` processes as its children, speaks
//! frames over their stdin and stdout, and each must rebuild the *exact*
//! evaluation context — generator, machine, profiling fidelity,
//! error-model weights, seed, and target profile — from their command
//! line, because an evaluation is a pure function of `(unit, context)`
//! and bit-identical results across backends depend on it. [`EvalSpec`]
//! is that context in argv-serializable form: [`EvalSpec::from_search`]
//! captures it (rejecting generators or machines a fresh process cannot
//! reconstruct), [`EvalSpec::to_argv`] / [`parse_worker_argv`] round-trip
//! it, and [`EvalSpec::build`] reconstitutes the live objects.
//!
//! [`dist_context`] condenses the context into the fingerprint both sides
//! exchange during the `Hello` handshake; it folds in the wire-protocol
//! version and the worker-binary identity so a stale or skewed worker is
//! rejected with a clear error instead of silently producing different
//! bits (and so memo entries from one protocol generation are never
//! served to another).

use crate::error_model::{DistanceKind, MetricWeights};
use crate::generator::{generator_for_program_grid, DatasetGenerator};
use crate::jobspec::{machine_by_name, BoxedGenerator};
use crate::metrics::{CurveMetric, DistMetric};
use crate::profile::Profile;
use crate::profiler::{CurveMethod, ProfilingConfig};
use crate::search::{emd_objective, evaluate, SearchConfig};
use datamime_dist::{serve, worker_identity, WorkerConfig, PROTOCOL_VERSION};
use datamime_runtime::{fingerprint, CancelToken, FaultPlan, StageTimes};
use std::path::PathBuf;

/// An evaluation context in argv-serializable form.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalSpec {
    /// Program whose built-in generator drives the search
    /// (`memcached` | `silo` | `xapian` | `dnn` | ...).
    pub program: String,
    /// Uniform grid quantization applied to every axis, if any.
    pub grid_steps: Option<u32>,
    /// Machine preset name (`broadwell` | `zen2` | `silvermont`).
    pub machine: String,
    /// Profiling fidelity, field by field.
    pub profiling: ProfilingConfig,
    /// Error-model weights.
    pub weights: MetricWeights,
    /// Optimizer seed (part of the memo context).
    pub seed: u64,
    /// File holding the target profile as TSV.
    pub target_tsv: PathBuf,
}

/// Uniform step count shared by every axis: `Ok(None)` for a fully
/// continuous space, `Ok(Some(s))` when all axes snap to the same grid.
fn uniform_steps(generator: &dyn DatasetGenerator) -> Result<Option<u32>, String> {
    let mut steps = None;
    for (i, spec) in generator.param_specs().iter().enumerate() {
        if i == 0 {
            steps = spec.steps;
        } else if spec.steps != steps {
            return Err(
                "the process backend supports uniform grid quantization only \
                 (every axis must share one step count)"
                    .to_string(),
            );
        }
    }
    Ok(steps)
}

impl EvalSpec {
    /// Captures a search's evaluation context, verifying that a fresh
    /// process can rebuild it from this description alone.
    ///
    /// # Errors
    ///
    /// Fails when the generator is not a (possibly uniformly quantized)
    /// built-in, or the machine is not a named preset — contexts a
    /// `datamime-worker` command line cannot express.
    pub fn from_search(
        generator: &dyn DatasetGenerator,
        cfg: &SearchConfig,
        target_tsv: PathBuf,
    ) -> Result<Self, String> {
        let rebuilt_machine = machine_by_name(&cfg.machine.name)
            .filter(|m| format!("{m:?}") == format!("{:?}", cfg.machine))
            .ok_or_else(|| {
                format!(
                    "the process backend needs a named machine preset; `{}` is not one \
                     (or was modified after construction)",
                    cfg.machine.name
                )
            })?;
        drop(rebuilt_machine);
        let spec = EvalSpec {
            program: generator.name().to_string(),
            grid_steps: uniform_steps(generator)?,
            machine: cfg.machine.name.clone(),
            profiling: cfg.profiling.clone(),
            weights: cfg.weights.clone(),
            seed: cfg.seed,
            target_tsv,
        };
        let rebuilt = generator_for_program_grid(&spec.program, spec.grid_steps)?;
        if format!("{:?}", rebuilt.param_specs()) != format!("{:?}", generator.param_specs()) {
            return Err(format!(
                "the process backend cannot reproduce generator `{}`: its parameter \
                 space differs from the built-in one",
                generator.name()
            ));
        }
        Ok(spec)
    }

    /// Serializes the spec as `datamime-worker` command-line arguments,
    /// the worker's whole command line short of an optional `--fault`.
    pub fn to_argv(&self) -> Vec<String> {
        let mut argv = vec![
            "--target-profile".to_string(),
            self.target_tsv.display().to_string(),
            "--program".to_string(),
            self.program.clone(),
            "--machine".to_string(),
            self.machine.clone(),
            "--opt-seed".to_string(),
            self.seed.to_string(),
            "--prof-interval".to_string(),
            self.profiling.interval_cycles.to_string(),
            "--prof-samples".to_string(),
            self.profiling.n_samples.to_string(),
            "--prof-curve-ways".to_string(),
            encode_curve_ways(&self.profiling.curve_ways),
            "--prof-curve-samples".to_string(),
            self.profiling.curve_samples.to_string(),
            "--prof-curve-method".to_string(),
            match self.profiling.curve_method {
                CurveMethod::Restart => "restart".to_string(),
                CurveMethod::Dynaway => "dynaway".to_string(),
            },
            "--prof-seed".to_string(),
            self.profiling.seed.to_string(),
            "--weights".to_string(),
            encode_weights(&self.weights),
        ];
        if let Some(steps) = self.grid_steps {
            argv.push("--grid-steps".to_string());
            argv.push(steps.to_string());
        }
        argv
    }

    /// Reconstitutes the live evaluation context: the generator, the
    /// search configuration (machine, profiling, weights, seed), and the
    /// target profile parsed from [`EvalSpec::target_tsv`].
    ///
    /// # Errors
    ///
    /// Fails on unknown program/machine names or an unreadable/garbled
    /// target-profile file.
    pub fn build(&self) -> Result<(BoxedGenerator, SearchConfig, Profile), String> {
        let generator = generator_for_program_grid(&self.program, self.grid_steps)?;
        let machine = machine_by_name(&self.machine)
            .ok_or_else(|| format!("unknown machine `{}`", self.machine))?;
        let text = std::fs::read_to_string(&self.target_tsv)
            .map_err(|e| format!("cannot read target profile {:?}: {e}", self.target_tsv))?;
        let target = Profile::from_tsv(&text)
            .map_err(|e| format!("bad target profile {:?}: {e}", self.target_tsv))?;
        let cfg = SearchConfig {
            // The worker never drives the optimizer; iterations and the
            // optimizer kind are broker-side concerns.
            iterations: 1,
            machine,
            profiling: self.profiling.clone(),
            weights: self.weights.clone(),
            optimizer: crate::search::OptimizerKind::Random,
            seed: self.seed,
        };
        Ok((generator, cfg, target))
    }
}

fn encode_curve_ways(ways: &[u32]) -> String {
    if ways.is_empty() {
        "none".to_string()
    } else {
        ways.iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn decode_curve_ways(s: &str) -> Result<Vec<u32>, String> {
    if s == "none" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|w| w.parse().map_err(|e| format!("bad curve way `{w}`: {e}")))
        .collect()
}

/// Compact weight serialization: `<distance>;k=v,...;k=v,...` with the
/// distribution metrics in the second field and the curve metrics in the
/// third. `{}`-formatted floats round-trip f64 bits exactly.
fn encode_weights(w: &MetricWeights) -> String {
    let distance = match w.distance {
        DistanceKind::Emd => "emd",
        DistanceKind::KolmogorovSmirnov => "ks",
    };
    let dists = DistMetric::ALL
        .iter()
        .map(|&m| format!("{}={}", m.key(), w.dist_weight(m)))
        .collect::<Vec<_>>()
        .join(",");
    let curves = CurveMetric::ALL
        .iter()
        .map(|&m| format!("{}={}", m.key(), w.curve_weight(m)))
        .collect::<Vec<_>>()
        .join(",");
    format!("{distance};{dists};{curves}")
}

fn decode_weights(s: &str) -> Result<MetricWeights, String> {
    let mut parts = s.splitn(3, ';');
    let mut next = || parts.next().ok_or(format!("bad weight spec `{s}`"));
    let distance = match next()? {
        "emd" => DistanceKind::Emd,
        "ks" => DistanceKind::KolmogorovSmirnov,
        other => return Err(format!("unknown distance kind `{other}`")),
    };
    let mut w = MetricWeights::equal();
    w.distance = distance;
    for pair in next()?.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("bad weight `{pair}`"))?;
        let metric = DistMetric::ALL
            .iter()
            .find(|m| m.key() == key)
            .ok_or_else(|| format!("unknown distribution metric `{key}`"))?;
        let value: f64 = value
            .parse()
            .map_err(|e| format!("bad weight `{pair}`: {e}"))?;
        w = w.with_dist_weight(*metric, value);
    }
    for pair in next()?.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("bad weight `{pair}`"))?;
        let metric = CurveMetric::ALL
            .iter()
            .find(|m| m.key() == key)
            .ok_or_else(|| format!("unknown curve metric `{key}`"))?;
        let value: f64 = value
            .parse()
            .map_err(|e| format!("bad weight `{pair}`: {e}"))?;
        w = w.with_curve_weight(*metric, value);
    }
    Ok(w)
}

/// The fingerprint both sides must agree on during the `Hello`
/// handshake: the in-process memo context (machine, profiling, weights,
/// seed) extended with the wire-protocol version, the worker-binary
/// identity, the generator's parameter space, and the target profile —
/// everything that fixes the bits an evaluation produces across the
/// process boundary. Proc-backend memo caches are keyed on this, so an
/// entry recorded under one protocol generation or worker build can
/// never satisfy another.
pub fn dist_context(generator: &dyn DatasetGenerator, cfg: &SearchConfig, target: &Profile) -> u64 {
    fingerprint(&[
        crate::search::memo_context(cfg),
        u64::from(PROTOCOL_VERSION),
        worker_identity(),
        crate::search::hash_str(&format!("{:?}", generator.param_specs())),
        crate::search::hash_str(generator.name()),
        crate::search::hash_str(&target.to_tsv()),
    ])
}

/// One parsed `datamime-worker` invocation.
#[derive(Debug)]
pub struct WorkerInvocation {
    /// The evaluation context to rebuild.
    pub spec: EvalSpec,
    /// Deterministic fault plan (tests and CI only).
    pub faults: FaultPlan,
}

/// Parses a full `datamime-worker` command line (the [`EvalSpec`] flags
/// plus an optional `--fault` plan).
///
/// # Errors
///
/// Fails on unknown flags, missing values, or missing required flags,
/// with the offending flag named.
pub fn parse_worker_argv(args: &[String]) -> Result<WorkerInvocation, String> {
    let mut target = None;
    let mut program = None;
    let mut grid_steps = None;
    let mut machine = None;
    let mut seed = None;
    let mut interval = None;
    let mut samples = None;
    let mut curve_ways = None;
    let mut curve_samples = None;
    let mut curve_method = None;
    let mut prof_seed = None;
    let mut weights = None;
    let mut faults = FaultPlan::new();

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let parse_err = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag {
            "--target-profile" => target = Some(PathBuf::from(value)),
            "--program" => program = Some(value.clone()),
            "--grid-steps" => grid_steps = Some(value.parse().map_err(|e| parse_err(&e))?),
            "--machine" => machine = Some(value.clone()),
            "--opt-seed" => seed = Some(value.parse().map_err(|e| parse_err(&e))?),
            "--prof-interval" => interval = Some(value.parse().map_err(|e| parse_err(&e))?),
            "--prof-samples" => samples = Some(value.parse().map_err(|e| parse_err(&e))?),
            "--prof-curve-ways" => curve_ways = Some(decode_curve_ways(value)?),
            "--prof-curve-samples" => {
                curve_samples = Some(value.parse().map_err(|e| parse_err(&e))?)
            }
            "--prof-curve-method" => {
                curve_method = Some(match value.as_str() {
                    "restart" => CurveMethod::Restart,
                    "dynaway" => CurveMethod::Dynaway,
                    other => return Err(format!("unknown curve method `{other}`")),
                })
            }
            "--prof-seed" => prof_seed = Some(value.parse().map_err(|e| parse_err(&e))?),
            "--weights" => weights = Some(decode_weights(value)?),
            "--fault" => faults = FaultPlan::from_spec(value)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }

    let require = |name: &str| format!("{name} is required");
    Ok(WorkerInvocation {
        spec: EvalSpec {
            program: program.ok_or_else(|| require("--program"))?,
            grid_steps,
            machine: machine.ok_or_else(|| require("--machine"))?,
            profiling: ProfilingConfig {
                interval_cycles: interval.ok_or_else(|| require("--prof-interval"))?,
                n_samples: samples.ok_or_else(|| require("--prof-samples"))?,
                curve_ways: curve_ways.ok_or_else(|| require("--prof-curve-ways"))?,
                curve_samples: curve_samples.ok_or_else(|| require("--prof-curve-samples"))?,
                curve_method: curve_method.ok_or_else(|| require("--prof-curve-method"))?,
                seed: prof_seed.ok_or_else(|| require("--prof-seed"))?,
            },
            weights: weights.ok_or_else(|| require("--weights"))?,
            seed: seed.ok_or_else(|| require("--opt-seed"))?,
            target_tsv: target.ok_or_else(|| require("--target-profile"))?,
        },
        faults,
    })
}

/// The `datamime-worker` main: parses the command line, rebuilds the
/// evaluation context, derives the context fingerprint, and serves
/// evaluations over stdin and stdout until the broker closes stdin.
///
/// The evaluation body is [`evaluate`], the very function the in-process
/// backend runs, on a never-cancelled token — the broker enforces
/// deadlines by SIGKILL, not cooperative cancellation. A worker that
/// dies on its own (SIGTERM, a crash) closes its stdout; the broker
/// respawns it and re-dispatches the point transparently.
///
/// # Errors
///
/// Returns a message on argv, context-rebuild, pipe, or handshake
/// failures (including a broker reject for version/identity/context
/// skew).
pub fn run_worker(args: &[String]) -> Result<(), String> {
    let inv = parse_worker_argv(args)?;
    let (generator, cfg, target) = inv.spec.build()?;
    let ctx = dist_context(&generator, &cfg, &target);
    let objective = emd_objective(&target, &cfg.weights);
    let token = CancelToken::new();
    let mut wcfg = WorkerConfig::new(ctx);
    wcfg.faults = inv.faults;
    let (stdin, stdout) = (std::io::stdin(), std::io::stdout());
    serve(
        &wcfg,
        stdin.lock(),
        stdout.lock(),
        |req, stages: &mut StageTimes| {
            // The worker serves evaluations on one thread, so its
            // thread-local arena persists across requests: every
            // candidate after the first reuses the same simulator arrays.
            evaluate(&generator, &cfg, &objective, &req.unit, stages, &token).error
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{KvGenerator, QuantizedGenerator};

    fn spec() -> EvalSpec {
        EvalSpec {
            program: "memcached".to_string(),
            grid_steps: Some(6),
            machine: "zen2".to_string(),
            profiling: ProfilingConfig::fast().without_curves(),
            weights: MetricWeights::equal().with_dist_weight(DistMetric::Ipc, 2.5),
            seed: 0xDA7A,
            target_tsv: PathBuf::from("/tmp/target.tsv"),
        }
    }

    #[test]
    fn argv_round_trips_the_full_spec() {
        let spec = spec();
        let inv = parse_worker_argv(&spec.to_argv()).expect("parses");
        assert_eq!(inv.spec, spec);
        assert!(inv.faults.is_empty());
    }

    #[test]
    fn weight_encoding_round_trips_exact_bits() {
        let w = MetricWeights::equal()
            .with_dist_weight(DistMetric::Ipc, 0.1 + 0.2) // not exactly 0.3
            .with_curve_weight(CurveMetric::IpcCurve, 1.0 / 3.0);
        let decoded = decode_weights(&encode_weights(&w)).expect("decodes");
        for m in DistMetric::ALL {
            assert_eq!(decoded.dist_weight(m).to_bits(), w.dist_weight(m).to_bits());
        }
        for m in CurveMetric::ALL {
            assert_eq!(
                decoded.curve_weight(m).to_bits(),
                w.curve_weight(m).to_bits()
            );
        }
    }

    #[test]
    fn from_search_rejects_unnamed_machines() {
        let mut cfg = SearchConfig::fast(1);
        cfg.machine.name = "frankenmachine".to_string();
        let err = EvalSpec::from_search(&KvGenerator::new(), &cfg, PathBuf::from("t.tsv"))
            .expect_err("unknown machine must be rejected");
        assert!(err.contains("named machine preset"), "{err}");
    }

    #[test]
    fn from_search_rejects_mixed_quantization() {
        use crate::generator::ParamSpec;
        struct Mixed(Vec<ParamSpec>);
        impl DatasetGenerator for Mixed {
            fn name(&self) -> &str {
                "memcached"
            }
            fn param_specs(&self) -> &[ParamSpec] {
                &self.0
            }
            fn instantiate(&self, _unit: &[f64]) -> crate::workload::Workload {
                unreachable!("never instantiated in this test")
            }
        }
        let specs = vec![
            ParamSpec::linear("a", 0.0, 1.0).with_steps(4),
            ParamSpec::linear("b", 0.0, 1.0),
        ];
        let err = EvalSpec::from_search(&Mixed(specs), &SearchConfig::fast(1), "t.tsv".into())
            .expect_err("mixed steps must be rejected");
        assert!(err.contains("uniform grid quantization"), "{err}");
    }

    #[test]
    fn dist_context_distinguishes_generators_and_targets() {
        use crate::profiler::profile_workload;
        use crate::workload::Workload;
        let cfg = SearchConfig::fast(1);
        let t1 = profile_workload(&Workload::mem_fb(), &cfg.machine, &cfg.profiling);
        let t2 = profile_workload(&Workload::mem_twtr(), &cfg.machine, &cfg.profiling);
        let plain = KvGenerator::new();
        let quantized = QuantizedGenerator::new(KvGenerator::new(), 6);
        let base = dist_context(&plain, &cfg, &t1);
        assert_ne!(base, dist_context(&quantized, &cfg, &t1));
        assert_ne!(base, dist_context(&plain, &cfg, &t2));
        let mut reseeded = cfg.clone();
        reseeded.seed ^= 1;
        assert_ne!(base, dist_context(&plain, &reseeded, &t1));
    }
}
