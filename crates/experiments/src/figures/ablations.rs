//! Quality ablations for the design choices DESIGN.md calls out:
//!
//! 1. optimizer: Bayesian optimization vs random search at equal budget
//!    (justifies Sec. III-C's choice of BO);
//! 2. distance: EMD vs Kolmogorov–Smirnov in the error model (the paper
//!    cites KS as a viable alternative);
//! 3. acquisition: expected improvement vs lower confidence bound.
//!
//! Each ablation runs the real Datamime search on the (scaled) `mem-fb`
//! target and reports the final best error under the *EMD-equal* yardstick
//! so numbers are comparable across arms.

use crate::{Report, Searches, Settings};
use datamime::error_model::{profile_error, DistanceKind, MetricWeights};
use datamime::generator::KvGenerator;
use datamime::profiler::profile_workload;
use datamime::search::{emd_objective, evaluate, search_with_runtime, OptimizerKind};
use datamime::workload::Workload;

pub(super) fn run(s: &Settings, _: &mut Searches) -> Report {
    let mut r = Report::new("ablations", s);
    let iters = s.iters.min(30);

    let base_cfg = {
        let mut c = s.search_config();
        c.iterations = iters;
        c.profiling = c.profiling.without_curves();
        c
    };
    // Keep the ablation target inside the generator's family (no
    // multigets) so arms are compared on search quality, not on the
    // irreducible model-mismatch floor.
    let mut target = Workload::mem_fb();
    if let datamime::workload::AppConfig::Kv(c) = &mut target.app {
        c.multiget_fraction = 0.0;
    }
    let target_profile = profile_workload(&target, &base_cfg.machine, &base_cfg.profiling);
    let yardstick = MetricWeights::equal();
    let score = |outcome: &datamime::search::SearchOutcome| {
        profile_error(&target_profile, &outcome.best_profile, &yardstick).total
    };

    // 1. BO vs random search.
    eprintln!("ablation 1: optimizer ...");
    let run = |cfg: &datamime::search::SearchConfig| {
        search_with_runtime(
            &KvGenerator::new(),
            &target_profile,
            cfg,
            &s.runtime_options(),
        )
        .expect("journal-less search cannot fail")
    };
    let bo = run(&base_cfg);
    let mut rnd_cfg = base_cfg.clone();
    rnd_cfg.optimizer = OptimizerKind::Random;
    let rnd = run(&rnd_cfg);
    r.line(format!(
        "optimizer @ {iters} iters: bayesian {:.4}  random {:.4}",
        score(&bo),
        score(&rnd)
    ));

    // 2. EMD vs KS distance in the objective.
    eprintln!("ablation 2: distance ...");
    let mut ks_cfg = base_cfg.clone();
    ks_cfg.weights.distance = DistanceKind::KolmogorovSmirnov;
    let ks = run(&ks_cfg);
    r.line(format!(
        "distance (scored by equal-weight EMD): emd-objective {:.4}  ks-objective {:.4}",
        score(&bo),
        score(&ks)
    ));

    // 3. Acquisition function. The search loop always uses EI; emulate LCB
    // by swapping the optimizer configuration at the bayesopt level and
    // driving the bare optimizer directly on the runtime executor.
    eprintln!("ablation 3: acquisition ...");
    {
        use datamime::generator::DatasetGenerator;
        use datamime_bayesopt::{Acquisition, BayesOpt, BoConfig};
        use datamime_runtime::{with_local_backend, Executor, RunMeta};
        let generator = KvGenerator::new();
        let run_with = |acq: Acquisition| {
            let mut cfg = BoConfig::for_dims(generator.dims());
            cfg.acquisition = acq;
            let mut bo = BayesOpt::new(cfg, 0xAB1A);
            let meta = RunMeta {
                label: format!("ablation-acquisition-{acq:?}"),
                seed: 0xAB1A,
                dims: generator.dims(),
                iterations: iters,
                batch_k: 1,
                workers: 1,
                optimizer: "bayesian".to_string(),
            };
            // `base_cfg` weighs metrics equally, so the shared evaluation
            // scores each point by the yardstick itself.
            let objective = emd_objective(&target_profile, &base_cfg.weights);
            let eval = |unit: &[f64], stages: &mut _, cancel: &_| {
                evaluate(
                    &generator, &base_cfg, &objective, unit, stages, cancel, None,
                )
                .error
            };
            let exec = Executor::new(meta);
            with_local_backend(1, exec.supervisor(), &eval, |backend| {
                exec.run(&mut bo, backend)
            })
            .expect("journal-less run cannot fail")
            .best_error
        };
        r.line(format!(
            "acquisition @ {iters} iters: expected-improvement {:.4}  lower-confidence-bound {:.4}",
            run_with(Acquisition::ExpectedImprovement),
            run_with(Acquisition::LowerConfidenceBound)
        ));
    }

    r
}
