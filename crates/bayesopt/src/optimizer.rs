//! The Bayesian optimization loop (and a random-search baseline).
//!
//! Datamime's search (paper Sec. III-C) is a minimization of a noisy,
//! expensive, black-box error function over a unit-normalized parameter
//! space of ≤ ~20 dimensions, run for ~200 iterations. [`BayesOpt`]
//! implements the standard recipe: Latin-hypercube initial design, a
//! Matérn-5/2 GP surrogate with periodic hyperparameter refits, and
//! expected-improvement acquisition maximized over random + local
//! candidates.

use crate::acquisition::{expected_improvement, lower_confidence_bound};
use crate::gp::{GaussianProcess, TrainingSet};
use crate::kernel::Kernel;
use datamime_stats::Rng;

/// The finite penalty observed in place of a non-finite objective.
///
/// Datamime evaluations can fail (a profiling run panics, stalls past
/// its deadline, or produces NaN/Inf error); a single such failure must
/// not poison the surrogate or abort a multi-hour search. This constant
/// is large enough that the optimizer is steered away from the failed
/// region but finite so GP fitting stays well-conditioned. It matches
/// the cap used by the constant-liar batch strategy.
pub const PENALTY_OBJECTIVE: f64 = 1e6;

/// Sanitizes a raw objective value before it enters an optimizer's
/// history: finite values pass through unchanged, while NaN and ±Inf —
/// which always indicate a failed or diverged evaluation, never a
/// genuinely good point — are clamped to [`PENALTY_OBJECTIVE`].
///
/// `-Inf` is deliberately mapped to the *penalty* (not a reward):
/// under minimization a `-Inf` observation would otherwise become the
/// permanent incumbent and pin the whole search onto a broken point.
pub fn sanitize_objective(y: f64) -> f64 {
    if y.is_finite() {
        y
    } else {
        PENALTY_OBJECTIVE
    }
}

/// Samples an `n × dims` Latin hypercube design on the unit cube: each
/// dimension is stratified into `n` equal bins with one sample per bin.
///
/// # Panics
///
/// Panics if `n == 0` or `dims == 0`.
pub fn latin_hypercube(n: usize, dims: usize, rng: &mut Rng) -> Vec<Vec<f64>> {
    assert!(n > 0 && dims > 0, "degenerate design");
    let mut design = vec![vec![0.0; dims]; n];
    let mut bins: Vec<usize> = (0..n).collect();
    for d in 0..dims {
        rng.shuffle(&mut bins);
        for (row, &bin) in design.iter_mut().zip(bins.iter()) {
            row[d] = (bin as f64 + rng.f64()) / n as f64;
        }
    }
    design
}

/// A black-box minimizer over the unit hypercube, with a
/// suggest–evaluate–observe interface.
///
/// This is object-safe so experiment code can swap optimizers for the
/// BO-vs-random ablation.
pub trait BlackBoxOptimizer {
    /// Proposes the next point to evaluate, in `[0, 1]^dims`.
    fn suggest(&mut self) -> Vec<f64>;

    /// Proposes a *batch* of `k` points for parallel evaluation.
    ///
    /// The default simply calls [`suggest`](Self::suggest) `k` times, which
    /// is correct for optimizers whose proposals do not depend on pending
    /// observations (e.g. [`RandomSearch`]). Model-based optimizers should
    /// override this with a batch strategy (see [`BayesOpt`]'s
    /// constant-liar implementation).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    fn suggest_batch(&mut self, k: usize) -> Vec<Vec<f64>> {
        assert!(k > 0, "batch must be non-empty");
        (0..k).map(|_| self.suggest()).collect()
    }

    /// Records an evaluated point.
    fn observe(&mut self, x: Vec<f64>, y: f64);

    /// How many of the next suggestions cannot depend on any observation
    /// — pending or made in between — so a caller may draw them before
    /// the points ahead of them are observed and get the same values.
    /// The default, 0, promises nothing.
    fn observation_free(&self) -> usize {
        0
    }

    /// The best observation so far, if any.
    fn best(&self) -> Option<(&[f64], f64)>;

    /// All observations, in evaluation order.
    fn history(&self) -> &[(Vec<f64>, f64)];
}

/// Acquisition function selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquisition {
    /// Expected improvement (the default).
    ExpectedImprovement,
    /// Lower confidence bound (for the acquisition ablation).
    LowerConfidenceBound,
}

/// Configuration of a [`BayesOpt`] run.
#[derive(Debug, Clone)]
pub struct BoConfig {
    /// Size of the Latin-hypercube initial design.
    pub init_points: usize,
    /// Number of random candidates scored by the acquisition per round.
    pub candidates: usize,
    /// Number of local (perturbation-of-best) candidates per round.
    pub local_candidates: usize,
    /// Refit GP hyperparameters every this many observations.
    pub refit_every: usize,
    /// Acquisition function.
    pub acquisition: Acquisition,
    /// Kernel family (lengthscales/variance are refit).
    pub kernel: Kernel,
    /// EI exploration margin.
    pub xi: f64,
}

impl BoConfig {
    /// A sensible default configuration for `dims` dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0`.
    pub fn for_dims(dims: usize) -> Self {
        assert!(dims > 0, "need at least one dimension");
        BoConfig {
            init_points: (2 * dims).clamp(6, 20),
            candidates: 1024,
            local_candidates: 256,
            refit_every: 10,
            acquisition: Acquisition::ExpectedImprovement,
            kernel: Kernel::matern52(dims, 0.3),
            xi: 0.01,
        }
    }
}

/// Gaussian-process Bayesian optimization (minimization) on the unit cube.
///
/// # Examples
///
/// ```
/// use datamime_bayesopt::{BayesOpt, BlackBoxOptimizer, BoConfig};
///
/// // Minimize a noisy quadratic with minimum at (0.3, 0.7).
/// let mut bo = BayesOpt::new(BoConfig::for_dims(2), 1);
/// for _ in 0..30 {
///     let x = bo.suggest();
///     let y = (x[0] - 0.3f64).powi(2) + (x[1] - 0.7f64).powi(2);
///     bo.observe(x, y);
/// }
/// let (xb, yb) = bo.best().unwrap();
/// assert!(yb < 0.05, "best {yb} at {xb:?}");
/// ```
#[derive(Debug)]
pub struct BayesOpt {
    cfg: BoConfig,
    dims: usize,
    rng: Rng,
    init_design: Vec<Vec<f64>>,
    history: Vec<(Vec<f64>, f64)>,
    /// Pending constant-liar pseudo-observations from [`suggest_batch`]
    /// (one per suggested-but-not-yet-observed point). They join the real
    /// history for surrogate fitting so in-flight points repel new
    /// suggestions, and each is replaced by the matching real observation
    /// in [`observe`]. Never exposed through [`history`] or [`best`].
    ///
    /// [`suggest_batch`]: BlackBoxOptimizer::suggest_batch
    /// [`observe`]: BlackBoxOptimizer::observe
    /// [`history`]: BlackBoxOptimizer::history
    /// [`best`]: BlackBoxOptimizer::best
    fantasies: Vec<(Vec<f64>, f64)>,
    gp: Option<GaussianProcess>,
    observed_since_fit: usize,
}

impl BayesOpt {
    /// Creates an optimizer with the given configuration and seed.
    pub fn new(cfg: BoConfig, seed: u64) -> Self {
        let dims = cfg.kernel.dims();
        let mut rng = Rng::with_seed(seed);
        let mut init_design = latin_hypercube(cfg.init_points, dims, &mut rng);
        init_design.reverse(); // pop() yields the design in order
        BayesOpt {
            cfg,
            dims,
            rng,
            init_design,
            history: Vec::new(),
            fantasies: Vec::new(),
            gp: None,
            observed_since_fit: 0,
        }
    }

    /// Number of dimensions searched.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Real observations plus pending constant-liar fantasies, in order —
    /// the surrogate's training set.
    fn training_set(&self) -> impl Iterator<Item = &(Vec<f64>, f64)> {
        self.history.iter().chain(self.fantasies.iter())
    }

    fn refit(&mut self) {
        let data = TrainingSet::new(
            self.dims,
            self.training_set().map(|(x, y)| (x.as_slice(), *y)),
        );
        let due = self.observed_since_fit + self.fantasies.len() >= self.cfg.refit_every;
        let gp = match &self.gp {
            Some(prev) if !due => {
                data.and_then(|d| GaussianProcess::fit_on(prev.kernel().clone(), prev.noise(), d))
            }
            _ => {
                self.observed_since_fit = 0;
                let family = self.cfg.kernel.clone();
                data.and_then(|d| GaussianProcess::fit_hyperparams_on(family, d, &mut self.rng))
            }
        };
        if let Ok(gp) = gp {
            self.gp = Some(gp);
        }
    }

    /// The acquisition value ("higher is better") of a posterior
    /// `(mean, variance)` against the incumbent `best`.
    fn score(&self, (mean, var): (f64, f64), best: f64) -> f64 {
        match self.cfg.acquisition {
            Acquisition::ExpectedImprovement => expected_improvement(mean, var, best, self.cfg.xi),
            // LCB: lower is better, so negate to keep "higher is better".
            Acquisition::LowerConfidenceBound => -lower_confidence_bound(mean, var, 2.0),
        }
    }
}

impl BlackBoxOptimizer for BayesOpt {
    fn suggest(&mut self) -> Vec<f64> {
        // Initial design first.
        if let Some(x) = self.init_design.pop() {
            return x;
        }
        self.refit();
        let Some(gp) = &self.gp else {
            // Surrogate fit failed: fall back to random.
            return (0..self.dims).map(|_| self.rng.f64()).collect();
        };
        let (best_x, best_y) = self
            .training_set()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(x, y)| (x.clone(), *y))
            .expect("history is non-empty after the initial design");

        // One candidate buffer and one prediction scratch serve all
        // candidates; only a new best is copied out.
        let mut best_score: Option<f64> = None;
        let mut best_cand = vec![0.0; self.dims];
        let mut cand = vec![0.0; self.dims];
        let mut scratch = Vec::new();
        let n_global = self.cfg.candidates;
        let n_local = self.cfg.local_candidates;
        for i in 0..n_global + n_local {
            if i < n_global {
                cand.fill_with(|| self.rng.f64());
            } else {
                // Gaussian perturbation of the incumbent.
                for (c, &v) in cand.iter_mut().zip(&best_x) {
                    let u1 = 1.0 - self.rng.f64();
                    let u2 = self.rng.f64();
                    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                    *c = (v + 0.05 * z).clamp(0.0, 1.0);
                }
            }
            let s = self.score(gp.predict_with(&cand, &mut scratch), best_y);
            if best_score.is_none_or(|bs| s > bs) {
                best_score = Some(s);
                best_cand.copy_from_slice(&cand);
            }
        }
        assert!(best_score.is_some(), "at least one candidate");
        best_cand
    }

    /// Proposes a batch using the constant-liar strategy: each suggested
    /// point is recorded as a pending *fantasy* observation at the
    /// incumbent value, so subsequent suggestions (in this batch and any
    /// overlapping one) spread out instead of piling onto one optimum.
    /// The matching real [`observe`](BlackBoxOptimizer::observe) call
    /// replaces each fantasy, so the real history never contains lies.
    ///
    /// The lie is the best observed value, capped at `1e6`. With an empty
    /// history the cap itself is used; the concrete value is irrelevant
    /// there because suggestions still come from the Latin-hypercube
    /// initial design, which ignores observations.
    ///
    /// This is the parallel-Bayesian-optimization extension the paper
    /// defers to future work (Sec. IV cites batch BO as the mechanism).
    fn suggest_batch(&mut self, k: usize) -> Vec<Vec<f64>> {
        assert!(k > 0, "batch must be non-empty");
        let lie = self
            .history
            .iter()
            .map(|(_, y)| *y)
            .fold(f64::INFINITY, f64::min)
            .min(1e6);
        (0..k)
            .map(|_| {
                let x = self.suggest();
                self.fantasies.push((x.clone(), lie));
                x
            })
            .collect()
    }

    /// Records an evaluated point. Non-finite objectives are sanitized to
    /// [`PENALTY_OBJECTIVE`] (see [`sanitize_objective`]) rather than
    /// asserted on: a failed evaluation penalizes its region instead of
    /// aborting the search.
    fn observe(&mut self, x: Vec<f64>, y: f64) {
        assert_eq!(x.len(), self.dims, "observation dimension mismatch");
        let y = sanitize_objective(y);
        // A real observation supersedes its pending constant-liar fantasy.
        if let Some(pos) = self.fantasies.iter().position(|(fx, _)| fx == &x) {
            self.fantasies.remove(pos);
        }
        self.history.push((x, y));
        self.observed_since_fit += 1;
    }

    /// What is left of the Latin-hypercube design: [`suggest`] pops it
    /// without reading the history or the pending fantasies.
    ///
    /// [`suggest`]: BlackBoxOptimizer::suggest
    fn observation_free(&self) -> usize {
        self.init_design.len()
    }

    fn best(&self) -> Option<(&[f64], f64)> {
        self.history
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(x, y)| (x.as_slice(), *y))
    }

    fn history(&self) -> &[(Vec<f64>, f64)] {
        &self.history
    }
}

/// Uniform random search — the baseline the paper's optimizer is implicitly
/// compared against (and our convergence-ablation comparator).
#[derive(Debug)]
pub struct RandomSearch {
    dims: usize,
    rng: Rng,
    history: Vec<(Vec<f64>, f64)>,
}

impl RandomSearch {
    /// Creates a random searcher over `dims` dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0`.
    pub fn new(dims: usize, seed: u64) -> Self {
        assert!(dims > 0, "need at least one dimension");
        RandomSearch {
            dims,
            rng: Rng::with_seed(seed),
            history: Vec::new(),
        }
    }
}

impl BlackBoxOptimizer for RandomSearch {
    fn suggest(&mut self) -> Vec<f64> {
        (0..self.dims).map(|_| self.rng.f64()).collect()
    }

    fn observe(&mut self, x: Vec<f64>, y: f64) {
        assert_eq!(x.len(), self.dims, "observation dimension mismatch");
        self.history.push((x, sanitize_objective(y)));
    }

    /// Every suggestion: each is a fresh uniform draw.
    fn observation_free(&self) -> usize {
        usize::MAX
    }

    fn best(&self) -> Option<(&[f64], f64)> {
        self.history
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(x, y)| (x.as_slice(), *y))
    }

    fn history(&self) -> &[(Vec<f64>, f64)] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run<O: BlackBoxOptimizer>(opt: &mut O, f: impl Fn(&[f64]) -> f64, iters: usize) -> f64 {
        for _ in 0..iters {
            let x = opt.suggest();
            let y = f(&x);
            opt.observe(x, y);
        }
        opt.best().unwrap().1
    }

    #[test]
    fn latin_hypercube_stratifies() {
        let mut rng = Rng::with_seed(1);
        let d = latin_hypercube(10, 2, &mut rng);
        assert_eq!(d.len(), 10);
        for dim in 0..2 {
            let mut bins = [false; 10];
            for x in &d {
                assert!((0.0..1.0).contains(&x[dim]));
                bins[(x[dim] * 10.0) as usize] = true;
            }
            assert!(bins.iter().all(|&b| b), "each bin occupied in dim {dim}");
        }
    }

    #[test]
    fn bo_finds_quadratic_minimum() {
        let f = |x: &[f64]| (x[0] - 0.6f64).powi(2) + (x[1] - 0.2f64).powi(2);
        let mut bo = BayesOpt::new(BoConfig::for_dims(2), 3);
        let best = run(&mut bo, f, 35);
        assert!(best < 0.01, "best {best}");
        let (x, _) = bo.best().unwrap();
        assert!(
            (x[0] - 0.6).abs() < 0.15 && (x[1] - 0.2).abs() < 0.15,
            "{x:?}"
        );
    }

    #[test]
    fn bo_beats_random_search_on_smooth_function() {
        // Branin-like smooth 2-D function; average over seeds.
        let f = |x: &[f64]| {
            let (a, b) = (x[0] * 3.0 - 1.0, x[1] * 3.0 - 1.0);
            (a * a + b - 1.1).powi(2) + (a + b * b - 0.7).powi(2)
        };
        let mut bo_wins = 0;
        for seed in 0..5 {
            let mut bo = BayesOpt::new(BoConfig::for_dims(2), seed);
            let mut rs = RandomSearch::new(2, seed + 100);
            let b = run(&mut bo, f, 30);
            let r = run(&mut rs, f, 30);
            if b <= r {
                bo_wins += 1;
            }
        }
        assert!(
            bo_wins >= 3,
            "BO won only {bo_wins}/5 against random search"
        );
    }

    #[test]
    fn bo_handles_noisy_objective() {
        let mut noise_rng = Rng::with_seed(77);
        let mut bo = BayesOpt::new(BoConfig::for_dims(1), 5);
        for _ in 0..30 {
            let x = bo.suggest();
            let y = (x[0] - 0.5f64).powi(2) + 0.01 * (noise_rng.f64() - 0.5);
            bo.observe(x, y);
        }
        let (x, _) = bo.best().unwrap();
        assert!((x[0] - 0.5).abs() < 0.2, "{x:?}");
    }

    #[test]
    fn bo_handles_higher_dimensions() {
        // 8-D sphere: the paper notes BO handles up to ~20 dims.
        let f = |x: &[f64]| x.iter().map(|v| (v - 0.5).powi(2)).sum::<f64>();
        let mut bo = BayesOpt::new(BoConfig::for_dims(8), 9);
        let best = run(&mut bo, f, 60);
        let mut rs = RandomSearch::new(8, 9);
        let rand_best = run(&mut rs, f, 60);
        assert!(best < rand_best, "bo {best} vs random {rand_best}");
    }

    #[test]
    fn lcb_acquisition_also_converges() {
        let mut cfg = BoConfig::for_dims(2);
        cfg.acquisition = Acquisition::LowerConfidenceBound;
        let f = |x: &[f64]| (x[0] - 0.4f64).powi(2) + (x[1] - 0.6f64).powi(2);
        let mut bo = BayesOpt::new(cfg, 11);
        let best = run(&mut bo, f, 35);
        assert!(best < 0.02, "best {best}");
    }

    #[test]
    fn suggestions_stay_in_unit_cube() {
        let mut bo = BayesOpt::new(BoConfig::for_dims(3), 13);
        for i in 0..25 {
            let x = bo.suggest();
            assert!(x.iter().all(|v| (0.0..=1.0).contains(v)), "iter {i}: {x:?}");
            bo.observe(x, (i as f64).sin().abs());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let f = |x: &[f64]| (x[0] - 0.3f64).powi(2);
        let mut a = BayesOpt::new(BoConfig::for_dims(1), 21);
        let mut b = BayesOpt::new(BoConfig::for_dims(1), 21);
        for _ in 0..15 {
            let xa = a.suggest();
            let xb = b.suggest();
            assert_eq!(xa, xb);
            a.observe(xa.clone(), f(&xa));
            b.observe(xb.clone(), f(&xb));
        }
    }

    #[test]
    fn non_finite_observations_are_sanitized_to_penalty() {
        let mut bo = BayesOpt::new(BoConfig::for_dims(1), 1);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let x = bo.suggest();
            bo.observe(x, bad);
        }
        assert_eq!(bo.history().len(), 3);
        assert!(bo.history().iter().all(|(_, y)| *y == PENALTY_OBJECTIVE));
        // -Inf must not become the incumbent: best is the finite penalty.
        assert_eq!(bo.best().unwrap().1, PENALTY_OBJECTIVE);
        // The optimizer keeps working after sanitized failures.
        let x = bo.suggest();
        assert!(x.iter().all(|v| (0.0..=1.0).contains(v)));
        bo.observe(x, 0.5);
        assert_eq!(bo.best().unwrap().1, 0.5);
    }

    #[test]
    fn sanitize_passes_finite_values_through() {
        assert_eq!(sanitize_objective(1.25), 1.25);
        assert_eq!(sanitize_objective(-3.0), -3.0);
        assert_eq!(sanitize_objective(f64::NAN), PENALTY_OBJECTIVE);
        assert_eq!(sanitize_objective(f64::INFINITY), PENALTY_OBJECTIVE);
        assert_eq!(sanitize_objective(f64::NEG_INFINITY), PENALTY_OBJECTIVE);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;

    #[test]
    fn batch_points_are_diverse_and_in_bounds() {
        let mut bo = BayesOpt::new(BoConfig::for_dims(2), 31);
        // Seed with some observations first.
        for _ in 0..12 {
            let x = bo.suggest();
            let y = (x[0] - 0.5f64).powi(2) + (x[1] - 0.5f64).powi(2);
            bo.observe(x, y);
        }
        let batch = bo.suggest_batch(4);
        assert_eq!(batch.len(), 4);
        for x in &batch {
            assert!(x.iter().all(|v| (0.0..=1.0).contains(v)));
        }
        // Constant liar must prevent identical suggestions.
        for i in 0..batch.len() {
            for j in i + 1..batch.len() {
                let d: f64 = batch[i]
                    .iter()
                    .zip(&batch[j])
                    .map(|(a, b)| (a - b).powi(2))
                    .sum::<f64>()
                    .sqrt();
                assert!(d > 1e-6, "batch points {i} and {j} identical");
            }
        }
        // History was restored (no lies left behind).
        assert_eq!(bo.history().len(), 12);
    }

    #[test]
    fn batched_optimization_still_converges() {
        let mut bo = BayesOpt::new(BoConfig::for_dims(2), 33);
        for _ in 0..10 {
            let batch = bo.suggest_batch(3);
            for x in batch {
                let y = (x[0] - 0.7f64).powi(2) + (x[1] - 0.3f64).powi(2);
                bo.observe(x, y);
            }
        }
        assert!(bo.best().unwrap().1 < 0.02, "best {}", bo.best().unwrap().1);
    }

    #[test]
    fn batch_works_during_initial_design() {
        let mut bo = BayesOpt::new(BoConfig::for_dims(3), 35);
        let batch = bo.suggest_batch(5);
        assert_eq!(batch.len(), 5);
        assert!(bo.history().is_empty());
    }

    #[test]
    #[should_panic(expected = "batch must be non-empty")]
    fn empty_batch_panics() {
        BayesOpt::new(BoConfig::for_dims(1), 1).suggest_batch(0);
    }

    #[test]
    fn observe_replaces_fantasies_so_history_has_only_real_points() {
        // Regression: constant-liar fantasies must never leak into
        // `history()` — after a full suggest_batch/observe cycle the
        // history holds exactly the real observations, with no duplicated
        // points and no leftover lies polluting later fits.
        let mut bo = BayesOpt::new(BoConfig::for_dims(2), 41);
        for _ in 0..10 {
            let x = bo.suggest();
            let y = (x[0] - 0.4f64).powi(2) + (x[1] - 0.6f64).powi(2);
            bo.observe(x, y);
        }
        for round in 0..3 {
            let batch = bo.suggest_batch(4);
            for x in batch {
                let y = (x[0] - 0.4f64).powi(2) + (x[1] - 0.6f64).powi(2);
                bo.observe(x, y);
            }
            assert_eq!(bo.history().len(), 10 + 4 * (round + 1));
        }
        // No point appears twice (a lie paired with its real observation
        // would duplicate the x vector).
        let h = bo.history();
        for i in 0..h.len() {
            for j in i + 1..h.len() {
                assert_ne!(h[i].0, h[j].0, "history entries {i} and {j} duplicated");
            }
        }
        // Lies are the incumbent value, so none may undercut the real best.
        let real_best = bo.best().unwrap().1;
        assert!(h.iter().all(|(_, y)| *y >= real_best));
    }

    #[test]
    fn pending_fantasies_repel_the_next_suggestion() {
        // While a batch is in flight, its fantasy observations must steer
        // later suggestions away from the pending points.
        let mut bo = BayesOpt::new(BoConfig::for_dims(2), 43);
        for _ in 0..12 {
            let x = bo.suggest();
            let y = (x[0] - 0.5f64).powi(2) + (x[1] - 0.5f64).powi(2);
            bo.observe(x, y);
        }
        let batch = bo.suggest_batch(3);
        let next = bo.suggest(); // fantasies still pending
        for (i, x) in batch.iter().enumerate() {
            let d: f64 = x
                .iter()
                .zip(&next)
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f64>()
                .sqrt();
            assert!(d > 1e-6, "suggestion collided with pending point {i}");
        }
    }

    /// The design's suggestions are the same whatever is observed in
    /// between, and `observation_free` counts down to 0 exactly as the
    /// design runs out.
    #[test]
    fn design_suggestions_ignore_observations() {
        let cfg = BoConfig::for_dims(3);
        let n = cfg.init_points;
        let mut quiet = BayesOpt::new(cfg.clone(), 45);
        let mut busy = BayesOpt::new(cfg, 45);
        // `quiet` draws the whole design before observing anything;
        // `busy` observes each point (NaN included) before the next.
        let drawn: Vec<Vec<f64>> = (0..n).map(|_| quiet.suggest_batch(1).remove(0)).collect();
        for (i, x) in drawn.iter().enumerate() {
            assert_eq!(busy.observation_free(), n - i);
            let y = busy.suggest();
            assert_eq!(bits(&y), bits(x), "design point {i}");
            busy.observe(y, if i == 1 { f64::NAN } else { i as f64 });
        }
        assert_eq!(quiet.observation_free(), 0);
        assert_eq!(busy.observation_free(), 0);
        for (i, x) in drawn.into_iter().enumerate() {
            quiet.observe(x, if i == 1 { f64::NAN } else { i as f64 });
        }
        // Past the design, both fit the same history to the same point.
        assert_eq!(bits(&quiet.suggest()), bits(&busy.suggest()));
        assert_eq!(busy.observation_free(), 0);
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn random_search_never_reads_its_observations() {
        assert_eq!(RandomSearch::new(2, 1).observation_free(), usize::MAX);
    }

    #[test]
    fn default_trait_batch_matches_repeated_suggest() {
        let mut a = RandomSearch::new(3, 7);
        let mut b = RandomSearch::new(3, 7);
        let batch = a.suggest_batch(5);
        let singles: Vec<Vec<f64>> = (0..5).map(|_| b.suggest()).collect();
        assert_eq!(batch, singles);
    }
}
