//! The reference optimiser: the row-ordered, allocate-per-call GP stack
//! this crate shipped before its core went column-major, kept verbatim as
//! the oracle the fast path is proved against.
//!
//! [`SquareMatrix`] and [`Cholesky`] are the textbook row-major
//! factorisation and substitutions; [`GaussianProcess`] builds both
//! triangles of `K` pair by pair through [`Kernel::eval`] and allocates
//! per `fit` and per `predict`; [`BayesOpt`] clones its history into every
//! refit. Slow, and obviously the arithmetic the fast path claims to
//! reproduce: every `L(i, j)`, every `α`, every marginal likelihood, every
//! predicted mean and variance and every suggested point must agree with
//! the crate-root types **to the bit** (`tests/reference_equivalence.rs`,
//! the unit tests of `gp`, and `bench_sim --cross-check`). Nothing outside
//! tests and the bench cross-check may call into this module — the way
//! `stats::emd_area_naive` and `sim::reference::RefCache` are kept.

use crate::acquisition::{expected_improvement, lower_confidence_bound};
use crate::gp::GpError;
use crate::kernel::Kernel;
use crate::linalg::dot;
use crate::neldermead::nelder_mead;
use crate::optimizer::{
    latin_hypercube, sanitize_objective, Acquisition, BlackBoxOptimizer, BoConfig,
};
use datamime_stats::Rng;
use std::fmt;

/// A dense, row-major, square matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SquareMatrix {
    n: usize,
    data: Vec<f64>,
}

/// Error returned when a matrix is not positive definite (Cholesky fails).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotPositiveDefiniteError {
    /// Pivot index where factorization failed.
    pub pivot: usize,
}

impl fmt::Display for NotPositiveDefiniteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is not positive definite (pivot {})", self.pivot)
    }
}

impl std::error::Error for NotPositiveDefiniteError {}

impl SquareMatrix {
    /// Creates an `n × n` zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn zeros(n: usize) -> Self {
        assert!(n > 0, "matrix dimension must be positive");
        SquareMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// Adds `v` to the diagonal (jitter / noise term).
    pub fn add_diagonal(&mut self, v: f64) {
        for i in 0..self.n {
            self.data[i * self.n + i] += v;
        }
    }
}

/// The lower-triangular Cholesky factor `L` of a symmetric positive
/// definite matrix `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: SquareMatrix,
}

impl Cholesky {
    /// Factorizes `a` (reads only the lower triangle).
    ///
    /// # Errors
    ///
    /// Returns an error if `a` is not (numerically) positive definite.
    pub fn new(a: &SquareMatrix) -> Result<Self, NotPositiveDefiniteError> {
        let n = a.dim();
        let mut l = SquareMatrix::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a.get(i, j);
                for k in 0..j {
                    sum -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(NotPositiveDefiniteError { pivot: i });
                    }
                    l.set(i, j, sum.sqrt());
                } else {
                    l.set(i, j, sum / l.get(j, j));
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.l.dim()
    }

    /// `L(i, j)` (zero above the diagonal) — for the oracle comparison.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.l.get(i, j)
    }

    /// Solves `L z = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs length mismatch");
        let mut z = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for (k, zk) in z.iter().enumerate().take(i) {
                sum -= self.l.get(i, k) * zk;
            }
            z[i] = sum / self.l.get(i, i);
        }
        z
    }

    /// Solves `Lᵀ x = z` (backward substitution).
    pub fn solve_upper(&self, z: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(z.len(), n, "rhs length mismatch");
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = z[i];
            for (k, xk) in x.iter().enumerate().take(n).skip(i + 1) {
                sum -= self.l.get(k, i) * xk;
            }
            x[i] = sum / self.l.get(i, i);
        }
        x
    }

    /// Solves `A x = b` where `A = L Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }

    /// `log det A = 2 Σ log Lᵢᵢ`.
    pub fn log_determinant(&self) -> f64 {
        (0..self.dim()).map(|i| self.l.get(i, i).ln()).sum::<f64>() * 2.0
    }
}

/// The reference twin of [`crate::GaussianProcess`]: same interface, same
/// results to the bit, every matrix and vector allocated per call.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: Kernel,
    noise: f64,
    xs: Vec<Vec<f64>>,
    y_mean: f64,
    y_std: f64,
    chol: Cholesky,
    alpha: Vec<f64>,
    lml: f64,
}

impl GaussianProcess {
    /// Fits a GP with fixed hyperparameters.
    ///
    /// # Errors
    ///
    /// Returns an error if the data is empty, dimensions mismatch, or the
    /// covariance matrix cannot be factorized even with jitter.
    pub fn fit(
        kernel: Kernel,
        noise: f64,
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
    ) -> Result<Self, GpError> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(GpError::NoData);
        }
        let dims = kernel.dims();
        if let Some(bad) = xs.iter().find(|x| x.len() != dims) {
            return Err(GpError::DimensionMismatch {
                expected: dims,
                found: bad.len(),
            });
        }
        let n = xs.len();
        let y_mean = ys.iter().sum::<f64>() / n as f64;
        let var = ys.iter().map(|y| (y - y_mean).powi(2)).sum::<f64>() / n as f64;
        let y_std = var.sqrt().max(1e-9);
        let y_norm: Vec<f64> = ys.iter().map(|y| (y - y_mean) / y_std).collect();

        let mut k = SquareMatrix::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                let v = kernel.eval(&xs[i], &xs[j]);
                k.set(i, j, v);
                k.set(j, i, v);
            }
        }
        k.add_diagonal(noise.max(1e-10));

        // Retry with growing jitter if needed.
        let mut jitter = 1e-10;
        let chol = loop {
            match Cholesky::new(&k) {
                Ok(c) => break c,
                Err(_) if jitter < 1e-2 => {
                    k.add_diagonal(jitter);
                    jitter *= 10.0;
                }
                Err(_) => return Err(GpError::IllConditioned),
            }
        };
        let alpha = chol.solve(&y_norm);
        // log p(y) = -0.5 yᵀ α − 0.5 log|K| − n/2 log 2π  (standardized y).
        let lml = -0.5 * dot(&y_norm, &alpha)
            - 0.5 * chol.log_determinant()
            - 0.5 * n as f64 * (std::f64::consts::TAU).ln();

        Ok(GaussianProcess {
            kernel,
            noise,
            xs,
            y_mean,
            y_std,
            chol,
            alpha,
            lml,
        })
    }

    /// Fits hyperparameters (log lengthscales, log variance, log noise) by
    /// maximizing the log marginal likelihood with multi-start Nelder–Mead,
    /// then returns the GP fit at the best parameters.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GaussianProcess::fit`].
    pub fn fit_hyperparams(
        kernel_family: Kernel,
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        rng: &mut Rng,
    ) -> Result<Self, GpError> {
        let dims = kernel_family.dims();
        let objective = |theta: &[f64]| -> f64 {
            // theta = [log ls_0.. log ls_d-1, log var, log noise]
            let ls: Vec<f64> = theta[..dims]
                .iter()
                .map(|t| t.exp().clamp(1e-3, 1e3))
                .collect();
            let var = theta[dims].exp().clamp(1e-4, 1e4);
            let noise = theta[dims + 1].exp().clamp(1e-8, 1.0);
            let k = kernel_family.with_params(var, ls);
            match GaussianProcess::fit(k, noise, xs.clone(), ys.clone()) {
                Ok(gp) => -gp.lml, // minimize negative LML
                Err(_) => 1e12,
            }
        };

        let mut best: Option<(f64, Vec<f64>)> = None;
        for start in 0..4 {
            let mut x0 = vec![0.0; dims + 2];
            for (d, v) in x0.iter_mut().enumerate().take(dims) {
                *v = if start == 0 {
                    (0.3f64).ln()
                } else {
                    (0.05 + rng.f64() * 1.5).ln()
                };
                let _ = d;
            }
            x0[dims] = 0.0; // log var = 0
            x0[dims + 1] = (1e-3f64).ln();
            let (xopt, fopt) = nelder_mead(&objective, &x0, 0.5, 120);
            if best.as_ref().is_none_or(|(bf, _)| fopt < *bf) {
                best = Some((fopt, xopt));
            }
        }
        let (_, theta) = best.expect("at least one start");
        let ls: Vec<f64> = theta[..dims]
            .iter()
            .map(|t| t.exp().clamp(1e-3, 1e3))
            .collect();
        let var = theta[dims].exp().clamp(1e-4, 1e4);
        let noise = theta[dims + 1].exp().clamp(1e-8, 1.0);
        GaussianProcess::fit(kernel_family.with_params(var, ls), noise, xs, ys)
    }

    /// Posterior mean and variance at `x`, on the original target scale.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        assert_eq!(x.len(), self.kernel.dims(), "query dimension mismatch");
        let kx: Vec<f64> = self.xs.iter().map(|xi| self.kernel.eval(x, xi)).collect();
        let mean_std = dot(&kx, &self.alpha);
        let v = self.chol.solve_lower(&kx);
        let var_std = (self.kernel.variance() + self.noise - dot(&v, &v)).max(0.0);
        (
            self.y_mean + self.y_std * mean_std,
            var_std * self.y_std * self.y_std,
        )
    }

    /// Log marginal likelihood of the (standardized) observations.
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.lml
    }

    /// The fitted kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Observation noise variance.
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// The factor of `K + σ²I` (plus whatever jitter it took) — for the
    /// oracle comparison.
    pub fn factor(&self) -> &Cholesky {
        &self.chol
    }

    /// `α = (K + σ²I)⁻¹ y` on the standardized targets — for the oracle
    /// comparison.
    pub fn alpha(&self) -> &[f64] {
        &self.alpha
    }
}

/// The reference twin of [`crate::BayesOpt`], driving the reference
/// [`GaussianProcess`]: for one configuration and seed, and the same
/// observations, both must suggest the same points to the bit.
#[derive(Debug)]
pub struct BayesOpt {
    cfg: BoConfig,
    dims: usize,
    rng: Rng,
    init_design: Vec<Vec<f64>>,
    history: Vec<(Vec<f64>, f64)>,
    /// Pending constant-liar pseudo-observations, one per suggested but
    /// not yet observed point.
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
        let xs: Vec<Vec<f64>> = self.training_set().map(|(x, _)| x.clone()).collect();
        let ys: Vec<f64> = self.training_set().map(|(_, y)| *y).collect();
        let need_hyper_fit = self.gp.is_none()
            || self.observed_since_fit + self.fantasies.len() >= self.cfg.refit_every;
        let gp = if need_hyper_fit {
            self.observed_since_fit = 0;
            GaussianProcess::fit_hyperparams(self.cfg.kernel.clone(), xs, ys, &mut self.rng).ok()
        } else if let Some(prev) = &self.gp {
            GaussianProcess::fit(prev.kernel().clone(), prev.noise(), xs, ys).ok()
        } else {
            None
        };
        if let Some(gp) = gp {
            self.gp = Some(gp);
        }
    }

    fn score(&self, gp: &GaussianProcess, x: &[f64], best: f64) -> f64 {
        let (mean, var) = gp.predict(x);
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

        let mut best_cand: Option<(f64, Vec<f64>)> = None;
        let n_global = self.cfg.candidates;
        let n_local = self.cfg.local_candidates;
        for i in 0..n_global + n_local {
            let cand: Vec<f64> = if i < n_global {
                (0..self.dims).map(|_| self.rng.f64()).collect()
            } else {
                // Gaussian perturbation of the incumbent.
                best_x
                    .iter()
                    .map(|&v| {
                        let u1 = 1.0 - self.rng.f64();
                        let u2 = self.rng.f64();
                        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                        (v + 0.05 * z).clamp(0.0, 1.0)
                    })
                    .collect()
            };
            let s = self.score(gp, &cand, best_y);
            if best_cand.as_ref().is_none_or(|(bs, _)| s > *bs) {
                best_cand = Some((s, cand));
            }
        }
        best_cand.expect("at least one candidate").1
    }

    /// Constant-liar batches, as [`crate::BayesOpt`] documents them.
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

    fn from_rows(rows: &[&[f64]]) -> SquareMatrix {
        let n = rows.len();
        let mut m = SquareMatrix::zeros(n);
        for (i, r) in rows.iter().enumerate() {
            for (j, &v) in r.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        m
    }

    #[test]
    fn cholesky_of_identity() {
        let mut a = SquareMatrix::zeros(3);
        a.add_diagonal(1.0);
        let c = Cholesky::new(&a).unwrap();
        assert_eq!(c.solve(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
        assert!((c.log_determinant()).abs() < 1e-12);
    }

    #[test]
    fn cholesky_known_factor() {
        // A = [[4, 2], [2, 3]] -> L = [[2, 0], [1, sqrt(2)]].
        let a = from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let c = Cholesky::new(&a).unwrap();
        let x = c.solve(&[8.0, 7.0]); // A x = b -> x = [1.25, 1.5]
        assert!((x[0] - 1.25).abs() < 1e-12, "{x:?}");
        assert!((x[1] - 1.5).abs() < 1e-12);
        // det A = 8.
        assert!((c.log_determinant() - 8.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn solve_roundtrip_random_spd() {
        use datamime_stats::Rng;
        let n = 12;
        let mut rng = Rng::with_seed(3);
        // Build SPD as B Bᵀ + n I.
        let b: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..n).map(|_| rng.f64() - 0.5).collect())
            .collect();
        let mut a = SquareMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                a.set(i, j, dot(&b[i], &b[j]));
            }
        }
        a.add_diagonal(n as f64);
        let c = Cholesky::new(&a).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let rhs: Vec<f64> = (0..n)
            .map(|i| (0..n).map(|j| a.get(i, j) * x_true[j]).sum())
            .collect();
        let x = c.solve(&rhs);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    #[test]
    fn non_spd_is_rejected() {
        let a = from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(Cholesky::new(&a).is_err());
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_panics() {
        SquareMatrix::zeros(0);
    }
}
