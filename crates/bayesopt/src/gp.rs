//! Gaussian-process regression with marginal-likelihood hyperparameter
//! fitting.
//!
//! The training set is laid out once per fit ([`TrainingSet`]: inputs
//! dimension-major, targets standardized) and shared by every
//! marginal-likelihood evaluation of a hyperparameter fit and by the final
//! posterior; one [`Workspace`] — `K`, its factor, `α` — serves all of
//! them. Every number is produced by the operations
//! [`crate::reference::GaussianProcess`] performs, in its order.

use crate::kernel::Kernel;
use crate::linalg::{dot, Cholesky};
use crate::neldermead::nelder_mead;
use datamime_stats::Rng;
use std::fmt;

/// Error returned when a GP cannot be fit.
#[derive(Debug, Clone, PartialEq)]
pub enum GpError {
    /// No observations were provided.
    NoData,
    /// Observation dimensions are inconsistent with the kernel.
    DimensionMismatch {
        /// Expected input dimension.
        expected: usize,
        /// Dimension found in the data.
        found: usize,
    },
    /// The covariance matrix was not positive definite even after jitter.
    IllConditioned,
}

impl fmt::Display for GpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpError::NoData => write!(f, "gaussian process requires at least one observation"),
            GpError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "input dimension mismatch: expected {expected}, found {found}"
                )
            }
            GpError::IllConditioned => write!(f, "covariance matrix is ill-conditioned"),
        }
    }
}

impl std::error::Error for GpError {}

/// A surrogate's training data in the layout the fit wants: inputs
/// dimension-major (`xt[d * n + j]` is coordinate `d` of point `j`, so a
/// kernel column or row is a contiguous sweep per dimension) and targets
/// standardized to zero mean and unit variance.
#[derive(Debug, Clone)]
pub(crate) struct TrainingSet {
    n: usize,
    xt: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    y_norm: Vec<f64>,
}

impl TrainingSet {
    /// Lays out `points` (input, target) for a `dims`-dimensional kernel.
    ///
    /// # Errors
    ///
    /// [`GpError::NoData`] without points, [`GpError::DimensionMismatch`]
    /// at the first input that is not `dims` long.
    pub(crate) fn new<'a>(
        dims: usize,
        points: impl Iterator<Item = (&'a [f64], f64)>,
    ) -> Result<Self, GpError> {
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for (x, y) in points {
            if x.len() != dims {
                return Err(GpError::DimensionMismatch {
                    expected: dims,
                    found: x.len(),
                });
            }
            rows.extend_from_slice(x);
            ys.push(y);
        }
        let n = ys.len();
        if n == 0 {
            return Err(GpError::NoData);
        }
        let mut xt = vec![0.0; n * dims];
        for (j, x) in rows.chunks_exact(dims).enumerate() {
            for (d, v) in x.iter().enumerate() {
                xt[d * n + j] = *v;
            }
        }
        let y_mean = ys.iter().sum::<f64>() / n as f64;
        let var = ys.iter().map(|y| (y - y_mean).powi(2)).sum::<f64>() / n as f64;
        let y_std = var.sqrt().max(1e-9);
        let y_norm = ys.iter().map(|y| (y - y_mean) / y_std).collect();
        Ok(TrainingSet {
            n,
            xt,
            y_mean,
            y_std,
            y_norm,
        })
    }

    /// [`new`](Self::new) for inputs and targets held apart; differing
    /// lengths count as no data.
    fn from_columns(dims: usize, xs: &[Vec<f64>], ys: &[f64]) -> Result<Self, GpError> {
        if xs.len() != ys.len() {
            return Err(GpError::NoData);
        }
        Self::new(dims, xs.iter().map(Vec::as_slice).zip(ys.iter().copied()))
    }
}

/// Everything one fit at fixed hyperparameters writes — the covariance
/// matrix (column-major lower triangle), its factor, and `α` — allocated
/// once and overwritten by each [`fit`](Self::fit): a hyperparameter fit
/// runs several hundred of them on one training set.
#[derive(Debug)]
struct Workspace {
    k: Vec<f64>,
    chol: Cholesky,
    alpha: Vec<f64>,
}

impl Workspace {
    fn new(n: usize) -> Self {
        Workspace {
            k: vec![0.0; n * n],
            chol: Cholesky::with_dim(n),
            alpha: vec![0.0; n],
        }
    }

    /// Factorizes `K + noise·I` for `data` under `kernel`, solves for `α`
    /// and returns the log marginal likelihood of the standardized
    /// targets.
    ///
    /// # Errors
    ///
    /// [`GpError::IllConditioned`] when the factorization fails even with
    /// jitter.
    fn fit(&mut self, data: &TrainingSet, kernel: &Kernel, noise: f64) -> Result<f64, GpError> {
        let n = data.n;
        let xt = &data.xt;
        // The factorization reads the lower triangle only, so only that is
        // built: column j is k(x_j, x_j..).
        for j in 0..n {
            let column = &mut self.k[j * n + j..(j + 1) * n];
            kernel.eval_many(xt, n, j, |d| xt[d * n + j], column);
        }
        self.add_diagonal(noise.max(1e-10));

        // Retry with growing jitter if needed.
        let mut jitter = 1e-10;
        while self.chol.factor(&self.k).is_err() {
            if jitter >= 1e-2 {
                return Err(GpError::IllConditioned);
            }
            self.add_diagonal(jitter);
            jitter *= 10.0;
        }
        self.alpha.copy_from_slice(&data.y_norm);
        self.chol.solve_lower_in_place(&mut self.alpha);
        self.chol.solve_upper_in_place(&mut self.alpha);
        // log p(y) = -0.5 yᵀ α − 0.5 log|K| − n/2 log 2π  (standardized y).
        Ok(-0.5 * dot(&data.y_norm, &self.alpha)
            - 0.5 * self.chol.log_determinant()
            - 0.5 * n as f64 * (std::f64::consts::TAU).ln())
    }

    /// Adds `v` to the diagonal (noise / jitter term).
    fn add_diagonal(&mut self, v: f64) {
        let n = self.chol.dim();
        for i in 0..n {
            self.k[i * n + i] += v;
        }
    }
}

/// Decodes a hyperparameter vector `[log ℓ₀, …, log ℓ_{d−1}, log σ²,
/// log noise]` into a kernel of `family` and a noise variance, each
/// clamped to its admissible range.
fn decode(family: &Kernel, theta: &[f64]) -> (Kernel, f64) {
    let dims = family.dims();
    let ls: Vec<f64> = theta[..dims]
        .iter()
        .map(|t| t.exp().clamp(1e-3, 1e3))
        .collect();
    let var = theta[dims].exp().clamp(1e-4, 1e4);
    let noise = theta[dims + 1].exp().clamp(1e-8, 1.0);
    (family.with_params(var, ls), noise)
}

/// A fitted Gaussian-process posterior over a standardized target.
///
/// Targets are standardized internally (zero mean, unit variance), so the
/// kernel's unit signal variance is a sensible default and predictions are
/// returned on the original scale.
///
/// # Examples
///
/// ```
/// use datamime_bayesopt::{GaussianProcess, Kernel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let xs = vec![vec![0.0], vec![0.5], vec![1.0]];
/// let ys = vec![0.0, 1.0, 0.0];
/// let gp = GaussianProcess::fit(Kernel::matern52(1, 0.5), 1e-6, xs, ys)?;
/// let (mean, var) = gp.predict(&[0.5]);
/// assert!((mean - 1.0).abs() < 0.05);
/// assert!(var >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: Kernel,
    noise: f64,
    data: TrainingSet,
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
        let data = TrainingSet::from_columns(kernel.dims(), &xs, &ys)?;
        Self::fit_on(kernel, noise, data)
    }

    /// [`fit`](Self::fit) on a training set already laid out.
    pub(crate) fn fit_on(kernel: Kernel, noise: f64, data: TrainingSet) -> Result<Self, GpError> {
        Self::fit_in(Workspace::new(data.n), kernel, noise, data)
    }

    /// [`fit_on`](Self::fit_on) in a workspace the caller already holds;
    /// its factor and `α` become the posterior's.
    fn fit_in(
        mut ws: Workspace,
        kernel: Kernel,
        noise: f64,
        data: TrainingSet,
    ) -> Result<Self, GpError> {
        let lml = ws.fit(&data, &kernel, noise)?;
        Ok(GaussianProcess {
            kernel,
            noise,
            data,
            chol: ws.chol,
            alpha: ws.alpha,
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
        let data = TrainingSet::from_columns(kernel_family.dims(), &xs, &ys)?;
        Self::fit_hyperparams_on(kernel_family, data, rng)
    }

    /// [`fit_hyperparams`](Self::fit_hyperparams) on a training set
    /// already laid out.
    pub(crate) fn fit_hyperparams_on(
        kernel_family: Kernel,
        data: TrainingSet,
        rng: &mut Rng,
    ) -> Result<Self, GpError> {
        let dims = kernel_family.dims();
        let mut ws = Workspace::new(data.n);
        let mut objective = |theta: &[f64]| -> f64 {
            let (kernel, noise) = decode(&kernel_family, theta);
            match ws.fit(&data, &kernel, noise) {
                Ok(lml) => -lml, // minimize negative LML
                Err(_) => 1e12,
            }
        };

        let mut best: Option<(f64, Vec<f64>)> = None;
        for start in 0..4 {
            let mut x0 = vec![0.0; dims + 2];
            for v in &mut x0[..dims] {
                *v = if start == 0 {
                    (0.3f64).ln()
                } else {
                    (0.05 + rng.f64() * 1.5).ln()
                };
            }
            x0[dims] = 0.0; // log var = 0
            x0[dims + 1] = (1e-3f64).ln();
            let (xopt, fopt) = nelder_mead(&mut objective, &x0, 0.5, 120);
            if best.as_ref().is_none_or(|(bf, _)| fopt < *bf) {
                best = Some((fopt, xopt));
            }
        }
        let (_, theta) = best.expect("at least one start");
        let (kernel, noise) = decode(&kernel_family, &theta);
        Self::fit_in(ws, kernel, noise, data)
    }

    /// Posterior mean and variance at `x`, on the original target scale.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        self.predict_with(x, &mut Vec::new())
    }

    /// [`predict`](Self::predict) through a caller-owned buffer, for
    /// scoring many candidates without an allocation each: `scratch`
    /// holds the kernel row `k(x, X)`, then — solved in place — `L⁻¹ k`.
    pub(crate) fn predict_with(&self, x: &[f64], scratch: &mut Vec<f64>) -> (f64, f64) {
        assert_eq!(x.len(), self.kernel.dims(), "query dimension mismatch");
        let n = self.data.n;
        scratch.resize(n, 0.0);
        self.kernel
            .eval_many(&self.data.xt, n, 0, |d| x[d], scratch);
        let mean_std = dot(scratch, &self.alpha);
        self.chol.solve_lower_in_place(scratch);
        let var_std = (self.kernel.variance() + self.noise - dot(scratch, scratch)).max(0.0);
        (
            self.data.y_mean + self.data.y_std * mean_std,
            var_std * self.data.y_std * self.data.y_std,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use proptest::prelude::*;

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_training_points_with_low_noise() {
        let xs = grid_1d(6);
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 6.0).sin()).collect();
        let gp =
            GaussianProcess::fit(Kernel::matern52(1, 0.3), 1e-8, xs.clone(), ys.clone()).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let (m, v) = gp.predict(x);
            assert!((m - y).abs() < 1e-3, "mean {m} vs {y}");
            assert!(v < 1e-3, "var {v}");
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let xs = vec![vec![0.2], vec![0.4]];
        let ys = vec![1.0, 2.0];
        let gp = GaussianProcess::fit(Kernel::matern52(1, 0.15), 1e-6, xs, ys).unwrap();
        let (_, v_near) = gp.predict(&[0.3]);
        let (_, v_far) = gp.predict(&[0.95]);
        assert!(v_far > v_near * 3.0, "far {v_far} near {v_near}");
    }

    #[test]
    fn prediction_reverts_to_prior_mean_far_away() {
        let xs = vec![vec![0.1]];
        let ys = vec![5.0];
        let gp = GaussianProcess::fit(Kernel::matern52(1, 0.05), 1e-6, xs, ys).unwrap();
        let (m, _) = gp.predict(&[0.99]);
        assert!((m - 5.0).abs() < 0.2, "reverts to the data mean, got {m}");
    }

    #[test]
    fn hyperparameter_fitting_improves_lml() {
        let mut rng = Rng::with_seed(5);
        let xs: Vec<Vec<f64>> = (0..20).map(|_| vec![rng.f64()]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 12.0).sin() + 0.05).collect();
        let fixed =
            GaussianProcess::fit(Kernel::matern52(1, 5.0), 1e-2, xs.clone(), ys.clone()).unwrap();
        let fitted =
            GaussianProcess::fit_hyperparams(Kernel::matern52(1, 1.0), xs, ys, &mut rng).unwrap();
        assert!(
            fitted.log_marginal_likelihood() > fixed.log_marginal_likelihood(),
            "fitted {} vs fixed {}",
            fitted.log_marginal_likelihood(),
            fixed.log_marginal_likelihood()
        );
    }

    #[test]
    fn fitted_gp_generalizes() {
        let mut rng = Rng::with_seed(9);
        let xs: Vec<Vec<f64>> = (0..25).map(|_| vec![rng.f64()]).collect();
        let f = |x: f64| (x * 7.0).sin() * 2.0 + 1.0;
        let ys: Vec<f64> = xs.iter().map(|x| f(x[0])).collect();
        let gp =
            GaussianProcess::fit_hyperparams(Kernel::matern52(1, 1.0), xs, ys, &mut rng).unwrap();
        let mut max_err: f64 = 0.0;
        for i in 0..50 {
            let x = i as f64 / 49.0;
            let (m, _) = gp.predict(&[x]);
            max_err = max_err.max((m - f(x)).abs());
        }
        assert!(max_err < 0.5, "max interpolation error {max_err}");
    }

    #[test]
    fn noisy_duplicate_observations_are_handled() {
        // Same x with different y: only possible with a noise term.
        let xs = vec![vec![0.5], vec![0.5], vec![0.5]];
        let ys = vec![1.0, 1.2, 0.8];
        let gp = GaussianProcess::fit(Kernel::matern52(1, 0.3), 1e-2, xs, ys).unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!(
            (m - 1.0).abs() < 0.05,
            "mean of noisy observations, got {m}"
        );
    }

    #[test]
    fn empty_data_is_error() {
        assert_eq!(
            GaussianProcess::fit(Kernel::matern52(1, 0.3), 1e-6, vec![], vec![]).unwrap_err(),
            GpError::NoData
        );
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let err = GaussianProcess::fit(Kernel::matern52(2, 0.3), 1e-6, vec![vec![0.1]], vec![1.0])
            .unwrap_err();
        assert!(matches!(
            err,
            GpError::DimensionMismatch {
                expected: 2,
                found: 1
            }
        ));
    }

    /// Every entry of `L`, every `α` and the marginal likelihood, compared
    /// with the reference by bit.
    fn assert_same_factor(fast: &GaussianProcess, slow: &reference::GaussianProcess) {
        let n = fast.data.n;
        for i in 0..n {
            for j in 0..=i {
                assert_eq!(
                    fast.chol.get(i, j).to_bits(),
                    slow.factor().get(i, j).to_bits(),
                    "L({i}, {j})"
                );
            }
            assert_eq!(fast.alpha[i].to_bits(), slow.alpha()[i].to_bits(), "α[{i}]");
        }
        assert_eq!(fast.lml.to_bits(), slow.log_marginal_likelihood().to_bits());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn factor_and_alpha_match_the_reference_bit_for_bit(
            seed in any::<u64>(),
            n in 1usize..=96,
            dims in 1usize..=10,
            matern in any::<bool>(),
            log_noise in -8.0f64..0.0,
        ) {
            let mut rng = Rng::with_seed(seed);
            let family = if matern {
                Kernel::matern52(dims, 1.0)
            } else {
                Kernel::squared_exp(dims, 1.0)
            };
            let lengthscales = (0..dims)
                .map(|_| 10f64.powf(rng.f64() * 6.0 - 3.0))
                .collect();
            let kernel = family.with_params(10f64.powf(rng.f64() * 8.0 - 4.0), lengthscales);
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dims).map(|_| rng.f64()).collect())
                .collect();
            let ys: Vec<f64> = (0..n)
                .map(|_| if rng.f64() < 0.1 { 1e6 } else { rng.f64() })
                .collect();
            let noise = 10f64.powf(log_noise);
            let fast = GaussianProcess::fit(kernel.clone(), noise, xs.clone(), ys.clone());
            let slow = reference::GaussianProcess::fit(kernel, noise, xs, ys);
            match (fast, slow) {
                (Ok(f), Ok(s)) => assert_same_factor(&f, &s),
                (f, s) => prop_assert_eq!(f.err(), s.err()),
            }
        }
    }

    /// How many rungs of the jitter ladder `ws` climbed in its last fit,
    /// read off the diagonal it left (`k(x, x)` is the signal variance).
    fn rungs_climbed(ws: &Workspace, kernel: &Kernel, noise: f64) -> usize {
        let mut diagonal = kernel.variance() + noise.max(1e-10);
        let mut jitter = 1e-10;
        let mut rungs = 0;
        while diagonal.to_bits() != ws.k[0].to_bits() {
            diagonal += jitter;
            jitter *= 10.0;
            rungs += 1;
            assert!(rungs <= 8, "the ladder has eight rungs");
        }
        rungs
    }

    #[test]
    fn the_jitter_ladder_stops_at_the_reference_rung() {
        // Exactly duplicated rows make K singular but for its diagonal
        // term, and a signal variance large enough swallows the 1e-8 noise
        // and the first rungs of jitter whole: the larger the variance,
        // the higher both sides must climb — and past 1e-3 both give up.
        let xs = vec![
            vec![0.25, 0.5],
            vec![0.75, 0.1],
            vec![0.25, 0.5],
            vec![0.25, 0.5],
        ];
        let ys = vec![1.0, 2.0, 1.5, 0.5];
        let data = TrainingSet::from_columns(2, &xs, &ys).unwrap();
        let mut climbed = Vec::new();
        for log_variance in 4..=16 {
            let kernel =
                Kernel::matern52(2, 0.3).with_params(10f64.powi(log_variance), vec![0.3; 2]);
            let slow =
                reference::GaussianProcess::fit(kernel.clone(), 1e-8, xs.clone(), ys.clone());
            let mut ws = Workspace::new(4);
            match ws.fit(&data, &kernel, 1e-8) {
                Ok(_) => {
                    climbed.push(rungs_climbed(&ws, &kernel, 1e-8));
                    let fast = GaussianProcess::fit_in(ws, kernel, 1e-8, data.clone()).unwrap();
                    assert_same_factor(&fast, &slow.unwrap());
                }
                Err(e) => {
                    assert_eq!(e, GpError::IllConditioned);
                    assert_eq!(slow.unwrap_err(), GpError::IllConditioned);
                    climbed.push(usize::MAX);
                }
            }
        }
        assert_eq!(
            climbed.first(),
            Some(&0),
            "a benign variance needs no jitter"
        );
        assert!(
            climbed.iter().any(|r| (1..=8).contains(r)),
            "some variance stops part-way up: {climbed:?}"
        );
        assert_eq!(climbed.last(), Some(&usize::MAX), "the largest exhausts it");
    }
}
