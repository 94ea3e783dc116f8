//! Covariance kernels for Gaussian-process regression.

/// A stationary covariance kernel with ARD (per-dimension) lengthscales.
#[derive(Debug, Clone, PartialEq)]
pub enum Kernel {
    /// Matérn 5/2 — the standard choice for Bayesian optimization (twice
    /// differentiable but not unrealistically smooth).
    Matern52 {
        /// Signal variance σ².
        variance: f64,
        /// Per-dimension lengthscales.
        lengthscales: Vec<f64>,
    },
    /// Squared exponential (RBF) — very smooth; provided for the kernel
    /// ablation.
    SquaredExp {
        /// Signal variance σ².
        variance: f64,
        /// Per-dimension lengthscales.
        lengthscales: Vec<f64>,
    },
}

impl Kernel {
    /// A Matérn 5/2 kernel with unit variance and a shared lengthscale.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0` or `lengthscale <= 0`.
    pub fn matern52(dims: usize, lengthscale: f64) -> Self {
        assert!(dims > 0 && lengthscale > 0.0, "invalid kernel parameters");
        Kernel::Matern52 {
            variance: 1.0,
            lengthscales: vec![lengthscale; dims],
        }
    }

    /// A squared-exponential kernel with unit variance and a shared
    /// lengthscale.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0` or `lengthscale <= 0`.
    pub fn squared_exp(dims: usize, lengthscale: f64) -> Self {
        assert!(dims > 0 && lengthscale > 0.0, "invalid kernel parameters");
        Kernel::SquaredExp {
            variance: 1.0,
            lengthscales: vec![lengthscale; dims],
        }
    }

    /// Number of input dimensions.
    pub fn dims(&self) -> usize {
        self.lengthscales().len()
    }

    /// Signal variance σ² (the prior variance at any point).
    pub fn variance(&self) -> f64 {
        match self {
            Kernel::Matern52 { variance, .. } | Kernel::SquaredExp { variance, .. } => *variance,
        }
    }

    fn lengthscales(&self) -> &[f64] {
        match self {
            Kernel::Matern52 { lengthscales, .. } | Kernel::SquaredExp { lengthscales, .. } => {
                lengthscales
            }
        }
    }

    /// Scaled distance `r² = Σ ((xᵢ − yᵢ)/ℓᵢ)²`.
    fn r2(&self, x: &[f64], y: &[f64]) -> f64 {
        let ls = self.lengthscales();
        debug_assert_eq!(x.len(), ls.len());
        x.iter()
            .zip(y)
            .zip(ls)
            .map(|((xi, yi), li)| {
                let d = (xi - yi) / li;
                d * d
            })
            .sum()
    }

    /// The covariance at scaled squared distance `r2` — the only place
    /// either family's expression is written.
    #[inline]
    fn of_r2(&self, r2: f64) -> f64 {
        match self {
            Kernel::Matern52 { variance, .. } => {
                let r = r2.sqrt();
                let s = 5.0f64.sqrt() * r;
                variance * (1.0 + s + 5.0 * r2 / 3.0) * (-s).exp()
            }
            Kernel::SquaredExp { variance, .. } => variance * (-0.5 * r2).exp(),
        }
    }

    /// Evaluates `k(x, y)`.
    pub fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        self.of_r2(self.r2(x, y))
    }

    /// `out[i] = k(p, x_{from+i})` against the points `from..n` of a
    /// dimension-major input set (`xt[d * n + j]` is coordinate `d` of
    /// point `j`), with `p`'s coordinates read through `point`.
    ///
    /// Bit-identical to [`eval`](Self::eval) per pair: `r²` accumulates
    /// over dimensions in the ascending order `r2`'s `sum()` uses (the
    /// leading `0.0 + t` is exact, a square being `+0.0` or larger), and a
    /// difference and its negation square alike. What changes is the loop
    /// nest — the inner loop runs over points, contiguous and independent.
    pub(crate) fn eval_many(
        &self,
        xt: &[f64],
        n: usize,
        from: usize,
        point: impl Fn(usize) -> f64,
        out: &mut [f64],
    ) {
        let out = &mut out[..n - from];
        out.fill(0.0);
        for (d, l) in self.lengthscales().iter().enumerate() {
            let p = point(d);
            for (acc, xi) in out.iter_mut().zip(&xt[d * n + from..(d + 1) * n]) {
                let t = (xi - p) / l;
                *acc += t * t;
            }
        }
        for v in out.iter_mut() {
            *v = self.of_r2(*v);
        }
    }

    /// Returns a copy with new hyperparameters (same family).
    ///
    /// # Panics
    ///
    /// Panics if `lengthscales` is empty or any parameter is non-positive.
    pub fn with_params(&self, variance: f64, lengthscales: Vec<f64>) -> Kernel {
        assert!(
            variance > 0.0 && !lengthscales.is_empty(),
            "invalid parameters"
        );
        assert!(
            lengthscales.iter().all(|l| *l > 0.0),
            "lengthscales must be positive"
        );
        match self {
            Kernel::Matern52 { .. } => Kernel::Matern52 {
                variance,
                lengthscales,
            },
            Kernel::SquaredExp { .. } => Kernel::SquaredExp {
                variance,
                lengthscales,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_at_zero_distance_is_variance() {
        let x = [0.3, 0.7];
        for k in [Kernel::matern52(2, 0.5), Kernel::squared_exp(2, 0.5)] {
            assert!((k.eval(&x, &x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn kernel_decays_with_distance() {
        let k = Kernel::matern52(1, 0.3);
        let near = k.eval(&[0.0], &[0.1]);
        let far = k.eval(&[0.0], &[0.9]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn kernel_is_symmetric() {
        let k = Kernel::matern52(3, 0.4);
        let a = [0.1, 0.5, 0.9];
        let b = [0.8, 0.2, 0.3];
        assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-15);
    }

    #[test]
    fn ard_lengthscales_weight_dimensions() {
        let k = Kernel::Matern52 {
            variance: 1.0,
            lengthscales: vec![0.1, 10.0],
        };
        // A move along dim 0 matters; along dim 1 barely does.
        let d0 = k.eval(&[0.0, 0.0], &[0.3, 0.0]);
        let d1 = k.eval(&[0.0, 0.0], &[0.0, 0.3]);
        assert!(d0 < d1 * 0.5, "d0 {d0} d1 {d1}");
    }

    #[test]
    fn squared_exp_smoother_than_matern_at_mid_range() {
        let m = Kernel::matern52(1, 1.0);
        let s = Kernel::squared_exp(1, 1.0);
        // Same variance and lengthscale: SE stays higher at small distances.
        assert!(s.eval(&[0.0], &[0.5]) > m.eval(&[0.0], &[0.5]) - 0.05);
    }

    #[test]
    #[should_panic(expected = "lengthscales must be positive")]
    fn negative_lengthscale_panics() {
        Kernel::matern52(1, 1.0).with_params(1.0, vec![-1.0]);
    }
}
