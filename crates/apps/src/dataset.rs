//! Dataset-level distribution specifications shared by the applications.

use datamime_stats::dist::{
    FromVariate, GeneralizedPareto, InvalidParamsError, LogNormal, Normal, Uniform,
};
use datamime_stats::Rng;

/// A size distribution specification, serializable into dataset-generator
/// parameters.
///
/// Datamime's generators assume Gaussian sizes (the paper, Sec. III-B);
/// *target* datasets use other families — e.g. `mem-fb` draws value sizes
/// from a generalized Pareto, following the published analysis of
/// Facebook's memcached pools. Keeping the family open is what lets this
/// reproduction recreate the paper's "generator family ≠ target family"
/// setup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeDist {
    /// A constant size.
    Fixed(f64),
    /// Normal with mean and standard deviation.
    Normal {
        /// Mean size in bytes.
        mean: f64,
        /// Standard deviation in bytes.
        std: f64,
    },
    /// Log-normal via the log-space mean and standard deviation.
    LogNormal {
        /// Mean of the logarithm.
        mu: f64,
        /// Standard deviation of the logarithm.
        sigma: f64,
    },
    /// Generalized Pareto (location, scale, shape).
    GeneralizedPareto {
        /// Location.
        mu: f64,
        /// Scale.
        sigma: f64,
        /// Shape.
        xi: f64,
    },
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

impl SizeDist {
    /// Builds the underlying sampler. It is `Send + Sync`, so one sampler
    /// can serve every lane of a build and every request of a store. Every
    /// family is one formula over one variate ([`FromVariate`]), so a build
    /// can draw the variates apart from the formula: a standard normal for
    /// `Normal` and `LogNormal`, one raw uniform for the rest.
    ///
    /// # Errors
    ///
    /// Returns an error if the parameters are invalid for the family.
    pub fn build(&self) -> Result<Box<dyn FromVariate + Send + Sync>, InvalidParamsError> {
        Ok(match *self {
            SizeDist::Fixed(v) => Box::new(Uniform::new(v, v)?),
            SizeDist::Normal { mean, std } => Box::new(Normal::new(mean, std)?),
            SizeDist::LogNormal { mu, sigma } => Box::new(LogNormal::new(mu, sigma)?),
            SizeDist::GeneralizedPareto { mu, sigma, xi } => {
                Box::new(GeneralizedPareto::new(mu, sigma, xi)?)
            }
            SizeDist::Uniform { lo, hi } => Box::new(Uniform::new(lo, hi)?),
        })
    }

    /// Samples a byte size clamped to `[lo, hi]`. Each call builds a
    /// sampler; hold the one [`SizeDist::build`] returns to draw many.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid; validate with [`SizeDist::build`]
    /// first when handling untrusted input.
    pub fn sample_bytes(&self, rng: &mut Rng, lo: u64, hi: u64) -> u64 {
        let d = self.build().expect("invalid size distribution");
        datamime_stats::dist::sample_size(d.as_ref(), rng, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_constant() {
        let mut rng = Rng::with_seed(1);
        let d = SizeDist::Fixed(100.0);
        for _ in 0..10 {
            assert_eq!(d.sample_bytes(&mut rng, 1, 1000), 100);
        }
    }

    #[test]
    fn normal_clamps() {
        let mut rng = Rng::with_seed(2);
        let d = SizeDist::Normal {
            mean: 10.0,
            std: 50.0,
        };
        for _ in 0..1000 {
            let s = d.sample_bytes(&mut rng, 1, 64);
            assert!((1..=64).contains(&s));
        }
    }

    #[test]
    fn invalid_params_surface_as_errors() {
        assert!(SizeDist::Normal {
            mean: 0.0,
            std: -1.0
        }
        .build()
        .is_err());
        assert!(SizeDist::GeneralizedPareto {
            mu: 0.0,
            sigma: 0.0,
            xi: 0.1
        }
        .build()
        .is_err());
    }

    #[test]
    fn pareto_produces_heavy_tail() {
        let mut rng = Rng::with_seed(3);
        let d = SizeDist::GeneralizedPareto {
            mu: 15.0,
            sigma: 100.0,
            xi: 0.3,
        };
        let xs: Vec<u64> = (0..5000)
            .map(|_| d.sample_bytes(&mut rng, 1, 1 << 20))
            .collect();
        let mean = xs.iter().sum::<u64>() as f64 / xs.len() as f64;
        let max = *xs.iter().max().unwrap() as f64;
        assert!(
            max > mean * 10.0,
            "heavy tail expected: mean {mean}, max {max}"
        );
    }
}
