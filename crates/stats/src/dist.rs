//! Probability distributions used by dataset generators and load generators.
//!
//! The paper's dataset generators draw key/value sizes, document lengths,
//! query popularities, inter-arrival times, and so on from parameterized
//! distributions; its *target* datasets use different families (e.g.
//! generalized Pareto value sizes for the Facebook-like memcached dataset).
//! This module implements all of them on top of the crate's deterministic
//! [`Rng`].
//!
//! # Examples
//!
//! ```
//! use datamime_stats::{Rng, dist::{Distribution, Normal}};
//!
//! let mut rng = Rng::with_seed(1);
//! let d = Normal::new(100.0, 15.0).unwrap();
//! let x = d.sample(&mut rng);
//! assert!(x.is_finite());
//! ```

use crate::rng::Rng;
use std::fmt;

/// A real-valued probability distribution that can be sampled.
///
/// All distributions in this module are deterministic given the [`Rng`]
/// stream, cheap to sample, and validated at construction time so that
/// sampling itself never fails.
pub trait Distribution: fmt::Debug {
    /// Draws one sample.
    fn sample(&self, rng: &mut Rng) -> f64;

    /// The distribution's mean, if finite.
    fn mean(&self) -> Option<f64> {
        None
    }
}

/// The one random input a sample of a [`FromVariate`] family consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variate {
    /// A standard normal `z`, by Box–Muller: two [`Rng::u64`] outputs.
    StandardNormal,
    /// One raw [`Rng::f64`] in `[0, 1)`: one [`Rng::u64`] output.
    Unit,
}

impl Variate {
    /// Draws one variate of this kind.
    pub fn draw(self, rng: &mut Rng) -> f64 {
        match self {
            Variate::StandardNormal => {
                // Box–Muller; draws u1 in (0,1] to avoid ln(0).
                let u1 = 1.0 - rng.f64();
                let u2 = rng.f64();
                (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            }
            Variate::Unit => rng.f64(),
        }
    }

    /// How many [`Rng::u64`] outputs one variate takes. It is the same for
    /// every draw, so the stream position of the `i`-th of a run of draws
    /// is known without making the first `i`.
    pub fn draws(self) -> usize {
        match self {
            Variate::StandardNormal => 2,
            Variate::Unit => 1,
        }
    }
}

/// A family whose every sample is one formula applied to one variate:
/// `sample(rng)` is `map_variate(variate().draw(rng))`, bit for bit and
/// stream position for stream position. A build that samples the same
/// family at many parameter points can therefore draw the variates once
/// and replay only the formula.
pub trait FromVariate: Distribution {
    /// The kind of variate one sample consumes.
    fn variate(&self) -> Variate;

    /// The sample a variate of kind [`FromVariate::variate`] maps to.
    fn map_variate(&self, v: f64) -> f64;
}

/// Error returned when distribution parameters are invalid.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidParamsError {
    what: String,
}

impl InvalidParamsError {
    fn new(what: impl Into<String>) -> Self {
        InvalidParamsError { what: what.into() }
    }
}

impl fmt::Display for InvalidParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameters: {}", self.what)
    }
}

impl std::error::Error for InvalidParamsError {}

/// The uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the bounds are not finite or `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> Result<Self, InvalidParamsError> {
        if !lo.is_finite() || !hi.is_finite() || lo > hi {
            return Err(InvalidParamsError::new(format!(
                "uniform bounds [{lo}, {hi})"
            )));
        }
        Ok(Uniform { lo, hi })
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.map_variate(self.variate().draw(rng))
    }

    fn mean(&self) -> Option<f64> {
        Some(0.5 * (self.lo + self.hi))
    }
}

impl FromVariate for Uniform {
    fn variate(&self) -> Variate {
        Variate::Unit
    }

    /// [`Rng::range_f64`]'s expression.
    fn map_variate(&self, u: f64) -> f64 {
        self.lo + (self.hi - self.lo) * u
    }
}

/// The normal (Gaussian) distribution, sampled via Box–Muller.
///
/// This is the family Datamime's unstructured-data generators assume for
/// key/value sizes (Sec. III-B of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution with mean `mu` and standard deviation
    /// `sigma`.
    ///
    /// # Errors
    ///
    /// Returns an error if `sigma < 0` or either parameter is not finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, InvalidParamsError> {
        if !mu.is_finite() || !sigma.is_finite() || sigma < 0.0 {
            return Err(InvalidParamsError::new(format!(
                "normal(mu={mu}, sigma={sigma})"
            )));
        }
        Ok(Normal { mu, sigma })
    }

    /// Standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.map_variate(self.variate().draw(rng))
    }

    fn mean(&self) -> Option<f64> {
        Some(self.mu)
    }
}

impl FromVariate for Normal {
    fn variate(&self) -> Variate {
        Variate::StandardNormal
    }

    fn map_variate(&self, z: f64) -> f64 {
        self.mu + self.sigma * z
    }
}

/// The log-normal distribution: `exp(N(mu, sigma))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    inner: Normal,
}

impl LogNormal {
    /// Creates a log-normal distribution whose logarithm has mean `mu` and
    /// standard deviation `sigma`.
    ///
    /// # Errors
    ///
    /// Returns an error under the same conditions as [`Normal::new`].
    pub fn new(mu: f64, sigma: f64) -> Result<Self, InvalidParamsError> {
        Ok(LogNormal {
            inner: Normal::new(mu, sigma)?,
        })
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.map_variate(self.variate().draw(rng))
    }

    fn mean(&self) -> Option<f64> {
        let mu = self.inner.mean()?;
        let s = self.inner.sigma();
        Some((mu + 0.5 * s * s).exp())
    }
}

impl FromVariate for LogNormal {
    fn variate(&self) -> Variate {
        Variate::StandardNormal
    }

    fn map_variate(&self, z: f64) -> f64 {
        self.inner.map_variate(z).exp()
    }
}

/// The exponential distribution with rate `lambda`, used for Poisson
/// inter-arrival times in the load generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `lambda`.
    ///
    /// # Errors
    ///
    /// Returns an error if `lambda` is not strictly positive and finite.
    pub fn new(lambda: f64) -> Result<Self, InvalidParamsError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(InvalidParamsError::new(format!(
                "exponential(lambda={lambda})"
            )));
        }
        Ok(Exponential { lambda })
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut Rng) -> f64 {
        -(1.0 - rng.f64()).ln() / self.lambda
    }

    fn mean(&self) -> Option<f64> {
        Some(1.0 / self.lambda)
    }
}

/// The generalized Pareto distribution (location `mu`, scale `sigma`,
/// shape `xi`), via inverse-CDF sampling.
///
/// Atikoglu et al. (SIGMETRICS 2012) model Facebook memcached value sizes as
/// generalized Pareto; the paper's `mem-fb` target dataset uses this family,
/// deliberately outside the Gaussian family assumed by the generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneralizedPareto {
    mu: f64,
    sigma: f64,
    xi: f64,
}

impl GeneralizedPareto {
    /// Creates a generalized Pareto distribution.
    ///
    /// # Errors
    ///
    /// Returns an error if `sigma <= 0` or any parameter is not finite.
    pub fn new(mu: f64, sigma: f64, xi: f64) -> Result<Self, InvalidParamsError> {
        if !mu.is_finite() || !xi.is_finite() || !sigma.is_finite() || sigma <= 0.0 {
            return Err(InvalidParamsError::new(format!(
                "generalized pareto(mu={mu}, sigma={sigma}, xi={xi})"
            )));
        }
        Ok(GeneralizedPareto { mu, sigma, xi })
    }
}

impl Distribution for GeneralizedPareto {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.map_variate(self.variate().draw(rng))
    }

    fn mean(&self) -> Option<f64> {
        if self.xi < 1.0 {
            Some(self.mu + self.sigma / (1.0 - self.xi))
        } else {
            None
        }
    }
}

impl FromVariate for GeneralizedPareto {
    fn variate(&self) -> Variate {
        Variate::Unit
    }

    fn map_variate(&self, v: f64) -> f64 {
        let u = 1.0 - v; // in (0, 1]
        if self.xi.abs() < 1e-12 {
            self.mu - self.sigma * u.ln()
        } else {
            self.mu + self.sigma * (u.powf(-self.xi) - 1.0) / self.xi
        }
    }
}

/// A Zipfian distribution over ranks `0..n`, used for key popularity and
/// query-term skew.
///
/// Sampling uses a precomputed cumulative table with binary search, so
/// construction is `O(n)` and sampling is `O(log n)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with skew `s >= 0`
    /// (`s == 0` is uniform).
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0` or `s` is negative or not finite.
    pub fn new(n: usize, s: f64) -> Result<Self, InvalidParamsError> {
        if n == 0 || s.is_nan() || s.is_infinite() || s < 0.0 {
            return Err(InvalidParamsError::new(format!("zipf(n={n}, s={s})")));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Ok(Zipf { cdf })
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if the distribution has a single rank.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Samples a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample_rank(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

impl Distribution for Zipf {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.sample_rank(rng) as f64
    }
}

/// A categorical distribution over arbitrary weights (e.g. the TPC-C
/// transaction mix for `silo`, or the GET/SET ratio for `memcached`).
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    cdf: Vec<f64>,
}

impl Categorical {
    /// Creates a categorical distribution from non-negative weights.
    ///
    /// Weights are normalized internally; they need not sum to 1.
    ///
    /// # Errors
    ///
    /// Returns an error if `weights` is empty, any weight is negative or
    /// non-finite, or all weights are zero.
    pub fn new(weights: &[f64]) -> Result<Self, InvalidParamsError> {
        if weights.is_empty() {
            return Err(InvalidParamsError::new("categorical with no weights"));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(InvalidParamsError::new(
                "categorical weight negative or non-finite",
            ));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(InvalidParamsError::new("categorical weights all zero"));
        }
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in weights {
            acc += w / total;
            cdf.push(acc);
        }
        Ok(Categorical { cdf })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if there are no categories (never true for a
    /// successfully constructed value).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Samples a category index.
    pub fn sample_index(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

impl Distribution for Categorical {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.sample_index(rng) as f64
    }
}

/// Draws from `dist` but clamps the result into `[lo, hi]` and rounds to the
/// nearest integer — the common "size in bytes" shape used by the dataset
/// generators.
pub fn sample_size(dist: &dyn Distribution, rng: &mut Rng, lo: u64, hi: u64) -> u64 {
    clamp_size(dist.sample(rng), lo, hi)
}

/// Clamps a sample into `[lo, hi]` and rounds it to the nearest integer:
/// what [`sample_size`] does to each draw.
pub fn clamp_size(x: f64, lo: u64, hi: u64) -> u64 {
    x.clamp(lo as f64, hi as f64).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(d: &dyn Distribution, n: usize, seed: u64) -> f64 {
        let mut rng = Rng::with_seed(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(10.0, 2.0).unwrap();
        let mut rng = Rng::with_seed(4);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn normal_rejects_negative_sigma() {
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::new(0.25).unwrap();
        let m = sample_mean(&d, 100_000, 6);
        assert!((m - 4.0).abs() < 0.1, "mean {m}");
    }

    #[test]
    fn exponential_rejects_nonpositive_rate() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
    }

    #[test]
    fn generalized_pareto_mean_matches_formula() {
        let d = GeneralizedPareto::new(15.0, 50.0, 0.2).unwrap();
        let m = sample_mean(&d, 400_000, 8);
        let expect = 15.0 + 50.0 / (1.0 - 0.2);
        assert!(
            (m - expect).abs() / expect < 0.05,
            "mean {m} expect {expect}"
        );
    }

    #[test]
    fn generalized_pareto_xi_zero_is_shifted_exponential() {
        let d = GeneralizedPareto::new(0.0, 2.0, 0.0).unwrap();
        let m = sample_mean(&d, 100_000, 9);
        assert!((m - 2.0).abs() < 0.1, "mean {m}");
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let d = Zipf::new(1000, 1.0).unwrap();
        let mut rng = Rng::with_seed(12);
        let mut counts = vec![0usize; 1000];
        for _ in 0..50_000 {
            counts[d.sample_rank(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[10]);
        assert!(counts[10] > counts[500]);
    }

    #[test]
    fn zipf_skew_zero_is_uniform() {
        let d = Zipf::new(10, 0.0).unwrap();
        let mut rng = Rng::with_seed(13);
        let mut counts = vec![0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[d.sample_rank(&mut rng)] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.1).abs() < 0.01, "frac {frac}");
        }
    }

    #[test]
    fn zipf_rejects_invalid() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, -0.5).is_err());
    }

    #[test]
    fn categorical_respects_weights() {
        let d = Categorical::new(&[1.0, 3.0]).unwrap();
        let mut rng = Rng::with_seed(14);
        let n = 100_000;
        let ones = (0..n).filter(|_| d.sample_index(&mut rng) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn categorical_rejects_bad_weights() {
        assert!(Categorical::new(&[]).is_err());
        assert!(Categorical::new(&[0.0, 0.0]).is_err());
        assert!(Categorical::new(&[-1.0, 2.0]).is_err());
        assert!(Categorical::new(&[f64::INFINITY]).is_err());
    }

    #[test]
    fn sample_size_clamps_and_rounds() {
        let d = Normal::new(0.0, 1.0).unwrap();
        let mut rng = Rng::with_seed(15);
        for _ in 0..1000 {
            let s = sample_size(&d, &mut rng, 4, 6);
            assert!((4..=6).contains(&s));
        }
    }

    #[test]
    fn lognormal_positive() {
        let d = LogNormal::new(0.0, 1.0).unwrap();
        let mut rng = Rng::with_seed(16);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }
}
