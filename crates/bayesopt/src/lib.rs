//! From-scratch Bayesian optimization for the Datamime reproduction.
//!
//! The paper's dataset search (Sec. III-C) is a noisy, expensive,
//! black-box minimization in ≤ ~20 dimensions solved with Bayesian
//! optimization. The Rust BO ecosystem is thin, so this crate implements
//! the standard pipeline directly:
//!
//! - [`GaussianProcess`]: exact GP regression (Cholesky), standardized
//!   targets, marginal-likelihood hyperparameter fitting via multi-start
//!   Nelder–Mead ([`neldermead`]);
//! - [`Kernel`]: ARD Matérn-5/2 (default) and squared-exponential;
//! - [`acquisition`]: expected improvement and a confidence-bound
//!   alternative;
//! - [`BayesOpt`]: the suggest/observe loop with a Latin-hypercube initial
//!   design ([`latin_hypercube`]); [`RandomSearch`] as the ablation
//!   baseline, both behind [`BlackBoxOptimizer`].
//!
//! The GP core is column-major and allocation-free per evaluation
//! (docs/PERFORMANCE.md §2, row B1); [`mod@reference`] keeps the
//! row-ordered stack it replaced as the oracle it must match bit for bit.
//!
//! # Examples
//!
//! ```
//! use datamime_bayesopt::{BayesOpt, BlackBoxOptimizer, BoConfig};
//!
//! let mut bo = BayesOpt::new(BoConfig::for_dims(2), 7);
//! for _ in 0..25 {
//!     let x = bo.suggest();
//!     let y = (x[0] - 0.25f64).powi(2) + (x[1] - 0.75f64).powi(2);
//!     bo.observe(x, y);
//! }
//! assert!(bo.best().unwrap().1 < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acquisition;
mod gp;
mod kernel;
mod linalg;
pub mod neldermead;
mod optimizer;
pub mod reference;

pub use gp::{GaussianProcess, GpError};
pub use kernel::Kernel;
pub use optimizer::{
    latin_hypercube, sanitize_objective, Acquisition, BayesOpt, BlackBoxOptimizer, BoConfig,
    RandomSearch, PENALTY_OBJECTIVE,
};
