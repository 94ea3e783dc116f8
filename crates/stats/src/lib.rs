//! Statistical foundations for the Datamime reproduction.
//!
//! This crate provides the deterministic randomness and distribution
//! machinery shared by every other crate in the workspace:
//!
//! - [`Rng`]: a seedable, platform-stable xoshiro256\*\* generator;
//! - [`dist`]: parametric distributions (normal, generalized Pareto, Zipf,
//!   categorical, ...) used by dataset generators and load generators;
//! - [`Ecdf`]: empirical CDFs over profiled metric samples;
//! - [`emd`]: the Earth Mover's Distance error model from the paper
//!   (normalized area between CDFs) plus a Kolmogorov–Smirnov alternative.
//!
//! # Examples
//!
//! Measure how far apart two sampled metric distributions are, exactly the
//! way Datamime's error model does:
//!
//! ```
//! use datamime_stats::{Rng, Ecdf, emd::emd_normalized, dist::{Distribution, Normal}};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = Rng::with_seed(1);
//! let target = Normal::new(1.0, 0.1)?;
//! let synth = Normal::new(1.2, 0.1)?;
//! let a = Ecdf::new((0..500).map(|_| target.sample(&mut rng)).collect())?;
//! let b = Ecdf::new((0..500).map(|_| synth.sample(&mut rng)).collect())?;
//! let err = emd_normalized(&a, &b);
//! assert!(err > 0.05 && err < 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compress;
pub mod dist;
mod ecdf;
pub mod emd;
mod rng;

pub use ecdf::{Ecdf, EmptySamplesError};
pub use rng::Rng;
