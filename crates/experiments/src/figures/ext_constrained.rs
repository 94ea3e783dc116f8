//! Extension experiment: statistically constrained search (Sec. VI-C).
//!
//! The operator discloses two coarse statistics of the production dataset
//! (mean key and value sizes, ±25%); the search box is confined to match.
//! Compared against the unconstrained search at the same budget, the
//! constrained search should reach a given error with fewer iterations —
//! the speedup the paper predicts for combining statistical modeling with
//! profile-guided generation: when the operator can disclose coarse
//! statistics of the production dataset, Datamime "can confine the possible
//! set of synthetic datasets to those that match the target dataset's
//! statistical properties, which would significantly speed up its search."
//! [`ConstrainedGenerator`] is that confinement: it wraps any
//! [`DatasetGenerator`], restricts named parameters to sub-ranges and remaps
//! the optimizer's unit cube into the constrained box, so the search
//! machinery is unchanged.

use crate::{row, Report, Searches, Settings};
use datamime::generator::{DatasetGenerator, KvGenerator, ParamSpec};
use datamime::profiler::profile_workload;
use datamime::search::search;
use datamime::workload::{AppConfig, Workload};
use datamime_apps::App;

/// A native-value constraint on one named parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ParamConstraint {
    /// Name of the constrained parameter (must exist in the inner
    /// generator's [`ParamSpec`] list).
    name: &'static str,
    /// Lower bound in native units.
    lo: f64,
    /// Upper bound in native units.
    hi: f64,
}

impl ParamConstraint {
    /// A symmetric relative constraint: `value ± fraction * value`.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1)` or `value` is not positive.
    fn within(name: &'static str, value: f64, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "fraction must be in (0, 1)"
        );
        assert!(value > 0.0 && value.is_finite(), "value must be positive");
        ParamConstraint {
            name,
            lo: value * (1.0 - fraction),
            hi: value * (1.0 + fraction),
        }
    }
}

/// A generator whose search space is confined to a sub-box of the wrapped
/// generator's, per disclosed statistical properties of the target
/// dataset.
#[derive(Debug)]
struct ConstrainedGenerator<G> {
    inner: G,
    /// Per-dimension unit-interval bounds.
    unit_bounds: Vec<(f64, f64)>,
}

impl<G: DatasetGenerator> ConstrainedGenerator<G> {
    /// Wraps `inner`, confining the named parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if a constraint names an unknown parameter or its
    /// intersection with the parameter's range is empty.
    fn new(inner: G, constraints: &[ParamConstraint]) -> Result<Self, String> {
        let mut unit_bounds: Vec<(f64, f64)> =
            inner.param_specs().iter().map(|_| (0.0, 1.0)).collect();
        for c in constraints {
            let idx = inner
                .param_specs()
                .iter()
                .position(|s| s.name == c.name)
                .ok_or_else(|| format!("unknown parameter {}", c.name))?;
            let spec = &inner.param_specs()[idx];
            if c.lo > c.hi || c.hi < spec.lo || c.lo > spec.hi {
                return Err(format!(
                    "{}: [{}, {}] does not intersect [{}, {}]",
                    c.name, c.lo, c.hi, spec.lo, spec.hi
                ));
            }
            let ulo = spec.normalize(c.lo);
            let uhi = spec.normalize(c.hi);
            if uhi <= ulo {
                return Err(format!("{}: empty unit range", c.name));
            }
            unit_bounds[idx] = (ulo, uhi);
        }
        Ok(ConstrainedGenerator { inner, unit_bounds })
    }
}

impl<G: DatasetGenerator> DatasetGenerator for ConstrainedGenerator<G> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn param_specs(&self) -> &[ParamSpec] {
        self.inner.param_specs()
    }

    fn instantiate(&self, unit: &[f64]) -> Workload {
        assert_eq!(
            unit.len(),
            self.unit_bounds.len(),
            "parameter vector dimension mismatch"
        );
        // Remap the optimizer's cube into the constrained sub-box.
        let remapped: Vec<f64> = unit
            .iter()
            .zip(&self.unit_bounds)
            .map(|(&u, &(lo, hi))| lo + u.clamp(0.0, 1.0) * (hi - lo))
            .collect();
        self.inner.instantiate(&remapped)
    }

    fn build(&self, workload: &Workload) -> Box<dyn App> {
        self.inner.build(workload)
    }
}

pub(super) fn run(s: &Settings, _: &mut Searches) -> Report {
    let mut r = Report::new("ext_constrained", s);
    let cfg = {
        let mut c = s.search_config();
        c.profiling = c.profiling.without_curves();
        c
    };

    // Target: mem-fb without multigets so both arms can fully match it.
    let mut target = Workload::mem_fb();
    if let AppConfig::Kv(c) = &mut target.app {
        c.multiget_fraction = 0.0;
    }
    let target_profile = profile_workload(&target, &cfg.machine, &cfg.profiling);

    // The operator-disclosed statistics (true values of the mem-fb
    // reference dataset: keys ~31 B, values ~300 B effective mean).
    let constraints = [
        ParamConstraint::within("key_size_mean", 31.0, 0.25),
        ParamConstraint::within("value_size_mean", 300.0, 0.25),
    ];

    eprintln!("unconstrained search ...");
    let plain = search(&KvGenerator::new(), &target_profile, &cfg);
    eprintln!("constrained search ...");
    let constrained_gen =
        ConstrainedGenerator::new(KvGenerator::new(), &constraints).expect("valid constraints");
    let constrained = search(&constrained_gen, &target_profile, &cfg);

    let decimate = |mins: &[f64]| -> Vec<f64> {
        let step = (mins.len() / 10).max(1);
        (0..mins.len()).step_by(step).map(|i| mins[i]).collect()
    };
    r.line(format!(
        "budget: {} iterations; disclosed statistics: key mean 31 B ±25%, value mean 300 B ±25%",
        cfg.iterations
    ));
    r.line(row(
        "unconstrained min EMD",
        &decimate(&plain.running_min()),
    ));
    r.line(row(
        "constrained   min EMD",
        &decimate(&constrained.running_min()),
    ));
    r.line(format!(
        "final error: unconstrained {:.4}  constrained {:.4}",
        plain.best_error, constrained.best_error
    ));

    // Iterations each arm needed to reach the worse arm's final error.
    let threshold = plain.best_error.max(constrained.best_error);
    let reach = |mins: &[f64]| mins.iter().position(|&e| e <= threshold).map(|i| i + 1);
    r.line(format!(
        "iterations to reach EMD {threshold:.4}: unconstrained {:?}  constrained {:?}",
        reach(&plain.running_min()),
        reach(&constrained.running_min())
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamime_apps::SizeDist;

    fn value_mean_of(w: &Workload) -> f64 {
        match &w.app {
            AppConfig::Kv(c) => match c.value_size {
                SizeDist::Normal { mean, .. } => mean,
                _ => panic!("kv generator emits normal sizes"),
            },
            _ => panic!("kv generator emits kv workloads"),
        }
    }

    #[test]
    fn constrained_values_stay_in_the_disclosed_band() {
        let g = ConstrainedGenerator::new(
            KvGenerator::new(),
            &[ParamConstraint::within("value_size_mean", 300.0, 0.2)],
        )
        .unwrap();
        for u in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let w = g.instantiate(&vec![u; g.dims()]);
            let mean = value_mean_of(&w);
            // Floating-point round-trip through log space allows tiny slop.
            assert!(
                (239.9..=360.1).contains(&mean),
                "u={u}: value mean {mean} outside the band"
            );
        }
    }

    #[test]
    fn unconstrained_dimensions_span_the_full_range() {
        let g = ConstrainedGenerator::new(
            KvGenerator::new(),
            &[ParamConstraint::within("value_size_mean", 300.0, 0.2)],
        )
        .unwrap();
        let lo = g.instantiate(&vec![0.0; g.dims()]);
        let hi = g.instantiate(&vec![1.0; g.dims()]);
        assert!(lo.load.qps < hi.load.qps / 5.0, "qps stays unconstrained");
    }

    #[test]
    fn unknown_parameter_is_rejected() {
        let err = ConstrainedGenerator::new(
            KvGenerator::new(),
            &[ParamConstraint {
                name: "bogus",
                lo: 0.0,
                hi: 1.0,
            }],
        )
        .unwrap_err();
        assert!(err.contains("bogus"));
    }

    #[test]
    fn disjoint_constraint_is_rejected() {
        // value_size_mean range is [16, 8192].
        let err = ConstrainedGenerator::new(
            KvGenerator::new(),
            &[ParamConstraint {
                name: "value_size_mean",
                lo: 1e7,
                hi: 2e7,
            }],
        )
        .unwrap_err();
        assert!(err.contains("does not intersect"));
    }
}
