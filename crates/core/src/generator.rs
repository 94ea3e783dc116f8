//! Parameterized dataset generators (paper Sec. III-B, Table III).
//!
//! A dataset generator maps a point of the unit hypercube to a complete
//! [`Workload`] (program + synthesized dataset + offered load). The four
//! generators below implement exactly the Table III parameterizations. The
//! generators never see the target dataset: e.g. the memcached generator
//! assumes *Gaussian* key/value sizes while the `mem-fb` target draws
//! values from a generalized Pareto — reproducing the paper's setup where
//! matching the performance profile does not require matching the dataset
//! family.

// Supervised evaluation path: no panics outside tests (crates/audit/README.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::workload::{AppConfig, Workload};
use datamime_apps::{KvConfig, NetSpec, SearchConfig, SiloConfig, SizeDist};
use datamime_loadgen::{ArrivalProcess, WorkloadSpec};

/// One searchable parameter: its range and scale.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// Human-readable name (e.g. `"value_size_mean"`).
    pub name: &'static str,
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
    /// Round the denormalized value to the nearest integer.
    pub integer: bool,
    /// Map the unit interval through a log scale (for ranges spanning
    /// orders of magnitude).
    pub log: bool,
    /// Search resolution: `Some(s)` snaps the unit coordinate to a grid
    /// of `s + 1` evenly spaced values before scaling, `None` keeps the
    /// axis continuous. Bounding the resolution makes re-suggested points
    /// *exactly* equal (so the evaluation memo cache can serve them) at
    /// the cost of sub-cell detail the profiler cannot resolve anyway.
    pub steps: Option<u32>,
}

impl ParamSpec {
    /// A linear-scale parameter.
    pub fn linear(name: &'static str, lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "empty range for {name}");
        ParamSpec {
            name,
            lo,
            hi,
            integer: false,
            log: false,
            steps: None,
        }
    }

    /// A log-scale parameter (both bounds must be positive).
    pub fn log(name: &'static str, lo: f64, hi: f64) -> Self {
        assert!(0.0 < lo && lo < hi, "invalid log range for {name}");
        ParamSpec {
            name,
            lo,
            hi,
            integer: false,
            log: true,
            steps: None,
        }
    }

    /// An integer-valued parameter.
    pub fn int(name: &'static str, lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "empty range for {name}");
        ParamSpec {
            name,
            lo,
            hi,
            integer: true,
            log: false,
            steps: None,
        }
    }

    /// An integer-valued, log-scale parameter.
    pub fn int_log(name: &'static str, lo: f64, hi: f64) -> Self {
        assert!(0.0 < lo && lo < hi, "invalid log range for {name}");
        ParamSpec {
            name,
            lo,
            hi,
            integer: true,
            log: true,
            steps: None,
        }
    }

    /// The same parameter with its unit axis snapped to `steps + 1` grid
    /// values (see [`ParamSpec::steps`]).
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn with_steps(mut self, steps: u32) -> Self {
        assert!(steps > 0, "resolution needs at least one step");
        self.steps = Some(steps);
        self
    }

    /// Projects a unit coordinate onto this parameter's grid (identity
    /// for continuous axes). Idempotent; every [`ParamSpec::denormalize`]
    /// passes through this first, so two unit points that snap together
    /// are guaranteed to describe the same native value.
    pub fn snap(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        match self.steps {
            Some(s) => {
                let s = f64::from(s);
                (u * s).round() / s
            }
            None => u,
        }
    }

    /// Maps a unit-interval coordinate to the parameter's native range.
    pub fn denormalize(&self, u: f64) -> f64 {
        let u = self.snap(u);
        let v = if self.log {
            (self.lo.ln() + u * (self.hi.ln() - self.lo.ln())).exp()
        } else {
            self.lo + u * (self.hi - self.lo)
        };
        if self.integer {
            v.round().clamp(self.lo, self.hi)
        } else {
            v
        }
    }

    /// Maps a native value back to its unit-interval coordinate (the
    /// inverse of [`ParamSpec::denormalize`], up to integer rounding).
    /// Values outside the range clamp to the nearest end.
    pub fn normalize(&self, v: f64) -> f64 {
        let v = v.clamp(self.lo, self.hi);
        let u = if self.log {
            (v.ln() - self.lo.ln()) / (self.hi.ln() - self.lo.ln())
        } else {
            (v - self.lo) / (self.hi - self.lo)
        };
        u.clamp(0.0, 1.0)
    }
}

/// A dataset generator: the unit-hypercube → [`Workload`] mapping that
/// Datamime's optimizer searches.
pub trait DatasetGenerator {
    /// The generator's name (matches the program it feeds).
    fn name(&self) -> &str;

    /// The searchable parameters, in the order `instantiate` expects.
    fn param_specs(&self) -> &[ParamSpec];

    /// Builds the workload for a unit-hypercube point.
    ///
    /// # Panics
    ///
    /// Panics if `unit.len()` differs from `param_specs().len()`.
    fn instantiate(&self, unit: &[f64]) -> Workload;

    /// Number of parameters (dimension of the search space).
    fn dims(&self) -> usize {
        self.param_specs().len()
    }

    /// Denormalizes a unit point into named parameter values, for reports.
    fn describe(&self, unit: &[f64]) -> Vec<(&'static str, f64)> {
        self.param_specs()
            .iter()
            .zip(unit)
            .map(|(spec, &u)| (spec.name, spec.denormalize(u)))
            .collect()
    }
}

/// Boxed generators are generators too, so trait objects returned by
/// [`generator_for_program`] compose with wrappers like
/// [`QuantizedGenerator`] without re-dispatching by hand.
impl<G: DatasetGenerator + ?Sized> DatasetGenerator for Box<G> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn param_specs(&self) -> &[ParamSpec] {
        (**self).param_specs()
    }

    fn instantiate(&self, unit: &[f64]) -> Workload {
        (**self).instantiate(unit)
    }
}

fn check_dims(specs: &[ParamSpec], unit: &[f64]) {
    assert_eq!(
        unit.len(),
        specs.len(),
        "parameter vector dimension mismatch"
    );
}

/// Table III `memcached` generator: QPS, GET/SET ratio, and Gaussian key /
/// value size distributions (mean and standard deviation of each).
#[derive(Debug, Clone)]
pub struct KvGenerator {
    specs: Vec<ParamSpec>,
}

impl KvGenerator {
    /// Creates the generator with the default parameter ranges.
    pub fn new() -> Self {
        KvGenerator {
            specs: vec![
                ParamSpec::log("qps", 20_000.0, 400_000.0),
                ParamSpec::linear("get_ratio", 0.0, 1.0),
                ParamSpec::linear("key_size_mean", 8.0, 128.0),
                ParamSpec::linear("key_size_std", 0.0, 48.0),
                ParamSpec::log("value_size_mean", 16.0, 8192.0),
                ParamSpec::log("value_size_std", 1.0, 4096.0),
            ],
        }
    }
}

impl Default for KvGenerator {
    fn default() -> Self {
        KvGenerator::new()
    }
}

impl DatasetGenerator for KvGenerator {
    fn name(&self) -> &str {
        "memcached"
    }

    fn param_specs(&self) -> &[ParamSpec] {
        &self.specs
    }

    fn instantiate(&self, unit: &[f64]) -> Workload {
        check_dims(&self.specs, unit);
        let v: Vec<f64> = self
            .specs
            .iter()
            .zip(unit)
            .map(|(s, &u)| s.denormalize(u))
            .collect();
        let cfg = KvConfig {
            n_keys: 120_000,
            key_size: SizeDist::Normal {
                mean: v[2],
                std: v[3],
            },
            value_size: SizeDist::Normal {
                mean: v[4],
                std: v[5],
            },
            get_ratio: v[1],
            popularity_skew: 1.0, // mutilate-style default popularity
            networked: false,
            value_redundancy: None,
            multiget_fraction: 0.0, // mutilate issues single-key requests
            seed: 0x5EED,
        };
        Workload {
            name: "memcached-synth".to_owned(),
            app: AppConfig::Kv(cfg),
            load: WorkloadSpec {
                qps: v[0],
                arrivals: ArrivalProcess::bursty_default(),
            },
        }
    }
}

/// Table III `silo` generator: QPS, number of warehouses, and the ratios
/// of the five TPC-C transaction types.
#[derive(Debug, Clone)]
pub struct SiloGenerator {
    specs: Vec<ParamSpec>,
}

impl SiloGenerator {
    /// Creates the generator with the default parameter ranges.
    pub fn new() -> Self {
        SiloGenerator {
            specs: vec![
                ParamSpec::log("qps", 20_000.0, 1_000_000.0),
                ParamSpec::int_log("warehouses", 1.0, 64.0),
                ParamSpec::linear("ratio_new_order", 0.0, 1.0),
                ParamSpec::linear("ratio_payment", 0.0, 1.0),
                ParamSpec::linear("ratio_delivery", 0.0, 1.0),
                ParamSpec::linear("ratio_order_status", 0.0, 1.0),
                ParamSpec::linear("ratio_stock_level", 0.0, 1.0),
            ],
        }
    }
}

impl Default for SiloGenerator {
    fn default() -> Self {
        SiloGenerator::new()
    }
}

impl DatasetGenerator for SiloGenerator {
    fn name(&self) -> &str {
        "silo"
    }

    fn param_specs(&self) -> &[ParamSpec] {
        &self.specs
    }

    fn instantiate(&self, unit: &[f64]) -> Workload {
        check_dims(&self.specs, unit);
        let v: Vec<f64> = self
            .specs
            .iter()
            .zip(unit)
            .map(|(s, &u)| s.denormalize(u))
            .collect();
        // Keep the mix valid even when the optimizer zeroes every ratio.
        let cfg = SiloConfig {
            n_warehouses: v[1] as u32,
            tx_mix: [
                v[2].max(1e-3),
                v[3].max(1e-3),
                v[4].max(1e-3),
                v[5].max(1e-3),
                v[6].max(1e-3),
                0.0, // the bidding transaction is not a generator knob
            ],
            n_bid_items: 1,
            seed: 0x5EED,
        };
        Workload {
            name: "silo-synth".to_owned(),
            app: AppConfig::Silo(cfg),
            load: WorkloadSpec {
                qps: v[0],
                arrivals: ArrivalProcess::bursty_default(),
            },
        }
    }
}

/// Table III `xapian` generator: QPS, Zipfian skew, term-frequency cap,
/// and average document length.
#[derive(Debug, Clone)]
pub struct XapianGenerator {
    specs: Vec<ParamSpec>,
}

impl XapianGenerator {
    /// Creates the generator with the default parameter ranges.
    pub fn new() -> Self {
        XapianGenerator {
            specs: vec![
                ParamSpec::log("qps", 3_000.0, 150_000.0),
                ParamSpec::linear("zipf_skew", 0.0, 1.4),
                ParamSpec::linear("term_freq_cap", 0.0, 0.9),
                ParamSpec::log("avg_doc_length", 128.0, 16_384.0),
            ],
        }
    }
}

impl Default for XapianGenerator {
    fn default() -> Self {
        XapianGenerator::new()
    }
}

impl DatasetGenerator for XapianGenerator {
    fn name(&self) -> &str {
        "xapian"
    }

    fn param_specs(&self) -> &[ParamSpec] {
        &self.specs
    }

    fn instantiate(&self, unit: &[f64]) -> Workload {
        check_dims(&self.specs, unit);
        let v: Vec<f64> = self
            .specs
            .iter()
            .zip(unit)
            .map(|(s, &u)| s.denormalize(u))
            .collect();
        let cfg = SearchConfig {
            n_docs: 50_000,
            n_terms: 24_000,
            // StackOverflow pages selected within a band of the requested
            // average length (paper Sec. IV): a tight normal around it.
            doc_length: SizeDist::Normal {
                mean: v[3],
                std: v[3] / 3.0,
            },
            query_skew: v[1],
            term_freq_cap: v[2],
            seed: 0x5EED,
        };
        Workload {
            name: "xapian-synth".to_owned(),
            app: AppConfig::Search(cfg),
            load: WorkloadSpec {
                qps: v[0],
                arrivals: ArrivalProcess::bursty_default(),
            },
        }
    }
}

/// Table III `dnn` generator: QPS, counts of 3×3 conv / strided conv /
/// max-pool / FC layers, and the first layer's output channels. The
/// network itself is the dataset.
#[derive(Debug, Clone)]
pub struct DnnGenerator {
    specs: Vec<ParamSpec>,
}

impl DnnGenerator {
    /// Creates the generator with the default parameter ranges.
    pub fn new() -> Self {
        DnnGenerator {
            specs: vec![
                ParamSpec::log("qps", 30.0, 3_000.0),
                ParamSpec::int("n_conv3x3", 1.0, 12.0),
                ParamSpec::int("n_strided_conv", 0.0, 4.0),
                ParamSpec::int("n_maxpool", 0.0, 3.0),
                ParamSpec::int("n_fc", 0.0, 3.0),
                ParamSpec::int_log("first_out_channels", 4.0, 128.0),
            ],
        }
    }
}

impl Default for DnnGenerator {
    fn default() -> Self {
        DnnGenerator::new()
    }
}

impl DatasetGenerator for DnnGenerator {
    fn name(&self) -> &str {
        "dnn"
    }

    fn param_specs(&self) -> &[ParamSpec] {
        &self.specs
    }

    fn instantiate(&self, unit: &[f64]) -> Workload {
        check_dims(&self.specs, unit);
        let v: Vec<f64> = self
            .specs
            .iter()
            .zip(unit)
            .map(|(s, &u)| s.denormalize(u))
            .collect();
        let spec = NetSpec::from_generator_params(
            v[1] as u32,
            v[2] as u32,
            v[3] as u32,
            v[4] as u32,
            v[5] as u32,
        );
        Workload {
            name: "dnn-synth".to_owned(),
            app: AppConfig::Dnn(spec),
            load: WorkloadSpec {
                qps: v[0],
                arrivals: ArrivalProcess::bursty_default(),
            },
        }
    }
}

/// Wraps any generator with a bounded search resolution: every parameter
/// axis is snapped to `steps + 1` evenly spaced unit-grid values before
/// the inner generator sees it.
///
/// In a fully continuous space, two optimizer suggestions are never
/// bit-equal, so the evaluation memo cache can only fire on journal
/// replay. Bounding the resolution makes repeat visits *exact*: as the
/// optimizer converges its proposals cluster into a few grid cells, and
/// every revisit is served from the memo instead of paying another
/// simulator run. The grid lives in unit space and [`ParamSpec::snap`] is
/// idempotent, so the memo key (the denormalized parameter vector) and
/// the instantiated workload agree exactly.
#[derive(Debug, Clone)]
pub struct QuantizedGenerator<G> {
    inner: G,
    specs: Vec<ParamSpec>,
}

impl<G: DatasetGenerator> QuantizedGenerator<G> {
    /// Wraps `inner`, snapping every axis to `steps + 1` grid values.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn new(inner: G, steps: u32) -> Self {
        let specs = inner
            .param_specs()
            .iter()
            .cloned()
            .map(|s| s.with_steps(steps))
            .collect();
        QuantizedGenerator { inner, specs }
    }
}

impl<G: DatasetGenerator> DatasetGenerator for QuantizedGenerator<G> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn param_specs(&self) -> &[ParamSpec] {
        &self.specs
    }

    fn instantiate(&self, unit: &[f64]) -> Workload {
        check_dims(&self.specs, unit);
        let snapped: Vec<f64> = self
            .specs
            .iter()
            .zip(unit)
            .map(|(s, &u)| s.snap(u))
            .collect();
        self.inner.instantiate(&snapped)
    }
}

/// Returns the generator matching a target workload's program, used by the
/// experiments (the Sec. V-C case study deliberately mismatches them).
pub fn generator_for_program(program: &str) -> Option<Box<dyn DatasetGenerator + Send + Sync>> {
    match program {
        "memcached" | "masstree" => Some(Box::new(KvGenerator::new())),
        "silo" => Some(Box::new(SiloGenerator::new())),
        "xapian" => Some(Box::new(XapianGenerator::new())),
        "dnn" | "img-dnn" => Some(Box::new(DnnGenerator::new())),
        _ => None,
    }
}

/// [`generator_for_program`], wrapped in a [`QuantizedGenerator`] of
/// `grid` steps when `grid` is set: the one program → generator path a
/// job spec and a process-backend worker both take.
///
/// # Errors
///
/// Fails when `program` has no generator.
pub fn generator_for_program_grid(
    program: &str,
    grid: Option<u32>,
) -> Result<Box<dyn DatasetGenerator + Send + Sync>, String> {
    let inner = generator_for_program(program)
        .ok_or_else(|| format!("no dataset generator for program `{program}`"))?;
    Ok(match grid {
        Some(steps) => Box::new(QuantizedGenerator::new(inner, steps)),
        None => inner,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_spec_denormalization() {
        let lin = ParamSpec::linear("x", 10.0, 20.0);
        assert_eq!(lin.denormalize(0.0), 10.0);
        assert_eq!(lin.denormalize(1.0), 20.0);
        assert_eq!(lin.denormalize(0.5), 15.0);

        let log = ParamSpec::log("y", 1.0, 100.0);
        assert!((log.denormalize(0.5) - 10.0).abs() < 1e-9);

        let int = ParamSpec::int("z", 1.0, 5.0);
        assert_eq!(int.denormalize(0.49), 3.0);
        assert_eq!(int.denormalize(1.2), 5.0); // clamped

        let il = ParamSpec::int_log("w", 1.0, 64.0);
        assert_eq!(il.denormalize(0.5), 8.0);
    }

    #[test]
    fn snapping_is_idempotent_and_bounds_the_axis() {
        let spec = ParamSpec::linear("x", 0.0, 10.0).with_steps(4);
        // Grid of 5 values: 0, 0.25, 0.5, 0.75, 1.
        assert_eq!(spec.snap(0.3), 0.25);
        assert_eq!(spec.snap(0.13), 0.25);
        assert_eq!(spec.snap(0.12), 0.0);
        assert_eq!(spec.snap(spec.snap(0.3)), spec.snap(0.3));
        assert_eq!(spec.denormalize(0.3), 2.5);
        assert_eq!(spec.denormalize(0.26), 2.5);
        // Continuous axes are untouched.
        let cont = ParamSpec::linear("x", 0.0, 10.0);
        assert_eq!(cont.snap(0.3), 0.3);
    }

    #[test]
    fn quantized_generator_collapses_nearby_points() {
        let g = QuantizedGenerator::new(KvGenerator::new(), 8);
        assert_eq!(g.dims(), 6);
        assert_eq!(g.name(), "memcached");
        let a = [0.26, 0.5, 0.5, 0.5, 0.5, 0.5];
        let b = [0.24, 0.5, 0.5, 0.5, 0.5, 0.5];
        assert_eq!(g.describe(&a), g.describe(&b));
        // The instantiated workloads agree with the snapped description.
        let wa = g.instantiate(&a);
        let wb = g.instantiate(&b);
        assert_eq!(format!("{:?}", wa.app), format!("{:?}", wb.app));
        assert_eq!(wa.load.qps.to_bits(), wb.load.qps.to_bits());
        // And disagree once the points land in different grid cells.
        let c = [0.40, 0.5, 0.5, 0.5, 0.5, 0.5];
        assert_ne!(g.instantiate(&c).load.qps.to_bits(), wa.load.qps.to_bits());
    }

    #[test]
    fn table_iii_dimensions() {
        assert_eq!(KvGenerator::new().dims(), 6);
        assert_eq!(SiloGenerator::new().dims(), 7);
        assert_eq!(XapianGenerator::new().dims(), 4);
        assert_eq!(DnnGenerator::new().dims(), 6);
    }

    #[test]
    fn all_generators_instantiate_at_cube_corners_and_center() {
        let gens: Vec<Box<dyn DatasetGenerator>> = vec![
            Box::new(KvGenerator::new()),
            Box::new(SiloGenerator::new()),
            Box::new(XapianGenerator::new()),
            Box::new(DnnGenerator::new()),
        ];
        for g in &gens {
            for u in [0.0, 0.5, 1.0] {
                let unit = vec![u; g.dims()];
                let w = g.instantiate(&unit);
                // Building the app validates the configuration end to end.
                let app = w.app.build();
                assert!(app.footprint_bytes() > 0, "{} at {u}", g.name());
                assert!(w.load.qps > 0.0);
            }
        }
    }

    #[test]
    fn describe_names_every_parameter() {
        let g = KvGenerator::new();
        let d = g.describe(&vec![0.5; g.dims()]);
        assert_eq!(d.len(), 6);
        assert_eq!(d[0].0, "qps");
        assert!(d[0].1 > 20_000.0 && d[0].1 < 400_000.0);
    }

    #[test]
    fn generator_lookup() {
        assert_eq!(
            generator_for_program("memcached").unwrap().name(),
            "memcached"
        );
        assert_eq!(
            generator_for_program("masstree").unwrap().name(),
            "memcached"
        );
        assert_eq!(generator_for_program("img-dnn").unwrap().name(), "dnn");
        assert!(generator_for_program("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dims_panic() {
        KvGenerator::new().instantiate(&[0.5]);
    }

    #[test]
    fn generators_span_wide_footprints() {
        let g = KvGenerator::new();
        let mut lo = g.instantiate(&[0.0; 6]);
        let mut hi = g.instantiate(&[1.0; 6]);
        lo.name.clear();
        hi.name.clear();
        let small = lo.app.build().footprint_bytes();
        let large = hi.app.build().footprint_bytes();
        assert!(large > small * 10, "footprint range {small}..{large}");
    }

    #[test]
    fn normalize_roundtrips_denormalize() {
        for spec in KvGenerator::new().param_specs() {
            for u in [0.0, 0.3, 0.7, 1.0] {
                let v = spec.denormalize(u);
                let u2 = spec.normalize(v);
                if !spec.integer {
                    assert!((u - u2).abs() < 1e-9, "{}: {u} vs {u2}", spec.name);
                }
            }
        }
    }
}
