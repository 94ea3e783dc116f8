//! The EMD-based error model (paper Sec. III-C, Eq. 1).
//!
//! The error between a candidate profile and the target profile is the sum
//! of pairwise Earth Mover's Distances over the metric distributions, with
//! both axes normalized to `[0, 1]`, plus normalized distances between the
//! cache-sensitivity curves. Metrics are weighted equally by default so no
//! single mismatched metric dominates; weights can be overridden to
//! prioritize metrics (the Sec. V-C IPC-reweighting experiment and the
//! Fig. 11 single-metric sweeps use this).

// Supervised evaluation path: no panics outside tests (crates/audit/README.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::metrics::{CurveMetric, DistMetric};
use crate::profile::{CurvePoint, Profile};
use datamime_stats::emd::{curve_distance_iter, emd_normalized, ks_statistic};
use std::collections::BTreeMap;

/// Distance used to compare metric distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistanceKind {
    /// Earth Mover's Distance with normalized axes (the paper's choice).
    Emd,
    /// Two-sample Kolmogorov–Smirnov statistic (the alternative the paper
    /// cites; used by the distance ablation).
    KolmogorovSmirnov,
}

/// Per-metric weights for the error model.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricWeights {
    dist: BTreeMap<DistMetric, f64>,
    curve: BTreeMap<CurveMetric, f64>,
    /// Distance function between distributions.
    pub distance: DistanceKind,
}

impl MetricWeights {
    /// Equal weights on everything (the paper's default).
    pub fn equal() -> Self {
        MetricWeights {
            dist: DistMetric::ALL.iter().map(|&m| (m, 1.0)).collect(),
            curve: CurveMetric::ALL.iter().map(|&m| (m, 1.0)).collect(),
            distance: DistanceKind::Emd,
        }
    }

    /// Weight for a single distribution metric and nothing else (Fig. 11's
    /// single-metric range sweeps).
    pub fn only(metric: DistMetric) -> Self {
        let mut w = MetricWeights {
            dist: DistMetric::ALL.iter().map(|&m| (m, 0.0)).collect(),
            curve: CurveMetric::ALL.iter().map(|&m| (m, 0.0)).collect(),
            distance: DistanceKind::Emd,
        };
        w.dist.insert(metric, 1.0);
        w
    }

    /// Overrides one distribution metric's weight (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or non-finite.
    pub fn with_dist_weight(mut self, metric: DistMetric, weight: f64) -> Self {
        assert!(weight.is_finite() && weight >= 0.0, "invalid weight");
        self.dist.insert(metric, weight);
        self
    }

    /// Overrides one curve metric's weight (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or non-finite.
    pub fn with_curve_weight(mut self, metric: CurveMetric, weight: f64) -> Self {
        assert!(weight.is_finite() && weight >= 0.0, "invalid weight");
        self.curve.insert(metric, weight);
        self
    }

    /// Weight of a distribution metric.
    pub fn dist_weight(&self, metric: DistMetric) -> f64 {
        self.dist[&metric]
    }

    /// Weight of a curve metric.
    pub fn curve_weight(&self, metric: CurveMetric) -> f64 {
        self.curve[&metric]
    }
}

impl Default for MetricWeights {
    fn default() -> Self {
        MetricWeights::equal()
    }
}

/// Per-metric error breakdown of one comparison.
#[derive(Debug, Clone)]
pub struct ErrorBreakdown {
    /// Per-distribution-metric normalized distance (unweighted).
    pub dists: BTreeMap<DistMetric, f64>,
    /// Per-curve-metric normalized distance (unweighted).
    pub curves: BTreeMap<CurveMetric, f64>,
    /// The weighted total (Eq. 1).
    pub total: f64,
}

impl ErrorBreakdown {
    /// Renders the breakdown as a compact single line.
    pub fn summary(&self) -> String {
        let mut s = format!("total={:.4}", self.total);
        for (m, e) in &self.dists {
            s.push_str(&format!(" {}={:.3}", m.key(), e));
        }
        for (m, e) in &self.curves {
            s.push_str(&format!(" {}={:.3}", m.key(), e));
        }
        s
    }
}

/// Computes the weighted profile error `E(candidate; target)` with a full
/// per-metric breakdown.
///
/// Curve metrics are skipped when either profile has no curve (e.g. on
/// machines without CAT) or the grids differ in length.
pub fn profile_error(
    target: &Profile,
    candidate: &Profile,
    weights: &MetricWeights,
) -> ErrorBreakdown {
    let mut dists = BTreeMap::new();
    let mut total = 0.0;
    for m in DistMetric::ALL {
        let d = match weights.distance {
            DistanceKind::Emd => emd_normalized(target.dist(m), candidate.dist(m)),
            DistanceKind::KolmogorovSmirnov => ks_statistic(target.dist(m), candidate.dist(m)),
        };
        total += weights.dist_weight(m) * d;
        dists.insert(m, d);
    }
    let mut curves = BTreeMap::new();
    for m in CurveMetric::ALL {
        let (t, c) = (target.curve(), candidate.curve());
        if t.is_empty() || t.len() != c.len() {
            continue;
        }
        // Compare straight off the curve rows; collecting y-values into
        // temporaries here used to be the last allocation in a profile
        // comparison.
        let pick = |p: &CurvePoint| match m {
            CurveMetric::LlcMpkiCurve => p.llc_mpki,
            CurveMetric::IpcCurve => p.ipc,
        };
        let d = curve_distance_iter(t.iter().map(pick), c.iter().map(pick));
        total += weights.curve_weight(m) * d;
        curves.insert(m, d);
    }
    ErrorBreakdown {
        dists,
        curves,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{CurvePoint, Profile};
    use datamime_sim::MetricSample;

    fn profile_with_ipc(ipcs: &[f64], curve: Vec<CurvePoint>) -> Profile {
        let samples: Vec<MetricSample> = ipcs
            .iter()
            .map(|&ipc| MetricSample {
                ipc,
                ..MetricSample::default()
            })
            .collect();
        Profile::from_samples(&samples, curve).unwrap()
    }

    #[test]
    fn identical_profiles_have_zero_error() {
        let p = profile_with_ipc(&[1.0, 1.5, 2.0], vec![]);
        let e = profile_error(&p, &p, &MetricWeights::equal());
        assert_eq!(e.total, 0.0);
        assert!(e.dists.values().all(|&d| d == 0.0));
    }

    #[test]
    fn error_grows_with_ipc_mismatch() {
        let t = profile_with_ipc(&[1.0, 1.0], vec![]);
        let near = profile_with_ipc(&[1.1, 1.1], vec![]);
        let far = profile_with_ipc(&[2.0, 2.0], vec![]);
        let w = MetricWeights::equal();
        let e_near = profile_error(&t, &near, &w).total;
        let e_far = profile_error(&t, &far, &w).total;
        assert!(e_far > e_near, "far {e_far} near {e_near}");
    }

    #[test]
    fn only_weights_isolate_one_metric() {
        let t = profile_with_ipc(&[1.0], vec![]);
        let c = profile_with_ipc(&[2.0], vec![]);
        let e = profile_error(&t, &c, &MetricWeights::only(DistMetric::BranchMpki));
        // IPC differs but has zero weight; branch MPKI is 0 in both.
        assert_eq!(e.total, 0.0);
        let e2 = profile_error(&t, &c, &MetricWeights::only(DistMetric::Ipc));
        assert!(e2.total > 0.0);
    }

    #[test]
    fn curve_mismatch_contributes() {
        let curve_a = vec![CurvePoint {
            cache_bytes: 1 << 20,
            llc_mpki: 10.0,
            ipc: 0.5,
        }];
        let curve_b = vec![CurvePoint {
            cache_bytes: 1 << 20,
            llc_mpki: 2.0,
            ipc: 1.5,
        }];
        let t = profile_with_ipc(&[1.0], curve_a);
        let c = profile_with_ipc(&[1.0], curve_b);
        let e = profile_error(&t, &c, &MetricWeights::equal());
        assert!(e.curves[&CurveMetric::LlcMpkiCurve] > 0.0);
        assert!(e.curves[&CurveMetric::IpcCurve] > 0.0);
        assert!(e.total > 0.0);
    }

    #[test]
    fn missing_curves_are_skipped_not_fatal() {
        let t = profile_with_ipc(&[1.0], vec![]);
        let c = profile_with_ipc(
            &[1.0],
            vec![CurvePoint {
                cache_bytes: 1,
                llc_mpki: 1.0,
                ipc: 1.0,
            }],
        );
        let e = profile_error(&t, &c, &MetricWeights::equal());
        assert!(e.curves.is_empty());
    }

    #[test]
    fn ks_distance_option() {
        let t = profile_with_ipc(&[1.0, 1.0], vec![]);
        let c = profile_with_ipc(&[2.0, 2.0], vec![]);
        let mut w = MetricWeights::equal();
        w.distance = DistanceKind::KolmogorovSmirnov;
        let e = profile_error(&t, &c, &w);
        assert!(
            (e.dists[&DistMetric::Ipc] - 1.0).abs() < 1e-12,
            "disjoint -> KS = 1"
        );
    }

    #[test]
    fn normalized_errors_are_bounded() {
        let t = profile_with_ipc(&[0.5, 1.0, 1.5], vec![]);
        let c = profile_with_ipc(&[3.0, 3.5, 4.0], vec![]);
        let e = profile_error(&t, &c, &MetricWeights::equal());
        for (&m, &d) in &e.dists {
            assert!((0.0..=1.0).contains(&d), "{m}: {d}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid weight")]
    fn negative_weight_panics() {
        MetricWeights::equal().with_dist_weight(DistMetric::Ipc, -1.0);
    }
}
