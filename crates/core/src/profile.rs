//! Performance profiles: distributions of every Table-I metric plus the
//! cache-sensitivity curves.

// Supervised evaluation path: no panics outside tests (crates/audit/README.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::metrics::{CurveMetric, DistMetric};
use datamime_sim::MetricSample;
use datamime_stats::Ecdf;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// One point of a cache-sensitivity curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// LLC capacity in bytes for this measurement.
    pub cache_bytes: u64,
    /// Mean LLC MPKI at this allocation.
    pub llc_mpki: f64,
    /// Mean IPC at this allocation.
    pub ipc: f64,
}

/// A complete performance profile of a workload on one machine.
///
/// Contains the empirical distribution of each [`DistMetric`] (one sample
/// per 20 M-cycle interval, as in the paper) and the two cache-sensitivity
/// curves measured by sweeping LLC way allocations.
#[derive(Debug, Clone)]
pub struct Profile {
    dists: BTreeMap<DistMetric, Ecdf>,
    curve: Vec<CurvePoint>,
}

/// Error returned when a profile cannot be assembled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmptyProfileError;

impl fmt::Display for EmptyProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot build a profile from zero samples")
    }
}

impl std::error::Error for EmptyProfileError {}

/// Error returned when a serialized profile cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProfileError {
    line: usize,
    what: String,
}

impl fmt::Display for ParseProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid profile at line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for ParseProfileError {}

impl Profile {
    /// Assembles a profile from interval samples and (optionally) curve
    /// points.
    ///
    /// # Errors
    ///
    /// Returns an error if `samples` is empty or any metric column
    /// contains a non-finite value.
    pub fn from_samples(
        samples: &[MetricSample],
        curve: Vec<CurvePoint>,
    ) -> Result<Self, EmptyProfileError> {
        if samples.is_empty() {
            return Err(EmptyProfileError);
        }
        let column = |f: fn(&MetricSample) -> f64| -> Result<Ecdf, EmptyProfileError> {
            Ecdf::new(samples.iter().map(f).collect()).map_err(|_| EmptyProfileError)
        };
        let mut dists = BTreeMap::new();
        dists.insert(DistMetric::Ipc, column(|s| s.ipc)?);
        dists.insert(DistMetric::ICacheMpki, column(|s| s.l1i_mpki)?);
        dists.insert(DistMetric::ItlbMpki, column(|s| s.itlb_mpki)?);
        dists.insert(DistMetric::L1dMpki, column(|s| s.l1d_mpki)?);
        dists.insert(DistMetric::L2Mpki, column(|s| s.l2_mpki)?);
        dists.insert(DistMetric::LlcMpki, column(|s| s.llc_mpki)?);
        dists.insert(DistMetric::DtlbMpki, column(|s| s.dtlb_mpki)?);
        dists.insert(DistMetric::BranchMpki, column(|s| s.branch_mpki)?);
        dists.insert(DistMetric::CpuUtilization, column(|s| s.cpu_utilization)?);
        dists.insert(DistMetric::MemoryBandwidth, column(|s| s.memory_bw_gbps)?);
        Ok(Profile { dists, curve })
    }

    /// The eCDF of a metric.
    pub fn dist(&self, metric: DistMetric) -> &Ecdf {
        &self.dists[&metric]
    }

    /// Mean of a metric's distribution.
    pub fn mean(&self, metric: DistMetric) -> f64 {
        self.dists[&metric].mean()
    }

    /// The cache-sensitivity curve points, smallest allocation first
    /// (empty on machines without a partitionable LLC).
    pub fn curve(&self) -> &[CurvePoint] {
        &self.curve
    }

    /// One curve's y-values, smallest allocation first.
    pub fn curve_values(&self, metric: CurveMetric) -> Vec<f64> {
        self.curve
            .iter()
            .map(|p| match metric {
                CurveMetric::LlcMpkiCurve => p.llc_mpki,
                CurveMetric::IpcCurve => p.ipc,
            })
            .collect()
    }

    /// Renders the profile means as a one-line summary.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for m in DistMetric::ALL {
            s.push_str(&format!("{}={:.3} ", m.key(), self.mean(m)));
        }
        s.trim_end().to_owned()
    }

    /// Builds a profile from per-metric sample vectors and curve points —
    /// the deserialization constructor behind [`Profile::from_tsv`].
    ///
    /// Metrics missing from `dists` get a single zero sample (a workload
    /// that never exercised them).
    ///
    /// # Errors
    ///
    /// Returns an error if every metric is missing.
    pub fn from_parts(
        mut dists_raw: BTreeMap<DistMetric, Vec<f64>>,
        curve: Vec<CurvePoint>,
    ) -> Result<Self, EmptyProfileError> {
        if dists_raw.values().all(|v| v.is_empty()) {
            return Err(EmptyProfileError);
        }
        let mut dists = BTreeMap::new();
        for m in DistMetric::ALL {
            let samples = dists_raw
                .remove(&m)
                .filter(|v| !v.is_empty())
                .unwrap_or(vec![0.0]);
            dists.insert(m, Ecdf::new(samples).map_err(|_| EmptyProfileError)?);
        }
        Ok(Profile { dists, curve })
    }

    /// Parses the TSV produced by [`Profile::to_tsv`]. This is the sharing
    /// format of the paper's usage flow: the service operator profiles the
    /// production workload, and a third party runs the dataset search from
    /// the profile file alone.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed rows, unknown metric keys, or an
    /// empty profile.
    pub fn from_tsv(text: &str) -> Result<Self, ParseProfileError> {
        let mut dists: BTreeMap<DistMetric, Vec<f64>> = BTreeMap::new();
        let mut curve: BTreeMap<u64, CurvePoint> = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let lineno = i + 1;
            if i == 0 && line.starts_with("metric\t") {
                continue; // header
            }
            if line.trim().is_empty() {
                continue;
            }
            let (key, value) = line.split_once('\t').ok_or_else(|| ParseProfileError {
                line: lineno,
                what: "expected <key><TAB><value>".to_owned(),
            })?;
            let value = f64::from_str(value.trim()).map_err(|e| ParseProfileError {
                line: lineno,
                what: format!("bad value: {e}"),
            })?;
            if let Some((curve_key, bytes)) = key.split_once('@') {
                let bytes = u64::from_str(bytes).map_err(|e| ParseProfileError {
                    line: lineno,
                    what: format!("bad curve size: {e}"),
                })?;
                let point = curve.entry(bytes).or_insert(CurvePoint {
                    cache_bytes: bytes,
                    llc_mpki: 0.0,
                    ipc: 0.0,
                });
                match curve_key {
                    "llc_mpki_curve" => point.llc_mpki = value,
                    "ipc_curve" => point.ipc = value,
                    other => {
                        return Err(ParseProfileError {
                            line: lineno,
                            what: format!("unknown curve metric {other}"),
                        })
                    }
                }
            } else {
                let metric = DistMetric::ALL
                    .iter()
                    .find(|m| m.key() == key)
                    .copied()
                    .ok_or_else(|| ParseProfileError {
                        line: lineno,
                        what: format!("unknown metric {key}"),
                    })?;
                dists.entry(metric).or_default().push(value);
            }
        }
        Profile::from_parts(dists, curve.into_values().collect()).map_err(|_| ParseProfileError {
            line: 0,
            what: "profile contains no samples".to_owned(),
        })
    }

    /// Serializes every distribution as TSV (`metric<TAB>value` rows, one
    /// row per sample) for external plotting.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("metric\tvalue\n");
        for (m, e) in &self.dists {
            for v in e.samples() {
                out.push_str(&format!("{}\t{v}\n", m.key()));
            }
        }
        for p in &self.curve {
            out.push_str(&format!(
                "llc_mpki_curve@{}\t{}\n",
                p.cache_bytes, p.llc_mpki
            ));
            out.push_str(&format!("ipc_curve@{}\t{}\n", p.cache_bytes, p.ipc));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ipc: f64, util: f64) -> MetricSample {
        MetricSample {
            ipc,
            cpu_utilization: util,
            ..MetricSample::default()
        }
    }

    #[test]
    fn empty_samples_rejected() {
        assert!(Profile::from_samples(&[], vec![]).is_err());
    }

    #[test]
    fn means_and_dists() {
        let p = Profile::from_samples(&[sample(1.0, 0.5), sample(2.0, 0.7)], vec![]).unwrap();
        assert_eq!(p.mean(DistMetric::Ipc), 1.5);
        assert_eq!(p.mean(DistMetric::CpuUtilization), 0.6);
        assert_eq!(p.dist(DistMetric::Ipc).len(), 2);
        assert_eq!(p.mean(DistMetric::L2Mpki), 0.0);
    }

    #[test]
    fn curve_accessors() {
        let curve = vec![
            CurvePoint {
                cache_bytes: 1 << 20,
                llc_mpki: 10.0,
                ipc: 0.5,
            },
            CurvePoint {
                cache_bytes: 12 << 20,
                llc_mpki: 1.0,
                ipc: 1.2,
            },
        ];
        let p = Profile::from_samples(&[sample(1.0, 1.0)], curve).unwrap();
        assert_eq!(p.curve_values(CurveMetric::LlcMpkiCurve), vec![10.0, 1.0]);
        assert_eq!(p.curve_values(CurveMetric::IpcCurve), vec![0.5, 1.2]);
        assert_eq!(p.curve().len(), 2);
    }

    #[test]
    fn tsv_roundtrip_shape() {
        let p = Profile::from_samples(&[sample(1.0, 0.2)], vec![]).unwrap();
        let tsv = p.to_tsv();
        assert!(tsv.starts_with("metric\tvalue\n"));
        assert!(
            tsv.contains("ipc\t1\n") || tsv.contains("ipc\t1.0"),
            "{tsv}"
        );
        // 10 metrics x 1 sample + header.
        assert_eq!(tsv.lines().count(), 11);
    }

    #[test]
    fn tsv_roundtrip_preserves_profile() {
        let samples = [sample(1.0, 0.5), sample(2.25, 0.75), sample(0.5, 0.1)];
        let curve = vec![
            CurvePoint {
                cache_bytes: 1 << 20,
                llc_mpki: 9.5,
                ipc: 0.75,
            },
            CurvePoint {
                cache_bytes: 12 << 20,
                llc_mpki: 1.25,
                ipc: 1.5,
            },
        ];
        let p = Profile::from_samples(&samples, curve).unwrap();
        let q = Profile::from_tsv(&p.to_tsv()).unwrap();
        for m in DistMetric::ALL {
            assert_eq!(p.dist(m).samples(), q.dist(m).samples(), "{m}");
        }
        assert_eq!(p.curve(), q.curve());
    }

    #[test]
    fn from_tsv_rejects_garbage() {
        assert!(Profile::from_tsv("").is_err());
        assert!(Profile::from_tsv("metric\tvalue\n").is_err());
        assert!(Profile::from_tsv("metric\tvalue\nnot_a_metric\t1.0\n").is_err());
        assert!(Profile::from_tsv("metric\tvalue\nipc\tnot_a_number\n").is_err());
        assert!(Profile::from_tsv("no tabs here").is_err());
    }

    #[test]
    fn from_parts_fills_missing_metrics_with_zero() {
        let mut dists = std::collections::BTreeMap::new();
        dists.insert(DistMetric::Ipc, vec![1.0, 2.0]);
        let p = Profile::from_parts(dists, vec![]).unwrap();
        assert_eq!(p.mean(DistMetric::Ipc), 1.5);
        assert_eq!(p.mean(DistMetric::BranchMpki), 0.0);
    }

    #[test]
    fn summary_mentions_all_metrics() {
        let p = Profile::from_samples(&[sample(1.5, 0.9)], vec![]).unwrap();
        let s = p.summary();
        for m in DistMetric::ALL {
            assert!(s.contains(m.key()), "missing {m} in {s}");
        }
    }
}
