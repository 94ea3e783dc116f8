//! Earth Mover's Distance between one-dimensional sample distributions.
//!
//! Datamime quantifies the mismatch between a synthetic benchmark's profile
//! and the target workload's profile as the sum of pairwise EMDs over the
//! ten Table-I metrics (Eq. 1 of the paper). For one-dimensional samples
//! with uniform weights, the EMD equals the area between the two CDFs; the
//! paper additionally normalizes both axes to `[0, 1]` (Sec. V-D) so each
//! metric contributes comparably.

// Supervised evaluation path: no panics outside tests (crates/audit/README.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::ecdf::Ecdf;

/// Computes the raw (un-normalized) EMD between two eCDFs: the area between
/// their CDF curves, `∫ |F(x) − G(x)| dx`.
///
/// This is the merge-walk fast path: one linear pass over the two sorted
/// sample arrays (which [`Ecdf::new`] sorted once, at construction), with no
/// allocation and no binary searches. The search loop calls it ten times per
/// candidate — once per Table-I metric — against target eCDFs built once per
/// search, so the comparison itself must be cheap. It is bit-identical
/// (0 ULP) to [`emd_area_naive`], the direct transcription of the
/// definition; `crates/stats/tests/properties.rs` asserts `to_bits`
/// equality on random inputs.
///
/// # Examples
///
/// ```
/// use datamime_stats::{Ecdf, emd::emd_area};
/// let a = Ecdf::new(vec![0.0, 1.0]).unwrap();
/// let b = Ecdf::new(vec![1.0, 2.0]).unwrap();
/// assert!((emd_area(&a, &b) - 1.0).abs() < 1e-12);
/// ```
pub fn emd_area(a: &Ecdf, b: &Ecdf) -> f64 {
    let xs_a = a.samples();
    let xs_b = b.samples();
    // Non-empty by Ecdf construction.
    let (n, m) = (xs_a.len() as f64, xs_b.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut area = 0.0;
    let mut x0 = xs_a[0].min(xs_b[0]);
    loop {
        // Consume every sample equal to the current breakpoint so that
        // `i`/`j` equal the partition points `#{x <= x0}` — the same counts
        // `Ecdf::eval` computes by binary search. Between breakpoints both
        // CDFs are constant, so each distinct-value gap contributes one
        // rectangle, in ascending order — the identical term sequence the
        // naive merged-window integration produces, which is what makes the
        // two implementations agree to the last bit.
        while i < xs_a.len() && xs_a[i] == x0 {
            i += 1;
        }
        while j < xs_b.len() && xs_b[j] == x0 {
            j += 1;
        }
        let x1 = match (xs_a.get(i), xs_b.get(j)) {
            (Some(&u), Some(&v)) => u.min(v),
            (Some(&u), None) => u,
            (None, Some(&v)) => v,
            (None, None) => break,
        };
        area += ((i as f64 / n) - (j as f64 / m)).abs() * (x1 - x0);
        x0 = x1;
    }
    area
}

/// Reference implementation of [`emd_area`]: materialize the merged
/// breakpoint list, then integrate the step-function difference window by
/// window, evaluating both CDFs by binary search at every breakpoint.
///
/// This is the shape the definition suggests — and what `emd_area` was
/// before the merge-walk rewrite. It allocates a merged `Vec` and performs
/// `O((n+m) log)` work per comparison, so the hot path no longer uses it;
/// it survives as the oracle the 0-ULP equivalence property test compares
/// against, per the hot-path rules in docs/PERFORMANCE.md.
pub fn emd_area_naive(a: &Ecdf, b: &Ecdf) -> f64 {
    let xs_a = a.samples();
    let xs_b = b.samples();
    let mut merged: Vec<f64> = Vec::with_capacity(xs_a.len() + xs_b.len());
    let (mut i, mut j) = (0, 0);
    while i < xs_a.len() && j < xs_b.len() {
        if xs_a[i] <= xs_b[j] {
            merged.push(xs_a[i]);
            i += 1;
        } else {
            merged.push(xs_b[j]);
            j += 1;
        }
    }
    merged.extend_from_slice(&xs_a[i..]);
    merged.extend_from_slice(&xs_b[j..]);

    let mut area = 0.0;
    for w in merged.windows(2) {
        let (x0, x1) = (w[0], w[1]);
        if x1 > x0 {
            // Between consecutive breakpoints, both CDFs are constant; evaluate at x0.
            area += (a.eval(x0) - b.eval(x0)).abs() * (x1 - x0);
        }
    }
    area
}

/// Computes the paper's *normalized* EMD: both axes are normalized to
/// `[0, 1]` by dividing sample values by the maximum observed across both
/// distributions (the y-axis of a CDF is already in `[0, 1]`).
///
/// A value of `0.23` means the area between the two normalized CDFs is 23%
/// of the unit square — matching the example the paper gives for `xapian`'s
/// ICache-MPKI plot.
///
/// Degenerate cases: if both distributions are identically zero the distance
/// is `0`; if only the maximum is zero on one side, the scale falls back to
/// the joint maximum (which is then positive).
pub fn emd_normalized(a: &Ecdf, b: &Ecdf) -> f64 {
    let scale = a.max().abs().max(b.max().abs());
    if scale <= 0.0 {
        // Both distributions are all-zero (non-negative metrics): identical.
        return 0.0;
    }
    emd_area(a, b) / scale
}

/// Normalized distance between two *curves* sampled on the same grid, used
/// for the LLC-MPKI-vs-cache-size and IPC-vs-cache-size curve metrics
/// (Table I, "Cache Sensitivity").
///
/// Defined as the mean absolute difference between the curves divided by the
/// maximum absolute value observed on either curve, which mirrors the
/// normalized-area definition used for eCDF metrics and likewise lies in
/// `[0, 1]` for non-negative curves.
///
/// # Panics
///
/// Panics if the curves have different lengths or are empty.
pub fn curve_distance(a: &[f64], b: &[f64]) -> f64 {
    curve_distance_iter(a.iter().copied(), b.iter().copied())
}

/// [`curve_distance`] over iterators, so callers holding curves in richer
/// structures (e.g. `core`'s `CurvePoint` rows) can compare them without
/// collecting y-values into temporary `Vec`s first. Two passes are made, so
/// the iterators must be `Clone`; both passes visit elements in the same
/// order as the slice version, keeping the result bit-identical to it.
///
/// # Panics
///
/// Panics if the curves have different lengths or are empty.
pub fn curve_distance_iter(
    a: impl Iterator<Item = f64> + Clone,
    b: impl Iterator<Item = f64> + Clone,
) -> f64 {
    let scale = a
        .clone()
        .chain(b.clone())
        .fold(0.0f64, |m, x| m.max(x.abs()));
    let (mut sum, mut n) = (0.0f64, 0usize);
    let (mut ia, mut ib) = (a, b);
    loop {
        match (ia.next(), ib.next()) {
            (Some(x), Some(y)) => {
                sum += (x - y).abs();
                n += 1;
            }
            (None, None) => break,
            #[expect(
                clippy::panic,
                reason = "mismatched grids are a caller bug; the documented panic mirrors the slice API's assert"
            )]
            _ => panic!("curves must share a grid"),
        }
    }
    assert!(n > 0, "curves must be non-empty");
    if scale <= 0.0 {
        return 0.0;
    }
    sum / n as f64 / scale
}

/// The two-sample Kolmogorov–Smirnov statistic, `max_x |F(x) − G(x)|`.
///
/// Provided as the alternative distribution distance the paper mentions
/// (Sec. III-C cites Kolmogorov–Smirnov as a viable alternative to EMD);
/// the `ablation_distance` bench compares search quality under both.
///
/// Like [`emd_area`], this is a merge walk over the two pre-sorted sample
/// arrays: allocation-free, one pass, and bit-identical to the
/// evaluate-at-every-sample reference [`ks_statistic_naive`] (the candidate
/// values at duplicate samples repeat, and `|·|` maps every candidate to a
/// non-negative with `+0.0` sign, so the running `max` is order-insensitive).
pub fn ks_statistic(a: &Ecdf, b: &Ecdf) -> f64 {
    let xs_a = a.samples();
    let xs_b = b.samples();
    let (n, m) = (xs_a.len() as f64, xs_b.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    loop {
        let x = match (xs_a.get(i), xs_b.get(j)) {
            (Some(&u), Some(&v)) => u.min(v),
            (Some(&u), None) => u,
            (None, Some(&v)) => v,
            (None, None) => break,
        };
        while i < xs_a.len() && xs_a[i] == x {
            i += 1;
        }
        while j < xs_b.len() && xs_b[j] == x {
            j += 1;
        }
        d = d.max(((i as f64 / n) - (j as f64 / m)).abs());
    }
    d
}

/// Reference implementation of [`ks_statistic`]: evaluate both CDFs by
/// binary search at every sample of both distributions and take the largest
/// gap. Kept as the oracle for the 0-ULP equivalence property test; the hot
/// path uses the merge walk.
pub fn ks_statistic_naive(a: &Ecdf, b: &Ecdf) -> f64 {
    let mut d: f64 = 0.0;
    for &x in a.samples().iter().chain(b.samples()) {
        d = d.max((a.eval(x) - b.eval(x)).abs());
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ecdf(v: &[f64]) -> Ecdf {
        Ecdf::new(v.to_vec()).unwrap()
    }

    #[test]
    fn identical_distributions_have_zero_emd() {
        let a = ecdf(&[1.0, 2.0, 3.0]);
        assert_eq!(emd_area(&a, &a), 0.0);
        assert_eq!(emd_normalized(&a, &a), 0.0);
        assert_eq!(ks_statistic(&a, &a), 0.0);
    }

    #[test]
    fn point_masses_distance_is_separation() {
        let a = ecdf(&[0.0]);
        let b = ecdf(&[3.0]);
        assert!((emd_area(&a, &b) - 3.0).abs() < 1e-12);
        // Normalized by max(|3|) = 3 -> 1.0, the maximum possible.
        assert!((emd_normalized(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn emd_is_symmetric() {
        let a = ecdf(&[0.0, 1.0, 2.0, 7.0]);
        let b = ecdf(&[0.5, 0.5, 3.0]);
        assert!((emd_area(&a, &b) - emd_area(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn shifted_uniform_emd_equals_shift() {
        let a: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let b: Vec<f64> = a.iter().map(|x| x + 0.5).collect();
        let d = emd_area(&ecdf(&a), &ecdf(&b));
        assert!((d - 0.5).abs() < 1e-9, "d = {d}");
    }

    #[test]
    fn triangle_inequality_holds_on_examples() {
        let a = ecdf(&[0.0, 1.0]);
        let b = ecdf(&[2.0, 3.0]);
        let c = ecdf(&[1.0, 2.0]);
        let ab = emd_area(&a, &b);
        let ac = emd_area(&a, &c);
        let cb = emd_area(&c, &b);
        assert!(ab <= ac + cb + 1e-12);
    }

    #[test]
    fn normalized_emd_in_unit_interval() {
        let a = ecdf(&[0.0, 5.0, 10.0]);
        let b = ecdf(&[1.0, 2.0, 9.0]);
        let d = emd_normalized(&a, &b);
        assert!((0.0..=1.0).contains(&d), "d = {d}");
    }

    #[test]
    fn all_zero_distributions_are_identical() {
        let a = ecdf(&[0.0, 0.0]);
        let b = ecdf(&[0.0]);
        assert_eq!(emd_normalized(&a, &b), 0.0);
    }

    #[test]
    fn curve_distance_basics() {
        assert_eq!(curve_distance(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        let d = curve_distance(&[0.0, 0.0], &[1.0, 1.0]);
        assert!((d - 1.0).abs() < 1e-12);
        let d = curve_distance(&[2.0, 2.0], &[1.0, 1.0]);
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "curves must share a grid")]
    fn curve_distance_mismatched_lengths_panics() {
        curve_distance(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn ks_statistic_disjoint_is_one() {
        let a = ecdf(&[0.0, 1.0]);
        let b = ecdf(&[10.0, 11.0]);
        assert!((ks_statistic(&a, &b) - 1.0).abs() < 1e-12);
    }
}
