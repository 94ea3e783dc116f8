//! Property-based tests of the statistical core: these invariants protect
//! the error model the whole search relies on.

use datamime_stats::dist::{
    Categorical, Distribution, FromVariate, GeneralizedPareto, LogNormal, Normal, Uniform, Zipf,
};
use datamime_stats::emd::{
    curve_distance, curve_distance_iter, emd_area, emd_area_naive, emd_normalized, ks_statistic,
    ks_statistic_naive,
};
use datamime_stats::{Ecdf, Rng};
use proptest::prelude::*;

fn finite_samples(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..max_len)
}

fn nonneg_samples(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1e6, 1..max_len)
}

/// Samples with deliberate collisions: mixing a continuous range with small
/// integers makes duplicate values within one distribution — and exact ties
/// across the two distributions — common rather than measure-zero, which is
/// exactly where the merge-walk fast paths have to agree with the naive
/// evaluate-everywhere oracles.
fn tied_samples(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![-1e6f64..1e6, (-8i32..8).prop_map(f64::from)],
        1..max_len,
    )
}

/// Integer-valued samples: shifting them by an integer and scaling them
/// by a power of two is exact in `f64`, so metamorphic relations over
/// them can be asserted to the bit.
fn grid_samples(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((-1_000_000i32..1_000_000).prop_map(f64::from), 1..max_len)
}

/// Maps every sample through `x -> scale * x + shift`.
fn affine(xs: &[f64], scale: f64, shift: f64) -> Ecdf {
    Ecdf::new(xs.iter().map(|x| scale * x + shift).collect()).unwrap()
}

/// A size family with random valid parameters (`Uniform` with `lo == hi`
/// is the apps' `Fixed`), beside its one-pass sample formula as written
/// before the variate split, as an oracle independent of `map_variate`.
type Oracle = Box<dyn Fn(&mut Rng) -> f64>;

fn size_family() -> impl Strategy<Value = (Box<dyn FromVariate>, Oracle)> {
    fn box_muller(rng: &mut Rng) -> f64 {
        let u1 = 1.0 - rng.f64();
        let u2 = rng.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
    prop_oneof![
        (-1e3f64..1e3, 0.0f64..1e3).prop_map(|(mu, sigma)| {
            let d: Box<dyn FromVariate> = Box::new(Normal::new(mu, sigma).unwrap());
            let oracle: Oracle = Box::new(move |rng| mu + sigma * box_muller(rng));
            (d, oracle)
        }),
        (-2.0f64..14.0, 0.0f64..3.0).prop_map(|(mu, sigma)| {
            let d: Box<dyn FromVariate> = Box::new(LogNormal::new(mu, sigma).unwrap());
            let oracle: Oracle = Box::new(move |rng| (mu + sigma * box_muller(rng)).exp());
            (d, oracle)
        }),
        (
            -100.0f64..100.0,
            0.01f64..1e3,
            prop_oneof![Just(0.0), -0.5f64..1.0]
        )
            .prop_map(|(mu, sigma, xi)| {
                let d: Box<dyn FromVariate> =
                    Box::new(GeneralizedPareto::new(mu, sigma, xi).unwrap());
                let oracle: Oracle = Box::new(move |rng| {
                    let u = 1.0 - rng.f64();
                    if xi.abs() < 1e-12 {
                        mu - sigma * u.ln()
                    } else {
                        mu + sigma * (u.powf(-xi) - 1.0) / xi
                    }
                });
                (d, oracle)
            }),
        (-1e4f64..1e4, prop_oneof![Just(0.0), 0.0f64..1e4]).prop_map(|(lo, span)| {
            let d: Box<dyn FromVariate> = Box::new(Uniform::new(lo, lo + span).unwrap());
            let oracle: Oracle = Box::new(move |rng| rng.range_f64(lo, lo + span));
            (d, oracle)
        }),
    ]
}

proptest! {
    /// Every size family's sample is its formula over one variate: drawing
    /// the variate and mapping it later gives the very bits `sample` and
    /// the pre-split formula give, and leaves the stream where they do,
    /// `variate().draws()` outputs on.
    #[test]
    fn a_sample_is_its_formula_over_one_variate(
        (dist, oracle) in size_family(),
        seed in any::<u64>(),
        n in 1usize..16,
    ) {
        let (mut by_sample, mut by_variate, mut by_oracle) =
            (Rng::with_seed(seed), Rng::with_seed(seed), Rng::with_seed(seed));
        let mut counted = Rng::with_seed(seed);
        for _ in 0..n {
            let want = oracle(&mut by_oracle).to_bits();
            prop_assert_eq!(dist.sample(&mut by_sample).to_bits(), want);
            let v = dist.variate().draw(&mut by_variate);
            prop_assert_eq!(dist.map_variate(v).to_bits(), want);
            for _ in 0..dist.variate().draws() {
                counted.u64();
            }
        }
        let digest = by_oracle.state_digest();
        prop_assert_eq!(by_sample.state_digest(), digest);
        prop_assert_eq!(by_variate.state_digest(), digest);
        prop_assert_eq!(counted.state_digest(), digest);
    }

    /// EMD is the area between two CDFs: shifting both distributions
    /// leaves it unchanged, and scaling both by `s > 0` scales it by `s`.
    /// On the integer grid both relations are exact; KS, a rank
    /// statistic, is unchanged by either.
    #[test]
    fn emd_and_ks_shift_and_scale_exactly_on_the_grid(
        a in grid_samples(32),
        b in grid_samples(32),
        shift in -1_000_000i32..1_000_000,
        pow in -8i32..8,
    ) {
        let (ea, eb) = (Ecdf::new(a.clone()).unwrap(), Ecdf::new(b.clone()).unwrap());
        let (emd, ks) = (emd_area(&ea, &eb), ks_statistic(&ea, &eb));
        let shift = f64::from(shift);
        let (sa, sb) = (affine(&a, 1.0, shift), affine(&b, 1.0, shift));
        prop_assert_eq!(emd_area(&sa, &sb).to_bits(), emd.to_bits());
        prop_assert_eq!(ks_statistic(&sa, &sb).to_bits(), ks.to_bits());
        let scale = 2f64.powi(pow);
        let (ka, kb) = (affine(&a, scale, 0.0), affine(&b, scale, 0.0));
        prop_assert_eq!(emd_area(&ka, &kb).to_bits(), (scale * emd).to_bits());
        prop_assert_eq!(ks_statistic(&ka, &kb).to_bits(), ks.to_bits());
    }

    /// The same relations on arbitrary samples, where rounding allows a
    /// relative error; a negative scale mirrors both CDFs, which leaves
    /// EMD unchanged up to `|s|`.
    #[test]
    fn emd_shifts_and_scales_on_any_samples(
        a in finite_samples(32),
        b in finite_samples(32),
        shift in -1e6f64..1e6,
        scale in prop_oneof![0.01f64..100.0, -100.0f64..-0.01],
    ) {
        let emd = emd_area(&Ecdf::new(a.clone()).unwrap(), &Ecdf::new(b.clone()).unwrap());
        // The rounding of each shifted or scaled sample bounds the error.
        let slack = |magnitude: f64| 1e-9 * (1.0 + magnitude) * (a.len() + b.len()) as f64;
        let shifted = emd_area(&affine(&a, 1.0, shift), &affine(&b, 1.0, shift));
        prop_assert!((shifted - emd).abs() <= slack(shift.abs() + 1e6), "{} vs {}", shifted, emd);
        let scaled = emd_area(&affine(&a, scale, 0.0), &affine(&b, scale, 0.0));
        let want = scale.abs() * emd;
        prop_assert!((scaled - want).abs() <= slack(scale.abs() * 1e6), "{} vs {}", scaled, want);
    }

    #[test]
    fn ecdf_is_monotone_and_bounded(samples in finite_samples(64), probe in -1e6f64..1e6) {
        let e = Ecdf::new(samples).unwrap();
        let y = e.eval(probe);
        prop_assert!((0.0..=1.0).contains(&y));
        prop_assert!(e.eval(probe + 1.0) >= y);
        prop_assert_eq!(e.eval(e.max()), 1.0);
    }

    #[test]
    fn ecdf_quantiles_are_monotone(samples in finite_samples(64), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let e = Ecdf::new(samples).unwrap();
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(e.quantile(lo) <= e.quantile(hi));
    }

    #[test]
    fn emd_is_a_metric_on_samples(a in finite_samples(32), b in finite_samples(32), c in finite_samples(32)) {
        let (ea, eb, ec) = (Ecdf::new(a).unwrap(), Ecdf::new(b).unwrap(), Ecdf::new(c).unwrap());
        let ab = emd_area(&ea, &eb);
        // Symmetry.
        prop_assert!((ab - emd_area(&eb, &ea)).abs() < 1e-9 * (1.0 + ab));
        // Identity.
        prop_assert!(emd_area(&ea, &ea).abs() < 1e-9);
        // Non-negativity and triangle inequality.
        let ac = emd_area(&ea, &ec);
        let cb = emd_area(&ec, &eb);
        prop_assert!(ab >= 0.0);
        prop_assert!(ab <= ac + cb + 1e-6 * (1.0 + ab));
    }

    #[test]
    fn normalized_emd_bounded_for_nonnegative_metrics(a in nonneg_samples(32), b in nonneg_samples(32)) {
        let d = emd_normalized(&Ecdf::new(a).unwrap(), &Ecdf::new(b).unwrap());
        prop_assert!((0.0..=1.0 + 1e-9).contains(&d), "d = {d}");
    }

    #[test]
    fn ks_statistic_bounded(a in finite_samples(32), b in finite_samples(32)) {
        let d = ks_statistic(&Ecdf::new(a).unwrap(), &Ecdf::new(b).unwrap());
        prop_assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn curve_distance_symmetric_and_bounded(pairs in prop::collection::vec((0.0f64..1e3, 0.0f64..1e3), 1..16)) {
        let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let d = curve_distance(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&d));
        prop_assert!((d - curve_distance(&b, &a)).abs() < 1e-12);
    }

    /// The merge-walk `emd_area` must reproduce the naive merged-window
    /// integration bit for bit (0 ULP) — this is the gate that lets the
    /// search hot path use the allocation-free version while the definition
    /// stays readable in `emd_area_naive`.
    #[test]
    fn emd_merge_walk_matches_naive_to_the_bit(a in tied_samples(64), b in tied_samples(64)) {
        let (ea, eb) = (Ecdf::new(a).unwrap(), Ecdf::new(b).unwrap());
        prop_assert_eq!(emd_area(&ea, &eb).to_bits(), emd_area_naive(&ea, &eb).to_bits());
        prop_assert_eq!(emd_area(&eb, &ea).to_bits(), emd_area_naive(&eb, &ea).to_bits());
    }

    /// Same 0-ULP gate for the Kolmogorov–Smirnov merge walk.
    #[test]
    fn ks_merge_walk_matches_naive_to_the_bit(a in tied_samples(64), b in tied_samples(64)) {
        let (ea, eb) = (Ecdf::new(a).unwrap(), Ecdf::new(b).unwrap());
        prop_assert_eq!(ks_statistic(&ea, &eb).to_bits(), ks_statistic_naive(&ea, &eb).to_bits());
    }

    /// And for the iterator form of `curve_distance`, which the error model
    /// uses to compare curves straight off profile rows.
    #[test]
    fn curve_distance_iter_matches_slices_to_the_bit(
        pairs in prop::collection::vec((0.0f64..1e3, 0.0f64..1e3), 1..16),
    ) {
        let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let by_iter = curve_distance_iter(pairs.iter().map(|p| p.0), pairs.iter().map(|p| p.1));
        prop_assert_eq!(by_iter.to_bits(), curve_distance(&a, &b).to_bits());
    }

    #[test]
    fn rng_below_is_always_in_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = Rng::with_seed(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    #[test]
    fn rng_streams_are_reproducible(seed in any::<u64>()) {
        let mut a = Rng::with_seed(seed);
        let mut b = Rng::with_seed(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn normal_samples_are_finite(mu in -1e3f64..1e3, sigma in 0.0f64..1e3, seed in any::<u64>()) {
        let d = Normal::new(mu, sigma).unwrap();
        let mut rng = Rng::with_seed(seed);
        for _ in 0..64 {
            prop_assert!(d.sample(&mut rng).is_finite());
        }
    }

    #[test]
    fn zipf_ranks_in_range(n in 1usize..10_000, s in 0.0f64..2.0, seed in any::<u64>()) {
        let z = Zipf::new(n, s).unwrap();
        let mut rng = Rng::with_seed(seed);
        for _ in 0..64 {
            prop_assert!(z.sample_rank(&mut rng) < n);
        }
    }

    #[test]
    fn categorical_indices_in_range(weights in prop::collection::vec(0.0f64..100.0, 1..16), seed in any::<u64>()) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let c = Categorical::new(&weights).unwrap();
        let mut rng = Rng::with_seed(seed);
        for _ in 0..64 {
            prop_assert!(c.sample_index(&mut rng) < weights.len());
        }
    }

    #[test]
    fn shuffle_preserves_multiset(mut v in prop::collection::vec(0u32..100, 0..64), seed in any::<u64>()) {
        let mut sorted_before = v.clone();
        sorted_before.sort_unstable();
        Rng::with_seed(seed).shuffle(&mut v);
        v.sort_unstable();
        prop_assert_eq!(v, sorted_before);
    }
}
