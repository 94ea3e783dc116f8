//! Fast ≡ reference, to the bit.
//!
//! The column-major GP core reorders loops and reuses buffers but claims
//! to perform, per number, the operations of `datamime_bayesopt::reference`
//! (the row-ordered stack it replaced) in the same order. These properties
//! hold it to that at the public surface: marginal likelihoods, predictions,
//! fitted hyperparameters, RNG consumption and whole suggestion sequences
//! must be *identical*, not close. (Every entry of `L` and `α` is compared
//! the same way by the unit tests of `gp`, which can see them.)

use datamime_bayesopt::{
    reference, BayesOpt, BlackBoxOptimizer, BoConfig, GaussianProcess, GpError, Kernel,
    PENALTY_OBJECTIVE,
};
use datamime_stats::Rng;
use proptest::prelude::*;

/// A kernel of either family with log-uniform hyperparameters spanning the
/// hyperparameter fit's whole clamp range.
fn kernel(rng: &mut Rng, dims: usize, matern: bool) -> Kernel {
    let family = if matern {
        Kernel::matern52(dims, 1.0)
    } else {
        Kernel::squared_exp(dims, 1.0)
    };
    let lengthscales = (0..dims)
        .map(|_| 10f64.powf(rng.f64() * 6.0 - 3.0))
        .collect();
    family.with_params(10f64.powf(rng.f64() * 8.0 - 4.0), lengthscales)
}

/// `n` points in the unit cube, a few of them exact repeats of an earlier
/// one, with targets that include failed-evaluation penalties.
fn training_set(rng: &mut Rng, n: usize, dims: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut xs: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        let x = if i > 0 && rng.f64() < 0.1 {
            xs[rng.below(i as u64) as usize].clone()
        } else {
            (0..dims).map(|_| rng.f64()).collect()
        };
        xs.push(x);
    }
    let ys = xs
        .iter()
        .map(|x| {
            if rng.f64() < 0.1 {
                PENALTY_OBJECTIVE
            } else {
                x.iter().sum::<f64>() + rng.f64()
            }
        })
        .collect();
    (xs, ys)
}

fn bits((mean, var): (f64, f64)) -> (u64, u64) {
    (mean.to_bits(), var.to_bits())
}

/// Both fits fail alike, or both succeed with identical likelihoods and
/// identical predictions at `probes`.
fn assert_same_posterior(
    fast: Result<GaussianProcess, GpError>,
    slow: Result<reference::GaussianProcess, GpError>,
    probes: &[Vec<f64>],
) -> Result<(), String> {
    match (fast, slow) {
        (Err(f), Err(s)) => prop_assert_eq!(f, s),
        (Ok(f), Ok(s)) => {
            prop_assert_eq!(
                f.log_marginal_likelihood().to_bits(),
                s.log_marginal_likelihood().to_bits()
            );
            for p in probes {
                prop_assert_eq!(bits(f.predict(p)), bits(s.predict(p)), "at {:?}", p);
            }
        }
        (f, s) => prop_assert!(false, "fast {:?} but reference {:?}", f.err(), s.err()),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fit_and_predict_match_the_reference(
        seed in any::<u64>(),
        n in 1usize..=96,
        dims in 1usize..=10,
        matern in any::<bool>(),
        log_noise in -8.0f64..0.0,
    ) {
        let mut rng = Rng::with_seed(seed);
        let k = kernel(&mut rng, dims, matern);
        let noise = 10f64.powf(log_noise);
        let (xs, ys) = training_set(&mut rng, n, dims);
        // Probe fresh points and training points (zero distance) alike.
        let mut probes: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..dims).map(|_| rng.f64()).collect())
            .collect();
        probes.push(xs[0].clone());
        probes.push(xs[n - 1].clone());
        let fast = GaussianProcess::fit(k.clone(), noise, xs.clone(), ys.clone());
        let slow = reference::GaussianProcess::fit(k, noise, xs, ys);
        assert_same_posterior(fast, slow, &probes)?;
    }
}

proptest! {
    // Each case runs hundreds of fits on both sides.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn bayesopt_suggests_what_the_reference_suggests(
        seed in any::<u64>(),
        dims in 1usize..=5,
        batch in 1usize..=3,
        matern in any::<bool>(),
    ) {
        let mut cfg = BoConfig::for_dims(dims);
        cfg.refit_every = 5;
        if !matern {
            cfg.kernel = Kernel::squared_exp(dims, 0.3);
        }
        let mut fast = BayesOpt::new(cfg.clone(), seed);
        let mut slow = reference::BayesOpt::new(cfg, seed);
        let mut noise = Rng::with_seed(seed ^ 0x0b5e);
        // Batches leave fantasies pending across refits; a failed
        // evaluation now and then takes the penalty path.
        for _ in 0..18 / batch {
            let points = fast.suggest_batch(batch);
            prop_assert_eq!(&points, &slow.suggest_batch(batch));
            for x in points {
                let y = if noise.f64() < 0.1 {
                    f64::NAN
                } else {
                    x.iter().map(|v| (v - 0.4) * (v - 0.4)).sum::<f64>() + 0.01 * noise.f64()
                };
                fast.observe(x.clone(), y);
                slow.observe(x, y);
            }
        }
        prop_assert_eq!(fast.history(), slow.history());
    }

    #[test]
    fn fit_hyperparams_matches_the_reference_and_draws_as_much(
        seed in any::<u64>(),
        n in 1usize..=40,
        dims in 1usize..=6,
        matern in any::<bool>(),
    ) {
        let mut rng = Rng::with_seed(seed);
        let family = if matern {
            Kernel::matern52(dims, 0.3)
        } else {
            Kernel::squared_exp(dims, 0.3)
        };
        let (xs, ys) = training_set(&mut rng, n, dims);
        let (mut fast_rng, mut slow_rng) = (rng.clone(), rng);
        let fast = GaussianProcess::fit_hyperparams(family.clone(), xs.clone(), ys.clone(), &mut fast_rng);
        let slow = reference::GaussianProcess::fit_hyperparams(family, xs.clone(), ys, &mut slow_rng);
        if let (Ok(f), Ok(s)) = (&fast, &slow) {
            // `Kernel: PartialEq` compares the f64 parameters by value,
            // which for the finite, positive values a fit returns is by bit.
            prop_assert_eq!(f.kernel(), s.kernel());
            prop_assert_eq!(f.noise().to_bits(), s.noise().to_bits());
        }
        assert_same_posterior(fast, slow, &xs)?;
        prop_assert_eq!(fast_rng, slow_rng);
    }
}

#[test]
fn the_jitter_ladder_ends_alike_on_both() {
    // Exactly duplicated rows leave K singular but for its diagonal term,
    // and a large enough signal variance swallows the 1e-8 noise and the
    // low rungs of jitter whole (the unit tests of `gp` count the rungs
    // climbed): both sides must stop on the same rung — identical
    // posteriors — or, where one ulp of the variance exceeds all the
    // ladder adds, both give up.
    let xs = vec![vec![0.25, 0.5], vec![0.75, 0.1], vec![0.25, 0.5]];
    let ys = vec![1.0, 2.0, 1.5];
    let probes = [vec![0.25, 0.5], vec![0.6, 0.6]];
    let mut gave_up = 0;
    for log_variance in 4..=16 {
        let k = Kernel::matern52(2, 0.3).with_params(10f64.powi(log_variance), vec![0.3; 2]);
        let fast = GaussianProcess::fit(k.clone(), 1e-8, xs.clone(), ys.clone());
        let slow = reference::GaussianProcess::fit(k, 1e-8, xs.clone(), ys.clone());
        gave_up += usize::from(fast.is_err());
        assert_same_posterior(fast, slow, &probes).unwrap();
    }
    assert!((1..13).contains(&gave_up), "{gave_up} of 13 gave up");

    // Coordinates far enough apart that r² overflows: the Matérn entry is
    // ∞ · 0 = NaN and no amount of jitter repairs it.
    let xs = vec![vec![1e200], vec![-1e200], vec![0.5]];
    let k = Kernel::matern52(1, 1e-3);
    let fast = GaussianProcess::fit(k.clone(), 1e-8, xs.clone(), ys.clone());
    let slow = reference::GaussianProcess::fit(k, 1e-8, xs, ys);
    assert_eq!(fast.unwrap_err(), GpError::IllConditioned);
    assert_eq!(slow.unwrap_err(), GpError::IllConditioned);
}
