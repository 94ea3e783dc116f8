//! Trajectory goldens: the resume contract of the optimiser.
//!
//! A resumed search does not store suggestions — `Executor::run`
//! regenerates them from the seed and the journalled observations and
//! refuses the journal (`ResumeMismatch`) when a regenerated point differs
//! from the recorded one. A journal written by an older binary therefore
//! resumes only if this crate still produces, bit for bit, the suggestion
//! sequence that binary produced. The values below were recorded at
//! fe6805c, before the GP core went column-major; any change to the
//! arithmetic of the kernel, the factorisation, the triangular solves, the
//! hyperparameter fit, the acquisition or the order of RNG draws moves
//! them. Each is an FNV-1a over `(x bits, y bits)` of the whole history,
//! in observation order.

use datamime_bayesopt::{Acquisition, BayesOpt, BlackBoxOptimizer, BoConfig, Kernel};

/// A smooth bowl with an off-centre minimum and one cross term; plain
/// arithmetic only, so the observations themselves never depend on libm.
fn objective(x: &[f64]) -> f64 {
    let bowl: f64 = x
        .iter()
        .enumerate()
        .map(|(d, v)| {
            let c = 0.2 + 0.6 * (d as f64 + 1.0) / (x.len() as f64 + 1.0);
            (d as f64 + 1.0) * (v - c) * (v - c)
        })
        .sum();
    bowl + 0.5 * x[0] * x[x.len() - 1]
}

fn history_fnv(opt: &BayesOpt) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (x, y) in opt.history() {
        for v in x {
            eat(v.to_bits());
        }
        eat(y.to_bits());
    }
    h
}

fn run_sequential(cfg: BoConfig, seed: u64, iters: usize, f: impl Fn(usize, &[f64]) -> f64) -> u64 {
    let mut bo = BayesOpt::new(cfg, seed);
    for i in 0..iters {
        let x = bo.suggest();
        let y = f(i, &x);
        bo.observe(x, y);
    }
    assert_eq!(bo.history().len(), iters);
    history_fnv(&bo)
}

#[test]
fn golden_dims4_90_iterations_cross_nine_hyperfits() {
    // 8 initial points, then a hyperparameter fit at n = 8, 18, …, 88.
    let fnv = run_sequential(BoConfig::for_dims(4), 4, 90, |_, x| objective(x));
    assert_eq!(fnv, 0x30aa_ddd0_8da2_421d);
}

#[test]
fn golden_dims10_60_iterations() {
    let fnv = run_sequential(BoConfig::for_dims(10), 10, 60, |_, x| objective(x));
    assert_eq!(fnv, 0xe56c_4102_3535_00d1);
}

#[test]
fn golden_dims3_batches_of_two_with_fantasies_pending_across_refits() {
    // One batch is always in flight: the next is suggested before the
    // previous is observed, so up to three constant-liar fantasies sit in
    // the training set and hyperparameter fits happen with lies pending.
    let mut bo = BayesOpt::new(BoConfig::for_dims(3), 3);
    let mut in_flight = bo.suggest_batch(2);
    for _ in 1..20 {
        let next = bo.suggest_batch(2);
        for x in std::mem::replace(&mut in_flight, next) {
            let y = objective(&x);
            bo.observe(x, y);
        }
    }
    for x in in_flight {
        let y = objective(&x);
        bo.observe(x, y);
    }
    assert_eq!(bo.history().len(), 40);
    assert_eq!(history_fnv(&bo), 0x023b_5328_ae67_5166);
}

#[test]
fn golden_lower_confidence_bound() {
    let mut cfg = BoConfig::for_dims(2);
    cfg.acquisition = Acquisition::LowerConfidenceBound;
    let fnv = run_sequential(cfg, 11, 35, |_, x| objective(x));
    assert_eq!(fnv, 0x8fde_9f3b_df80_9525);
}

#[test]
fn golden_squared_exponential_kernel() {
    let mut cfg = BoConfig::for_dims(3);
    cfg.kernel = Kernel::squared_exp(3, 0.3);
    let fnv = run_sequential(cfg, 7, 40, |_, x| objective(x));
    assert_eq!(fnv, 0xe734_3318_a5f2_644d);
}

#[test]
fn golden_non_finite_observations_take_the_penalty_path() {
    // Every fifth evaluation "fails"; the sanitised 1e6 outliers stretch
    // the standardisation and drive the jitter ladder.
    let fnv = run_sequential(BoConfig::for_dims(2), 5, 40, |i, x| match i % 15 {
        4 => f64::NAN,
        9 => f64::INFINITY,
        14 => f64::NEG_INFINITY,
        _ => objective(x),
    });
    assert_eq!(fnv, 0xb5cc_4d03_e8c6_4f89);
}
