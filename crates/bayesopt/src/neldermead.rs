//! Derivative-free Nelder–Mead simplex minimization, used to fit GP
//! hyperparameters (the marginal likelihood has no cheap exact gradient in
//! this implementation).

/// Minimizes `f` starting from `x0`, returning `(argmin, min)`.
///
/// `step` sets the initial simplex size; `max_iters` bounds the number of
/// reflection/expansion/contraction steps. Standard coefficients
/// (α=1, γ=2, ρ=0.5, σ=0.5) are used. `f` is `FnMut` so an objective can
/// own the workspace it evaluates in.
///
/// # Panics
///
/// Panics if `x0` is empty, or `step`/`max_iters` are not positive.
pub fn nelder_mead<F>(mut f: F, x0: &[f64], step: f64, max_iters: usize) -> (Vec<f64>, f64)
where
    F: FnMut(&[f64]) -> f64,
{
    assert!(!x0.is_empty(), "need at least one dimension");
    assert!(step > 0.0 && max_iters > 0, "invalid optimizer settings");
    let n = x0.len();
    // Initial simplex: x0 plus one perturbed vertex per dimension.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    simplex.push((x0.to_vec(), f(x0)));
    for d in 0..n {
        let mut x = x0.to_vec();
        x[d] += step;
        let fx = f(&x);
        simplex.push((x, fx));
    }

    for _ in 0..max_iters {
        simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let best = simplex[0].1;
        let worst = simplex[n].1;
        // Converged only when both the function spread and the simplex
        // extent are tiny (a symmetric simplex can have equal f values
        // while straddling the minimum).
        let extent: f64 = (0..n)
            .map(|d| {
                let lo = simplex
                    .iter()
                    .map(|(x, _)| x[d])
                    .fold(f64::INFINITY, f64::min);
                let hi = simplex
                    .iter()
                    .map(|(x, _)| x[d])
                    .fold(f64::NEG_INFINITY, f64::max);
                hi - lo
            })
            .fold(0.0, f64::max);
        if (worst - best).abs() < 1e-10 * (1.0 + best.abs()) && extent < 1e-8 {
            break;
        }
        // Centroid of all but the worst.
        let mut centroid = vec![0.0; n];
        for (x, _) in &simplex[..n] {
            for (c, xi) in centroid.iter_mut().zip(x) {
                *c += xi / n as f64;
            }
        }
        let worst_x = simplex[n].0.clone();
        let reflect: Vec<f64> = centroid
            .iter()
            .zip(&worst_x)
            .map(|(c, w)| c + (c - w))
            .collect();
        let fr = f(&reflect);

        if fr < simplex[0].1 {
            // Try expansion.
            let expand: Vec<f64> = centroid
                .iter()
                .zip(&worst_x)
                .map(|(c, w)| c + 2.0 * (c - w))
                .collect();
            let fe = f(&expand);
            simplex[n] = if fe < fr { (expand, fe) } else { (reflect, fr) };
        } else if fr < simplex[n - 1].1 {
            simplex[n] = (reflect, fr);
        } else {
            // Contraction.
            let contract: Vec<f64> = centroid
                .iter()
                .zip(&worst_x)
                .map(|(c, w)| c + 0.5 * (w - c))
                .collect();
            let fc = f(&contract);
            if fc < simplex[n].1 {
                simplex[n] = (contract, fc);
            } else {
                // Shrink toward the best vertex.
                let best_x = simplex[0].0.clone();
                for v in simplex.iter_mut().skip(1) {
                    let x: Vec<f64> = best_x
                        .iter()
                        .zip(&v.0)
                        .map(|(b, x)| b + 0.5 * (x - b))
                        .collect();
                    let fx = f(&x);
                    *v = (x, fx);
                }
            }
        }
    }
    simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    simplex.swap_remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2);
        let (x, fx) = nelder_mead(&f, &[0.0, 0.0], 1.0, 300);
        assert!((x[0] - 3.0).abs() < 1e-3, "{x:?}");
        assert!((x[1] + 1.0).abs() < 1e-3);
        assert!(fx < 1e-6);
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let (x, fx) = nelder_mead(&f, &[-1.2, 1.0], 0.5, 2000);
        assert!(fx < 1e-4, "f {fx} at {x:?}");
    }

    #[test]
    fn handles_one_dimension() {
        let f = |x: &[f64]| (x[0] - 0.25).powi(2);
        let (x, _) = nelder_mead(&f, &[5.0], 1.0, 200);
        assert!((x[0] - 0.25).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_start_panics() {
        nelder_mead(&|_: &[f64]| 0.0, &[], 1.0, 10);
    }
}
