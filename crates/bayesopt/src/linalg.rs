//! Minimal dense linear algebra for Gaussian-process regression.
//!
//! Only what a GP needs: a symmetric positive-definite solve via Cholesky
//! factorization, with forward/backward triangular substitution, in place
//! on caller-owned buffers.
//!
//! Matrices are **column-major** lower triangles: `a[j * n + i]` is
//! element `(i, j)` for `i ≥ j`, and nothing above the diagonal is read or
//! written. The layout is what makes the loops fast: factorising by column
//! and substituting forward by column axpy put the long loop over `i`,
//! contiguous in memory and independent from one `i` to the next, where
//! the row-ordered textbook form ([`crate::reference::Cholesky`]) runs a
//! single dependent chain of subtractions over `k` and retires one per
//! floating-point latency. Per *element* nothing changes — each `L(i, j)`,
//! each `z[i]` still receives exactly the same subtractions in the same
//! ascending-`k` order, so every result is bit-identical to the reference.

/// The matrix handed to [`Cholesky::factor`] was not (numerically)
/// positive definite.
#[derive(Debug, PartialEq, Eq)]
pub struct NotPositiveDefinite {
    /// Pivot index where factorization failed.
    pub pivot: usize,
}

/// The lower-triangular Cholesky factor `L` of a symmetric positive
/// definite matrix `A = L Lᵀ`, stored column-major: `lt[k * n + i]` is
/// `L(i, k)`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    n: usize,
    lt: Vec<f64>,
}

impl Cholesky {
    /// An `n × n` factor holding nothing yet: storage for
    /// [`factor`](Self::factor) to fill, as often as the caller likes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_dim(n: usize) -> Self {
        assert!(n > 0, "matrix dimension must be positive");
        Cholesky {
            n,
            lt: vec![0.0; n * n],
        }
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// `L(i, k)` for `i ≥ k`.
    #[cfg(test)]
    pub fn get(&self, i: usize, k: usize) -> f64 {
        self.lt[k * self.n + i]
    }

    /// Factorizes the matrix whose column-major lower triangle is `a`,
    /// replacing whatever factor was held.
    ///
    /// Left-looking by column: column `j` starts as `A(j.., j)` and
    /// receives `s[i] -= L(i, k) · L(j, k)` for `k = 0..j` in ascending
    /// `k` — per element the reference's subtraction sequence — with `k`
    /// taken four at a time so `s` is loaded and stored once per four
    /// columns (the four subtractions stay in order).
    ///
    /// # Errors
    ///
    /// Returns an error if `a` is not (numerically) positive definite; the
    /// factor held is then meaningless.
    pub fn factor(&mut self, a: &[f64]) -> Result<(), NotPositiveDefinite> {
        let n = self.n;
        assert_eq!(a.len(), n * n, "matrix dimension mismatch");
        for j in 0..n {
            let (done, rest) = self.lt.split_at_mut(j * n);
            let s = &mut rest[j..n];
            let m = s.len();
            s.copy_from_slice(&a[j * n + j..(j + 1) * n]);
            // Rows `j..n` of finished column `k`; `[0]` is `L(j, k)`.
            let col = |k: usize| &done[k * n + j..k * n + j + m];
            let mut k = 0;
            while k + 4 <= j {
                let (c0, c1, c2, c3) = (col(k), col(k + 1), col(k + 2), col(k + 3));
                let (l0, l1, l2, l3) = (c0[0], c1[0], c2[0], c3[0]);
                for i in 0..m {
                    s[i] = (((s[i] - c0[i] * l0) - c1[i] * l1) - c2[i] * l2) - c3[i] * l3;
                }
                k += 4;
            }
            for k in k..j {
                let c = col(k);
                let l = c[0];
                for (si, ci) in s.iter_mut().zip(c) {
                    *si -= ci * l;
                }
            }
            let pivot = s[0];
            if pivot <= 0.0 || !pivot.is_finite() {
                return Err(NotPositiveDefinite { pivot: j });
            }
            let d = pivot.sqrt();
            s[0] = d;
            for si in &mut s[1..] {
                *si /= d;
            }
        }
        Ok(())
    }

    /// Solves `L z = b` in place (forward substitution).
    ///
    /// By column: once `z[k]` is final, `z[i] -= L(i, k) · z[k]` for every
    /// `i > k` — each `z[i]` sees its subtractions in ascending `k`, as in
    /// the reference's row form.
    pub fn solve_lower_in_place(&self, b: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs length mismatch");
        for k in 0..n {
            let col = &self.lt[k * n + k..(k + 1) * n];
            let (zk, below) = b[k..]
                .split_first_mut()
                .expect("k < n, so the tail is non-empty");
            *zk /= col[0];
            for (bi, li) in below.iter_mut().zip(&col[1..]) {
                *bi -= li * *zk;
            }
        }
    }

    /// Solves `Lᵀ x = z` in place (backward substitution).
    ///
    /// Stays a per-row dot product in ascending `k`: the column form would
    /// subtract in descending `k`, a different rounding sequence. Row `i`
    /// of `Lᵀ` is column `i` of `L`, contiguous in this layout.
    pub fn solve_upper_in_place(&self, z: &mut [f64]) {
        let n = self.n;
        assert_eq!(z.len(), n, "rhs length mismatch");
        for i in (0..n).rev() {
            let col = &self.lt[i * n + i..(i + 1) * n];
            let (xi, above) = z[i..]
                .split_first_mut()
                .expect("i < n, so the tail is non-empty");
            let mut sum = *xi;
            for (lk, xk) in col[1..].iter().zip(above.iter()) {
                sum -= lk * xk;
            }
            *xi = sum / col[0];
        }
    }

    /// `log det A = 2 Σ log Lᵢᵢ`.
    pub fn log_determinant(&self) -> f64 {
        (0..self.n)
            .map(|i| self.lt[i * self.n + i].ln())
            .sum::<f64>()
            * 2.0
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Column-major storage of a symmetric matrix given by rows.
    fn from_rows(rows: &[&[f64]]) -> Vec<f64> {
        let n = rows.len();
        let mut a = vec![0.0; n * n];
        for (i, r) in rows.iter().enumerate() {
            for (j, &v) in r.iter().enumerate() {
                a[j * n + i] = v;
            }
        }
        a
    }

    fn factor(a: &[f64], n: usize) -> Result<Cholesky, NotPositiveDefinite> {
        let mut c = Cholesky::with_dim(n);
        c.factor(a).map(|()| c)
    }

    fn solve(c: &Cholesky, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        c.solve_lower_in_place(&mut x);
        c.solve_upper_in_place(&mut x);
        x
    }

    #[test]
    fn cholesky_of_identity() {
        let a = from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        let c = factor(&a, 3).unwrap();
        assert_eq!(solve(&c, &[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
        assert!((c.log_determinant()).abs() < 1e-12);
    }

    #[test]
    fn cholesky_known_factor() {
        // A = [[4, 2], [2, 3]] -> L = [[2, 0], [1, sqrt(2)]].
        let a = from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let c = factor(&a, 2).unwrap();
        assert_eq!((c.get(0, 0), c.get(1, 0)), (2.0, 1.0));
        assert!((c.get(1, 1) - 2.0f64.sqrt()).abs() < 1e-15);
        let x = solve(&c, &[8.0, 7.0]); // A x = b -> x = [1.25, 1.5]
        assert!((x[0] - 1.25).abs() < 1e-12, "{x:?}");
        assert!((x[1] - 1.5).abs() < 1e-12);
        // det A = 8.
        assert!((c.log_determinant() - 8.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn solve_roundtrip_random_spd() {
        use datamime_stats::Rng;
        let n = 12;
        let mut rng = Rng::with_seed(3);
        // Build SPD as B Bᵀ + n I.
        let b: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..n).map(|_| rng.f64() - 0.5).collect())
            .collect();
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                a[j * n + i] = dot(&b[i], &b[j]);
            }
            a[i * n + i] += n as f64;
        }
        let c = factor(&a, n).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let rhs: Vec<f64> = (0..n)
            .map(|i| (0..n).map(|j| a[j * n + i] * x_true[j]).sum())
            .collect();
        let x = solve(&c, &rhs);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    #[test]
    fn non_spd_is_rejected() {
        let a = from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert_eq!(factor(&a, 2).unwrap_err(), NotPositiveDefinite { pivot: 1 });
    }

    #[test]
    fn a_workspace_refactorises() {
        // The hyperparameter fit factorises hundreds of matrices into one
        // `Cholesky`; nothing of an earlier (or failed) factor may survive.
        let mut c = Cholesky::with_dim(2);
        assert!(c.factor(&from_rows(&[&[1.0, 2.0], &[2.0, 1.0]])).is_err());
        c.factor(&from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])).unwrap();
        assert_eq!((c.get(0, 0), c.get(1, 0)), (2.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_panics() {
        Cholesky::with_dim(0);
    }
}
