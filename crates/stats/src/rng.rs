//! Deterministic pseudo-random number generation.
//!
//! Datamime's search, workload generation, and simulators must be exactly
//! reproducible from a seed, so this crate ships its own small, fast PRNG
//! ([`Rng`], a xoshiro256\*\* generator seeded through SplitMix64) instead of
//! depending on an external crate whose stream could change across versions.
//!
//! # Examples
//!
//! ```
//! use datamime_stats::Rng;
//!
//! let mut rng = Rng::with_seed(42);
//! let x = rng.f64(); // uniform in [0, 1)
//! assert!((0.0..1.0).contains(&x));
//! let mut rng2 = Rng::with_seed(42);
//! assert_eq!(rng.state_digest() != rng2.state_digest(), true);
//! ```

/// A deterministic xoshiro256\*\* pseudo-random number generator.
///
/// The generator is seeded via SplitMix64 so that any `u64` seed yields a
/// well-mixed initial state. Two generators created with the same seed
/// produce identical streams on every platform.
///
/// # Examples
///
/// ```
/// use datamime_stats::Rng;
/// let mut a = Rng::with_seed(7);
/// let mut b = Rng::with_seed(7);
/// assert_eq!(a.u64(), b.u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn with_seed(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child generator for a named sub-stream.
    ///
    /// Useful for giving each component of a simulation its own stream so
    /// that adding draws in one component does not perturb another.
    ///
    /// # Examples
    ///
    /// ```
    /// use datamime_stats::Rng;
    /// let mut root = Rng::with_seed(1);
    /// let mut caches = root.fork("caches");
    /// let mut arrivals = root.fork("arrivals");
    /// assert_ne!(caches.u64(), arrivals.u64());
    /// ```
    pub fn fork(&mut self, label: &str) -> Rng {
        // An FNV-1a-shaped hash of the label, mixed with a fresh draw from
        // the parent. The multiplier is 0x1000_0000_01b3, not FNV's prime
        // 0x100_0000_01b3; it stays, because every forked stream, and so
        // every committed result, is seeded through it.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Rng::with_seed(h ^ self.u64())
    }

    /// Returns the next raw 64-bit output.
    #[inline]
    pub fn u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `u64` in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let mut x = self.u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let t = bound.wrapping_neg() % bound;
            while lo < t {
                x = self.u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Returns a uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        let span = (hi - lo) as u64 + 1;
        lo + self.below(span) as i64
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid range"
        );
        lo + (hi - lo) * self.f64()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Returns an order-insensitive digest of the internal state, for tests.
    pub fn state_digest(&self) -> u64 {
        self.s[0]
            ^ self.s[1].rotate_left(16)
            ^ self.s[2].rotate_left(32)
            ^ self.s[3].rotate_left(48)
    }
}

impl Default for Rng {
    /// Equivalent to `Rng::with_seed(0)`.
    fn default() -> Self {
        Rng::with_seed(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::with_seed(123);
        let mut b = Rng::with_seed(123);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::with_seed(1);
        let mut b = Rng::with_seed(2);
        let matches = (0..16).filter(|_| a.u64() == b.u64()).count();
        assert!(matches < 2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::with_seed(9);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Rng::with_seed(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_bounds_and_covers() {
        let mut r = Rng::with_seed(11);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x = r.below(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_panics() {
        Rng::with_seed(0).below(0);
    }

    #[test]
    fn range_i64_inclusive() {
        let mut r = Rng::with_seed(3);
        let mut hit_lo = false;
        let mut hit_hi = false;
        for _ in 0..2000 {
            let x = r.range_i64(-2, 2);
            assert!((-2..=2).contains(&x));
            hit_lo |= x == -2;
            hit_hi |= x == 2;
        }
        assert!(hit_lo && hit_hi);
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let mut a = Rng::with_seed(77);
        let mut b = Rng::with_seed(77);
        let mut fa = a.fork("x");
        let mut fb = b.fork("x");
        assert_eq!(fa.u64(), fb.u64());
        let mut fc = a.fork("y");
        assert_ne!(fa.u64(), fc.u64());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::with_seed(8);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }
}
