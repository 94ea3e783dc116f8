//! The segment-floor estimator and the small statistics around it.
//!
//! A deterministic unit of work is cut into segments at fixed points of
//! its own control flow and repeated `R` times. Host contention only ever
//! *adds* time to a segment, so the minimum of segment `k` over the
//! repeats converges on its undisturbed cost, and the sum of the segment
//! minima is the unit's floor wall. A burst of contention has to hit the
//! *same* segment in every repeat to survive, which is why this is far
//! steadier than the minimum over whole-unit walls.

/// Segment `k`'s floor: the minimum of segment `k` over all repeats.
///
/// Every repeat of a deterministic unit produces the same number of
/// segments; a mismatch means the repeats did different work and is an
/// error, never a truncation to the shortest repeat.
pub fn segment_floors(repeats: &[Vec<f64>]) -> Result<Vec<f64>, String> {
    let Some(first) = repeats.first() else {
        return Err("no repeats to take a floor over".to_string());
    };
    for (r, segments) in repeats.iter().enumerate() {
        if segments.len() != first.len() {
            return Err(format!(
                "repeat {r} has {} segments, repeat 0 has {}",
                segments.len(),
                first.len()
            ));
        }
    }
    Ok((0..first.len())
        .map(|k| {
            repeats
                .iter()
                .map(|segments| segments[k])
                .fold(f64::INFINITY, f64::min)
        })
        .collect())
}

/// The `q`-quantile (`0.0..=1.0`) with linear interpolation between the
/// two nearest order statistics; `0.0` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median; `0.0` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The arithmetic mean; `0.0` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// FNV-1a over 64-bit words: the history checksum. Two runs with the same
/// checksum observed the same `(unit bits, error bits)` sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in, byte by byte.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds one observation in: every unit coordinate, then the error.
    pub fn observation(&mut self, unit: &[f64], error: f64) {
        for u in unit {
            self.word(u.to_bits());
        }
        self.word(error.to_bits());
    }

    /// The checksum so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// How many setup samples to take before repeat `r` of `repeats` so that
/// `total` samples are spread evenly across the run, some before every
/// repeat.
pub fn setup_samples_before(r: usize, repeats: usize, total: usize) -> usize {
    let total = total.max(repeats);
    total / repeats + usize::from(r < total % repeats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic generator for injected noise.
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn floor_recovers_the_clean_sum_under_positive_noise() {
        let clean: Vec<f64> = (0..40).map(|k| 0.010 + 0.001 * (k % 7) as f64).collect();
        let clean_sum: f64 = clean.iter().sum();
        let mut state = 7;
        let repeats: Vec<Vec<f64>> = (0..6)
            .map(|r| {
                clean
                    .iter()
                    .enumerate()
                    .map(|(k, c)| {
                        // Every repeat is disturbed in 3 of 4 segments, by
                        // up to 8x; each segment is clean in some repeat.
                        if (k + r) % 4 == 0 {
                            *c
                        } else {
                            c * (1.0 + 7.0 * lcg(&mut state))
                        }
                    })
                    .collect()
            })
            .collect();
        let raw_best = repeats
            .iter()
            .map(|s| s.iter().sum::<f64>())
            .fold(f64::INFINITY, f64::min);
        let floors = segment_floors(&repeats).unwrap();
        let floor_sum: f64 = floors.iter().sum();
        assert!(
            (floor_sum - clean_sum).abs() < 1e-12,
            "{floor_sum} vs {clean_sum}"
        );
        assert!(
            raw_best > 2.0 * clean_sum,
            "the whole-unit minimum stays inflated"
        );
    }

    #[test]
    fn mismatched_segment_counts_are_an_error() {
        let err = segment_floors(&[vec![1.0, 2.0, 3.0], vec![1.0, 2.0]]).unwrap_err();
        assert!(err.contains("repeat 1 has 2 segments"), "{err}");
        assert!(segment_floors(&[]).is_err());
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&v), 2.5);
    }

    #[test]
    fn checksum_sees_every_bit_and_the_order() {
        let sum = |obs: &[(&[f64], f64)]| {
            let mut h = Fnv::default();
            for (u, e) in obs {
                h.observation(u, *e);
            }
            h.finish()
        };
        let a = sum(&[(&[0.25, 0.5], 1.0), (&[0.75, 0.1], 2.0)]);
        assert_eq!(a, sum(&[(&[0.25, 0.5], 1.0), (&[0.75, 0.1], 2.0)]));
        assert_ne!(a, sum(&[(&[0.75, 0.1], 2.0), (&[0.25, 0.5], 1.0)]));
        assert_ne!(
            a,
            sum(&[
                (&[0.25, 0.5], 1.0),
                (&[0.75, 0.1], 2.0 + f64::EPSILON * 2.0)
            ])
        );
        assert_ne!(sum(&[(&[0.0], 1.0)]), sum(&[(&[-0.0], 1.0)]));
    }

    #[test]
    fn setup_samples_cover_every_repeat_and_sum_to_the_total() {
        for repeats in 1..=9 {
            let counts: Vec<usize> = (0..repeats)
                .map(|r| setup_samples_before(r, repeats, 16))
                .collect();
            assert_eq!(counts.iter().sum::<usize>(), 16.max(repeats), "{counts:?}");
            assert!(counts.iter().all(|c| *c >= 1), "{counts:?}");
            let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
            assert!(spread <= 1, "{counts:?}");
        }
    }
}
