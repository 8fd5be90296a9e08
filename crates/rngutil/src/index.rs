//! Uniform index draws by multiply-shift.
//!
//! `rng.random_range(0..n)` reduces a 64-bit word modulo the span; the
//! multiply-shift map takes the high word of `u · n` instead, which is
//! one widening multiply and no division. The map is not exactly
//! uniform: each index receives either `⌊2⁶⁴/n⌋` or `⌈2⁶⁴/n⌉` of the
//! 2⁶⁴ words, a relative bias below `n / 2⁶⁴` — far beneath anything a
//! sampling decision can observe. The low word of the same product is
//! left over and is itself close to uniform on `[0, 2⁶⁴)`, which lets
//! [`AliasTable::sample`](crate::AliasTable::sample) take its cell and
//! its coin from a single draw.

use rand::RngCore;

/// Split one 64-bit word into an index in `0..bound` (the high word of
/// `u · bound`) and the low word of the same product.
#[inline]
pub(crate) fn split_index(u: u64, bound: usize) -> (usize, u64) {
    let wide = u128::from(u) * bound as u128;
    ((wide >> 64) as usize, wide as u64)
}

/// A uniform index in `0..bound` from one `u64` draw, by multiply-shift.
///
/// `bound` must be at least 1.
#[inline]
pub fn uniform_index<R: RngCore + ?Sized>(rng: &mut R, bound: usize) -> usize {
    debug_assert!(bound >= 1, "uniform_index needs a non-empty range");
    split_index(rng.next_u64(), bound).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn extreme_words_stay_in_range() {
        for bound in [1usize, 2, 3, 7, 48, 1 << 20, usize::MAX] {
            assert_eq!(split_index(0, bound).0, 0);
            assert_eq!(split_index(u64::MAX, bound).0, bound - 1, "bound {bound}");
        }
    }

    #[test]
    fn bound_one_is_always_zero() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..1000 {
            assert_eq!(uniform_index(&mut rng, 1), 0);
        }
    }

    #[test]
    fn draws_are_uniform() {
        // Chi-square against the uniform law over 10 cells: 9 degrees of
        // freedom, so 40 is far in the tail (p ≈ 7e-6).
        let mut rng = StdRng::seed_from_u64(32);
        let bound = 10;
        let trials = 100_000;
        let mut counts = [0u64; 10];
        for _ in 0..trials {
            counts[uniform_index(&mut rng, bound)] += 1;
        }
        let expected = trials as f64 / bound as f64;
        let chi: f64 = counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum();
        assert!(chi < 40.0, "chi² = {chi}, counts {counts:?}");
    }

    #[test]
    fn low_word_is_a_fair_coin() {
        // The leftover low word drives the alias coin: its top bit must
        // be set about half the time whatever the index.
        let mut rng = StdRng::seed_from_u64(33);
        let trials = 100_000;
        let mut heads = [0u64; 3];
        let mut seen = [0u64; 3];
        for _ in 0..trials {
            let (i, low) = split_index(rng.next_u64(), 3);
            seen[i] += 1;
            heads[i] += low >> 63;
        }
        for i in 0..3 {
            let f = heads[i] as f64 / seen[i] as f64;
            assert!((f - 0.5).abs() < 0.015, "cell {i}: heads {f}");
        }
    }
}
