//! Roulette-wheel (fitness-proportional) selection.
//!
//! MaTCH's GenPerm allocates each task to a resource with probability
//! proportional to the task's row of the stochastic matrix (§5.2 likens
//! this to FastMap-GA's roulette-wheel parent selection, which draws
//! from an [`AliasTable`](crate::AliasTable) instead: one fitness vector,
//! many spins).

use rand::Rng;

/// Pick an index with probability proportional to `weights[i]`.
///
/// Non-finite or negative weights are treated as zero. Returns `None`
/// when the slice is empty or all weights are zero.
///
/// This is the one-shot O(n) form used inside GenPerm, where the row
/// distribution changes after every pick (columns are zeroed out), so no
/// precomputation can be amortised.
pub fn roulette_pick<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> Option<usize> {
    let total: f64 = weights
        .iter()
        .map(|&w| if w.is_finite() && w > 0.0 { w } else { 0.0 })
        .sum();
    if total <= 0.0 || weights.is_empty() {
        return None;
    }
    let mut target = rng.random::<f64>() * total;
    let mut last_positive = None;
    for (i, &w) in weights.iter().enumerate() {
        let w = if w.is_finite() && w > 0.0 { w } else { 0.0 };
        if w > 0.0 {
            last_positive = Some(i);
            if target < w {
                return Some(i);
            }
            target -= w;
        }
    }
    // Floating-point slack can leave `target` marginally past the last
    // positive weight; attribute it there.
    last_positive
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_and_zero_weights_yield_none() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(roulette_pick(&[], &mut rng), None);
        assert_eq!(roulette_pick(&[0.0, 0.0], &mut rng), None);
    }

    #[test]
    fn single_positive_weight_always_picked() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(roulette_pick(&[0.0, 3.0, 0.0], &mut rng), Some(1));
        }
    }

    #[test]
    fn frequencies_match_weights() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 4];
        let n = 100_000;
        for _ in 0..n {
            counts[roulette_pick(&weights, &mut rng).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = weights[i] / 10.0;
            let got = c as f64 / n as f64;
            assert!(
                (got - expected).abs() < 0.01,
                "slot {i}: got {got}, want {expected}"
            );
        }
    }

    #[test]
    fn negative_and_nan_weights_ignored() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let pick = roulette_pick(&[-5.0, f64::NAN, 2.0, f64::INFINITY], &mut rng);
            assert_eq!(pick, Some(2));
        }
    }
}
