//! Vose's alias method: O(1) sampling from a fixed discrete distribution
//! after O(n) preprocessing.
//!
//! A cumulative roulette wheel costs O(log n) per spin; when one distribution is
//! sampled very many times (e.g. drawing the GA's mating pool from a
//! fitness vector, GenPerm drawing a whole CE batch from one frozen
//! stochastic matrix, or workload generators drawing thousands of
//! grid-point counts), the alias table is the asymptotically optimal
//! tool. [`AliasTable::rebuild`] refreshes a table in place without
//! allocating, so per-iteration rebuilds (the CE matrix changes between
//! iterations but not within one) stay off the allocator.

use rand::RngCore;

use crate::index::split_index;

/// A preprocessed alias table over `n` outcomes.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
    // Worklist scratch for `rebuild`; drained (empty) between builds so
    // it does not affect Clone/Debug semantics.
    small: Vec<usize>,
    large: Vec<usize>,
}

impl AliasTable {
    /// Build a table from (unnormalised) `weights`.
    ///
    /// Negative and non-finite weights are clamped to zero. Returns `None`
    /// when the slice is empty or no weight is positive.
    pub fn new(weights: &[f64]) -> Option<Self> {
        let mut table = AliasTable::empty();
        table.rebuild(weights).then_some(table)
    }

    /// An empty table (no outcomes; [`AliasTable::sample`] must not be
    /// called until a successful [`AliasTable::rebuild`]). Useful for
    /// preallocating a collection of tables that are rebuilt per batch.
    pub fn empty() -> Self {
        AliasTable {
            prob: Vec::new(),
            alias: Vec::new(),
            small: Vec::new(),
            large: Vec::new(),
        }
    }

    /// Rebuild the table in place from (unnormalised) `weights`, reusing
    /// every internal allocation.
    ///
    /// Negative and non-finite weights are clamped to zero. Returns
    /// `false` — leaving the table empty — when the slice is empty or no
    /// weight is positive.
    pub fn rebuild(&mut self, weights: &[f64]) -> bool {
        let n = weights.len();
        let prob = &mut self.prob;
        prob.clear();
        prob.extend(
            weights
                .iter()
                .map(|&w| if w.is_finite() && w > 0.0 { w } else { 0.0 }),
        );
        let total: f64 = prob.iter().sum();
        if n == 0 || total <= 0.0 {
            prob.clear();
            self.alias.clear();
            return false;
        }
        // Scale so the average cell is exactly 1. `prob` doubles as the
        // residual-mass array during the build: a cell's residual is
        // final once it leaves the worklists, which is exactly when its
        // `prob` entry stops being touched.
        let scale = n as f64 / total;
        for p in prob.iter_mut() {
            *p *= scale;
        }
        self.alias.clear();
        self.alias.resize(n, 0);
        self.small.clear();
        self.large.clear();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                self.small.push(i);
            } else {
                self.large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (self.small.last(), self.large.last()) {
            self.small.pop();
            self.large.pop();
            self.alias[s] = l;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                self.small.push(l);
            } else {
                self.large.push(l);
            }
        }
        // Leftovers are numerically 1.
        for &i in self.small.iter().chain(self.large.iter()) {
            prob[i] = 1.0;
            self.alias[i] = i;
        }
        self.small.clear();
        self.large.clear();
        true
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when the table has no outcomes (freshly [`AliasTable::empty`]
    /// or after a failed [`AliasTable::rebuild`]).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw one outcome index in O(1) from a single `u64`: the high
    /// word of `u · n` picks the cell and the low word, read as a 53-bit
    /// fraction, is the coin between the cell and its alias.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let (cell, low) = split_index(rng.next_u64(), self.prob.len());
        let coin = (low >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        // Both loads up front so the choice compiles to a select, not an
        // unpredictable branch.
        let alias = self.alias[cell];
        if coin < self.prob[cell] {
            cell
        } else {
            alias
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(AliasTable::new(&[]).is_none());
        assert!(AliasTable::new(&[0.0, 0.0]).is_none());
        assert!(AliasTable::new(&[-1.0, f64::NAN]).is_none());
    }

    #[test]
    fn uniform_weights_sample_uniformly() {
        let t = AliasTable::new(&[1.0; 5]).unwrap();
        assert_eq!(t.len(), 5);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 5];
        let n = 100_000;
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            let got = c as f64 / n as f64;
            assert!((got - 0.2).abs() < 0.01, "got {got}");
        }
    }

    #[test]
    fn skewed_weights_match_frequencies() {
        let weights = [0.5, 0.0, 8.0, 1.5];
        let t = AliasTable::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let mut counts = [0usize; 4];
        let n = 200_000;
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
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
    fn single_outcome_always_sampled() {
        let t = AliasTable::new(&[3.7]).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..1000 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    fn rebuild_matches_fresh_build() {
        // A reused table must be indistinguishable from a fresh one:
        // same prob/alias state, hence the same draws for the same RNG.
        let mut reused = AliasTable::new(&[1.0, 1.0]).unwrap();
        for weights in [
            vec![0.5, 0.0, 8.0, 1.5],
            vec![1.0; 7],
            vec![10.0, 1e-9],
            vec![0.2, 0.3, 0.5],
        ] {
            assert!(reused.rebuild(&weights));
            let fresh = AliasTable::new(&weights).unwrap();
            let mut a = StdRng::seed_from_u64(99);
            let mut b = StdRng::seed_from_u64(99);
            for _ in 0..500 {
                assert_eq!(reused.sample(&mut a), fresh.sample(&mut b));
            }
        }
    }

    #[test]
    fn rebuild_to_degenerate_empties_table() {
        let mut t = AliasTable::new(&[1.0, 2.0]).unwrap();
        assert!(!t.rebuild(&[0.0, 0.0]));
        assert!(t.is_empty());
        // And it recovers.
        assert!(t.rebuild(&[3.0]));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn matches_roulette_on_same_weights() {
        // Both samplers must approximate the same distribution.
        let weights = [2.0, 3.0, 5.0];
        let t = AliasTable::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(14);
        let n = 100_000;
        let mut alias_counts = [0usize; 3];
        for _ in 0..n {
            alias_counts[t.sample(&mut rng)] += 1;
        }
        let mut wheel_counts = [0usize; 3];
        for _ in 0..n {
            wheel_counts[crate::roulette::roulette_pick(&weights, &mut rng).unwrap()] += 1;
        }
        for i in 0..3 {
            let a = alias_counts[i] as f64 / n as f64;
            let w = wheel_counts[i] as f64 / n as f64;
            assert!((a - w).abs() < 0.015, "slot {i}: alias {a} vs wheel {w}");
        }
    }
}
