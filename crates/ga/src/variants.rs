//! GA operator variants beyond the paper's §5.1 choices.
//!
//! The paper fixes roulette selection and its single-point repair
//! crossover. These variants — standard in the permutation-GA
//! literature — let the ablation harness ask whether FastMap-GA's weak
//! showing is intrinsic to GAs or an artefact of its operators:
//!
//! * [`tournament_select`] — selection with adjustable pressure
//!   (roulette over `K/Exec` is notoriously flat when costs cluster).
//! * [`order_crossover_into`] — OX, the classic order-preserving
//!   permutation crossover.
//! * segment inversion, the 2-opt-style mutation, is
//!   [`MutationOp::Inversion`](crate::MutationOp::Inversion) in
//!   [`mutate_in_place`](crate::operators::mutate_in_place).

use rand::Rng;

/// Tournament selection: draw `k` competitors uniformly, return the
/// index with the lowest cost. Larger `k` = stronger selection
/// pressure.
pub fn tournament_select<R: Rng + ?Sized>(costs: &[f64], k: usize, rng: &mut R) -> usize {
    assert!(!costs.is_empty(), "empty population");
    let k = k.max(1);
    let mut best = rng.random_range(0..costs.len());
    for _ in 1..k {
        let challenger = rng.random_range(0..costs.len());
        if costs[challenger] < costs[best] {
            best = challenger;
        }
    }
    best
}

/// Order crossover (OX): copy a random slice of `parent1`, then fill
/// the remaining positions with `parent2`'s genes in `parent2`'s order.
/// Writes into caller-owned buffers (`child` is fully overwritten,
/// `used` is scratch).
pub fn order_crossover_into<R: Rng + ?Sized>(
    parent1: &[usize],
    parent2: &[usize],
    child: &mut [usize],
    used: &mut Vec<bool>,
    rng: &mut R,
) {
    let n = parent1.len();
    debug_assert_eq!(n, parent2.len());
    debug_assert_eq!(n, child.len());
    if n < 2 {
        child.copy_from_slice(parent1);
        return;
    }
    let a = rng.random_range(0..n);
    let b = rng.random_range(0..n);
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };

    used.clear();
    used.resize(n, false);
    #[allow(clippy::needless_range_loop)] // i indexes parent and child in lockstep
    for i in lo..=hi {
        let g = parent1[i];
        child[i] = g;
        used[g] = true;
    }
    // Fill from parent2 starting after the slice, wrapping around.
    let mut pos = (hi + 1) % n;
    for off in 0..n {
        let g = parent2[(hi + 1 + off) % n];
        if !used[g] {
            child[pos] = g;
            used[g] = true;
            pos = (pos + 1) % n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_rngutil::perm::{is_permutation, random_permutation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tournament_prefers_low_costs() {
        let costs = [100.0, 1.0, 50.0, 80.0];
        let mut rng = StdRng::seed_from_u64(1);
        let mut wins = [0usize; 4];
        for _ in 0..10_000 {
            wins[tournament_select(&costs, 3, &mut rng)] += 1;
        }
        assert!(wins[1] > wins[0]);
        assert!(wins[1] > wins[2]);
        assert!(wins[1] > wins[3]);
        // k = 3 of 4: the best wins P ≈ 1 − (3/4)³ ≈ 0.58.
        let f = wins[1] as f64 / 10_000.0;
        assert!((f - 0.578).abs() < 0.03, "best won {f}");
    }

    #[test]
    fn tournament_k1_is_uniform() {
        let costs = [5.0, 1.0, 3.0];
        let mut rng = StdRng::seed_from_u64(2);
        let mut wins = [0usize; 3];
        for _ in 0..30_000 {
            wins[tournament_select(&costs, 1, &mut rng)] += 1;
        }
        for &w in &wins {
            let f = w as f64 / 30_000.0;
            assert!((f - 1.0 / 3.0).abs() < 0.02);
        }
    }

    fn ox_child(a: &[usize], b: &[usize], rng: &mut StdRng) -> Vec<usize> {
        let mut child = vec![usize::MAX; a.len()];
        order_crossover_into(a, b, &mut child, &mut Vec::new(), rng);
        child
    }

    #[test]
    fn ox_yields_permutations() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [2usize, 3, 5, 10, 17] {
            for _ in 0..100 {
                let a = random_permutation(n, &mut rng);
                let b = random_permutation(n, &mut rng);
                let child = ox_child(&a, &b, &mut rng);
                assert!(is_permutation(&child), "n = {n}");
            }
        }
    }

    #[test]
    fn ox_preserves_slice_of_parent1() {
        // The copied slice is non-empty, so the child agrees with
        // parent1 somewhere — even against the reversed parent2.
        let mut rng = StdRng::seed_from_u64(4);
        let a = [0, 1, 2, 3, 4];
        let b = [4, 3, 2, 1, 0];
        for _ in 0..50 {
            let child = ox_child(&a, &b, &mut rng);
            assert!(
                (0..5).any(|i| child[i] == a[i]),
                "no trace of parent1: {child:?}"
            );
        }
    }

    #[test]
    fn tiny_chromosomes_safe() {
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(ox_child(&[0], &[0], &mut rng), [0]);
        assert!(ox_child(&[], &[], &mut rng).is_empty());
    }
}
