//! GA variation operators (paper Figure 6), on flat gene slices.

use crate::engine::MutationOp;
use rand::Rng;

/// Single-point crossover with duplicate repair (Figure 6a), writing the
/// child of `parent1 × parent2` into `child` (all three of length `n`).
///
/// 1. Copy the first half of `parent1` onto the child.
/// 2. For each second-half position, take `parent2`'s gene at that
///    position; "if any of the genes of the second half of the second
///    parent causes a duplicate mapping, choose (in order) a gene from
///    the first half of the second parent that does not cause a
///    duplicate". A final fallback over all of `parent2` covers the
///    odd-length corner case where the first half alone cannot supply a
///    fresh gene.
///
/// The operator is deterministic given the parents. `used` is
/// caller-owned scratch, cleared and resized here, so the engine's
/// per-worker buffers make a crossover allocation-free.
pub fn crossover_into(
    parent1: &[usize],
    parent2: &[usize],
    child: &mut [usize],
    used: &mut Vec<bool>,
) {
    let n = parent1.len();
    debug_assert_eq!(n, parent2.len());
    debug_assert_eq!(n, child.len());
    used.clear();
    used.resize(n, false);
    let half = n / 2;
    for r in 0..half {
        let g = parent1[r];
        child[r] = g;
        used[g] = true;
    }
    for r in half..n {
        let candidate = parent2[r];
        let gene = if !used[candidate] {
            candidate
        } else {
            // In-order scan of parent2's first half…
            parent2[..half]
                .iter()
                .copied()
                .find(|&g| !used[g])
                // …falling back to any unused gene of parent2 (odd n).
                .unwrap_or_else(|| {
                    parent2
                        .iter()
                        .copied()
                        .find(|&g| !used[g])
                        .expect("some gene is unused")
                })
        };
        child[r] = gene;
        used[gene] = true;
    }
}

/// Mutate `genes` in place and return the number of transpositions made.
///
/// * [`MutationOp::Swap`] — per-gene swap (Figure 6b): each gene
///   independently mutates with probability `p`, exchanging its value
///   with a uniformly chosen position — the standard
///   permutation-preserving reading of a "mutation operator applied on
///   each gene based on the mutation probability".
/// * [`MutationOp::Inversion`] — with probability `p`, reverse a random
///   segment, as a sequence of outside-in swaps.
///
/// Every transposition is reported as `on_swap(a, b)` with the two genes
/// (tasks) it exchanged, so the engine can mirror it into delta-updated
/// per-resource loads instead of re-evaluating the child.
pub fn mutate_in_place<R: Rng + ?Sized>(
    op: MutationOp,
    p: f64,
    genes: &mut [usize],
    rng: &mut R,
    mut on_swap: impl FnMut(usize, usize),
) -> u64 {
    let n = genes.len();
    let mut swaps = 0u64;
    if n < 2 {
        return swaps;
    }
    let mut swap = |genes: &mut [usize], i: usize, j: usize| {
        on_swap(genes[i], genes[j]);
        genes.swap(i, j);
        swaps += 1;
    };
    match op {
        MutationOp::Swap => {
            for i in 0..n {
                if rng.random::<f64>() < p {
                    let j = rng.random_range(0..n);
                    if i != j {
                        swap(genes, i, j);
                    }
                }
            }
        }
        MutationOp::Inversion => {
            if rng.random::<f64>() < p {
                let a = rng.random_range(0..n);
                let b = rng.random_range(0..n);
                let (mut lo, mut hi) = if a <= b { (a, b) } else { (b, a) };
                while lo < hi {
                    swap(genes, lo, hi);
                    lo += 1;
                    hi -= 1;
                }
            }
        }
    }
    swaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_rngutil::perm::{is_permutation, random_permutation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn child_of(a: &[usize], b: &[usize]) -> Vec<usize> {
        let mut child = vec![usize::MAX; a.len()];
        crossover_into(a, b, &mut child, &mut Vec::new());
        child
    }

    #[test]
    fn crossover_yields_permutations() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1, 2, 3, 7, 8, 15, 20] {
            for _ in 0..50 {
                let a = random_permutation(n, &mut rng);
                let b = random_permutation(n, &mut rng);
                let child = child_of(&a, &b);
                assert!(is_permutation(&child), "n={n}");
            }
        }
    }

    #[test]
    fn crossover_copies_first_half_of_parent1() {
        let child = child_of(&[3, 1, 4, 0, 2, 5], &[5, 4, 3, 2, 1, 0]);
        assert_eq!(&child[..3], &[3, 1, 4]);
    }

    #[test]
    fn crossover_prefers_parent2_second_half_genes() {
        // a = [0,1,2,3]; b = [1,0,3,2]. Child first half [0,1].
        // Position 2: b[2]=3 not used -> 3. Position 3: b[3]=2 -> 2.
        assert_eq!(child_of(&[0, 1, 2, 3], &[1, 0, 3, 2]), [0, 1, 3, 2]);
    }

    #[test]
    fn crossover_repairs_duplicates_from_first_half_in_order() {
        // Child first half = [0,1]. Position 2: b[2] = 0 → duplicate;
        // scan b's first half in order: b[0] = 2 unused → take 2.
        // Position 3: b[3] = 3 unused → 3.
        assert_eq!(child_of(&[0, 1, 2, 3], &[2, 1, 0, 3]), [0, 1, 2, 3]);
    }

    #[test]
    fn identical_parents_reproduce_themselves() {
        let a = [4, 2, 0, 1, 3];
        assert_eq!(child_of(&a, &a), a);
    }

    #[test]
    fn mutation_preserves_permutations() {
        let mut rng = StdRng::seed_from_u64(16);
        for op in [MutationOp::Swap, MutationOp::Inversion] {
            for _ in 0..100 {
                let mut genes = random_permutation(12, &mut rng);
                mutate_in_place(op, 0.5, &mut genes, &mut rng, |_, _| {});
                assert!(is_permutation(&genes), "{op:?}");
            }
        }
    }

    #[test]
    fn zero_probability_never_mutates() {
        let mut rng = StdRng::seed_from_u64(17);
        for op in [MutationOp::Swap, MutationOp::Inversion] {
            let mut genes = random_permutation(10, &mut rng);
            let before = genes.clone();
            let swaps = mutate_in_place(op, 0.0, &mut genes, &mut rng, |_, _| {});
            assert_eq!(swaps, 0);
            assert_eq!(genes, before, "{op:?}");
        }
    }

    #[test]
    fn high_probability_usually_changes() {
        let mut rng = StdRng::seed_from_u64(18);
        let mut changed = 0;
        for _ in 0..50 {
            let mut genes = random_permutation(10, &mut rng);
            let before = genes.clone();
            mutate_in_place(MutationOp::Swap, 1.0, &mut genes, &mut rng, |_, _| {});
            if genes != before {
                changed += 1;
            }
        }
        assert!(changed > 40, "only {changed}/50 mutated");
    }

    #[test]
    fn reported_swaps_replay_the_mutation() {
        // The delta-cost path sees only the reported transpositions, so
        // replaying them on the parent must reproduce the child.
        let mut rng = StdRng::seed_from_u64(20);
        for op in [MutationOp::Swap, MutationOp::Inversion] {
            for _ in 0..100 {
                let mut genes = random_permutation(9, &mut rng);
                let mut replay = genes.clone();
                let mut seen = 0u64;
                let swaps = mutate_in_place(op, 0.7, &mut genes, &mut rng, |a, b| {
                    let i = replay.iter().position(|&g| g == a).unwrap();
                    let j = replay.iter().position(|&g| g == b).unwrap();
                    replay.swap(i, j);
                    seen += 1;
                });
                assert_eq!(swaps, seen);
                assert_eq!(replay, genes, "{op:?}");
            }
        }
    }

    #[test]
    fn tiny_chromosomes_survive_mutation() {
        let mut rng = StdRng::seed_from_u64(19);
        for op in [MutationOp::Swap, MutationOp::Inversion] {
            let mut genes = vec![0];
            mutate_in_place(op, 1.0, &mut genes, &mut rng, |_, _| {});
            assert_eq!(genes, [0]);
            let mut genes: Vec<usize> = Vec::new();
            mutate_in_place(op, 1.0, &mut genes, &mut rng, |_, _| {});
            assert!(genes.is_empty());
        }
    }
}
