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
    // `used` only grows, so the first unused gene of each in-order scan
    // never moves backwards: one cursor per scan finds the same gene a
    // scan from index 0 would, in O(n) over the whole child.
    let (mut first_half, mut any) = (0, 0);
    for r in half..n {
        let candidate = parent2[r];
        let gene = if !used[candidate] {
            candidate
        } else {
            // In-order scan of parent2's first half…
            while first_half < half && used[parent2[first_half]] {
                first_half += 1;
            }
            if first_half < half {
                parent2[first_half]
            } else {
                // …falling back to any unused gene of parent2 (odd n).
                while used[parent2[any]] {
                    any += 1;
                }
                parent2[any]
            }
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
/// The draws depend only on `rng` and the length of `genes`, never on
/// costs, so the caller may score the child after mutation without
/// changing any stream.
pub fn mutate_in_place<R: Rng + ?Sized>(
    op: MutationOp,
    p: f64,
    genes: &mut [usize],
    rng: &mut R,
) -> u64 {
    let n = genes.len();
    let mut swaps = 0u64;
    if n < 2 {
        return swaps;
    }
    let mut swap = |genes: &mut [usize], i: usize, j: usize| {
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
                mutate_in_place(op, 0.5, &mut genes, &mut rng);
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
            let swaps = mutate_in_place(op, 0.0, &mut genes, &mut rng);
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
            mutate_in_place(MutationOp::Swap, 1.0, &mut genes, &mut rng);
            if genes != before {
                changed += 1;
            }
        }
        assert!(changed > 40, "only {changed}/50 mutated");
    }

    #[test]
    fn swap_count_matches_the_transpositions() {
        // The returned count feeds the `mutation_swaps` trace counter.
        // A permutation made of k transpositions has parity k mod 2 and
        // moves at most 2k positions.
        fn parity(perm: &[usize]) -> usize {
            let mut seen = vec![false; perm.len()];
            let mut odd = 0;
            for start in 0..perm.len() {
                let mut len = 0;
                let mut i = start;
                while !seen[i] {
                    seen[i] = true;
                    i = perm[i];
                    len += 1;
                }
                if len > 0 {
                    odd += len - 1;
                }
            }
            odd % 2
        }
        let mut rng = StdRng::seed_from_u64(20);
        for op in [MutationOp::Swap, MutationOp::Inversion] {
            for _ in 0..100 {
                let before = random_permutation(9, &mut rng);
                let mut genes = before.clone();
                let swaps = mutate_in_place(op, 0.7, &mut genes, &mut rng);
                let moved = before.iter().zip(&genes).filter(|(a, b)| a != b).count();
                assert!(moved as u64 <= 2 * swaps, "{op:?}");
                assert_eq!(
                    (parity(&before) + parity(&genes)) % 2,
                    (swaps % 2) as usize,
                    "{op:?}"
                );
            }
        }
    }

    #[test]
    fn tiny_chromosomes_survive_mutation() {
        let mut rng = StdRng::seed_from_u64(19);
        for op in [MutationOp::Swap, MutationOp::Inversion] {
            let mut genes = vec![0];
            mutate_in_place(op, 1.0, &mut genes, &mut rng);
            assert_eq!(genes, [0]);
            let mut genes: Vec<usize> = Vec::new();
            mutate_in_place(op, 1.0, &mut genes, &mut rng);
            assert!(genes.is_empty());
        }
    }
}
