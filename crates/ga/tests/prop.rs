//! Property-based tests for the GA operators: every operator the
//! generation loop runs must preserve the permutation property for
//! arbitrary parents and seeds.

use match_ga::chromosome::Chromosome;
use match_ga::operators::{crossover_into, mutate_in_place};
use match_ga::variants::{order_crossover_into, tournament_select};
use match_ga::MutationOp;
use match_rngutil::perm::{is_permutation, random_permutation};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn genes(n: usize, seed: u64) -> Vec<usize> {
    random_permutation(n, &mut StdRng::seed_from_u64(seed))
}

proptest! {
    #[test]
    fn single_point_crossover_valid(n in 1usize..30, s1 in any::<u64>(), s2 in any::<u64>()) {
        let (a, b) = (genes(n, s1), genes(n, s2));
        let mut child = vec![usize::MAX; n];
        crossover_into(&a, &b, &mut child, &mut Vec::new());
        prop_assert!(is_permutation(&child));
        // First half always comes from parent 1.
        prop_assert_eq!(&child[..n / 2], &a[..n / 2]);
    }

    #[test]
    fn order_crossover_valid(n in 1usize..30, s1 in any::<u64>(), s2 in any::<u64>()) {
        let (a, b) = (genes(n, s1), genes(n, s2));
        let mut rng = StdRng::seed_from_u64(s1.wrapping_add(s2));
        let mut child = vec![usize::MAX; n];
        order_crossover_into(&a, &b, &mut child, &mut Vec::new(), &mut rng);
        prop_assert!(is_permutation(&child));
    }

    #[test]
    fn mutations_valid(n in 1usize..30, seed in any::<u64>(), p in 0.0f64..=1.0) {
        let mut g = genes(n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xAB);
        mutate_in_place(MutationOp::Swap, p, &mut g, &mut rng, |_, _| {});
        prop_assert!(is_permutation(&g));
        mutate_in_place(MutationOp::Inversion, p, &mut g, &mut rng, |_, _| {});
        prop_assert!(is_permutation(&g));
    }

    #[test]
    fn tournament_in_range(len in 1usize..50, k in 1usize..10, seed in any::<u64>()) {
        let costs: Vec<f64> = (0..len).map(|i| (i as f64 * 13.7) % 97.0).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let winner = tournament_select(&costs, k, &mut rng);
        prop_assert!(winner < len);
    }

    #[test]
    fn chromosome_mapping_roundtrip(n in 0usize..40, seed in any::<u64>()) {
        let c = Chromosome::new(genes(n, seed));
        let m = c.to_mapping();
        prop_assert_eq!(Chromosome::from_mapping(&m), c);
    }
}
