//! Property-based tests for the randomness helpers.

use match_rngutil::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn roulette_picks_only_positive_weights(
        weights in proptest::collection::vec(-1.0f64..10.0, 1..32),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        match roulette_pick(&weights, &mut rng) {
            Some(i) => prop_assert!(weights[i] > 0.0, "picked weight {}", weights[i]),
            None => prop_assert!(weights.iter().all(|&w| w <= 0.0 || w.is_nan() || !w.is_finite())),
        }
    }

    #[test]
    fn alias_picks_only_positive_weights(
        weights in proptest::collection::vec(0.0f64..10.0, 1..32),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Some(t) = AliasTable::new(&weights) {
            prop_assert_eq!(t.len(), weights.len());
            for _ in 0..32 {
                let i = t.sample(&mut rng);
                prop_assert!(weights[i] > 0.0, "alias picked zero-weight slot {}", i);
            }
        }
    }

    #[test]
    fn permutations_always_valid(n in 0usize..100, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_permutation(n, &mut rng);
        prop_assert!(perm::is_permutation(&p));
        if n > 0 {
            let q = perm::invert_permutation(&p);
            for i in 0..n {
                prop_assert_eq!(p[q[i]], i);
            }
        }
    }

    #[test]
    fn shuffle_preserves_multiset(mut xs in proptest::collection::vec(0u32..100, 0..50),
                                  seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut before = xs.clone();
        shuffle(&mut xs, &mut rng);
        before.sort_unstable();
        let mut after = xs;
        after.sort_unstable();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn seed_derivation_injective_in_practice(master in any::<u64>(), a in 0u64..5000, b in 0u64..5000) {
        prop_assume!(a != b);
        prop_assert_ne!(derive_seed(master, a), derive_seed(master, b));
    }

    #[test]
    fn child_sequences_reproducible(master in any::<u64>(), label in any::<u64>()) {
        let r = SeedSequence::new(master);
        let xs: Vec<u64> = {
            let mut c = r.child(label);
            (0..4).map(|_| c.next_seed()).collect()
        };
        let ys: Vec<u64> = {
            let mut c = r.child(label);
            (0..4).map(|_| c.next_seed()).collect()
        };
        prop_assert_eq!(xs, ys);
    }
}
