//! Property-based tests for the parallel substrate: parallel results
//! must always equal their sequential counterparts.

use match_par::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn map_equals_sequential(len in 0usize..2000, threads in 0usize..12, mul in 1u64..1000) {
        let got = parallel_map(len, threads, |i| i as u64 * mul);
        let want: Vec<u64> = (0..len as u64).map(|i| i * mul).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn chunks_cover_exactly(len in 0usize..10_000, workers in 0usize..20, sz in 0usize..64) {
        for policy in [ChunkPolicy::PerWorker, ChunkPolicy::Fixed(sz), ChunkPolicy::OverSubscribe(sz)] {
            let ranges = chunk_ranges(len, workers, policy);
            let mut next = 0usize;
            for r in &ranges {
                prop_assert_eq!(r.start, next);
                prop_assert!(r.end > r.start);
                next = r.end;
            }
            prop_assert_eq!(next, len);
        }
    }
}
