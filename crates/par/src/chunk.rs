//! Chunk partitioning for parallel loops.
//!
//! The fork/join map splits an index range `0..len` into contiguous
//! chunks, one or more per worker. Objective
//! evaluations in MaTCH all cost roughly the same, so plain block
//! partitioning is near-optimal; a finer-grained policy is provided for
//! irregular workloads (e.g. simulating instances of mixed sizes).

/// How to split an index range across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChunkPolicy {
    /// One contiguous chunk per worker (minimal scheduling overhead;
    /// best for uniform work items).
    #[default]
    PerWorker,
    /// Fixed chunk size; more chunks than workers gives dynamic load
    /// balancing when items have irregular cost.
    Fixed(usize),
    /// Aim for roughly `factor` chunks per worker (e.g. 4 for mildly
    /// irregular items).
    OverSubscribe(usize),
}

/// Split `0..len` into contiguous non-empty ranges per `policy` for
/// `workers` workers. The ranges cover the input exactly, in order.
pub fn chunk_ranges(
    len: usize,
    workers: usize,
    policy: ChunkPolicy,
) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let workers = workers.max(1);
    let chunk_size = match policy {
        ChunkPolicy::PerWorker => len.div_ceil(workers),
        ChunkPolicy::Fixed(sz) => sz.max(1),
        ChunkPolicy::OverSubscribe(factor) => len.div_ceil(workers * factor.max(1)).max(1),
    };
    let mut out = Vec::with_capacity(len.div_ceil(chunk_size));
    let mut start = 0;
    while start < len {
        let end = (start + chunk_size).min(len);
        out.push(start..end);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers_exactly(ranges: &[std::ops::Range<usize>], len: usize) {
        let mut next = 0;
        for r in ranges {
            assert_eq!(r.start, next, "gap or overlap at {}", r.start);
            assert!(r.end > r.start, "empty chunk");
            next = r.end;
        }
        assert_eq!(next, len, "does not cover the whole range");
    }

    #[test]
    fn empty_range_no_chunks() {
        assert!(chunk_ranges(0, 4, ChunkPolicy::PerWorker).is_empty());
    }

    #[test]
    fn per_worker_gives_at_most_worker_chunks() {
        for len in [1, 5, 16, 17, 100] {
            for workers in [1, 3, 8] {
                let ranges = chunk_ranges(len, workers, ChunkPolicy::PerWorker);
                assert!(ranges.len() <= workers, "len={len} workers={workers}");
                covers_exactly(&ranges, len);
            }
        }
    }

    #[test]
    fn fixed_chunk_size_respected() {
        let ranges = chunk_ranges(10, 4, ChunkPolicy::Fixed(3));
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0], 0..3);
        assert_eq!(ranges[3], 9..10);
        covers_exactly(&ranges, 10);
    }

    #[test]
    fn fixed_zero_clamped_to_one() {
        let ranges = chunk_ranges(3, 2, ChunkPolicy::Fixed(0));
        assert_eq!(ranges.len(), 3);
        covers_exactly(&ranges, 3);
    }

    #[test]
    fn oversubscribe_produces_more_chunks() {
        let per_worker = chunk_ranges(100, 4, ChunkPolicy::PerWorker).len();
        let over = chunk_ranges(100, 4, ChunkPolicy::OverSubscribe(4)).len();
        assert!(over > per_worker);
        covers_exactly(&chunk_ranges(100, 4, ChunkPolicy::OverSubscribe(4)), 100);
    }

    #[test]
    fn zero_workers_clamped() {
        let ranges = chunk_ranges(7, 0, ChunkPolicy::PerWorker);
        covers_exactly(&ranges, 7);
    }

    #[test]
    fn single_item() {
        let ranges = chunk_ranges(1, 8, ChunkPolicy::OverSubscribe(4));
        assert_eq!(ranges, vec![0..1]);
    }
}
