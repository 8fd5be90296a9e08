//! A small data-parallel substrate for the MaTCH reproduction.
//!
//! MaTCH evaluates `N = 2|V_r|²` sampled mappings per iteration — for the
//! paper's largest configuration that is 5 000 objective evaluations per
//! iteration, each O(|V| + |E|), repeated over hundreds of iterations.
//! The evaluations are embarrassingly parallel, so the CE loop (and the
//! GA's generation loop) fan them out through this crate.
//!
//! The crate deliberately implements one fork/join shape itself rather
//! than pulling a full work-stealing runtime:
//!
//! * [`scope_map`] — chunked `parallel_map` and the fused row fills
//!   (`parallel_fill_rows*`) over an index range using `crossbeam`'s
//!   scoped threads; zero setup cost per call site, borrows allowed.
//! * [`chunk`] — the chunk-partitioning policy.
//!
//! All APIs are deterministic in their *results* (outputs land at their
//! input's index) though of course not in execution order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod scope_map;

pub use chunk::{chunk_ranges, ChunkPolicy};
pub use scope_map::{
    parallel_fill, parallel_fill_rows, parallel_fill_rows_chunked, parallel_map, parallel_map_init,
    ChunkTiming,
};

/// Number of worker threads to use by default: the machine's available
/// parallelism, capped at 16 (the experiment harness saturates memory
/// bandwidth well before that).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}
