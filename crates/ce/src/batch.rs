//! Flat-buffer batched sampling: the contract behind the fused parallel
//! sample+evaluate pipeline.
//!
//! [`CeModel::sample`](crate::model::CeModel::sample) heap-allocates one
//! `Vec` per draw, and the driver's classic loop draws all `N` samples on
//! the driver thread before evaluation starts. At the paper's budget of
//! `N = 2|V_r|²` GenPerm draws per iteration, sampling rivals evaluation
//! for wall-clock time and serialises the pipeline.
//!
//! [`FlatSampler`] removes both costs for models whose samples are
//! fixed-width `usize` rows (the permutation and assignment families):
//!
//! * the whole batch lands in **one flat `N × width` buffer** owned by
//!   the driver and reused across iterations — zero per-sample
//!   allocations;
//! * per-iteration **tables** (alias tables per matrix row) are built
//!   once per batch, amortising O(n) preprocessing over `N` draws that
//!   each spin a row's table a bounded number of times (GenPerm then
//!   finishes a row with an exact scan over the free columns only);
//! * per-worker **scratch** makes a single draw allocation-free, so the
//!   draw can run *inside* a `match-par` worker, fused with the
//!   evaluation of the same row.
//!
//! The driver entry point is
//! [`minimize_flat`](crate::driver::minimize_flat).

use rand::Rng;

use crate::model::CeModel;

/// A scored batch of fixed-width samples stored row-major in one flat
/// buffer: row `i` is `data[i * width .. (i + 1) * width]`.
#[derive(Debug, Clone, Copy)]
pub struct FlatBatch<'a> {
    width: usize,
    data: &'a [usize],
}

impl<'a> FlatBatch<'a> {
    /// Wrap a flat row-major buffer. `data.len()` must be a multiple of
    /// `width` (a zero `width` requires an empty buffer).
    pub fn new(width: usize, data: &'a [usize]) -> Self {
        if width == 0 {
            assert!(data.is_empty(), "zero-width batch must be empty");
        } else {
            assert_eq!(data.len() % width, 0, "data must be whole rows");
        }
        FlatBatch { width, data }
    }

    /// Entries per sample.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of samples in the batch.
    pub fn rows(&self) -> usize {
        self.data.len().checked_div(self.width).unwrap_or(0)
    }

    /// Sample `i` as a slice.
    pub fn row(&self, i: usize) -> &'a [usize] {
        &self.data[i * self.width..(i + 1) * self.width]
    }
}

/// Work counters of a rejection sampler, summed over the draws that
/// shared one scratch. For GenPerm, every row is placed either by an
/// accepted spin or by an exact scan, so `spins - rejections + scans`
/// is the number of rows drawn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrawStats {
    /// Alias-table spins, accepted or rejected.
    pub spins: u64,
    /// Spins that landed on a column an earlier row already took.
    pub rejections: u64,
    /// Rows placed by the exact restricted roulette over free columns.
    pub scans: u64,
    /// Exact scans whose free columns held no mass, so the pick was
    /// uniform among them.
    pub uniform_picks: u64,
}

impl DrawStats {
    /// Add `other` into `self`.
    pub fn add(&mut self, other: &DrawStats) {
        self.spins += other.spins;
        self.rejections += other.rejections;
        self.scans += other.scans;
        self.uniform_picks += other.uniform_picks;
    }

    /// True when no work was counted (e.g. a sampler without stats).
    pub fn is_empty(&self) -> bool {
        *self == DrawStats::default()
    }

    /// The counters under their trace names, as emitted per iteration
    /// by the flat CE driver.
    pub fn named(&self) -> [(&'static str, u64); 4] {
        [
            ("genperm_spins", self.spins),
            ("genperm_rejections", self.rejections),
            ("genperm_scans", self.scans),
            ("genperm_uniform_picks", self.uniform_picks),
        ]
    }
}

/// A [`CeModel`] that can draw fixed-width `usize` samples straight into
/// flat buffers, with batch-level preprocessing and reusable scratch —
/// everything the fused parallel sample+evaluate pipeline needs.
///
/// Determinism contract: [`FlatSampler::sample_flat`] must be a pure
/// function of `(self, tables, rng)` — scratch is reset at the start of
/// every draw and carries no state between draws except the
/// [`DrawStats`] counters, which never influence a draw — so a batch
/// drawn with per-sample RNGs derived from a single seed is identical
/// for every thread count and chunking, traced or not.
pub trait FlatSampler: CeModel<Sample = Vec<usize>> + Sync {
    /// Immutable per-batch sampling tables (e.g. one alias table per
    /// stochastic-matrix row), shared read-only across workers.
    type Tables: Send + Sync;
    /// Per-worker mutable scratch for a single draw.
    type Scratch: Send;

    /// Entries per sample (the flat buffer holds `N × width` values).
    fn width(&self) -> usize;

    /// Allocate empty tables, to be populated by
    /// [`FlatSampler::fill_tables`] before each batch.
    fn new_tables(&self) -> Self::Tables;

    /// Rebuild `tables` from the current model parameters, reusing their
    /// allocations. Called once per iteration: the parameters are frozen
    /// while a batch is drawn.
    fn fill_tables(&self, tables: &mut Self::Tables);

    /// Allocate scratch for one worker.
    fn new_scratch(&self) -> Self::Scratch;

    /// Draw one sample into `out` (`out.len() == self.width()`), using
    /// the precomputed `tables`. Must draw the same distribution as
    /// [`CeModel::sample`] (the RNG *stream* may differ — the islands
    /// drive this with a long-lived per-island `StdRng`, the fused
    /// pipeline with one cheap `match_rngutil::SplitMix64` per row).
    fn sample_flat<R: Rng + ?Sized>(
        &self,
        tables: &Self::Tables,
        scratch: &mut Self::Scratch,
        rng: &mut R,
        out: &mut [usize],
    );

    /// The [`DrawStats`] accumulated in `scratch` since the last call,
    /// resetting them to zero. Samplers without a rejection loop keep
    /// the default, which reports nothing.
    fn take_stats(&self, _scratch: &mut Self::Scratch) -> DrawStats {
        DrawStats::default()
    }

    /// [`CeModel::update_from_elites`] reading elite rows (given by index,
    /// in ascending-cost order) out of a flat batch instead of a slice of
    /// `Vec`s. Must tolerate an empty index slice (no-op).
    fn update_from_flat(&mut self, batch: &FlatBatch<'_>, elites: &[usize], zeta: f64);
}

/// Batch scoring of flat sample rows — the evaluation half of the fused
/// pipeline.
///
/// Where [`FlatSampler`] hands the driver whole-batch *production*,
/// `FlatEvaluator` hands it whole-chunk *scoring*: each `match-par`
/// worker calls [`FlatEvaluator::evaluate_rows`] once per chunk, so an
/// implementation can amortise per-call setup (a structure-of-arrays
/// transpose, lane buffers) across many rows instead of paying it per
/// sample. `match-core` plugs in its SIMD-style batch kernel here.
///
/// Determinism contract: evaluation must be a pure function of the rows
/// — same costs for any chunking of the same batch, bit-for-bit — so
/// the driver's outcome stays thread-count invariant.
pub trait FlatEvaluator: Sync {
    /// Per-worker mutable scratch (buffers reused across chunks).
    type Scratch: Send;

    /// Allocate scratch for one worker.
    fn new_scratch(&self) -> Self::Scratch;

    /// Score `costs.len()` rows stored row-major in `rows`
    /// (`rows.len() == costs.len() × width`), writing one cost per row.
    fn evaluate_rows(&self, rows: &[usize], costs: &mut [f64], scratch: &mut Self::Scratch);
}

/// Adapter lifting a per-row scoring closure to a [`FlatEvaluator`]
/// (no batch-level setup, so the chunk call is just a loop): wrap a
/// closure in it to drive [`minimize_flat`](crate::driver::minimize_flat).
pub struct RowEval<F>(pub F);

impl<F> FlatEvaluator for RowEval<F>
where
    F: Fn(&[usize]) -> f64 + Sync,
{
    type Scratch = ();

    fn new_scratch(&self) -> Self::Scratch {}

    fn evaluate_rows(&self, rows: &[usize], costs: &mut [f64], _scratch: &mut Self::Scratch) {
        if costs.is_empty() {
            return;
        }
        let width = rows.len() / costs.len();
        debug_assert_eq!(rows.len(), costs.len() * width);
        let mut rest = rows;
        for cost in costs.iter_mut() {
            let (row, tail) = rest.split_at(width);
            rest = tail;
            *cost = (self.0)(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_batch_indexing() {
        let data = vec![0usize, 1, 2, 3, 4, 5];
        let b = FlatBatch::new(3, &data);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.width(), 3);
        assert_eq!(b.row(0), &[0, 1, 2]);
        assert_eq!(b.row(1), &[3, 4, 5]);
    }

    #[test]
    fn zero_width_batch_is_empty() {
        let b = FlatBatch::new(0, &[]);
        assert_eq!(b.rows(), 0);
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn ragged_batch_rejected() {
        FlatBatch::new(4, &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn row_eval_scores_each_row() {
        let eval = RowEval(|row: &[usize]| row.iter().sum::<usize>() as f64);
        let rows = [1usize, 2, 3, 4, 5, 6];
        let mut costs = [0.0; 2];
        eval.evaluate_rows(&rows, &mut costs, &mut ());
        assert_eq!(costs, [6.0, 15.0]);
    }

    #[test]
    fn row_eval_handles_empty_batch() {
        let eval = RowEval(|_: &[usize]| 1.0);
        eval.evaluate_rows(&[], &mut [], &mut ());
    }
}
