//! Row-stochastic matrices — the CE parameter object for assignment
//! problems.
//!
//! §4: "By amalgamating these p_ij's we can get a stochastic matrix
//! P = (p_ij) … each of the rows … sum up to 1. This is because the sum
//! total probability of a task being mapped to any resource is obviously
//! 1." The matrix starts uniform (`p_ij = 1/|V_r|`, Figure 5 step 1) and
//! converges to a degenerate 0/1 matrix (Figure 3); row entropy tracks
//! that convergence quantitatively.

/// A dense row-major matrix whose rows are probability distributions.
///
/// ```
/// use match_ce::StochasticMatrix;
///
/// let mut p = StochasticMatrix::uniform(3, 3);
/// assert_eq!(p.get(0, 0), 1.0 / 3.0);
///
/// // Eq. 13 smoothing toward an elite-frequency matrix Q.
/// let q = StochasticMatrix::from_rows(3, 3, vec![
///     1.0, 0.0, 0.0,
///     0.0, 1.0, 0.0,
///     0.0, 0.0, 1.0,
/// ]);
/// p.smooth_toward(&q, 0.3);
/// assert!((p.get(0, 0) - (0.3 + 0.7 / 3.0)).abs() < 1e-12);
/// assert!(!p.is_degenerate(1e-6));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StochasticMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl StochasticMatrix {
    /// The uniform matrix: every entry `1 / cols` (Figure 5 step 1).
    pub fn uniform(rows: usize, cols: usize) -> Self {
        // A matrix without rows (an empty instance) needs no columns.
        assert!(cols > 0 || rows == 0, "a row needs at least one column");
        StochasticMatrix {
            rows,
            cols,
            data: vec![1.0 / cols as f64; rows * cols],
        }
    }

    /// Build from raw row-major data, normalising each row. Rows that
    /// sum to zero become uniform.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        assert!(cols > 0, "a row needs at least one column");
        let mut m = StochasticMatrix { rows, cols, data };
        m.normalize_rows();
        m
    }

    /// Build from raw row-major data **without** normalising. The
    /// caller asserts the rows are already stochastic — this is the
    /// trusted constructor the warm-start store uses to round-trip a
    /// converged matrix bit-exactly (`from_rows` would divide every
    /// row by its ≈1.0 sum and perturb the mantissas).
    pub fn from_raw(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        assert!(cols > 0, "a row needs at least one column");
        StochasticMatrix { rows, cols, data }
    }

    /// Warm-start seed: `α·prior + (1 − α)·uniform`, elementwise.
    ///
    /// Both addends are row-stochastic, so the mix is row-stochastic
    /// by construction — no renormalisation, which keeps `α = 0`
    /// **bit-identical** to [`StochasticMatrix::uniform`] (the cold
    /// path). `α` is clamped to `[0, 1]`.
    pub fn warm_seed(prior: &StochasticMatrix, alpha: f64) -> Self {
        let alpha = alpha.clamp(0.0, 1.0);
        if alpha <= 0.0 {
            return StochasticMatrix::uniform(prior.rows, prior.cols);
        }
        let u = 1.0 / prior.cols as f64;
        let data = prior
            .data
            .iter()
            .map(|&p| alpha * p + (1.0 - alpha) * u)
            .collect();
        StochasticMatrix {
            rows: prior.rows,
            cols: prior.cols,
            data,
        }
    }

    /// Number of rows (tasks).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (resources).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry `p_ij`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Overwrite entry `p_ij` (caller must re-normalise afterwards).
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Normalise every row to sum 1; all-zero rows become uniform.
    pub fn normalize_rows(&mut self) {
        let cols = self.cols;
        for i in 0..self.rows {
            let row = &mut self.data[i * cols..(i + 1) * cols];
            let sum: f64 = row.iter().sum();
            if sum > 0.0 && sum.is_finite() {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            } else {
                for v in row.iter_mut() {
                    *v = 1.0 / cols as f64;
                }
            }
        }
    }

    /// The maximal element of row `i` and its column: `(argmax, μ^i)`.
    /// This is the quantity the paper's stopping rule (Eq. 12) tracks.
    pub fn row_max(&self, i: usize) -> (usize, f64) {
        let row = self.row(i);
        let mut best = (0, row[0]);
        for (j, &v) in row.iter().enumerate().skip(1) {
            if v > best.1 {
                best = (j, v);
            }
        }
        best
    }

    /// Shannon entropy (nats) of row `i`; zero for a degenerate row.
    pub fn row_entropy(&self, i: usize) -> f64 {
        self.row(i)
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| -p * p.ln())
            .sum()
    }

    /// Mean row entropy — a scalar summary of Figure 3's convergence.
    pub fn mean_entropy(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        (0..self.rows).map(|i| self.row_entropy(i)).sum::<f64>() / self.rows as f64
    }

    /// True when every row has a single entry ≥ `1 - tol` ("degenerate
    /// matrix … each task maps to a unique resource with a probability
    /// of 1").
    pub fn is_degenerate(&self, tol: f64) -> bool {
        (0..self.rows).all(|i| self.row_max(i).1 >= 1.0 - tol)
    }

    /// The maximum-probability assignment: `argmax_j p_ij` per row.
    pub fn mode_assignment(&self) -> Vec<usize> {
        (0..self.rows).map(|i| self.row_max(i).0).collect()
    }

    /// Smoothed update (Eq. 13): `P ← ζ·Q + (1 − ζ)·P`.
    ///
    /// `ζ = 1` is the coarse (unsmoothed) update; the paper uses
    /// `ζ = 0.3` "to guard against premature convergence".
    pub fn smooth_toward(&mut self, q: &StochasticMatrix, zeta: f64) {
        assert_eq!(self.rows, q.rows, "row mismatch");
        assert_eq!(self.cols, q.cols, "col mismatch");
        assert!((0.0..=1.0).contains(&zeta), "zeta out of [0,1]");
        for (p, &qv) in self.data.iter_mut().zip(q.data.iter()) {
            *p = zeta * qv + (1.0 - zeta) * *p;
        }
    }

    /// Total-variation distance to `other`, averaged over rows — a
    /// convergence diagnostic.
    pub fn tv_distance(&self, other: &StochasticMatrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        if self.rows == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for i in 0..self.rows {
            let d: f64 = self
                .row(i)
                .iter()
                .zip(other.row(i))
                .map(|(a, b)| (a - b).abs())
                .sum();
            total += 0.5 * d;
        }
        total / self.rows as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn uniform_matrix_rows_sum_to_one() {
        let m = StochasticMatrix::uniform(4, 5);
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 5);
        for i in 0..4 {
            assert!(close(m.row(i).iter().sum::<f64>(), 1.0, 1e-12));
            assert!(close(m.get(i, 0), 0.2, 1e-12));
        }
    }

    #[test]
    fn from_rows_normalises() {
        let m = StochasticMatrix::from_rows(2, 2, vec![2.0, 2.0, 0.0, 0.0]);
        assert!(close(m.get(0, 0), 0.5, 1e-12));
        // Zero row falls back to uniform.
        assert!(close(m.get(1, 0), 0.5, 1e-12));
        assert!(close(m.get(1, 1), 0.5, 1e-12));
    }

    #[test]
    fn row_max_and_mode() {
        let m = StochasticMatrix::from_rows(2, 3, vec![0.2, 0.5, 0.3, 0.9, 0.05, 0.05]);
        assert_eq!(m.row_max(0), (1, 0.5));
        assert_eq!(m.row_max(1).0, 0);
        assert_eq!(m.mode_assignment(), vec![1, 0]);
    }

    #[test]
    fn entropy_uniform_is_ln_n() {
        let m = StochasticMatrix::uniform(3, 8);
        assert!(close(m.row_entropy(0), (8.0f64).ln(), 1e-12));
        assert!(close(m.mean_entropy(), (8.0f64).ln(), 1e-12));
    }

    #[test]
    fn entropy_degenerate_is_zero() {
        let m = StochasticMatrix::from_rows(1, 4, vec![0.0, 1.0, 0.0, 0.0]);
        assert_eq!(m.row_entropy(0), 0.0);
        assert!(m.is_degenerate(1e-9));
    }

    #[test]
    fn degeneracy_detection() {
        let near = StochasticMatrix::from_rows(2, 2, vec![0.999, 0.001, 0.002, 0.998]);
        assert!(near.is_degenerate(0.01));
        assert!(!near.is_degenerate(1e-6));
        assert!(!StochasticMatrix::uniform(2, 2).is_degenerate(0.01));
    }

    #[test]
    fn smoothing_blends_linearly() {
        let mut p = StochasticMatrix::uniform(1, 2); // [0.5, 0.5]
        let q = StochasticMatrix::from_rows(1, 2, vec![1.0, 0.0]);
        p.smooth_toward(&q, 0.3);
        assert!(close(p.get(0, 0), 0.3 * 1.0 + 0.7 * 0.5, 1e-12));
        assert!(close(p.row(0).iter().sum::<f64>(), 1.0, 1e-12));
    }

    #[test]
    fn smoothing_zeta_one_copies_q() {
        let mut p = StochasticMatrix::uniform(2, 3);
        let q = StochasticMatrix::from_rows(2, 3, vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        p.smooth_toward(&q, 1.0);
        assert_eq!(p, q);
    }

    #[test]
    fn smoothing_zeta_zero_keeps_p() {
        let mut p = StochasticMatrix::uniform(2, 3);
        let before = p.clone();
        let q = StochasticMatrix::from_rows(2, 3, vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        p.smooth_toward(&q, 0.0);
        assert_eq!(p, before);
    }

    #[test]
    fn tv_distance_properties() {
        let a = StochasticMatrix::uniform(2, 2);
        let b = StochasticMatrix::from_rows(2, 2, vec![1.0, 0.0, 1.0, 0.0]);
        assert_eq!(a.tv_distance(&a), 0.0);
        assert!(close(a.tv_distance(&b), 0.5, 1e-12));
        assert!(close(a.tv_distance(&b), b.tv_distance(&a), 1e-15));
    }

    #[test]
    fn from_raw_does_not_normalise() {
        let data = vec![0.75, 0.25, 0.1 + 0.2, 0.7];
        let m = StochasticMatrix::from_raw(2, 2, data.clone());
        // Bit-exact round-trip: from_rows would divide by the ≈1.0 sum.
        for (got, want) in m.data().iter().zip(data.iter()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn warm_seed_alpha_zero_is_bitwise_uniform() {
        let prior = StochasticMatrix::from_rows(3, 3, vec![vec![1.0, 0.0, 0.0]; 3].concat());
        let seed = StochasticMatrix::warm_seed(&prior, 0.0);
        let uniform = StochasticMatrix::uniform(3, 3);
        for (a, b) in seed.data().iter().zip(uniform.data().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn warm_seed_mixes_toward_prior() {
        let prior = StochasticMatrix::from_rows(1, 2, vec![1.0, 0.0]);
        let seed = StochasticMatrix::warm_seed(&prior, 0.6);
        assert!(close(seed.get(0, 0), 0.6 * 1.0 + 0.4 * 0.5, 1e-12));
        assert!(close(seed.get(0, 1), 0.4 * 0.5, 1e-12));
        assert!(close(seed.row(0).iter().sum::<f64>(), 1.0, 1e-12));
        // α = 1 copies the prior exactly.
        let copy = StochasticMatrix::warm_seed(&prior, 1.0);
        assert_eq!(copy, prior);
    }

    #[test]
    #[should_panic]
    fn smooth_shape_mismatch_panics() {
        let mut p = StochasticMatrix::uniform(2, 2);
        let q = StochasticMatrix::uniform(2, 3);
        p.smooth_toward(&q, 0.5);
    }
}
