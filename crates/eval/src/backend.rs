//! Backend selection for the batch evaluator: `Auto` resolves per batch
//! on its width.

use crate::kernel::LANES;

/// Which Eq. 1 / Eq. 2 kernel a batch evaluation uses.
///
/// Both backends produce bit-identical results (see the crate docs for
/// the argument), so this is purely a throughput knob — safe to expose
/// on every config without a correctness caveat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalBackend {
    /// Resolve per batch: [`Simd`](EvalBackend::Simd) when the batch is
    /// at least [`LANES`] rows wide, [`Scalar`](EvalBackend::Scalar)
    /// otherwise. The default everywhere.
    #[default]
    Auto,
    /// The reference row-at-a-time kernel.
    Scalar,
    /// The lane kernel: [`LANES`] samples per pass over a transposed
    /// assignment buffer, with a scalar tail for the remainder rows.
    Simd,
}

impl EvalBackend {
    /// Batch width (rows) below which `Auto` stays scalar: one full
    /// lane group. Narrower batches would run entirely in the lane
    /// kernel's scalar tail anyway.
    pub const AUTO_MIN_ROWS: usize = LANES;

    /// Collapse `Auto` for a batch of `rows` samples.
    pub fn for_rows(self, rows: usize) -> EvalBackend {
        match self {
            EvalBackend::Auto => {
                if rows >= Self::AUTO_MIN_ROWS {
                    EvalBackend::Simd
                } else {
                    EvalBackend::Scalar
                }
            }
            pinned => pinned,
        }
    }

    /// Parse a CLI / wire value (`auto` | `scalar` | `simd`).
    pub fn parse(name: &str) -> Option<EvalBackend> {
        match name {
            "auto" => Some(EvalBackend::Auto),
            "scalar" => Some(EvalBackend::Scalar),
            "simd" => Some(EvalBackend::Simd),
            _ => None,
        }
    }

    /// The canonical lowercase name (`parse`'s inverse).
    pub fn as_str(self) -> &'static str {
        match self {
            EvalBackend::Auto => "auto",
            EvalBackend::Scalar => "scalar",
            EvalBackend::Simd => "simd",
        }
    }
}

impl std::fmt::Display for EvalBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_on_batch_width() {
        assert_eq!(
            EvalBackend::Auto.for_rows(LANES),
            EvalBackend::Simd,
            "a full lane group is wide enough"
        );
        assert_eq!(EvalBackend::Auto.for_rows(LANES - 1), EvalBackend::Scalar);
        assert_eq!(EvalBackend::Auto.for_rows(0), EvalBackend::Scalar);
        assert_eq!(EvalBackend::Auto.for_rows(10_000), EvalBackend::Simd);
    }

    #[test]
    fn pinned_backends_ignore_batch_width() {
        assert_eq!(EvalBackend::Scalar.for_rows(10_000), EvalBackend::Scalar);
        assert_eq!(EvalBackend::Simd.for_rows(1), EvalBackend::Simd);
    }

    #[test]
    fn parse_round_trips_every_variant() {
        for b in [EvalBackend::Auto, EvalBackend::Scalar, EvalBackend::Simd] {
            assert_eq!(EvalBackend::parse(b.as_str()), Some(b));
            assert_eq!(format!("{b}"), b.as_str());
        }
        assert_eq!(EvalBackend::parse("avx512"), None);
        assert_eq!(EvalBackend::parse(""), None);
    }
}
