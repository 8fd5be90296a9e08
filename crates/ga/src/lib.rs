//! FastMap-GA — the genetic-algorithm baseline of the paper (§5.1).
//!
//! The paper compares MaTCH against the GA component of the authors'
//! earlier FastMap scheme (reference 16), re-implemented here from the §5.1
//! description:
//!
//! * **Encoding** — permutation encoding: a chromosome is a string of
//!   length `|V_r|`, indexed by resource, whose values are TIG nodes
//!   ([`chromosome`]).
//! * **Fitness** — `Ψ(M) = K / Exec(M)` (reciprocal makespan scaled by a
//!   constant `K`; roulette selection is scale-invariant, so `K` only
//!   matters for reporting).
//! * **Selection** — roulette wheel over fitness.
//! * **Crossover** — single-point with duplicate repair from the second
//!   parent's first half (Figure 6a), probability 0.85.
//! * **Mutation** — per-gene swap (Figure 6b), probability 0.07.
//! * **Elitism** — the best individual survives unconditionally.
//! * **Termination** — a fixed, configured number of generations (the
//!   paper: "based on an arbitrary, predefined number of runs").
//!
//! The paper's three configurations are provided as constructors:
//! [`GaConfig::paper_default`] (500/1000), [`GaConfig::anova_100_10000`]
//! and [`GaConfig::anova_1000_1000`].
//!
//! One generation loop ([`batch`]) produces the populations: flat reused
//! `population × n` buffers with parallel fan-out that is bit-identical
//! for every thread count, alias-method roulette, and O(degree)
//! delta-cost mutation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod chromosome;
pub mod engine;
pub mod operators;
pub mod variants;

pub use chromosome::Chromosome;
pub use engine::{CrossoverOp, FastMapGa, GaConfig, GaOutcome, MutationOp, SelectionOp};
