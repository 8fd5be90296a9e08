//! Deterministic randomness helpers for the MaTCH reproduction.
//!
//! Every experiment in the paper is an average over repeated randomized
//! runs; to make the reproduction bit-for-bit repeatable, all stochastic
//! components (graph generation, GenPerm sampling, GA operators, …) draw
//! from seeded [`rand::rngs::StdRng`] instances derived through this
//! crate:
//!
//! * [`seed`] — SplitMix64-based derivation of independent sub-seeds from
//!   a single experiment master seed (one per graph instance, per run,
//!   per worker thread).
//! * [`roulette`] — one-shot fitness-proportional ("roulette wheel")
//!   picks, the restricted roulette MaTCH uses inside GenPerm (§5.2).
//! * [`alias`] — Vose's alias method for O(1) repeated draws from a fixed
//!   discrete distribution: GenPerm's per-row tables and FastMap-GA's
//!   roulette parent selection (§5.1).
//! * [`index`] — multiply-shift uniform indices, the one-`u64` draw
//!   behind the alias table and GenPerm's batched visit order.
//! * [`perm`] — uniform random permutations (Fisher–Yates), the random
//!   task visit order of GenPerm step 1 and the GA's initial population.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod index;
pub mod perm;
pub mod roulette;
pub mod seed;

pub use alias::AliasTable;
pub use index::uniform_index;
pub use perm::{random_permutation, shuffle};
pub use roulette::roulette_pick;
pub use seed::{derive_seed, derive_seed_str, rng_from, SeedSequence, SplitMix64};
