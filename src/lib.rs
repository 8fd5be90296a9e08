//! `matchkit` — a facade crate re-exporting the whole MaTCH reproduction.
//!
//! This workspace reproduces *"MaTCH: Mapping Data-Parallel Tasks on a
//! Heterogeneous Computing Platform Using the Cross-Entropy Heuristic"*
//! (Sanyal & Das, 2005). Downstream users depend on this crate and get:
//!
//! * [`graph`] — task-interaction graphs (TIGs), resource graphs and
//!   synthetic generators (including the paper's workload family).
//! * [`core`] — the MaTCH cross-entropy mapping heuristic itself.
//! * [`ga`] — the FastMap-GA baseline the paper compares against.
//! * [`multilevel`] — the coarsen–solve–refine driver that scales the
//!   heuristics past the paper's n ≈ 50 sampling wall.
//! * [`baselines`] — further comparators (greedy, hill climbing, SA, …).
//! * [`ce`] — the generic cross-entropy optimisation framework.
//! * [`sim`] — a discrete-event simulator executing mapped applications
//!   (serial, blocking-receive and link-contention models).
//! * [`stats`] — ANOVA / Welch t-tests / confidence intervals used in
//!   the evaluation.
//! * [`verify`] — the differential / metamorphic / golden-trajectory
//!   correctness harness behind `matchctl verify`.
//! * [`metrics`] — live service metrics: sharded atomic registries,
//!   Prometheus text exposition, and the telemetry→metrics bridge.
//! * [`par`], [`rngutil`], [`viz`] — supporting substrates.
//! * [`cli`] — the `matchctl` command-line front end.
//!
//! ```
//! use matchkit::prelude::*;
//! use rand::SeedableRng;
//!
//! // Generate a small paper-style instance and map it with MaTCH.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let pair = InstanceGenerator::paper_family(8).generate(&mut rng);
//! let inst = MappingInstance::from_pair(&pair);
//! let outcome = Matcher::new(MatchConfig::default()).run(&inst, &mut rng);
//! assert!(outcome.cost > 0.0);
//! assert!(outcome.mapping.is_permutation());
//! ```

#![forbid(unsafe_code)]

pub use match_baselines as baselines;
pub use match_ce as ce;
pub use match_core as core;
pub use match_ga as ga;
pub use match_graph as graph;
pub use match_metrics as metrics;
pub use match_multilevel as multilevel;
pub use match_par as par;
pub use match_rngutil as rngutil;
pub use match_sim as sim;
pub use match_stats as stats;
pub use match_verify as verify;
pub use match_viz as viz;

pub use match_cli as cli;

/// The most common imports, in one place.
pub mod prelude {
    pub use match_baselines::{GreedyMapper, HillClimber, RandomSearch, SimulatedAnnealing};
    pub use match_core::{
        CostModel, IslandConfig, IslandMatcher, Mapper, MapperOutcome, Mapping, MappingInstance,
        MatchConfig, Matcher,
    };
    pub use match_ga::{FastMapGa, GaConfig};
    pub use match_graph::{gen::InstanceGenerator, Graph, ResourceGraph, TaskGraph};
    pub use match_multilevel::{CoarseSolver, MultilevelConfig, MultilevelMapper};
    pub use match_sim::{SimConfig, Simulator};
}
