//! Algorithm registry: protocol `algo` strings → boxed [`Mapper`]s.
//!
//! Mirrors the CLI's solver table so a request can name any mapper the
//! command line can. Mappers are cheap to construct (plain config
//! structs), so workers build one per job rather than sharing instances
//! across threads.

use match_baselines::{
    FastMapScheme, GreedyMapper, HillClimber, PolishedMatcher, RandomSearch, RecursiveBisection,
    RoundRobin, SimulatedAnnealing,
};
use match_core::{EvalBackend, IslandMatcher, Mapper, MatchConfig, Matcher, MultilevelConfig};
use match_ga::{FastMapGa, GaConfig};
use match_multilevel::MultilevelMapper;

/// All names the registry accepts, for error messages and docs.
pub const KNOWN_ALGOS: &[&str] = &[
    "match",
    "match-batched",
    "islands",
    "multilevel",
    "ga",
    "fastmap-ga",
    "ga-batched",
    "greedy",
    "hill",
    "hillclimb",
    "sa",
    "random",
    "roundrobin",
    "polish",
    "bisect",
    "fastmap",
];

/// Construct the solver a request named with the default (`Auto`)
/// evaluation backend, or `None` for an unknown name.
pub fn build_mapper(name: &str) -> Option<Box<dyn Mapper>> {
    build_mapper_with(name, EvalBackend::Auto)
}

/// Construct the solver a request named, pinning the evaluation backend
/// on the solvers with a batched pipeline (`match*`, `ga*`,
/// `multilevel`); backends are bit-exact, so the other solvers can
/// ignore it. `None` for an unknown name.
pub fn build_mapper_with(name: &str, backend: EvalBackend) -> Option<Box<dyn Mapper>> {
    Some(match name {
        // `match-batched` is a second name for the one CE pipeline.
        "match" | "match-batched" => Box::new(Matcher::new(MatchConfig {
            backend,
            ..MatchConfig::default()
        })),
        "islands" => Box::new(IslandMatcher::default()),
        // Coarsen–solve–refine driver: handles square and rectangular
        // instances alike, so it is deliberately absent from
        // `requires_square`.
        "multilevel" => Box::new(MultilevelMapper::new(MultilevelConfig {
            backend,
            ..MultilevelConfig::default()
        })),
        // Plain `ga` keeps the library default of one solver thread;
        // `ga-batched` runs the same loop on every core.
        "ga" | "fastmap-ga" => Box::new(FastMapGa::new(GaConfig {
            backend,
            ..GaConfig::paper_default()
        })),
        "ga-batched" => Box::new(FastMapGa::new(GaConfig {
            backend,
            ..GaConfig::batched_paper()
        })),
        "greedy" => Box::new(GreedyMapper),
        "hill" | "hillclimb" => Box::new(HillClimber::default()),
        "sa" => Box::new(SimulatedAnnealing::default()),
        "random" => Box::new(RandomSearch::new(100_000)),
        "roundrobin" => Box::new(RoundRobin),
        "polish" => Box::new(PolishedMatcher::default()),
        "bisect" => Box::new(RecursiveBisection::default()),
        "fastmap" => Box::new(FastMapScheme::new(
            FastMapGa::new(GaConfig::paper_default()),
        )),
        _ => return None,
    })
}

/// The solvers that run the CE permutation pipeline and can be
/// warm-started from a stored stochastic matrix.
pub fn ce_family(name: &str) -> bool {
    matches!(name, "match" | "match-batched")
}

/// The [`MatchConfig`] behind a CE-family algo name, with the
/// evaluation backend pinned and the solver thread count optionally
/// overridden — the daemon caps per-solve parallelism so co-located
/// shards don't oversubscribe one host. `None` for non-CE names.
pub fn match_config_for(
    name: &str,
    backend: EvalBackend,
    threads: Option<usize>,
) -> Option<MatchConfig> {
    if !ce_family(name) {
        return None;
    }
    let mut cfg = MatchConfig {
        backend,
        ..MatchConfig::default()
    };
    if let Some(t) = threads {
        cfg.threads = t.max(1);
    }
    Some(cfg)
}

/// Whether a solver only accepts square instances (|tasks| == |resources|).
///
/// Permutation-model solvers assert squareness; checking here lets the
/// daemon refuse a mismatched request at admission with a clear error
/// instead of poisoning a worker thread.
pub fn requires_square(name: &str) -> bool {
    matches!(
        name,
        "match"
            | "match-batched"
            | "islands"
            | "ga"
            | "fastmap-ga"
            | "ga-batched"
            | "polish"
            | "fastmap"
    )
}

/// A human-readable list of known algorithm names for error payloads.
pub fn known_algos_list() -> String {
    KNOWN_ALGOS.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_known_name_builds() {
        for name in KNOWN_ALGOS {
            assert!(build_mapper(name).is_some(), "registry missing {name}");
            for backend in [EvalBackend::Auto, EvalBackend::Scalar, EvalBackend::Simd] {
                assert!(
                    build_mapper_with(name, backend).is_some(),
                    "registry missing {name} with backend {backend}"
                );
            }
        }
    }

    #[test]
    fn unknown_name_is_refused() {
        assert!(build_mapper("quantum-annealer").is_none());
        // There is one CE and one GA pipeline; no name selects another.
        for name in ["match-sequential", "ga-sequential"] {
            assert!(build_mapper(name).is_none(), "{name}");
            assert!(!KNOWN_ALGOS.contains(&name), "{name}");
        }
    }

    #[test]
    fn ce_family_matches_match_config_for() {
        for name in KNOWN_ALGOS {
            assert_eq!(
                ce_family(name),
                match_config_for(name, EvalBackend::Auto, None).is_some(),
                "{name}"
            );
        }
        let cfg = match_config_for("match-batched", EvalBackend::Auto, Some(3)).unwrap();
        assert_eq!(cfg.threads, 3);
        // threads = 0 is clamped, not passed through to validate().
        let cfg = match_config_for("match", EvalBackend::Auto, Some(0)).unwrap();
        assert_eq!(cfg.threads, 1);
    }

    #[test]
    fn multilevel_is_registered_and_not_square_only() {
        assert!(build_mapper("multilevel").is_some());
        assert!(!requires_square("multilevel"));
    }

    #[test]
    fn square_only_solvers_are_flagged() {
        assert!(requires_square("match"));
        assert!(requires_square("match-batched"));
        assert!(requires_square("ga"));
        assert!(requires_square("ga-batched"));
        assert!(!requires_square("greedy"));
        assert!(!requires_square("sa"));
    }
}
