//! The FastMap-GA configuration and solver: roulette selection,
//! crossover, mutation, elitism, fixed generation budget. The generation
//! loop itself lives in [`crate::batch`].

use match_core::{EvalBackend, Mapper, MapperOutcome, MappingInstance, StopToken};
use match_telemetry::{NullRecorder, Recorder};
use rand::rngs::StdRng;

/// Parent-selection operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionOp {
    /// Fitness-proportional roulette wheel over `K/Exec` (paper §5.1).
    Roulette,
    /// Tournament of the given size (literature variant; stronger
    /// pressure when costs cluster).
    Tournament(usize),
}

/// Crossover operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossoverOp {
    /// Single-point with duplicate repair (paper Figure 6a).
    SinglePointRepair,
    /// Order crossover (OX).
    Order,
}

/// Mutation operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationOp {
    /// Per-gene swap (paper Figure 6b).
    Swap,
    /// Whole-chromosome segment inversion.
    Inversion,
}

/// GA tunables (defaults from §5.1/§5.2).
#[derive(Debug, Clone, PartialEq)]
pub struct GaConfig {
    /// Population size (paper main runs: 500).
    pub population: usize,
    /// Number of generations (paper main runs: 1000).
    pub generations: usize,
    /// Crossover probability (paper: 0.85).
    pub crossover_prob: f64,
    /// Per-gene mutation probability (paper: 0.07).
    pub mutation_prob: f64,
    /// Fitness scale `K` in `Ψ = K / Exec`. Roulette selection is
    /// scale-invariant, so this only affects reported fitness values.
    pub fitness_k: f64,
    /// Keep the best individual unconditionally (paper: yes).
    pub elitism: bool,
    /// Parent selection (paper: roulette).
    pub selection: SelectionOp,
    /// Crossover operator (paper: single-point with repair).
    pub crossover_op: CrossoverOp,
    /// Mutation operator (paper: per-gene swap).
    pub mutation_op: MutationOp,
    /// Worker threads for the generation loop. The outcome is the same
    /// for every value; the library default is 1 (the paper's runs),
    /// while the CLI and the daemon pass `match_par::default_threads()`.
    pub threads: usize,
    /// Evaluation backend for the per-chunk fitness batches, mirroring
    /// [`match_core::MatchConfig`]'s `backend`: the Scalar and Simd
    /// kernels are bit-identical, so this changes throughput only.
    pub backend: EvalBackend,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig::paper_default()
    }
}

impl GaConfig {
    /// The main-experiment configuration: population 500, 1000
    /// generations.
    pub fn paper_default() -> Self {
        GaConfig {
            population: 500,
            generations: 1000,
            crossover_prob: 0.85,
            mutation_prob: 0.07,
            fitness_k: 1.0,
            elitism: true,
            selection: SelectionOp::Roulette,
            crossover_op: CrossoverOp::SinglePointRepair,
            mutation_op: MutationOp::Swap,
            threads: 1,
            backend: EvalBackend::Auto,
        }
    }

    /// The paper configuration on all available cores.
    pub fn batched_paper() -> Self {
        GaConfig {
            threads: match_par::default_threads(),
            ..GaConfig::paper_default()
        }
    }

    /// ANOVA arm "FastMap-GA 100/10000": population 100, 10 000
    /// generations.
    pub fn anova_100_10000() -> Self {
        GaConfig {
            population: 100,
            generations: 10_000,
            ..GaConfig::paper_default()
        }
    }

    /// ANOVA arm "FastMap-GA 1000/1000": population 1000, 1000
    /// generations.
    pub fn anova_1000_1000() -> Self {
        GaConfig {
            population: 1000,
            generations: 1000,
            ..GaConfig::paper_default()
        }
    }

    /// Panic with a clear message on nonsensical settings. Called at the
    /// top of every solver entry point.
    pub fn validate(&self) {
        assert!(self.population >= 2, "population must be at least 2");
        assert!(self.generations >= 1, "need at least one generation");
        assert!(
            (0.0..=1.0).contains(&self.crossover_prob),
            "crossover probability out of [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.mutation_prob),
            "mutation probability out of [0,1]"
        );
        assert!(self.fitness_k > 0.0, "fitness scale must be positive");
        assert!(self.threads >= 1, "thread count must be at least 1");
    }
}

/// GA result with per-generation telemetry.
#[derive(Debug, Clone)]
pub struct GaOutcome {
    /// The heuristic-agnostic outcome (best mapping, ET, MT, counters).
    pub outcome: MapperOutcome,
    /// Best cost after each generation (length = generations run).
    pub best_per_generation: Vec<f64>,
}

/// The FastMap-GA solver.
///
/// ```
/// use match_core::MappingInstance;
/// use match_ga::{FastMapGa, GaConfig};
/// use match_graph::gen::InstanceGenerator;
/// use rand::{SeedableRng, rngs::StdRng};
///
/// let mut rng = StdRng::seed_from_u64(9);
/// let pair = InstanceGenerator::paper_family(8).generate(&mut rng);
/// let inst = MappingInstance::from_pair(&pair);
///
/// let cfg = GaConfig { population: 40, generations: 30, ..GaConfig::paper_default() };
/// let out = FastMapGa::new(cfg).run(&inst, &mut rng);
/// assert!(out.outcome.mapping.is_permutation());
/// // Elitism makes the best-so-far curve monotone.
/// assert!(out.best_per_generation.windows(2).all(|w| w[1] <= w[0]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FastMapGa {
    config: GaConfig,
}

impl FastMapGa {
    /// Build a solver with the given configuration.
    pub fn new(config: GaConfig) -> Self {
        FastMapGa { config }
    }

    /// The configuration.
    pub fn config(&self) -> &GaConfig {
        &self.config
    }

    /// Run the GA with full telemetry.
    pub fn run(&self, inst: &MappingInstance, rng: &mut StdRng) -> GaOutcome {
        self.run_traced(inst, rng, &mut NullRecorder)
    }

    /// [`FastMapGa::run`] with live telemetry: one `iter` event per
    /// generation (running best, population mean cost, wall time) plus
    /// `crossovers`/`mutations` operator counters. Tracing does not
    /// perturb the RNG stream, so traced and untraced runs produce
    /// identical mappings for the same seed.
    pub fn run_traced(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        recorder: &mut dyn Recorder,
    ) -> GaOutcome {
        self.run_controlled(inst, rng, recorder, &StopToken::never())
    }

    /// [`FastMapGa::run_traced`] with cooperative cancellation: the stop
    /// token is polled once per generation, so a fired deadline returns
    /// the best-so-far mapping after finishing the current generation.
    /// `iterations` reports the generations actually run.
    pub fn run_controlled(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        recorder: &mut dyn Recorder,
        stop: &StopToken,
    ) -> GaOutcome {
        self.config.validate();
        assert!(
            inst.is_square(),
            "FastMap-GA's permutation encoding needs |V_t| = |V_r|"
        );
        crate::batch::run_batched(&self.config, inst, rng, recorder, stop)
    }
}

pub(crate) fn argmin(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x < xs[best] {
            best = i;
        }
    }
    best
}

impl Mapper for FastMapGa {
    fn name(&self) -> &str {
        "FastMap-GA"
    }

    fn map(&self, inst: &MappingInstance, rng: &mut StdRng) -> MapperOutcome {
        self.run(inst, rng).outcome
    }

    fn map_traced(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        recorder: &mut dyn Recorder,
    ) -> MapperOutcome {
        self.run_traced(inst, rng, recorder).outcome
    }

    fn map_controlled(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        recorder: &mut dyn Recorder,
        stop: &StopToken,
    ) -> MapperOutcome {
        self.run_controlled(inst, rng, recorder, stop).outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_core::exec_time;
    use match_graph::gen::InstanceGenerator;
    use match_rngutil::perm::random_permutation;
    use rand::SeedableRng;

    fn instance(n: usize, seed: u64) -> MappingInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        MappingInstance::from_pair(&InstanceGenerator::paper_family(n).generate(&mut rng))
    }

    fn small_config() -> GaConfig {
        GaConfig {
            population: 60,
            generations: 60,
            ..GaConfig::paper_default()
        }
    }

    #[test]
    fn produces_valid_mapping() {
        let inst = instance(10, 1);
        let out = FastMapGa::new(small_config()).run(&inst, &mut StdRng::seed_from_u64(2));
        assert!(out.outcome.mapping.validate(&inst).is_ok());
        assert_eq!(
            out.outcome.cost,
            exec_time(&inst, out.outcome.mapping.as_slice())
        );
        assert_eq!(out.best_per_generation.len(), 60);
        // pop initial evaluations + (pop - 1 elite) per generation: the
        // carried elite is never re-scored.
        assert_eq!(out.outcome.evaluations, 60 + 60 * 59);
    }

    #[test]
    fn tripped_stop_token_cancels_after_one_generation() {
        use match_core::StopFlag;
        let inst = instance(10, 1);
        let flag = StopFlag::new();
        flag.trip();
        let out = FastMapGa::new(small_config()).run_controlled(
            &inst,
            &mut StdRng::seed_from_u64(2),
            &mut NullRecorder,
            &StopToken::with_flag(flag),
        );
        assert_eq!(out.outcome.iterations, 1, "stops after first generation");
        assert_eq!(out.best_per_generation.len(), 1);
        assert!(out.outcome.mapping.validate(&inst).is_ok());
        assert_eq!(
            out.outcome.cost,
            exec_time(&inst, out.outcome.mapping.as_slice())
        );
    }

    #[test]
    fn never_token_matches_plain_run() {
        let inst = instance(10, 1);
        let plain = FastMapGa::new(small_config()).run(&inst, &mut StdRng::seed_from_u64(2));
        let controlled = FastMapGa::new(small_config()).run_controlled(
            &inst,
            &mut StdRng::seed_from_u64(2),
            &mut NullRecorder,
            &StopToken::never(),
        );
        assert_eq!(plain.outcome.mapping, controlled.outcome.mapping);
        assert_eq!(plain.outcome.cost, controlled.outcome.cost);
        assert_eq!(plain.outcome.iterations, controlled.outcome.iterations);
    }

    #[test]
    fn best_curve_is_monotone_with_elitism() {
        let inst = instance(12, 3);
        let out = FastMapGa::new(small_config()).run(&inst, &mut StdRng::seed_from_u64(4));
        for w in out.best_per_generation.windows(2) {
            assert!(w[1] <= w[0], "elitism must make the best monotone");
        }
    }

    #[test]
    fn improves_over_initial_random_population() {
        let inst = instance(12, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut random_best = f64::INFINITY;
        for _ in 0..60 {
            random_best = random_best.min(exec_time(&inst, &random_permutation(12, &mut rng)));
        }
        let out = FastMapGa::new(small_config()).run(&inst, &mut rng);
        assert!(
            out.outcome.cost <= random_best,
            "GA {} vs best initial {}",
            out.outcome.cost,
            random_best
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = instance(8, 7);
        let ga = FastMapGa::new(small_config());
        let a = ga.run(&inst, &mut StdRng::seed_from_u64(8));
        let b = ga.run(&inst, &mut StdRng::seed_from_u64(8));
        assert_eq!(a.outcome.mapping, b.outcome.mapping);
        assert_eq!(a.best_per_generation, b.best_per_generation);
    }

    #[test]
    fn anova_configs_match_paper() {
        let a = GaConfig::anova_100_10000();
        assert_eq!((a.population, a.generations), (100, 10_000));
        let b = GaConfig::anova_1000_1000();
        assert_eq!((b.population, b.generations), (1000, 1000));
        let d = GaConfig::paper_default();
        assert_eq!((d.population, d.generations), (500, 1000));
        assert_eq!(d.crossover_prob, 0.85);
        assert_eq!(d.mutation_prob, 0.07);
    }

    #[test]
    fn mapper_trait_delegates() {
        let inst = instance(8, 9);
        let ga = FastMapGa::new(small_config());
        assert_eq!(ga.name(), "FastMap-GA");
        let out = ga.map(&inst, &mut StdRng::seed_from_u64(10));
        assert!(out.mapping.is_permutation());
        assert_eq!(out.iterations, 60);
    }

    #[test]
    fn no_elitism_still_tracks_best_ever() {
        let inst = instance(10, 11);
        let cfg = GaConfig {
            elitism: false,
            ..small_config()
        };
        let out = FastMapGa::new(cfg).run(&inst, &mut StdRng::seed_from_u64(12));
        // best_per_generation is a running best, so still monotone.
        for w in out.best_per_generation.windows(2) {
            assert!(w[1] <= w[0]);
        }
        assert!(out.outcome.mapping.is_permutation());
        // No elite rows: every child of every generation is evaluated.
        assert_eq!(out.outcome.evaluations, 60 + 60 * 60);
    }

    #[test]
    fn variant_operators_produce_valid_mappings() {
        let inst = instance(10, 21);
        for selection in [SelectionOp::Roulette, SelectionOp::Tournament(3)] {
            for crossover_op in [CrossoverOp::SinglePointRepair, CrossoverOp::Order] {
                for mutation_op in [MutationOp::Swap, MutationOp::Inversion] {
                    let cfg = GaConfig {
                        population: 30,
                        generations: 20,
                        selection,
                        crossover_op,
                        mutation_op,
                        ..GaConfig::paper_default()
                    };
                    let out = FastMapGa::new(cfg).run(&inst, &mut StdRng::seed_from_u64(22));
                    assert!(
                        out.outcome.mapping.is_permutation(),
                        "{selection:?}/{crossover_op:?}/{mutation_op:?}"
                    );
                    assert_eq!(
                        out.outcome.cost,
                        exec_time(&inst, out.outcome.mapping.as_slice())
                    );
                }
            }
        }
    }

    #[test]
    fn tournament_selection_converges_faster_on_clustered_costs() {
        // Roulette over K/Exec has almost no pressure when costs are
        // within a few percent of each other; tournament keeps working.
        let inst = instance(14, 23);
        let base = GaConfig {
            population: 80,
            generations: 120,
            ..GaConfig::paper_default()
        };
        let roulette = FastMapGa::new(base.clone()).run(&inst, &mut StdRng::seed_from_u64(24));
        let tournament = FastMapGa::new(GaConfig {
            selection: SelectionOp::Tournament(4),
            ..base
        })
        .run(&inst, &mut StdRng::seed_from_u64(24));
        assert!(
            tournament.outcome.cost <= roulette.outcome.cost * 1.02,
            "tournament {} vs roulette {}",
            tournament.outcome.cost,
            roulette.outcome.cost
        );
    }

    #[test]
    fn empty_instance_maps_to_the_empty_mapping() {
        use match_graph::{Graph, ResourceGraph, TaskGraph};
        let tig = TaskGraph::new(Graph::new()).unwrap();
        let res = ResourceGraph::new(Graph::new()).unwrap();
        let inst = MappingInstance::new(&tig, &res);
        let out = FastMapGa::new(small_config()).run(&inst, &mut StdRng::seed_from_u64(1));
        assert!(out.outcome.mapping.is_empty());
        assert_eq!(out.outcome.cost, 0.0);
    }

    #[test]
    #[should_panic(expected = "population")]
    fn rejects_tiny_population() {
        let inst = instance(5, 13);
        let cfg = GaConfig {
            population: 1,
            ..GaConfig::paper_default()
        };
        FastMapGa::new(cfg).run(&inst, &mut StdRng::seed_from_u64(14));
    }

    #[test]
    #[should_panic(expected = "permutation encoding")]
    fn rejects_rectangular_instance() {
        use match_graph::gen::paper::PaperFamilyConfig;
        use match_graph::InstancePair;
        let mut rng = StdRng::seed_from_u64(15);
        let tig = PaperFamilyConfig::new(6).generate_tig(&mut rng);
        let resources = PaperFamilyConfig::new(4).generate_platform(&mut rng);
        let inst = MappingInstance::from_pair(&InstancePair { tig, resources });
        FastMapGa::new(small_config()).run(&inst, &mut rng);
    }
}
