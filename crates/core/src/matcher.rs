//! The MaTCH algorithm (paper Figure 5).
//!
//! MaTCH is cross-entropy optimisation over the GenPerm permutation
//! model: start from the uniform stochastic matrix (`p_ij = 1/|V_r|`),
//! repeatedly sample `N = 2|V_r|²` candidate mappings with GenPerm
//! (Figure 4), score them with the execution-time model (Eq. 2), fit the
//! matrix to the `ρ`-elite (Eq. 11), smooth with `ζ = 0.3` (Eq. 13), and
//! stop when each row's maximal element has been stable for `c = 5`
//! iterations (Eq. 12).
//!
//! Every entry point runs one pipeline, `match_ce`'s fused
//! [`minimize_flat`] loop: `match-par` workers draw their rows of the
//! `N`-sample batch into one flat buffer and score each chunk in one
//! batch-evaluator call, with per-sample RNG streams derived from one
//! driver draw per iteration, so results are identical for every thread
//! count.

use crate::batcheval::PlanEvaluator;
use crate::control::StopToken;
use crate::cost::exec_time;
use crate::mapper::{record_run_start, Mapper, MapperOutcome};
use crate::mapping::Mapping;
use crate::problem::MappingInstance;
use match_ce::batch::{FlatEvaluator, FlatSampler, RowEval};
use match_ce::driver::{minimize_flat, CeConfig, CeOutcome, CeTelemetry, StopReason};
use match_ce::models::assignment::AssignmentModel;
use match_ce::models::permutation::PermutationModel;
use match_ce::stochmatrix::StochasticMatrix;
use match_eval::EvalBackend;
use match_telemetry::{Event, NullRecorder, Recorder};
use rand::rngs::StdRng;
use std::time::{Duration, Instant};

/// How the CE driver draws each iteration's `N`-sample batch.
///
/// There is one pipeline, so this selects nothing: `Batched` fuses
/// sampling and evaluation inside the `match-par` workers, consuming the
/// run RNG once per iteration (a single `u64` iteration seed) and drawing
/// sample `i` from its own SplitMix64-derived stream, so results are
/// *identical for every thread count*. The enum is kept only because the
/// end-to-end benchmark (`perfbench/src/offline.rs`) names
/// `SamplerMode::Batched`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplerMode {
    /// Fused parallel sample+evaluate with per-sample derived RNGs and a
    /// flat reusable sample buffer; deterministic per seed and invariant
    /// across thread counts.
    #[default]
    Batched,
}

/// MaTCH tunables. Defaults are the paper's §4–§5 choices.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchConfig {
    /// Focus parameter `ρ` (paper: `0.01 ≤ ρ ≤ 0.1`; experiments use the
    /// upper end for stable elite counts at small `N`).
    pub rho: f64,
    /// Smoothing factor `ζ` of Eq. 13 (paper: `0.3`).
    pub zeta: f64,
    /// Samples per iteration; `None` selects the paper's `N = 2|V_r|²`.
    pub sample_size: Option<usize>,
    /// Hard iteration cap (safety net).
    pub max_iters: usize,
    /// Stability window `c` of Eq. 12 (paper: `5`).
    pub stability_window: usize,
    /// Tolerance for "equal" row maxima in Eq. 12.
    pub stability_tol: f64,
    /// Consecutive-stability window for the elite threshold `γ`
    /// (Figure 2's rule; `0` disables). With smoothed updates this is
    /// the rule that fires in practice once the sampled population has
    /// collapsed onto one cost plateau.
    pub gamma_window: usize,
    /// Relative tolerance for "equal" γ values.
    pub gamma_tol: f64,
    /// Degenerate-matrix early stop tolerance.
    pub degeneracy_tol: f64,
    /// Worker threads for the fused sample+evaluate batches. The outcome
    /// is the same for every value.
    pub threads: usize,
    /// Selects nothing: every run takes the one batched pipeline (see
    /// [`SamplerMode`]). The field is kept only because the end-to-end
    /// benchmark (`perfbench/src/offline.rs`) sets it.
    pub sampler: SamplerMode,
    /// Evaluation backend for the batched pipeline — see
    /// [`EvalBackend`]. Both backends are bit-identical (the lane
    /// kernel never reassociates a sample's terms), so this changes
    /// throughput only; `Auto` picks the lane kernel whenever a chunk
    /// is at least [`match_eval::LANES`] rows wide.
    pub backend: EvalBackend,
    /// Record a stochastic-matrix snapshot every `k` iterations
    /// (Figure 3); `None` disables snapshots.
    pub snapshot_every: Option<usize>,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            rho: 0.1,
            zeta: 0.3,
            sample_size: None,
            max_iters: 1000,
            stability_window: 5,
            stability_tol: 1e-4,
            gamma_window: 5,
            gamma_tol: 1e-12,
            degeneracy_tol: 1e-6,
            threads: match_par::default_threads(),
            sampler: SamplerMode::default(),
            backend: EvalBackend::default(),
            snapshot_every: None,
        }
    }
}

impl MatchConfig {
    /// Panic with a clear message on nonsensical settings. Called at the
    /// top of every solver entry point; mirrors
    /// [`CeConfig::validate`], plus the MaTCH-specific fields.
    pub fn validate(&self) {
        assert!(self.rho > 0.0 && self.rho <= 1.0, "rho must be in (0, 1]");
        if let Some(n) = self.sample_size {
            assert!(n >= 1, "need at least one sample");
        }
        assert!((0.0..=1.0).contains(&self.zeta), "zeta must be in [0, 1]");
        assert!(self.max_iters >= 1, "need at least one iteration");
        assert!(self.stability_window >= 1, "stability window >= 1");
        assert!(self.threads >= 1, "need at least one worker thread");
    }

    /// The paper's sample count for `n` resources: `N = 2n²` ("there are
    /// `|V_r|²` elements in the matrix and to evaluate each of them we
    /// need a sample size of that order", §4).
    pub fn effective_sample_size(&self, n: usize) -> usize {
        self.sample_size.unwrap_or((2 * n * n).max(4))
    }

    fn ce_config(&self, n: usize) -> CeConfig {
        CeConfig {
            rho: self.rho,
            sample_size: self.effective_sample_size(n),
            zeta: self.zeta,
            max_iters: self.max_iters,
            stability_window: self.stability_window,
            stability_tol: self.stability_tol,
            degeneracy_tol: self.degeneracy_tol,
            gamma_window: self.gamma_window,
            gamma_tol: self.gamma_tol,
        }
    }
}

/// A stochastic-matrix snapshot (Figure 3 raw material).
#[derive(Debug, Clone)]
pub struct MatrixSnapshot {
    /// Iteration index the snapshot was taken after.
    pub iter: usize,
    /// The matrix state.
    pub matrix: StochasticMatrix,
}

/// Everything a MaTCH run produces.
#[derive(Debug, Clone)]
pub struct MatchOutcome {
    /// The best mapping found.
    pub mapping: Mapping,
    /// Its execution time (Eq. 2).
    pub cost: f64,
    /// CE iterations executed.
    pub iterations: usize,
    /// Total objective evaluations.
    pub evaluations: u64,
    /// Wall-clock mapping time (the paper's MT).
    pub elapsed: Duration,
    /// Why the loop stopped.
    pub stop_reason: StopReason,
    /// Per-iteration statistics (γ, best/mean cost, entropy).
    pub telemetry: CeTelemetry,
    /// Matrix snapshots, when enabled.
    pub snapshots: Vec<MatrixSnapshot>,
}

impl MatchOutcome {
    /// Convert to the heuristic-agnostic [`MapperOutcome`].
    pub fn into_mapper_outcome(self) -> MapperOutcome {
        MapperOutcome {
            mapping: self.mapping,
            cost: self.cost,
            evaluations: self.evaluations,
            iterations: self.iterations,
            elapsed: self.elapsed,
        }
    }
}

/// The MaTCH solver.
///
/// ```
/// use match_core::{MappingInstance, MatchConfig, Matcher};
/// use match_graph::gen::InstanceGenerator;
/// use rand::{SeedableRng, rngs::StdRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let pair = InstanceGenerator::paper_family(8).generate(&mut rng);
/// let inst = MappingInstance::from_pair(&pair);
///
/// let outcome = Matcher::new(MatchConfig::default()).run(&inst, &mut rng);
/// assert!(outcome.mapping.is_permutation());
/// assert_eq!(outcome.cost, match_core::exec_time(&inst, outcome.mapping.as_slice()));
/// ```
///
/// Every entry point maps an instance with no tasks to the empty
/// mapping at cost 0, without running an iteration.
#[derive(Debug, Clone, Default)]
pub struct Matcher {
    config: MatchConfig,
}

impl Matcher {
    /// Build a solver with the given configuration.
    pub fn new(config: MatchConfig) -> Self {
        Matcher { config }
    }

    /// The configuration.
    pub fn config(&self) -> &MatchConfig {
        &self.config
    }

    /// Run MaTCH on a square instance (bijective mappings via GenPerm).
    ///
    /// Panics when `|V_t| ≠ |V_r|` — use
    /// [`Matcher::run_many_to_one`] for rectangular instances.
    pub fn run(&self, inst: &MappingInstance, rng: &mut StdRng) -> MatchOutcome {
        self.run_controlled(inst, rng, &mut NullRecorder, &StopToken::never())
    }

    /// [`Matcher::run`] with live telemetry: `run_start`/`run_end`
    /// bounds, per-iteration events with γ, `sample`/`evaluate`/`update`
    /// spans, and one pool event per parallel evaluation chunk.
    pub fn run_traced(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        recorder: &mut dyn Recorder,
    ) -> MatchOutcome {
        self.run_controlled(inst, rng, recorder, &StopToken::never())
    }

    /// [`Matcher::run_traced`] with cooperative cancellation: `stop` is
    /// polled once per CE iteration; when it fires the run ends with
    /// [`StopReason::Cancelled`] and the best mapping found so far.
    pub fn run_controlled(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        recorder: &mut dyn Recorder,
        stop: &StopToken,
    ) -> MatchOutcome {
        self.run_warm_controlled(inst, rng, recorder, stop, None, 0.0)
            .0
    }

    /// [`Matcher::run_controlled`] warm-started from a persisted prior:
    /// the stochastic matrix is seeded as `α·prior + (1 − α)·uniform`
    /// instead of uniform, and the **converged** matrix is returned
    /// alongside the outcome so the caller can store it as the next
    /// near-duplicate request's prior.
    ///
    /// Cold-path contract: `α ≤ 0`, `prior = None`, or a prior whose
    /// shape does not match the instance all seed the exact uniform
    /// matrix ([`StochasticMatrix::warm_seed`] returns it bit-for-bit),
    /// so the trajectory is that of [`Matcher::run_controlled`], which
    /// is this call without a prior.
    pub fn run_warm_controlled(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        recorder: &mut dyn Recorder,
        stop: &StopToken,
        prior: Option<&StochasticMatrix>,
        alpha: f64,
    ) -> (MatchOutcome, StochasticMatrix) {
        self.config.validate();
        assert!(
            inst.is_square(),
            "MaTCH's GenPerm model needs |V_t| = |V_r| (got {} tasks, {} resources); \
             use run_many_to_one instead",
            inst.n_tasks(),
            inst.n_resources()
        );
        let n = inst.n_tasks();
        let init = match prior {
            Some(p) if alpha > 0.0 && p.rows() == n && p.cols() == n => {
                StochasticMatrix::warm_seed(p, alpha)
            }
            _ => StochasticMatrix::uniform(n, n),
        };
        let mut model = PermutationModel::from_matrix(init);
        let outcome = self.drive(
            inst,
            rng,
            &mut model,
            |m| m.matrix().clone(),
            &PlanEvaluator::new(inst, self.config.backend),
            recorder,
            stop,
        );
        (outcome, model.matrix().clone())
    }

    /// The many-to-one generalisation: rows are sampled independently
    /// (duplicates allowed), supporting `|V_t| ≠ |V_r|`. This is the
    /// "few simple modifications" §4 alludes to.
    pub fn run_many_to_one(&self, inst: &MappingInstance, rng: &mut StdRng) -> MatchOutcome {
        self.config.validate();
        let mut model = AssignmentModel::uniform(inst.n_tasks(), inst.n_resources());
        self.drive(
            inst,
            rng,
            &mut model,
            |m| m.matrix().clone(),
            &PlanEvaluator::new(inst, self.config.backend),
            &mut NullRecorder,
            &StopToken::never(),
        )
    }

    /// Ablation arm: the §4 "naive" formulation over `χ̃` — rows sampled
    /// independently with `S̃(x) = ∞` for non-bijective samples — on a
    /// square instance. Quantifies what GenPerm buys.
    pub fn run_naive_penalized(&self, inst: &MappingInstance, rng: &mut StdRng) -> MatchOutcome {
        self.config.validate();
        assert!(
            inst.is_square(),
            "the penalised ablation needs a square instance"
        );
        let n = inst.n_tasks();
        let mut model = AssignmentModel::uniform(n, n);
        let penalized = RowEval(|row: &[usize]| {
            if match_rngutil::perm::is_permutation(row) {
                exec_time(inst, row)
            } else {
                f64::INFINITY
            }
        });
        self.drive(
            inst,
            rng,
            &mut model,
            |m| m.matrix().clone(),
            &penalized,
            &mut NullRecorder,
            &StopToken::never(),
        )
    }

    /// The Wilhelm-style capacitated objective on a square instance:
    /// every sample is scored as `Exec(x) + γ·overflow(x)` (Eq. 2 plus
    /// the [`CapacityModel`](crate::capacity::CapacityModel) penalty),
    /// over the same GenPerm permutation model as [`Matcher::run`].
    ///
    /// With `γ = 0` the penalty term is exactly `0.0`, so the sampled
    /// objective values — and therefore elite selection — equal the
    /// plain Eq. 2 objective's bit for bit.
    pub fn run_capacitated(
        &self,
        inst: &MappingInstance,
        caps: &crate::capacity::CapacityModel,
        rng: &mut StdRng,
    ) -> MatchOutcome {
        self.run_capacitated_controlled(inst, caps, rng, &mut NullRecorder, &StopToken::never())
    }

    /// [`Matcher::run_capacitated`] with telemetry and cooperative
    /// cancellation.
    pub fn run_capacitated_controlled(
        &self,
        inst: &MappingInstance,
        caps: &crate::capacity::CapacityModel,
        rng: &mut StdRng,
        recorder: &mut dyn Recorder,
        stop: &StopToken,
    ) -> MatchOutcome {
        self.config.validate();
        caps.validate(inst);
        assert!(
            inst.is_square(),
            "the capacitated objective keeps GenPerm's bijective model \
             (got {} tasks, {} resources)",
            inst.n_tasks(),
            inst.n_resources()
        );
        let mut model = PermutationModel::uniform(inst.n_tasks());
        self.drive(
            inst,
            rng,
            &mut model,
            |m| m.matrix().clone(),
            &RowEval(|row: &[usize]| exec_time(inst, row) + caps.penalty(row)),
            recorder,
            stop,
        )
    }

    /// The one CE loop behind every entry point: `run_start`, the fused
    /// [`minimize_flat`] pipeline over `model` scored by `evaluator`,
    /// Figure 3 snapshots, the outcome and `run_end`.
    #[allow(clippy::too_many_arguments)]
    fn drive<M, E>(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        model: &mut M,
        snapshot: impl Fn(&M) -> StochasticMatrix,
        evaluator: &E,
        recorder: &mut dyn Recorder,
        stop: &StopToken,
    ) -> MatchOutcome
    where
        M: FlatSampler,
        E: FlatEvaluator,
    {
        let start = Instant::now();
        record_run_start(recorder, "MaTCH", inst);
        let mut snapshots = Vec::new();
        let outcome = if inst.n_tasks() == 0 {
            // Nothing to map: the empty mapping is the only one, and a
            // model over zero rows is degenerate from the start.
            CeOutcome {
                best_sample: Vec::new(),
                best_cost: 0.0,
                iterations: 0,
                evaluations: 0,
                stop_reason: StopReason::Degenerate,
                telemetry: CeTelemetry::default(),
            }
        } else {
            let every = self.config.snapshot_every.map(|k| k.max(1));
            minimize_flat(
                model,
                &self
                    .config
                    .ce_config(inst.n_resources().max(inst.n_tasks())),
                rng,
                self.config.threads,
                evaluator,
                |iter, m| {
                    if every.is_some_and(|k| iter.is_multiple_of(k)) {
                        snapshots.push(MatrixSnapshot {
                            iter,
                            matrix: snapshot(m),
                        });
                    }
                },
                recorder,
                &|| stop.should_stop(),
            )
        };
        let result = MatchOutcome {
            mapping: Mapping::new(outcome.best_sample),
            cost: outcome.best_cost,
            iterations: outcome.iterations,
            evaluations: outcome.evaluations,
            elapsed: start.elapsed(),
            stop_reason: outcome.stop_reason,
            telemetry: outcome.telemetry,
            snapshots,
        };
        if recorder.enabled() {
            recorder.record(Event::RunEnd {
                best: result.cost,
                iterations: result.iterations as u64,
                evaluations: result.evaluations,
                wall_ns: result.elapsed.as_nanos() as u64,
            });
        }
        result
    }
}

impl Mapper for Matcher {
    fn name(&self) -> &str {
        "MaTCH"
    }

    fn map(&self, inst: &MappingInstance, rng: &mut StdRng) -> MapperOutcome {
        self.run(inst, rng).into_mapper_outcome()
    }

    fn map_traced(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        recorder: &mut dyn Recorder,
    ) -> MapperOutcome {
        self.run_traced(inst, rng, recorder).into_mapper_outcome()
    }

    fn map_controlled(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        recorder: &mut dyn Recorder,
        stop: &StopToken,
    ) -> MapperOutcome {
        self.run_controlled(inst, rng, recorder, stop)
            .into_mapper_outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::exec_time;
    use match_graph::gen::InstanceGenerator;
    use match_rngutil::perm::random_permutation;
    use rand::SeedableRng;

    fn instance(n: usize, seed: u64) -> MappingInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        MappingInstance::from_pair(&InstanceGenerator::paper_family(n).generate(&mut rng))
    }

    fn small_config() -> MatchConfig {
        MatchConfig {
            threads: 1,
            ..MatchConfig::default()
        }
    }

    #[test]
    #[should_panic(expected = "rho must be in (0, 1]")]
    fn invalid_rho_panics() {
        let inst = instance(5, 40);
        let cfg = MatchConfig {
            rho: 1.5,
            ..small_config()
        };
        Matcher::new(cfg).run(&inst, &mut StdRng::seed_from_u64(41));
    }

    #[test]
    #[should_panic(expected = "zeta must be in [0, 1]")]
    fn invalid_zeta_panics() {
        let inst = instance(5, 40);
        let cfg = MatchConfig {
            zeta: -0.1,
            ..small_config()
        };
        Matcher::new(cfg).run(&inst, &mut StdRng::seed_from_u64(41));
    }

    #[test]
    #[should_panic(expected = "need at least one worker thread")]
    fn zero_threads_panics() {
        let inst = instance(5, 40);
        let cfg = MatchConfig {
            threads: 0,
            ..MatchConfig::default()
        };
        Matcher::new(cfg).run(&inst, &mut StdRng::seed_from_u64(41));
    }

    #[test]
    #[should_panic(expected = "need at least one sample")]
    fn zero_sample_size_panics() {
        let inst = instance(5, 40);
        let cfg = MatchConfig {
            sample_size: Some(0),
            ..small_config()
        };
        Matcher::new(cfg).run(&inst, &mut StdRng::seed_from_u64(41));
    }

    #[test]
    fn produces_valid_permutation_mapping() {
        let inst = instance(10, 1);
        let out = Matcher::new(small_config()).run(&inst, &mut StdRng::seed_from_u64(2));
        assert!(out.mapping.validate(&inst).is_ok());
        assert!(out.mapping.is_permutation());
        assert_eq!(out.cost, exec_time(&inst, out.mapping.as_slice()));
        assert!(out.iterations >= 1);
        assert!(out.evaluations >= 200); // at least one iteration of 2·10²
    }

    #[test]
    fn beats_random_sampling() {
        let inst = instance(12, 3);
        let mut rng = StdRng::seed_from_u64(4);
        // 500 random permutations as the no-intelligence yardstick.
        let mut acc = 0.0;
        let mut best_random = f64::INFINITY;
        for _ in 0..500 {
            let c = exec_time(&inst, &random_permutation(12, &mut rng));
            acc += c;
            best_random = best_random.min(c);
        }
        let random_mean = acc / 500.0;
        let out = Matcher::new(small_config()).run(&inst, &mut rng);
        assert!(
            out.cost < best_random,
            "MaTCH {} vs best-of-500 random {best_random}",
            out.cost
        );
        assert!(
            out.cost < 0.8 * random_mean,
            "MaTCH {} vs random mean {random_mean}",
            out.cost
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = instance(8, 5);
        let m = Matcher::new(small_config());
        let a = m.run(&inst, &mut StdRng::seed_from_u64(6));
        let b = m.run(&inst, &mut StdRng::seed_from_u64(6));
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn outcome_is_thread_count_invariant() {
        // The fused pipeline derives one RNG per sample from a single
        // iteration seed, so the whole MatchOutcome is bit-identical for
        // any thread count — including 1.
        let inst = instance(9, 7);
        let run = |threads: usize| {
            Matcher::new(MatchConfig {
                threads,
                ..MatchConfig::default()
            })
            .run(&inst, &mut StdRng::seed_from_u64(8))
        };
        let one = run(1);
        for threads in [2, 8] {
            let other = run(threads);
            assert_eq!(one.mapping, other.mapping, "threads={threads}");
            assert_eq!(one.cost, other.cost, "threads={threads}");
            assert_eq!(one.iterations, other.iterations, "threads={threads}");
            assert_eq!(
                one.telemetry.iters, other.telemetry.iters,
                "threads={threads}"
            );
        }
        assert!(one.mapping.is_permutation());
        assert_eq!(one.cost, exec_time(&inst, one.mapping.as_slice()));
    }

    #[test]
    fn eval_backends_produce_identical_runs() {
        // The lane kernel never reassociates a sample's terms, so
        // forcing Scalar, Simd, or Auto must give the same trajectory
        // bit for bit — on any thread count.
        let inst = instance(12, 7);
        let run = |backend: EvalBackend, threads: usize| {
            Matcher::new(MatchConfig {
                threads,
                backend,
                ..MatchConfig::default()
            })
            .run(&inst, &mut StdRng::seed_from_u64(8))
        };
        let base = run(EvalBackend::Scalar, 1);
        for backend in [EvalBackend::Simd, EvalBackend::Auto] {
            for threads in [1, 2, 8] {
                let other = run(backend, threads);
                assert_eq!(base.mapping, other.mapping, "{backend} threads={threads}");
                assert_eq!(
                    base.cost.to_bits(),
                    other.cost.to_bits(),
                    "{backend} threads={threads}"
                );
                assert_eq!(
                    base.iterations, other.iterations,
                    "{backend} threads={threads}"
                );
                assert_eq!(
                    base.telemetry.iters, other.telemetry.iters,
                    "{backend} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn sample_size_default_is_2n_squared() {
        let cfg = MatchConfig::default();
        assert_eq!(cfg.effective_sample_size(10), 200);
        assert_eq!(cfg.effective_sample_size(50), 5000);
        let cfg = MatchConfig {
            sample_size: Some(64),
            ..MatchConfig::default()
        };
        assert_eq!(cfg.effective_sample_size(10), 64);
    }

    #[test]
    fn snapshots_recorded_when_enabled() {
        let inst = instance(8, 9);
        let cfg = MatchConfig {
            snapshot_every: Some(1),
            threads: 1,
            ..MatchConfig::default()
        };
        let out = Matcher::new(cfg).run(&inst, &mut StdRng::seed_from_u64(10));
        assert_eq!(out.snapshots.len(), out.iterations);
        // First snapshot is post-first-update; last should be far more
        // concentrated than the first.
        let first = &out.snapshots.first().unwrap().matrix;
        let last = &out.snapshots.last().unwrap().matrix;
        assert!(last.mean_entropy() < first.mean_entropy());
    }

    #[test]
    fn telemetry_gamma_improves() {
        let inst = instance(10, 11);
        let out = Matcher::new(small_config()).run(&inst, &mut StdRng::seed_from_u64(12));
        let first = out.telemetry.iters.first().unwrap().gamma;
        let last = out.telemetry.iters.last().unwrap().gamma;
        assert!(last < first, "gamma {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "GenPerm")]
    fn square_run_rejects_rectangular_instance() {
        use match_graph::gen::paper::PaperFamilyConfig;
        use match_graph::InstancePair;
        let mut rng = StdRng::seed_from_u64(13);
        let tig = PaperFamilyConfig::new(6).generate_tig(&mut rng);
        let resources = PaperFamilyConfig::new(4).generate_platform(&mut rng);
        let inst = MappingInstance::from_pair(&InstancePair { tig, resources });
        Matcher::new(small_config()).run(&inst, &mut rng);
    }

    #[test]
    fn many_to_one_maps_rectangular_instance() {
        use match_graph::gen::paper::PaperFamilyConfig;
        use match_graph::InstancePair;
        let mut rng = StdRng::seed_from_u64(14);
        let tig = PaperFamilyConfig::new(12).generate_tig(&mut rng);
        let resources = PaperFamilyConfig::new(4).generate_platform(&mut rng);
        let inst = MappingInstance::from_pair(&InstancePair { tig, resources });
        let cfg = MatchConfig {
            sample_size: Some(200),
            threads: 1,
            ..MatchConfig::default()
        };
        let out = Matcher::new(cfg).run_many_to_one(&inst, &mut rng);
        assert!(out.mapping.validate(&inst).is_ok());
        assert_eq!(out.mapping.len(), 12);
        assert!(out.mapping.as_slice().iter().all(|&r| r < 4));
        assert_eq!(out.cost, exec_time(&inst, out.mapping.as_slice()));
    }

    #[test]
    fn naive_penalized_still_finds_permutations() {
        let inst = instance(6, 15);
        let cfg = MatchConfig {
            sample_size: Some(400),
            threads: 1,
            ..MatchConfig::default()
        };
        let out = Matcher::new(cfg).run_naive_penalized(&inst, &mut StdRng::seed_from_u64(16));
        assert!(out.cost.is_finite(), "never found a bijection");
        assert!(out.mapping.is_permutation());
    }

    #[test]
    fn capacitated_run_respects_gamma() {
        use crate::capacity::CapacityModel;
        let inst = instance(8, 30);
        // Tight capacities: only a near-balanced mapping fits.
        let caps = CapacityModel {
            mem_demand: vec![4.0; 8],
            mem_capacity: vec![5.0; 8],
            bw_demand: vec![1.0; 8],
            bw_capacity: vec![8.0; 8],
            gamma: 0.0,
        };
        let cfg = MatchConfig {
            max_iters: 30,
            threads: 1,
            ..MatchConfig::default()
        };
        let m = Matcher::new(cfg);
        // gamma = 0 is exactly the plain objective: the reported cost is
        // a pure Eq. 2 value for the returned permutation.
        let free = m.run_capacitated(&inst, &caps, &mut StdRng::seed_from_u64(31));
        assert!(free.mapping.is_permutation());
        assert_eq!(
            free.cost.to_bits(),
            exec_time(&inst, free.mapping.as_slice()).to_bits()
        );
        // A positive gamma folds the overflow penalty into the sampled
        // objective; a permutation never overflows these per-task-equal
        // demands, so the reported cost still satisfies Eq. 2.
        let caps_hot = CapacityModel {
            gamma: 100.0,
            ..caps
        };
        let hot = m.run_capacitated(&inst, &caps_hot, &mut StdRng::seed_from_u64(31));
        assert!(hot.mapping.is_permutation());
        assert_eq!(caps_hot.overflow(hot.mapping.as_slice()), 0.0);
    }

    #[test]
    fn genperm_beats_naive_on_equal_budget() {
        // The paper's motivation for GenPerm: restricted sampling wastes
        // no samples on invalid mappings.
        let inst = instance(8, 17);
        let cfg = MatchConfig {
            sample_size: Some(128),
            max_iters: 30,
            threads: 1,
            ..MatchConfig::default()
        };
        let m = Matcher::new(cfg);
        let gen = m.run(&inst, &mut StdRng::seed_from_u64(18));
        let naive = m.run_naive_penalized(&inst, &mut StdRng::seed_from_u64(18));
        assert!(
            gen.cost <= naive.cost,
            "GenPerm {} vs naive {}",
            gen.cost,
            naive.cost
        );
    }

    #[test]
    fn mu_stability_rule_fires_with_coarse_updates() {
        // The paper's own configuration of Eq. 12: coarse updates
        // (zeta = 1) drive row maxima to exact fixpoints, so with the
        // gamma rule disabled the MuStable (or degenerate) path stops
        // the run well before max_iters.
        let inst = instance(8, 21);
        let cfg = MatchConfig {
            zeta: 1.0,
            gamma_window: 0,
            stability_tol: 1e-9,
            threads: 1,
            ..MatchConfig::default()
        };
        let out = Matcher::new(cfg).run(&inst, &mut StdRng::seed_from_u64(22));
        assert!(
            matches!(
                out.stop_reason,
                match_ce::driver::StopReason::MuStable | match_ce::driver::StopReason::Degenerate
            ),
            "stopped via {:?}",
            out.stop_reason
        );
        assert!(out.iterations < 1000);
        assert!(out.mapping.is_permutation());
    }

    #[test]
    fn into_mapper_outcome_preserves_fields() {
        let inst = instance(6, 23);
        let out = Matcher::new(small_config()).run(&inst, &mut StdRng::seed_from_u64(24));
        let (cost, evals, iters, mapping) = (
            out.cost,
            out.evaluations,
            out.iterations,
            out.mapping.clone(),
        );
        let mo = out.into_mapper_outcome();
        assert_eq!(mo.cost, cost);
        assert_eq!(mo.evaluations, evals);
        assert_eq!(mo.iterations, iters);
        assert_eq!(mo.mapping, mapping);
    }

    #[test]
    fn tripped_stop_flag_cancels_after_one_iteration() {
        use crate::control::StopFlag;
        use match_telemetry::NullRecorder;
        let inst = instance(10, 25);
        let flag = StopFlag::new();
        flag.trip();
        let out = Matcher::new(small_config()).run_controlled(
            &inst,
            &mut StdRng::seed_from_u64(26),
            &mut NullRecorder,
            &StopToken::with_flag(flag),
        );
        assert_eq!(out.iterations, 1);
        assert_eq!(out.stop_reason, StopReason::Cancelled);
        // The truncated outcome is still a valid bijective mapping.
        assert!(out.mapping.is_permutation());
        assert_eq!(out.cost, exec_time(&inst, out.mapping.as_slice()));
    }

    #[test]
    fn controlled_run_with_never_token_matches_plain_run() {
        use match_telemetry::NullRecorder;
        let inst = instance(8, 27);
        let m = Matcher::new(small_config());
        let plain = m.run(&inst, &mut StdRng::seed_from_u64(28));
        let controlled = m.run_controlled(
            &inst,
            &mut StdRng::seed_from_u64(28),
            &mut NullRecorder,
            &StopToken::never(),
        );
        assert_eq!(plain.mapping, controlled.mapping);
        assert_eq!(plain.cost, controlled.cost);
        assert_eq!(plain.iterations, controlled.iterations);
    }

    fn empty_instance() -> MappingInstance {
        use match_graph::{Graph, ResourceGraph, TaskGraph};
        let tig = TaskGraph::new(Graph::new()).unwrap();
        let res = ResourceGraph::new(Graph::new()).unwrap();
        MappingInstance::new(&tig, &res)
    }

    fn assert_empty_outcome(out: &MatchOutcome) {
        assert!(out.mapping.is_empty());
        assert_eq!(out.cost, 0.0);
        assert_eq!((out.iterations, out.evaluations), (0, 0));
    }

    #[test]
    fn run_maps_an_empty_instance_to_the_empty_mapping() {
        let out =
            Matcher::new(small_config()).run(&empty_instance(), &mut StdRng::seed_from_u64(1));
        assert_empty_outcome(&out);
    }

    #[test]
    fn run_controlled_maps_an_empty_instance_to_the_empty_mapping() {
        let out = Matcher::new(small_config()).run_controlled(
            &empty_instance(),
            &mut StdRng::seed_from_u64(1),
            &mut NullRecorder,
            &StopToken::never(),
        );
        assert_empty_outcome(&out);
    }

    #[test]
    fn run_many_to_one_maps_an_empty_instance_to_the_empty_mapping() {
        let out = Matcher::new(small_config())
            .run_many_to_one(&empty_instance(), &mut StdRng::seed_from_u64(1));
        assert_empty_outcome(&out);
    }

    #[test]
    fn mapper_trait_delegates() {
        let inst = instance(8, 19);
        let m = Matcher::new(small_config());
        assert_eq!(m.name(), "MaTCH");
        let out = m.map(&inst, &mut StdRng::seed_from_u64(20));
        assert!(out.mapping.is_permutation());
        assert!(out.elapsed.as_nanos() > 0);
    }
}
