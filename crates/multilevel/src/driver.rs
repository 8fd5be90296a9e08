//! The multilevel driver: coarsen, solve the coarsest level with an
//! existing paper-scale heuristic, then project and refine level by
//! level.
//!
//! Levels are numbered `L0` (the input instance) up to `L<depth>` (the
//! coarsest); telemetry emits `coarsen`, `solve@L<depth>` and one
//! `refine@L<k>` span per descent level, plus one `Iter` event per
//! refinement pass, so `matchctl report` shows the phase budget of the
//! hierarchy and the per-pass best curve feeds the golden-trajectory
//! harness.
//!
//! RNG discipline: one `next_u64` is drawn from the caller's RNG as the
//! run master seed; the coarse solve runs on `rng_from(master, 1)` and
//! every `(level, pass)` derives its own seed by label. Nothing else
//! touches the caller's stream, and no phase's randomness depends on
//! thread count, so whole runs are bit-identical across 1/2/8 threads.

use crate::coarsen::coarsen;
use crate::project::project;
use crate::refine::refine_pass;
use match_core::{
    exec_per_resource, exec_time, record_run_end, record_run_start, EvalBackend, Mapper,
    MapperOutcome, Mapping, MappingInstance, MatchConfig, Matcher, MultilevelConfig, StopToken,
};
use match_ga::{FastMapGa, GaConfig};
use match_rngutil::{derive_seed_str, rng_from};
use match_telemetry::{Event, IterEvent, NullRecorder, Recorder, Span};
use rand::rngs::StdRng;
use rand::RngCore;
use std::time::Instant;

/// Which existing heuristic solves the coarsest instance.
///
/// Both arms are bit-identical across thread counts, which the driver's
/// own guarantee relies on. The inner run is never traced — the driver
/// emits its own telemetry envelope.
#[derive(Debug, Clone)]
pub enum CoarseSolver {
    /// MaTCH CE (the paper's solver) with this configuration.
    Ce(MatchConfig),
    /// FastMap-GA with this configuration. Rectangular coarsest
    /// instances fall back to CE's many-to-one model (the GA's
    /// permutation encoding needs a square instance).
    Ga(GaConfig),
}

impl CoarseSolver {
    /// Default coarse solver: batched CE with the paper configuration.
    pub fn default_ce() -> Self {
        CoarseSolver::Ce(MatchConfig::default())
    }

    fn solve(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        stop: &StopToken,
        backend: EvalBackend,
    ) -> MapperOutcome {
        match self {
            CoarseSolver::Ce(cfg) => {
                let matcher = Matcher::new(MatchConfig {
                    backend,
                    ..cfg.clone()
                });
                if inst.is_square() {
                    matcher
                        .run_controlled(inst, rng, &mut NullRecorder, stop)
                        .into_mapper_outcome()
                } else {
                    matcher.run_many_to_one(inst, rng).into_mapper_outcome()
                }
            }
            CoarseSolver::Ga(cfg) => {
                if inst.is_square() {
                    FastMapGa::new(GaConfig {
                        backend,
                        ..cfg.clone()
                    })
                    .run_controlled(inst, rng, &mut NullRecorder, stop)
                    .outcome
                } else {
                    Matcher::new(MatchConfig {
                        backend,
                        ..MatchConfig::default()
                    })
                    .run_many_to_one(inst, rng)
                    .into_mapper_outcome()
                }
            }
        }
    }
}

/// The multilevel coarsen–solve–refine mapper.
pub struct MultilevelMapper {
    config: MultilevelConfig,
    coarse: CoarseSolver,
}

impl MultilevelMapper {
    /// A driver with the given knobs and the default CE coarse solver.
    pub fn new(config: MultilevelConfig) -> Self {
        MultilevelMapper {
            config,
            coarse: CoarseSolver::default_ce(),
        }
    }

    /// Replace the coarse solver.
    pub fn with_coarse_solver(mut self, coarse: CoarseSolver) -> Self {
        self.coarse = coarse;
        self
    }

    /// The driver's configuration.
    pub fn config(&self) -> &MultilevelConfig {
        &self.config
    }

    fn solve_impl(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        recorder: &mut dyn Recorder,
        stop: &StopToken,
    ) -> MapperOutcome {
        self.config.validate();
        let start = Instant::now();
        let master = rng.next_u64();
        record_run_start(recorder, "multilevel", inst);

        let span = Span::start("coarsen", 0);
        let hier = coarsen(inst, self.config.coarsen_target);
        span.finish(recorder);

        let depth = hier.depth();
        let span = Span::start(format!("solve@L{depth}"), 0);
        let mut coarse_rng = rng_from(master, 1);
        let coarse_out = self.coarse.solve(
            hier.coarsest(inst),
            &mut coarse_rng,
            stop,
            self.config.backend,
        );
        span.finish(recorder);

        let mut evaluations = coarse_out.evaluations;
        let mut iterations = 0usize;
        let mut iter_no = 0u64;
        let mut assign: Vec<usize> = coarse_out.mapping.as_slice().to_vec();

        if depth == 0 {
            self.refine_level(
                inst,
                &mut assign,
                master,
                0,
                recorder,
                stop,
                &mut evaluations,
                &mut iterations,
                &mut iter_no,
            );
        } else {
            for i in (0..depth).rev() {
                let fine_inst = if i == 0 {
                    inst
                } else {
                    &hier.levels[i - 1].inst
                };
                assign = project(&hier.levels[i], fine_inst.n_resources(), &assign);
                self.refine_level(
                    fine_inst,
                    &mut assign,
                    master,
                    i,
                    recorder,
                    stop,
                    &mut evaluations,
                    &mut iterations,
                    &mut iter_no,
                );
            }
        }

        let cost = exec_time(inst, &assign);
        let outcome = MapperOutcome {
            mapping: Mapping::new(assign),
            cost,
            evaluations,
            iterations,
            elapsed: start.elapsed(),
        };
        record_run_end(recorder, &outcome);
        outcome
    }

    #[allow(clippy::too_many_arguments)]
    fn refine_level(
        &self,
        inst: &MappingInstance,
        assign: &mut [usize],
        master: u64,
        level: usize,
        recorder: &mut dyn Recorder,
        stop: &StopToken,
        evaluations: &mut u64,
        iterations: &mut usize,
        iter_no: &mut u64,
    ) {
        if self.config.refine_passes == 0 || stop.should_stop() {
            return;
        }
        let square = inst.is_square();
        let mut inv = vec![0usize; if square { inst.n_resources() } else { 0 }];
        if square {
            for (t, &s) in assign.iter().enumerate() {
                inv[s] = t;
            }
        }
        let mut loads = exec_per_resource(inst, assign);
        let span = Span::start(format!("refine@L{level}"), *iter_no);
        for pass in 0..self.config.refine_passes {
            if stop.should_stop() {
                break;
            }
            let pass_seed = derive_seed_str(master, &format!("refine/L{level}/p{pass}"));
            let pass_start = Instant::now();
            let stats = refine_pass(
                inst,
                assign,
                &mut inv,
                &mut loads,
                square,
                pass_seed,
                self.config.refine_candidates,
                self.config.threads,
            );
            *evaluations += stats.evaluations;
            *iterations += 1;
            if recorder.enabled() {
                recorder.record(Event::Iter(IterEvent {
                    iter: *iter_no,
                    best: stats.best,
                    mean: stats.best,
                    gamma: None,
                    elite_size: stats.accepted as u64,
                    wall_ns: pass_start.elapsed().as_nanos() as u64,
                }));
            }
            *iter_no += 1;
            if stats.accepted == 0 {
                break;
            }
        }
        span.finish(recorder);
    }
}

impl Mapper for MultilevelMapper {
    fn name(&self) -> &str {
        "multilevel"
    }

    fn map(&self, inst: &MappingInstance, rng: &mut StdRng) -> MapperOutcome {
        self.solve_impl(inst, rng, &mut NullRecorder, &StopToken::never())
    }

    fn map_traced(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        recorder: &mut dyn Recorder,
    ) -> MapperOutcome {
        self.solve_impl(inst, rng, recorder, &StopToken::never())
    }

    fn map_controlled(
        &self,
        inst: &MappingInstance,
        rng: &mut StdRng,
        recorder: &mut dyn Recorder,
        stop: &StopToken,
    ) -> MapperOutcome {
        self.solve_impl(inst, rng, recorder, stop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_graph::gen::InstanceGenerator;
    use match_telemetry::MemoryRecorder;
    use rand::SeedableRng;

    fn paper_inst(n: usize, seed: u64) -> MappingInstance {
        MappingInstance::from_pair(
            &InstanceGenerator::paper_family(n).generate(&mut StdRng::seed_from_u64(seed)),
        )
    }

    fn mapper() -> MultilevelMapper {
        MultilevelMapper::new(MultilevelConfig {
            coarsen_target: 12,
            ..MultilevelConfig::default()
        })
    }

    #[test]
    fn solves_beyond_paper_scale_to_a_valid_permutation() {
        let inst = paper_inst(40, 31);
        let out = mapper().map(&inst, &mut StdRng::seed_from_u64(5));
        out.mapping.validate(&inst).expect("valid bijection");
        assert_eq!(
            out.cost.to_bits(),
            exec_time(&inst, out.mapping.as_slice()).to_bits()
        );
        assert!(out.evaluations > 0);
        assert!(out.iterations > 0, "refinement passes must be counted");
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let inst = paper_inst(36, 32);
        let outs: Vec<MapperOutcome> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                MultilevelMapper::new(MultilevelConfig {
                    coarsen_target: 10,
                    threads,
                    ..MultilevelConfig::default()
                })
                .map(&inst, &mut StdRng::seed_from_u64(6))
            })
            .collect();
        for o in &outs[1..] {
            assert_eq!(o.mapping.as_slice(), outs[0].mapping.as_slice());
            assert_eq!(o.cost.to_bits(), outs[0].cost.to_bits());
            assert_eq!(o.evaluations, outs[0].evaluations);
        }
    }

    #[test]
    fn eval_backends_produce_identical_multilevel_runs() {
        // The coarse solve is the only stage using the batch kernels
        // (refinement scores candidates via O(degree) deltas), and the
        // coarse link matrices carry non-zero diagonals — this pins the
        // masked lane variant to the scalar trajectory end to end.
        let inst = paper_inst(36, 32);
        let run = |backend: EvalBackend, threads: usize| {
            MultilevelMapper::new(MultilevelConfig {
                coarsen_target: 10,
                threads,
                backend,
                ..MultilevelConfig::default()
            })
            .map(&inst, &mut StdRng::seed_from_u64(6))
        };
        let base = run(EvalBackend::Scalar, 1);
        for backend in [EvalBackend::Simd, EvalBackend::Auto] {
            for threads in [1, 2, 8] {
                let other = run(backend, threads);
                assert_eq!(
                    other.mapping.as_slice(),
                    base.mapping.as_slice(),
                    "{backend:?} threads={threads}"
                );
                assert_eq!(
                    other.cost.to_bits(),
                    base.cost.to_bits(),
                    "{backend:?} threads={threads}"
                );
                assert_eq!(other.evaluations, base.evaluations);
            }
        }
    }

    #[test]
    fn deterministic_per_seed_and_seed_sensitive() {
        let inst = paper_inst(30, 33);
        let m = mapper();
        let a = m.map(&inst, &mut StdRng::seed_from_u64(7));
        let b = m.map(&inst, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.mapping.as_slice(), b.mapping.as_slice());
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        let c = m.map(&inst, &mut StdRng::seed_from_u64(8));
        assert!(
            c.mapping.as_slice() != a.mapping.as_slice() || c.cost != a.cost,
            "different seeds should explore differently"
        );
    }

    #[test]
    fn handles_rectangular_instances() {
        let pair = InstanceGenerator::paper_family(22).generate(&mut StdRng::seed_from_u64(34));
        let plat = InstanceGenerator::paper_family(6)
            .generate(&mut StdRng::seed_from_u64(35))
            .resources;
        let inst = MappingInstance::new(&pair.tig, &plat);
        let out = mapper().map(&inst, &mut StdRng::seed_from_u64(9));
        out.mapping
            .validate(&inst)
            .expect("valid many-to-one mapping");
        assert_eq!(
            out.cost.to_bits(),
            exec_time(&inst, out.mapping.as_slice()).to_bits()
        );
    }

    #[test]
    fn small_instances_skip_coarsening_but_still_refine() {
        let inst = paper_inst(8, 36);
        let mut rec = MemoryRecorder::new();
        let out = mapper().map_traced(&inst, &mut StdRng::seed_from_u64(10), &mut rec);
        out.mapping.validate(&inst).expect("valid");
        let spans: Vec<String> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Span(s) => Some(s.name.to_string()),
                _ => None,
            })
            .collect();
        assert!(spans.iter().any(|s| s == "coarsen"));
        assert!(spans.iter().any(|s| s == "solve@L0"));
        assert!(spans.iter().any(|s| s == "refine@L0"));
    }

    #[test]
    fn telemetry_names_every_level() {
        let inst = paper_inst(40, 37);
        let mut rec = MemoryRecorder::new();
        let m = MultilevelMapper::new(MultilevelConfig {
            coarsen_target: 10,
            ..MultilevelConfig::default()
        });
        let out = m.map_traced(&inst, &mut StdRng::seed_from_u64(11), &mut rec);
        // 40 -> 20 -> 10: two coarse levels.
        let spans: Vec<String> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Span(s) => Some(s.name.to_string()),
                _ => None,
            })
            .collect();
        for expected in ["coarsen", "solve@L2", "refine@L1", "refine@L0"] {
            assert!(
                spans.iter().any(|s| s == expected),
                "missing span {expected} in {spans:?}"
            );
        }
        let iters = rec
            .events()
            .iter()
            .filter(|e| matches!(e, Event::Iter(_)))
            .count();
        assert_eq!(iters, out.iterations, "one Iter event per refine pass");
        // Tracing must not perturb the trajectory.
        let untraced = m.map(&inst, &mut StdRng::seed_from_u64(11));
        assert_eq!(untraced.mapping.as_slice(), out.mapping.as_slice());
        assert_eq!(untraced.cost.to_bits(), out.cost.to_bits());
    }

    #[test]
    fn ga_coarse_solver_works() {
        let inst = paper_inst(30, 38);
        let m = MultilevelMapper::new(MultilevelConfig {
            coarsen_target: 12,
            ..MultilevelConfig::default()
        })
        .with_coarse_solver(CoarseSolver::Ga(GaConfig {
            population: 60,
            generations: 20,
            ..GaConfig::paper_default()
        }));
        let out = m.map(&inst, &mut StdRng::seed_from_u64(12));
        out.mapping.validate(&inst).expect("valid");
    }

    #[test]
    fn cancellation_still_returns_a_valid_fine_mapping() {
        use match_core::StopFlag;
        let inst = paper_inst(40, 39);
        let flag = StopFlag::new();
        flag.trip();
        let out = mapper().map_controlled(
            &inst,
            &mut StdRng::seed_from_u64(13),
            &mut NullRecorder,
            &StopToken::with_flag(flag),
        );
        out.mapping
            .validate(&inst)
            .expect("projection must complete even when cancelled");
    }
}
