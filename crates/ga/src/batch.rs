//! The FastMap-GA generation loop, built like the CE driver's fused
//! `FlatSampler` pipeline:
//!
//! * **Flat ping-pong buffers** — parent and offspring generations live
//!   in two reused `population × n` gene buffers, their Eq. 2 costs in
//!   two reused `population` buffers. Each chunk's scratch (kernel
//!   scratch, inverse assignments, crossover marks) is allocated anew
//!   every generation.
//! * **Parallel fan-out** — children are produced and scored inside
//!   `match_par::parallel_fill_rows_chunked` workers. Every child `i` of
//!   generation `g` draws from its own counter-based
//!   [`SplitMix64`] stream derived from `(gen_seed, i)`, where
//!   `gen_seed` is one driver-RNG draw per generation — results are
//!   bit-identical for every thread count and chunking.
//! * **Alias roulette** — fitness-proportional selection goes through a
//!   [`AliasTable`] rebuilt in place once per generation: O(1) per
//!   parent draw instead of a linear (or binary-search) wheel.
//! * **Vary first, score once** — each chunk selects, crosses over and
//!   mutates all of its children, inverting each final gene string into
//!   its task→resource assignment, then scores them in one
//!   `InstancePlan::eval_batch` pass. Mutation draws depend only on
//!   the child's stream and genes, never on costs, so scoring after
//!   mutation leaves every stream unchanged, and the reported cost is
//!   exactly the Eq. 1/Eq. 2 value of the returned mapping. The initial
//!   population goes through the same pass. The carried elite is never
//!   re-scored, so a run makes `pop + generations·(pop − elites)` full
//!   evaluations, which the `full_evaluations` trace counter reports.

use crate::chromosome::Chromosome;
use crate::engine::{argmin, CrossoverOp, GaConfig, GaOutcome, SelectionOp};
use crate::operators::{crossover_into, mutate_in_place};
use crate::variants::{order_crossover_into, tournament_select};
use match_core::{
    build_plan, record_run_end, record_run_start, EvalBackend, MapperOutcome, MappingInstance,
    StopToken,
};
use match_eval::{EvalScratch, InstancePlan};
use match_rngutil::{AliasTable, SplitMix64};
use match_telemetry::{Event, IterEvent, PoolEvent, Recorder, SpanEvent};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Split a flat `rows × n` buffer into row `i`.
#[inline]
fn row_of(data: &[usize], n: usize, i: usize) -> &[usize] {
    &data[i * n..(i + 1) * n]
}

/// Per-worker buffers for one chunk of rows: the chunk's inverse
/// assignments (contiguous, as the batch kernel wants them), the kernel
/// scratch, and the crossover `used` scratch.
struct ChunkScratch {
    eval: EvalScratch,
    assign: Vec<usize>,
    used: Vec<bool>,
}

impl ChunkScratch {
    fn new(plan: &InstancePlan) -> Self {
        ChunkScratch {
            eval: plan.new_scratch(),
            assign: Vec::new(),
            used: Vec::new(),
        }
    }

    /// Store the task→resource assignment of gene string `genes`
    /// (`genes[resource] = task`) as the chunk's assignment row `slot`.
    fn invert(&mut self, slot: usize, genes: &[usize]) {
        let n = genes.len();
        // Every slot is overwritten below (genes is a permutation), so
        // growing without zeroing is enough.
        if self.assign.len() < (slot + 1) * n {
            self.assign.resize((slot + 1) * n, 0);
        }
        let assign = &mut self.assign[slot * n..(slot + 1) * n];
        for (r, &t) in genes.iter().enumerate() {
            assign[t] = r;
        }
    }

    /// The full Eq. 1/Eq. 2 evaluation of the first `costs.len()`
    /// assignment rows, all in one batch.
    fn score(&mut self, plan: &InstancePlan, backend: EvalBackend, costs: &mut [f64]) {
        let rows = &self.assign[..costs.len() * plan.n_tasks()];
        plan.eval_batch(backend, rows, costs, None, &mut self.eval);
    }
}

/// The generation loop behind [`crate::FastMapGa::run_controlled`]:
/// deterministic per seed and bit-identical for every thread count.
pub(crate) fn run_batched(
    config: &GaConfig,
    inst: &MappingInstance,
    rng: &mut StdRng,
    recorder: &mut dyn Recorder,
    stop: &StopToken,
) -> GaOutcome {
    record_run_start(recorder, "FastMap-GA", inst);
    let traced = recorder.enabled();
    let start = Instant::now();
    let n = inst.n_tasks();
    let pop = config.population;
    let elitism = usize::from(config.elitism);
    let threads = config.threads;
    // SoA evaluation plan, built once per run; both backends reproduce
    // `exec_per_resource` bit for bit, so every cost is exactly
    // `exec_time` of its mapping.
    let plan = build_plan(inst);
    let backend = config.backend;

    let mut genes_cur = vec![0usize; pop * n];
    let mut genes_next = vec![0usize; pop * n];
    let mut costs = vec![0.0f64; pop];
    let mut costs_next = vec![0.0f64; pop];
    let mut fitness: Vec<f64> = Vec::with_capacity(pop);
    let mut alias = AliasTable::empty();

    // Initial population: random permutations (§5.1), one stream per
    // row so the fill is thread-count invariant like every generation.
    let init_seed: u64 = rng.random();
    match_par::parallel_fill_rows_chunked(
        &mut genes_cur,
        &mut costs,
        n,
        threads,
        || ChunkScratch::new(&plan),
        |cs: &mut ChunkScratch, base, chunk_genes, chunk_costs: &mut [f64]| {
            for k in 0..chunk_costs.len() {
                let row = &mut chunk_genes[k * n..(k + 1) * n];
                let mut srng = SplitMix64::stream(init_seed, (base + k) as u64);
                for (g, slot) in row.iter_mut().enumerate() {
                    *slot = g;
                }
                match_rngutil::shuffle(row, &mut srng);
                cs.invert(k, row);
            }
            cs.score(&plan, backend, chunk_costs);
        },
    );
    let mut evaluations = pop as u64;
    if traced {
        recorder.record(Event::Counter {
            name: "full_evaluations".into(),
            value: pop as u64,
        });
    }

    let mut best_idx = argmin(&costs);
    let mut best_genes = row_of(&genes_cur, n, best_idx).to_vec();
    let mut best_cost = costs[best_idx];
    let mut best_per_generation = Vec::with_capacity(config.generations);

    let mut generations_run = 0;
    for gen in 0..config.generations {
        let gen_start = traced.then(Instant::now);

        // Selection preprocessing: fitness Ψ = K / Exec, alias table
        // rebuilt in place (roulette only; tournament reads costs
        // directly). One O(pop) build amortised over O(1) draws.
        let select_start = traced.then(Instant::now);
        if config.selection == SelectionOp::Roulette {
            fitness.clear();
            fitness.extend(costs.iter().map(|&c| {
                if c > 0.0 {
                    config.fitness_k / c
                } else {
                    f64::MAX
                }
            }));
            let ok = alias.rebuild(&fitness);
            assert!(ok, "positive costs give positive fitness");
        }
        let select_ns = select_start.map_or(0, |t| t.elapsed().as_nanos() as u64);

        // One driver-RNG draw per generation; child i below is a pure
        // function of (parents, gen_seed, i), independent of threads.
        let gen_seed: u64 = rng.random();

        let crossovers = AtomicU64::new(0);
        let mutations = AtomicU64::new(0);
        let mutation_swaps = AtomicU64::new(0);
        let vary_ns = AtomicU64::new(0);
        let eval_ns = AtomicU64::new(0);

        let region_start = traced.then(Instant::now);
        let parents = &genes_cur;
        let parent_costs = &costs;
        let alias_ref = &alias;
        let best_ref = &best_genes;
        let select = |srng: &mut SplitMix64| -> usize {
            match config.selection {
                SelectionOp::Roulette => alias_ref.sample(srng),
                SelectionOp::Tournament(k) => tournament_select(parent_costs, k, srng),
            }
        };
        let timings = match_par::parallel_fill_rows_chunked(
            &mut genes_next,
            &mut costs_next,
            n,
            threads,
            || ChunkScratch::new(&plan),
            |cs: &mut ChunkScratch, base, chunk_genes, chunk_costs: &mut [f64]| {
                let rows = chunk_costs.len();
                // Elite rows sit at the front of the population, so
                // within a chunk they form a prefix; they survive
                // unconditionally, consume no RNG and no evaluation.
                let skip = elitism.saturating_sub(base).min(rows);
                let t0 = traced.then(Instant::now);

                // Phase A — selection, crossover and mutation for every
                // child in the chunk, straight into its row; the child's
                // inverse assignment lands contiguously in the chunk
                // buffer.
                for k in 0..rows {
                    let row = &mut chunk_genes[k * n..(k + 1) * n];
                    if k < skip {
                        row.copy_from_slice(best_ref);
                        chunk_costs[k] = best_cost;
                        continue;
                    }
                    let mut srng = SplitMix64::stream(gen_seed, (base + k) as u64);
                    let p1 = select(&mut srng);
                    if srng.random::<f64>() < config.crossover_prob {
                        let p2 = select(&mut srng);
                        match config.crossover_op {
                            CrossoverOp::SinglePointRepair => crossover_into(
                                row_of(parents, n, p1),
                                row_of(parents, n, p2),
                                row,
                                &mut cs.used,
                            ),
                            CrossoverOp::Order => order_crossover_into(
                                row_of(parents, n, p1),
                                row_of(parents, n, p2),
                                row,
                                &mut cs.used,
                                &mut srng,
                            ),
                        }
                        crossovers.fetch_add(1, Ordering::Relaxed);
                    } else {
                        row.copy_from_slice(row_of(parents, n, p1));
                    }
                    let swaps =
                        mutate_in_place(config.mutation_op, config.mutation_prob, row, &mut srng);
                    if swaps > 0 {
                        mutation_swaps.fetch_add(swaps, Ordering::Relaxed);
                        mutations.fetch_add(1, Ordering::Relaxed);
                    }
                    cs.invert(k - skip, row);
                }

                // Phase B — the one full Eq. 1/Eq. 2 evaluation each
                // child pays, batched across the whole chunk through
                // the SoA kernel.
                let t1 = traced.then(Instant::now);
                cs.score(&plan, backend, &mut chunk_costs[skip..]);

                if let (Some(t0), Some(t1)) = (t0, t1) {
                    vary_ns.fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
                    eval_ns.fetch_add(t1.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            },
        );
        let children = (pop - elitism) as u64;
        evaluations += children;

        std::mem::swap(&mut genes_cur, &mut genes_next);
        std::mem::swap(&mut costs, &mut costs_next);

        best_idx = argmin(&costs);
        if costs[best_idx] < best_cost {
            best_cost = costs[best_idx];
            best_genes.clear();
            best_genes.extend_from_slice(row_of(&genes_cur, n, best_idx));
        }
        best_per_generation.push(best_cost);

        if let (Some(gen_start), Some(region_start)) = (gen_start, region_start) {
            // Split the fused region's wall clock between variation
            // (selection, crossover, mutation) and evaluation in
            // proportion to worker-accumulated time, mirroring the CE
            // driver, so `matchctl report` phase budgets stay honest.
            let wall = region_start.elapsed().as_nanos() as u64;
            let v = vary_ns.load(Ordering::Relaxed);
            let e = eval_ns.load(Ordering::Relaxed);
            let vary_share = if v + e == 0 {
                0
            } else {
                (wall as u128 * v as u128 / (v + e) as u128) as u64
            };
            recorder.record(Event::Span(SpanEvent {
                name: "select".into(),
                iter: gen as u64,
                wall_ns: select_ns,
            }));
            recorder.record(Event::Span(SpanEvent {
                name: "vary".into(),
                iter: gen as u64,
                wall_ns: vary_share,
            }));
            recorder.record(Event::Span(SpanEvent {
                name: "evaluate".into(),
                iter: gen as u64,
                wall_ns: wall - vary_share,
            }));
            for t in &timings {
                recorder.record(Event::Pool(PoolEvent {
                    iter: gen as u64,
                    chunk: t.chunk,
                    len: t.len,
                    wall_ns: t.wall_ns,
                }));
            }
            recorder.record(Event::Counter {
                name: "crossovers".into(),
                value: crossovers.load(Ordering::Relaxed),
            });
            recorder.record(Event::Counter {
                name: "mutations".into(),
                value: mutations.load(Ordering::Relaxed),
            });
            recorder.record(Event::Counter {
                name: "full_evaluations".into(),
                value: children,
            });
            recorder.record(Event::Counter {
                name: "mutation_swaps".into(),
                value: mutation_swaps.load(Ordering::Relaxed),
            });
            recorder.record(Event::Iter(IterEvent {
                iter: gen as u64,
                best: best_cost,
                mean: costs.iter().sum::<f64>() / pop as f64,
                gamma: None,
                elite_size: elitism as u64,
                wall_ns: gen_start.elapsed().as_nanos() as u64,
            }));
        }
        generations_run = gen + 1;
        // Cooperative cancellation: at least one generation always
        // completes, so a cancelled run still returns a valid
        // permutation and its true cost.
        if stop.should_stop() {
            break;
        }
    }

    let result = GaOutcome {
        outcome: MapperOutcome {
            mapping: Chromosome::new(best_genes).to_mapping(),
            cost: best_cost,
            evaluations,
            iterations: generations_run,
            elapsed: start.elapsed(),
        },
        best_per_generation,
    };
    record_run_end(recorder, &result.outcome);
    result
}

#[cfg(test)]
mod tests {
    use crate::engine::{FastMapGa, GaConfig};
    use match_core::{MappingInstance, StopToken};
    use match_graph::gen::InstanceGenerator;
    use match_telemetry::MemoryRecorder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance(n: usize, seed: u64) -> MappingInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        MappingInstance::from_pair(&InstanceGenerator::paper_family(n).generate(&mut rng))
    }

    fn config(threads: usize) -> GaConfig {
        GaConfig {
            population: 60,
            generations: 60,
            threads,
            ..GaConfig::paper_default()
        }
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let inst = instance(12, 3);
        let runs: Vec<_> = [1usize, 2, 8]
            .into_iter()
            .map(|threads| {
                FastMapGa::new(config(threads)).run(&inst, &mut StdRng::seed_from_u64(4))
            })
            .collect();
        for other in &runs[1..] {
            assert_eq!(runs[0].outcome.mapping, other.outcome.mapping);
            assert_eq!(runs[0].outcome.cost, other.outcome.cost);
            assert_eq!(runs[0].best_per_generation, other.best_per_generation);
            assert_eq!(runs[0].outcome.evaluations, other.outcome.evaluations);
        }
    }

    #[test]
    fn eval_backends_produce_identical_runs() {
        use match_core::EvalBackend;
        let inst = instance(12, 3);
        let run = |backend: EvalBackend, threads: usize| {
            FastMapGa::new(GaConfig {
                backend,
                ..config(threads)
            })
            .run(&inst, &mut StdRng::seed_from_u64(4))
        };
        let base = run(EvalBackend::Scalar, 1);
        for backend in [EvalBackend::Simd, EvalBackend::Auto] {
            for threads in [1, 2, 8] {
                let other = run(backend, threads);
                assert_eq!(
                    base.outcome.mapping, other.outcome.mapping,
                    "{backend:?} threads={threads}"
                );
                assert_eq!(
                    base.outcome.cost.to_bits(),
                    other.outcome.cost.to_bits(),
                    "{backend:?} threads={threads}"
                );
                assert_eq!(
                    base.best_per_generation, other.best_per_generation,
                    "{backend:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn one_full_evaluation_per_child() {
        // Every child is scored once, after mutation; the carried elite
        // is never re-scored. Mutation still swaps genes on top.
        let inst = instance(10, 7);
        let mut rec = MemoryRecorder::new();
        let out = FastMapGa::new(config(2)).run_controlled(
            &inst,
            &mut StdRng::seed_from_u64(8),
            &mut rec,
            &StopToken::never(),
        );
        assert_eq!(rec.counter("full_evaluations"), 60 + 60 * 59);
        assert_eq!(out.outcome.evaluations, 60 + 60 * 59);
        assert!(rec.counter("mutation_swaps") > 0);
        assert!(rec.counter("crossovers") > 0);
    }

    #[test]
    fn real_valued_weights_report_the_exact_cost() {
        // §5.2 weights × 0.1 + 1/3: Eq. 1 sums are no longer exact in
        // f64, so only a full evaluation of the final mapping gives the
        // oracle's bits.
        use match_core::exec_time;
        use match_graph::{Graph, ResourceGraph, TaskGraph};
        fn reweighted(g: &Graph) -> Graph {
            let f = |w: f64| w * 0.1 + 1.0 / 3.0;
            let mut out =
                Graph::from_node_weights(g.node_weights().iter().map(|&w| f(w)).collect()).unwrap();
            for (a, b, w) in g.edges() {
                out.add_edge(a, b, f(w)).unwrap();
            }
            out
        }
        let pair = InstanceGenerator::paper_family(16).generate(&mut StdRng::seed_from_u64(5));
        let tig = TaskGraph::new(reweighted(pair.tig.graph())).unwrap();
        let res = ResourceGraph::new(reweighted(pair.resources.graph())).unwrap();
        let inst = MappingInstance::new(&tig, &res);
        for seed in 0..4 {
            let out = FastMapGa::new(config(1)).run(&inst, &mut StdRng::seed_from_u64(seed));
            let mapping = out.outcome.mapping.as_slice();
            assert_eq!(
                out.outcome.cost.to_bits(),
                exec_time(&inst, mapping).to_bits(),
                "seed {seed}"
            );
        }
    }
}
