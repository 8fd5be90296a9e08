//! The FastMap-GA generation loop, built like the CE driver's fused
//! `FlatSampler` pipeline:
//!
//! * **Flat ping-pong buffers** — parent and offspring generations live
//!   in two reused `population × n` gene buffers; a generation
//!   allocates nothing.
//! * **Parallel fan-out** — children are produced and scored inside
//!   `match_par::parallel_fill_rows` workers. Every child `i` of
//!   generation `g` draws from its own counter-based
//!   [`SplitMix64`] stream derived from `(gen_seed, i)`, where
//!   `gen_seed` is one driver-RNG draw per generation — results are
//!   bit-identical for every thread count and chunking.
//! * **Alias roulette** — fitness-proportional selection goes through a
//!   [`AliasTable`] rebuilt in place once per generation: O(1) per
//!   parent draw instead of a linear (or binary-search) wheel.
//! * **Delta-cost mutation** — a child is fully evaluated once, right
//!   after crossover ([`exec_per_resource_into`] into the row's reused
//!   load buffer); every mutation swap then updates the per-resource
//!   loads via [`apply_swap_delta`] in O(degree) instead of calling
//!   `exec_time` from scratch. The full evaluation stays in as a
//!   `debug_assert` oracle, and the `full_evaluations` /
//!   `delta_swaps` trace counters make the claim auditable. The
//!   carried elite is never re-scored, so a run reports
//!   `pop + generations·(pop − elites)` evaluations.

use crate::chromosome::Chromosome;
use crate::engine::{argmin, CrossoverOp, GaConfig, GaOutcome, SelectionOp};
use crate::operators::{crossover_into, mutate_in_place};
use crate::variants::{order_crossover_into, tournament_select};
use match_core::{
    apply_swap_delta, build_plan, exec_per_resource_into, exec_time, record_run_end,
    record_run_start, MapperOutcome, MappingInstance, StopToken,
};
use match_eval::EvalScratch;
use match_rngutil::{AliasTable, SplitMix64};
use match_telemetry::{Event, IterEvent, PoolEvent, Recorder, SpanEvent};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Per-row worker state, allocated once and reused every generation:
/// the row's task→resource assignment (the inverse of its gene string),
/// its Eq. 1 per-resource loads, its Eq. 2 cost, and crossover scratch.
struct RowState {
    assign: Vec<usize>,
    loads: Vec<f64>,
    used: Vec<bool>,
    cost: f64,
}

impl RowState {
    fn new() -> Self {
        RowState {
            assign: Vec::new(),
            loads: Vec::new(),
            used: Vec::new(),
            cost: 0.0,
        }
    }

    /// Full evaluation of `genes` (genes\[resource\] = task): rebuild
    /// the inverse assignment and the Eq. 1 loads, take the Eq. 2 max.
    fn eval_full(&mut self, inst: &MappingInstance, genes: &[usize]) {
        // Every slot is overwritten below (genes is a permutation), so
        // growing without zeroing is enough.
        self.assign.resize(genes.len(), 0);
        for (r, &t) in genes.iter().enumerate() {
            self.assign[t] = r;
        }
        exec_per_resource_into(inst, &self.assign, &mut self.loads);
        self.cost = self.loads.iter().copied().fold(0.0, f64::max);
    }
}

/// Split a flat `rows × n` buffer into row `i`.
#[inline]
fn row_of(data: &[usize], n: usize, i: usize) -> &[usize] {
    &data[i * n..(i + 1) * n]
}

/// Per-worker buffers for the chunk-fused generation pipeline: the
/// chunk's children are crossed over first (stashing each child's RNG),
/// scored in **one** `match-eval` batch over the contiguous assignment
/// rows, then mutated with the stashed RNGs resumed — so the batch
/// kernel sees the widest batches the chunking allows without changing
/// any child's RNG stream.
struct ChunkScratch {
    eval: EvalScratch,
    assign: Vec<usize>,
    costs: Vec<f64>,
    loads: Vec<f64>,
    srngs: Vec<SplitMix64>,
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
    // `exec_per_resource` bit for bit, so the delta-cost mutation below
    // composes with batch-kernel loads exactly as with scalar ones.
    let plan = build_plan(inst);
    let backend = config.backend;

    let mut genes_cur = vec![0usize; pop * n];
    let mut genes_next = vec![0usize; pop * n];
    let mut states: Vec<RowState> = (0..pop).map(|_| RowState::new()).collect();
    let mut costs = vec![0.0f64; pop];
    let mut fitness: Vec<f64> = Vec::with_capacity(pop);
    let mut alias = AliasTable::empty();

    // Initial population: random permutations (§5.1), one stream per
    // row so the fill is thread-count invariant like every generation.
    let init_seed: u64 = rng.random();
    match_par::parallel_fill_rows(
        &mut genes_cur,
        &mut states,
        n,
        threads,
        || (),
        |(), i, row, st: &mut RowState| {
            let mut srng = SplitMix64::stream(init_seed, i as u64);
            for (k, g) in row.iter_mut().enumerate() {
                *g = k;
            }
            match_rngutil::shuffle(row, &mut srng);
            st.eval_full(inst, row);
        },
    );
    for (c, st) in costs.iter_mut().zip(&states) {
        *c = st.cost;
    }
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
        let delta_swaps = AtomicU64::new(0);
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
        let plan_ref = &plan;
        let timings = match_par::parallel_fill_rows_chunked(
            &mut genes_next,
            &mut states,
            n,
            threads,
            || ChunkScratch {
                eval: plan_ref.new_scratch(),
                assign: Vec::new(),
                costs: Vec::new(),
                loads: Vec::new(),
                srngs: Vec::new(),
            },
            |cs: &mut ChunkScratch, base, chunk_genes, chunk_states: &mut [RowState]| {
                let rows = chunk_states.len();
                // Elite rows sit at the front of the population, so
                // within a chunk they form a prefix; they survive
                // unconditionally, consume no RNG and no evaluation.
                let skip = elitism.saturating_sub(base).min(rows);
                let children = rows - skip;
                let t0 = traced.then(Instant::now);

                // Phase A — selection + crossover for every child in
                // the chunk, straight into its row; the child's inverse
                // assignment lands contiguously in the chunk buffer and
                // its RNG is stashed so mutation resumes the exact
                // stream after the batch evaluation.
                cs.srngs.clear();
                cs.assign.resize(children * n, 0);
                for (k, st) in chunk_states.iter_mut().enumerate() {
                    let row = &mut chunk_genes[k * n..(k + 1) * n];
                    if k < skip {
                        row.copy_from_slice(best_ref);
                        st.cost = best_cost;
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
                                &mut st.used,
                            ),
                            CrossoverOp::Order => order_crossover_into(
                                row_of(parents, n, p1),
                                row_of(parents, n, p2),
                                row,
                                &mut st.used,
                                &mut srng,
                            ),
                        }
                        crossovers.fetch_add(1, Ordering::Relaxed);
                    } else {
                        row.copy_from_slice(row_of(parents, n, p1));
                    }
                    let assign = &mut cs.assign[(k - skip) * n..(k - skip + 1) * n];
                    for (r, &t) in row.iter().enumerate() {
                        assign[t] = r;
                    }
                    st.assign.clear();
                    st.assign.extend_from_slice(assign);
                    cs.srngs.push(srng);
                }

                // Phase B — the one full Eq. 1/Eq. 2 evaluation each
                // child pays, batched across the whole chunk through
                // the SoA kernel (loads are kept: mutation needs them).
                let t1 = traced.then(Instant::now);
                cs.costs.resize(children, 0.0);
                cs.loads.resize(children * plan_ref.n_resources(), 0.0);
                plan_ref.eval_batch(
                    backend,
                    &cs.assign,
                    &mut cs.costs,
                    Some(&mut cs.loads),
                    &mut cs.eval,
                );
                let t2 = traced.then(Instant::now);

                // Phase C — mutation with the stashed RNGs resumed:
                // every gene swap is mirrored into the row's assignment
                // and per-resource loads in O(degree), no `exec_time`
                // from scratch.
                let n_r = plan_ref.n_resources();
                for (k, st) in chunk_states.iter_mut().enumerate().skip(skip) {
                    let row = &mut chunk_genes[k * n..(k + 1) * n];
                    let c = k - skip;
                    st.cost = cs.costs[c];
                    st.loads.clear();
                    st.loads
                        .extend_from_slice(&cs.loads[c * n_r..(c + 1) * n_r]);
                    let mut srng = cs.srngs[c].clone();
                    let (assign, loads) = (&mut st.assign, &mut st.loads);
                    let swaps = mutate_in_place(
                        config.mutation_op,
                        config.mutation_prob,
                        row,
                        &mut srng,
                        |ta, tb| apply_swap_delta(inst, assign, loads, ta, tb),
                    );
                    if swaps > 0 {
                        st.cost = st.loads.iter().copied().fold(0.0, f64::max);
                        delta_swaps.fetch_add(swaps, Ordering::Relaxed);
                        mutations.fetch_add(1, Ordering::Relaxed);
                    }
                    debug_assert!(
                        {
                            let fresh = exec_time(inst, &st.assign);
                            (st.cost - fresh).abs() <= 1e-9 * (1.0 + fresh.abs())
                        },
                        "delta-cost loads drifted from the Eq. 1 oracle"
                    );
                }

                if let (Some(t0), Some(t1), Some(t2)) = (t0, t1, t2) {
                    let t3 = Instant::now();
                    vary_ns.fetch_add(((t1 - t0) + (t3 - t2)).as_nanos() as u64, Ordering::Relaxed);
                    eval_ns.fetch_add((t2 - t1).as_nanos() as u64, Ordering::Relaxed);
                }
            },
        );
        let children = (pop - elitism) as u64;
        evaluations += children;

        for (c, st) in costs.iter_mut().zip(&states) {
            *c = st.cost;
        }
        std::mem::swap(&mut genes_cur, &mut genes_next);

        best_idx = argmin(&costs);
        if costs[best_idx] < best_cost {
            best_cost = costs[best_idx];
            best_genes.clear();
            best_genes.extend_from_slice(row_of(&genes_cur, n, best_idx));
        }
        best_per_generation.push(best_cost);

        if let (Some(gen_start), Some(region_start)) = (gen_start, region_start) {
            // Split the fused region's wall clock between variation
            // (selection, crossover, mutation deltas) and evaluation in
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
                name: "delta_swaps".into(),
                value: delta_swaps.load(Ordering::Relaxed),
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
    fn mutation_pays_no_full_evaluations() {
        // The trace accounts for every full Eq. 1 evaluation: pop at
        // init plus (pop - elite) per generation. Thousands of mutation
        // swaps happen on top (delta_swaps), so if mutation re-evaluated
        // from scratch the full_evaluations counter could not balance.
        let inst = instance(10, 7);
        let mut rec = MemoryRecorder::new();
        let out = FastMapGa::new(config(2)).run_controlled(
            &inst,
            &mut StdRng::seed_from_u64(8),
            &mut rec,
            &StopToken::never(),
        );
        assert_eq!(rec.counter("full_evaluations"), out.outcome.evaluations);
        assert_eq!(rec.counter("full_evaluations"), 60 + 60 * 59);
        assert!(
            rec.counter("delta_swaps") > 0,
            "swap mutation must go through the delta path"
        );
        assert!(rec.counter("crossovers") > 0);
    }
}
