//! The offline workloads: closed-loop solves on one solver thread.
//!
//! * `solve-paper` — the paper's experiment: MaTCH CE (batched sampler
//!   pinned) and FastMap-GA (`GaConfig::batched_paper`) on paper-family
//!   square instances at n = 16–40, each solve followed by one
//!   paper-scale arrival/departure epoch re-mapped incrementally.
//! * `solve-large` — one cold multilevel solve per instance (a sparse
//!   `large` instance and dense torus/dragonfly instances), each
//!   followed by `DynamicWorkload` epochs re-mapped with
//!   `remap_incremental` (`RefineOnly`) from the previous mapping.
//!
//! A pass over the mix (a *cycle*) repeats until the time budget is
//! spent. Each cycle draws fresh instances from the seed and the cycle
//! index, so the figures average over many instances. Every solve and
//! re-map is checked by the oracle, and the traced run, which repeats
//! each cycle's instances traced, must reproduce the untraced costs bit
//! for bit, since the solvers are deterministic in their seed.

use crate::check::{mapping_error, Tally};
use crate::layers::{Caller, Layers};
use crate::stats::{geomean, median, quantile, ratio, Metrics};
use crate::{Args, Outcome};
use match_core::{
    bijective_lower_bound, build_plan, remap_incremental, Mapper, MappingInstance, MatchConfig,
    Matcher, MultilevelConfig, RemapConfig, RemapStrategy, SamplerMode, StopToken,
};
use match_ga::{FastMapGa, GaConfig};
use match_graph::gen::topology::TopologyKind;
use match_graph::gen::InstanceGenerator;
use match_graph::io::{from_text, to_text};
use match_graph::{ResourceGraph, TaskGraph};
use match_multilevel::{CoarseSolver, MultilevelMapper};
use match_rngutil::derive_seed_str;
use match_sim::DynamicWorkload;
use match_telemetry::{NullRecorder, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Times the set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Migration weight of the incremental re-maps (a power of two, so the
/// migration ledger is exact).
const REMAP_MU: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Paper,
    Large,
    Topology(TopologyKind),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Solver {
    Ce,
    Ga,
    Multilevel,
}

/// One instance of the mix and the dynamic epochs derived from it.
struct InstanceSpec {
    family: Family,
    n: usize,
    /// Arrival/departure epochs re-mapped after each cold solve.
    epochs: usize,
    /// Events drawn per epoch.
    events: usize,
}

/// The mix: instances, and which solvers run on each.
struct Mix {
    instances: Vec<InstanceSpec>,
    jobs: Vec<(usize, Solver)>,
}

fn paper_mix(tiny: bool) -> Mix {
    let sizes: &[usize] = if tiny {
        &[8, 10]
    } else {
        &[16, 20, 24, 28, 32, 40]
    };
    let instances = sizes
        .iter()
        .map(|&n| InstanceSpec {
            family: Family::Paper,
            n,
            epochs: 2,
            events: 3,
        })
        .collect();
    // CE up to n = 32 (a CE solve at n = 40 costs ~4 s on one thread),
    // FastMap-GA on every other size up to 40.
    let ce_max = if tiny { 10 } else { 32 };
    let mut jobs = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        if n <= ce_max {
            jobs.push((i, Solver::Ce));
        }
    }
    for (i, _) in sizes.iter().enumerate().step_by(2) {
        jobs.push((i, Solver::Ga));
    }
    if !tiny {
        jobs.push((sizes.len() - 1, Solver::Ga));
    }
    Mix { instances, jobs }
}

fn large_mix(tiny: bool) -> Mix {
    let (sparse, dense) = if tiny { (128, 32) } else { (2048, 512) };
    // The dense instances get no epochs: one event touches a task and
    // its whole TIG neighbourhood, whose size swings with the task's
    // degree, so a dense re-map took anywhere from 1 to 3 s at n = 512.
    let topology = |kind| InstanceSpec {
        family: Family::Topology(kind),
        n: dense,
        epochs: 0,
        events: 0,
    };
    let instances = vec![
        InstanceSpec {
            family: Family::Large,
            n: sparse,
            epochs: 4,
            events: 8,
        },
        topology(TopologyKind::Dragonfly),
        topology(TopologyKind::Torus),
    ];
    let jobs = (0..instances.len())
        .map(|i| (i, Solver::Multilevel))
        .collect();
    Mix { instances, jobs }
}

fn label(spec: &InstanceSpec) -> String {
    let family = match spec.family {
        Family::Paper => "paper",
        Family::Large => "large",
        Family::Topology(kind) => kind.name(),
    };
    format!("{family}-{}", spec.n)
}

/// An epoch's instance and the changed subgraph its events touched.
struct Epoch {
    inst: MappingInstance,
    changed: Vec<usize>,
}

/// A generated, parsed instance ready to solve.
struct Prepared {
    label: String,
    inst: MappingInstance,
    lower_bound: f64,
    epochs: Vec<Epoch>,
}

/// Parse instance text the way `matchctl solve` reads its input files
/// and the daemon reads every request.
pub fn parse_instance(tig: &str, platform: &str) -> MappingInstance {
    let tig = TaskGraph::new(from_text(tig).expect("generated TIG text parses"))
        .expect("generated TIG is valid");
    let platform = ResourceGraph::new(from_text(platform).expect("generated platform text parses"))
        .expect("generated platform is valid");
    MappingInstance::new(&tig, &platform)
}

/// Generate round `round`'s draw of one instance from the seed,
/// round-trip it through the text format, and derive its epochs. Also
/// returns the parse time in microseconds.
fn prepare(spec: &InstanceSpec, seed: u64, round: usize) -> (Prepared, f64) {
    let label = format!("{}#{round}", label(spec));
    let mut rng = StdRng::seed_from_u64(derive_seed_str(seed, &label));
    let pair = match spec.family {
        Family::Paper => InstanceGenerator::paper_family(spec.n),
        Family::Large => InstanceGenerator::large_family(spec.n),
        Family::Topology(kind) => InstanceGenerator::topology_family(kind, spec.n),
    }
    .generate(&mut rng);
    let (tig, platform) = (to_text(pair.tig.graph()), to_text(pair.resources.graph()));
    let start = Instant::now();
    let inst = parse_instance(&tig, &platform);
    let parse_us = start.elapsed().as_secs_f64() * 1e6;

    let mut workload = DynamicWorkload::new(&inst);
    let epochs = (0..spec.epochs)
        .map(|_| {
            let events = workload.generate_events(spec.events, &mut rng);
            let changed = workload.apply(&events);
            Epoch {
                inst: workload.instance(),
                changed,
            }
        })
        .collect();
    let prepared = Prepared {
        label,
        lower_bound: bijective_lower_bound(&inst),
        inst,
        epochs,
    };
    (prepared, parse_us)
}

/// Replace `prepared` with round `round`'s instances, dropping the old
/// ones first so two rounds never sit in memory together.
fn prepare_round(
    mix: &Mix,
    seed: u64,
    round: usize,
    prepared: &mut Vec<Prepared>,
    parse_us: &mut Vec<f64>,
) {
    prepared.clear();
    for spec in &mix.instances {
        let (p, us) = prepare(spec, seed, round);
        prepared.push(p);
        parse_us.push(us);
    }
}

fn ce_config() -> MatchConfig {
    MatchConfig {
        threads: 1,
        sampler: SamplerMode::Batched,
        ..MatchConfig::default()
    }
}

fn mapper(solver: Solver) -> (Box<dyn Mapper>, Caller) {
    match solver {
        Solver::Ce => (Box::new(Matcher::new(ce_config())), Caller::Ce),
        Solver::Ga => (
            Box::new(FastMapGa::new(GaConfig {
                threads: 1,
                ..GaConfig::batched_paper()
            })),
            Caller::Ga,
        ),
        Solver::Multilevel => (
            Box::new(
                MultilevelMapper::new(MultilevelConfig {
                    threads: 1,
                    ..MultilevelConfig::default()
                })
                .with_coarse_solver(CoarseSolver::Ce(ce_config())),
            ),
            Caller::Multilevel,
        ),
    }
}

/// Bytes the Eq. 1 batch kernel reads and writes per evaluated row,
/// computed from the plan's array sizes: the assignment row and one
/// processing term per task, a CSR target, volume and link entry per
/// adjacency, and one load per resource.
fn bytes_per_row(inst: &MappingInstance) -> f64 {
    (inst.n_tasks() * (8 + 8) + inst.adjacency_len() * (4 + 8 + 8) + inst.n_resources() * 8) as f64
}

/// What traced cycles add beyond the span layers.
#[derive(Default)]
struct Traced {
    layers: Layers,
    ce_iterations: u64,
    rows: u64,
    row_bytes: f64,
    changed: Vec<f64>,
    migrated_frac: Vec<f64>,
}

/// Run `solve-paper` or `solve-large`.
pub fn run(args: &Args) -> Outcome {
    let mix = if args.workload == "solve-paper" {
        paper_mix(args.tiny)
    } else {
        large_mix(args.tiny)
    };

    // Set-up generates cycle 0's inputs; later cycles' instances are
    // generated between cycles, outside every timed call.
    let mut setup_s = Vec::new();
    let mut prepared: Vec<Prepared> = Vec::new();
    let mut parse_us = Vec::new();
    for _ in 0..SETUP_REPS {
        prepared.clear();
        let start = Instant::now();
        prepare_round(&mix, args.seed, 0, &mut prepared, &mut parse_us);
        setup_s.push(start.elapsed().as_secs_f64());
    }

    // One refinement pass per epoch: with the default two, an epoch
    // costs one or two passes depending on whether the first improved,
    // and the re-map times split into two clusters.
    let remap_cfg = RemapConfig {
        match_config: ce_config(),
        strategy: RemapStrategy::RefineOnly,
        mu: REMAP_MU,
        refine_passes: 1,
        ..RemapConfig::default()
    };
    let never = StopToken::never();
    let mut tally = Tally::default();
    // Wall times of untraced calls: the end-to-end figures.
    let (mut solve_s, mut remap_ms) = (Vec::new(), Vec::new());
    let mut traced = Traced::default();
    let mut cycle_s = [Vec::new(), Vec::new()];
    let mut untraced_costs: Vec<Vec<u64>> = vec![Vec::new(); mix.jobs.len()];
    let mut ratios = Vec::new();

    let budget = Duration::from_secs_f64(args.seconds);
    let min_cycles = if args.trace { 2 } else { 1 };
    let run_start = Instant::now();
    let mut cycle = 0usize;
    let mut last_cycle = Duration::ZERO;
    // Start a cycle only if one as long as the last still fits the
    // budget; a traced run always finishes its untraced/traced pair.
    while cycle < min_cycles
        || (args.trace && cycle % 2 == 1)
        || run_start.elapsed() + last_cycle <= budget
    {
        let whole_cycle = Instant::now();
        // The traced run alternates untraced and traced cycles over the
        // same instances, so the tracing overhead is measured in the
        // same process on the same work.
        let is_traced = args.trace && cycle % 2 == 1;
        let round = if args.trace { cycle / 2 } else { cycle };
        if round > 0 && !is_traced {
            prepare_round(&mix, args.seed, round, &mut prepared, &mut parse_us);
        }
        let cycle_start = Instant::now();
        let mut log = format!("perfbench: cycle {cycle} (traced: {is_traced}):");
        for (j, &(i, solver)) in mix.jobs.iter().enumerate() {
            let p = &prepared[i];
            let (mapper, caller) = mapper(solver);
            let job = format!("{}/{}", p.label, mapper.name());
            let mut rng = StdRng::seed_from_u64(derive_seed_str(args.seed, &job));
            let rows_before =
                traced.layers.counter("evaluations") + traced.layers.counter("full_evaluations");
            let self_before = traced.layers.self_ns.clone();
            let mut layer_rec;
            let rec: &mut dyn Recorder = if is_traced {
                layer_rec = traced.layers.recorder(caller);
                &mut layer_rec
            } else {
                &mut NullRecorder
            };
            let start = Instant::now();
            let out = mapper.map_traced(&p.inst, &mut rng, rec);
            let wall = start.elapsed();
            let _ = write!(log, " {job} {:.3}s", wall.as_secs_f64());
            // Per-job layer split, so a layer's share of one instance
            // family shows in the log.
            for (key, ns) in &traced.layers.self_ns {
                let delta = ns - self_before.get(key).copied().unwrap_or(0);
                if delta > 0 {
                    let _ = write!(log, " {key}={:.3}", delta as f64 / 1e9);
                }
            }
            let mut costs = vec![out.cost.to_bits()];
            tally.record(
                &job,
                mapping_error(&p.inst, out.mapping.as_slice(), out.cost),
            );
            if is_traced {
                traced.layers.traced_wall_ns += wall.as_nanos() as u64;
                if solver == Solver::Ce {
                    traced.ce_iterations += out.iterations as u64;
                }
                let rows = traced.layers.counter("evaluations")
                    + traced.layers.counter("full_evaluations")
                    - rows_before;
                traced.rows += rows;
                traced.row_bytes += rows as f64 * bytes_per_row(&p.inst);
            } else {
                ratios.push(out.cost / p.lower_bound);
                solve_s.push(wall.as_secs_f64());
            }

            let mut prior = out.mapping.as_slice().to_vec();
            for (e, epoch) in p.epochs.iter().enumerate() {
                let what = format!("{job}/epoch{e}");
                let mut rng = StdRng::seed_from_u64(derive_seed_str(args.seed, &what));
                let mut layer_rec;
                let rec: &mut dyn Recorder = if is_traced {
                    layer_rec = traced.layers.recorder(Caller::Remap);
                    &mut layer_rec
                } else {
                    &mut NullRecorder
                };
                let start = Instant::now();
                let r = remap_incremental(
                    &epoch.inst,
                    Some(&prior),
                    &epoch.changed,
                    &remap_cfg,
                    &mut rng,
                    rec,
                    &never,
                );
                let wall = start.elapsed();
                tally.record(
                    &what,
                    mapping_error(&epoch.inst, r.mapping.as_slice(), r.cost),
                );
                costs.push(r.cost.to_bits());
                if is_traced {
                    traced.layers.traced_wall_ns += wall.as_nanos() as u64;
                    traced.changed.push(epoch.changed.len() as f64);
                    traced
                        .migrated_frac
                        .push(r.migrated as f64 / epoch.inst.n_tasks() as f64);
                } else {
                    remap_ms.push(wall.as_secs_f64() * 1e3);
                }
                prior = r.mapping.as_slice().to_vec();
            }
            // Tracing must not perturb the solvers: a traced cycle
            // reproduces its untraced twin's costs exactly.
            if !is_traced {
                untraced_costs[j] = costs;
            } else if costs != untraced_costs[j] {
                tally.fail(format!("{job}: tracing changed the costs"));
            }
        }
        cycle_s[usize::from(is_traced)].push(cycle_start.elapsed().as_secs_f64());
        eprintln!("{log}");
        last_cycle = whole_cycle.elapsed();
        cycle += 1;
    }

    let mut m = Metrics::default();
    if args.trace {
        let per_cycle = cycle_s[1].len().max(1) as f64;
        let l = &traced.layers;
        let ce_sample_ns = l.self_ns.get("ce.sample").copied().unwrap_or(0) as f64;
        let evaluate_s = l.secs("ce.evaluate") + l.secs("ga.evaluate");
        m.put("ce.sample_s", l.secs("ce.sample") / per_cycle);
        m.put("ce.evaluate_s", l.secs("ce.evaluate") / per_cycle);
        m.put("ce.update_s", l.secs("ce.update") / per_cycle);
        m.put("ce.iterations", traced.ce_iterations as f64 / per_cycle);
        m.put(
            "ce.sample_ms_per_iter",
            ratio(ce_sample_ns / 1e6, traced.ce_iterations as f64),
        );
        m.put("ga.vary_s", l.secs("ga.vary") / per_cycle);
        m.put("ga.evaluate_s", l.secs("ga.evaluate") / per_cycle);
        m.put("ga.select_s", l.secs("ga.select") / per_cycle);
        m.put("eval.plan_build_ms", plan_build_ms(&prepared));
        m.put("eval.rows", traced.rows as f64 / per_cycle);
        m.put("eval.rows_per_s", ratio(traced.rows as f64, evaluate_s));
        m.put(
            "eval.bytes_per_row",
            ratio(traced.row_bytes, traced.rows as f64),
        );
        m.put("ml.coarsen_s", l.secs("ml.coarsen") / per_cycle);
        m.put("ml.coarse_solve_s", l.secs("ml.coarse_solve") / per_cycle);
        m.put("ml.refine_s", l.secs("ml.refine") / per_cycle);
        let levels: Vec<f64> = l.levels.iter().map(|&k| k as f64).collect();
        m.put("ml.levels", median(&levels));
        let refine_ms: Vec<f64> = l
            .refine_delta_ns
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        m.put("remap.refine_ms_p50", median(&refine_ms));
        m.put("remap.changed_tasks", median(&traced.changed));
        m.put(
            "remap.migrated_frac",
            ratio(
                traced.migrated_frac.iter().sum(),
                traced.migrated_frac.len() as f64,
            ),
        );
        m.put("graph.parse_us_p50", median(&parse_us));
        m.put(
            "trace.overhead_frac",
            median(&cycle_s[1]) / median(&cycle_s[0]) - 1.0,
        );
        m.put("trace.attributed_frac", l.attributed_frac());
    } else {
        let solves = solve_s.len() as f64;
        let latency_ms: Vec<f64> = solve_s.iter().map(|s| s * 1e3).collect();
        m.put("setup_s", median(&setup_s));
        m.put("solve_s_p50", median(&solve_s));
        m.put("solve_throughput", solves / solve_s.iter().sum::<f64>());
        m.put("cost_ratio", geomean(&ratios));
        m.put("remap_ms_p50", median(&remap_ms));
        m.put("remap_ms_p90", quantile(&remap_ms, 0.9));
        m.put("latency_ms_p50", median(&latency_ms));
        m.put("latency_ms_p99", quantile(&latency_ms, 0.99));
        let busy_s = solve_s.iter().sum::<f64>() + remap_ms.iter().sum::<f64>() / 1e3;
        m.put(
            "max_rate_rps",
            (solve_s.len() + remap_ms.len()) as f64 / busy_s,
        );
        m.put("peak_rss_mb", crate::stats::peak_rss_mb());
    }

    Outcome {
        metrics: m,
        tally,
        samples: vec![
            ("cycles", cycle as f64),
            ("solves", solve_s.len() as f64),
            ("remaps", remap_ms.len() as f64),
            ("setup_reps", SETUP_REPS as f64),
        ],
    }
}

/// Median time of `match_core::build_plan` over the mix's instances.
fn plan_build_ms(prepared: &[Prepared]) -> f64 {
    let times: Vec<f64> = prepared
        .iter()
        .map(|p| {
            let start = Instant::now();
            std::hint::black_box(build_plan(&p.inst));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}
