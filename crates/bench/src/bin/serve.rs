//! Serve scale-out benchmark: a replayable arrival trace driven against
//! in-process [`ShardPool`] deployments, emitted as a machine-readable
//! JSON artefact (`BENCH_serve.json`) for CI trend tracking.
//!
//! ```text
//! cargo run -p match-bench --release --bin serve
//! cargo run -p match-bench --release --bin serve -- --quick
//! cargo run -p match-bench --release --bin serve -- --json out.json --check
//! cargo run -p match-bench --release --bin serve -- --trace-out trace.jsonl
//! ```
//!
//! The load generator is deterministic and replays two traces built
//! from `T` paper-family templates with a seeded Zipf template mix
//! (real arrival streams resubmit a few hot graph shapes far more
//! often than the tail):
//!
//! 1. **Sharding throughput** — the *hot* trace: arrivals drawn from a
//!    small pool of repeated (template, seed) combos, i.e. the
//!    resubmission traffic the LRU result cache exists for. Each combo
//!    is primed once (unmeasured), then the trace replays closed-loop
//!    with one synchronous connection per shard, the same whole number
//!    of passes on every connection, sized from an unmeasured pass to
//!    fill about [`HOT_WINDOW`] — the standard
//!    per-shard command-stream driver, so aggregate throughput
//!    measures how many independent request streams the deployment
//!    sustains on its hot path (front-end round trips, queue hop,
//!    cache lookup) rather than raw solver CPU, which a CI box may not
//!    be able to parallelise at all. Gate: 2-shard ≥ 1.6× 1-shard.
//! 2. **Warm starts** — the *solve* trace: one unique seed per request
//!    so every job is real solver work, replayed pipelined against a
//!    cold pool (`α = 0`) and against a warm pool (`α = 0.5`) whose
//!    store was seeded with one unmeasured solve per template.
//!    Requests pair by seed, so iteration and cost deltas are exact.
//!    Gates: warm p50 (server-side solve latency) < cold p50, median
//!    CE iteration reduction ≥ 30%, median warm cost ≤ 1.02× cold.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use match_graph::gen::paper::PaperFamilyConfig;
use match_graph::io::to_text;
use match_serve::{
    job_key, Client, Request, Response, ServeConfig, ShardPool, SolveRequest, SolveResponse,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ALGO: &str = "match-batched";
const ZIPF_S: f64 = 1.1;
const WARM_ALPHA: f64 = 0.5;
const MASTER_SEED: u64 = 2005;
/// Timed window per deployment in the sharding phase, filled by
/// replaying the hot trace a whole number of times. One pass is only ~100
/// sub-millisecond cache hits, short enough for a single scheduler
/// hiccup to swing the 2-shard/1-shard ratio.
const HOT_WINDOW: Duration = Duration::from_millis(300);

struct Template {
    n: usize,
    tig: String,
    platform: String,
    /// Parsed instance, kept for computing per-request routing keys.
    inst: match_core::MappingInstance,
}

fn make_templates(sizes: &[usize]) -> Vec<Template> {
    sizes
        .iter()
        .map(|&n| {
            let mut rng = StdRng::seed_from_u64(MASTER_SEED ^ n as u64);
            let pair = PaperFamilyConfig::new(n).generate(&mut rng);
            let inst = match_core::MappingInstance::new(&pair.tig, &pair.resources);
            Template {
                n,
                tig: to_text(pair.tig.graph()),
                platform: to_text(pair.resources.graph()),
                inst,
            }
        })
        .collect()
}

/// One arrival: which template, under which seed.
struct Arrival {
    template: usize,
    seed: u64,
}

/// Sample a template index from the Zipf mix: template `k` (0-based
/// popularity rank) with probability ∝ 1/(k+1)^s.
fn zipf_template(n_templates: usize, rng: &mut StdRng) -> usize {
    let weights: Vec<f64> = (0..n_templates)
        .map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut u = rng.random::<f64>() * total;
    for (k, w) in weights.iter().enumerate() {
        if u < *w {
            return k;
        }
        u -= w;
    }
    n_templates - 1
}

/// The solve trace: Zipf template mix, one unique seed per request, so
/// nothing is ever answered from the LRU cache.
fn build_solve_trace(n_templates: usize, requests: usize) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(MASTER_SEED);
    (0..requests)
        .map(|i| Arrival {
            template: zipf_template(n_templates, &mut rng),
            seed: 1 + i as u64,
        })
        .collect()
}

/// The hot trace: a pool of `combos` fixed (template, seed) pairs —
/// templates Zipf-mixed, seeds reserved well away from the solve trace
/// — resubmitted `requests` times with a uniform draw over the pool.
/// Returns `(pool, trace)`; priming the pool once makes every trace
/// arrival a result-cache hit.
fn build_hot_trace(
    n_templates: usize,
    combos: usize,
    requests: usize,
) -> (Vec<Arrival>, Vec<Arrival>) {
    let mut rng = StdRng::seed_from_u64(MASTER_SEED ^ 0x5eed);
    let pool: Vec<Arrival> = (0..combos)
        .map(|c| Arrival {
            template: zipf_template(n_templates, &mut rng),
            seed: 500_000 + c as u64,
        })
        .collect();
    let trace = (0..requests)
        .map(|_| {
            let pick = &pool[rng.random_range(0..combos)];
            Arrival {
                template: pick.template,
                seed: pick.seed,
            }
        })
        .collect();
    (pool, trace)
}

fn solve_request(t: &Template, id: String, seed: u64) -> SolveRequest {
    SolveRequest {
        id,
        algo: ALGO.to_string(),
        seed,
        deadline_ms: None,
        backend: None,
        tig: t.tig.clone(),
        platform: t.platform.clone(),
    }
}

/// Replay `trace` against `pool`, routing each request by its canonical
/// job key (instance × algo × seed — the result-cache identity, so a
/// repeat of the same request always lands where its cached answer
/// lives, while a Zipf-hot template still spreads across shards via its
/// seeds). One pipelined connection per shard sends its whole share up
/// front and then drains the replies, so wall time measures shard
/// capacity, not client-side scheduling. Returns responses in trace
/// order plus the wall time.
fn run_trace(
    pool: &ShardPool,
    templates: &[Template],
    trace: &[Arrival],
) -> (Vec<SolveResponse>, f64) {
    let mut buckets: HashMap<SocketAddr, Vec<(usize, SolveRequest)>> = HashMap::new();
    for (i, arrival) in trace.iter().enumerate() {
        let t = &templates[arrival.template];
        let addr = pool.route_addr(job_key(&t.inst, ALGO, arrival.seed));
        buckets
            .entry(addr)
            .or_default()
            .push((i, solve_request(t, format!("r{i}"), arrival.seed)));
    }
    let started = Instant::now();
    let mut indexed: Vec<(usize, SolveResponse)> = std::thread::scope(|scope| {
        let conns: Vec<_> = buckets
            .into_iter()
            .map(|(addr, reqs)| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect to shard");
                    for (_, req) in &reqs {
                        client
                            .send(&Request::Solve(req.clone()))
                            .expect("send solve");
                    }
                    reqs.iter()
                        .map(|_| match client.recv().expect("recv solve") {
                            // The daemon may complete out of submission
                            // order; the id carries the trace index.
                            Response::Solved(r) => {
                                let i: usize = r.id[1..].parse().expect("rN id");
                                (i, r)
                            }
                            other => panic!("unexpected response: {other:?}"),
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        conns
            .into_iter()
            .flat_map(|conn| conn.join().expect("shard connection"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    indexed.sort_by_key(|(i, _)| *i);
    (indexed.into_iter().map(|(_, r)| r).collect(), wall)
}

/// Replay `trace` `passes` times closed-loop: one synchronous
/// connection per shard, each issuing its routed share of the trace one
/// request at a time, `passes` times over. Every connection does the
/// same number of passes, so the timed window keeps the trace's request
/// mix and waits on the busiest shard. Connections open before the
/// clock starts, so the window holds request round trips only. Returns
/// responses (unordered) plus wall time and per-shard request counts
/// per pass (to make routing balance visible in the log).
fn run_closed_loop(
    pool: &ShardPool,
    templates: &[Template],
    trace: &[Arrival],
    passes: usize,
) -> (Vec<SolveResponse>, f64, Vec<usize>) {
    let mut buckets: HashMap<SocketAddr, Vec<(usize, SolveRequest)>> = HashMap::new();
    for (i, arrival) in trace.iter().enumerate() {
        let t = &templates[arrival.template];
        let addr = pool.route_addr(job_key(&t.inst, ALGO, arrival.seed));
        buckets
            .entry(addr)
            .or_default()
            .push((i, solve_request(t, format!("h{i}"), arrival.seed)));
    }
    let counts = buckets.values().map(|b| b.len()).collect();
    let clients: Vec<_> = buckets
        .into_iter()
        .map(|(addr, reqs)| (Client::connect(addr).expect("connect to shard"), reqs))
        .collect();
    let started = Instant::now();
    let resps: Vec<SolveResponse> = std::thread::scope(|scope| {
        let conns: Vec<_> = clients
            .into_iter()
            .map(|(mut client, reqs)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(passes * reqs.len());
                    for _ in 0..passes {
                        for (_, req) in &reqs {
                            match client.call(&Request::Solve(req.clone())) {
                                Ok(Response::Solved(r)) => out.push(r),
                                other => panic!("unexpected response: {other:?}"),
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        conns
            .into_iter()
            .flat_map(|conn| conn.join().expect("shard connection"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    (resps, wall, counts)
}

fn pool_config(warm_alpha: f64, queue_cap: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_cap,
        warm_alpha,
        // Single solver thread: deterministic iteration counts, so the
        // cold and warm passes pair exactly by seed.
        solver_threads: Some(1),
        ..ServeConfig::default()
    }
}

fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1e6
}

fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[sorted.len() / 2]
}

fn solve_ns_sorted(resps: &[SolveResponse]) -> Vec<u64> {
    let mut ns: Vec<u64> = resps.iter().map(|r| r.solve_ns).collect();
    ns.sort_unstable();
    ns
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let json_path = flag("--json").unwrap_or_else(|| "results/BENCH_serve.json".to_string());
    let trace_out = flag("--trace-out");

    let sizes: &[usize] = if quick {
        &[12, 16, 20]
    } else {
        &[12, 16, 20, 24, 28]
    };
    let requests = if quick { 24 } else { 80 };
    let hot_combos = 64;
    let hot_requests = if quick { 96 } else { 192 };

    let templates = make_templates(sizes);
    let trace = build_solve_trace(templates.len(), requests);
    let (hot_pool, hot_trace) = build_hot_trace(templates.len(), hot_combos, hot_requests);
    if let Some(path) = &trace_out {
        let record = |phase: &str, i: usize, a: &Arrival| {
            format!(
                "{{\"phase\":\"{phase}\",\"request\":{i},\"template\":{},\"n\":{},\
                 \"seed\":{},\"algo\":\"{ALGO}\"}}\n",
                a.template, templates[a.template].n, a.seed
            )
        };
        let lines: String = trace
            .iter()
            .enumerate()
            .map(|(i, a)| record("solve", i, a))
            .chain(
                hot_trace
                    .iter()
                    .enumerate()
                    .map(|(i, a)| record("hot", i, a)),
            )
            .collect();
        if let Err(e) = std::fs::write(path, lines) {
            eprintln!("[serve] could not write trace {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("[serve] wrote arrival trace to {path}");
    }

    let mut failures = Vec::new();

    // ---- Phase 1: sharded hot-path throughput ------------------------
    let mut shard_rps = Vec::new();
    let mut shard_passes = Vec::new();
    for shards in [1usize, 2] {
        let pool = ShardPool::start(shards, &pool_config(0.0, hot_requests)).expect("shard pool");
        // Prime every combo through the ring so the measured replay is
        // pure hot-path traffic.
        run_closed_loop(&pool, &templates, &hot_pool, 1);
        // Two unmeasured passes of the trace itself: the first warms
        // the hot path, the second sizes the timed replay (enough whole
        // passes to fill HOT_WINDOW at its pace).
        run_closed_loop(&pool, &templates, &hot_trace, 1);
        let (_, pass_wall, _) = run_closed_loop(&pool, &templates, &hot_trace, 1);
        let passes = (HOT_WINDOW.as_secs_f64() / pass_wall).ceil().max(1.0) as usize;
        let (resps, wall, counts) = run_closed_loop(&pool, &templates, &hot_trace, passes);
        pool.shutdown().expect("shard pool shutdown");
        assert_eq!(resps.len(), passes * hot_requests);
        assert!(
            resps.iter().all(|r| r.cached),
            "a primed hot trace must be answered from the result cache"
        );
        let rps = resps.len() as f64 / wall;
        eprintln!(
            "[serve] {shards}-shard hot path: {rps:>7.1} req/s ({passes} passes, {} requests \
             in {:.0} ms, split per pass {counts:?})",
            resps.len(),
            wall * 1e3
        );
        shard_rps.push(rps);
        shard_passes.push(passes);
    }
    let (one_rps, two_rps) = (shard_rps[0], shard_rps[1]);
    let (one_passes, two_passes) = (shard_passes[0], shard_passes[1]);
    let window_ms = HOT_WINDOW.as_millis();
    let speedup = two_rps / one_rps;
    eprintln!("[serve] sharding speedup: {speedup:.2}x");
    if check && speedup < 1.6 {
        failures.push(format!(
            "2-shard throughput {two_rps:.1} req/s is only {speedup:.2}x the 1-shard \
             {one_rps:.1} req/s (gate: >= 1.6x)"
        ));
    }

    // ---- Phase 2: warm starts vs cold --------------------------------
    // Cold baseline: warm starts disabled, so every solve runs the full
    // CE schedule.
    let cold_pool = ShardPool::start(1, &pool_config(0.0, requests)).expect("cold pool");
    let (cold, _) = run_trace(&cold_pool, &templates, &trace);
    cold_pool.shutdown().expect("cold shutdown");
    assert_eq!(cold.len(), requests);
    assert!(
        cold.iter().all(|r| !r.cached),
        "unique seeds must defeat the result cache"
    );
    let cold = &cold;
    // Warm pool: seed the store with one unmeasured solve per template
    // (reserved seeds far outside the trace range), then replay.
    let warm_pool = ShardPool::start(1, &pool_config(WARM_ALPHA, requests)).expect("warm pool");
    let seeding: Vec<Arrival> = (0..templates.len())
        .map(|t| Arrival {
            template: t,
            seed: 1_000_000 + t as u64,
        })
        .collect();
    run_trace(&warm_pool, &templates, &seeding);
    let (warm, _) = run_trace(&warm_pool, &templates, &trace);
    let warm_summaries = warm_pool.shutdown().expect("warm shutdown");
    let warm_hits: u64 = warm_summaries.iter().map(|s| s.warm_hits).sum();

    let cold_ns = solve_ns_sorted(cold);
    let warm_ns = solve_ns_sorted(&warm);
    let (cold_p50, cold_p99) = (percentile_ms(&cold_ns, 0.5), percentile_ms(&cold_ns, 0.99));
    let (warm_p50, warm_p99) = (percentile_ms(&warm_ns, 0.5), percentile_ms(&warm_ns, 0.99));
    // Same seed on both sides ⇒ request i pairs exactly.
    let mut iter_reductions: Vec<f64> = cold
        .iter()
        .zip(&warm)
        .map(|(c, w)| 1.0 - w.iterations as f64 / c.iterations.max(1) as f64)
        .collect();
    iter_reductions.sort_by(|a, b| a.total_cmp(b));
    let mut cost_ratios: Vec<f64> = cold
        .iter()
        .zip(&warm)
        .map(|(c, w)| w.cost / c.cost)
        .collect();
    cost_ratios.sort_by(|a, b| a.total_cmp(b));
    let median_reduction = median(&iter_reductions);
    let median_cost_ratio = median(&cost_ratios);
    let max_cost_ratio = cost_ratios.last().copied().unwrap_or(1.0);
    eprintln!(
        "[serve] warm: p50 {warm_p50:.2} ms vs cold {cold_p50:.2} ms | median iteration \
         reduction {:.0}% | median cost ratio {median_cost_ratio:.4} (max {max_cost_ratio:.4}) \
         | {warm_hits}/{requests} warm hits",
        median_reduction * 100.0
    );
    if check {
        if warm_hits < requests as u64 {
            failures.push(format!(
                "only {warm_hits}/{requests} requests warm-hit after seeding every template"
            ));
        }
        if warm_p50 >= cold_p50 {
            failures.push(format!(
                "warm p50 {warm_p50:.2} ms not below cold p50 {cold_p50:.2} ms"
            ));
        }
        if median_reduction < 0.30 {
            failures.push(format!(
                "median CE iteration reduction {:.1}% below the 30% gate",
                median_reduction * 100.0
            ));
        }
        if median_cost_ratio > 1.02 {
            failures.push(format!(
                "median warm cost ratio {median_cost_ratio:.4} above the 1.02x gate"
            ));
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"algo\": \"{ALGO}\",\n  \"requests\": {requests},\n  \
         \"templates\": {},\n  \"template_sizes\": [{}],\n  \"zipf_s\": {ZIPF_S},\n  \
         \"warm_alpha\": {WARM_ALPHA},\n  \
         \"sharding\": {{\"driver\": \"closed-loop, one connection per shard\", \
         \"window_ms\": {window_ms}, \"passes\": [{one_passes}, {two_passes}], \
         \"hot_combos\": {hot_combos}, \"hot_requests\": {hot_requests}, \
         \"one_shard_rps\": {one_rps:.2}, \"two_shard_rps\": {two_rps:.2}, \
         \"speedup\": {speedup:.3}}},\n  \
         \"latency_ms\": {{\"cold_p50\": {cold_p50:.3}, \"cold_p99\": {cold_p99:.3}, \
         \"warm_p50\": {warm_p50:.3}, \"warm_p99\": {warm_p99:.3}}},\n  \
         \"warm\": {{\"hits\": {warm_hits}, \"median_iteration_reduction\": \
         {median_reduction:.4}, \"median_cost_ratio\": {median_cost_ratio:.4}, \
         \"max_cost_ratio\": {max_cost_ratio:.4}}}\n}}\n",
        templates.len(),
        sizes
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );
    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    match std::fs::write(&json_path, &json) {
        Ok(()) => eprintln!("[serve] wrote {json_path}"),
        Err(e) => {
            eprintln!("[serve] could not write {json_path}: {e}");
            std::process::exit(2);
        }
    }
    print!("{json}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("[serve] FAIL: {f}");
        }
        std::process::exit(1);
    }
}
