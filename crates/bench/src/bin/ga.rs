//! FastMap-GA generation-loop benchmark, emitted as a machine-readable
//! JSON artefact (`BENCH_ga.json`, with the host recorded) for CI trend
//! tracking.
//!
//! ```text
//! cargo run -p match-bench --release --bin ga
//! cargo run -p match-bench --release --bin ga -- --quick
//! cargo run -p match-bench --release --bin ga -- --json out.json --check
//! ```
//!
//! Each run is a full end-to-end solve (same instance, same driver
//! seed, same population/generation budget) on one thread and at the
//! machine's default thread count; both produce the same mapping.
//!
//! The bin exits non-zero when a solve ends worse than a random mapping
//! of the same instance — the CI smoke gate that the loop still
//! optimises. `--check` is accepted like the other bench bins' but
//! gates nothing more.

use match_core::{exec_time, MappingInstance};
use match_ga::{FastMapGa, GaConfig};
use match_graph::gen::InstanceGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

struct Run {
    ms: f64,
    cost: f64,
    evaluations: u64,
}

fn fmt_run(r: &Run) -> String {
    format!(
        "{{\"ms\":{:.1},\"cost\":{:.3},\"evaluations\":{}}}",
        r.ms, r.cost, r.evaluations
    )
}

/// One full GA solve; wall time includes the whole generation loop.
fn solve(inst: &MappingInstance, config: GaConfig, reps: usize) -> Run {
    let ga = FastMapGa::new(config);
    // Warm-up run, then the timed repetitions (same seed each time, so
    // every repetition does identical work).
    let mut out = ga.run(inst, &mut StdRng::seed_from_u64(29));
    let start = Instant::now();
    for _ in 0..reps {
        out = ga.run(inst, &mut StdRng::seed_from_u64(29));
    }
    Run {
        ms: start.elapsed().as_secs_f64() * 1e3 / reps as f64,
        cost: out.outcome.cost,
        evaluations: out.outcome.evaluations,
    }
}

fn config(n: usize, threads: usize) -> GaConfig {
    GaConfig {
        // A bounded budget that still dominates setup cost: the paper's
        // 500×1000 run takes too long to repeat per size in CI.
        population: (4 * n).max(120),
        generations: 40,
        threads,
        ..GaConfig::paper_default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "results/BENCH_ga.json".to_string());

    let sizes: &[usize] = if quick { &[16, 32] } else { &[16, 32, 48] };
    let reps = if quick { 2 } else { 5 };
    let threads = match_par::default_threads();

    let mut entries = Vec::new();
    let mut failures = Vec::new();
    for &n in sizes {
        let inst = MappingInstance::from_pair(
            &InstanceGenerator::paper_family(n).generate(&mut StdRng::seed_from_u64(40)),
        );
        let bat1 = solve(&inst, config(n, 1), reps);
        let batp = solve(&inst, config(n, threads), reps);
        eprintln!(
            "[ga] n={n:>3} pop={:>4}  t1 {:>8.1} ms | t{threads} {:>8.1} ms (cost {:.1})",
            (4 * n).max(120),
            bat1.ms,
            batp.ms,
            batp.cost,
        );
        // The loop must still optimise — never worse than a random
        // mapping on the same instance.
        let rand_cost = exec_time(
            &inst,
            &match_rngutil::random_permutation(n, &mut StdRng::seed_from_u64(42)),
        );
        if batp.cost > rand_cost {
            failures.push(format!(
                "n={n}: cost {:.1} worse than a random mapping {rand_cost:.1}",
                batp.cost
            ));
        }
        entries.push(format!(
            "    {{\"n\":{n},\"reps\":{reps},\"batched_t1\":{},\
             \"batched\":{{\"threads\":{threads},\"ms\":{:.1},\"cost\":{:.3}}}}}",
            fmt_run(&bat1),
            batp.ms,
            batp.cost,
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"ga\",\n  \"host\": {},\n  \"threads\": {threads},\n  \
         \"sizes\": [\n{}\n  ]\n}}\n",
        match_bench::history::host_json(),
        entries.join(",\n")
    );
    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    match std::fs::write(&json_path, &json) {
        Ok(()) => eprintln!("[ga] wrote {json_path}"),
        Err(e) => {
            eprintln!("[ga] could not write {json_path}: {e}");
            std::process::exit(2);
        }
    }
    print!("{json}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("[ga] FAIL: {f}");
        }
        std::process::exit(1);
    }
}
