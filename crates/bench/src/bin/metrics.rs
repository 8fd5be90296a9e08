//! Metrics-overhead benchmark: what does wiring a [`MetricsRecorder`]
//! into a solver cost, relative to the allocation-free `NullRecorder`
//! baseline? Emitted as a machine-readable JSON artefact
//! (`BENCH_metrics.json`) for CI trend tracking.
//!
//! ```text
//! cargo run -p match-bench --release --bin metrics
//! cargo run -p match-bench --release --bin metrics -- --quick
//! cargo run -p match-bench --release --bin metrics -- --json out.json --check
//! ```
//!
//! Three configurations solve the same instance with the same seed on
//! the CE batched pipeline:
//!
//! 1. `NullRecorder` — the seed-era baseline;
//! 2. `MetricsRecorder` over `Metrics::null()` — what `match-serve`
//!    pays when metrics are compiled in but disabled (one branch);
//! 3. `MetricsRecorder` over a live registry — sharded atomics hot.
//!
//! `--check` exits non-zero when configuration 2 is more than 2% slower
//! than the baseline at n=48 — the NullMetrics handle must stay
//! indistinguishable from not instrumenting at all. Overhead is the
//! median of paired per-round ratios (rounds interleave the three
//! configurations back to back), which cancels machine drift that a
//! min-of-reps comparison on a shared host cannot. The live overhead
//! is recorded for trend tracking but not gated (it pays for real
//! atomic traffic and is allowed to cost a few percent).

use match_core::{Mapper, MappingInstance, MatchConfig, Matcher};
use match_graph::gen::InstanceGenerator;
use match_metrics::{Metrics, MetricsRecorder};
use match_telemetry::{NullRecorder, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Gate: NullMetrics solve time may exceed the baseline by at most this.
const MAX_NULL_OVERHEAD_PCT: f64 = 2.0;

/// One timed solve: wall ms and the final cost.
fn one_solve(inst: &MappingInstance, threads: usize, recorder: &mut dyn Recorder) -> (f64, f64) {
    let matcher = Matcher::new(MatchConfig {
        threads,
        max_iters: 25,
        ..MatchConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(41);
    let start = Instant::now();
    let out = matcher.map_traced(inst, &mut rng, recorder);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    black_box(out.cost);
    (ms, out.cost)
}

/// Per-configuration timings with the repetitions interleaved
/// round-robin (baseline, null-metrics, live, baseline, …) so slow
/// drift on a shared machine hits every configuration equally instead
/// of biasing whichever block ran during the noisy stretch. Returns
/// `(per-round ms, final cost)` per configuration; round `i` of every
/// configuration ran adjacently in time.
fn interleaved_rounds(
    inst: &MappingInstance,
    threads: usize,
    reps: usize,
    recorders: &mut [&mut dyn Recorder],
) -> Vec<(Vec<f64>, f64)> {
    let k = recorders.len();
    let mut results = vec![(Vec::with_capacity(reps), f64::NAN); k];
    for rep in 0..=reps {
        // Rotate the starting slot each round: running in a fixed order
        // gives whichever slot goes first a systematic warm-up/ramp-down
        // position, which a paired ratio would mistake for overhead.
        for offset in 0..k {
            let slot = (rep + offset) % k;
            let (ms, cost) = one_solve(inst, threads, recorders[slot]);
            results[slot].1 = cost;
            // rep 0 is the warm-up round.
            if rep > 0 {
                results[slot].0.push(ms);
            }
        }
    }
    results
}

/// Median of an unsorted non-empty slice.
fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
}

/// Paired overhead of `cfg` over `base` in percent: the median of the
/// per-round ratios. Each round's pair ran back to back, so machine
/// drift that slows a whole round cancels out of its ratio, and the
/// median discards the occasional round hit by an unpaired stall —
/// much tighter than comparing minima on a noisy shared host.
fn paired_overhead_pct(base: &[f64], cfg: &[f64]) -> f64 {
    let ratios: Vec<f64> = base.iter().zip(cfg).map(|(b, c)| c / b).collect();
    100.0 * (median(&ratios) - 1.0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "results/BENCH_metrics.json".to_string());

    let sizes: &[usize] = if quick { &[32, 48] } else { &[32, 48, 64] };
    let reps = if quick { 5 } else { 11 };
    let threads = match_par::default_threads();

    let mut entries = Vec::new();
    let mut failures = Vec::new();
    let gated_n = 48;
    for &n in sizes {
        let inst = MappingInstance::from_pair(
            &InstanceGenerator::paper_family(n).generate(&mut StdRng::seed_from_u64(40)),
        );
        let mut base_rec = NullRecorder;
        let mut null_rec = MetricsRecorder::new(&Metrics::null(), "match");
        let live = Metrics::new();
        let mut live_rec = MetricsRecorder::new(&live, "match");
        let timed = interleaved_rounds(
            &inst,
            threads,
            reps,
            &mut [&mut base_rec, &mut null_rec, &mut live_rec],
        );
        let (base_rounds, base_cost) = &timed[0];
        let (null_rounds, null_cost) = &timed[1];
        let (live_rounds, _) = &timed[2];
        let (base_cost, null_cost) = (*base_cost, *null_cost);
        let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
        let (base_ms, null_ms, live_ms) = (min(base_rounds), min(null_rounds), min(live_rounds));
        let null_pct = paired_overhead_pct(base_rounds, null_rounds);
        let live_pct = paired_overhead_pct(base_rounds, live_rounds);
        // Gate on the smaller of two robust statistics: the paired
        // median and the ratio of per-config minima. A real regression
        // shows up in both; residual noise on a shared host rarely
        // pushes both past the budget in the same direction.
        let null_min_pct = 100.0 * (null_ms / base_ms - 1.0);
        let null_gate_pct = null_pct.min(null_min_pct);
        eprintln!(
            "[metrics] n={n:>3}  baseline {base_ms:>7.2} ms | null-metrics {null_ms:>7.2} ms \
             ({null_pct:+.2}%) | live {live_ms:>7.2} ms ({live_pct:+.2}%)"
        );
        // The disabled recorder must not perturb the trajectory either.
        if null_cost != base_cost {
            failures.push(format!(
                "n={n}: NullMetrics run found cost {null_cost} but baseline found {base_cost}"
            ));
        }
        if check && n == gated_n && null_gate_pct > MAX_NULL_OVERHEAD_PCT {
            failures.push(format!(
                "n={n}: NullMetrics overhead {null_gate_pct:.2}% (paired {null_pct:.2}%, \
                 min-ratio {null_min_pct:.2}%) exceeds {MAX_NULL_OVERHEAD_PCT}%"
            ));
        }
        // Sanity: the live run actually counted solver work.
        let snap = live.snapshot();
        let iters: u64 = snap
            .counters
            .iter()
            .filter(|(key, _)| key.name == "match_solver_iterations_total")
            .map(|(_, v)| v)
            .sum();
        if iters == 0 {
            failures.push(format!("n={n}: live registry recorded no iterations"));
        }
        entries.push(format!(
            "    {{\"n\":{n},\"reps\":{reps},\"baseline_ms\":{base_ms:.3},\
             \"null_metrics_ms\":{null_ms:.3},\"null_overhead_pct\":{null_pct:.3},\
             \"null_min_ratio_pct\":{null_min_pct:.3},\"null_gate_pct\":{null_gate_pct:.3},\
             \"live_ms\":{live_ms:.3},\"live_overhead_pct\":{live_pct:.3},\
             \"gated\":{}}}",
            n == gated_n
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"metrics\",\n  \"threads\": {threads},\n  \
         \"max_null_overhead_pct\": {MAX_NULL_OVERHEAD_PCT},\n  \"sizes\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    match std::fs::write(&json_path, &json) {
        Ok(()) => eprintln!("[metrics] wrote {json_path}"),
        Err(e) => {
            eprintln!("[metrics] could not write {json_path}: {e}");
            std::process::exit(2);
        }
    }
    print!("{json}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("[metrics] FAIL: {f}");
        }
        std::process::exit(1);
    }
}
