//! Sampling benchmark: the model-level reference GenPerm draw
//! (`CeModel::sample_batch`, one `sample_into` per sample, kept as the
//! chi-square reference) versus the flat alias sampler the CE pipeline
//! runs, emitted as a machine-readable JSON artefact
//! (`BENCH_sampling.json`) for CI trend tracking.
//!
//! ```text
//! cargo run -p match-bench --release --bin sampling
//! cargo run -p match-bench --release --bin sampling -- --quick
//! cargo run -p match-bench --release --bin sampling -- --json out.json --check
//! ```
//!
//! `--check` exits non-zero when the flat sampler (at the default thread
//! count) is slower than the reference draw for any `n ≥ 32` — the CI
//! smoke gate for the sampling half of the fused pipeline.
//!
//! The uniform matrix is the cheapest state for the flat sampler: once a
//! run concentrates probability on columns that earlier rows took,
//! spins are rejected and rows fall through to the exact scan. So the
//! bench also records one batched solve at n = 32 and n = 48 (n = 32
//! only with `--quick`; `snapshot_every = 1`) and times the flat sampler on one thread at
//! the stochastic matrices reached after 0%, 25%, 50% and 90% of that
//! run's iterations, with its spin, rejection and scan counts. It ends
//! with one full MaTCH solve (`matcher_mt`). The JSON records the host:
//! CPU count, CPU model and SIMD level.

use match_ce::batch::{DrawStats, FlatSampler};
use match_ce::model::CeModel;
use match_ce::PermutationModel;
use match_core::{exec_time, MappingInstance, MatchConfig, Matcher};
use match_graph::gen::InstanceGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

struct Measurement {
    ns_per_sample: f64,
    samples_per_s: f64,
}

fn fmt_measure(m: &Measurement) -> String {
    format!(
        "{{\"ns_per_sample\":{:.1},\"samples_per_s\":{:.0}}}",
        m.ns_per_sample, m.samples_per_s
    )
}

/// Time `reps` repetitions of a whole-batch closure; returns per-sample
/// cost over `batch` samples per repetition.
fn time_batches(batch: usize, reps: usize, mut f: impl FnMut()) -> Measurement {
    f(); // warm-up
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    let total = (batch * reps) as f64;
    Measurement {
        ns_per_sample: elapsed / total,
        samples_per_s: total / (elapsed / 1e9),
    }
}

fn sequential_batch(model: &PermutationModel, batch: usize, reps: usize) -> Measurement {
    let mut rng = StdRng::seed_from_u64(7);
    let mut samples: Vec<Vec<usize>> = Vec::new();
    time_batches(batch, reps, || {
        model.sample_batch(&mut rng, batch, &mut samples);
        black_box(samples.len());
    })
}

fn flat_batch(
    model: &PermutationModel,
    n: usize,
    batch: usize,
    reps: usize,
    threads: usize,
) -> Measurement {
    let mut data = vec![0usize; batch * n];
    let mut aux = vec![0.0f64; batch];
    let mut tables = model.new_tables();
    let mut iter_seed = 0u64;
    time_batches(batch, reps, || {
        iter_seed = iter_seed.wrapping_add(1);
        let seed = iter_seed;
        model.fill_tables(&mut tables);
        let tables_ref = &tables;
        match_par::parallel_fill_rows(
            &mut data,
            &mut aux,
            n,
            threads,
            || model.new_scratch(),
            |scratch, i, row, _aux| {
                let mut rng = match_rngutil::seed::rng_from(seed, i as u64);
                model.sample_flat(tables_ref, scratch, &mut rng, row);
            },
        );
        black_box(data.last().copied());
    })
}

/// Fractions of a recorded run at which the flat sampler is timed.
const SNAPSHOT_FRACS: [f64; 4] = [0.0, 0.25, 0.5, 0.9];

/// One-thread flat sampling at one recorded matrix state.
struct StateTiming {
    frac: f64,
    iter: usize,
    ns_per_sample: f64,
    stats: DrawStats,
    samples: usize,
}

/// Record one batched solve at size `n` with a snapshot per iteration,
/// then time `reps` one-thread flat batches of `2n²` draws at the
/// snapshots closest to each of [`SNAPSHOT_FRACS`].
fn snapshot_states(n: usize, reps: usize) -> (usize, Vec<StateTiming>) {
    let inst = MappingInstance::from_pair(
        &InstanceGenerator::paper_family(n).generate(&mut StdRng::seed_from_u64(40 + n as u64)),
    );
    let cfg = MatchConfig {
        threads: 1,
        snapshot_every: Some(1),
        ..MatchConfig::default()
    };
    let run = Matcher::new(cfg).run(&inst, &mut StdRng::seed_from_u64(41));
    let snaps = &run.snapshots;
    let batch = 2 * n * n;
    let states = SNAPSHOT_FRACS
        .iter()
        .map(|&frac| {
            let snap = &snaps[((snaps.len() - 1) as f64 * frac).round() as usize];
            let model = PermutationModel::from_matrix(snap.matrix.clone());
            let mut tables = model.new_tables();
            model.fill_tables(&mut tables);
            let mut scratch = model.new_scratch();
            let mut out = vec![0usize; n];
            let mut stream = 0u64;
            let m = time_batches(batch, reps, || {
                for _ in 0..batch {
                    stream += 1;
                    let mut rng = match_rngutil::SplitMix64::stream(7, stream);
                    model.sample_flat(&tables, &mut scratch, &mut rng, &mut out);
                }
                black_box(out.last().copied());
            });
            StateTiming {
                frac,
                iter: snap.iter,
                ns_per_sample: m.ns_per_sample,
                stats: model.take_stats(&mut scratch),
                // `time_batches` runs one untimed warm-up batch.
                samples: batch * (reps + 1),
            }
        })
        .collect();
    (run.iterations, states)
}

/// End-to-end mapping time: one full MaTCH solve with a bounded
/// iteration budget.
fn matcher_mt(inst: &MappingInstance, threads: usize) -> (f64, f64) {
    let cfg = MatchConfig {
        threads,
        max_iters: 25,
        ..MatchConfig::default()
    };
    let out = Matcher::new(cfg).run(inst, &mut StdRng::seed_from_u64(41));
    (out.elapsed.as_secs_f64() * 1e3, out.cost)
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
        .unwrap_or_else(|| "results/BENCH_sampling.json".to_string());

    let sizes: &[usize] = if quick { &[16, 32] } else { &[16, 32, 48] };
    let reps = if quick { 5 } else { 20 };
    let threads = match_par::default_threads();

    let mut entries = Vec::new();
    let mut failures = Vec::new();
    for &n in sizes {
        let model = PermutationModel::uniform(n);
        let batch = 2 * n * n;
        let seq = sequential_batch(&model, batch, reps);
        let flat1 = flat_batch(&model, n, batch, reps, 1);
        let flatp = flat_batch(&model, n, batch, reps, threads);
        let speedup = seq.ns_per_sample / flatp.ns_per_sample;
        eprintln!(
            "[sampling] n={n:>3} batch={batch:>5}  sequential {:>8.1} ns/sample | \
             flat t1 {:>8.1} | flat t{threads} {:>8.1}  ({speedup:.2}x)",
            seq.ns_per_sample, flat1.ns_per_sample, flatp.ns_per_sample
        );
        if check && n >= 32 && flatp.ns_per_sample > seq.ns_per_sample {
            failures.push(format!(
                "n={n}: batched {:.1} ns/sample slower than sequential {:.1}",
                flatp.ns_per_sample, seq.ns_per_sample
            ));
        }
        entries.push(format!(
            "    {{\"n\":{n},\"batch\":{batch},\"reps\":{reps},\
             \"sequential\":{},\"batched_t1\":{},\
             \"batched\":{{\"threads\":{threads},\"ns_per_sample\":{:.1},\"samples_per_s\":{:.0}}},\
             \"speedup_vs_sequential\":{speedup:.3}}}",
            fmt_measure(&seq),
            fmt_measure(&flat1),
            flatp.ns_per_sample,
            flatp.samples_per_s,
        ));
    }

    // The flat sampler at real distribution states of recorded runs.
    let snapshot_sizes: &[usize] = if quick { &[32] } else { &[32, 48] };
    let mut snapshot_entries = Vec::new();
    for &n in snapshot_sizes {
        let (run_iters, states) = snapshot_states(n, reps);
        let mut state_entries = Vec::new();
        for st in &states {
            let rows = (st.samples * n) as f64;
            let scans_per_row = st.stats.scans as f64 / rows;
            let spins_per_row = st.stats.spins as f64 / rows;
            eprintln!(
                "[sampling] n={n:>3} state {:>3.0}% (iter {:>3} of {run_iters}): \
                 flat t1 {:>8.1} ns/sample | {spins_per_row:.2} spins/row, \
                 {scans_per_row:.2} scans/row",
                st.frac * 100.0,
                st.iter,
                st.ns_per_sample,
            );
            state_entries.push(format!(
                "{{\"frac\":{},\"iter\":{},\"ns_per_sample\":{:.1},\
                 \"spins_per_row\":{spins_per_row:.4},\
                 \"rejections_per_row\":{:.4},\"scans_per_row\":{scans_per_row:.4},\
                 \"uniform_picks_per_row\":{:.6}}}",
                st.frac,
                st.iter,
                st.ns_per_sample,
                st.stats.rejections as f64 / rows,
                st.stats.uniform_picks as f64 / rows,
            ));
        }
        snapshot_entries.push(format!(
            "    {{\"n\":{n},\"batch\":{},\"reps\":{reps},\"run_iterations\":{run_iters},\
             \"states\":[{}]}}",
            2 * n * n,
            state_entries.join(",")
        ));
    }

    // End-to-end MT at the largest size.
    let mt_n = *sizes.last().unwrap();
    let inst = MappingInstance::from_pair(
        &InstanceGenerator::paper_family(mt_n).generate(&mut StdRng::seed_from_u64(40)),
    );
    let (bat_ms, bat_cost) = matcher_mt(&inst, threads);
    eprintln!(
        "[sampling] matcher n={mt_n}: batched(t{threads}) {bat_ms:.1} ms (cost {bat_cost:.1})"
    );
    // Sanity: the solve optimises.
    let rand_cost = exec_time(
        &inst,
        &match_rngutil::random_permutation(mt_n, &mut StdRng::seed_from_u64(42)),
    );
    if bat_cost > rand_cost {
        failures.push(format!(
            "batched cost {bat_cost:.1} worse than a random mapping {rand_cost:.1}"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"sampling\",\n  \"host\": {},\n  \"threads\": {threads},\n  \
         \"sizes\": [\n{}\n  ],\n  \"snapshot_states\": [\n{}\n  ],\n  \
         \"matcher_mt\": {{\"n\": {mt_n}, \"batched_ms\": {bat_ms:.1}, \
         \"batched_cost\": {bat_cost:.3}}}\n}}\n",
        match_bench::history::host_json(),
        entries.join(",\n"),
        snapshot_entries.join(",\n")
    );
    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    match std::fs::write(&json_path, &json) {
        Ok(()) => eprintln!("[sampling] wrote {json_path}"),
        Err(e) => {
            eprintln!("[sampling] could not write {json_path}: {e}");
            std::process::exit(2);
        }
    }
    print!("{json}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("[sampling] FAIL: {f}");
        }
        std::process::exit(1);
    }
}
