//! Microbenchmark: GenPerm sampling (Figure 4) across matrix states.
//! MaTCH draws `2|V|²` GenPerm samples per iteration; this is the other
//! half of its per-iteration cost next to objective evaluation.
//!
//! The `sampling_*` groups compare the two batch pipelines end to end:
//! sequential restricted-roulette draws on one thread versus the fused
//! alias-table flat batch (single- and multi-threaded). The standalone
//! `match-bench` `sampling` binary emits the same comparison as a JSON
//! artefact for CI.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use match_ce::batch::FlatSampler;
use match_ce::model::CeModel;
use match_ce::{PermutationModel, StochasticMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_uniform(c: &mut Criterion) {
    let mut group = c.benchmark_group("genperm_uniform");
    for n in [10usize, 20, 50] {
        let model = PermutationModel::uniform(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut scratch = match_ce::models::permutation::GenPermScratch::new();
            let mut out = Vec::new();
            b.iter(|| {
                model.sample_into(&mut rng, &mut scratch, &mut out);
                black_box(out.last().copied())
            })
        });
    }
    group.finish();
}

fn bench_uniform_recorded(c: &mut Criterion) {
    // The same sampling loop with the disabled-telemetry path a traced
    // solver takes: one unconditional virtual `record` per sample, which
    // `NullRecorder` drops. Compare against `genperm_uniform`; the gap is
    // the observability tax with tracing off (<2% is the budget).
    use match_telemetry::{Event, NullRecorder, Recorder};
    let mut group = c.benchmark_group("genperm_uniform_recorded");
    for n in [10usize, 20, 50] {
        let model = PermutationModel::uniform(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut scratch = match_ce::models::permutation::GenPermScratch::new();
            let mut out = Vec::new();
            let mut null = NullRecorder;
            let recorder: &mut dyn Recorder = &mut null;
            b.iter(|| {
                model.sample_into(&mut rng, &mut scratch, &mut out);
                recorder.record(Event::Counter {
                    name: "samples".into(),
                    value: 1,
                });
                black_box(out.last().copied())
            })
        });
    }
    group.finish();
}

fn bench_alias_draw(c: &mut Criterion) {
    // One flat GenPerm draw (tables prebuilt: bounded alias spins, then
    // an exact scan over the free columns), against the O(n²)
    // restricted roulette of `genperm_uniform`.
    let mut group = c.benchmark_group("genperm_alias");
    for n in [10usize, 20, 50] {
        let model = PermutationModel::uniform(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut tables = model.new_tables();
            model.fill_tables(&mut tables);
            let mut scratch = model.new_scratch();
            let mut rng = StdRng::seed_from_u64(1);
            let mut out = vec![0usize; n];
            b.iter(|| {
                model.sample_flat(&tables, &mut scratch, &mut rng, &mut out);
                black_box(out.last().copied())
            })
        });
    }
    group.finish();
}

fn bench_degenerate(c: &mut Criterion) {
    // Near-degenerate matrices are the worst case for the restricted
    // wheel (mass concentrates on used columns late in the run).
    let mut group = c.benchmark_group("genperm_degenerate");
    for n in [10usize, 50] {
        let mut data = vec![1e-9; n * n];
        for i in 0..n {
            data[i * n + (n - 1 - i)] = 1.0;
        }
        let model = PermutationModel::from_matrix(StochasticMatrix::from_rows(n, n, data));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| black_box(model.sample(&mut rng)))
        });
    }
    group.finish();
}

/// A whole `N = 2n²` batch via the legacy sequential path: per-sample
/// `Vec` allocations, restricted-roulette draws on the calling thread.
fn bench_batch_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling_batch_sequential");
    group.sample_size(10);
    for n in [16usize, 32, 48] {
        let model = PermutationModel::uniform(n);
        let batch = 2 * n * n;
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut samples: Vec<Vec<usize>> = Vec::new();
            b.iter(|| {
                model.sample_batch(&mut rng, batch, &mut samples);
                black_box(samples.len())
            })
        });
    }
    group.finish();
}

/// The same `N = 2n²` batch through the fused flat pipeline, single- and
/// multi-threaded (per-sample derived RNGs, one flat buffer).
fn bench_batch_flat(c: &mut Criterion) {
    let threads_max = match_par::default_threads();
    let mut group = c.benchmark_group("sampling_batch_flat");
    group.sample_size(10);
    for n in [16usize, 32, 48] {
        let model = PermutationModel::uniform(n);
        let batch = 2 * n * n;
        for threads in [1usize, threads_max] {
            group.bench_with_input(BenchmarkId::new(format!("t{threads}"), n), &n, |b, _| {
                let mut data = vec![0usize; batch * n];
                let mut aux = vec![0.0f64; batch];
                let mut tables = model.new_tables();
                let mut iter_seed = 0u64;
                b.iter(|| {
                    iter_seed = iter_seed.wrapping_add(1);
                    let seed = iter_seed;
                    model.fill_tables(&mut tables);
                    let tables_ref = &tables;
                    let model_ref = &model;
                    match_par::parallel_fill_rows(
                        &mut data,
                        &mut aux,
                        n,
                        threads,
                        || model_ref.new_scratch(),
                        |scratch, i, row, _aux| {
                            let mut rng = match_rngutil::seed::rng_from(seed, i as u64);
                            model_ref.sample_flat(tables_ref, scratch, &mut rng, row);
                        },
                    );
                    black_box(data.last().copied())
                })
            });
        }
    }
    group.finish();
}

fn bench_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("elite_update");
    for n in [10usize, 50] {
        let elites: Vec<Vec<usize>> = (0..((n * n) / 5).max(1))
            .map(|s| match_rngutil::random_permutation(n, &mut StdRng::seed_from_u64(s as u64)))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut model = PermutationModel::uniform(n);
            b.iter(|| {
                model.update_from_elites(black_box(&elites), 0.3);
            })
        });
    }
    group.finish();
}

fn bench_elite_selection(c: &mut Criterion) {
    // O(N) quickselect + tie sweep vs. the full sort it replaced, on a
    // paper-sized cost vector with plateau-heavy values.
    let mut group = c.benchmark_group("elite_selection");
    for n in [512usize, 5000] {
        let costs: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(4);
            use rand::Rng;
            (0..n)
                .map(|_| (rng.random::<f64>() * 32.0).floor())
                .collect()
        };
        let target = (n / 10).max(1);
        group.bench_with_input(BenchmarkId::new("select", n), &n, |b, _| {
            b.iter(|| black_box(match_ce::select_elites(black_box(&costs), target)))
        });
        group.bench_with_input(BenchmarkId::new("sort", n), &n, |b, _| {
            b.iter(|| {
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| {
                    costs[a]
                        .partial_cmp(&costs[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                black_box(costs[order[target - 1]])
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_uniform,
    bench_uniform_recorded,
    bench_alias_draw,
    bench_degenerate,
    bench_batch_sequential,
    bench_batch_flat,
    bench_update,
    bench_elite_selection
);
criterion_main!(benches);
