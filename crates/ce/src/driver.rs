//! The iterative CE optimizer (paper Figures 2 and 5, generic form).
//!
//! Per iteration: draw `N` samples from the model, evaluate them, keep
//! the `⌊ρN⌋`-elite (plus ties at the threshold `γ`), update the model
//! parameters with smoothing `ζ` (Eq. 11 + Eq. 13), and stop when the
//! per-row maxima `μ^i` have been stable for `c` consecutive iterations
//! (Eq. 12) or the model has degenerated.
//!
//! Two loops share the elite selection and the stopping rules:
//! [`minimize`] scores samples one at a time through a closure (the
//! generic form, for any [`CeModel`]), and [`minimize_flat`] is the fused
//! parallel sample+evaluate pipeline for fixed-width [`FlatSampler`]
//! models, which the MaTCH solver in `match-core` runs. Its observer hook
//! receives the model after each update, which is how Figure 3's matrix
//! snapshots are collected.

use crate::batch::{DrawStats, FlatBatch, FlatEvaluator, FlatSampler};
use crate::model::CeModel;
use match_telemetry::{Event, IterEvent, PoolEvent, Recorder, Span, SpanEvent};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Tunables of the CE loop. Defaults follow the paper where it commits
/// to a value: `ρ = 0.1` (within its 0.01–0.1 band), `ζ = 0.3`, `c = 5`.
/// `sample_size` has no universal default — MaTCH uses `N = 2|V_r|²` —
/// so it is a required field here.
#[derive(Debug, Clone, PartialEq)]
pub struct CeConfig {
    /// Elite fraction `ρ` ("focus parameter", §4).
    pub rho: f64,
    /// Samples per iteration `N`.
    pub sample_size: usize,
    /// Smoothing factor `ζ` of Eq. 13 (`1.0` = coarse update).
    pub zeta: f64,
    /// Hard iteration cap (safety net; the paper relies on Eq. 12 only).
    pub max_iters: usize,
    /// Consecutive-stability window `c` of Eq. 12.
    pub stability_window: usize,
    /// Tolerance for "equal" row maxima in Eq. 12. With smoothing the
    /// maxima converge asymptotically rather than exactly, so exact
    /// float equality would never trigger; the paper's integer-count
    /// updates make equality meaningful there.
    pub stability_tol: f64,
    /// Stop as soon as the model is degenerate within this tolerance.
    pub degeneracy_tol: f64,
    /// Consecutive-stability window for the elite threshold `γ` —
    /// Figure 2's stopping rule (`γ̂_i = γ̂_{i−1} = … = γ̂_{i−k}`).
    /// `0` disables the rule. With smoothing, the per-row maxima of
    /// Eq. 12 converge only asymptotically, so in practice this rule is
    /// the one that fires once the sampled population has collapsed onto
    /// a single cost plateau.
    pub gamma_window: usize,
    /// Relative tolerance for "equal" γ values.
    pub gamma_tol: f64,
}

impl CeConfig {
    /// Paper-style defaults with the given per-iteration sample count.
    pub fn with_sample_size(sample_size: usize) -> Self {
        CeConfig {
            rho: 0.1,
            sample_size,
            zeta: 0.3,
            max_iters: 1000,
            stability_window: 5,
            stability_tol: 1e-4,
            degeneracy_tol: 1e-6,
            gamma_window: 5,
            gamma_tol: 1e-12,
        }
    }

    /// Panic with a clear message on nonsensical settings.
    pub fn validate(&self) {
        assert!(self.rho > 0.0 && self.rho <= 1.0, "rho must be in (0, 1]");
        assert!(self.sample_size >= 1, "need at least one sample");
        assert!((0.0..=1.0).contains(&self.zeta), "zeta must be in [0, 1]");
        assert!(self.max_iters >= 1, "need at least one iteration");
        assert!(self.stability_window >= 1, "stability window >= 1");
    }
}

/// Why the loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Row maxima stable for `c` iterations (Eq. 12).
    MuStable,
    /// Elite threshold `γ` stable for `k` iterations (Figure 2 step 4).
    GammaStable,
    /// The model collapsed to a (near-)degenerate distribution.
    Degenerate,
    /// Iteration cap reached.
    MaxIters,
    /// The caller's stop predicate fired (deadline or external
    /// cancellation); the outcome holds the best sample found so far.
    Cancelled,
}

/// Telemetry of one iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterStats {
    /// Iteration index (0-based).
    pub iter: usize,
    /// Elite threshold `γ_k` (worst cost admitted to the elite).
    pub gamma: f64,
    /// Best sampled cost this iteration.
    pub best: f64,
    /// Mean sampled cost this iteration.
    pub mean: f64,
    /// Worst sampled cost this iteration.
    pub worst: f64,
    /// Number of elite samples (≥ `⌊ρN⌋`, ties included).
    pub elite_count: usize,
    /// Model entropy after the update.
    pub entropy: f64,
}

/// Full run telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CeTelemetry {
    /// One record per iteration, in order.
    pub iters: Vec<IterStats>,
}

impl CeTelemetry {
    /// Best cost seen per iteration (running minimum of `best`).
    pub fn best_curve(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        self.iters
            .iter()
            .map(|s| {
                best = best.min(s.best);
                best
            })
            .collect()
    }
}

/// Result of a CE run.
#[derive(Debug, Clone)]
pub struct CeOutcome<S> {
    /// The best sample ever evaluated.
    pub best_sample: S,
    /// Its cost.
    pub best_cost: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Total objective evaluations (`iterations × N`).
    pub evaluations: u64,
    /// Why the loop stopped.
    pub stop_reason: StopReason,
    /// Per-iteration statistics.
    pub telemetry: CeTelemetry,
}

/// Minimise `score` over samples of `model`, with per-sample evaluation
/// on the calling thread — the generic loop of Figure 2 for any
/// [`CeModel`] (the benchmark COPs of [`crate::problems`]). Mapping
/// solvers run the fused parallel loop, [`minimize_flat`].
pub fn minimize<M, F>(
    model: &mut M,
    config: &CeConfig,
    rng: &mut StdRng,
    mut score: F,
) -> CeOutcome<M::Sample>
where
    M: CeModel,
    M::Sample: Clone,
    F: FnMut(&M::Sample) -> f64,
{
    config.validate();
    let n = config.sample_size;
    let elite_target = ((config.rho * n as f64).floor() as usize).max(1);

    let mut best_sample: Option<M::Sample> = None;
    let mut best_cost = f64::INFINITY;
    let mut telemetry = CeTelemetry::default();
    let mut rules = StopRules::default();
    let mut stop_reason = StopReason::MaxIters;
    let mut iterations = 0usize;
    let mut samples: Vec<M::Sample> = Vec::with_capacity(n);
    let mut costs: Vec<f64> = Vec::with_capacity(n);

    for iter in 0..config.max_iters {
        iterations = iter + 1;
        // Step 3 (Fig. 5): draw and score the sample batch (buffers
        // reused across iterations).
        model.sample_batch(rng, n, &mut samples);
        costs.clear();
        costs.extend(samples.iter().map(&mut score));

        // Steps 4–5: the ρ-quantile threshold γ and the elite set, in
        // O(N) expected instead of a full sort.
        let selection = select_elites(&costs, elite_target);
        let elites: Vec<M::Sample> = selection
            .elites
            .iter()
            .map(|&i| samples[i].clone())
            .collect();

        // Track the incumbent. `<` alone would never capture a sample
        // when every cost is +∞ (all-infeasible iterations of penalised
        // formulations).
        let first = selection.best;
        if best_sample.is_none() || costs[first] < best_cost {
            best_cost = costs[first];
            best_sample = Some(samples[first].clone());
        }

        // Step 6: ML update + smoothing.
        model.update_from_elites(&elites, config.zeta);
        telemetry
            .iters
            .push(IterStats::of(iter, &selection, &costs, model.entropy()));

        if let Some(reason) = rules.check(config, model, selection.gamma) {
            stop_reason = reason;
            break;
        }
    }

    CeOutcome {
        best_sample: best_sample.expect("at least one iteration ran"),
        best_cost,
        iterations,
        evaluations: iterations as u64 * n as u64,
        stop_reason,
        telemetry,
    }
}

/// The stopping rules both loops check after every model update: Step 8
/// (μ-stability, Eq. 12), Figure 2's γ-stability rule, and the
/// degeneracy early-out, in that order.
#[derive(Default)]
struct StopRules {
    prev_signature: Option<Vec<f64>>,
    stable_iters: usize,
    prev_gamma: Option<f64>,
    gamma_stable: usize,
}

impl StopRules {
    /// Feed one iteration's updated `model` and elite threshold `gamma`;
    /// `Some(reason)` when the loop must stop.
    fn check<M: CeModel>(
        &mut self,
        config: &CeConfig,
        model: &M,
        gamma: f64,
    ) -> Option<StopReason> {
        let signature = model.stability_signature();
        if let Some(prev) = &self.prev_signature {
            let stable = prev
                .iter()
                .zip(&signature)
                .all(|(a, b)| (a - b).abs() <= config.stability_tol);
            self.stable_iters = if stable { self.stable_iters + 1 } else { 0 };
        }
        self.prev_signature = Some(signature);
        if self.stable_iters >= config.stability_window {
            return Some(StopReason::MuStable);
        }
        if config.gamma_window > 0 {
            if let Some(pg) = self.prev_gamma {
                let equal = if pg.is_finite() && gamma.is_finite() {
                    (pg - gamma).abs() <= config.gamma_tol * (1.0 + pg.abs())
                } else {
                    pg == gamma
                };
                self.gamma_stable = if equal { self.gamma_stable + 1 } else { 0 };
            }
            self.prev_gamma = Some(gamma);
            if self.gamma_stable >= config.gamma_window {
                return Some(StopReason::GammaStable);
            }
        }
        model
            .is_degenerate(config.degeneracy_tol)
            .then_some(StopReason::Degenerate)
    }
}

impl IterStats {
    /// The record of iteration `iter`, from its elite selection over
    /// `costs` and the model entropy after the update.
    fn of(iter: usize, selection: &EliteSelection, costs: &[f64], entropy: f64) -> IterStats {
        IterStats {
            iter,
            gamma: selection.gamma,
            best: costs[selection.best],
            mean: costs.iter().sum::<f64>() / costs.len() as f64,
            worst: selection.worst,
            elite_count: selection.elites.len(),
            entropy,
        }
    }
}

/// The elite set of one iteration, by index into the cost slice.
#[derive(Debug, Clone, PartialEq)]
pub struct EliteSelection {
    /// Elite threshold `γ` — the `⌊ρN⌋`-th smallest cost.
    pub gamma: f64,
    /// Indices with cost `≤ γ` (the indicator of Eq. 11), sorted by
    /// `(cost, index)` — the exact order a stable full sort would give.
    pub elites: Vec<usize>,
    /// Index of the best sample (smallest cost; smallest index on ties).
    pub best: usize,
    /// Worst sampled cost (telemetry).
    pub worst: f64,
}

/// Select the `⌊ρN⌋`-elite plus ties at `γ` in O(N) expected time.
///
/// A quickselect ([`slice::select_nth_unstable_by`]) finds the
/// `elite_target`-th smallest cost — that is `γ` — and a linear sweep
/// admits every sample with `cost ≤ γ`, matching the `S ≤ γ` indicator
/// of Eq. 11 (ties included). Only the elite set (≈ `ρN` entries) is then
/// sorted, so the returned order — and hence the floating-point summation
/// order of the model update and the incumbent choice — is bit-identical
/// to the full stable sort this replaces.
pub fn select_elites(costs: &[f64], elite_target: usize) -> EliteSelection {
    let n = costs.len();
    assert!(
        (1..=n).contains(&elite_target),
        "elite target must be in 1..=N"
    );
    let mut idx: Vec<usize> = (0..n).collect();
    let (_, &mut kth, _) =
        idx.select_nth_unstable_by(elite_target - 1, |&a, &b| costs[a].total_cmp(&costs[b]));
    let gamma = costs[kth];
    let mut elites: Vec<usize> = (0..n).filter(|&i| costs[i] <= gamma).collect();
    elites.sort_unstable_by(|&a, &b| costs[a].total_cmp(&costs[b]).then(a.cmp(&b)));
    let best = *elites.first().expect("gamma itself is admitted");
    let worst = costs
        .iter()
        .copied()
        .max_by(f64::total_cmp)
        .expect("n >= 1");
    EliteSelection {
        gamma,
        elites,
        best,
        worst,
    }
}

/// The fused parallel CE loop for [`FlatSampler`] models: per iteration,
/// the `N`-sample batch is split into `match-par` row chunks and each
/// worker **draws its rows, then scores the chunk in one
/// [`FlatEvaluator::evaluate_rows`] call**, writing into one flat
/// `N × width` buffer — no per-sample allocation, no sample-then-evaluate
/// barrier. A batch evaluator amortises its setup (the SoA transpose and
/// lane buffers of `match-core`'s kernel) across a chunk; a per-row
/// closure plugs in through [`RowEval`](crate::batch::RowEval).
///
/// Determinism: the driver RNG is consumed exactly once per iteration
/// (one `u64` → the iteration seed); sample `i` draws from its own
/// counter-based `match_rngutil::SplitMix64::stream(iter_seed, i)` —
/// two mixes to set up instead of a full `StdRng` key expansion per
/// sample. Evaluation is pure, so chunk boundaries only regroup the
/// evaluator's batches: results are identical for every `threads` value
/// and chunking.
///
/// `observe(iter, &model)` runs after every model update (Figure 3's
/// matrix snapshots). `should_stop` is polled once per iteration, after
/// the incumbent update and the stopping rules, so at least one
/// iteration always completes; when it fires the loop exits with
/// [`StopReason::Cancelled`]. Polling consumes no randomness.
///
/// When `recorder` is enabled, the fused region still reports separate
/// `sample` / `evaluate` spans: workers accumulate per-phase nanoseconds
/// and the region's wall clock is split proportionally (table builds
/// count as sampling). Per-chunk [`PoolEvent`]s expose dispatch balance.
#[allow(clippy::too_many_arguments)]
pub fn minimize_flat<M, E, O>(
    model: &mut M,
    config: &CeConfig,
    rng: &mut StdRng,
    threads: usize,
    evaluator: &E,
    mut observe: O,
    recorder: &mut dyn Recorder,
    should_stop: &dyn Fn() -> bool,
) -> CeOutcome<Vec<usize>>
where
    M: FlatSampler,
    E: FlatEvaluator,
    O: FnMut(usize, &M),
{
    config.validate();
    let traced = recorder.enabled();
    let n = config.sample_size;
    let width = model.width();
    let elite_target = ((config.rho * n as f64).floor() as usize).max(1);

    let mut best_sample: Option<Vec<usize>> = None;
    let mut best_cost = f64::INFINITY;
    let mut telemetry = CeTelemetry::default();
    let mut evaluations: u64 = 0;
    let mut rules = StopRules::default();
    let mut stop_reason = StopReason::MaxIters;
    let mut iterations = 0usize;

    let mut tables = model.new_tables();
    let mut data = vec![0usize; n * width];
    let mut costs = vec![0.0f64; n];

    for iter in 0..config.max_iters {
        iterations = iter + 1;
        let iter_start = traced.then(Instant::now);

        // One driver-RNG draw per iteration; everything below is a pure
        // function of (model, iter_seed), independent of thread count.
        let iter_seed: u64 = rng.random();

        let region_start = traced.then(Instant::now);
        model.fill_tables(&mut tables);
        let prep_ns = region_start.map_or(0, |t| t.elapsed().as_nanos() as u64);

        let sample_ns = AtomicU64::new(0);
        let eval_ns = AtomicU64::new(0);
        let draw_stats = Mutex::new(DrawStats::default());
        let tables_ref = &tables;
        let timings = match_par::parallel_fill_rows_chunked(
            &mut data,
            &mut costs,
            width,
            threads,
            || (model.new_scratch(), evaluator.new_scratch()),
            |(scratch, eval_scratch), base, chunk_data, chunk_costs| {
                // Draw every row of the chunk, then score the chunk in
                // one batch call. Sample i's RNG stream depends only on
                // its global index, and evaluation is pure, so chunk
                // boundaries cannot show in the results.
                let t0 = traced.then(Instant::now);
                let mut rest: &mut [usize] = chunk_data;
                for k in 0..chunk_costs.len() {
                    let (row, tail) = rest.split_at_mut(width);
                    rest = tail;
                    let mut srng = match_rngutil::SplitMix64::stream(iter_seed, (base + k) as u64);
                    model.sample_flat(tables_ref, scratch, &mut srng, row);
                }
                let t1 = traced.then(Instant::now);
                evaluator.evaluate_rows(chunk_data, chunk_costs, eval_scratch);
                if let (Some(t0), Some(t1)) = (t0, t1) {
                    let t2 = Instant::now();
                    sample_ns.fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
                    eval_ns.fetch_add((t2 - t1).as_nanos() as u64, Ordering::Relaxed);
                    let chunk_stats = model.take_stats(scratch);
                    draw_stats
                        .lock()
                        .expect("draw stats lock")
                        .add(&chunk_stats);
                }
            },
        );
        evaluations += n as u64;
        if traced {
            recorder.record(Event::Counter {
                name: "evaluations".into(),
                value: n as u64,
            });
            let stats = draw_stats.into_inner().expect("draw stats lock");
            if !stats.is_empty() {
                for (name, value) in stats.named() {
                    recorder.record(Event::Counter {
                        name: name.into(),
                        value,
                    });
                }
            }
        }

        if let Some(start) = region_start {
            // Split the fused region's wall clock between the two logical
            // phases in proportion to the workers' accumulated time, so
            // `matchctl report` can budget sampling and evaluation
            // separately. Table builds count as sampling.
            let wall = start.elapsed().as_nanos() as u64;
            let s = prep_ns + sample_ns.load(Ordering::Relaxed);
            let e = eval_ns.load(Ordering::Relaxed);
            let total = s + e;
            let sample_share = if total == 0 {
                wall
            } else {
                (wall as u128 * s as u128 / total as u128) as u64
            };
            recorder.record(Event::Span(SpanEvent {
                name: "sample".into(),
                iter: iter as u64,
                wall_ns: sample_share,
            }));
            recorder.record(Event::Span(SpanEvent {
                name: "evaluate".into(),
                iter: iter as u64,
                wall_ns: wall - sample_share,
            }));
            for t in &timings {
                recorder.record(Event::Pool(PoolEvent {
                    iter: iter as u64,
                    chunk: t.chunk,
                    len: t.len,
                    wall_ns: t.wall_ns,
                }));
            }
        }

        // Steps 4–5: γ and the elite set, O(N) expected.
        let selection = select_elites(&costs, elite_target);

        // Track the incumbent.
        let first = selection.best;
        if best_sample.is_none() || costs[first] < best_cost {
            best_cost = costs[first];
            best_sample = Some(data[first * width..(first + 1) * width].to_vec());
        }

        // Step 6: ML update + smoothing, straight off the flat batch.
        let span = traced.then(|| Span::start("update", iter as u64));
        model.update_from_flat(
            &FlatBatch::new(width, &data),
            &selection.elites,
            config.zeta,
        );
        if let Some(span) = span {
            span.finish(recorder);
        }
        observe(iter, model);

        let stats = IterStats::of(iter, &selection, &costs, model.entropy());
        if let Some(start) = iter_start {
            recorder.record(Event::Iter(IterEvent {
                iter: iter as u64,
                best: stats.best,
                mean: stats.mean,
                gamma: Some(stats.gamma),
                elite_size: stats.elite_count as u64,
                wall_ns: start.elapsed().as_nanos() as u64,
            }));
        }
        telemetry.iters.push(stats);

        if let Some(reason) = rules.check(config, model, selection.gamma) {
            stop_reason = reason;
            break;
        }
        // Cooperative cancellation, polled last so the incumbent from
        // this iteration is already captured.
        if should_stop() {
            stop_reason = StopReason::Cancelled;
            break;
        }
    }

    CeOutcome {
        best_sample: best_sample.expect("at least one iteration ran"),
        best_cost,
        iterations,
        evaluations,
        stop_reason,
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::RowEval;
    use crate::models::bernoulli::BernoulliModel;
    use crate::models::permutation::PermutationModel;
    use match_telemetry::NullRecorder;
    use rand::SeedableRng;

    /// Hidden-permutation cost: positions that differ from `target`.
    fn distance(target: &[usize]) -> impl Fn(&[usize]) -> f64 + Sync + '_ {
        move |s: &[usize]| s.iter().zip(target).filter(|(a, b)| a != b).count() as f64
    }

    /// Cost: number of coordinates that differ from a hidden target.
    fn hamming_cost(target: &[bool]) -> impl Fn(&Vec<bool>) -> f64 + '_ {
        move |s: &Vec<bool>| s.iter().zip(target).filter(|(a, b)| a != b).count() as f64
    }

    #[test]
    fn recovers_hidden_bit_vector() {
        let target = vec![true, false, true, true, false, false, true, false];
        let mut model = BernoulliModel::uniform(target.len());
        let cfg = CeConfig::with_sample_size(100);
        let mut rng = StdRng::seed_from_u64(81);
        let out = minimize(&mut model, &cfg, &mut rng, hamming_cost(&target));
        assert_eq!(out.best_cost, 0.0);
        assert_eq!(out.best_sample, target);
        assert!(out.iterations < 100);
        assert_eq!(
            out.evaluations,
            out.iterations as u64 * cfg.sample_size as u64
        );
    }

    #[test]
    fn recovers_hidden_permutation() {
        let target = vec![3usize, 1, 4, 0, 2, 5];
        let mut model = PermutationModel::uniform(target.len());
        let cfg = CeConfig::with_sample_size(200);
        let mut rng = StdRng::seed_from_u64(82);
        let out = minimize(&mut model, &cfg, &mut rng, |s: &Vec<usize>| {
            s.iter().zip(&target).filter(|(a, b)| a != b).count() as f64
        });
        assert_eq!(out.best_cost, 0.0);
        assert_eq!(out.best_sample, target);
    }

    #[test]
    fn gamma_is_monotone_trending_down() {
        // On a smooth problem the elite threshold should improve overall.
        let target = vec![true; 12];
        let mut model = BernoulliModel::uniform(12);
        let cfg = CeConfig::with_sample_size(80);
        let mut rng = StdRng::seed_from_u64(83);
        let out = minimize(&mut model, &cfg, &mut rng, hamming_cost(&target));
        let first = out.telemetry.iters.first().unwrap().gamma;
        let last = out.telemetry.iters.last().unwrap().gamma;
        assert!(last <= first);
    }

    #[test]
    fn best_curve_is_nonincreasing() {
        let target = vec![
            true, false, true, false, true, false, true, false, true, false,
        ];
        let mut model = BernoulliModel::uniform(10);
        let cfg = CeConfig::with_sample_size(50);
        let mut rng = StdRng::seed_from_u64(84);
        let out = minimize(&mut model, &cfg, &mut rng, hamming_cost(&target));
        let curve = out.telemetry.best_curve();
        for w in curve.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn observer_sees_every_iteration() {
        let target = [2usize, 0, 3, 1];
        let mut model = PermutationModel::uniform(target.len());
        let cfg = CeConfig::with_sample_size(30);
        let mut rng = StdRng::seed_from_u64(85);
        let mut seen = Vec::new();
        let out = minimize_flat(
            &mut model,
            &cfg,
            &mut rng,
            1,
            &RowEval(distance(&target)),
            |iter, _m| seen.push(iter),
            &mut NullRecorder,
            &|| false,
        );
        assert_eq!(seen.len(), out.iterations);
        assert_eq!(seen, (0..out.iterations).collect::<Vec<_>>());
    }

    #[test]
    fn max_iters_respected() {
        let mut model = BernoulliModel::uniform(64);
        let mut cfg = CeConfig::with_sample_size(10);
        cfg.max_iters = 3;
        // Random objective: no convergence possible.
        let mut rng = StdRng::seed_from_u64(86);
        let mut flip = 0.0;
        let out = minimize(&mut model, &cfg, &mut rng, |_s| {
            flip += 1.0;
            (flip * 7919.0) % 97.0
        });
        assert_eq!(out.iterations, 3);
        assert_eq!(out.stop_reason, StopReason::MaxIters);
    }

    #[test]
    fn stops_on_degeneracy_with_coarse_update() {
        // zeta = 1 and a constant elite: model collapses instantly.
        let mut model = BernoulliModel::uniform(6);
        let mut cfg = CeConfig::with_sample_size(40);
        cfg.zeta = 1.0;
        cfg.stability_window = 50; // keep μ-rule out of the way
        let target = vec![true; 6];
        let mut rng = StdRng::seed_from_u64(87);
        let out = minimize(&mut model, &cfg, &mut rng, hamming_cost(&target));
        assert!(matches!(
            out.stop_reason,
            StopReason::Degenerate | StopReason::MuStable
        ));
        assert!(out.iterations < 50);
    }

    #[test]
    fn handles_infinite_costs() {
        // Infeasible samples score +inf; the driver must still pick the
        // finite ones as elites.
        let mut model = BernoulliModel::uniform(5);
        let cfg = CeConfig::with_sample_size(60);
        let mut rng = StdRng::seed_from_u64(88);
        let out = minimize(&mut model, &cfg, &mut rng, |s: &Vec<bool>| {
            let ones = s.iter().filter(|&&b| b).count();
            if ones == 0 {
                f64::INFINITY
            } else {
                ones as f64
            }
        });
        assert_eq!(out.best_cost, 1.0);
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn invalid_config_panics() {
        let mut model = BernoulliModel::uniform(2);
        let mut cfg = CeConfig::with_sample_size(10);
        cfg.rho = 0.0;
        let mut rng = StdRng::seed_from_u64(89);
        minimize(&mut model, &cfg, &mut rng, |_| 0.0);
    }

    #[test]
    #[should_panic(expected = "zeta must be in [0, 1]")]
    fn invalid_zeta_panics() {
        let mut model = BernoulliModel::uniform(2);
        let mut cfg = CeConfig::with_sample_size(10);
        cfg.zeta = 1.5;
        minimize(&mut model, &cfg, &mut StdRng::seed_from_u64(89), |_| 0.0);
    }

    #[test]
    #[should_panic(expected = "need at least one sample")]
    fn zero_samples_panics() {
        let mut model = BernoulliModel::uniform(2);
        let cfg = CeConfig::with_sample_size(0);
        minimize(&mut model, &cfg, &mut StdRng::seed_from_u64(89), |_| 0.0);
    }

    #[test]
    #[should_panic(expected = "need at least one iteration")]
    fn zero_iterations_panics() {
        let mut model = BernoulliModel::uniform(2);
        let mut cfg = CeConfig::with_sample_size(10);
        cfg.max_iters = 0;
        minimize(&mut model, &cfg, &mut StdRng::seed_from_u64(89), |_| 0.0);
    }

    #[test]
    fn cancellation_fires_after_one_iteration() {
        // A hostile predicate that is always true still lets one
        // iteration run, so the outcome has a valid incumbent.
        let target: Vec<usize> = (0..16).rev().collect();
        let mut model = PermutationModel::uniform(target.len());
        let cfg = CeConfig::with_sample_size(20);
        let mut rng = StdRng::seed_from_u64(91);
        let out = minimize_flat(
            &mut model,
            &cfg,
            &mut rng,
            1,
            &RowEval(distance(&target)),
            |_, _| {},
            &mut NullRecorder,
            &|| true,
        );
        assert_eq!(out.iterations, 1);
        assert_eq!(out.stop_reason, StopReason::Cancelled);
        assert!(out.best_cost.is_finite());
    }

    #[test]
    fn never_firing_predicate_changes_nothing() {
        // Same seed, with a constant and with a polled-and-counted
        // (never-firing) stop predicate: identical trajectories, because
        // polling consumes no RNG.
        let target = [3usize, 1, 4, 0, 2, 5];
        let cfg = CeConfig::with_sample_size(100);
        let polls = std::cell::Cell::new(0usize);
        let run = |should_stop: &dyn Fn() -> bool| {
            let mut model = PermutationModel::uniform(target.len());
            minimize_flat(
                &mut model,
                &cfg,
                &mut StdRng::seed_from_u64(81),
                1,
                &RowEval(distance(&target)),
                |_, _| {},
                &mut NullRecorder,
                should_stop,
            )
        };
        let plain = run(&|| false);
        let counted = run(&|| {
            polls.set(polls.get() + 1);
            false
        });
        assert!(polls.get() >= 1);
        assert_eq!(plain.best_sample, counted.best_sample);
        assert_eq!(plain.best_cost, counted.best_cost);
        assert_eq!(plain.iterations, counted.iterations);
        assert_eq!(plain.stop_reason, counted.stop_reason);
        assert_eq!(plain.telemetry, counted.telemetry);
    }

    #[test]
    fn elite_count_at_least_target_with_ties() {
        let mut model = BernoulliModel::uniform(3);
        let cfg = CeConfig::with_sample_size(50);
        let mut rng = StdRng::seed_from_u64(90);
        // Constant objective: every sample ties at γ, so all are elite.
        let out = minimize(&mut model, &cfg, &mut rng, |_| 1.0);
        assert!(out.telemetry.iters[0].elite_count == 50);
    }

    /// The sorted reference implementation `select_elites` replaced.
    fn select_elites_by_sort(costs: &[f64], elite_target: usize) -> EliteSelection {
        let n = costs.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            costs[a]
                .partial_cmp(&costs[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let gamma = costs[order[elite_target - 1]];
        let elites: Vec<usize> = order
            .iter()
            .copied()
            .take_while(|&i| costs[i] <= gamma)
            .collect();
        EliteSelection {
            gamma,
            best: order[0],
            worst: costs[order[n - 1]],
            elites,
        }
    }

    #[test]
    fn select_elites_matches_sorted_reference() {
        // Pseudo-random and adversarially tie-heavy cost vectors.
        let mut rng = StdRng::seed_from_u64(92);
        for case in 0..200 {
            let n: usize = 1 + (case % 37);
            let costs: Vec<f64> = (0..n)
                .map(|_| {
                    use rand::Rng;
                    match rng.random_range(0..4u32) {
                        // Heavy ties: few distinct plateau levels.
                        0 => rng.random_range(0..3u32) as f64,
                        1 => f64::INFINITY,
                        _ => rng.random::<f64>(),
                    }
                })
                .collect();
            for target in [1, n.div_ceil(10).max(1), n] {
                let fast = select_elites(&costs, target);
                let slow = select_elites_by_sort(&costs, target);
                assert_eq!(fast, slow, "n={n} target={target} costs={costs:?}");
            }
        }
    }

    #[test]
    fn select_elites_admits_ties_beyond_target() {
        let costs = [2.0, 1.0, 1.0, 1.0, 3.0];
        let sel = select_elites(&costs, 2);
        assert_eq!(sel.gamma, 1.0);
        assert_eq!(sel.elites, vec![1, 2, 3]);
        assert_eq!(sel.best, 1);
        assert_eq!(sel.worst, 3.0);
    }

    #[test]
    fn select_elites_all_infinite() {
        let costs = [f64::INFINITY; 4];
        let sel = select_elites(&costs, 1);
        assert_eq!(sel.gamma, f64::INFINITY);
        assert_eq!(sel.elites, vec![0, 1, 2, 3]);
        assert_eq!(sel.best, 0);
    }

    #[test]
    fn flat_recovers_hidden_permutation() {
        let target = vec![3usize, 1, 4, 0, 2, 5];
        let mut model = PermutationModel::uniform(target.len());
        let cfg = CeConfig::with_sample_size(200);
        let mut rng = StdRng::seed_from_u64(82);
        let out = minimize_flat(
            &mut model,
            &cfg,
            &mut rng,
            1,
            &RowEval(distance(&target)),
            |_, _| {},
            &mut NullRecorder,
            &|| false,
        );
        assert_eq!(out.best_cost, 0.0);
        assert_eq!(out.best_sample, target);
    }

    #[test]
    fn flat_outcome_is_thread_count_invariant() {
        let target = vec![2usize, 0, 3, 1, 4];
        let run = |threads: usize| {
            let mut model = PermutationModel::uniform(target.len());
            let cfg = CeConfig::with_sample_size(120);
            let mut rng = StdRng::seed_from_u64(93);
            minimize_flat(
                &mut model,
                &cfg,
                &mut rng,
                threads,
                &RowEval(distance(&target)),
                |_, _| {},
                &mut NullRecorder,
                &|| false,
            )
        };
        let one = run(1);
        for threads in [2, 4, 8] {
            let other = run(threads);
            assert_eq!(one.best_sample, other.best_sample, "threads={threads}");
            assert_eq!(one.best_cost, other.best_cost, "threads={threads}");
            assert_eq!(one.iterations, other.iterations, "threads={threads}");
            assert_eq!(one.telemetry, other.telemetry, "threads={threads}");
        }
    }

    #[test]
    fn batch_evaluator_matches_per_row_closure() {
        // A chunk-level evaluator computing the same pure cost as a
        // per-row closure must reproduce its trajectory exactly, for
        // every thread count.
        struct SumDistance(Vec<usize>);
        impl FlatEvaluator for SumDistance {
            type Scratch = ();
            fn new_scratch(&self) -> Self::Scratch {}
            fn evaluate_rows(&self, rows: &[usize], costs: &mut [f64], _s: &mut Self::Scratch) {
                let width = self.0.len();
                for (row, cost) in rows.chunks_exact(width).zip(costs.iter_mut()) {
                    *cost = row.iter().zip(&self.0).filter(|(a, b)| a != b).count() as f64;
                }
            }
        }

        let target = vec![2usize, 0, 3, 1, 4];
        let cfg = CeConfig::with_sample_size(120);
        let mut model = PermutationModel::uniform(target.len());
        let per_row = minimize_flat(
            &mut model,
            &cfg,
            &mut StdRng::seed_from_u64(93),
            1,
            &RowEval(distance(&target)),
            |_, _| {},
            &mut NullRecorder,
            &|| false,
        );
        for threads in [1, 2, 8] {
            let mut model = PermutationModel::uniform(target.len());
            let batched = minimize_flat(
                &mut model,
                &cfg,
                &mut StdRng::seed_from_u64(93),
                threads,
                &SumDistance(target.clone()),
                |_, _| {},
                &mut NullRecorder,
                &|| false,
            );
            assert_eq!(
                per_row.best_sample, batched.best_sample,
                "threads={threads}"
            );
            assert_eq!(per_row.best_cost, batched.best_cost, "threads={threads}");
            assert_eq!(per_row.iterations, batched.iterations, "threads={threads}");
            assert_eq!(per_row.telemetry, batched.telemetry, "threads={threads}");
        }
    }

    #[test]
    fn flat_emits_sample_and_evaluate_spans() {
        use match_telemetry::MemoryRecorder;
        let mut model = PermutationModel::uniform(4);
        let mut cfg = CeConfig::with_sample_size(40);
        cfg.max_iters = 3;
        let mut rng = StdRng::seed_from_u64(94);
        let mut recorder = MemoryRecorder::default();
        minimize_flat(
            &mut model,
            &cfg,
            &mut rng,
            2,
            &RowEval(|s: &[usize]| s[0] as f64),
            |_, _| {},
            &mut recorder,
            &|| false,
        );
        let mut sample_spans = 0;
        let mut eval_spans = 0;
        let mut update_spans = 0;
        for ev in recorder.events() {
            if let Event::Span(s) = ev {
                match s.name.as_ref() {
                    "sample" => sample_spans += 1,
                    "evaluate" => eval_spans += 1,
                    "update" => update_spans += 1,
                    _ => {}
                }
            }
        }
        assert!(sample_spans >= 1);
        assert_eq!(sample_spans, eval_spans);
        assert_eq!(sample_spans, update_spans);
    }

    #[test]
    fn flat_genperm_counters_account_for_every_row_without_perturbing_the_run() {
        use match_telemetry::MemoryRecorder;
        // A hidden-permutation cost at n = 16: as the matrix
        // concentrates, rows collide and the exact scan takes over.
        let target: Vec<usize> = (0..16).map(|i| (i * 5) % 16).collect();
        let cost = RowEval(distance(&target));
        let mut cfg = CeConfig::with_sample_size(256);
        cfg.max_iters = 12;
        let run = |recorder: &mut dyn Recorder, threads: usize| {
            let mut model = PermutationModel::uniform(target.len());
            minimize_flat(
                &mut model,
                &cfg,
                &mut StdRng::seed_from_u64(95),
                threads,
                &cost,
                |_, _| {},
                recorder,
                &|| false,
            )
        };
        let untraced = run(&mut NullRecorder, 1);
        let mut recorder = MemoryRecorder::default();
        let traced = run(&mut recorder, 2);
        assert_eq!(untraced.best_sample, traced.best_sample);
        assert_eq!(untraced.best_cost, traced.best_cost);
        assert_eq!(untraced.iterations, traced.iterations);
        assert_eq!(untraced.telemetry, traced.telemetry);

        // One set of counters per iteration, each following that
        // iteration's `evaluations` counter.
        let mut per_iter: Vec<DrawStats> = Vec::new();
        for ev in recorder.events() {
            if let Event::Counter { name, value } = ev {
                let value = *value;
                match name.as_ref() {
                    "evaluations" => per_iter.push(DrawStats::default()),
                    "genperm_spins" => per_iter.last_mut().unwrap().spins += value,
                    "genperm_rejections" => per_iter.last_mut().unwrap().rejections += value,
                    "genperm_scans" => per_iter.last_mut().unwrap().scans += value,
                    "genperm_uniform_picks" => per_iter.last_mut().unwrap().uniform_picks += value,
                    _ => {}
                }
            }
        }
        assert_eq!(per_iter.len(), traced.iterations);
        let rows = (target.len() * cfg.sample_size) as u64;
        for (iter, stats) in per_iter.iter().enumerate() {
            assert_eq!(
                stats.spins - stats.rejections + stats.scans,
                rows,
                "iteration {iter}: {stats:?}"
            );
            assert!(stats.rejections <= stats.spins);
        }
        assert!(per_iter.iter().any(|s| s.rejections > 0));
    }
}
