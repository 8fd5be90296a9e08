//! Distributional equivalence of the two GenPerm sampling paths and of
//! the O(N) elite selection against its sorted reference.
//!
//! The flat sampler (bounded alias spins with rejection, then an exact
//! scan over the free columns) must draw the *same distribution* as the
//! restricted-roulette sampler (rejecting used columns over the full-row
//! alias table is exactly the conditional distribution the restricted
//! wheel spins), even though the two consume different RNG streams. We
//! check row-for-row assignment marginals with a two-sample chi-square
//! statistic over matched draw budgets. The n ≥ 16 cases put the flat
//! sampler on its rejection, exact-scan and uniform-pick branches and
//! check from its [`DrawStats`] that each branch really ran.

use match_ce::batch::{DrawStats, FlatSampler};
use match_ce::driver::{select_elites, EliteSelection};
use match_ce::model::CeModel;
use match_ce::models::permutation::PermutationModel;
use match_ce::StochasticMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-(row, column) assignment counts over `draws` permutations from the
/// legacy restricted-roulette path. The `n` cells after the `n × n`
/// block count the joint statistic `(σ(1) − σ(0)) mod n`, which sees
/// dependence between rows that the marginals alone miss.
fn roulette_counts(model: &PermutationModel, draws: usize, seed: u64) -> Vec<u64> {
    let n = model.len();
    let mut counts = vec![0u64; n * n + n];
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..draws {
        tally(&mut counts, &model.sample(&mut rng));
    }
    counts
}

/// Add one permutation to a [`roulette_counts`]-shaped count vector.
fn tally(counts: &mut [u64], perm: &[usize]) {
    let n = perm.len();
    for (i, &j) in perm.iter().enumerate() {
        counts[i * n + j] += 1;
    }
    if n >= 2 {
        counts[n * n + (perm[1] + n - perm[0]) % n] += 1;
    }
}

/// Same counts via the flat path.
fn alias_counts(model: &PermutationModel, draws: usize, seed: u64) -> Vec<u64> {
    flat_counts(model, draws, seed).0
}

/// Flat-path counts plus the sampler's work counters over all draws.
fn flat_counts(model: &PermutationModel, draws: usize, seed: u64) -> (Vec<u64>, DrawStats) {
    let n = model.len();
    let mut counts = vec![0u64; n * n + n];
    let mut tables = model.new_tables();
    model.fill_tables(&mut tables);
    let mut scratch = model.new_scratch();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![0usize; n];
    for _ in 0..draws {
        model.sample_flat(&tables, &mut scratch, &mut rng, &mut out);
        tally(&mut counts, &out);
    }
    let stats = model.take_stats(&mut scratch);
    (counts, stats)
}

/// Assert that the two paths agree row for row and on the joint
/// statistic over `draws` permutations each, and return the flat path's
/// work counters.
fn assert_paths_agree(model: &PermutationModel, draws: usize, seed: u64) -> DrawStats {
    let n = model.len();
    let a = roulette_counts(model, draws, seed);
    let (b, stats) = flat_counts(model, draws, seed ^ 0xD1B5_4A32_D192_ED03);
    // Rows 0..n are the marginals; block n is the joint statistic.
    for i in 0..=n {
        let (chi, dof) = row_chi_square(&a[i * n..(i + 1) * n], &b[i * n..(i + 1) * n]);
        assert!(
            chi <= 5.0 * dof as f64 + 24.0,
            "block {i} chi²={chi} dof={dof}"
        );
    }
    // Every row is placed by an accepted spin or an exact scan.
    assert_eq!(
        stats.spins - stats.rejections + stats.scans,
        (n * draws) as u64
    );
    stats
}

/// Two-sample chi-square statistic for one row's column marginal.
fn row_chi_square(a: &[u64], b: &[u64]) -> (f64, usize) {
    let mut chi = 0.0;
    let mut dof = 0usize;
    for (&x, &y) in a.iter().zip(b) {
        let total = (x + y) as f64;
        if total > 0.0 {
            let d = x as f64 - y as f64;
            chi += d * d / total;
            dof += 1;
        }
    }
    (chi, dof.saturating_sub(1))
}

fn model_from_weights(n: usize, weights: &[f64]) -> PermutationModel {
    PermutationModel::from_matrix(StochasticMatrix::from_rows(n, n, weights.to_vec()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Row-for-row, the alias+rejection GenPerm draws the same column
    /// marginals as the restricted-roulette GenPerm.
    #[test]
    fn alias_genperm_matches_roulette_genperm(
        seed in any::<u64>(),
        n in 3usize..7,
        raw in proptest::collection::vec(0.05f64..1.0, 49),
    ) {
        let model = model_from_weights(n, &raw[..n * n]);
        let draws = 4000;
        let a = roulette_counts(&model, draws, seed);
        let b = alias_counts(&model, draws, seed ^ 0x9E37_79B9);
        for i in 0..n {
            let (chi, dof) = row_chi_square(&a[i * n..(i + 1) * n], &b[i * n..(i + 1) * n]);
            // Mean of chi² is dof; a 5·dof + 24 bound is far out in the
            // tail for every dof here, so failures mean a real
            // distribution mismatch rather than sampling noise.
            prop_assert!(
                chi <= 5.0 * dof as f64 + 24.0,
                "row {} chi²={} dof={}", i, chi, dof
            );
        }
    }

    /// Spiky matrices (rows concentrating on few columns) force the
    /// rejection path through its bounded budget and into the roulette
    /// fallback; the marginals must still agree.
    #[test]
    fn alias_genperm_matches_roulette_on_spiky_rows(
        seed in any::<u64>(),
        n in 3usize..6,
        hot in 0usize..6,
    ) {
        let hot = hot % n;
        // Every row loads 0.9 mass on one shared column.
        let mut raw = vec![0.1 / (n as f64 - 1.0); n * n];
        for i in 0..n {
            raw[i * n + hot] = 0.9;
        }
        let model = model_from_weights(n, &raw);
        let draws = 4000;
        let a = roulette_counts(&model, draws, seed);
        let b = alias_counts(&model, draws, seed ^ 0x5851_F42D);
        for i in 0..n {
            let (chi, dof) = row_chi_square(&a[i * n..(i + 1) * n], &b[i * n..(i + 1) * n]);
            prop_assert!(
                chi <= 5.0 * dof as f64 + 24.0,
                "row {} chi²={} dof={}", i, chi, dof
            );
        }
    }

    /// `select_elites` agrees with the full stable sort on tie-heavy cost
    /// vectors: same γ, same elite index order, same best/worst.
    #[test]
    fn elite_selection_matches_sorted_reference(
        raw in proptest::collection::vec((0u8..6, 0.0f64..1.0), 1..60),
        target_frac in 0.01f64..1.0,
    ) {
        // Mix tie plateaus, infinities and distinct values.
        let costs: Vec<f64> = raw
            .iter()
            .map(|&(kind, v)| match kind {
                0..=2 => (kind % 3) as f64,  // heavy ties
                3 => f64::INFINITY,          // infeasible plateau
                _ => v,                      // distinct values
            })
            .collect();
        let n = costs.len();
        let target = ((target_frac * n as f64).floor() as usize).clamp(1, n);

        // Reference: the stable full sort the driver used to do.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            costs[a].partial_cmp(&costs[b]).unwrap_or(std::cmp::Ordering::Equal)
        });
        let gamma = costs[order[target - 1]];
        let reference = EliteSelection {
            gamma,
            best: order[0],
            worst: costs[order[n - 1]],
            elites: order.iter().copied().take_while(|&i| costs[i] <= gamma).collect(),
        };

        let fast = select_elites(&costs, target);
        prop_assert_eq!(fast, reference);
    }
}

#[test]
fn conflicting_degenerate_rows_agree_across_paths() {
    // All rows demand column 0: both paths must fall back and produce
    // uniform-among-unused assignments that are valid permutations.
    let n = 4;
    let mut raw = vec![0.0; n * n];
    for i in 0..n {
        raw[i * n] = 1.0;
    }
    let model = model_from_weights(n, &raw);
    let draws = 2000;
    let a = roulette_counts(&model, draws, 11);
    let b = alias_counts(&model, draws, 12);
    for i in 0..n {
        let (chi, dof) = row_chi_square(&a[i * n..(i + 1) * n], &b[i * n..(i + 1) * n]);
        assert!(
            chi <= 5.0 * dof as f64 + 24.0,
            "row {i} chi²={chi} dof={dof}"
        );
    }
}

#[test]
fn conflicting_hot_columns_at_n16() {
    // Every row puts most of its mass on the same three columns, each
    // row with its own split, so most spins after the first few rows
    // land on a taken column and rows fall through to the exact scan,
    // whose law then rests on the uneven cold columns.
    let n = 16;
    let mut raw = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            raw[i * n + j] = if j < 3 {
                0.9 * (1.0 + ((i + j) % 3) as f64) / 6.0
            } else {
                0.01 * (1.0 + ((3 * i + j) % 5) as f64 * 2.0)
            };
        }
    }
    let stats = assert_paths_agree(&model_from_weights(n, &raw), 6000, 21);
    assert!(stats.rejections > 0 && stats.scans > 0, "{stats:?}");
}

#[test]
fn mass_only_on_taken_columns_picks_uniformly_at_n16() {
    // All mass sits on columns 0..4: once earlier rows take those four
    // columns, later rows have no mass left on any free column and take
    // the uniform pick.
    let n = 16;
    let mut raw = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..4 {
            raw[i * n + j] = 1.0 + ((i * 7 + j) % 4) as f64;
        }
    }
    let stats = assert_paths_agree(&model_from_weights(n, &raw), 6000, 22);
    assert!(stats.uniform_picks > 0, "{stats:?}");
}

#[test]
fn warm_seeded_matrix_at_n20() {
    // A warm-start prior: a degenerate matrix on a permutation with a
    // few rows colliding on one column, blended toward uniform.
    let n = 20;
    let mut prior = vec![0.0; n * n];
    for i in 0..n {
        let j = if i % 5 == 0 { 0 } else { (i * 7) % n };
        prior[i * n + j] = 1.0;
    }
    let prior = StochasticMatrix::from_rows(n, n, prior);
    let model = PermutationModel::from_matrix(StochasticMatrix::warm_seed(&prior, 0.8));
    let stats = assert_paths_agree(&model, 6000, 23);
    assert!(stats.rejections > 0 && stats.scans > 0, "{stats:?}");
}
