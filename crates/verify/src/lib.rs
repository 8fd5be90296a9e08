//! # match-verify
//!
//! The workspace's correctness harness: one entry point
//! ([`run_verify`]) that sweeps a generated instance corpus through
//! three pillars of checks and renders a grouped report.
//!
//! 1. **Differential** ([`differential`]) — the same instance and seed
//!    pushed through solver configurations whose documented
//!    relationship is then asserted: CE and GA thread invariance,
//!    quality within a band of the brute-force Eq. 2 optimum on small
//!    instances, and agreement of every reported cost with an
//!    independent Eq. 1/Eq. 2 re-derivation ([`oracle`]).
//! 2. **Metamorphic** ([`metamorphic`]) — instance transformations with
//!    provable cost effects: task/resource relabeling preserves cost,
//!    uniform λ-scaling scales it exactly, zero-weight edges are inert
//!    down to the bit level, slowing a resource never helps. The
//!    [`dynamic`] module adds incremental re-mapping contracts under
//!    the same pillar: an empty event batch is bit-identical to not
//!    re-mapping, a μ = 0 cold re-map equals the cold solver, and the
//!    migration ledger (`total = cost + μ·migrated`) balances exactly.
//! 3. **Golden trajectory** ([`golden`]) — committed fixtures pin the
//!    per-iteration best-cost sequence of representative solver
//!    configurations; drift is rendered as a first-divergence diff.
//!
//! Failures on generated instances are minimised by the instance
//! shrinker ([`shrink`]) before they reach the report, so a witness is
//! a handful of tasks, not a 50-node dump.
//!
//! `matchctl verify` is the CLI face of this crate; the same checks run
//! in `cargo test` through each module's test suite (on the smoke
//! corpus, to keep test wall-clock sane).

pub mod corpus;
pub mod differential;
pub mod dynamic;
pub mod golden;
pub mod metamorphic;
pub mod oracle;
pub mod report;
pub mod shrink;

pub use corpus::{
    build as build_corpus, build_large as build_large_corpus, CorpusInstance, CorpusKind,
};
pub use oracle::{approx_eq, evaluator_disagreement, oracle_loads, oracle_makespan};
pub use report::{CheckResult, Pillar, VerifyReport};
pub use shrink::{shrink_instance, Witness};

use std::path::PathBuf;

/// What to run and against which fixtures.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Which corpus to sweep.
    pub corpus: CorpusKind,
    /// Fixture directory; `None` resolves via
    /// [`golden::default_fixture_dir`].
    pub fixtures_dir: Option<PathBuf>,
    /// Rewrite the golden fixtures instead of checking them.
    pub update_golden: bool,
    /// Master seed the corpus instances and run seeds derive from.
    pub master_seed: u64,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            corpus: CorpusKind::default(),
            fixtures_dir: None,
            update_golden: false,
            master_seed: DEFAULT_MASTER_SEED,
        }
    }
}

/// The default corpus master seed (the paper's publication year).
pub const DEFAULT_MASTER_SEED: u64 = 2005;

/// Run the full harness and collect a report.
pub fn run_verify(opts: &VerifyOptions) -> VerifyReport {
    let corpus = corpus::build(opts.corpus, opts.master_seed);
    let mut checks = Vec::new();
    checks.extend(differential::run_checks(&corpus));
    // The large-n companion corpus only feeds the multilevel checks;
    // the flat-solver sweeps above would never finish at these sizes.
    let large = corpus::build_large(opts.corpus, opts.master_seed);
    checks.extend(differential::run_large_checks(&large));
    checks.extend(metamorphic::run_checks(&corpus));
    checks.extend(dynamic::run_checks(&corpus));

    let dir = opts
        .fixtures_dir
        .clone()
        .unwrap_or_else(golden::default_fixture_dir);
    if opts.update_golden {
        match golden::update_fixtures(&dir) {
            Ok(written) => checks.push(CheckResult::pass(
                Pillar::Golden,
                format!("golden/update ({} fixtures rewritten)", written.len()),
            )),
            Err(e) => checks.push(CheckResult::fail(
                Pillar::Golden,
                "golden/update",
                format!("cannot write fixtures under {}: {e}", dir.display()),
            )),
        }
    } else {
        checks.extend(golden::run_checks(&dir));
    }

    VerifyReport {
        checks,
        corpus: match opts.corpus {
            CorpusKind::Smoke => "smoke",
            CorpusKind::Ci => "ci",
            CorpusKind::Full => "full",
        }
        .to_string(),
        instances: corpus.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_verify_passes_end_to_end() {
        let report = run_verify(&VerifyOptions {
            corpus: CorpusKind::Smoke,
            ..VerifyOptions::default()
        });
        assert!(report.passed(), "{}", report.render());
        assert!(report.instances >= 2);
        // All three pillars must be represented.
        for pillar in [Pillar::Differential, Pillar::Metamorphic, Pillar::Golden] {
            assert!(
                report.checks.iter().any(|c| c.pillar == pillar),
                "missing pillar {pillar}"
            );
        }
        let text = report.render();
        assert!(text.contains("all checks passed"), "{text}");
    }

    #[test]
    fn update_golden_writes_into_a_scratch_dir() {
        let dir = std::env::temp_dir().join("match-verify-update-test");
        let _ = std::fs::remove_dir_all(&dir);
        let report = run_verify(&VerifyOptions {
            corpus: CorpusKind::Smoke,
            fixtures_dir: Some(dir.clone()),
            update_golden: true,
            master_seed: DEFAULT_MASTER_SEED,
        });
        assert!(report.passed(), "{}", report.render());
        // The freshly written fixtures must then verify clean.
        let recheck = run_verify(&VerifyOptions {
            corpus: CorpusKind::Smoke,
            fixtures_dir: Some(dir.clone()),
            update_golden: false,
            master_seed: DEFAULT_MASTER_SEED,
        });
        assert!(recheck.passed(), "{}", recheck.render());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
