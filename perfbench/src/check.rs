//! Output checks: every mapping the program returns is validated and its
//! cost recomputed by the independent Eq. 1/Eq. 2 oracle.

use match_core::MappingInstance;
use match_verify::oracle::ORACLE_REL_TOL;
use match_verify::{approx_eq, oracle_makespan};

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (solves, remaps, requests).
    pub attempted: u64,
    /// Operations that errored, were refused, or returned a mapping or
    /// cost the checks reject.
    pub failed: u64,
    /// Up to [`Tally::MAX_NOTES`] failure reasons, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    const MAX_NOTES: usize = 8;

    /// Count one operation that failed for `reason`.
    pub fn fail(&mut self, reason: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < Self::MAX_NOTES {
            self.notes.push(reason);
        }
    }

    /// Count one operation: it passed when `error` is `None`.
    pub fn record(&mut self, what: &str, error: Option<String>) {
        match error {
            None => self.attempted += 1,
            Some(reason) => self.fail(format!("{what}: {reason}")),
        }
    }

    /// Failed operations over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Why `mapping` at `cost` on `inst` is wrong, if it is: it must be a
/// complete assignment (a permutation on square instances) whose
/// oracle makespan agrees with `cost` within [`ORACLE_REL_TOL`].
pub fn mapping_error(inst: &MappingInstance, mapping: &[usize], cost: f64) -> Option<String> {
    if mapping.len() != inst.n_tasks() {
        return Some(format!(
            "mapping has {} entries for {} tasks",
            mapping.len(),
            inst.n_tasks()
        ));
    }
    if let Some(&r) = mapping.iter().find(|&&r| r >= inst.n_resources()) {
        return Some(format!("resource {r} out of range"));
    }
    if inst.is_square() {
        let mut seen = vec![false; inst.n_resources()];
        for &r in mapping {
            if std::mem::replace(&mut seen[r], true) {
                return Some(format!("resource {r} used twice in a bijective mapping"));
            }
        }
    }
    let oracle = oracle_makespan(inst, mapping);
    if !approx_eq(cost, oracle, ORACLE_REL_TOL) {
        return Some(format!("reported cost {cost} but the oracle says {oracle}"));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_graph::gen::InstanceGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn oracle_rejects_wrong_costs_and_bad_mappings() {
        let pair = InstanceGenerator::paper_family(6).generate(&mut StdRng::seed_from_u64(1));
        let inst = MappingInstance::from_pair(&pair);
        let identity: Vec<usize> = (0..6).collect();
        let cost = oracle_makespan(&inst, &identity);
        assert_eq!(mapping_error(&inst, &identity, cost), None);
        assert!(mapping_error(&inst, &identity, cost * 1.01).is_some());
        assert!(mapping_error(&inst, &[0, 0, 1, 2, 3, 4], cost).is_some());
        assert!(mapping_error(&inst, &[0, 1], cost).is_some());
        let mut tally = Tally::default();
        tally.record("ok", None);
        tally.record("bad", Some("wrong".into()));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }
}
