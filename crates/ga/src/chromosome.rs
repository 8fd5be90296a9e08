//! Permutation chromosomes.
//!
//! §5.1: "We chose to represent the chromosome as a string of length
//! `|V_r|` whose values are integers denoting a TIG node and indexed by
//! the resource node." I.e. `genes[resource] = task` — the *inverse* of
//! the task→resource [`match_core::Mapping`]. Conversions between the
//! two orientations live here.

use match_core::Mapping;
use match_rngutil::perm::{invert_permutation, is_permutation};

/// A permutation chromosome, `genes[resource] = task`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Chromosome {
    genes: Vec<usize>,
}

impl Chromosome {
    /// Wrap a gene vector. Panics unless it is a permutation — the GA's
    /// operators preserve permutation-ness, so a violation is a bug.
    pub fn new(genes: Vec<usize>) -> Self {
        assert!(is_permutation(&genes), "chromosome must be a permutation");
        Chromosome { genes }
    }

    /// Number of genes (`|V_r|`).
    pub fn len(&self) -> usize {
        self.genes.len()
    }

    /// True for the empty chromosome.
    pub fn is_empty(&self) -> bool {
        self.genes.is_empty()
    }

    /// The gene (task) at `resource`.
    pub fn gene(&self, resource: usize) -> usize {
        self.genes[resource]
    }

    /// Raw genes, resource-indexed.
    pub fn genes(&self) -> &[usize] {
        &self.genes
    }

    /// Convert to a task→resource [`Mapping`] (inverts the permutation).
    pub fn to_mapping(&self) -> Mapping {
        Mapping::new(invert_permutation(&self.genes))
    }

    /// Build from a task→resource [`Mapping`] (must be bijective).
    pub fn from_mapping(m: &Mapping) -> Self {
        Chromosome::new(invert_permutation(m.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_rngutil::perm::random_permutation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_accepts_permutations_of_every_length() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [0, 1, 5, 20] {
            let c = Chromosome::new(random_permutation(n, &mut rng));
            assert_eq!(c.len(), n);
            assert!(is_permutation(c.genes()));
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn rejects_duplicates() {
        Chromosome::new(vec![0, 0, 1]);
    }

    #[test]
    fn mapping_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let c = Chromosome::new(random_permutation(10, &mut rng));
        let m = c.to_mapping();
        assert!(m.is_permutation());
        // genes[resource] = task  <=>  mapping[task] = resource
        for r in 0..10 {
            assert_eq!(m.resource_of(c.gene(r)), r);
        }
        assert_eq!(Chromosome::from_mapping(&m), c);
    }
}
