//! Reproducibility guarantees: every stochastic component in the
//! workspace is a pure function of its seed.

use matchkit::core::Mapper;
use matchkit::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn instance(n: usize, seed: u64) -> MappingInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    MappingInstance::from_pair(&InstanceGenerator::paper_family(n).generate(&mut rng))
}

#[test]
fn generators_are_seed_deterministic() {
    for n in [5, 10, 20] {
        let a = InstanceGenerator::paper_family(n).generate(&mut StdRng::seed_from_u64(1));
        let b = InstanceGenerator::paper_family(n).generate(&mut StdRng::seed_from_u64(1));
        assert_eq!(a.tig, b.tig);
        assert_eq!(a.resources, b.resources);
        let c = InstanceGenerator::paper_family(n).generate(&mut StdRng::seed_from_u64(2));
        assert!(a.tig != c.tig || a.resources != c.resources);
    }
}

#[test]
fn all_mappers_are_seed_deterministic() {
    let inst = instance(10, 3);
    let matcher = Matcher::default();
    let ga = FastMapGa::new(GaConfig {
        population: 40,
        generations: 40,
        ..GaConfig::paper_default()
    });
    let rs = RandomSearch::new(50);
    let hill = HillClimber::new(2, 50_000);
    let sa = SimulatedAnnealing::new(10_000, 0.999);
    let greedy = GreedyMapper;
    let mappers: Vec<&dyn Mapper> = vec![&matcher, &ga, &rs, &hill, &sa, &greedy];
    for m in mappers {
        let a = m.map(&inst, &mut StdRng::seed_from_u64(77));
        let b = m.map(&inst, &mut StdRng::seed_from_u64(77));
        assert_eq!(a.mapping, b.mapping, "{} not deterministic", m.name());
        assert_eq!(a.cost, b.cost, "{} cost differs", m.name());
        assert_eq!(a.evaluations, b.evaluations, "{} evals differ", m.name());
    }
}

#[test]
fn matcher_thread_count_does_not_change_results() {
    // Each sample draws from an RNG derived from a per-iteration seed,
    // so the entire outcome — mapping, cost, iteration count,
    // per-iteration telemetry — is bit-identical across thread counts,
    // including threads = 1.
    let inst = instance(12, 4);
    let outs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            Matcher::new(MatchConfig {
                threads,
                ..MatchConfig::default()
            })
            .run(&inst, &mut StdRng::seed_from_u64(5))
        })
        .collect();
    assert_eq!(outs[0].mapping, outs[1].mapping);
    assert_eq!(outs[1].mapping, outs[2].mapping);
    assert_eq!(outs[0].cost, outs[2].cost);
    assert_eq!(outs[0].iterations, outs[2].iterations);
    assert_eq!(outs[0].telemetry.iters, outs[1].telemetry.iters);
    assert_eq!(outs[1].telemetry.iters, outs[2].telemetry.iters);
    assert!(outs[0].mapping.is_permutation());
}

#[test]
fn tracing_does_not_change_results() {
    // Recording draws nothing from a solver's RNG stream, so a traced
    // run of the same seed returns the untraced run's mapping, cost and
    // evaluation count.
    use match_telemetry::{MemoryRecorder, NullRecorder, Recorder};
    let inst = instance(10, 8);
    let matcher = Matcher::new(MatchConfig {
        threads: 2,
        ..MatchConfig::default()
    });
    let ga = FastMapGa::new(GaConfig {
        population: 40,
        generations: 30,
        ..GaConfig::paper_default()
    });
    let mappers: Vec<&dyn Mapper> = vec![&matcher, &ga];
    for m in mappers {
        let run = |recorder: &mut dyn Recorder| {
            m.map_traced(&inst, &mut StdRng::seed_from_u64(9), recorder)
        };
        let plain = run(&mut NullRecorder);
        let mut memory = MemoryRecorder::new();
        let traced = run(&mut memory);
        assert!(!memory.events().is_empty(), "{} recorded nothing", m.name());
        assert_eq!(plain.mapping, traced.mapping, "{}", m.name());
        assert_eq!(plain.cost.to_bits(), traced.cost.to_bits(), "{}", m.name());
        assert_eq!(plain.evaluations, traced.evaluations, "{}", m.name());
    }
}

#[test]
fn simulator_is_deterministic() {
    let inst = instance(9, 6);
    let mapping = matchkit::core::Mapping::identity(9);
    let run = || {
        Simulator::new(
            &inst,
            SimConfig {
                rounds: 4,
                mode: matchkit::sim::SimMode::BlockingReceives,
                trace: true,
            },
        )
        .run(&mapping)
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.busy, b.busy);
    assert_eq!(a.trace.unwrap(), b.trace.unwrap());
}

#[test]
fn seed_sequences_isolate_components() {
    // Drawing more runs for one heuristic must not disturb another's
    // stream: the harness derives independent child sequences.
    use matchkit::rngutil::SeedSequence;
    let root = SeedSequence::new(99);
    let mut a1 = root.child(1);
    let before: Vec<u64> = (0..5).map(|_| a1.next_seed()).collect();
    // "Interleave" heavy use of another child.
    let mut b = root.child(2);
    for _ in 0..1000 {
        b.next_seed();
    }
    let mut a2 = root.child(1);
    let after: Vec<u64> = (0..5).map(|_| a2.next_seed()).collect();
    assert_eq!(before, after);
}
