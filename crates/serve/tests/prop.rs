//! Property-based tests for the canonical instance hash: the cache key
//! must be invariant under representation details (edge declaration
//! order, endpoint order) and sensitive to anything that changes the
//! cost tables.

use match_graph::gen::paper::PaperFamilyConfig;
use match_graph::io::{from_text, to_text};
use match_graph::{ResourceGraph, TaskGraph};
use match_serve::{instance_hash, job_key};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn build(tig_text: &str, platform_text: &str) -> match_core::MappingInstance {
    let tig = TaskGraph::new(from_text(tig_text).expect("tig parses")).expect("valid tig");
    let platform = ResourceGraph::new(from_text(platform_text).expect("platform parses"))
        .expect("valid platform");
    match_core::MappingInstance::new(&tig, &platform)
}

/// Shuffle the `edge` lines of an instance text, leaving the header and
/// `node` lines in place — a different declaration of the same graph.
fn shuffle_edges(text: &str, seed: u64, swap_endpoints: bool) -> String {
    let mut head: Vec<String> = Vec::new();
    let mut edges: Vec<String> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("edge ") {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            if swap_endpoints {
                edges.push(format!("edge {} {} {}", fields[1], fields[0], fields[2]));
            } else {
                edges.push(line.to_string());
            }
        } else {
            head.push(line.to_string());
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    edges.shuffle(&mut rng);
    let mut out = head;
    out.extend(edges);
    out.join("\n") + "\n"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hash_invariant_under_edge_reordering(
        n in 2usize..16,
        seed in any::<u64>(),
        perm_seed in any::<u64>(),
        swap in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pair = PaperFamilyConfig::new(n).generate(&mut rng);
        let tig_text = to_text(pair.tig.graph());
        let plat_text = to_text(pair.resources.graph());

        let a = build(&tig_text, &plat_text);
        let b = build(&shuffle_edges(&tig_text, perm_seed, swap), &plat_text);
        prop_assert_eq!(instance_hash(&a), instance_hash(&b));
        prop_assert_eq!(job_key(&a, "match", 7), job_key(&b, "match", 7));

        // Reordering the platform's link declarations is equally inert.
        let c = build(&tig_text, &shuffle_edges(&plat_text, perm_seed, swap));
        prop_assert_eq!(instance_hash(&a), instance_hash(&c));
    }

    #[test]
    fn job_key_separates_algo_and_seed(
        n in 2usize..12,
        seed in any::<u64>(),
        s1 in any::<u64>(),
        s2 in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pair = PaperFamilyConfig::new(n).generate(&mut rng);
        let inst = match_core::MappingInstance::from_pair(&pair);
        if s1 != s2 {
            prop_assert_ne!(job_key(&inst, "match", s1), job_key(&inst, "match", s2));
        }
        prop_assert_ne!(job_key(&inst, "match", s1), job_key(&inst, "sa", s1));
        prop_assert_eq!(job_key(&inst, "hill", s1), job_key(&inst, "hill", s1));
    }

    #[test]
    fn hash_sensitive_to_instance_identity(
        n in 3usize..12,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = match_core::MappingInstance::from_pair(
            &PaperFamilyConfig::new(n).generate(&mut rng),
        );
        // A freshly drawn instance of the same family and size almost
        // surely has different weights; its digest must differ.
        let b = match_core::MappingInstance::from_pair(
            &PaperFamilyConfig::new(n).generate(&mut rng),
        );
        prop_assert_ne!(instance_hash(&a), instance_hash(&b));
    }
}

mod ring {
    //! Properties of the consistent-hash ring: bounded remap on
    //! membership change and survivor stability.

    use match_serve::{SlotRing, SLOTS};
    use proptest::prelude::*;

    /// Keys 0..SLOTS cover every slot exactly once, so routing these K
    /// keys measures slot movement exactly: "remaps ≤ ⌈K/N⌉" for the
    /// full key space follows from the slot bound.
    fn routes(ring: &SlotRing<usize>) -> Vec<usize> {
        (0..SLOTS as u64).map(|k| *ring.route(k)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn join_remaps_at_most_fair_share(
            n in 1usize..12,
            churn in proptest::collection::vec(any::<bool>(), 0..6),
        ) {
            let mut ring = SlotRing::from_members((0..n).collect::<Vec<_>>());
            let mut next = n;
            // Arbitrary join/leave churn first: the bound must hold from
            // any reachable ring state, not just the balanced initial one.
            for join in churn {
                if join {
                    ring.join(next);
                    next += 1;
                } else if ring.len() > 1 {
                    ring.leave(ring.len() / 2);
                }
            }
            let before = routes(&ring);
            let n_before = ring.len();
            let moved = ring.join(next);
            prop_assert_eq!(moved, SLOTS.div_ceil(n_before + 1));
            let after = routes(&ring);
            let remapped = before.iter().zip(&after).filter(|(a, b)| a != b).count();
            prop_assert!(
                remapped <= SLOTS.div_ceil(n_before + 1),
                "{} of {} keys remapped on join into {} members",
                remapped, SLOTS, n_before
            );
            // Every remapped key moved *to* the joiner, none between survivors.
            for (a, b) in before.iter().zip(&after) {
                prop_assert!(a == b || *b == next);
            }
        }

        #[test]
        fn leave_remaps_at_most_fair_share(
            n in 2usize..12,
            victim_seed in any::<u64>(),
        ) {
            let mut ring = SlotRing::from_members((0..n).collect::<Vec<_>>());
            let victim = (victim_seed % n as u64) as usize;
            let before = routes(&ring);
            let moved = ring.leave(victim);
            prop_assert!(moved <= SLOTS.div_ceil(n));
            let after = routes(&ring);
            let remapped = before.iter().zip(&after).filter(|(a, b)| a != b).count();
            prop_assert!(
                remapped <= SLOTS.div_ceil(n),
                "{} of {} keys remapped on leave from {} members",
                remapped, SLOTS, n
            );
            // Only the leaver's keys moved; survivors kept theirs.
            for (a, b) in before.iter().zip(&after) {
                if *a != victim {
                    prop_assert_eq!(a, b);
                }
            }
        }

        #[test]
        fn ownership_stays_balanced_under_churn(
            n in 1usize..8,
            churn in proptest::collection::vec(any::<bool>(), 1..20),
        ) {
            let mut ring = SlotRing::from_members((0..n).collect::<Vec<_>>());
            let mut next = n;
            for join in churn {
                if join {
                    ring.join(next);
                    next += 1;
                } else if ring.len() > 1 {
                    ring.leave(0);
                }
                let counts = ring.slot_counts();
                let (min, max) = (
                    *counts.iter().min().expect("nonempty"),
                    *counts.iter().max().expect("nonempty"),
                );
                prop_assert!(
                    max - min <= 1,
                    "ownership skewed after churn: {:?}", counts
                );
                prop_assert_eq!(counts.iter().sum::<usize>(), SLOTS);
            }
        }
    }
}

mod wire {
    //! The request decoder copies unescaped runs whole; every string a
    //! client can encode must come back exactly, whatever mix of
    //! escapes, control characters and multi-byte UTF-8 it holds.

    use match_serve::{encode_request, parse_request, Request, SolveRequest};
    use proptest::prelude::*;

    /// One character from a class the decoder treats specially: `"`,
    /// `\`, `/`, C0 controls, DEL, ASCII letters, and 2-, 3- and 4-byte
    /// UTF-8.
    fn wire_char(class: u8, v: u32) -> char {
        let pick = |lo: u32, span: u32| char::from_u32(lo + v % span).unwrap_or('?');
        match class % 9 {
            0 => '"',
            1 => '\\',
            2 => '/',
            3 => pick(0, 0x20),
            4 => '\u{7f}',
            5 => pick(u32::from(b'a'), 26),
            6 => pick(0x80, 0x780),
            7 => pick(0xE000, 0x2000),
            _ => pick(0x1_0000, 0x10_0000),
        }
    }

    /// Strings dense in the characters the decoder treats specially.
    fn wire_string() -> impl Strategy<Value = String> {
        proptest::collection::vec((any::<u8>(), any::<u32>()), 0..48)
            .prop_map(|cs| cs.into_iter().map(|(c, v)| wire_char(c, v)).collect())
    }

    /// `Some(value)` about half the time.
    fn maybe<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
        (any::<bool>(), inner).prop_map(|(some, v)| some.then_some(v))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn solve_request_strings_round_trip(
            id in wire_string(),
            algo in wire_string(),
            tig in wire_string(),
            platform in wire_string(),
            backend in maybe(wire_string()),
            seed in any::<u64>(),
            deadline_ms in maybe(any::<u64>()),
        ) {
            let req = Request::Solve(SolveRequest {
                id,
                algo,
                seed,
                deadline_ms,
                backend,
                tig,
                platform,
            });
            let line = encode_request(&req);
            prop_assert!(!line.contains('\n'), "one request, one line: {:?}", line);
            prop_assert_eq!(parse_request(&line).expect("own encoding parses"), req);
        }
    }
}
