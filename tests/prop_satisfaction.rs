//! Property tests: the production satisfaction checker agrees with the
//! naive first-order transliteration on random graphs and constraints.

use pathcons::constraints::{holds, holds_naive, Kind, Path, PathConstraint};
use pathcons::graph::{random_graph, word_holds, Graph, Label, LabelInterner, RandomGraphConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn labels(n: usize) -> Vec<Label> {
    LabelInterner::with_labels((0..n).map(|i| format!("l{i}")).collect::<Vec<_>>())
        .labels()
        .collect()
}

fn arb_path(alphabet: usize, max_len: usize) -> impl Strategy<Value = Path> {
    prop::collection::vec(0..alphabet, 0..=max_len)
        .prop_map(move |ixs| Path::from_labels(ixs.into_iter().map(Label::from_index)))
}

fn arb_constraint(alphabet: usize) -> impl Strategy<Value = PathConstraint> {
    (
        arb_path(alphabet, 2),
        arb_path(alphabet, 3),
        arb_path(alphabet, 3),
        prop::bool::ANY,
    )
        .prop_map(|(prefix, lhs, rhs, backward)| {
            if backward {
                PathConstraint::backward(prefix, lhs, rhs)
            } else {
                PathConstraint::forward(prefix, lhs, rhs)
            }
        })
}

fn graph_from_seed(seed: u64, nodes: usize, alphabet: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    random_graph(
        &mut rng,
        &RandomGraphConfig {
            mean_out_degree: 2.5,
            connected: true,
            ..RandomGraphConfig::new(nodes, labels(alphabet))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn holds_agrees_with_naive(
        seed in 0u64..10_000,
        nodes in 1usize..7,
        constraint in arb_constraint(3),
    ) {
        let g = graph_from_seed(seed, nodes, 3);
        prop_assert_eq!(holds(&g, &constraint), holds_naive(&g, &constraint));
    }

    #[test]
    fn violations_are_exactly_the_failures(
        seed in 0u64..5_000,
        nodes in 1usize..6,
        constraint in arb_constraint(3),
    ) {
        let g = graph_from_seed(seed, nodes, 3);
        let violations = pathcons::constraints::violations(&g, &constraint);
        prop_assert_eq!(violations.is_empty(), holds(&g, &constraint));
        // Exactly the failing pairs of the first-order definition, in
        // ascending order: every reported pair is a hypothesis match
        // whose conclusion fails, and every such pair is reported.
        let mut failures = Vec::new();
        for x in g.nodes() {
            if !word_holds(&g, g.root(), constraint.prefix(), x) {
                continue;
            }
            for y in g.nodes() {
                let concl = match constraint.kind() {
                    Kind::Forward => word_holds(&g, x, constraint.rhs(), y),
                    Kind::Backward => word_holds(&g, y, constraint.rhs(), x),
                };
                if word_holds(&g, x, constraint.lhs(), y) && !concl {
                    failures.push((x, y));
                }
            }
        }
        prop_assert!(violations.windows(2).all(|w| w[0] < w[1]), "not ascending: {:?}", violations);
        prop_assert_eq!(violations, failures);
    }

    #[test]
    fn constraint_text_roundtrip(constraint in arb_constraint(4)) {
        let interner = LabelInterner::with_labels(["l0", "l1", "l2", "l3"]);
        let rendered = constraint.display(&interner).to_string();
        let mut reparse_interner = interner.clone();
        let reparsed = PathConstraint::parse(&rendered, &mut reparse_interner).unwrap();
        prop_assert_eq!(constraint, reparsed);
    }

    #[test]
    fn path_concat_assoc_and_prefix_laws(
        a in arb_path(4, 4),
        b in arb_path(4, 4),
        c in arb_path(4, 4),
    ) {
        prop_assert_eq!(a.concat(&b).concat(&c), a.concat(&b.concat(&c)));
        prop_assert!(a.is_prefix_of(&a.concat(&b)));
        prop_assert_eq!(a.concat(&b).strip_prefix(&a), Some(b.clone()));
        prop_assert_eq!(a.concat(&b).len(), a.len() + b.len());
        // ε is a two-sided unit.
        prop_assert_eq!(a.concat(&Path::empty()), a.clone());
        prop_assert_eq!(Path::empty().concat(&a), a);
    }
}
