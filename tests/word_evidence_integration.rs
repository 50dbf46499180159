//! Integration tests for the word-engine evidence surface: decisions,
//! derivations and countermodels must tell one consistent story.

use pathcons::constraints::{all_hold, holds, parse_constraints, PathConstraint};
use pathcons::core::WordEngine;
use pathcons::graph::LabelInterner;
use proptest::prelude::*;

fn word_sigma(
    alphabet: usize,
    rules: &[(Vec<usize>, Vec<usize>)],
) -> (LabelInterner, Vec<PathConstraint>) {
    let labels =
        LabelInterner::with_labels((0..alphabet).map(|i| format!("l{i}")).collect::<Vec<_>>());
    let all: Vec<_> = labels.labels().collect();
    let sigma = rules
        .iter()
        .map(|(l, r)| {
            PathConstraint::word(
                pathcons::constraints::Path::from_labels(l.iter().map(|&i| all[i])),
                pathcons::constraints::Path::from_labels(r.iter().map(|&i| all[i])),
            )
        })
        .collect();
    (labels, sigma)
}

#[test]
fn derivations_exist_and_replay_for_paper_style_rules() {
    let mut labels = LabelInterner::new();
    let sigma = parse_constraints(
        "book.author -> person\nperson.wrote -> book\nbook.ref -> book",
        &mut labels,
    )
    .unwrap();
    let engine = WordEngine::new(&sigma).unwrap();
    for text in [
        "book.ref.ref.author -> person",
        "book.author.wrote.ref -> book",
        "book.ref.author.wrote -> book",
    ] {
        let phi = PathConstraint::parse(text, &mut labels).unwrap();
        assert!(engine.implies(&phi).unwrap(), "{text} should be implied");
        let derivation = engine
            .try_derivation(&sigma, &phi, 100_000)
            .unwrap_or_else(|| panic!("no derivation for {text}"));
        derivation.check(&sigma).unwrap();
        assert_eq!(derivation.end(), phi.rhs().labels());
    }
}

#[test]
fn countermodels_exist_and_verify_for_refuted_queries() {
    let mut labels = LabelInterner::new();
    let sigma = parse_constraints("book.author -> person", &mut labels).unwrap();
    let engine = WordEngine::new(&sigma).unwrap();
    for text in [
        "person -> book.author",
        "book -> person",
        "person.wrote -> book",
    ] {
        let phi = PathConstraint::parse(text, &mut labels).unwrap();
        assert!(!engine.implies(&phi).unwrap());
        let g = engine
            .try_countermodel(&sigma, &phi)
            .unwrap_or_else(|| panic!("no countermodel for {text}"));
        assert!(all_hold(&g, &sigma), "countermodel violates Σ for {text}");
        assert!(!holds(&g, &phi), "countermodel satisfies {text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    /// Derivation existence matches the decision (within generous fuel on
    /// small instances), and every derivation replays.
    #[test]
    fn derivations_match_decisions(
        rules in prop::collection::vec(
            (prop::collection::vec(0..2usize, 1..=2),
             prop::collection::vec(0..2usize, 0..=2)),
            0..=3,
        ),
        lhs in prop::collection::vec(0..2usize, 1..=3),
        rhs in prop::collection::vec(0..2usize, 0..=3),
    ) {
        let (_labels, sigma) = word_sigma(2, &rules);
        let engine = WordEngine::new(&sigma).unwrap();
        let all: Vec<_> = _labels.labels().collect();
        let phi = PathConstraint::word(
            pathcons::constraints::Path::from_labels(lhs.iter().map(|&i| all[i])),
            pathcons::constraints::Path::from_labels(rhs.iter().map(|&i| all[i])),
        );
        let decided = engine.implies(&phi).unwrap();
        match engine.try_derivation(&sigma, &phi, 50_000) {
            Some(d) => {
                prop_assert!(decided, "derivation for a refuted constraint");
                d.check(&sigma).unwrap();
            }
            None => {
                // Fuel exhaustion is possible in principle; on these tiny
                // instances treat a missing derivation for an implied
                // constraint as a bug.
                prop_assert!(!decided, "implied but no derivation found");
            }
        }
        // Countermodels exist exactly for refuted constraints — on
        // theories without ε-collapse, where refutation is semantic —
        // and verify.
        match engine.try_countermodel(&sigma, &phi) {
            Some(g) => {
                prop_assert!(!decided);
                prop_assert!(all_hold(&g, &sigma));
                prop_assert!(!holds(&g, &phi));
            }
            None => prop_assert!(decided || engine.has_epsilon_collapse()),
        }
    }
}
