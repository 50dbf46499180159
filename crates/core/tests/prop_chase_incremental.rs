//! Property tests: the production chase agrees with the retained
//! reference implementation.
//!
//! Both engines graft the ¬φ pattern and rescan every constraint each
//! round. The production engine ([`pathcons_core::chase_implication`])
//! merges nodes by splicing edges in place; the reference
//! ([`pathcons_core::chase_implication_reference`]) rebuilds the graph
//! on merge. Node ids diverge after the first merge (splice-in-place vs
//! rebuild with fresh ids), so the comparison is at the level that
//! matters: identical verdicts and evidence kinds, and independently
//! *verified* countermodels on the `NotImplied` side. Without merges the
//! two runs are step for step the same, so there the step counts and
//! countermodel sizes must match too.

use pathcons_constraints::{all_hold, holds, parse_constraints, Path, PathConstraint};
use pathcons_core::{
    chase_implication, chase_implication_reference, Budget, CounterModelProvenance, Evidence,
    Outcome, UnknownReason,
};
use pathcons_graph::Label;
use proptest::prelude::*;

fn arb_path(alphabet: usize, max_len: usize) -> impl Strategy<Value = Path> {
    prop::collection::vec(0..alphabet, 0..=max_len)
        .prop_map(move |ixs| Path::from_labels(ixs.into_iter().map(Label::from_index)))
}

/// Random `P_c` constraints over a small alphabet. Empty conclusion paths
/// (equality requirements, the merge-inducing case) arise naturally from
/// the `0..=max_len` length range.
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

/// Random `P_c` constraints whose conclusion path is never empty: no
/// repair merges.
fn arb_merge_free_constraint(alphabet: usize) -> impl Strategy<Value = PathConstraint> {
    (
        arb_path(alphabet, 2),
        arb_path(alphabet, 3),
        prop::collection::vec(0..alphabet, 1..=3),
        prop::bool::ANY,
    )
        .prop_map(|(prefix, lhs, rhs, backward)| {
            let rhs = Path::from_labels(rhs.into_iter().map(Label::from_index));
            if backward {
                PathConstraint::backward(prefix, lhs, rhs)
            } else {
                PathConstraint::forward(prefix, lhs, rhs)
            }
        })
}

fn budget() -> Budget {
    Budget {
        chase_rounds: 32,
        chase_max_nodes: 512,
        ..Budget::small()
    }
}

/// The comparable shape of an outcome: verdict plus evidence kind.
fn shape(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Implied(Evidence::ChaseForced { .. }) => "implied/chase-forced".into(),
        Outcome::Implied(other) => format!("implied/unexpected:{other:?}"),
        Outcome::NotImplied(r) => match &r.countermodel {
            Some(cm) if cm.provenance == CounterModelProvenance::ChaseFixpoint => {
                "not-implied/chase-fixpoint".into()
            }
            other => format!("not-implied/unexpected:{other:?}"),
        },
        Outcome::Unknown(UnknownReason::StepBudgetExhausted { phase }) => {
            format!("unknown/budget:{phase}")
        }
        Outcome::Unknown(other) => format!("unknown/unexpected:{other:?}"),
    }
}

/// A cascade in the shape of the `P_w(K)` encoding (Section 4.1.2):
/// label 0 is `K`, labels 1 and 2 are letters. Σ holds `ε → K`, the
/// letter closures `K·l → K`, the equation `K: ε ↔ w` with `|w| = 2`
/// (which gives every `K`-node a fresh `w`-cycle, so the chase of Σ
/// alone never reaches a fixpoint), and up to one further equation; φ
/// is a word query over the letters.
fn arb_cascade() -> impl Strategy<Value = (Vec<PathConstraint>, PathConstraint)> {
    let letters = |max_len: usize| {
        prop::collection::vec(1..3usize, 0..=max_len)
            .prop_map(|ixs| Path::from_labels(ixs.into_iter().map(Label::from_index)))
    };
    (
        prop::collection::vec(1..3usize, 2..=2)
            .prop_map(|ixs| Path::from_labels(ixs.into_iter().map(Label::from_index))),
        prop::collection::vec((letters(2), letters(2)), 0..=1),
        letters(3),
        letters(3),
    )
        .prop_map(|(w, extra, alpha, beta)| {
            let k = Path::from_labels([Label::from_index(0)]);
            let mut sigma = vec![PathConstraint::word(Path::empty(), k.clone())];
            for l in 1..3 {
                sigma.push(PathConstraint::word(
                    k.push(Label::from_index(l)),
                    k.clone(),
                ));
            }
            for (gamma, delta) in std::iter::once((Path::empty(), w)).chain(extra) {
                sigma.push(PathConstraint::forward(
                    k.clone(),
                    gamma.clone(),
                    delta.clone(),
                ));
                sigma.push(PathConstraint::forward(k.clone(), delta, gamma));
            }
            (sigma, PathConstraint::word(alpha, beta))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A root-grounded Σ whose chase alone never reaches a fixpoint
    /// must not spend the round budget before the pattern: whenever
    /// either engine is conclusive at a budget, both reach the same
    /// verdict at that budget.
    #[test]
    fn cascading_prefixes_leave_rounds_for_the_pattern(
        case in arb_cascade(),
    ) {
        let (sigma, phi) = case;
        let budget = budget();
        let reference = chase_implication_reference(&sigma, &phi, &budget);
        let inc = chase_implication(&sigma, &phi, &budget);
        if !reference.is_unknown() || !inc.is_unknown() {
            prop_assert_eq!(
                shape(&inc),
                shape(&reference),
                "engines disagree on Σ = {:?}, φ = {:?}",
                sigma,
                phi
            );
        }
    }

    #[test]
    fn incremental_agrees_with_reference(
        sigma in prop::collection::vec(arb_constraint(3), 0..=4),
        phi in arb_constraint(3),
    ) {
        let budget = budget();
        let inc = chase_implication(&sigma, &phi, &budget);
        let reference = chase_implication_reference(&sigma, &phi, &budget);
        prop_assert_eq!(
            shape(&inc),
            shape(&reference),
            "engines disagree on Σ = {:?}, φ = {:?}",
            sigma,
            phi
        );
        // NotImplied answers must carry genuine countermodels; verify
        // both against the (independent) satisfaction checker.
        for (engine, outcome) in [("production", &inc), ("reference", &reference)] {
            if let Outcome::NotImplied(r) = outcome {
                let cm = r.countermodel.as_ref().expect("chase countermodel");
                prop_assert!(
                    all_hold(&cm.graph, &sigma),
                    "{} countermodel violates Σ", engine
                );
                prop_assert!(
                    !holds(&cm.graph, &phi),
                    "{} countermodel satisfies φ", engine
                );
            }
        }
    }

    /// Without merges the engines apply the same repairs in the same
    /// order: equal step counts on `Implied`, equal countermodel sizes
    /// on `NotImplied`.
    #[test]
    fn merge_free_runs_agree_step_for_step(
        sigma in prop::collection::vec(arb_merge_free_constraint(3), 0..=4),
        phi in arb_constraint(3),
    ) {
        let budget = budget();
        let inc = chase_implication(&sigma, &phi, &budget);
        let reference = chase_implication_reference(&sigma, &phi, &budget);
        prop_assert_eq!(shape(&inc), shape(&reference), "Σ = {:?}, φ = {:?}", sigma, phi);
        match (&inc, &reference) {
            (
                Outcome::Implied(Evidence::ChaseForced { steps, trace }),
                Outcome::Implied(Evidence::ChaseForced { steps: reference_steps, .. }),
            ) => {
                prop_assert_eq!(steps, reference_steps);
                prop_assert_eq!(trace.steps.len(), *steps);
            }
            (Outcome::NotImplied(r), Outcome::NotImplied(reference_r)) => {
                let cm = &r.countermodel.as_ref().expect("chase countermodel").graph;
                let reference_cm =
                    &reference_r.countermodel.as_ref().expect("chase countermodel").graph;
                prop_assert_eq!(cm.node_count(), reference_cm.node_count());
                prop_assert_eq!(cm.edge_count(), reference_cm.edge_count());
            }
            _ => {}
        }
    }

    #[test]
    fn merge_heavy_instances_agree(
        sigma in prop::collection::vec(
            (arb_path(2, 1), arb_path(2, 2), prop::bool::ANY).prop_map(
                |(prefix, lhs, backward)| {
                    // Force an empty conclusion: every violation repair is
                    // a merge, which ends its round.
                    if backward {
                        PathConstraint::backward(prefix, lhs, Path::empty())
                    } else {
                        PathConstraint::forward(prefix, lhs, Path::empty())
                    }
                },
            ),
            1..=3,
        ),
        extra in arb_constraint(2),
        phi in arb_constraint(2),
    ) {
        let mut sigma = sigma;
        sigma.push(extra);
        let budget = budget();
        let inc = chase_implication(&sigma, &phi, &budget);
        let reference = chase_implication_reference(&sigma, &phi, &budget);
        prop_assert_eq!(
            shape(&inc),
            shape(&reference),
            "engines disagree on Σ = {:?}, φ = {:?}",
            sigma,
            phi
        );
        if let Outcome::NotImplied(r) = &inc {
            let cm = r.countermodel.as_ref().expect("chase countermodel");
            prop_assert!(all_hold(&cm.graph, &sigma));
            prop_assert!(!holds(&cm.graph, &phi));
        }
    }
}

/// Regression: a merge that fires mid-batch discards the rest of the
/// enumerated batch. The next round must find the discarded violations
/// again, or they would survive into a bogus "fixpoint".
///
/// Round 1's batch here is `[(c0: merge y into x), (c1: add b edge)]` in
/// constraint order; the merge breaks out of the batch before c1's repair
/// runs. A correct engine repairs c1 in round 2 and reaches a fixpoint
/// whose countermodel satisfies all of Σ.
#[test]
fn merge_mid_batch_leaves_no_stale_violation() {
    let mut labels = pathcons_graph::LabelInterner::new();
    let sigma = parse_constraints("p: a -> ()\np -> b", &mut labels).unwrap();
    let phi = PathConstraint::parse("p.a -> q", &mut labels).unwrap();
    let outcome = chase_implication(&sigma, &phi, &Budget::default());
    match outcome {
        Outcome::NotImplied(r) => {
            let cm = r.countermodel.expect("fixpoint countermodel");
            assert!(
                all_hold(&cm.graph, &sigma),
                "stale violation survived the mid-batch merge"
            );
            assert!(!holds(&cm.graph, &phi));
        }
        other => panic!("expected NotImplied fixpoint, got {other:?}"),
    }
    // And the reference agrees on the verdict.
    match chase_implication_reference(&sigma, &phi, &Budget::default()) {
        Outcome::NotImplied(_) => {}
        other => panic!("reference disagrees: {other:?}"),
    }
}
