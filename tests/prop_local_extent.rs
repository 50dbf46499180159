//! Differential property test for the local-extent tier (Theorem 5.1):
//! on random bounded instances the solver never contradicts the chase,
//! and every countermodel it attaches verifies.
//!
//! Right-hand sides range over lengths 0..=2, so the stripped Σ often
//! collapses a word to `ε` — the case where the three-rule word system
//! misses semantic consequences and the reduction must not refute.

use pathcons::constraints::{all_hold, holds, Path, PathConstraint};
use pathcons::core::{chase_implication, Budget, DataContext, Outcome, Solver};
use pathcons::graph::Label;
use proptest::prelude::*;

/// Labels `0..2` spell words; the bound `K`, the sibling database `W`
/// and the prefix label of `π` sit above them.
const ALPHABET: usize = 2;
const K: usize = 2;
const W: usize = 3;
const PI: usize = 4;

fn arb_word(min: usize, max: usize) -> impl Strategy<Value = Path> {
    prop::collection::vec(0..ALPHABET, min..=max)
        .prop_map(|ixs| Path::from_labels(ixs.into_iter().map(Label::from_index)))
}

/// `(lhs, rhs)` with a non-empty lhs and an rhs of length 0..=2.
fn arb_pair() -> impl Strategy<Value = (Path, Path)> {
    (arb_word(1, 2), arb_word(0, 2))
}

/// Σ (bounded by `π·K`, plus constraints on `π·W`) and φ (bounded by
/// `π·K`), for `π` empty or one label.
fn arb_instance() -> impl Strategy<Value = (Vec<PathConstraint>, PathConstraint)> {
    (
        prop::bool::ANY,
        prop::collection::vec(arb_pair(), 1..=3),
        prop::collection::vec(arb_pair(), 0..=2),
        arb_pair(),
    )
        .prop_map(|(deep, bounded, others, (lhs, rhs))| {
            let pi = if deep {
                Path::single(Label::from_index(PI))
            } else {
                Path::empty()
            };
            let pi_k = pi.push(Label::from_index(K));
            let pi_w = pi.push(Label::from_index(W));
            let mut sigma: Vec<PathConstraint> = bounded
                .into_iter()
                .map(|(l, r)| PathConstraint::forward(pi_k.clone(), l, r))
                .collect();
            sigma.extend(
                others
                    .into_iter()
                    .map(|(l, r)| PathConstraint::forward(pi_w.clone(), l, r)),
            );
            (sigma, PathConstraint::forward(pi_k, lhs, rhs))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn local_extent_agrees_with_chase(instance in arb_instance()) {
        let (sigma, phi) = instance;
        let budget = Budget::small();
        let answer = Solver::new(DataContext::Semistructured)
            .with_budget(budget.clone())
            .implies(&sigma, &phi)
            .unwrap();
        match (&answer.outcome, chase_implication(&sigma, &phi, &budget)) {
            (Outcome::Implied(_), Outcome::NotImplied(_)) => {
                panic!("solver proved, chase refuted: {sigma:?} ⊨ {phi:?} ({answer:?})")
            }
            (Outcome::NotImplied(_), Outcome::Implied(_)) => {
                panic!("solver refuted, chase proved: {sigma:?} ⊨ {phi:?} ({answer:?})")
            }
            _ => {}
        }
        if let Some(cm) = answer.outcome.countermodel() {
            prop_assert!(
                all_hold(&cm.graph, &sigma) && !holds(&cm.graph, &phi),
                "countermodel does not separate {sigma:?} ⊨ {phi:?} ({:?})",
                answer.method
            );
        }
    }
}
