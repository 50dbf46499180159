//! Satellite property: for random `(Σ, φ)`, the answer served through
//! the cache is identical to a fresh `Solver::implies` — same verdict
//! and, for positive answers, the same evidence kind. Exercised both
//! for exact repeats and for alpha-renamed variants.

use pathcons_constraints::PathConstraint;
use pathcons_core::{Budget, DataContext, Outcome, Solver};
use pathcons_engine::{evidence_kind, BatchEngine, CacheOutcome, EngineConfig, PreparedJob};
use pathcons_graph::LabelInterner;
use proptest::prelude::*;

/// A random constraint text over a small label alphabet.
fn constraint_text(rng_bits: u64, alphabet: &[&str]) -> String {
    let mut bits = rng_bits;
    let mut take = |n: u64| {
        let v = bits % n;
        bits /= n;
        v
    };
    let path = |take: &mut dyn FnMut(u64) -> u64| {
        let len = 1 + take(2);
        (0..len)
            .map(|_| alphabet[take(alphabet.len() as u64) as usize])
            .collect::<Vec<_>>()
            .join(".")
    };
    let lhs = path(&mut take);
    let rhs = path(&mut take);
    let arrow = if take(4) == 0 { "<-" } else { "->" };
    if take(3) == 0 {
        let prefix = path(&mut take);
        format!("{prefix}: {lhs} {arrow} {rhs}")
    } else {
        format!("{lhs} {arrow} {rhs}")
    }
}

/// An untyped query ready for [`BatchEngine::solve`].
fn parse_query(sigma_texts: &[String], phi_text: &str, alphabet: &[&str]) -> PreparedJob {
    // Intern the whole alphabet up front so renamed variants get
    // *different* label numberings from their original (the interner
    // numbers by first occurrence otherwise).
    let mut labels = LabelInterner::with_labels(alphabet.iter().copied());
    let sigma = sigma_texts
        .iter()
        .map(|t| PathConstraint::parse(t, &mut labels).expect("generated syntax is valid"))
        .collect();
    let phi = PathConstraint::parse(phi_text, &mut labels).expect("generated syntax is valid");
    PreparedJob {
        context: DataContext::Semistructured,
        sigma,
        phi,
        shared: None,
        revision: 0,
    }
}

fn assert_same_answer(cached: &pathcons_core::Answer, fresh: &pathcons_core::Answer, what: &str) {
    match (&cached.outcome, &fresh.outcome) {
        (Outcome::Implied(ea), Outcome::Implied(eb)) => {
            assert_eq!(
                evidence_kind(ea),
                evidence_kind(eb),
                "{what}: evidence kind"
            );
        }
        (Outcome::NotImplied(_), Outcome::NotImplied(_)) => {}
        (Outcome::Unknown(ra), Outcome::Unknown(rb)) => {
            assert_eq!(ra, rb, "{what}: unknown reason");
        }
        (a, b) => panic!("{what}: verdicts diverge: cached {a:?} vs fresh {b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cached_answers_match_fresh_solves(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..5),
        phi_seed in 0u64..u64::MAX,
    ) {
        let alphabet = ["a", "b", "c"];
        let sigma_texts: Vec<String> =
            seeds.iter().map(|s| constraint_text(*s, &alphabet)).collect();
        let phi_text = constraint_text(phi_seed, &alphabet);
        let job = parse_query(&sigma_texts, &phi_text, &alphabet);

        let budget = Budget::small();
        let engine = BatchEngine::new(EngineConfig {
            budget: budget.clone(),
            threads: 1,
            ..EngineConfig::default()
        });
        let fresh_solve = |job: &PreparedJob| {
            Solver::new(job.context.clone())
                .with_budget(budget.clone())
                .implies(&job.sigma, &job.phi)
                .unwrap()
        };
        let fresh = fresh_solve(&job);

        // First pass: a miss must reproduce the fresh answer exactly.
        let (first, c1, _) = engine.solve(&job, budget.clone()).unwrap();
        prop_assert!(c1 == CacheOutcome::Miss);
        assert_same_answer(&first, &fresh, "miss");

        // Second pass: the hit must still agree with a fresh solve.
        let (second, _, _) = engine.solve(&job, budget.clone()).unwrap();
        assert_same_answer(&second, &fresh, "exact hit");

        // Alpha-renamed variant: relabel x↦y↦z, same shape. The served
        // answer must match a fresh solve *of the renamed query*, and
        // any countermodel must refute the renamed query itself.
        let renamed_alphabet = ["b", "c", "a"];
        let renamed_sigma_texts: Vec<String> =
            seeds.iter().map(|s| constraint_text(*s, &renamed_alphabet)).collect();
        let renamed_phi_text = constraint_text(phi_seed, &renamed_alphabet);
        let renamed = parse_query(&renamed_sigma_texts, &renamed_phi_text, &alphabet);
        let fresh_renamed = fresh_solve(&renamed);
        let (served, _, _) = engine.solve(&renamed, budget.clone()).unwrap();
        assert_same_answer(&served, &fresh_renamed, "alpha variant");
        if let Some(cm) = served.outcome.countermodel() {
            prop_assert!(pathcons_core::is_countermodel(&cm.graph, &renamed.sigma, &renamed.phi));
        }
    }
}
