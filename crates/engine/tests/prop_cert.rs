//! Satellite property: every certificate the engine emits for a
//! decided (`implied` / `not-implied`) outcome survives a JSON wire
//! round-trip and is accepted by the trusted checker against the
//! re-canonicalized query — and a tampered certificate (snapshot bit
//! flipped, rule or constraint index pushed out of range, countermodel
//! replaced by an inert graph) is rejected.

use pathcons_constraints::PathConstraint;
use pathcons_core::cert::{self, CertificateBody, ImpliedCert};
use pathcons_core::{Budget, DataContext, Outcome};
use pathcons_engine::{
    canonicalize, certificate_from_json, certificate_to_json, snapshot_id, BatchEngine,
    EngineConfig, Json, PreparedJob,
};
use pathcons_graph::{Graph, LabelInterner};
use proptest::prelude::*;

/// A random constraint text over a small label alphabet (same scheme as
/// `prop_cache`).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn certificates_round_trip_and_reject_tampering(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..5),
        phi_seed in 0u64..u64::MAX,
    ) {
        let alphabet = ["a", "b", "c"];
        let mut labels = LabelInterner::with_labels(alphabet.iter().copied());
        let sigma: Vec<PathConstraint> = seeds
            .iter()
            .map(|s| {
                PathConstraint::parse(&constraint_text(*s, &alphabet), &mut labels)
                    .expect("generated syntax is valid")
            })
            .collect();
        let phi = PathConstraint::parse(&constraint_text(phi_seed, &alphabet), &mut labels)
            .expect("generated syntax is valid");

        let engine = BatchEngine::new(EngineConfig {
            budget: Budget::small(),
            threads: 1,
            ..EngineConfig::default()
        });
        let job = PreparedJob {
            context: DataContext::Semistructured,
            sigma,
            phi,
            shared: None,
            revision: 0,
        };
        let (answer, _, certificate) = engine.solve(&job, Budget::small()).unwrap();
        let decided = matches!(
            answer.outcome,
            Outcome::Implied(_) | Outcome::NotImplied(_)
        );
        let Some(certificate) = certificate else {
            // Some evidence kinds have no certificate form; nothing to
            // round-trip for this query.
            return Ok(());
        };

        let canon = canonicalize(&job.context, &job.sigma, &job.phi);
        let check_context = cert::CheckContext {
            snapshot: snapshot_id(&canon.key),
            sigma: &canon.key.sigma,
            phi: &canon.key.phi,
        };

        // Wire round-trip: serialize, reparse, and the checker must
        // still accept the reconstruction.
        let line = certificate_to_json(&certificate).to_string();
        let back = certificate_from_json(&Json::parse(&line).unwrap()).unwrap();
        prop_assert!(
            cert::check(&back, &check_context).is_valid(),
            "round-tripped certificate rejected for a {} outcome: {line}",
            if decided { "decided" } else { "budget" },
        );

        // Tampering with the snapshot binding is always detected.
        let mut wrong_snapshot = back;
        wrong_snapshot.snapshot ^= 1;
        prop_assert!(!cert::check(&wrong_snapshot, &check_context).is_valid());

        // Kind-specific tampering: push one rule / constraint index out
        // of range, or swap the countermodel for an inert graph that
        // refutes nothing.
        let mut mutated = certificate.clone();
        let mutable = match &mut mutated.body {
            CertificateBody::Implied(ImpliedCert::ChaseReplay(trace)) => {
                match trace.steps.first_mut() {
                    Some(step) => {
                        step.constraint = canon.key.sigma.len();
                        true
                    }
                    None => false, // zero-step replay: nothing to flip
                }
            }
            CertificateBody::Implied(ImpliedCert::WordRewrite { steps, .. }) => {
                match steps.first_mut() {
                    Some(step) => {
                        step.rule = canon.key.sigma.len();
                        true
                    }
                    None => false, // α = β directly: no steps to flip
                }
            }
            CertificateBody::NotImplied(cm) => {
                // A single-node edgeless graph satisfies every
                // constraint vacuously (lhs paths are non-empty), so it
                // cannot witness a violation of φ.
                cm.graph = Graph::new();
                true
            }
            CertificateBody::Unknown(_) => false, // only the snapshot binds
        };
        if mutable {
            prop_assert!(
                !cert::check(&mutated, &check_context).is_valid(),
                "tampered certificate accepted: {}",
                certificate_to_json(&mutated)
            );
        }
    }
}
