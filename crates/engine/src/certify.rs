//! Certificate emission: translates solver evidence into the canonical
//! label space and self-checks it before anything is attached.
//!
//! Certificates live in the *canonical* query's label space and are
//! bound to [`crate::canon::snapshot_id`] of the canonical key, so one
//! certificate serves every alpha-variant that hits the same cache
//! entry — and an offline checker recovers the binding by
//! re-canonicalizing the job (canonicalization is deterministic across
//! processes).
//!
//! Translation per evidence kind:
//!
//! - **Chase traces** record node ids (label-independent: the ¬φ
//!   pattern has the same shape under renaming) and constraint indices
//!   into the *original* Σ; the indices are remapped by renaming the
//!   original constraint and locating it in the canonical Σ.
//! - **Word derivations** come with the solver's `WordDerivation`
//!   evidence, read off the `post*(α)` saturation that decided the
//!   query (memoized and fresh automata are identical, so the steps do
//!   not depend on cache temperature). They are renamed into canonical
//!   space with their rule indices remapped like the chase's. An answer
//!   whose derivation passed the size cap carries none and is not
//!   certified.
//! - **Countermodels** are renamed edge-by-edge into canonical labels.
//!   Typed countermodels are skipped: they carry `Φ(σ)` obligations the
//!   untyped checker cannot audit.
//! - **`Unknown`** answers get the budget audit record.
//!
//! Evidence with no certificate form (`I_r` proofs, local-extent and
//! vacuity arguments, inconsistency witnesses) yields `None` — those
//! hits are served unchecked in `--verify` check mode. Every emitted
//! certificate is validated with the trusted checker first; anything
//! the checker would reject is dropped at the source.

use crate::canon::{self, CanonicalQuery};
use pathcons_cert::{
    self as cert, Certificate, CertificateBody, ChaseStep, ChaseTrace, CounterModelCert,
    ImpliedCert, RewriteStep,
};
use pathcons_constraints::PathConstraint;
use pathcons_core::{Answer, Derivation, Evidence, Outcome, SharedContext};
use pathcons_graph::Label;

/// Builds the canonical-space certificate for `answer`, or `None` when
/// the evidence has no certificate form. `original_sigma` is the Σ the
/// solver actually ran on: chase trace and word derivation rule indices
/// point into it. The evidence carries every step a certificate needs,
/// so the query's `_original_phi` and the `_shared` context it ran
/// against are not consulted; they stay in the signature for the
/// callers that pass them.
///
/// The returned certificate has already passed the trusted checker
/// against the canonical query — emission is self-checking, so an
/// engine bug that produces an unreplayable trace results in an
/// uncertified entry, never an invalid certificate on the wire.
pub fn certify(
    canonical: &CanonicalQuery,
    original_sigma: &[PathConstraint],
    _original_phi: &PathConstraint,
    answer: &Answer,
    _shared: Option<&SharedContext>,
) -> Option<Certificate> {
    let snapshot = canon::snapshot_id(&canonical.key);
    let body = match &answer.outcome {
        Outcome::Implied(evidence) => {
            CertificateBody::Implied(implied_cert(canonical, original_sigma, evidence)?)
        }
        Outcome::NotImplied(refutation) => {
            let cm = refutation.countermodel.as_ref()?;
            if cm.types.is_some() {
                return None;
            }
            let graph = canon::rename_graph(&cm.graph, &canonical.renaming)?;
            CertificateBody::NotImplied(CounterModelCert { graph })
        }
        Outcome::Unknown(reason) => {
            let (kind, phase) = crate::batch::unknown_reason_wire(reason);
            CertificateBody::Unknown(cert::BudgetCert {
                reason: kind.to_owned(),
                phase: phase.map(str::to_owned),
            })
        }
    };
    let certificate = Certificate { snapshot, body };
    let context = cert::CheckContext {
        snapshot,
        sigma: &canonical.key.sigma,
        phi: &canonical.key.phi,
    };
    if cert::check(&certificate, &context).is_valid() {
        Some(certificate)
    } else {
        None
    }
}

fn implied_cert(
    canonical: &CanonicalQuery,
    original_sigma: &[PathConstraint],
    evidence: &Evidence,
) -> Option<ImpliedCert> {
    match evidence {
        // Only complete traces certify: the reference chase emits an
        // empty trace for positive step counts (its merges rebuild the
        // graph with fresh ids, which would not replay).
        Evidence::ChaseForced { steps, trace } if trace.steps.len() == *steps => {
            let mut remapped = Vec::with_capacity(trace.steps.len());
            for step in &trace.steps {
                remapped.push(ChaseStep {
                    constraint: canonical_index(canonical, original_sigma, step.constraint)?,
                    a: step.a,
                    b: step.b,
                });
            }
            Some(ImpliedCert::ChaseReplay(ChaseTrace { steps: remapped }))
        }
        Evidence::WordDerivation(Some(derivation)) => {
            word_rewrite_cert(canonical, original_sigma, derivation)
        }
        // The untyped-transfer wrapper is sound to strip: the inner
        // evidence certifies implication over all structures, which
        // the checker's semantics already are.
        Evidence::UntypedImplication(inner) => implied_cert(canonical, original_sigma, inner),
        _ => None,
    }
}

/// Renames the solver's derivation, in the *original* label space and
/// Σ order, into canonical space, step indices included, exactly like
/// the chase branch.
fn word_rewrite_cert(
    canonical: &CanonicalQuery,
    original_sigma: &[PathConstraint],
    derivation: &Derivation,
) -> Option<ImpliedCert> {
    let start = rename_word(&derivation.start, canonical)?;
    let mut steps = Vec::with_capacity(derivation.steps.len());
    for s in &derivation.steps {
        steps.push(RewriteStep {
            rule: canonical_index(canonical, original_sigma, s.rule)?,
            result: rename_word(&s.result, canonical)?,
        });
    }
    Some(ImpliedCert::WordRewrite { start, steps })
}

/// The index in the canonical Σ of the original Σ's constraint `index`.
fn canonical_index(
    canonical: &CanonicalQuery,
    original_sigma: &[PathConstraint],
    index: usize,
) -> Option<usize> {
    let renamed = canon::rename_constraint(original_sigma.get(index)?, &canonical.renaming)?;
    canonical.key.sigma.iter().position(|c| *c == renamed)
}

fn rename_word(word: &[Label], canonical: &CanonicalQuery) -> Option<Vec<Label>> {
    word.iter()
        .map(|l| canonical.renaming.get(l).copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcons_constraints::parse_constraints;
    use pathcons_core::{DataContext, Solver};
    use pathcons_graph::LabelInterner;

    fn certify_query(sigma_text: &str, phi_text: &str) -> (Option<Certificate>, Answer) {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints(sigma_text, &mut labels).unwrap();
        let phi = PathConstraint::parse(phi_text, &mut labels).unwrap();
        let answer = Solver::new(DataContext::Semistructured)
            .implies(&sigma, &phi)
            .unwrap();
        let canonical = canon::canonicalize(&DataContext::Semistructured, &sigma, &phi);
        (certify(&canonical, &sigma, &phi, &answer, None), answer)
    }

    #[test]
    fn word_implications_get_checked_rewrite_certificates() {
        let (certificate, answer) = certify_query("a -> b\nb -> c", "a -> c");
        assert!(answer.outcome.is_implied());
        let certificate = certificate.expect("word evidence certifies");
        assert!(matches!(
            certificate.body,
            CertificateBody::Implied(ImpliedCert::WordRewrite { .. })
                | CertificateBody::Implied(ImpliedCert::ChaseReplay(_))
        ));
    }

    #[test]
    fn refutations_get_countermodel_certificates_in_canonical_space() {
        let mut labels = LabelInterner::new();
        // Use non-canonical label names so the renaming is non-trivial.
        let sigma = parse_constraints("x -> y", &mut labels).unwrap();
        let phi = PathConstraint::parse("y -> x", &mut labels).unwrap();
        let answer = Solver::new(DataContext::Semistructured)
            .implies(&sigma, &phi)
            .unwrap();
        assert!(answer.outcome.is_not_implied());
        let canonical = canon::canonicalize(&DataContext::Semistructured, &sigma, &phi);
        let certificate =
            certify(&canonical, &sigma, &phi, &answer, None).expect("countermodel certifies");
        assert!(matches!(certificate.body, CertificateBody::NotImplied(_)));
        // It validates against the canonical query, as any alpha-variant
        // hitting the same entry would present it.
        let context = cert::CheckContext {
            snapshot: canon::snapshot_id(&canonical.key),
            sigma: &canonical.key.sigma,
            phi: &canonical.key.phi,
        };
        assert!(cert::check(&certificate, &context).is_valid());
    }

    #[test]
    fn chase_traces_remap_constraint_indices_into_canonical_sigma() {
        // General P_c (growing rhs + backward): routed to the chase.
        // Labels chosen so canonical order differs from input order.
        let (certificate, answer) = certify_query("z: m -> m.n\nz: q <- m.n", "z: m -> m.n.q");
        if !answer.outcome.is_implied() {
            // Budget-dependent: if the chase did not decide it, there is
            // nothing to certify here.
            return;
        }
        if let Some(certificate) = certificate {
            assert!(matches!(
                certificate.body,
                CertificateBody::Implied(ImpliedCert::ChaseReplay(_))
            ));
        }
    }
}
