//! Implication of local extent constraints over semistructured data —
//! Theorem 5.1 (PTIME) and the Figure 3 construction.
//!
//! Given Σ ∪ {φ} with prefix bounded by `π` and `K` (Definition 2.3),
//! where φ is bounded by `π` and `K`:
//!
//! 1. `g₁` strips `π` from every prefix (re-rooting at the `π`-vertex);
//! 2. constraints on *other* local databases (`Σ_r`) do not interact with
//!    the implication (Lemma 5.3) and are discarded;
//! 3. `g₂` strips `K` from the remaining prefixes, yielding a pure word
//!    constraint instance decided by [`WordEngine::decide`], the same
//!    decision the solver's word tier makes.
//!
//! The countermodel direction is the Figure 3 construction: given a graph
//! `G` refuting the word instance, `H` adds a fresh root with a `K`
//! self-loop and a `K`-edge to `G`'s root — `H ⊨ Σ¹_K ∧ Σ¹_r ∧ ¬φ¹` —
//! and prepending a fresh `π`-path undoes `g₁`. The word decision's
//! `post*` quotient is lifted this way, so `post*(α)` is saturated once.
//!
//! When the stripped Σ collapses a non-empty word to `ε`, the word
//! decision cannot refute (see [`WordEngine::has_epsilon_collapse`]), and
//! neither can this reduction: such an instance is
//! [`LocalExtentError::EpsilonCollapse`], left to the chase.

use crate::outcome::{CounterModel, CounterModelProvenance, Deadline, Evidence, Outcome};
use crate::word::WordEngine;
use pathcons_constraints::{BoundedFamily, BoundedFamilyError, Path, PathConstraint};
use pathcons_graph::{Graph, Label};
use std::fmt;

/// Error from [`local_extent_implies`]: the instance is not a valid
/// local-extent implication instance (Definition 2.4), or the reduction
/// cannot decide it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LocalExtentError {
    /// The query constraint is not bounded by any `(π, K)`.
    QueryNotBounded,
    /// Σ fails Definition 2.3 for the detected `(π, K)`.
    BadFamily(BoundedFamilyError),
    /// The stripped query is not derivable, but the stripped Σ collapses
    /// a non-empty word to `ε`, where derivability is incomplete.
    EpsilonCollapse,
}

impl fmt::Display for LocalExtentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocalExtentError::QueryNotBounded => {
                write!(f, "the query constraint is not bounded by any (π, K)")
            }
            LocalExtentError::BadFamily(e) => write!(f, "Σ is not prefix-bounded: {e}"),
            LocalExtentError::EpsilonCollapse => write!(
                f,
                "the stripped Σ collapses a word to ε; the reduction cannot refute"
            ),
        }
    }
}

impl std::error::Error for LocalExtentError {}

/// The outcome of the reduction, with the intermediate artifacts exposed
/// for inspection and testing.
#[derive(Clone, Debug)]
pub struct LocalExtentAnswer {
    /// The final outcome (never `Unknown`: the problem is decidable,
    /// Theorem 5.1). A refutation carries the lifted `post*` quotient
    /// when the word decision materialized one.
    pub outcome: Outcome,
    /// The detected bound `(π, K)`.
    pub pi: Path,
    /// The detected `K`.
    pub k: Label,
    /// The stripped word-constraint set `Σ²_K`.
    pub word_sigma: Vec<PathConstraint>,
    /// The stripped word-constraint query `φ²`.
    pub word_phi: PathConstraint,
}

/// Decides the (finite) implication problem for local extent constraints
/// over semistructured data. Implication and finite implication coincide
/// here (both reduce to the word-constraint problem, where they
/// coincide). A refutation of an ε-collapsing stripped instance is not
/// trusted: it is [`LocalExtentError::EpsilonCollapse`].
pub fn local_extent_implies(
    sigma: &[PathConstraint],
    phi: &PathConstraint,
) -> Result<LocalExtentAnswer, LocalExtentError> {
    let (pi, k) = BoundedFamily::detect(phi).ok_or(LocalExtentError::QueryNotBounded)?;
    let family = BoundedFamily::classify(sigma, &pi, k).map_err(LocalExtentError::BadFamily)?;

    // g₁ then g₂: strip π·K from Σ_K and φ (Σ_r is discarded, Lemma 5.3).
    let pi_k = pi.push(k);
    let word_sigma: Vec<PathConstraint> = family
        .bounded
        .iter()
        .map(|c| {
            c.strip_prefix(&pi_k)
                .expect("bounded constraints have prefix π·K")
        })
        .collect();
    let word_phi = phi
        .strip_prefix(&pi_k)
        .expect("query is bounded, so its prefix is π·K");

    let engine =
        WordEngine::new(&word_sigma).expect("stripped bounded constraints are word constraints");
    let outcome = match engine
        .decide(&word_sigma, &word_phi, &Deadline::none())
        .ok_or(LocalExtentError::EpsilonCollapse)?
    {
        Outcome::Implied(evidence) => {
            Outcome::Implied(Evidence::LocalExtentReduction(Box::new(evidence)))
        }
        Outcome::NotImplied(mut refutation) => {
            refutation.countermodel = refutation
                .countermodel
                .map(|cm| lift_countermodel(&cm.graph, &pi, k));
            Outcome::NotImplied(refutation)
        }
        unknown => unknown,
    };

    Ok(LocalExtentAnswer {
        outcome,
        pi,
        k,
        word_sigma,
        word_phi,
    })
}

/// The Figure 3 construction: given `G` (a countermodel of the stripped
/// word instance), builds `H` with a fresh root `r_H`, edges
/// `K(r_H, r_H)` and `K(r_H, r_G)`.
pub fn figure3_structure(g: &Graph, k: Label) -> Graph {
    let mut h = Graph::new();
    let map = h.embed(g);
    let g_root = map[g.root().index()];
    h.add_edge(h.root(), k, h.root());
    h.add_edge(h.root(), k, g_root);
    h
}

/// Lifts a countermodel of the stripped word instance back to a
/// countermodel of the original bounded instance: Figure 3 (`H`), then a
/// fresh `π`-path onto a new root (undoing `g₁`).
pub fn lift_countermodel(word_countermodel: &Graph, pi: &Path, k: Label) -> CounterModel {
    let h = figure3_structure(word_countermodel, k);
    let graph = if pi.is_empty() {
        h
    } else {
        let mut g = Graph::new();
        let map = g.embed(&h);
        let h_root = map[h.root().index()];
        let (init, last) = pi.split_last().expect("non-empty π");
        let pen = g.add_path(g.root(), &init);
        g.add_edge(pen, last, h_root);
        g
    };
    CounterModel {
        graph,
        types: None,
        provenance: CounterModelProvenance::LocalExtentLift,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::chase_implication;
    use crate::outcome::Budget;
    use pathcons_constraints::{all_hold, holds, parse_constraints};
    use pathcons_graph::{parse_graph, LabelInterner};

    /// The Section 2.2 instance: Σ₀ (MIT extent constraints + Warner
    /// inverse constraints) and φ₀ (MIT: book.ref → book).
    fn section_2_2(labels: &mut LabelInterner) -> (Vec<PathConstraint>, PathConstraint) {
        let sigma = parse_constraints(
            "MIT: book.author -> person\n\
             MIT: person.wrote -> book\n\
             Warner.book: author <- wrote\n\
             Warner.person: wrote <- author\n",
            labels,
        )
        .unwrap();
        let phi = PathConstraint::parse("MIT: book.ref -> book", labels).unwrap();
        (sigma, phi)
    }

    #[test]
    fn section_2_2_instance_is_not_implied() {
        let mut labels = LabelInterner::new();
        let (sigma, phi) = section_2_2(&mut labels);
        let answer = local_extent_implies(&sigma, &phi).unwrap();
        assert!(answer.outcome.is_not_implied());
        assert_eq!(answer.word_sigma.len(), 2);
        assert!(answer.word_phi.is_word());
        let cm = answer.outcome.countermodel().expect("lifted quotient");
        assert_eq!(cm.provenance, CounterModelProvenance::LocalExtentLift);
        assert!(all_hold(&cm.graph, &sigma));
        assert!(!holds(&cm.graph, &phi));
    }

    #[test]
    fn implied_instance_decided() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints(
            "MIT: book.author -> person\n\
             MIT: person.wrote -> book\n\
             Warner.book: author <- wrote\n",
            &mut labels,
        )
        .unwrap();
        // Authors' written books are books — follows from the two MIT
        // extent constraints.
        let phi = PathConstraint::parse("MIT: book.author.wrote -> book", &mut labels).unwrap();
        let answer = local_extent_implies(&sigma, &phi).unwrap();
        match answer.outcome {
            Outcome::Implied(Evidence::LocalExtentReduction(_)) => {}
            other => panic!("expected Implied, got {other:?}"),
        }
    }

    #[test]
    fn deep_pi_prefixes_supported() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints(
            "lib.MIT: book.author -> person\nlib.Warner.x: a -> b",
            &mut labels,
        )
        .unwrap();
        let phi = PathConstraint::parse("lib.MIT: book.author -> person", &mut labels).unwrap();
        let answer = local_extent_implies(&sigma, &phi).unwrap();
        assert!(answer.outcome.is_implied());
        assert_eq!(answer.pi.display(&labels).to_string(), "lib");
    }

    #[test]
    fn unbounded_query_rejected() {
        let mut labels = LabelInterner::new();
        let phi = PathConstraint::parse("a -> b", &mut labels).unwrap();
        assert_eq!(
            local_extent_implies(&[], &phi).unwrap_err(),
            LocalExtentError::QueryNotBounded
        );
    }

    #[test]
    fn bad_family_rejected() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("MIT.deep: a -> b", &mut labels).unwrap();
        let phi = PathConstraint::parse("MIT: a -> b", &mut labels).unwrap();
        match local_extent_implies(&sigma, &phi).unwrap_err() {
            LocalExtentError::BadFamily(_) => {}
            other => panic!("expected BadFamily, got {other:?}"),
        }
    }

    #[test]
    fn figure3_satisfies_the_bounded_family() {
        // Build a word countermodel by hand, lift it, and verify the
        // original constraints hold on the lift while φ fails.
        let mut labels = LabelInterner::new();
        let (sigma, phi) = section_2_2(&mut labels);

        // Word instance: {book.author → person, person.wrote → book};
        // query book.ref → book. A countermodel: a graph with a
        // book.ref path whose target is not book-reachable.
        let g = parse_graph("g -book-> b1\nb1 -ref-> b2", &mut labels).unwrap();
        let answer = local_extent_implies(&sigma, &phi).unwrap();
        assert!(all_hold(&g, &answer.word_sigma));
        assert!(!holds(&g, &answer.word_phi));

        let lifted = lift_countermodel(&g, &answer.pi, answer.k);
        assert!(all_hold(&lifted.graph, &sigma), "lift violates Σ");
        assert!(!holds(&lifted.graph, &phi), "lift satisfies φ");
    }

    #[test]
    fn figure3_with_nonempty_pi() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("lib.MIT: book.author -> person", &mut labels).unwrap();
        let phi = PathConstraint::parse("lib.MIT: book.ref -> book", &mut labels).unwrap();
        let answer = local_extent_implies(&sigma, &phi).unwrap();
        assert!(answer.outcome.is_not_implied());

        let g = parse_graph("g -book-> b1\nb1 -ref-> b2", &mut labels).unwrap();
        assert!(all_hold(&g, &answer.word_sigma));
        assert!(!holds(&g, &answer.word_phi));
        let lifted = lift_countermodel(&g, &answer.pi, answer.k);
        assert!(all_hold(&lifted.graph, &sigma));
        assert!(!holds(&lifted.graph, &phi));
    }

    #[test]
    fn sigma_r_does_not_interact() {
        // Lemma 5.3: adding constraints on other local databases never
        // changes the answer. Cross-check against the chase on an
        // implied instance.
        let mut labels = LabelInterner::new();
        let base = parse_constraints("MIT: a.b -> c\nMIT: c.d -> e", &mut labels).unwrap();
        let with_r = parse_constraints(
            "MIT: a.b -> c\nMIT: c.d -> e\nWarner: x -> y\nWarner.q: z <- w",
            &mut labels,
        )
        .unwrap();
        let phi = PathConstraint::parse("MIT: a.b.d -> e", &mut labels).unwrap();
        let a1 = local_extent_implies(&base, &phi).unwrap();
        let a2 = local_extent_implies(&with_r, &phi).unwrap();
        assert!(a1.outcome.is_implied());
        assert!(a2.outcome.is_implied());
        // The chase agrees.
        match chase_implication(&with_r, &phi, &Budget::default()) {
            Outcome::Implied(_) => {}
            other => panic!("chase disagrees: {other:?}"),
        }
    }

    #[test]
    fn implied_instances_materialize_nothing() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("MIT: a.b -> c\nMIT: c.d -> e", &mut labels).unwrap();
        let phi = PathConstraint::parse("MIT: a.b.d -> e", &mut labels).unwrap();
        let answer = local_extent_implies(&sigma, &phi).unwrap();
        assert!(answer.outcome.is_implied());
        assert!(answer.outcome.countermodel().is_none());
    }

    /// Instances whose stripped Σ collapses a word to `ε`: each is
    /// semantically implied, though not derivable, so the reduction
    /// must decline rather than refute.
    #[test]
    fn epsilon_collapse_is_not_refuted() {
        for (sigma_text, phi_text) in [
            ("K: a -> ()", "K: a -> a.a"),
            ("K: a -> ()\nK: b -> a", "K: b -> b.b"),
            ("MIT: a.b -> ()", "MIT: a.b -> a.b.a.b"),
        ] {
            let mut labels = LabelInterner::new();
            let sigma = parse_constraints(sigma_text, &mut labels).unwrap();
            let phi = PathConstraint::parse(phi_text, &mut labels).unwrap();
            assert_eq!(
                local_extent_implies(&sigma, &phi).unwrap_err(),
                LocalExtentError::EpsilonCollapse,
                "{phi_text}"
            );
            assert!(
                chase_implication(&sigma, &phi, &Budget::default()).is_implied(),
                "{phi_text}"
            );
        }
    }
}
