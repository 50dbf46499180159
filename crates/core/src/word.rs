//! Word constraint implication over semistructured data — the PTIME
//! baseline (Abiteboul & Vianu [4]).
//!
//! Derivability of `∀x (α(r,x) → β(r,x))` from Σ under the inference
//! system {reflexivity, transitivity, right-congruence} is exactly
//! reachability of the word `β` from `α` in the prefix rewriting system
//! `{αᵢ ⇒ βᵢ}`, which [`PrefixRewriteSystem::post_star`] decides in
//! polynomial time. The paper (Section 4.2) credits these three rules to
//! [4] as complete for word constraint implication over untyped data —
//! which this implementation's own property tests showed needs a caveat:
//! when Σ forces a non-empty word down to `ε` (whose semantics is
//! *equality*, `ε(x,y) ⟺ x = y`), semantic consequences arise that the
//! rules cannot derive. Example: `Σ = {a → ε} ⊨ a → a·a` (any `a`-target
//! equals the root, so `a` loops there), but `a·a ∉ post*(a)`. See
//! [`WordEngine::has_epsilon_collapse`]; every construction in the paper
//! stays in the ε-collapse-free fragment where the rules are complete,
//! and the [`crate::Solver`] falls back to the chase otherwise.

use pathcons_automata::{Nfa, PrefixRewriteSystem};
use pathcons_constraints::{Path, PathConstraint};
use std::fmt;

/// Error: a constraint handed to the word engine is not a word constraint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NotAWordConstraint {
    /// Index in the offending slice (`usize::MAX` for the query).
    pub index: usize,
}

impl fmt::Display for NotAWordConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.index == usize::MAX {
            write!(f, "the query is not a word constraint")
        } else {
            write!(f, "constraint #{} is not a word constraint", self.index)
        }
    }
}

impl std::error::Error for NotAWordConstraint {}

/// The word-constraint implication engine.
///
/// ```
/// use pathcons_core::WordEngine;
/// use pathcons_constraints::{parse_constraints, PathConstraint};
/// use pathcons_graph::LabelInterner;
///
/// let mut labels = LabelInterner::new();
/// let sigma = parse_constraints(
///     "book.author -> person\nperson.wrote -> book",
///     &mut labels,
/// ).unwrap();
/// let engine = WordEngine::new(&sigma).unwrap();
///
/// // book.author.wrote -> person.wrote -> book  (right-congruence + transitivity)
/// let phi = PathConstraint::parse("book.author.wrote -> book", &mut labels).unwrap();
/// assert!(engine.implies(&phi).unwrap());
///
/// let psi = PathConstraint::parse("book -> person", &mut labels).unwrap();
/// assert!(!engine.implies(&psi).unwrap());
/// ```
#[derive(Clone, Debug)]
pub struct WordEngine {
    system: PrefixRewriteSystem,
}

impl WordEngine {
    /// Builds the engine from a set of word constraints.
    pub fn new(sigma: &[PathConstraint]) -> Result<WordEngine, NotAWordConstraint> {
        let mut system = PrefixRewriteSystem::new();
        for (index, c) in sigma.iter().enumerate() {
            if !c.is_word() {
                return Err(NotAWordConstraint { index });
            }
            system.add_rule(c.lhs().to_vec(), c.rhs().to_vec());
        }
        Ok(WordEngine { system })
    }

    /// Whether some *non-empty* word is forced down to `ε` by Σ — i.e.
    /// `pre*(ε)` contains more than the empty word.
    ///
    /// In that situation the empty path's equality semantics
    /// (`ε(x,y) ⟺ x = y`) gives constraints consequences the three-rule
    /// system cannot derive: from `Σ = {a → ε}` every model satisfies
    /// `a → a·a` (the constraint pins every `a`-target to the root,
    /// looping `a` there), yet `a·a ∉ post*(a)`. When this predicate is
    /// `true`, a negative [`Self::implies`] answer means "not derivable",
    /// which may underapproximate semantic implication; the [`crate::Solver`]
    /// falls back to the chase for these theories. (This is a corner the
    /// paper's citation of [4]'s completeness does not cover — none of
    /// the paper's constructions produce ε-collapsing sets.)
    pub fn has_epsilon_collapse(&self) -> bool {
        self.system.pre_star(&[]).accepts_some_nonempty()
    }

    /// Whether `φ` is *derivable* from Σ under {reflexivity,
    /// transitivity, right-congruence} — which coincides with semantic
    /// (finite) implication whenever Σ has no ε-collapse
    /// (see [`Self::has_epsilon_collapse`]). `true` is always sound.
    pub fn implies(&self, phi: &PathConstraint) -> Result<bool, NotAWordConstraint> {
        if !phi.is_word() {
            return Err(NotAWordConstraint { index: usize::MAX });
        }
        Ok(self.implies_word(phi.lhs(), phi.rhs()))
    }

    /// Whether the word constraint `lhs → rhs` is implied.
    pub fn implies_word(&self, lhs: &Path, rhs: &Path) -> bool {
        self.system.reaches(lhs, rhs)
    }

    /// The `post*` automaton of a path: accepts every `β` with
    /// `Σ ⊨ ∀x (α(r,x) → β(r,x))`.
    pub fn consequences(&self, alpha: &Path) -> Nfa {
        self.system.post_star(alpha)
    }

    /// The underlying prefix rewriting system.
    pub fn system(&self) -> &PrefixRewriteSystem {
        &self.system
    }
}

impl WordEngine {
    /// Best-effort extraction of a replayable rewrite derivation for an
    /// implied word constraint (see [`crate::derivation`]); `None` when
    /// the constraint is not implied or the fuel ran out.
    pub fn try_derivation(
        &self,
        sigma: &[PathConstraint],
        phi: &PathConstraint,
        fuel: usize,
    ) -> Option<crate::Derivation> {
        if !phi.is_word() {
            return None;
        }
        crate::derivation(sigma, phi.lhs(), phi.rhs(), fuel)
    }

    /// A verified countermodel for a refuted word constraint, read off
    /// `post*(ε)` and `post*(α)` (see [`crate::quotient_countermodel`]);
    /// `None` when `φ` is implied, Σ is not this engine's theory, or the
    /// quotient outgrew its node ceiling.
    pub fn try_countermodel(
        &self,
        sigma: &[PathConstraint],
        phi: &PathConstraint,
    ) -> Option<pathcons_graph::Graph> {
        if !phi.is_word() {
            return None;
        }
        let post = self.consequences(phi.lhs());
        if post.accepts(phi.rhs()) {
            return None;
        }
        let empty = self.system.post_star(&[]);
        crate::quotient_countermodel(sigma, phi, &empty, &post, &crate::Deadline::none())
    }
}

/// Ablation baseline: decides the same implication by naive BFS over
/// rewritten words, bounded by `max_len`/`max_words`. Returns `None` when
/// the bound was insufficient to find `rhs` (inconclusive), `Some(true)`
/// when found.
pub fn word_implication_naive(
    sigma: &[PathConstraint],
    phi: &PathConstraint,
    max_len: usize,
    max_words: usize,
) -> Result<Option<bool>, NotAWordConstraint> {
    let engine = WordEngine::new(sigma)?;
    if !phi.is_word() {
        return Err(NotAWordConstraint { index: usize::MAX });
    }
    let reached = engine.system.bounded_post(phi.lhs(), max_len, max_words);
    if reached.contains(&phi.rhs().to_vec()) {
        Ok(Some(true))
    } else {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcons_constraints::parse_constraints;
    use pathcons_graph::LabelInterner;

    fn engine(text: &str, labels: &mut LabelInterner) -> WordEngine {
        let sigma = parse_constraints(text, labels).unwrap();
        WordEngine::new(&sigma).unwrap()
    }

    #[test]
    fn reflexivity_and_simple_rules() {
        let mut labels = LabelInterner::new();
        let e = engine("a -> b", &mut labels);
        let q = |t: &str, labels: &mut LabelInterner| PathConstraint::parse(t, labels).unwrap();
        assert!(e.implies(&q("a -> a", &mut labels)).unwrap());
        assert!(e.implies(&q("a -> b", &mut labels)).unwrap());
        assert!(!e.implies(&q("b -> a", &mut labels)).unwrap());
    }

    #[test]
    fn extent_constraints_from_the_paper() {
        // Section 1's word constraints imply derived containments.
        let mut labels = LabelInterner::new();
        let e = engine(
            "book.author -> person\nperson.wrote -> book\nbook.ref -> book",
            &mut labels,
        );
        let q = |t: &str, labels: &mut LabelInterner| PathConstraint::parse(t, labels).unwrap();
        // Authors of referenced books are persons:
        assert!(e
            .implies(&q("book.ref.author -> person", &mut labels))
            .unwrap());
        // Deep ref chains stay books:
        assert!(e
            .implies(&q("book.ref.ref.ref -> book", &mut labels))
            .unwrap());
        // And their authors' books are books:
        assert!(e
            .implies(&q("book.ref.author.wrote -> book", &mut labels))
            .unwrap());
        // But persons need not be authors:
        assert!(!e.implies(&q("person -> book.author", &mut labels)).unwrap());
    }

    #[test]
    fn empty_sigma_gives_only_reflexivity() {
        let mut labels = LabelInterner::new();
        let e = engine("", &mut labels);
        let phi = PathConstraint::parse("a.b -> a.b", &mut labels).unwrap();
        assert!(e.implies(&phi).unwrap());
        let psi = PathConstraint::parse("a.b -> a", &mut labels).unwrap();
        assert!(!e.implies(&psi).unwrap());
    }

    #[test]
    fn non_word_constraints_rejected() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("K: a -> b", &mut labels).unwrap();
        assert_eq!(
            WordEngine::new(&sigma).unwrap_err(),
            NotAWordConstraint { index: 0 }
        );
        let e = engine("a -> b", &mut labels);
        let backward = PathConstraint::parse("(): a <- b", &mut labels).unwrap();
        assert!(e.implies(&backward).is_err());
    }

    #[test]
    fn empty_path_rules() {
        let mut labels = LabelInterner::new();
        // () -> K : the root is K-reachable; then K.a -> a etc.
        let e = engine("() -> K\nK.a -> K", &mut labels);
        let q = |t: &str, labels: &mut LabelInterner| PathConstraint::parse(t, labels).unwrap();
        assert!(e.implies(&q("() -> K", &mut labels)).unwrap());
        assert!(e.implies(&q("a -> K.a", &mut labels)).unwrap());
        assert!(e.implies(&q("a -> K", &mut labels)).unwrap());
        assert!(e.implies(&q("a.b -> K.b", &mut labels)).unwrap());
    }

    #[test]
    fn naive_baseline_agrees_when_conclusive() {
        let mut labels = LabelInterner::new();
        let sigma =
            parse_constraints("book.author -> person\nperson.wrote -> book", &mut labels).unwrap();
        let phi = PathConstraint::parse("book.author.wrote -> book", &mut labels).unwrap();
        let naive = word_implication_naive(&sigma, &phi, 12, 100_000).unwrap();
        assert_eq!(naive, Some(true));
        let e = WordEngine::new(&sigma).unwrap();
        assert!(e.implies(&phi).unwrap());
    }

    #[test]
    fn consequences_automaton_enumerates() {
        let mut labels = LabelInterner::new();
        let e = engine("a -> b.a\nb -> c", &mut labels);
        let alpha = Path::parse("a", &mut labels).unwrap();
        let nfa = e.consequences(&alpha);
        let b = labels.get("b").unwrap();
        let a = labels.get("a").unwrap();
        let c = labels.get("c").unwrap();
        assert!(nfa.accepts(&[a]));
        assert!(nfa.accepts(&[b, a]));
        assert!(nfa.accepts(&[c, a]));
        assert!(!nfa.accepts(&[c]));
    }
}

#[cfg(test)]
mod epsilon_collapse_tests {
    use super::*;
    use crate::chase::chase_implication;
    use crate::outcome::{Budget, Outcome};
    use pathcons_constraints::parse_constraints;
    use pathcons_graph::LabelInterner;

    /// The incompleteness witness: Σ = {a → ε} semantically implies
    /// a → a·a, but the three-rule system cannot derive it.
    #[test]
    fn pumping_consequence_detected_and_routed() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> ()", &mut labels).unwrap();
        let phi = PathConstraint::parse("a -> a.a", &mut labels).unwrap();

        let engine = WordEngine::new(&sigma).unwrap();
        assert!(engine.has_epsilon_collapse());
        // Not derivable…
        assert!(!engine.implies(&phi).unwrap());
        // …but semantically implied (the chase proves it)…
        assert!(matches!(
            chase_implication(&sigma, &phi, &Budget::default()),
            Outcome::Implied(_)
        ));
        // …and the solver routes around the incompleteness.
        let solver = crate::Solver::new(crate::DataContext::Semistructured);
        let answer = solver.implies(&sigma, &phi).unwrap();
        assert!(answer.outcome.is_implied(), "{answer:?}");
    }

    #[test]
    fn derived_collapse_detected_transitively() {
        let mut labels = LabelInterner::new();
        // b → a → ε: b collapses too, via transitivity.
        let sigma = parse_constraints("a -> ()\nb -> a", &mut labels).unwrap();
        let engine = WordEngine::new(&sigma).unwrap();
        assert!(engine.has_epsilon_collapse());
    }

    #[test]
    fn collapse_free_sets_are_flagged_clean() {
        let mut labels = LabelInterner::new();
        // ε on the LEFT is harmless (the §4.1.2 encoding uses it).
        let sigma = parse_constraints("() -> K\nK.a -> K", &mut labels).unwrap();
        let engine = WordEngine::new(&sigma).unwrap();
        assert!(!engine.has_epsilon_collapse());
    }
}
