//! Evidence for the word-constraint engine: rewrite derivations for
//! positive answers and residual-quotient countermodels for negative
//! ones.
//!
//! The `post*` decision procedure is complete but opaque; this module
//! turns its verdicts into artifacts a skeptic can replay:
//!
//! - [`Derivation`] — a step-by-step prefix-rewrite sequence from `α`
//!   to `β`, checkable by [`Derivation::check`]. The engine reads it
//!   off the stamps of the `post*(α)` saturation that decided the query
//!   (see `PrefixRewriteSystem::derivation`), so it costs no search;
//! - [`quotient_countermodel`] — a finite model of `Σ ∧ ¬(α → β)` read
//!   off the automata the decision already built: one node per distinct
//!   residual of `post*(ε)` and of `post*(α)`, so a word reaches a node
//!   exactly when the node's residual language contains it (the
//!   word-constraint analogue of the paper's Lemma 4.5 quotient). The
//!   candidate is *verified* against `Σ ∧ ¬φ` before being returned, so
//!   a `Some` answer is self-certifying; `None` means the quotient hit
//!   its node ceiling or the deadline, or Σ collapses a word to `ε`.

use crate::outcome::Deadline;
use pathcons_automata::BitNfa;
use pathcons_constraints::{all_hold, holds, PathConstraint};
use pathcons_graph::{Graph, Label};
use std::collections::HashMap;

/// One prefix-rewrite step: rule `index` applied to the current word's
/// prefix, yielding `result`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DerivationStep {
    /// Index of the applied word constraint in Σ.
    pub rule: usize,
    /// The word after the step.
    pub result: Vec<Label>,
}

/// A prefix-rewrite derivation witnessing `Σ ⊢ α → β` under
/// {reflexivity, transitivity, right-congruence}.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Derivation {
    /// The starting word `α`.
    pub start: Vec<Label>,
    /// The steps; the final step's `result` is `β` (empty for `α = β`).
    pub steps: Vec<DerivationStep>,
}

impl Derivation {
    /// The final word of the derivation.
    pub fn end(&self) -> &[Label] {
        self.steps
            .last()
            .map(|s| s.result.as_slice())
            .unwrap_or(&self.start)
    }

    /// Replays the derivation against Σ, verifying every step.
    pub fn check(&self, sigma: &[PathConstraint]) -> Result<(), String> {
        let mut current: Vec<Label> = self.start.clone();
        for (i, step) in self.steps.iter().enumerate() {
            let rule = sigma
                .get(step.rule)
                .ok_or_else(|| format!("step {i}: rule index out of range"))?;
            if !rule.is_word() {
                return Err(format!("step {i}: rule is not a word constraint"));
            }
            let lhs = rule.lhs().labels();
            if current.len() < lhs.len() || current[..lhs.len()] != lhs[..] {
                return Err(format!("step {i}: lhs is not a prefix of the current word"));
            }
            let mut next: Vec<Label> = rule.rhs().to_vec();
            next.extend_from_slice(&current[lhs.len()..]);
            if next != step.result {
                return Err(format!("step {i}: recorded result does not match"));
            }
            current = next;
        }
        Ok(())
    }
}

/// Ceiling on countermodel nodes, over both quotients together. A residual
/// quotient determinizes the reversed automaton, so it can in principle
/// be exponential in the automaton's states; past this many nodes the
/// refutation stands on the decision procedure alone.
const MAX_QUOTIENT_NODES: usize = 512;

/// Builds a countermodel of `Σ ∧ ¬(α → β)` from the residuals of the
/// decision procedure's own automata: `empty` must be `post*(ε)` and
/// `post` must be `post*(α)` under Σ's rewrite rules, with `β ∉ post`.
///
/// For an automaton `N` and a word `z`, let `P(z)` be the set of states
/// that accept `z`. The quotient of `N` has one node per distinct
/// non-empty `P(z)`, found by a worklist from `P(ε)` (the backward
/// ε-closure of the accepting states) through
/// `P(l·z) = pre_l(P(z))`, and an edge `P(l·z) --l--> P(z)`. The graph
/// is the quotient of `post*(ε)`, whose `P(ε)` node is the root, next
/// to the quotient of `post*(α)`, plus a root edge `--l--> S` for every
/// node `S` whose automaton's start state lies in `pre_l(S)`.
///
/// A non-empty word `w` then reaches exactly the nodes `P(z)` with
/// `w·z` in their automaton's language (a path through the root is
/// covered because `post*(ε) ∋ w` means `ε ⇒* w`, and both languages
/// are closed under rewriting), and `ε` reaches only the root, whose
/// language is `post*(ε)`. So every rule `u → v` with `v ≠ ε` holds —
/// `ε`-lhs rules included — while `α` reaches the `P(ε)` node of
/// `post*(α)` and `β` does not: the word-constraint analogue of the
/// quotient structure of Lemma 4.5 (Figure 2).
///
/// The candidate is verified against `Σ ∧ ¬φ` before it is returned.
/// `None` means the quotient outgrew its node ceiling, the deadline
/// fired, or verification failed (Σ collapses a word to `ε`, a case the
/// solver hands to the chase).
pub fn quotient_countermodel(
    sigma: &[PathConstraint],
    phi: &PathConstraint,
    empty: &BitNfa,
    post: &BitNfa,
    deadline: &Deadline,
) -> Option<Graph> {
    if !phi.is_word() || !sigma.iter().all(PathConstraint::is_word) {
        return None;
    }
    let mut alphabet: Vec<Label> = sigma
        .iter()
        .chain(std::iter::once(phi))
        .flat_map(|c| c.lhs().labels().iter().chain(c.rhs().labels()))
        .copied()
        .collect();
    alphabet.sort_unstable();
    alphabet.dedup();

    let mut graph = Graph::new();
    add_quotient(&mut graph, empty, &alphabet, true, deadline)?;
    // For α = ε the root already is the witness `P(ε)` of `post*(α)`.
    if !phi.lhs().is_empty() {
        add_quotient(&mut graph, post, &alphabet, false, deadline)?;
    }
    (all_hold(&graph, sigma) && !holds(&graph, phi)).then_some(graph)
}

/// Adds the residual quotient of `nfa` over `alphabet` to `graph`: node
/// `P(ε)` (the root when `at_root`, else a fresh node), one fresh node
/// per further distinct non-empty `P(z)`, the edges `pre_l(S) --l--> S`,
/// and a root edge `--l--> S` whenever the start state lies in
/// `pre_l(S)`. `None` when the graph would pass [`MAX_QUOTIENT_NODES`]
/// or the deadline fires.
fn add_quotient(
    graph: &mut Graph,
    nfa: &BitNfa,
    alphabet: &[Label],
    at_root: bool,
    deadline: &Deadline,
) -> Option<()> {
    let is_empty = |set: &[u64]| set.iter().all(|&w| w == 0);
    // A fresh node, unless the graph is already at the node ceiling.
    let fresh_node =
        |graph: &mut Graph| (graph.node_count() < MAX_QUOTIENT_NODES).then(|| graph.add_node());

    let root = graph.root();
    let mut first = nfa.accepting_set().to_vec();
    nfa.close_backward(&mut first);
    if is_empty(&first) {
        return None;
    }
    let mut nodes = vec![if at_root { root } else { fresh_node(graph)? }];
    let mut sets = vec![first.clone()];
    let mut index: HashMap<Vec<u64>, usize> = HashMap::from([(first, 0)]);
    let mut j = 0;
    while j < sets.len() {
        if deadline.expired() {
            return None;
        }
        for &l in alphabet {
            let pre = nfa.pre_closed(l, &sets[j]);
            if is_empty(&pre) {
                continue;
            }
            if BitNfa::contains(&pre, nfa.start()) {
                graph.add_edge(root, l, nodes[j]);
            }
            let i = match index.get(&pre) {
                Some(&i) => i,
                None => {
                    nodes.push(fresh_node(graph)?);
                    sets.push(pre.clone());
                    index.insert(pre, sets.len() - 1);
                    sets.len() - 1
                }
            };
            graph.add_edge(nodes[i], l, nodes[j]);
        }
        j += 1;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcons_constraints::parse_constraints;
    use pathcons_graph::LabelInterner;

    /// The derivation `decide` attaches to an `Implied` answer.
    fn derivation(sigma: &[PathConstraint], phi: &PathConstraint) -> Option<Derivation> {
        let engine = crate::WordEngine::new(sigma).unwrap();
        match engine.decide(sigma, phi, &Deadline::none())? {
            crate::Outcome::Implied(crate::Evidence::WordDerivation(d)) => d,
            _ => None,
        }
    }

    #[test]
    fn derivation_for_chained_rules() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b\nb.g -> c", &mut labels).unwrap();
        let phi = PathConstraint::parse("a.g -> c", &mut labels).unwrap();
        let d = derivation(&sigma, &phi).expect("derivable");
        assert_eq!(d.steps.len(), 2);
        d.check(&sigma).unwrap();
        assert_eq!(d.start, phi.lhs().to_vec());
        assert_eq!(d.end(), phi.rhs().labels());
    }

    #[test]
    fn reflexive_derivation_is_empty() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let phi = PathConstraint::parse("a.b -> a.b", &mut labels).unwrap();
        let d = derivation(&sigma, &phi).unwrap();
        assert!(d.steps.is_empty());
        d.check(&sigma).unwrap();
    }

    #[test]
    fn epsilon_rules_derive_through_both_sides() {
        let mut labels = LabelInterner::new();
        // ε on the left prepends; ε on the right strips.
        let sigma = parse_constraints("() -> K\nK.a -> ()\nb -> K.a", &mut labels).unwrap();
        for text in ["b -> ()", "b.b -> b", "() -> K.K", "K.a.b -> K.a"] {
            let phi = PathConstraint::parse(text, &mut labels).unwrap();
            let d = derivation(&sigma, &phi).unwrap_or_else(|| panic!("no derivation for {text}"));
            d.check(&sigma).unwrap();
            assert_eq!(d.start, phi.lhs().to_vec(), "{text}");
            assert_eq!(d.end(), phi.rhs().labels(), "{text}");
        }
    }

    #[test]
    fn underivable_has_no_derivation() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let phi = PathConstraint::parse("b -> a", &mut labels).unwrap();
        assert_eq!(derivation(&sigma, &phi), None);
    }

    #[test]
    fn derivation_check_rejects_forgeries() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        // Claiming a ⇒ a via rule 0 (which produces b) must fail.
        let forged = Derivation {
            start: vec![a],
            steps: vec![DerivationStep {
                rule: 0,
                result: vec![a],
            }],
        };
        assert!(forged.check(&sigma).is_err());
        // And an honest one passes.
        let honest = Derivation {
            start: vec![a],
            steps: vec![DerivationStep {
                rule: 0,
                result: vec![b],
            }],
        };
        honest.check(&sigma).unwrap();
    }

    /// Refutes `phi` through the quotient of a cold saturation.
    fn quotient(sigma: &[PathConstraint], phi: &PathConstraint) -> Option<Graph> {
        let engine = crate::WordEngine::new(sigma).unwrap();
        let post = engine.consequences(phi.lhs());
        assert!(!post.accepts(phi.rhs()), "{phi:?} is implied");
        let empty = engine.consequences(&[]);
        quotient_countermodel(sigma, phi, &empty, &post, &Deadline::none())
    }

    #[test]
    fn quotient_countermodel_for_simple_case() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let phi = PathConstraint::parse("b -> a", &mut labels).unwrap();
        let g = quotient(&sigma, &phi).expect("countermodel");
        assert!(all_hold(&g, &sigma));
        assert!(!holds(&g, &phi));
    }

    #[test]
    fn quotient_countermodel_handles_growing_rules() {
        let mut labels = LabelInterner::new();
        // a ⇒ b·a keeps post* infinite; its residuals stay finite.
        let sigma = parse_constraints("a -> b.a", &mut labels).unwrap();
        let phi = PathConstraint::parse("b.a -> a", &mut labels).unwrap();
        let g = quotient(&sigma, &phi).expect("countermodel");
        assert!(all_hold(&g, &sigma));
        assert!(!holds(&g, &phi));
    }

    #[test]
    fn quotient_countermodel_handles_empty_paths() {
        let mut labels = LabelInterner::new();
        // ε on the left: the root's own language is post*(ε) = K*.
        let sigma = parse_constraints("() -> K\nK.a -> K", &mut labels).unwrap();
        for text in ["K -> a", "K -> ()", "() -> a", "a.b -> K"] {
            let phi = PathConstraint::parse(text, &mut labels).unwrap();
            let g = quotient(&sigma, &phi).unwrap_or_else(|| panic!("no model for {text}"));
            assert!(all_hold(&g, &sigma), "{text}");
            assert!(!holds(&g, &phi), "{text}");
        }
    }

    #[test]
    fn quotient_countermodel_gives_up_on_deadline_and_ceiling() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let phi = PathConstraint::parse("b -> a", &mut labels).unwrap();
        let engine = crate::WordEngine::new(&sigma).unwrap();
        let post = engine.consequences(phi.lhs());
        let empty = engine.consequences(&[]);
        let expired = Deadline::within(std::time::Duration::ZERO);
        assert!(quotient_countermodel(&sigma, &phi, &empty, &post, &expired).is_none());
        // `a^k` has k + 1 residuals (`ε`, `a`, …, `a^k`): a fresh
        // graph holds them up to the node ceiling, counting its root.
        let a = labels.get("a").unwrap();
        let chain = |n: usize| pathcons_automata::PrefixRewriteSystem::new().post_star(&vec![a; n]);
        let fits = chain(MAX_QUOTIENT_NODES - 2);
        let mut graph = Graph::new();
        add_quotient(&mut graph, &fits, &[a], false, &Deadline::none()).unwrap();
        assert_eq!(graph.node_count(), MAX_QUOTIENT_NODES);
        let spills = chain(MAX_QUOTIENT_NODES - 1);
        let mut graph = Graph::new();
        assert!(add_quotient(&mut graph, &spills, &[a], false, &Deadline::none()).is_none());
    }
}
