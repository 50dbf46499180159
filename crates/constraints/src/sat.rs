//! Constraint satisfaction: `G ⊨ φ`.
//!
//! The paper defines satisfaction pair by pair,
//! `∀x (π(r,x) → ∀y (α(x,y) → β(x,y)))`. The production checker reads it
//! a set at a time instead: for each prefix witness `x` it evaluates the
//! hypothesis set `α(x)` forward once and the conclusion set once —
//! `β(x)` forward, or `{y | β(y,x)}` backward along predecessors — and
//! tests `α(x) ⊆ conclusion`. [`holds`] and [`violations`] share that one
//! loop and run on any [`Adjacency`]: the arena [`Graph`] or the store's
//! columnar graph. [`holds_naive`] is a direct transliteration of the
//! first-order semantics, kept as the test oracle. Every countermodel
//! produced anywhere in the workspace is re-validated through this module.

use crate::constraint::{Kind, PathConstraint};
use pathcons_graph::{
    eval_from_root, eval_word, eval_word_back, word_holds, Adjacency, Graph, NodeId, NodeSet,
};

/// For each prefix witness `x`, in ascending order: `x`, the hypothesis
/// set `α(x)`, and the conclusion set (`β(x)` forward, `{y | β(y,x)}`
/// backward; empty when `α(x)` is, since nothing needs it then).
fn witnesses<'a, G: Adjacency>(
    graph: &'a G,
    constraint: &'a PathConstraint,
) -> impl Iterator<Item = (NodeId, NodeSet, NodeSet)> + 'a {
    let xs: Vec<NodeId> = eval_from_root(graph, constraint.prefix()).iter().collect();
    xs.into_iter().map(move |x| {
        let ys = eval_word(graph, x, constraint.lhs());
        let conclusion = if ys.is_empty() {
            NodeSet::new()
        } else {
            match constraint.kind() {
                Kind::Forward => eval_word(graph, x, constraint.rhs()),
                Kind::Backward => eval_word_back(graph, x, constraint.rhs()),
            }
        };
        (x, ys, conclusion)
    })
}

/// Whether `graph ⊨ constraint`.
pub fn holds<G: Adjacency>(graph: &G, constraint: &PathConstraint) -> bool {
    witnesses(graph, constraint).all(|(_, ys, conclusion)| ys.is_subset(&conclusion))
}

/// Whether `graph ⊨ Σ` for a whole set.
pub fn all_hold<G: Adjacency>(graph: &G, constraints: &[PathConstraint]) -> bool {
    constraints.iter().all(|c| holds(graph, c))
}

/// All violations of `constraint` in `graph`: pairs `(x, y)` where the
/// hypothesis holds but the conclusion fails, in ascending `(x, y)`
/// order (the chase repairs them in this order, so its traces depend on
/// it).
pub fn violations<G: Adjacency>(graph: &G, constraint: &PathConstraint) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::new();
    for (x, ys, conclusion) in witnesses(graph, constraint) {
        out.extend(
            ys.iter()
                .filter(|&y| !conclusion.contains(y))
                .map(|y| (x, y)),
        );
    }
    out
}

/// Whether the conclusion holds of the hypothesis pair `(x, y)`:
/// `β(x, y)` for a forward constraint, `β(y, x)` for a backward one.
pub fn conclusion_holds<G: Adjacency>(
    graph: &G,
    constraint: &PathConstraint,
    x: NodeId,
    y: NodeId,
) -> bool {
    match constraint.kind() {
        Kind::Forward => word_holds(graph, x, constraint.rhs(), y),
        Kind::Backward => word_holds(graph, y, constraint.rhs(), x),
    }
}

/// Reference checker: re-evaluates the first-order definition with no
/// short-circuiting, quantifying over *all* node pairs of the graph.
///
/// `∀x (π(r,x) → ∀y (α(x,y) → β(x,y or y,x)))`
pub fn holds_naive(graph: &Graph, constraint: &PathConstraint) -> bool {
    let root = graph.root();
    for x in graph.nodes() {
        let prefix_holds = word_holds(graph, root, constraint.prefix(), x);
        for y in graph.nodes() {
            let lhs_holds = word_holds(graph, x, constraint.lhs(), y);
            let rhs_holds = conclusion_holds(graph, constraint, x, y);
            // Material implication: (π(r,x) ∧ α(x,y)) → conclusion.
            if prefix_holds && lhs_holds && !rhs_holds {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcons_graph::{parse_graph, LabelInterner};

    /// The Figure 1 bibliography fragment: one book with one author, the
    /// inverse edge present.
    fn bib() -> (Graph, LabelInterner) {
        let mut labels = LabelInterner::new();
        let g = parse_graph(
            "r -book-> b\nr -person-> p\nb -author-> p\np -wrote-> b",
            &mut labels,
        )
        .unwrap();
        (g, labels)
    }

    #[test]
    fn inverse_constraint_holds() {
        let (g, mut labels) = bib();
        let c = PathConstraint::parse("book: author <- wrote", &mut labels).unwrap();
        assert!(holds(&g, &c));
        assert!(holds_naive(&g, &c));
    }

    #[test]
    fn extent_constraint_holds() {
        let (g, mut labels) = bib();
        let c = PathConstraint::parse("book.author -> person", &mut labels).unwrap();
        assert!(holds(&g, &c));
        assert!(holds_naive(&g, &c));
    }

    #[test]
    fn violated_constraint_detected() {
        let (g, mut labels) = bib();
        // No `ref` edges exist, so book.author -> book.ref fails? No:
        // the hypothesis book.author(r,·) is non-empty but book.ref(r,·)
        // is empty, so the word constraint fails.
        let c = PathConstraint::parse("book.author -> book.ref", &mut labels).unwrap();
        assert!(!holds(&g, &c));
        assert!(!holds_naive(&g, &c));
        assert_eq!(violations(&g, &c).len(), 1);
    }

    #[test]
    fn vacuous_constraint_holds() {
        let (g, mut labels) = bib();
        // Hypothesis path unrealized: constraint is vacuously true.
        let c = PathConstraint::parse("journal: editor -> person", &mut labels).unwrap();
        assert!(holds(&g, &c));
        assert!(holds_naive(&g, &c));
    }

    #[test]
    fn backward_violation_detected() {
        let mut labels = LabelInterner::new();
        // author without the inverse wrote edge.
        let g = parse_graph("r -book-> b\nb -author-> p", &mut labels).unwrap();
        let c = PathConstraint::parse("book: author <- wrote", &mut labels).unwrap();
        assert!(!holds(&g, &c));
        assert!(!holds_naive(&g, &c));
        let v = violations(&g, &c);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn empty_rhs_forward_forces_loop() {
        let mut labels = LabelInterner::new();
        // ∀x (a(r,x) → ∀y (b(x,y) → y = x)) : b-successors must be x itself.
        let mut g = parse_graph("r -a-> x\nx -b-> x", &mut labels).unwrap();
        let c = PathConstraint::parse("a: b -> ()", &mut labels).unwrap();
        assert!(holds(&g, &c));
        // Adding a non-loop b edge breaks it.
        let fresh = g.add_node();
        let b = labels.get("b").unwrap();
        let x = g
            .nodes()
            .find(|&n| g.successors(n, b).next().is_some())
            .unwrap();
        g.add_edge(x, b, fresh);
        assert!(!holds(&g, &c));
        assert!(!holds_naive(&g, &c));
    }

    #[test]
    fn all_hold_short_circuits_correctly() {
        let (g, mut labels) = bib();
        let good = PathConstraint::parse("book.author -> person", &mut labels).unwrap();
        let bad = PathConstraint::parse("book -> person", &mut labels).unwrap();
        assert!(all_hold(&g, std::slice::from_ref(&good)));
        assert!(!all_hold(&g, &[good, bad]));
        assert!(all_hold(&g, &[]));
    }

    #[test]
    fn word_constraint_semantics_at_root() {
        let mut labels = LabelInterner::new();
        // r -a-> x, r -b-> x : a -> b holds; a -> c does not.
        let g = parse_graph("r -a-> x\nr -b-> x", &mut labels).unwrap();
        let ab = PathConstraint::parse("a -> b", &mut labels).unwrap();
        let ac = PathConstraint::parse("a -> c", &mut labels).unwrap();
        assert!(holds(&g, &ab));
        assert!(!holds(&g, &ac));
    }
}
