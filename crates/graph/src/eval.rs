//! Path evaluation over graphs.
//!
//! A *path* `ρ(x, y)` is a first-order formula asserting that `y` is
//! reachable from `x` by a given sequence of edge labels (paper, Section
//! 2.1). At the graph level a path is just a label word `&[Label]`; this
//! module evaluates such words a set at a time over any [`Adjacency`]
//! (a [`Graph`](crate::Graph), or the store's columnar graph), forward
//! along successors or backward along predecessors. It is the semantic
//! core behind the constraint satisfaction checker.

use crate::graph::{Adjacency, NodeId};
use crate::label::Label;

/// A set of nodes represented as a sorted deduplicated vector.
///
/// Node sets coming out of path evaluation are usually tiny, so a sorted
/// vector beats a hash set both in speed and in producing deterministic
/// output for tests and rendering.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeSet {
    items: Vec<NodeId>,
}

impl NodeSet {
    /// The empty node set.
    pub fn new() -> NodeSet {
        NodeSet::default()
    }

    /// A singleton node set.
    pub fn singleton(node: NodeId) -> NodeSet {
        NodeSet { items: vec![node] }
    }

    /// Builds a node set from arbitrary (possibly duplicated) nodes.
    pub fn from_nodes<I: IntoIterator<Item = NodeId>>(iter: I) -> NodeSet {
        let mut items: Vec<NodeId> = iter.into_iter().collect();
        items.sort_unstable();
        items.dedup();
        NodeSet { items }
    }

    /// Whether `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.items.binary_search(&node).is_ok()
    }

    /// Inserts `node`, returning `true` if it was new.
    pub fn insert(&mut self, node: NodeId) -> bool {
        match self.items.binary_search(&node) {
            Ok(_) => false,
            Err(pos) => {
                self.items.insert(pos, node);
                true
            }
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.items.iter().copied()
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        self.items.iter().all(|&n| other.contains(n))
    }

    /// The members as a sorted slice.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.items
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> NodeSet {
        NodeSet::from_nodes(iter)
    }
}

/// Evaluates the word `word` starting from every node in `from`: the result
/// is `{ y | ∃x ∈ from . word(x, y) }`.
pub fn eval_word_set<G: Adjacency>(graph: &G, from: &NodeSet, word: &[Label]) -> NodeSet {
    layers(from.clone(), word.iter(), |node, label| {
        graph.successors(node, label)
    })
}

/// Evaluates `word` from a single node: `{ y | word(from, y) }`.
pub fn eval_word<G: Adjacency>(graph: &G, from: NodeId, word: &[Label]) -> NodeSet {
    eval_word_set(graph, &NodeSet::singleton(from), word)
}

/// Evaluates `word` backward into a single node: `{ y | word(y, to) }`,
/// walking the word's labels last to first along predecessors.
pub fn eval_word_back<G: Adjacency>(graph: &G, to: NodeId, word: &[Label]) -> NodeSet {
    layers(NodeSet::singleton(to), word.iter().rev(), |node, label| {
        graph.predecessors(node, label)
    })
}

/// One frontier per label: each node of the current set is stepped
/// along the label, and the whole frontier is sorted and deduplicated
/// once (a shifting `insert` per node is quadratic on wide frontiers).
fn layers<'w, I, F>(
    mut current: NodeSet,
    labels: impl Iterator<Item = &'w Label>,
    step: F,
) -> NodeSet
where
    I: Iterator<Item = NodeId>,
    F: Fn(NodeId, Label) -> I,
{
    let mut scratch: Vec<NodeId> = Vec::new();
    for &label in labels {
        if current.is_empty() {
            break;
        }
        scratch.clear();
        for node in current.iter() {
            scratch.extend(step(node, label));
        }
        current = NodeSet::from_nodes(scratch.iter().copied());
    }
    current
}

/// Whether `word(from, to)` holds in `graph`.
///
/// Evaluated layer-by-layer (the same frontier sets as [`eval_word`]),
/// which is polynomial — `O(|word| · |E|)` — and recursion-free. A naive
/// DFS here would be exponential on branching graphs and could overflow
/// the stack on adversarially long words.
pub fn word_holds<G: Adjacency>(graph: &G, from: NodeId, word: &[Label], to: NodeId) -> bool {
    eval_word(graph, from, word).contains(to)
}

/// Evaluates `word` from the root: `{ y | word(r, y) }`.
pub fn eval_from_root<G: Adjacency>(graph: &G, word: &[Label]) -> NodeSet {
    eval_word(graph, graph.root(), word)
}

/// Whether `word` is realized anywhere in `graph` starting from the root,
/// i.e. `G ⊨ ∃x . word(r, x)`.
pub fn word_realized<G: Adjacency>(graph: &G, word: &[Label]) -> bool {
    !eval_from_root(graph, word).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::label::LabelInterner;

    fn sample() -> (Graph, Label, Label) {
        let mut i = LabelInterner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        // r -a-> n1 -b-> n2 ; r -a-> n2 ; n2 -a-> n1
        let mut g = Graph::new();
        let n1 = g.add_node();
        let n2 = g.add_node();
        let r = g.root();
        g.add_edge(r, a, n1);
        g.add_edge(n1, b, n2);
        g.add_edge(r, a, n2);
        g.add_edge(n2, a, n1);
        (g, a, b)
    }

    #[test]
    fn empty_word_is_identity() {
        let (g, _, _) = sample();
        let r = g.root();
        assert_eq!(eval_word(&g, r, &[]), NodeSet::singleton(r));
    }

    #[test]
    fn eval_follows_all_branches() {
        let (g, a, _) = sample();
        let result = eval_from_root(&g, &[a]);
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn eval_composes() {
        let (g, a, b) = sample();
        // a·b from root reaches n2 (via n1) only.
        let ab = eval_from_root(&g, &[a, b]);
        assert_eq!(ab.len(), 1);
        // a·a from root reaches n1 (via n2).
        let aa = eval_from_root(&g, &[a, a]);
        assert_eq!(aa.len(), 1);
    }

    #[test]
    fn word_holds_matches_eval() {
        let (g, a, b) = sample();
        for target in g.nodes() {
            assert_eq!(
                word_holds(&g, g.root(), &[a, b], target),
                eval_from_root(&g, &[a, b]).contains(target)
            );
        }
    }

    #[test]
    fn backward_evaluation_inverts_forward() {
        let (g, a, b) = sample();
        for word in [vec![], vec![a], vec![a, b], vec![b, a], vec![a, a, b]] {
            for to in g.nodes() {
                let back = eval_word_back(&g, to, &word);
                let expect: NodeSet = g
                    .nodes()
                    .filter(|&y| word_holds(&g, y, &word, to))
                    .collect();
                assert_eq!(back, expect, "word {word:?} into {to:?}");
            }
        }
    }

    #[test]
    fn unrealized_word_detected() {
        let (g, a, b) = sample();
        assert!(word_realized(&g, &[a]));
        assert!(!word_realized(&g, &[b]));
        assert!(word_realized(&g, &[a, b]));
        assert!(!word_realized(&g, &[a, b, b]));
    }

    #[test]
    fn nodeset_subset_and_ops() {
        let s1 = NodeSet::from_iter([NodeId::from_index(1), NodeId::from_index(3)]);
        let s2 = NodeSet::from_iter([
            NodeId::from_index(3),
            NodeId::from_index(1),
            NodeId::from_index(2),
        ]);
        assert!(s1.is_subset(&s2));
        assert!(!s2.is_subset(&s1));
        assert_eq!(s2.len(), 3);
        assert!(s2.contains(NodeId::from_index(2)));
    }

    #[test]
    fn nodeset_insert_dedups() {
        let mut s = NodeSet::new();
        assert!(s.insert(NodeId::from_index(5)));
        assert!(!s.insert(NodeId::from_index(5)));
        assert_eq!(s.len(), 1);
    }
}
