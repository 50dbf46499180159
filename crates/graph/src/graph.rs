//! Rooted edge-labeled directed graphs (`σ`-structures).
//!
//! A semistructured database is abstracted as a finite `σ`-structure
//! `(|G|, r_G, E_G)` — a rooted, edge-labeled, directed graph (paper,
//! Sections 2.1 and 3.1). Nodes are arena-allocated and addressed by
//! [`NodeId`]; each node stores its out-edges as a flat sorted vector so
//! that successor lookup by label is a binary search plus a linear scan
//! over equal labels.

use crate::label::Label;
use std::fmt;

/// A node of a [`Graph`] (a vertex of the `σ`-structure).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Raw index of this node in its graph's arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a node id from a raw index (must come from the same graph).
    #[inline]
    pub fn from_index(index: usize) -> NodeId {
        debug_assert!(index <= u32::MAX as usize);
        NodeId(index as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[derive(Clone, Debug, Default)]
struct NodeData {
    /// Out-edges, kept sorted by `(label, target)` and deduplicated.
    edges: Vec<(Label, NodeId)>,
    /// Predecessor hints: nodes that inserted an edge into this node.
    /// May contain duplicates and entries made stale by [`Graph::merge_nodes`];
    /// consumers treat it as a conservative over-approximation.
    preds: Vec<NodeId>,
}

/// A finite rooted edge-labeled directed graph.
///
/// The graph always has at least one node: the root, created by
/// [`Graph::new`]. Edge multiplicity is ignored (the underlying semantics
/// is a set of ground atoms `K(a, b)`), so inserting an existing edge is a
/// no-op.
///
/// ```
/// use pathcons_graph::{Graph, LabelInterner};
///
/// let mut labels = LabelInterner::new();
/// let book = labels.intern("book");
/// let author = labels.intern("author");
///
/// let mut g = Graph::new();
/// let b = g.add_node();
/// let p = g.add_node();
/// g.add_edge(g.root(), book, b);
/// g.add_edge(b, author, p);
///
/// assert!(g.has_edge(g.root(), book, b));
/// assert_eq!(g.successors(b, author).collect::<Vec<_>>(), vec![p]);
/// ```
#[derive(Clone, Debug)]
pub struct Graph {
    root: NodeId,
    nodes: Vec<NodeData>,
    /// Distinct edge insertions so far (the graph's *revision*).
    insertions: u64,
}

impl Default for Graph {
    fn default() -> Graph {
        Graph::new()
    }
}

impl Graph {
    /// Creates a graph consisting of a single root node.
    pub fn new() -> Graph {
        Graph {
            root: NodeId(0),
            nodes: vec![NodeData::default()],
            insertions: 0,
        }
    }

    /// Creates a graph with capacity for `nodes` nodes pre-reserved.
    pub fn with_capacity(nodes: usize) -> Graph {
        let mut g = Graph::new();
        g.nodes.reserve(nodes.saturating_sub(1));
        g
    }

    /// The root node `r_G`.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Re-designates the root. The node must exist.
    ///
    /// Used by the Theorem 5.1 reduction, which re-roots a countermodel at
    /// an inner vertex (`G₁` is "constructed from `G` by letting `a` be the
    /// new root").
    pub fn set_root(&mut self, node: NodeId) {
        assert!(node.index() < self.nodes.len(), "set_root: no such node");
        self.root = node;
    }

    /// Number of nodes `|G|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of (distinct) labeled edges.
    pub fn edge_count(&self) -> usize {
        self.nodes.iter().map(|n| n.edges.len()).sum()
    }

    /// Adds a fresh isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        self.nodes.push(NodeData::default());
        id
    }

    /// Adds `count` fresh nodes, returning their ids in order.
    pub fn add_nodes(&mut self, count: usize) -> Vec<NodeId> {
        (0..count).map(|_| self.add_node()).collect()
    }

    /// Adds the edge `label(from, to)`. Returns `true` if the edge was new.
    pub fn add_edge(&mut self, from: NodeId, label: Label, to: NodeId) -> bool {
        assert!(to.index() < self.nodes.len(), "add_edge: no such target");
        let edges = &mut self.nodes[from.index()].edges;
        match edges.binary_search(&(label, to)) {
            Ok(_) => false,
            Err(pos) => {
                edges.insert(pos, (label, to));
                self.nodes[to.index()].preds.push(from);
                self.insertions += 1;
                true
            }
        }
    }

    /// The current revision: the number of distinct edge insertions so
    /// far, including the ones [`Graph::merge_nodes`] performs.
    #[inline]
    pub fn revision(&self) -> u64 {
        self.insertions
    }

    /// Merges `drop` into `keep` in place: `keep` absorbs all of `drop`'s
    /// out-edges, every edge into `drop` is re-targeted at `keep`, and
    /// `drop` is left isolated (its id remains valid but carries no
    /// edges). If `drop` is the root, `keep` becomes the root.
    ///
    /// Cost is proportional to the degrees of `drop` and `keep` (plus
    /// logarithmic insertions), *not* to the size of the graph — this is
    /// the in-place merge the chase and its certificate replay use.
    pub fn merge_nodes(&mut self, keep: NodeId, drop: NodeId) {
        assert!(keep.index() < self.nodes.len(), "merge_nodes: no such node");
        assert!(drop.index() < self.nodes.len(), "merge_nodes: no such node");
        if keep == drop {
            return;
        }
        if self.root == drop {
            self.root = keep;
        }
        // Move drop's out-edges onto keep (self-loops follow the merge).
        let out = std::mem::take(&mut self.nodes[drop.index()].edges);
        for (label, to) in out {
            let to = if to == drop { keep } else { to };
            self.add_edge(keep, label, to);
        }
        // Re-target in-edges of drop using the predecessor hints. Hints can
        // be stale or duplicated; retargeting is idempotent either way.
        let preds = std::mem::take(&mut self.nodes[drop.index()].preds);
        for pred in preds {
            let pred = if pred == drop { keep } else { pred };
            let mut moved = Vec::new();
            self.nodes[pred.index()].edges.retain(|&(label, to)| {
                if to == drop {
                    moved.push(label);
                    false
                } else {
                    true
                }
            });
            for label in moved {
                self.add_edge(pred, label, keep);
            }
        }
    }

    /// A compacted copy containing only the nodes reachable from the root,
    /// renumbered in BFS order (the root becomes node 0).
    ///
    /// Used when emitting a chase-fixpoint countermodel: splice merges
    /// leave isolated husk nodes in the arena, and the countermodel handed
    /// to callers should not carry them.
    pub fn compacted(&self) -> Graph {
        let reachable = self.reachable_from_root();
        let mut mapping: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut compact = Graph::with_capacity(reachable.len());
        mapping[self.root.index()] = Some(compact.root());
        for &node in reachable.iter().skip(1) {
            mapping[node.index()] = Some(compact.add_node());
        }
        for &node in &reachable {
            let from = mapping[node.index()].expect("reachable node mapped");
            for (label, to) in self.out_edges(node) {
                let to = mapping[to.index()].expect("edge target reachable");
                compact.add_edge(from, label, to);
            }
        }
        compact
    }

    /// Whether the edge `label(from, to)` is present.
    pub fn has_edge(&self, from: NodeId, label: Label, to: NodeId) -> bool {
        self.nodes[from.index()]
            .edges
            .binary_search(&(label, to))
            .is_ok()
    }

    /// All nodes of the graph, in arena order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Out-edges of `node` as `(label, target)` pairs, sorted by label.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = (Label, NodeId)> + '_ {
        self.nodes[node.index()].edges.iter().copied()
    }

    /// Out-degree of `node`.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.nodes[node.index()].edges.len()
    }

    /// Successors of `node` along edges labeled `label`.
    pub fn successors(&self, node: NodeId, label: Label) -> impl Iterator<Item = NodeId> + '_ {
        let edges = &self.nodes[node.index()].edges;
        let start = edges.partition_point(|&(l, _)| l < label);
        edges[start..]
            .iter()
            .take_while(move |&&(l, _)| l == label)
            .map(|&(_, t)| t)
    }

    /// The unique successor of `node` along `label`, if there is exactly one.
    pub fn unique_successor(&self, node: NodeId, label: Label) -> Option<NodeId> {
        let mut it = self.successors(node, label);
        let first = it.next()?;
        if it.next().is_some() {
            None
        } else {
            Some(first)
        }
    }

    /// All edges of the graph as `(from, label, to)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, Label, NodeId)> + '_ {
        self.nodes.iter().enumerate().flat_map(|(i, data)| {
            data.edges
                .iter()
                .map(move |&(l, t)| (NodeId::from_index(i), l, t))
        })
    }

    /// Distinct labels that occur on some edge, sorted.
    pub fn used_labels(&self) -> Vec<Label> {
        let mut labels: Vec<Label> = self.edges().map(|(_, l, _)| l).collect();
        labels.sort_unstable();
        labels.dedup();
        labels
    }

    /// Nodes reachable from the root by any sequence of edges.
    pub fn reachable_from_root(&self) -> Vec<NodeId> {
        self.reachable_from(self.root)
    }

    /// Nodes reachable from `start` (including `start`), in BFS order.
    pub fn reachable_from(&self, start: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut order = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        seen[start.index()] = true;
        queue.push_back(start);
        while let Some(n) = queue.pop_front() {
            order.push(n);
            for (_, t) in self.out_edges(n) {
                if !seen[t.index()] {
                    seen[t.index()] = true;
                    queue.push_back(t);
                }
            }
        }
        order
    }

    /// Appends a fresh chain of edges spelling `word` starting at `from`,
    /// returning the final node of the chain.
    ///
    /// Every interior node is new; for the empty word the result is `from`.
    /// This is the basic building block of the countermodel constructions
    /// in Lemmas 4.5, 5.3 and 5.4.
    pub fn add_path(&mut self, from: NodeId, word: &[Label]) -> NodeId {
        let mut current = from;
        for &label in word {
            let next = self.add_node();
            self.add_edge(current, label, next);
            current = next;
        }
        current
    }

    /// Copies `other` into `self` node-by-node, returning the mapping from
    /// `other`'s node ids to the fresh ids inside `self`.
    ///
    /// `other`'s root is *not* connected to anything; callers typically add
    /// an edge or path into `map[other.root()]` afterwards (e.g. the
    /// structure `H` of Lemma 5.3, Figure 3).
    pub fn embed(&mut self, other: &Graph) -> Vec<NodeId> {
        let offset = self.nodes.len();
        let map: Vec<NodeId> = (0..other.node_count())
            .map(|i| NodeId::from_index(offset + i))
            .collect();
        for _ in 0..other.node_count() {
            self.add_node();
        }
        for (from, label, to) in other.edges() {
            self.add_edge(map[from.index()], label, map[to.index()]);
        }
        map
    }
}

/// The adjacency that path evaluation needs: a root, and the successors
/// and predecessors of a node along one label.
///
/// [`Graph`] implements it, and so does the resident store's columnar
/// graph, so path evaluation and constraint satisfaction run on either
/// representation without a copy.
pub trait Adjacency {
    /// The root node `r_G`.
    fn root(&self) -> NodeId;

    /// The nodes `y` with an edge `label(node, y)`.
    fn successors(&self, node: NodeId, label: Label) -> impl Iterator<Item = NodeId> + '_;

    /// The nodes `x` with an edge `label(x, node)`: exactly those, though
    /// an implementation may yield one more than once.
    fn predecessors(&self, node: NodeId, label: Label) -> impl Iterator<Item = NodeId> + '_;
}

impl Adjacency for Graph {
    fn root(&self) -> NodeId {
        self.root
    }

    fn successors(&self, node: NodeId, label: Label) -> impl Iterator<Item = NodeId> + '_ {
        Graph::successors(self, node, label)
    }

    /// The predecessor hints of `node`, filtered to the live
    /// `label`-edges.
    fn predecessors(&self, node: NodeId, label: Label) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes[node.index()]
            .preds
            .iter()
            .copied()
            .filter(move |&pred| self.has_edge(pred, label, node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelInterner;

    fn abc() -> (LabelInterner, Label, Label, Label) {
        let mut i = LabelInterner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        let c = i.intern("c");
        (i, a, b, c)
    }

    #[test]
    fn new_graph_has_only_root() {
        let g = Graph::new();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.root().index(), 0);
    }

    #[test]
    fn add_edge_is_idempotent() {
        let (_, a, _, _) = abc();
        let mut g = Graph::new();
        let n = g.add_node();
        assert!(g.add_edge(g.root(), a, n));
        assert!(!g.add_edge(g.root(), a, n));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn successors_filters_by_label() {
        let (_, a, b, _) = abc();
        let mut g = Graph::new();
        let n1 = g.add_node();
        let n2 = g.add_node();
        let n3 = g.add_node();
        let r = g.root();
        g.add_edge(r, a, n1);
        g.add_edge(r, b, n2);
        g.add_edge(r, a, n3);
        let mut succ: Vec<_> = g.successors(r, a).collect();
        succ.sort();
        assert_eq!(succ, vec![n1, n3]);
        assert_eq!(g.successors(r, b).collect::<Vec<_>>(), vec![n2]);
    }

    #[test]
    fn unique_successor_detects_multiplicity() {
        let (_, a, _, _) = abc();
        let mut g = Graph::new();
        let n1 = g.add_node();
        let n2 = g.add_node();
        let r = g.root();
        g.add_edge(r, a, n1);
        assert_eq!(g.unique_successor(r, a), Some(n1));
        g.add_edge(r, a, n2);
        assert_eq!(g.unique_successor(r, a), None);
    }

    #[test]
    fn add_path_builds_fresh_chain() {
        let (_, a, b, c) = abc();
        let mut g = Graph::new();
        let end = g.add_path(g.root(), &[a, b, c]);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        // Walk the chain manually.
        let n1 = g.unique_successor(g.root(), a).unwrap();
        let n2 = g.unique_successor(n1, b).unwrap();
        let n3 = g.unique_successor(n2, c).unwrap();
        assert_eq!(n3, end);
    }

    #[test]
    fn add_path_empty_word_is_identity() {
        let mut g = Graph::new();
        let end = g.add_path(g.root(), &[]);
        assert_eq!(end, g.root());
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn reachability_ignores_unreachable_nodes() {
        let (_, a, _, _) = abc();
        let mut g = Graph::new();
        let n1 = g.add_node();
        let _orphan = g.add_node();
        g.add_edge(g.root(), a, n1);
        let reach = g.reachable_from_root();
        assert_eq!(reach.len(), 2);
        assert!(reach.contains(&g.root()));
        assert!(reach.contains(&n1));
    }

    #[test]
    fn embed_copies_structure() {
        let (_, a, b, _) = abc();
        let mut inner = Graph::new();
        let x = inner.add_node();
        inner.add_edge(inner.root(), a, x);
        inner.add_edge(x, b, inner.root());

        let mut outer = Graph::new();
        let map = outer.embed(&inner);
        assert_eq!(outer.node_count(), 3);
        assert!(outer.has_edge(map[0], a, map[1]));
        assert!(outer.has_edge(map[1], b, map[0]));
        // The embedded root is disconnected from the outer root.
        assert_eq!(outer.out_degree(outer.root()), 0);
    }

    #[test]
    fn set_root_changes_root() {
        let (_, a, _, _) = abc();
        let mut g = Graph::new();
        let n = g.add_node();
        g.add_edge(g.root(), a, n);
        g.set_root(n);
        assert_eq!(g.root(), n);
    }

    #[test]
    fn revision_counts_distinct_insertions() {
        let (_, a, b, _) = abc();
        let mut g = Graph::new();
        let n = g.add_node();
        assert_eq!(g.revision(), 0);
        g.add_edge(g.root(), a, n);
        g.add_edge(g.root(), a, n); // duplicate: not counted
        g.add_edge(n, b, n);
        assert_eq!(g.revision(), 2);
    }

    #[test]
    fn predecessors_are_exact_after_merges() {
        let (_, a, b, _) = abc();
        let mut g = Graph::new();
        let keep = g.add_node();
        let drop = g.add_node();
        let t = g.add_node();
        let r = g.root();
        g.add_edge(r, a, keep);
        g.add_edge(r, b, drop);
        g.add_edge(drop, a, t);
        g.add_edge(r, a, t);
        let preds = |g: &Graph, node, label| {
            let mut v: Vec<NodeId> = Adjacency::predecessors(g, node, label).collect();
            v.sort();
            v.dedup();
            v
        };
        assert_eq!(preds(&g, t, a), vec![r, drop]);
        assert_eq!(preds(&g, t, b), vec![]);
        g.merge_nodes(keep, drop);
        // The stale hint `drop` is filtered out; `keep` took its edge.
        assert_eq!(preds(&g, t, a), vec![r, keep]);
        assert_eq!(preds(&g, keep, b), vec![r]);
        assert_eq!(preds(&g, keep, a), vec![r]);
    }

    #[test]
    fn merge_splices_out_and_in_edges() {
        let (_, a, b, c) = abc();
        let mut g = Graph::new();
        let keep = g.add_node();
        let drop = g.add_node();
        let other = g.add_node();
        let r = g.root();
        g.add_edge(r, a, keep);
        g.add_edge(r, b, drop); // in-edge of drop: must re-target to keep
        g.add_edge(drop, c, other); // out-edge of drop: must move to keep
        g.add_edge(drop, a, drop); // self-loop: must become keep's self-loop
        g.merge_nodes(keep, drop);
        assert!(g.has_edge(r, b, keep));
        assert!(g.has_edge(keep, c, other));
        assert!(g.has_edge(keep, a, keep));
        assert_eq!(g.out_degree(drop), 0);
        assert!(!g.has_edge(r, b, drop));
    }

    #[test]
    fn merge_of_root_keeps_survivor_as_root() {
        let (_, a, _, _) = abc();
        let mut g = Graph::new();
        let n = g.add_node();
        g.add_edge(g.root(), a, n);
        let old_root = g.root();
        g.merge_nodes(n, old_root);
        assert_eq!(g.root(), n);
        assert!(g.has_edge(n, a, n));
    }

    #[test]
    fn merge_dedups_parallel_edges() {
        let (_, a, _, _) = abc();
        let mut g = Graph::new();
        let keep = g.add_node();
        let drop = g.add_node();
        let t = g.add_node();
        g.add_edge(keep, a, t);
        g.add_edge(drop, a, t);
        g.add_edge(g.root(), a, keep);
        g.add_edge(g.root(), a, drop);
        g.merge_nodes(keep, drop);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(keep, a, t));
        assert!(g.has_edge(g.root(), a, keep));
    }

    #[test]
    fn compacted_drops_unreachable_husks() {
        let (_, a, b, _) = abc();
        let mut g = Graph::new();
        let keep = g.add_node();
        let drop = g.add_node();
        g.add_edge(g.root(), a, keep);
        g.add_edge(g.root(), a, drop);
        g.add_edge(drop, b, keep);
        g.merge_nodes(keep, drop);
        assert_eq!(g.node_count(), 3); // husk still in the arena
        let compact = g.compacted();
        assert_eq!(compact.node_count(), 2);
        assert_eq!(compact.edge_count(), g.edges().count());
        // Same structure up to renumbering: root -a-> k, k -b-> k.
        let k = compact.unique_successor(compact.root(), a).unwrap();
        assert!(compact.has_edge(k, b, k));
    }

    #[test]
    fn used_labels_sorted_dedup() {
        let (_, a, b, _) = abc();
        let mut g = Graph::new();
        let n = g.add_node();
        g.add_edge(g.root(), b, n);
        g.add_edge(g.root(), a, n);
        g.add_edge(n, b, n);
        assert_eq!(g.used_labels(), vec![a, b]);
    }
}
