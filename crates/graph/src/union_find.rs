//! A union-find (disjoint-set) structure over [`NodeId`]s.
//!
//! The chase merges vertices (when a constraint's conclusion path is
//! empty, `y = x` is forced) without rebuilding the graph: the graph
//! splices the adjacency of the dropped node into the kept one
//! ([`Graph::merge_nodes`](crate::Graph::merge_nodes)). A replay of a
//! recorded chase trace uses this structure to map *stale* node ids onto
//! their surviving representative, lazily, in near-constant amortized
//! time.

use crate::graph::NodeId;

/// Disjoint-set forest with path halving.
///
/// Unions are *directed*: [`UnionFind::union_into`] makes the first
/// argument the canonical representative of the merged class. This is
/// deliberate — the caller has already spliced the graph adjacency onto
/// that node, so canonicalization must resolve to the id that actually
/// holds the edges.
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    /// An empty forest.
    pub fn new() -> UnionFind {
        UnionFind::default()
    }

    /// Grows the forest so that ids `0..n` are tracked (new ids start as
    /// their own representative). Shrinking is not supported.
    pub fn ensure(&mut self, n: usize) {
        let old = self.parent.len();
        if n > old {
            debug_assert!(n <= u32::MAX as usize);
            self.parent.extend(old as u32..n as u32);
        }
    }

    /// Number of tracked ids.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether no ids are tracked yet.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The canonical representative of `node`.
    ///
    /// Ids beyond the tracked range are their own representative (fresh
    /// nodes added after the last [`UnionFind::ensure`] call have never
    /// been merged).
    pub fn find(&mut self, node: NodeId) -> NodeId {
        let mut i = node.index();
        if i >= self.parent.len() {
            return node;
        }
        // Path halving: every other node on the walk is re-pointed at its
        // grandparent, flattening the tree for subsequent queries.
        while self.parent[i] as usize != i {
            let grandparent = self.parent[self.parent[i] as usize];
            self.parent[i] = grandparent;
            i = grandparent as usize;
        }
        NodeId::from_index(i)
    }

    /// Read-only representative lookup (no path compression).
    pub fn find_immutable(&self, node: NodeId) -> NodeId {
        let mut i = node.index();
        if i >= self.parent.len() {
            return node;
        }
        while self.parent[i] as usize != i {
            i = self.parent[i] as usize;
        }
        NodeId::from_index(i)
    }

    /// Merges the class of `loser` into the class of `winner`; afterwards
    /// `find` of anything in either class resolves to `find(winner)`.
    /// Returns `false` if the two were already in the same class.
    pub fn union_into(&mut self, winner: NodeId, loser: NodeId) -> bool {
        let max = winner.index().max(loser.index()) + 1;
        self.ensure(max);
        let w = self.find(winner);
        let l = self.find(loser);
        if w == l {
            return false;
        }
        self.parent[l.index()] = w.index() as u32;
        true
    }

    /// Whether two ids are currently in the same class.
    pub fn same(&mut self, a: NodeId, b: NodeId) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn fresh_ids_are_their_own_class() {
        let mut uf = UnionFind::new();
        assert_eq!(uf.find(n(5)), n(5));
        uf.ensure(3);
        assert_eq!(uf.find(n(2)), n(2));
        assert_eq!(uf.find_immutable(n(7)), n(7));
    }

    #[test]
    fn union_is_directed_toward_winner() {
        let mut uf = UnionFind::new();
        assert!(uf.union_into(n(1), n(4)));
        assert_eq!(uf.find(n(4)), n(1));
        assert_eq!(uf.find(n(1)), n(1));
        // Merging again is a no-op.
        assert!(!uf.union_into(n(1), n(4)));
    }

    #[test]
    fn chains_resolve_to_final_winner() {
        let mut uf = UnionFind::new();
        uf.union_into(n(1), n(2));
        uf.union_into(n(3), n(1));
        assert_eq!(uf.find(n(2)), n(3));
        assert_eq!(uf.find(n(1)), n(3));
        assert!(uf.same(n(2), n(3)));
        assert!(!uf.same(n(2), n(0)));
        assert_eq!(uf.find_immutable(n(2)), n(3));
    }

    #[test]
    fn ensure_grows_without_disturbing_classes() {
        let mut uf = UnionFind::new();
        uf.union_into(n(0), n(1));
        uf.ensure(10);
        assert_eq!(uf.find(n(1)), n(0));
        assert_eq!(uf.find(n(9)), n(9));
        assert_eq!(uf.len(), 10);
        assert!(!uf.is_empty());
    }
}
