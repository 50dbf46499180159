//! Columnar edge storage with forward and backward adjacency indexes.
//!
//! The resident store keeps each context's graph as three parallel
//! `u32` columns (`src`, `label`, `dst`) sorted by `(src, label, dst)`,
//! plus two CSR-style indexes:
//!
//! - the **forward** index is a per-node offset table into the sorted
//!   columns, so `successors(node, label)` is one offset lookup plus a
//!   binary search inside the node's own edge slice;
//! - the **backward** index is a per-node offset table into a
//!   permutation of edge positions sorted by `(dst, label, src)`, so
//!   `predecessors(node)` costs one offset lookup — no scan over the
//!   whole edge set, unlike [`Graph`]'s conservative predecessor hints.
//!
//! This layout is also the snapshot wire format (three raw little-endian
//! `u32` arrays); the indexes are rebuilt at load time rather than
//! stored, keeping snapshots small and trivially validatable. The
//! rebuild is `O(E + N + L)` for `E` edges, `N` nodes and `L` labels:
//! stable counting-sort passes over node and label ids order the
//! columns (by `dst`, then `label`, then `src`) and the backward
//! permutation (by `label`, then `dst`), with no comparison sort. Each
//! pass works on a `u32` position permutation, so the build holds at
//! most two permutations beside the three columns — about `5E + N`
//! words at peak, against `4E + 2N` for the finished graph.
//! Every bucket table is bounded by the input: node tables by the node
//! budget ([`MAX_ISOLATED_NODES`]), label tables by the string table
//! the label ids index.

use pathcons_graph::{Graph, Label, NodeId};

/// Isolated-node budget for [`ColumnarGraph::from_columns`]: the node
/// count may exceed the `2 × edge_count` nodes the edges themselves can
/// touch by at most this many isolated nodes. Snapshot payloads carry
/// no per-node data, so without this bound a tiny checksum-valid file
/// declaring `node_count = u32::MAX` would force multi-GiB CSR offset
/// tables before any edge data is read.
pub const MAX_ISOLATED_NODES: u32 = 1 << 20;

/// An immutable graph in columnar form: sorted edge columns plus
/// forward/backward adjacency offset tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnarGraph {
    node_count: u32,
    root: u32,
    /// Edge columns, sorted by `(src, label, dst)`, deduplicated.
    src: Vec<u32>,
    label: Vec<u32>,
    dst: Vec<u32>,
    /// Forward CSR offsets: edges of node `n` occupy positions
    /// `fwd[n]..fwd[n + 1]` of the columns. Length `node_count + 1`.
    fwd: Vec<u32>,
    /// Backward index: `bwd_pos` permutes edge positions into
    /// `(dst, label, src)` order; in-edges of node `n` are the positions
    /// `bwd_pos[bwd[n]..bwd[n + 1]]`. Lengths `node_count + 1` / `E`.
    bwd: Vec<u32>,
    bwd_pos: Vec<u32>,
}

impl ColumnarGraph {
    /// Builds the columnar form of a [`Graph`] (including any isolated
    /// arena nodes, so node ids survive the round trip).
    pub fn from_graph(graph: &Graph) -> ColumnarGraph {
        let mut src = Vec::with_capacity(graph.edge_count());
        let mut label = Vec::with_capacity(graph.edge_count());
        let mut dst = Vec::with_capacity(graph.edge_count());
        for (from, l, to) in graph.edges() {
            src.push(from.index() as u32);
            label.push(l.index() as u32);
            dst.push(to.index() as u32);
        }
        // An arena graph's label ids come from its interner, so the
        // largest one bounds the label bucket table.
        let label_count = label.iter().max().map_or(0, |&l| l + 1);
        Self::build(
            graph.node_count() as u32,
            graph.root().index() as u32,
            label_count,
            src,
            label,
            dst,
        )
    }

    /// Builds a columnar graph from raw columns (the snapshot decode
    /// and mutation paths), validating every node id against
    /// `node_count` and every label id against `label_count`, the size
    /// of the string table the ids index. The columns need not be
    /// sorted or deduplicated.
    pub fn from_columns(
        node_count: u32,
        root: u32,
        label_count: u32,
        src: Vec<u32>,
        label: Vec<u32>,
        dst: Vec<u32>,
    ) -> Result<ColumnarGraph, String> {
        if node_count == 0 {
            return Err("graph must have at least one node (the root)".into());
        }
        if root >= node_count {
            return Err(format!(
                "root {root} out of range (node count {node_count})"
            ));
        }
        if src.len() != label.len() || src.len() != dst.len() {
            return Err(format!(
                "ragged edge columns: {} src / {} label / {} dst",
                src.len(),
                label.len(),
                dst.len()
            ));
        }
        let node_budget = 2 * src.len() as u64 + u64::from(MAX_ISOLATED_NODES);
        if u64::from(node_count) > node_budget {
            return Err(format!(
                "node count {node_count} exceeds what {} edges plus {MAX_ISOLATED_NODES} \
                 isolated nodes can account for",
                src.len()
            ));
        }
        for ((&s, &l), &d) in src.iter().zip(&label).zip(&dst) {
            if s >= node_count || d >= node_count {
                return Err(format!(
                    "edge ({s}, _, {d}) out of range (node count {node_count})"
                ));
            }
            if l >= label_count {
                return Err(format!(
                    "edge label id {l} outside the string table ({label_count} labels)"
                ));
            }
        }
        Ok(Self::build(node_count, root, label_count, src, label, dst))
    }

    /// The one CSR builder. Callers guarantee every node id is below
    /// `node_count` and every label id below `label_count`.
    fn build(
        node_count: u32,
        root: u32,
        label_count: u32,
        src: Vec<u32>,
        label: Vec<u32>,
        dst: Vec<u32>,
    ) -> ColumnarGraph {
        let nodes = node_count as usize;
        let labels = label_count as usize;
        // Forward order: least-significant key first, each pass stable.
        let (order, _) = counting_pass(nodes, &dst, 0..dst.len() as u32);
        let (order, _) = counting_pass(labels, &label, order.into_iter());
        let (mut order, _) = counting_pass(nodes, &src, order.into_iter());
        order.dedup_by_key(|p| {
            let p = *p as usize;
            (src[p], label[p], dst[p])
        });
        let (src, label, dst) = (
            gather(&order, src),
            gather(&order, label),
            gather(&order, dst),
        );
        drop(order);
        // Backward order: positions are already `src`-ordered within
        // equal `(dst, label)`, so two stable passes finish it; the last
        // pass's bucket table is the backward offset index itself.
        let (by_label, _) = counting_pass(labels, &label, 0..label.len() as u32);
        let (bwd_pos, bwd) = counting_pass(nodes, &dst, by_label.into_iter());
        let fwd = offsets(nodes, &src);
        ColumnarGraph {
            node_count,
            root,
            src,
            label,
            dst,
            fwd,
            bwd,
            bwd_pos,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count as usize
    }

    /// Number of (distinct) edges.
    pub fn edge_count(&self) -> usize {
        self.src.len()
    }

    /// The root node.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// The raw columns `(src, label, dst)` — the snapshot wire payload.
    pub fn columns(&self) -> (&[u32], &[u32], &[u32]) {
        (&self.src, &self.label, &self.dst)
    }

    /// Out-edges of `node` as `(label, target)` pairs, sorted by label.
    pub fn out_edges(&self, node: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (lo, hi) = self.fwd_range(node);
        (lo..hi).map(move |i| (self.label[i], self.dst[i]))
    }

    /// Successors of `node` along `label`: binary search inside the
    /// node's forward slice, then a scan over equal labels.
    pub fn successors(&self, node: u32, label: u32) -> impl Iterator<Item = u32> + '_ {
        let (lo, hi) = self.fwd_range(node);
        let start = lo + self.label[lo..hi].partition_point(|&l| l < label);
        self.label[start..hi]
            .iter()
            .take_while(move |&&l| l == label)
            .enumerate()
            .map(move |(k, _)| self.dst[start + k])
    }

    /// In-edges of `node` as `(source, label)` pairs, via the backward
    /// index (exact, unlike [`Graph`]'s predecessor hints).
    pub fn in_edges(&self, node: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (lo, hi) = self.bwd_range(node);
        self.bwd_pos[lo..hi].iter().map(move |&p| {
            let p = p as usize;
            (self.src[p], self.label[p])
        })
    }

    /// Out-degree of `node`.
    pub fn out_degree(&self, node: u32) -> usize {
        let (lo, hi) = self.fwd_range(node);
        hi - lo
    }

    /// In-degree of `node`.
    pub fn in_degree(&self, node: u32) -> usize {
        let (lo, hi) = self.bwd_range(node);
        hi - lo
    }

    /// All edges as `(src, label, dst)` triples in column order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        (0..self.src.len()).map(move |i| (self.src[i], self.label[i], self.dst[i]))
    }

    /// The largest label id used on any edge, if the graph has edges.
    pub fn max_label(&self) -> Option<u32> {
        self.label.iter().copied().max()
    }

    /// Rehydrates a mutable [`Graph`] (same node numbering, same root)
    /// for code paths that need the arena representation, e.g. the
    /// satisfaction checkers of `pathcons-constraints`.
    pub fn to_graph(&self) -> Graph {
        let mut graph = Graph::with_capacity(self.node_count());
        for _ in 1..self.node_count {
            graph.add_node();
        }
        for (s, l, d) in self.edges() {
            graph.add_edge(
                NodeId::from_index(s as usize),
                Label::from_index(l as usize),
                NodeId::from_index(d as usize),
            );
        }
        graph.set_root(NodeId::from_index(self.root as usize));
        graph
    }

    fn fwd_range(&self, node: u32) -> (usize, usize) {
        (
            self.fwd[node as usize] as usize,
            self.fwd[node as usize + 1] as usize,
        )
    }

    fn bwd_range(&self, node: u32) -> (usize, usize) {
        (
            self.bwd[node as usize] as usize,
            self.bwd[node as usize + 1] as usize,
        )
    }
}

/// CSR offset table over bucket keys: `offsets[k]..offsets[k + 1]`
/// brackets the positions of bucket `k` once the keys are sorted.
/// Length `buckets + 1`; every key must be below `buckets`.
fn offsets(buckets: usize, keys: &[u32]) -> Vec<u32> {
    let mut table = vec![0u32; buckets + 1];
    for &key in keys {
        table[key as usize + 1] += 1;
    }
    for i in 1..table.len() {
        table[i] += table[i - 1];
    }
    table
}

/// One stable counting-sort pass: reorders the positions `order` (a
/// permutation of `0..keys.len()`) by `keys[position]`, keeping equal
/// keys in their `order` sequence. Returns the sorted positions and
/// their [`offsets`] table.
fn counting_pass(
    buckets: usize,
    keys: &[u32],
    order: impl Iterator<Item = u32>,
) -> (Vec<u32>, Vec<u32>) {
    let mut table = offsets(buckets, keys);
    let mut sorted = vec![0u32; keys.len()];
    for p in order {
        let cursor = &mut table[keys[p as usize] as usize];
        sorted[*cursor as usize] = p;
        *cursor += 1;
    }
    // Each cursor now sits at its bucket's end, which is where the next
    // bucket starts: shift the table up by one to restore the offsets.
    table.copy_within(..buckets, 1);
    table[0] = 0;
    (sorted, table)
}

/// The column reordered by `order`, consuming the old column so only
/// one extra column is live at a time.
fn gather(order: &[u32], column: Vec<u32>) -> Vec<u32> {
    order.iter().map(|&p| column[p as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcons_graph::LabelInterner;
    use proptest::prelude::*;

    /// The comparison-sort builder the counting passes replaced, kept
    /// as the oracle they must match field for field.
    fn reference_build(
        node_count: u32,
        root: u32,
        src: Vec<u32>,
        label: Vec<u32>,
        dst: Vec<u32>,
    ) -> ColumnarGraph {
        let mut order: Vec<usize> = (0..src.len()).collect();
        order.sort_unstable_by_key(|&i| (src[i], label[i], dst[i]));
        order.dedup_by_key(|&mut i| (src[i], label[i], dst[i]));
        let pick = |col: &[u32]| order.iter().map(|&i| col[i]).collect::<Vec<u32>>();
        let (src, label, dst) = (pick(&src), pick(&label), pick(&dst));
        let fwd = offsets(node_count as usize, &src);
        let mut bwd_pos: Vec<u32> = (0..dst.len() as u32).collect();
        bwd_pos.sort_unstable_by_key(|&p| {
            let p = p as usize;
            (dst[p], label[p], src[p])
        });
        let bwd_keys: Vec<u32> = bwd_pos.iter().map(|&p| dst[p as usize]).collect();
        let bwd = offsets(node_count as usize, &bwd_keys);
        ColumnarGraph {
            node_count,
            root,
            src,
            label,
            dst,
            fwd,
            bwd,
            bwd_pos,
        }
    }

    fn sample() -> (Graph, LabelInterner) {
        let mut labels = LabelInterner::new();
        let a = labels.intern("a");
        let b = labels.intern("b");
        let mut g = Graph::new();
        let n1 = g.add_node();
        let n2 = g.add_node();
        let r = g.root();
        g.add_edge(r, a, n1);
        g.add_edge(r, b, n2);
        g.add_edge(r, a, n2);
        g.add_edge(n1, b, n2);
        g.add_edge(n2, a, r);
        (g, labels)
    }

    #[test]
    fn round_trips_through_graph() {
        let (g, _) = sample();
        let col = ColumnarGraph::from_graph(&g);
        assert_eq!(col.node_count(), g.node_count());
        assert_eq!(col.edge_count(), g.edge_count());
        let back = col.to_graph();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.root(), g.root());
        let expect: Vec<_> = g.edges().collect();
        let got: Vec<_> = back.edges().collect();
        assert_eq!(expect, got);
    }

    #[test]
    fn forward_index_matches_graph_successors() {
        let (g, labels) = sample();
        let col = ColumnarGraph::from_graph(&g);
        for node in g.nodes() {
            for label in labels.labels() {
                let expect: Vec<u32> = g
                    .successors(node, label)
                    .map(|n| n.index() as u32)
                    .collect();
                let got: Vec<u32> = col
                    .successors(node.index() as u32, label.index() as u32)
                    .collect();
                assert_eq!(expect, got, "node {node:?} label {label:?}");
            }
            assert_eq!(col.out_degree(node.index() as u32), g.out_degree(node));
        }
    }

    #[test]
    fn backward_index_inverts_every_edge() {
        let (g, _) = sample();
        let col = ColumnarGraph::from_graph(&g);
        let mut total = 0usize;
        for node in 0..col.node_count() as u32 {
            for (s, l) in col.in_edges(node) {
                assert!(col.successors(s, l).any(|d| d == node));
                total += 1;
            }
            assert_eq!(col.in_degree(node), col.in_edges(node).count());
        }
        assert_eq!(total, col.edge_count(), "every edge has one in-entry");
    }

    #[test]
    fn from_columns_validates_and_normalizes() {
        // Unsorted with one duplicate: normalized to 2 sorted edges.
        let col = ColumnarGraph::from_columns(3, 0, 2, vec![1, 0, 1], vec![0, 1, 0], vec![2, 1, 2])
            .unwrap();
        assert_eq!(col.edge_count(), 2);
        assert_eq!(col.edges().next(), Some((0, 1, 1)));

        assert!(ColumnarGraph::from_columns(0, 0, 1, vec![], vec![], vec![]).is_err());
        assert!(ColumnarGraph::from_columns(2, 2, 1, vec![], vec![], vec![]).is_err());
        assert!(ColumnarGraph::from_columns(2, 0, 1, vec![0], vec![0], vec![5]).is_err());
        assert!(ColumnarGraph::from_columns(2, 0, 1, vec![0, 1], vec![0], vec![1, 0]).is_err());
    }

    #[test]
    fn declared_node_counts_are_bounded_by_the_payload() {
        // An edgeless graph claiming u32::MAX nodes must be rejected
        // before the CSR offset tables (node_count + 1 entries each)
        // are allocated — not after an OOM.
        assert!(ColumnarGraph::from_columns(u32::MAX, 0, 1, vec![], vec![], vec![]).is_err());
        assert!(
            ColumnarGraph::from_columns(MAX_ISOLATED_NODES + 3, 0, 1, vec![0], vec![0], vec![1])
                .is_err(),
            "one edge accounts for at most two nodes beyond the budget"
        );
        // At the budget boundary the graph is accepted.
        assert!(ColumnarGraph::from_columns(
            MAX_ISOLATED_NODES + 2,
            0,
            1,
            vec![0],
            vec![0],
            vec![1]
        )
        .is_ok());
    }

    #[test]
    fn label_ids_are_bounded_by_the_string_table() {
        assert!(ColumnarGraph::from_columns(2, 0, 3, vec![0], vec![u32::MAX], vec![1]).is_err());
        assert!(ColumnarGraph::from_columns(2, 0, 3, vec![0], vec![3], vec![1]).is_err());
        assert!(ColumnarGraph::from_columns(2, 0, 0, vec![0], vec![0], vec![1]).is_err());
        assert!(ColumnarGraph::from_columns(2, 0, 3, vec![0], vec![2], vec![1]).is_ok());
    }

    #[test]
    fn the_empty_graph_matches_the_oracle() {
        let col = ColumnarGraph::from_columns(1, 0, 0, vec![], vec![], vec![]).unwrap();
        assert_eq!(col, reference_build(1, 0, vec![], vec![], vec![]));
        assert_eq!(ColumnarGraph::from_graph(&col.to_graph()), col);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn counting_build_matches_the_sort_oracle(
            shape in (1u32..40, 1u32..6, 0u32..3),
            edges in prop::collection::vec((0u32..1000, 0u32..1000, 0u32..1000), 0..60),
            repeats in prop::collection::vec(0usize..1000, 0..10),
            loops in prop::collection::vec((0u32..1000, 0u32..1000), 0..5),
            hub in (prop::bool::ANY, 0u32..1000, 0u32..120),
        ) {
            let (node_count, label_count, root) = shape;
            let root = root % node_count;
            let mut triples: Vec<(u32, u32, u32)> = edges
                .iter()
                .map(|&(s, l, d)| (s % node_count, l % label_count, d % node_count))
                .collect();
            // Duplicates of drawn edges, self-loops, and one hub whose
            // out-degree dwarfs the rest.
            for r in repeats {
                if let Some(&t) = triples.get(r % triples.len().max(1)) {
                    triples.push(t);
                }
            }
            for (n, l) in loops {
                triples.push((n % node_count, l % label_count, n % node_count));
            }
            let (with_hub, hub_node, hub_degree) = hub;
            if with_hub {
                for i in 0..hub_degree {
                    triples.push((hub_node % node_count, i % label_count, (i * 7) % node_count));
                }
            }
            let src: Vec<u32> = triples.iter().map(|t| t.0).collect();
            let label: Vec<u32> = triples.iter().map(|t| t.1).collect();
            let dst: Vec<u32> = triples.iter().map(|t| t.2).collect();
            let want = reference_build(node_count, root, src.clone(), label.clone(), dst.clone());
            let got = ColumnarGraph::from_columns(node_count, root, label_count, src, label, dst)
                .expect("in-range columns build");
            prop_assert_eq!(&got, &want, "columns {:?}", triples);
            prop_assert_eq!(ColumnarGraph::from_graph(&got.to_graph()), got, "columns {:?}", triples);
        }
    }

    #[test]
    fn isolated_nodes_survive() {
        let mut g = Graph::new();
        let _orphan = g.add_node();
        let col = ColumnarGraph::from_graph(&g);
        assert_eq!(col.node_count(), 2);
        assert_eq!(col.edge_count(), 0);
        assert_eq!(col.out_degree(1), 0);
        assert_eq!(col.in_degree(1), 0);
    }
}
