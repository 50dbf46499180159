//! Columnar edge storage with forward and backward adjacency indexes.
//!
//! The resident store keeps each context's graph as two parallel `u32`
//! columns (`label`, `dst`) in `(src, label, dst)` order, plus two
//! CSR-style indexes:
//!
//! - the **forward** index is a per-node offset table into the
//!   columns, so `successors(node, label)` is one offset lookup plus a
//!   binary search inside the node's own edge slice. It also says which
//!   node owns each position, so no `src` column is kept: a position's
//!   source is searched for in the offsets that follow the nearest
//!   earlier entry of a sample table, which holds the source of every
//!   64th position;
//! - the **backward** index is a per-node offset table into a
//!   permutation of edge positions sorted by `(dst, label, src)`, so
//!   `predecessors(node, label)` is one offset lookup plus a binary
//!   search — exact, unlike [`Graph`]'s predecessor hints.
//!
//! Both indexes serve the [`Adjacency`] trait, so the satisfaction
//! checker of `pathcons-constraints` runs on the columns directly.
//!
//! The snapshot wire format is three raw little-endian `u32` arrays
//! (`src`, `label`, `dst`); the `src` column is read off the forward
//! index when a snapshot is written, and the indexes are rebuilt at
//! load time rather than stored, keeping snapshots small and trivially
//! validatable. For `E` edges, `N` nodes and `L` labels, the forward
//! order is one bucket scatter: each edge's `(label, dst)` pair, packed
//! into a `u64`, lands in its source node's bucket, and each bucket is
//! sorted and deduplicated on its own and written back over the `label`
//! and `dst` columns — `O(E + N)` plus a sort of each node's out-edges.
//! The scatter holds about `5E + N` words at peak. The backward
//! permutation is two stable counting-sort passes (by `label`, then
//! `dst`) over `u32` edge positions, `O(E + N + L)`; the first writes
//! into the spent `src` column's buffer, which is freed after the
//! second, so the backward phase allocates nothing but its own output.
//! The finished graph is `3E + 2N` words plus `E / 64` samples. On the
//! 3.49 MB servebench archive snapshot (284k edges, 112k nodes) a file
//! load streamed through [`crate::ConstraintStore::open`] peaks at
//! 1.78× the snapshot's size, and one from an in-memory buffer, buffer
//! included, at 2.78×; the scatter sets both peaks. Every bucket table
//! is bounded by the input: node tables by the node budget
//! ([`MAX_ISOLATED_NODES`]), label tables by the string table the label
//! ids index.

use crate::snapshot::{GraphPayload, Sources};
use pathcons_graph::{Adjacency, Graph, Label, NodeId};

/// Isolated-node budget for [`ColumnarGraph::from_columns`]: the node
/// count may exceed the `2 × edge_count` nodes the edges themselves can
/// touch by at most this many isolated nodes. Snapshot payloads carry
/// no per-node data, so without this bound a tiny checksum-valid file
/// declaring `node_count = u32::MAX` would force multi-GiB CSR offset
/// tables before any edge data is read.
pub const MAX_ISOLATED_NODES: u32 = 1 << 20;

/// Every this many edge positions, the graph keeps the position's
/// source, so finding any position's source searches the forward
/// offsets of the few nodes after one sample only.
const SOURCE_STRIDE: usize = 64;

/// An immutable graph in columnar form: edge columns plus
/// forward/backward adjacency offset tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnarGraph {
    node_count: u32,
    root: u32,
    /// Edge columns in `(src, label, dst)` order, deduplicated.
    label: Vec<u32>,
    dst: Vec<u32>,
    /// Forward CSR offsets: edges of node `n` occupy positions
    /// `fwd[n]..fwd[n + 1]` of the columns. Length `node_count + 1`.
    fwd: Vec<u32>,
    /// `sources[k]` is the source of position `k * SOURCE_STRIDE`.
    /// Length `E / SOURCE_STRIDE`, rounded up.
    sources: Vec<u32>,
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
        mut src: Vec<u32>,
        mut label: Vec<u32>,
        mut dst: Vec<u32>,
    ) -> ColumnarGraph {
        let nodes = node_count as usize;
        // Forward order: scatter each edge's `(label, dst)` key, packed
        // into one `u64`, into its source's bucket. The `src` column is
        // then spent; its buffer is reused below.
        let mut fwd = offsets(nodes, &src);
        let mut keys = vec![0u64; src.len()];
        for ((&s, &l), &d) in src.iter().zip(&label).zip(&dst) {
            let cursor = &mut fwd[s as usize];
            keys[*cursor as usize] = u64::from(l) << 32 | u64::from(d);
            *cursor += 1;
        }
        // Each cursor now sits at its bucket's end, which is where the
        // next bucket starts: shift the table up by one to restore it.
        fwd.copy_within(..nodes, 1);
        fwd[0] = 0;
        // Sort and dedup each bucket and write it back over the columns,
        // which the scatter has finished reading. Deduplication only
        // shrinks, so the writes stay inside the columns, and entry
        // `node` of `fwd` can take the deduplicated offset once its
        // bucket start has been read.
        let mut sources = Vec::with_capacity(keys.len().div_ceil(SOURCE_STRIDE));
        let mut kept = 0;
        for node in 0..nodes {
            let bucket = &mut keys[fwd[node] as usize..fwd[node + 1] as usize];
            fwd[node] = kept as u32;
            bucket.sort_unstable();
            for (i, &key) in bucket.iter().enumerate() {
                if i > 0 && bucket[i - 1] == key {
                    continue;
                }
                if kept % SOURCE_STRIDE == 0 {
                    sources.push(node as u32);
                }
                label[kept] = (key >> 32) as u32;
                dst[kept] = key as u32;
                kept += 1;
            }
        }
        fwd[nodes] = kept as u32;
        drop(keys);
        for column in [&mut label, &mut dst] {
            column.truncate(kept);
            column.shrink_to_fit();
        }
        sources.shrink_to_fit();
        // Backward order: positions are already `src`-ordered within
        // equal `(dst, label)`, so two stable passes finish it, the
        // first into the spent `src` buffer. The last pass's bucket
        // table is the backward offset index itself.
        let by_label = &mut src[..kept];
        counting_pass(label_count as usize, &label, 0..kept as u32, by_label);
        let mut bwd_pos = vec![0; kept];
        let bwd = counting_pass(nodes, &dst, by_label.iter().copied(), &mut bwd_pos);
        drop(src);
        ColumnarGraph {
            node_count,
            root,
            label,
            dst,
            fwd,
            sources,
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
        self.label.len()
    }

    /// The root node.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Heap bytes the graph keeps resident: the capacity of every
    /// column and index.
    pub fn heap_bytes(&self) -> usize {
        let words: usize = [
            &self.label,
            &self.dst,
            &self.fwd,
            &self.sources,
            &self.bwd,
            &self.bwd_pos,
        ]
        .iter()
        .map(|v| v.capacity())
        .sum();
        words * std::mem::size_of::<u32>()
    }

    /// The raw columns `(src, label, dst)` — the snapshot wire payload —
    /// with the `src` column rebuilt from the forward index.
    pub fn columns(&self) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let src = self.edges().map(|(s, _, _)| s).collect();
        (src, self.label.clone(), self.dst.clone())
    }

    /// The graph as the snapshot payload writer reads it, borrowed.
    pub(crate) fn payload(&self) -> GraphPayload<'_> {
        GraphPayload {
            node_count: self.node_count,
            root: self.root,
            sources: Sources::Offsets(&self.fwd),
            label: &self.label,
            dst: &self.dst,
        }
    }

    /// All edges as `(src, label, dst)` triples in column order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.fwd
            .windows(2)
            .enumerate()
            .flat_map(move |(node, bounds)| {
                (bounds[0] as usize..bounds[1] as usize)
                    .map(move |p| (node as u32, self.label[p], self.dst[p]))
            })
    }

    /// The source of edge position `p`: the last node whose forward
    /// range starts at or before `p`. That is the sampled source of
    /// `p`'s block or a later node, found by a fixed number of halvings
    /// over the next [`SOURCE_STRIDE`] offsets, which compile to
    /// conditional moves rather than branches. A result at the window's
    /// end may lie past it (a run of nodes without out-edges), so it is
    /// searched for again over the rest of the offsets.
    #[inline]
    fn source(&self, p: u32) -> u32 {
        let first = self.sources[p as usize / SOURCE_STRIDE] as usize;
        if let Some(window) = self.fwd.get(first..first + SOURCE_STRIDE) {
            let window: &[u32; SOURCE_STRIDE] = window.try_into().expect("a full window");
            let (mut at, mut half) = (0, SOURCE_STRIDE / 2);
            while half > 0 {
                if window[at + half] <= p {
                    at += half;
                }
                half /= 2;
            }
            if at < SOURCE_STRIDE - 1 {
                return (first + at) as u32;
            }
        }
        (first + self.fwd[first + 1..].partition_point(|&start| start <= p)) as u32
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

impl Adjacency for ColumnarGraph {
    fn root(&self) -> NodeId {
        NodeId::from_index(self.root as usize)
    }

    /// A binary search for `label` inside the node's forward slice.
    fn successors(&self, node: NodeId, label: Label) -> impl Iterator<Item = NodeId> + '_ {
        let (lo, hi) = self.fwd_range(node.index() as u32);
        let label = label.index() as u32;
        let start = lo + self.label[lo..hi].partition_point(|&l| l < label);
        self.label[start..hi]
            .iter()
            .zip(&self.dst[start..hi])
            .take_while(move |&(&l, _)| l == label)
            .map(|(_, &d)| NodeId::from_index(d as usize))
    }

    /// A binary search for `label` inside the node's backward slice,
    /// which is ordered by `(label, src)`.
    fn predecessors(&self, node: NodeId, label: Label) -> impl Iterator<Item = NodeId> + '_ {
        let (lo, hi) = self.bwd_range(node.index() as u32);
        let label = label.index() as u32;
        let in_edges = &self.bwd_pos[lo..hi];
        let start = in_edges.partition_point(|&p| self.label[p as usize] < label);
        in_edges[start..]
            .iter()
            .take_while(move |&&p| self.label[p as usize] == label)
            .map(|&p| NodeId::from_index(self.source(p) as usize))
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

/// One stable counting-sort pass: writes the positions `order` (a
/// permutation of `0..keys.len()`) into `sorted` ordered by
/// `keys[position]`, keeping equal keys in their `order` sequence.
/// Returns the [`offsets`] table of the sorted positions.
fn counting_pass(
    buckets: usize,
    keys: &[u32],
    order: impl Iterator<Item = u32>,
    sorted: &mut [u32],
) -> Vec<u32> {
    let mut table = offsets(buckets, keys);
    for p in order {
        let cursor = &mut table[keys[p as usize] as usize];
        sorted[*cursor as usize] = p;
        *cursor += 1;
    }
    // Each cursor now sits at its bucket's end, which is where the next
    // bucket starts: shift the table up by one to restore the offsets.
    table.copy_within(..buckets, 1);
    table[0] = 0;
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{self, ContextRecord, GraphColumns, SnapshotDoc};
    use crate::ConstraintStore;
    use pathcons_constraints::{holds, holds_naive, violations, Kind, Path, PathConstraint};
    use pathcons_graph::{eval_from_root, eval_word, word_holds, LabelInterner};
    use proptest::prelude::*;

    /// A comparison-sort builder, kept as the oracle the bucket scatter
    /// and counting passes must match field for field.
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
        let sources = src.iter().step_by(SOURCE_STRIDE).copied().collect();
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
            label,
            dst,
            fwd,
            sources,
            bwd,
            bwd_pos,
        }
    }

    /// Builds `triples` through a snapshot into a store, and checks the
    /// resident graph against [`reference_build`] field for field, its
    /// edges, every position's source and its predecessors against the
    /// arena [`Graph`] of the same triples, and the store's document
    /// columns against the arena edges.
    fn assert_matches_the_oracles(node_count: u32, root: u32, triples: &[(u32, u32, u32)]) {
        let label_count = triples.iter().map(|t| t.1 + 1).max().unwrap_or(1);
        let src: Vec<u32> = triples.iter().map(|t| t.0).collect();
        let label: Vec<u32> = triples.iter().map(|t| t.1).collect();
        let dst: Vec<u32> = triples.iter().map(|t| t.2).collect();
        let doc = SnapshotDoc {
            labels: (0..label_count).map(|l| format!("l{l}")).collect(),
            contexts: vec![ContextRecord {
                name: "g".into(),
                kind: "semistructured".into(),
                sigma: Vec::new(),
                graph: Some(GraphColumns {
                    node_count,
                    root,
                    src: src.clone(),
                    label: label.clone(),
                    dst: dst.clone(),
                }),
            }],
        };
        let store = ConstraintStore::from_bytes(&snapshot::encode(&doc)).expect("the graph loads");
        let col = store
            .context("g")
            .and_then(|c| c.columnar())
            .expect("graph resident");
        assert_eq!(col, &reference_build(node_count, root, src, label, dst));

        let mut arena = Graph::new();
        arena.add_nodes(node_count as usize - 1);
        arena.set_root(NodeId::from_index(root as usize));
        for &(s, l, d) in triples {
            arena.add_edge(
                NodeId::from_index(s as usize),
                Label::from_index(l as usize),
                NodeId::from_index(d as usize),
            );
        }
        let edges: Vec<(u32, u32, u32)> = arena
            .edges()
            .map(|(s, l, d)| (s.index() as u32, l.index() as u32, d.index() as u32))
            .collect();
        assert_eq!(col.edges().collect::<Vec<_>>(), edges);
        for (p, &(s, _, _)) in edges.iter().enumerate() {
            assert_eq!(col.source(p as u32), s, "source of position {p}");
        }
        for node in arena.nodes() {
            for l in 0..label_count {
                let l = Label::from_index(l as usize);
                let mut want: Vec<NodeId> = Adjacency::predecessors(&arena, node, l).collect();
                want.sort();
                want.dedup();
                let got: Vec<NodeId> = Adjacency::predecessors(col, node, l).collect();
                assert_eq!(got, want, "predecessors of {node:?} by {l:?}");
            }
        }

        let written = store.to_doc();
        let graph = written.contexts[0].graph.as_ref().expect("graph written");
        assert_eq!((graph.node_count, graph.root), (node_count, root));
        assert_eq!(graph.src, edges.iter().map(|e| e.0).collect::<Vec<_>>());
        assert_eq!(graph.label, edges.iter().map(|e| e.1).collect::<Vec<_>>());
        assert_eq!(graph.dst, edges.iter().map(|e| e.2).collect::<Vec<_>>());
        assert_eq!(store.to_bytes(), snapshot::encode(&written));
    }

    /// Shuffles `items` with a fixed LCG, so builds see unsorted input.
    fn shuffled<T>(mut items: Vec<T>) -> Vec<T> {
        let mut state = 0x5eed_u64;
        for i in (1..items.len()).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            items.swap(i, (state >> 33) as usize % (i + 1));
        }
        items
    }

    #[test]
    fn sources_survive_long_runs_of_leafless_nodes() {
        // Root fans out to every node; only a few sparse nodes have
        // out-edges of their own. A block sampled at node 2 holds edges
        // of node 400, past the sample's search window, and the last
        // sources sit close enough to the last node that their windows
        // run off the offset table.
        let nodes = 1_000;
        let mut triples: Vec<(u32, u32, u32)> = (1..nodes).map(|n| (0, 0, n)).collect();
        for hub in [1, 2, 400, 401, 700, 990] {
            for i in 0..70 {
                triples.push((hub, 1 + i % 3, (hub * 31 + i * 7) % nodes));
            }
        }
        assert_matches_the_oracles(nodes, 0, &shuffled(triples));
        // A source exactly at the end of its sample's window: the root's
        // one edge opens the first block, and node `SOURCE_STRIDE - 1`
        // owns the rest of it.
        let last = SOURCE_STRIDE as u32 - 1;
        let mut triples = vec![(0, 0, 1)];
        triples.extend((0..10).map(|i| (last, 1, i)));
        triples.extend((0..10).map(|i| (last + 1, 1, i)));
        assert_matches_the_oracles(200, 0, &shuffled(triples));
        // Every other node a leaf: the title/name shape.
        let triples: Vec<(u32, u32, u32)> = (0..300)
            .flat_map(|i| [(0, 0, 2 * i + 1), (2 * i + 1, 1, 2 * i + 2)])
            .collect();
        assert_matches_the_oracles(601, 0, &shuffled(triples));
    }

    #[test]
    fn sources_hold_around_every_sample_boundary() {
        for stride in 1..=3 {
            let stride = stride * SOURCE_STRIDE;
            for edges in [stride - 1, stride, stride + 1] {
                // Out-degrees cycle through 1, 2 and 3, on even nodes
                // only, and the last few nodes have no out-edges.
                let mut triples = Vec::new();
                let mut node = 0;
                while triples.len() < edges {
                    for l in 0..(node / 2 % 3 + 1).min((edges - triples.len()) as u32) {
                        triples.push((node, l, (node * 13 + l) % 50));
                    }
                    node += 2;
                }
                let node_count = node.max(50) + 5;
                assert_matches_the_oracles(node_count, 0, &shuffled(triples.clone()));
                let col = ColumnarGraph::from_columns(
                    node_count,
                    0,
                    3,
                    triples.iter().map(|t| t.0).collect(),
                    triples.iter().map(|t| t.1).collect(),
                    triples.iter().map(|t| t.2).collect(),
                )
                .unwrap();
                assert_eq!(col.edge_count(), edges);
                assert_eq!(col.sources.len(), edges.div_ceil(SOURCE_STRIDE));
            }
        }
    }

    #[test]
    fn a_root_only_graph_matches_the_oracles() {
        assert_matches_the_oracles(1, 0, &[]);
        assert_matches_the_oracles(1, 0, &[(0, 0, 0)]);
        assert_matches_the_oracles(1, 0, &[(0, 1, 0), (0, 0, 0), (0, 1, 0)]);
    }

    #[test]
    fn graphs_grown_edge_by_edge_match_the_oracle() {
        let mut store = ConstraintStore::from_jsonl(r#"{"name": "g"}"#).unwrap();
        let names = ["a", "b", "c"];
        let mut triples = Vec::new();
        let mut state = 7u32;
        for i in 0..150u32 {
            state = state.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            // Sources bunch on a few nodes, and every tenth edge repeats
            // an earlier one.
            let (s, name, d) = match triples.get((state >> 8) as usize % 16) {
                Some(&(s, l, d)) if i % 10 == 9 => (s, names[l as usize], d),
                _ => (
                    (state >> 16) % 12 * 3,
                    names[(state >> 4) as usize % 3],
                    (state >> 20) % 40,
                ),
            };
            store.add_edge("g", s, name, d).unwrap();
            let l = store.labels().get(name).unwrap().index() as u32;
            triples.push((s, l, d));
            let col = store.context("g").and_then(|c| c.columnar()).unwrap();
            let node_count = col.node_count() as u32;
            let want = reference_build(
                node_count,
                0,
                triples.iter().map(|t| t.0).collect(),
                triples.iter().map(|t| t.1).collect(),
                triples.iter().map(|t| t.2).collect(),
            );
            assert_eq!(col, &want, "after {} edges", i + 1);
            assert_eq!(store.content_id(), snapshot::content_id(&store.to_doc()));
        }
        let col = store.context("g").and_then(|c| c.columnar()).unwrap();
        assert!(
            col.edge_count() > 2 * SOURCE_STRIDE,
            "grew past two sample blocks"
        );
        assert_matches_the_oracles(col.node_count() as u32, 0, &triples);
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

    /// The arena form of a columnar graph: same node numbering, same
    /// root.
    fn graph_of(col: &ColumnarGraph) -> Graph {
        let mut graph = Graph::new();
        graph.add_nodes(col.node_count() - 1);
        for (s, l, d) in col.edges() {
            graph.add_edge(
                NodeId::from_index(s as usize),
                Label::from_index(l as usize),
                NodeId::from_index(d as usize),
            );
        }
        graph.set_root(Adjacency::root(col));
        graph
    }

    #[test]
    fn adjacency_matches_the_graph() {
        let (g, labels) = sample();
        let col = ColumnarGraph::from_graph(&g);
        assert_eq!(col.node_count(), g.node_count());
        let back = graph_of(&col);
        assert_eq!(back.root(), g.root());
        assert_eq!(
            back.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
        let mut in_edges = 0;
        for node in g.nodes() {
            for label in labels.labels() {
                let succ: Vec<NodeId> = Adjacency::successors(&col, node, label).collect();
                assert_eq!(succ, g.successors(node, label).collect::<Vec<_>>());
                let preds: Vec<NodeId> = Adjacency::predecessors(&col, node, label).collect();
                let mut expect: Vec<NodeId> = Adjacency::predecessors(&g, node, label).collect();
                expect.sort();
                expect.dedup();
                assert_eq!(preds, expect);
                assert!(preds.iter().all(|&p| g.has_edge(p, label, node)));
                in_edges += preds.len();
            }
        }
        assert_eq!(in_edges, col.edge_count(), "every edge has one in-entry");
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
        assert_eq!(ColumnarGraph::from_graph(&Graph::new()), col);
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
            prop_assert_eq!(ColumnarGraph::from_graph(&graph_of(&got)), got, "columns {:?}", triples);
        }

        #[test]
        fn satisfaction_on_the_columns_matches_the_definition(
            node_count in 1usize..7,
            edges in prop::collection::vec((0usize..7, 0usize..3, 0usize..7), 0..16),
            words in (
                prop::collection::vec(0usize..3, 0..3),
                prop::collection::vec(0usize..3, 0..3),
                prop::collection::vec(0usize..3, 0..3),
            ),
            backward in prop::bool::ANY,
        ) {
            let mut g = Graph::new();
            g.add_nodes(node_count - 1);
            for &(s, l, d) in &edges {
                g.add_edge(
                    NodeId::from_index(s % node_count),
                    Label::from_index(l),
                    NodeId::from_index(d % node_count),
                );
            }
            let path = |w: &[usize]| Path::from_labels(w.iter().map(|&l| Label::from_index(l)));
            let (prefix, lhs, rhs) = (path(&words.0), path(&words.1), path(&words.2));
            let c = if backward {
                PathConstraint::backward(prefix, lhs, rhs)
            } else {
                PathConstraint::forward(prefix, lhs, rhs)
            };
            // The pairwise definition, on the arena graph.
            let mut expect = Vec::new();
            for x in eval_from_root(&g, c.prefix()).iter() {
                for y in eval_word(&g, x, c.lhs()).iter() {
                    let ok = match c.kind() {
                        Kind::Forward => word_holds(&g, x, c.rhs(), y),
                        Kind::Backward => word_holds(&g, y, c.rhs(), x),
                    };
                    if !ok {
                        expect.push((x, y));
                    }
                }
            }
            let col = ColumnarGraph::from_graph(&g);
            prop_assert_eq!(holds(&col, &c), holds_naive(&g, &c), "edges {:?}", edges);
            prop_assert_eq!(holds(&g, &c), holds_naive(&g, &c), "edges {:?}", edges);
            prop_assert_eq!(violations(&col, &c), expect.clone(), "edges {:?}", edges);
            prop_assert_eq!(violations(&g, &c), expect, "edges {:?}", edges);
        }
    }

    #[test]
    fn isolated_nodes_survive() {
        let mut g = Graph::new();
        let orphan = g.add_node();
        let col = ColumnarGraph::from_graph(&g);
        assert_eq!(col.node_count(), 2);
        assert_eq!(col.edge_count(), 0);
        let label = Label::from_index(0);
        assert_eq!(Adjacency::successors(&col, orphan, label).count(), 0);
        assert_eq!(Adjacency::predecessors(&col, orphan, label).count(), 0);
    }
}
