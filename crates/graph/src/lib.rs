//! # pathcons-graph
//!
//! Rooted edge-labeled directed graphs — the *σ-structures* over which the
//! path constraints of Buneman, Fan & Weinstein, "Interaction between Path
//! and Type Constraints" (PODS 1999) are interpreted.
//!
//! In the paper's semistructured data model (Section 3.1), a database is a
//! finite structure `G = (|G|, r_G, E_G)` over a signature `σ = (r, E)`:
//! a set of vertices, a distinguished root, and one binary relation per
//! edge label. This crate provides:
//!
//! - [`LabelInterner`] / [`Label`] — the edge alphabet `E`;
//! - [`Graph`] / [`NodeId`] — arena-based σ-structures;
//! - [`Adjacency`] — the successor/predecessor view path evaluation runs on;
//! - [`eval_word`]/[`eval_word_back`]/[`word_holds`] — path-formula
//!   evaluation `ρ(x, y)`, forward or backward;
//! - [`parse_graph`]/[`render_graph`] — a line-oriented fixture format;
//! - [`to_dot`] — GraphViz export;
//! - [`random_graph`] — random instances (feature `gen`, on by default).
//!
//! Higher layers build on this: `pathcons-constraints` interprets `P_c`
//! constraints over any [`Adjacency`], `pathcons-types` layers the object-oriented
//! models `M` and `M⁺` on top, and `pathcons-core` hosts the implication
//! engines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dot;
mod eval;
#[cfg(feature = "gen")]
mod generate;
mod graph;
mod label;
mod text;
mod union_find;

pub use dot::{to_dot, DotOptions};
pub use eval::{
    eval_from_root, eval_word, eval_word_back, eval_word_set, word_holds, word_realized, NodeSet,
};
#[cfg(feature = "gen")]
pub use generate::{random_graph, random_node, random_word, RandomGraphConfig};
pub use graph::{Adjacency, Graph, NodeId};
pub use label::{Label, LabelInterner};
pub use text::{parse_graph, render_graph, ParseGraphError};
pub use union_find::UnionFind;
