//! # pathcons-automata
//!
//! Finite automata over interned edge labels, plus the prefix-rewriting
//! saturation (`post*` / `pre*`) that makes word-constraint implication
//! decidable in PTIME — the algorithmic backbone of the decidable cells in
//! Table 1 of Buneman, Fan & Weinstein (PODS 1999).
//!
//! - [`Nfa`] — nondeterministic automata with ε-transitions;
//! - [`BitNfa`] — an NFA frozen as per-(state, label) target bitsets,
//!   the form `post*`/`pre*` saturation returns;
//! - [`Dfa`] — partial deterministic automata, used for the `Paths(σ)`
//!   language of a schema (the type graph);
//! - [`determinize`] — subset construction;
//! - [`PrefixRewriteSystem`] — prefix rewriting, `post*`/`pre*` saturation,
//!   and the round-based and naive bounded-BFS references used as test
//!   oracles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitnfa;
mod dfa;
mod nfa;
mod rewrite;

pub use bitnfa::BitNfa;
pub use dfa::{determinize, Dfa};
pub use nfa::{Nfa, StateId};
pub use rewrite::{PrefixRewriteSystem, RewriteRule};

mod minimize;
pub use minimize::{canonical_key, dfa_equivalent, minimize};

mod regex;
pub use regex::{Regex, RegexDisplay, RegexParseError};
