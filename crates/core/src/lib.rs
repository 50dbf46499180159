//! # pathcons-core
//!
//! The implication engines of Buneman, Fan & Weinstein, *Interaction
//! between Path and Type Constraints* (PODS 1999): every decidable cell
//! of the paper's Table 1 as a decision procedure, every undecidable cell
//! as an executable reduction plus honest semi-deciders.
//!
//! | problem \ context | semistructured | model `M` | `M⁺` / `M⁺_f` |
//! |---|---|---|---|
//! | `P_w` implication | **PTIME** ([`WordEngine`]) | cubic ([`m_implies`]) | semi ([`Solver`]) |
//! | local extent | **PTIME** ([`local_extent_implies`], Thm 5.1) | cubic | **undecidable** (Thm 5.2, [`reductions::typed`]) |
//! | full `P_c` | **undecidable** (Thm 4.1/4.3, [`reductions::untyped`]) | **cubic + axiomatizable** (Thm 4.2/4.9, [`m_implies`] + [`Proof`]) | undecidable (Thm 6.1/6.2) |
//!
//! Positive answers carry checkable evidence (an `I_r` [`Proof`] under `M`,
//! a chase trace otherwise); negative answers carry finite countermodels
//! re-verified by the satisfaction checker (and by the `Φ(σ)` validator
//! in typed contexts); and the genuinely undecidable questions may answer
//! [`Outcome::Unknown`] — that is what undecidability means operationally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod amortize;
mod chase;
mod ir;
mod local_extent;
mod outcome;
mod query_opt;
pub mod reductions;
mod search;
mod solver;
mod typed_m;
mod word;

pub use amortize::{SharedContext, SharedStats, SharedWord};
pub use chase::{
    chase_implication, chase_implication_reference, chase_implication_with, PrefixEnd, SharedChase,
};
pub use ir::{Proof, ProofError, ProofStep};
pub use local_extent::{
    figure3_structure, lift_countermodel, local_extent_implies, LocalExtentAnswer, LocalExtentError,
};
pub use outcome::{
    Budget, BudgetPhase, CounterModel, CounterModelProvenance, Deadline, Evidence, Outcome,
    Refutation, RefutationBasis, UnknownReason,
};
// Re-exported so downstream crates can attach recorders to a `Budget`
// without naming the telemetry crate themselves.
pub use pathcons_telemetry::{self as telemetry, Recorder, Telemetry};
// Re-exported so downstream crates can build and check certificates
// without naming the cert crate themselves.
pub use pathcons_cert as cert;
pub use query_opt::{optimize_path, OptimizeError, OptimizedPath};
pub use search::{
    exhaustive_search_countermodel, exhaustive_search_countermodel_within, is_countermodel,
    mentioned_labels, search_countermodel, search_typed_countermodel,
};
pub use solver::{Answer, DataContext, Method, Problem, SchemaContext, Solver, SolverError};
pub use typed_m::{m_implies, m_satisfiable, MSatisfiability, NotAnMSchema};
pub use word::{word_implication_naive, NotAWordConstraint, WordEngine};

mod word_evidence;
pub use word_evidence::{
    derivation, derivation_guided, quotient_countermodel, Derivation, DerivationStep,
};
