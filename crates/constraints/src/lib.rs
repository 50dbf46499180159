//! # pathcons-constraints
//!
//! The path constraint language **P_c** of Buneman, Fan & Weinstein
//! (PODS 1999), Section 2: paths, forward/backward constraints, the word
//! constraint fragment `P_w` of Abiteboul & Vianu, the `P_w(K)` / `P_w(π)`
//! fragments of Sections 4.1 and 6, bounded families for local extent
//! constraints (Definitions 2.3/2.4), a compact text syntax, first-order
//! rendering, and satisfaction checking over any `pathcons-graph`
//! [`Adjacency`](pathcons_graph::Adjacency).
//!
//! ```
//! use pathcons_constraints::{holds, PathConstraint};
//! use pathcons_graph::{parse_graph, LabelInterner};
//!
//! let mut labels = LabelInterner::new();
//! let g = parse_graph(
//!     "r -book-> b\nr -person-> p\nb -author-> p\np -wrote-> b",
//!     &mut labels,
//! ).unwrap();
//!
//! // The paper's inverse constraint between author and wrote:
//! let inv = PathConstraint::parse("book: author <- wrote", &mut labels).unwrap();
//! assert!(holds(&g, &inv));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounded;
mod constraint;
mod path;
mod regular;
mod sat;

pub use bounded::{BoundedFamily, BoundedFamilyError};
pub use constraint::{
    parse_constraints, ConstraintDisplay, ConstraintParseError, Kind, PathConstraint,
};
pub use path::{Path, PathDisplay, PathParseError};
pub use regular::{eval_regex, RegularConstraint, RegularConstraintDisplay};
pub use sat::{all_hold, conclusion_holds, holds, holds_naive, violations};
