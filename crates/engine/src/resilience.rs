//! The resilience layer: the load-shedding policy and the cache
//! hit-validator.
//!
//! The batch engine's failure model (DESIGN.md section I) covers the
//! failures safe Rust can have: a job may panic (the executor turns it
//! into an `error` result), a semi-decider may run past its deadline,
//! and the engine may be overloaded. This module supplies two pieces:
//!
//! - [`ShedPolicy`]: the admission controller's queue-depth limit,
//!   beyond which jobs get fast `Unknown(Overloaded)` answers.
//! - [`validate_hit`]: structural re-validation of cached answers
//!   before they are served. An incoherent entry is detected here and
//!   evicted instead of returned.

use crate::cache::CachedEntry;
use pathcons_core::{Outcome, RefutationBasis, UnknownReason};
use std::collections::HashSet;

/// The admission controller's load-shedding policy.
#[derive(Clone, Debug, Default)]
pub struct ShedPolicy {
    /// Maximum jobs admitted per batch; the tail beyond this depth is
    /// answered `Unknown(Overloaded)` without ever reaching a worker.
    /// 0 disables shedding.
    pub max_queue_depth: usize,
}

impl ShedPolicy {
    /// Shedding disabled.
    pub fn unlimited() -> ShedPolicy {
        ShedPolicy { max_queue_depth: 0 }
    }

    /// Shed everything beyond `depth` queued jobs.
    pub fn queue_depth(depth: usize) -> ShedPolicy {
        ShedPolicy {
            max_queue_depth: depth,
        }
    }
}

/// Why the hit-validator rejected a cached entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HitInvalid {
    /// The stored renaming maps two labels to the same canonical label;
    /// adaptation through it would conflate labels.
    RenamingNotInjective,
    /// The cached outcome is one the engine never caches
    /// (deadline/overload `Unknown`s) — a torn or forged write.
    UncacheableOutcome,
    /// A `NotImplied` resting on a checked countermodel carries none.
    MissingCountermodel,
    /// A countermodel graph is structurally unsound (dangling edge
    /// endpoint or root).
    MalformedCountermodel,
}

impl std::fmt::Display for HitInvalid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HitInvalid::RenamingNotInjective => write!(f, "stored renaming is not injective"),
            HitInvalid::UncacheableOutcome => write!(f, "cached outcome is never-cacheable"),
            HitInvalid::MissingCountermodel => {
                write!(f, "countermodel-checked refutation without a countermodel")
            }
            HitInvalid::MalformedCountermodel => write!(f, "countermodel graph is unsound"),
        }
    }
}

/// Structurally re-validates a cached entry before it is served.
///
/// This is the cheap, deterministic checker of the "untrusted engine
/// computes, small trusted checker verifies" architecture (ROADMAP item
/// 3) applied to the cache: every invariant the insert path establishes
/// is re-checked at serve time, so a torn write — however it happened —
/// is detected and evicted instead of propagated. Cost is O(renaming +
/// countermodel edges); no solving, no hashing of the whole answer.
pub fn validate_hit(entry: &CachedEntry) -> Result<(), HitInvalid> {
    // 1. The renaming must be injective (adaptation inverts it).
    let mut images: HashSet<_> = HashSet::with_capacity(entry.renaming.len());
    for target in entry.renaming.values() {
        if !images.insert(*target) {
            return Err(HitInvalid::RenamingNotInjective);
        }
    }

    // 2. Outcome invariants.
    match &entry.answer.outcome {
        Outcome::Unknown(UnknownReason::DeadlineExceeded | UnknownReason::Overloaded) => {
            return Err(HitInvalid::UncacheableOutcome);
        }
        Outcome::NotImplied(refutation) => {
            if refutation.basis == RefutationBasis::CounterModelChecked
                && refutation.countermodel.is_none()
            {
                return Err(HitInvalid::MissingCountermodel);
            }
            if let Some(cm) = &refutation.countermodel {
                let n = cm.graph.node_count();
                if cm.graph.root().index() >= n
                    || cm
                        .graph
                        .edges()
                        .any(|(from, _, to)| from.index() >= n || to.index() >= n)
                {
                    return Err(HitInvalid::MalformedCountermodel);
                }
            }
        }
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::Renaming;
    use pathcons_core::{
        Answer, CounterModel, CounterModelProvenance, Evidence, Method, Outcome, Refutation,
    };
    use pathcons_graph::{Graph, Label};

    fn implied_entry(renaming: Renaming) -> CachedEntry {
        CachedEntry {
            answer: Answer {
                outcome: Outcome::Implied(Evidence::WordDerivation(None)),
                method: Method::WordAutomaton,
            },
            renaming,
            certificate: None,
        }
    }

    #[test]
    fn validator_accepts_sound_entries() {
        let mut renaming = Renaming::new();
        renaming.insert(Label::from_index(3), Label::from_index(0));
        renaming.insert(Label::from_index(5), Label::from_index(1));
        assert_eq!(validate_hit(&implied_entry(renaming)), Ok(()));
    }

    #[test]
    fn validator_rejects_non_injective_renamings() {
        let mut renaming = Renaming::new();
        renaming.insert(Label::from_index(3), Label::from_index(0));
        renaming.insert(Label::from_index(5), Label::from_index(0));
        assert_eq!(
            validate_hit(&implied_entry(renaming)),
            Err(HitInvalid::RenamingNotInjective)
        );
    }

    #[test]
    fn validator_rejects_uncacheable_and_incoherent_outcomes() {
        let torn = CachedEntry {
            answer: Answer {
                outcome: Outcome::Unknown(UnknownReason::DeadlineExceeded),
                method: Method::Chase,
            },
            renaming: Renaming::new(),
            certificate: None,
        };
        assert_eq!(validate_hit(&torn), Err(HitInvalid::UncacheableOutcome));

        let missing = CachedEntry {
            answer: Answer {
                outcome: Outcome::NotImplied(Refutation {
                    basis: RefutationBasis::CounterModelChecked,
                    countermodel: None,
                }),
                method: Method::CounterModelSearch,
            },
            renaming: Renaming::new(),
            certificate: None,
        };
        assert_eq!(validate_hit(&missing), Err(HitInvalid::MissingCountermodel));

        let sound = CachedEntry {
            answer: Answer {
                outcome: Outcome::NotImplied(Refutation::with_countermodel(CounterModel {
                    graph: Graph::new(),
                    types: None,
                    provenance: CounterModelProvenance::Search,
                })),
                method: Method::CounterModelSearch,
            },
            renaming: Renaming::new(),
            certificate: None,
        };
        assert_eq!(validate_hit(&sound), Ok(()));
    }
}
