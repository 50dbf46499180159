//! Answers, evidence and budgets.
//!
//! Several of the implication problems this crate implements are
//! *undecidable* (Theorems 4.1, 4.3, 5.2, 6.1, 6.2 of the paper), so the
//! engines answer in three values, and every definite answer carries
//! *evidence* that the caller can re-check independently: a proof object
//! for `Implied`, a concrete countermodel for `NotImplied`.

use crate::ir::Proof;
use pathcons_graph::Graph;
use pathcons_telemetry::Telemetry;
use pathcons_types::TypeNodeId;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cooperative cancellation for the semi-decision procedures: an optional
/// wall-clock deadline and/or a shared kill flag, checked inside the
/// chase and search loops.
///
/// Both parts compose: the procedure stops at whichever fires first. The
/// default value never cancels, so plain budgets behave as before.
#[derive(Clone, Debug, Default)]
pub struct Deadline {
    instant: Option<Instant>,
    flag: Option<Arc<AtomicBool>>,
}

impl Deadline {
    /// A deadline that never fires.
    pub fn none() -> Deadline {
        Deadline::default()
    }

    /// A deadline `duration` from now.
    pub fn within(duration: Duration) -> Deadline {
        Deadline {
            instant: Some(Instant::now() + duration),
            flag: None,
        }
    }

    /// A deadline at an absolute instant (useful to give every job of a
    /// batch the same cut-off).
    pub fn at(instant: Instant) -> Deadline {
        Deadline {
            instant: Some(instant),
            flag: None,
        }
    }

    /// Attaches a shared cancellation flag; setting it to `true` (with
    /// any store ordering) stops the procedure at the next check.
    pub fn with_flag(mut self, flag: Arc<AtomicBool>) -> Deadline {
        self.flag = Some(flag);
        self
    }

    /// Whether the procedure should stop now.
    pub fn expired(&self) -> bool {
        if let Some(flag) = &self.flag {
            if flag.load(Ordering::Relaxed) {
                return true;
            }
        }
        match self.instant {
            Some(instant) => Instant::now() >= instant,
            None => false,
        }
    }

    /// Whether this deadline can ever fire (lets hot loops skip the
    /// `Instant::now()` call entirely for plain budgets).
    pub fn is_armed(&self) -> bool {
        self.instant.is_some() || self.flag.is_some()
    }
}

/// Resource budget for the semi-decision procedures.
#[derive(Clone, Debug)]
pub struct Budget {
    /// Maximum chase rounds before giving up.
    pub chase_rounds: usize,
    /// Maximum chase graph size (nodes) before giving up.
    pub chase_max_nodes: usize,
    /// Number of random candidate structures for countermodel search.
    pub search_samples: usize,
    /// Maximum nodes per random candidate.
    pub search_max_nodes: usize,
    /// RNG seed for reproducible searches.
    pub seed: u64,
    /// Wall-clock deadline / cancellation, checked cooperatively.
    pub deadline: Deadline,
    /// Instrumentation sink for the budgeted procedures. Disabled by
    /// default; the engines branch on it once per call, so an inactive
    /// handle costs nothing inside the hot loops.
    pub telemetry: Telemetry,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget {
            chase_rounds: 64,
            chase_max_nodes: 4_096,
            search_samples: 200,
            search_max_nodes: 8,
            seed: 0x9E3779B97F4A7C15,
            deadline: Deadline::none(),
            telemetry: Telemetry::disabled(),
        }
    }
}

impl Budget {
    /// A small budget for unit tests.
    pub fn small() -> Budget {
        Budget {
            chase_rounds: 16,
            chase_max_nodes: 256,
            search_samples: 50,
            search_max_nodes: 5,
            seed: 7,
            deadline: Deadline::none(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: every budgeted procedure run under
    /// this budget reports spans, counters, and a terminal budget
    /// attribution event to it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Budget {
        self.telemetry = telemetry;
        self
    }

    /// Caps the wall-clock time of the budgeted procedures: once
    /// `duration` has elapsed they stop at the next cancellation point
    /// and answer [`Outcome::Unknown`] with
    /// [`UnknownReason::DeadlineExceeded`].
    pub fn with_deadline(mut self, duration: Duration) -> Budget {
        self.deadline = Deadline::within(duration);
        self
    }

    /// Installs a prebuilt [`Deadline`] (absolute instant and/or shared
    /// cancellation flag).
    pub fn with_deadline_at(mut self, deadline: Deadline) -> Budget {
        self.deadline = deadline;
        self
    }

    /// Whether the deadline or cancellation flag has fired.
    pub fn expired(&self) -> bool {
        self.deadline.expired()
    }
}

/// The result of an implication query.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// `Σ ⊨ φ` (in the queried context), with evidence.
    Implied(Evidence),
    /// `Σ ⊭ φ`, with a refutation.
    NotImplied(Refutation),
    /// The budget ran out (only possible for the undecidable contexts).
    Unknown(UnknownReason),
}

impl Outcome {
    /// Whether the outcome is `Implied`.
    pub fn is_implied(&self) -> bool {
        matches!(self, Outcome::Implied(_))
    }

    /// Whether the outcome is `NotImplied`.
    pub fn is_not_implied(&self) -> bool {
        matches!(self, Outcome::NotImplied(_))
    }

    /// Whether the outcome is `Unknown`.
    pub fn is_unknown(&self) -> bool {
        matches!(self, Outcome::Unknown(_))
    }

    /// The countermodel, if one was materialized.
    pub fn countermodel(&self) -> Option<&CounterModel> {
        match self {
            Outcome::NotImplied(r) => r.countermodel.as_ref(),
            _ => None,
        }
    }
}

/// Why a `NotImplied` answer holds.
#[derive(Clone, Debug)]
pub struct Refutation {
    /// On what authority the refutation rests.
    pub basis: RefutationBasis,
    /// A concrete countermodel `G ⊨ Σ ∧ ¬φ`, when one was materialized
    /// (always present for [`RefutationBasis::CounterModelChecked`]).
    pub countermodel: Option<CounterModel>,
}

impl Refutation {
    /// A refutation resting on a verified countermodel.
    pub fn with_countermodel(cm: CounterModel) -> Refutation {
        Refutation {
            basis: RefutationBasis::CounterModelChecked,
            countermodel: Some(cm),
        }
    }

    /// A refutation resting on a complete decision procedure.
    pub fn by_decision_procedure() -> Refutation {
        Refutation {
            basis: RefutationBasis::DecisionProcedure,
            countermodel: None,
        }
    }
}

/// The authority behind a `NotImplied` answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefutationBasis {
    /// A complete decision procedure for the queried fragment answered
    /// "no" (word constraints via `post*`; local extent constraints via
    /// Theorem 5.1; `P_c` under `M` via Theorem 4.2). A countermodel may
    /// or may not have been materialized alongside.
    DecisionProcedure,
    /// A concrete countermodel was found and re-verified with the
    /// satisfaction checker (and, for typed contexts, the `Φ(σ)` checker).
    CounterModelChecked,
}

/// Why an `Implied` answer holds.
#[derive(Clone, Debug)]
pub enum Evidence {
    /// Decided by the PTIME word-constraint procedure (`post*`
    /// saturation): `β ∈ post*(α)` under the rules read from Σ.
    WordDerivation,
    /// Decided by the Theorem 5.1 reduction: the stripped `P_w` instance
    /// was implied.
    LocalExtentReduction(Box<Evidence>),
    /// An `I_r` proof (Theorem 4.9) — independently checkable.
    IrProof(Box<Proof>),
    /// The query constraint is vacuously true over `U(σ)`: one of its
    /// hypothesis paths lies outside `Paths(σ)`.
    VacuousOverSchema,
    /// Σ is unsatisfiable over `U(σ)` (a constraint forces an equation
    /// between paths of different types or a path outside `Paths(σ)`), so
    /// everything is implied. The index points at the offending
    /// constraint.
    InconsistentTheory {
        /// Index of the unsatisfiable constraint in Σ.
        index: usize,
    },
    /// The chase forced the conclusion after this many applied steps.
    ChaseForced {
        /// Number of chase steps applied before the conclusion held.
        steps: usize,
        /// The applied steps themselves, replayable by the
        /// solver-independent `pathcons-cert` checker. Empty when the
        /// engine could not record a replayable trace (the reference
        /// chase renumbers node ids on merge, so only the incremental
        /// engine records one); `trace.steps.len() == steps` marks a
        /// complete trace.
        trace: pathcons_cert::ChaseTrace,
    },
    /// Implication over all (untyped) structures, transferred to the
    /// typed context (`U(σ)` is a subclass of all structures).
    UntypedImplication(Box<Evidence>),
}

/// A countermodel: a finite structure satisfying Σ but not φ. For typed
/// contexts the node typing is included, and the structure additionally
/// satisfies `Φ(σ)`.
#[derive(Clone, Debug)]
pub struct CounterModel {
    /// The structure.
    pub graph: Graph,
    /// Node typing (typed contexts only).
    pub types: Option<Vec<TypeNodeId>>,
    /// Which engine produced it.
    pub provenance: CounterModelProvenance,
}

/// Which engine produced a countermodel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterModelProvenance {
    /// The chase terminated without forcing the conclusion; its result is
    /// a (finite) model of `Σ ∧ ¬φ`.
    ChaseFixpoint,
    /// Random / exhaustive search found it.
    Search,
    /// Built from the congruence-closure classes of the `M` engine
    /// (the completeness construction of Theorem 4.9).
    MCompleteness,
    /// Lifted through the Theorem 5.1 reduction from a `P_w` countermodel.
    LocalExtentLift,
    /// The verified residual quotient of `post*(ε)` and `post*(α)` for a
    /// word-constraint theory (see `word_evidence::quotient_countermodel`).
    PostStarQuotient,
}

/// The specific resource cap a budgeted procedure ran into (the `phase`
/// of [`UnknownReason::StepBudgetExhausted`]). Distinguishing the cap
/// tells the caller *which knob to turn*: raising `chase_rounds` is
/// useless when the node cap fired, and vice versa.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetPhase {
    /// `Budget::chase_rounds` ran out before fixpoint or proof.
    ChaseRounds,
    /// `Budget::chase_max_nodes` was exceeded by the growing chase graph.
    ChaseNodes,
    /// `Budget::search_samples` random candidates were all checked.
    SearchSamples,
    /// `Budget::search_samples` random typed candidates were all checked.
    TypedSearchSamples,
}

impl BudgetPhase {
    /// Stable machine-readable name (used in JSON output and trace
    /// labels).
    pub fn as_str(&self) -> &'static str {
        match self {
            BudgetPhase::ChaseRounds => "chase-rounds",
            BudgetPhase::ChaseNodes => "chase-nodes",
            BudgetPhase::SearchSamples => "search-samples",
            BudgetPhase::TypedSearchSamples => "typed-search-samples",
        }
    }
}

impl fmt::Display for BudgetPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why the engines gave up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnknownReason {
    /// The chase neither terminated nor forced the goal within budget.
    ChaseBudgetExhausted,
    /// No countermodel found within the search budget.
    SearchBudgetExhausted,
    /// A specific step cap ran out; `phase` names the cap, so callers
    /// know which budget knob was binding.
    StepBudgetExhausted {
        /// The cap that fired.
        phase: BudgetPhase,
    },
    /// Both semi-deciders exhausted their budgets.
    AllBudgetsExhausted,
    /// The untyped engines answered `NotImplied`, but their countermodel
    /// need not satisfy `Φ(σ)`, so it transfers nothing to the typed
    /// context.
    UntypedCounterModelNotTyped,
    /// The wall-clock deadline (or a cancellation flag) fired before any
    /// semi-decider reached a verdict.
    DeadlineExceeded,
    /// An admission controller shed the job before it reached a solver
    /// (queue depth or deadline pressure crossed its threshold). Like
    /// [`UnknownReason::DeadlineExceeded`], this describes the serving
    /// system, not the query, and must never be cached.
    Overloaded,
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownReason::ChaseBudgetExhausted => write!(f, "chase budget exhausted"),
            UnknownReason::SearchBudgetExhausted => write!(f, "search budget exhausted"),
            UnknownReason::StepBudgetExhausted { phase } => {
                write!(f, "step budget exhausted ({phase})")
            }
            UnknownReason::AllBudgetsExhausted => write!(f, "all budgets exhausted"),
            UnknownReason::UntypedCounterModelNotTyped => {
                write!(
                    f,
                    "untyped countermodel does not satisfy the type constraint"
                )
            }
            UnknownReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            UnknownReason::Overloaded => write!(f, "shed by admission controller (overloaded)"),
        }
    }
}

#[cfg(test)]
mod deadline_tests {
    use super::*;

    #[test]
    fn unarmed_deadline_never_fires() {
        let d = Deadline::none();
        assert!(!d.is_armed());
        assert!(!d.expired());
        assert!(!Budget::default().expired());
    }

    #[test]
    fn elapsed_deadline_fires() {
        let d = Deadline::within(Duration::ZERO);
        assert!(d.is_armed());
        assert!(d.expired());
        let budget = Budget::default().with_deadline(Duration::ZERO);
        assert!(budget.expired());
    }

    #[test]
    fn future_deadline_does_not_fire_yet() {
        let budget = Budget::default().with_deadline(Duration::from_secs(3600));
        assert!(budget.deadline.is_armed());
        assert!(!budget.expired());
    }

    #[test]
    fn cancellation_flag_fires_when_set() {
        let flag = Arc::new(AtomicBool::new(false));
        let d = Deadline::none().with_flag(Arc::clone(&flag));
        assert!(d.is_armed());
        assert!(!d.expired());
        flag.store(true, Ordering::Relaxed);
        assert!(d.expired());
    }
}
