//! The unified implication solver: Table 1 as a dispatch function.
//!
//! Given a data context (semistructured, `M`, `M⁺` or `M⁺_f`) and a
//! constraint set, [`Solver::implies`] routes each query to the strongest
//! applicable engine:
//!
//! | context \ fragment | `P_w` | local extent | general `P_c` |
//! |---|---|---|---|
//! | semistructured | `post*` (PTIME, decides) | Thm 5.1 reduction (PTIME, decides) | chase + search (semi) |
//! | `M` | congruence closure (cubic, decides) | same | same |
//! | `M⁺`, `M⁺_f` | untyped lift + typed search (semi) | same | same |
//!
//! The `M` engine answers implication and finite implication identically
//! (Theorem 4.9). Over semistructured data the decidable fragments also
//! coincide on the two problems; for the general undecidable cases the
//! chase/search pair answers both soundly (chase proofs hold in all
//! models, countermodels are finite).

use crate::amortize::{SharedContext, SharedWord};
use crate::chase::chase_implication_with;
use crate::local_extent::{local_extent_implies, LocalExtentError};
use crate::outcome::{
    Budget, CounterModel, CounterModelProvenance, Evidence, Outcome, Refutation, UnknownReason,
};
use crate::search::{search_countermodel, search_typed_countermodel};
use crate::typed_m::{m_implies, NotAnMSchema};
use crate::word::WordEngine;
use crate::word_evidence::quotient_countermodel;
use pathcons_automata::Nfa;
use pathcons_constraints::PathConstraint;
use pathcons_graph::Label;
use pathcons_telemetry::SpanGuard;
use pathcons_types::{Model, Schema, TypeGraph};
use std::fmt;
use std::sync::Arc;

/// The data context an implication question is asked in (the rows of
/// Table 1).
#[derive(Clone, Debug)]
pub enum DataContext {
    /// Semistructured data: all (finite) σ-structures.
    Semistructured,
    /// Structures satisfying `Φ(σ)` for a schema in the model `M`.
    M(SchemaContext),
    /// Structures satisfying `Φ(σ)` for a schema in `M⁺`.
    MPlus(SchemaContext),
    /// Like `M⁺`, but with finite sets (`M⁺_f`, Section 6). The engines
    /// treat it like `M⁺`: all structures materialized here are finite
    /// anyway, and by Theorem 6.2 the same undecidability applies.
    MPlusFinite(SchemaContext),
}

/// A schema together with its prebuilt type graph.
#[derive(Clone, Debug)]
pub struct SchemaContext {
    /// The schema σ.
    pub schema: Schema,
    /// Its type graph (signature + `Paths(σ)`).
    pub type_graph: TypeGraph,
}

impl SchemaContext {
    /// Bundles a schema with its type graph.
    pub fn new(schema: Schema, type_graph: TypeGraph) -> SchemaContext {
        SchemaContext { schema, type_graph }
    }
}

/// Which implication problem is asked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Problem {
    /// Implication: over all structures of the context.
    Implication,
    /// Finite implication: over the finite structures of the context.
    FiniteImplication,
}

/// Which engine produced an answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// `post*` saturation on word constraints (PTIME, complete).
    WordAutomaton,
    /// The Theorem 5.1 reduction for local extent constraints (PTIME,
    /// complete).
    LocalExtentReduction,
    /// Congruence closure over `Paths(σ)` for `M` (cubic, complete).
    MCongruenceClosure,
    /// The chase semi-decider.
    Chase,
    /// Bounded countermodel search.
    CounterModelSearch,
    /// Untyped implication lifted into a typed context.
    UntypedLift,
}

/// An answer with its provenance.
#[derive(Clone, Debug)]
pub struct Answer {
    /// The outcome.
    pub outcome: Outcome,
    /// The engine that produced it.
    pub method: Method,
}

/// Error from the solver.
#[derive(Clone, Debug)]
pub enum SolverError {
    /// An `M` context was requested with a schema that is not in `M`.
    NotAnMSchema,
    /// A malformed local-extent instance (should not escape dispatch).
    LocalExtent(LocalExtentError),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::NotAnMSchema => write!(f, "schema is not in the model M"),
            SolverError::LocalExtent(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SolverError {}

impl From<NotAnMSchema> for SolverError {
    fn from(_: NotAnMSchema) -> SolverError {
        SolverError::NotAnMSchema
    }
}

/// The implication solver.
#[derive(Clone, Debug)]
pub struct Solver {
    context: DataContext,
    budget: Budget,
    shared: Option<Arc<SharedContext>>,
}

impl Solver {
    /// Creates a solver for a context with the default budget.
    pub fn new(context: DataContext) -> Solver {
        Solver {
            context,
            budget: Budget::default(),
            shared: None,
        }
    }

    /// Overrides the budget for the semi-decidable paths.
    pub fn with_budget(mut self, budget: Budget) -> Solver {
        self.budget = budget;
        self
    }

    /// Attaches per-context shared state ([`SharedContext`]). Reuse is
    /// guarded component-by-component (exact Σ and budget-cap match);
    /// an attached context that does not match a query is ignored for
    /// it, so answers are always those of a cold solver.
    pub fn with_shared(mut self, shared: Arc<SharedContext>) -> Solver {
        self.shared = Some(shared);
        self
    }

    /// The context.
    pub fn context(&self) -> &DataContext {
        &self.context
    }

    /// Decides (or semi-decides) `Σ ⊨ φ`.
    pub fn implies(
        &self,
        sigma: &[PathConstraint],
        phi: &PathConstraint,
    ) -> Result<Answer, SolverError> {
        self.solve(sigma, phi, Problem::Implication)
    }

    /// Decides (or semi-decides) `Σ ⊨_f φ`.
    pub fn finitely_implies(
        &self,
        sigma: &[PathConstraint],
        phi: &PathConstraint,
    ) -> Result<Answer, SolverError> {
        self.solve(sigma, phi, Problem::FiniteImplication)
    }

    fn solve(
        &self,
        sigma: &[PathConstraint],
        phi: &PathConstraint,
        _problem: Problem,
    ) -> Result<Answer, SolverError> {
        // Every engine used here answers implication and finite
        // implication identically (see the module docs), so `_problem`
        // does not change routing; it is part of the API for symmetry
        // with the paper's problem statements.
        let _span = self
            .budget
            .telemetry
            .active()
            .map(|r| SpanGuard::enter(r, "solve"));
        match &self.context {
            DataContext::Semistructured => Ok(self.solve_untyped(sigma, phi)),
            DataContext::M(ctx) => {
                let outcome = m_implies(&ctx.schema, &ctx.type_graph, sigma, phi)?;
                Ok(Answer {
                    outcome,
                    method: Method::MCongruenceClosure,
                })
            }
            DataContext::MPlus(ctx) | DataContext::MPlusFinite(ctx) => {
                Ok(self.solve_mplus(ctx, sigma, phi))
            }
        }
    }

    fn solve_untyped(&self, sigma: &[PathConstraint], phi: &PathConstraint) -> Answer {
        // Fragment dispatch: pure word constraints → PTIME decision.
        if phi.is_word() && sigma.iter().all(|c| c.is_word()) {
            // Warm path: a shared context built from exactly this Σ
            // answers via the cached saturated post* automaton; the
            // cold path saturates here, once. Either way `post*(α)` is
            // the decision (`reaches(α, β)` is `post*(α) ∋ β`) and is
            // reused for the countermodel.
            let saturation = match self.shared.as_deref().and_then(|s| s.word_for(sigma)) {
                Some(sw) => Saturation::Shared(sw),
                None => Saturation::Cold(WordEngine::new(sigma).expect("all word constraints")),
            };
            let post = saturation.post_star(phi.lhs());
            let implied = post.accepts(phi.rhs());
            // The collapse predicate only matters for negative answers;
            // the cold path skips it otherwise (the warm path
            // precomputed it at build).
            if !implied && saturation.has_epsilon_collapse() {
                // The three-rule system is incomplete for ε-collapsing
                // theories (see WordEngine::has_epsilon_collapse): a
                // negative answer is unreliable here, so fall through to
                // the chase/search semi-deciders, which are sound both
                // ways.
                return self.solve_general_untyped(sigma, phi);
            }
            let outcome = if implied {
                Outcome::Implied(Evidence::WordDerivation)
            } else {
                // The decision stands on the complete procedure; the
                // countermodel is read off the residuals of post*(ε) and
                // post*(α), within a node ceiling and the deadline.
                let empty = saturation.post_star(&[]);
                let deadline = &self.budget.deadline;
                match quotient_countermodel(sigma, phi, &empty, &post, deadline) {
                    Some(graph) => {
                        Outcome::NotImplied(Refutation::with_countermodel(CounterModel {
                            graph,
                            types: None,
                            provenance: CounterModelProvenance::PostStarQuotient,
                        }))
                    }
                    None => Outcome::NotImplied(Refutation::by_decision_procedure()),
                }
            };
            return Answer {
                outcome,
                method: Method::WordAutomaton,
            };
        }
        // Local extent instances → Theorem 5.1 (countermodels attached
        // best-effort; the decision itself is the complete procedure).
        if let Ok(answer) = local_extent_implies(sigma, phi) {
            let outcome = match (&answer.outcome, answer.materialize_countermodel()) {
                (Outcome::NotImplied(_), Some(cm)) => {
                    Outcome::NotImplied(Refutation::with_countermodel(cm))
                }
                _ => answer.outcome,
            };
            return Answer {
                outcome,
                method: Method::LocalExtentReduction,
            };
        }
        self.solve_general_untyped(sigma, phi)
    }

    /// The general-`P_c` semi-decider stack: chase, then countermodel
    /// search (exhaustive while tiny, random beyond).
    fn solve_general_untyped(&self, sigma: &[PathConstraint], phi: &PathConstraint) -> Answer {
        let shared_chase = self
            .shared
            .as_deref()
            .and_then(|s| s.chase_for(sigma, &self.budget));
        let chase = chase_implication_with(sigma, phi, &self.budget, shared_chase);
        if !chase.is_unknown() {
            return Answer {
                outcome: chase,
                method: Method::Chase,
            };
        }
        let exhaustive = {
            let _span = self
                .budget
                .telemetry
                .active()
                .map(|r| SpanGuard::enter(r, "search.exhaustive"));
            crate::search::exhaustive_search_countermodel_within(
                sigma,
                phi,
                3,
                &self.budget.deadline,
            )
        };
        if let Some(cm) = exhaustive.or_else(|| search_countermodel(sigma, phi, &self.budget)) {
            return Answer {
                outcome: Outcome::NotImplied(Refutation::with_countermodel(cm)),
                method: Method::CounterModelSearch,
            };
        }
        let reason = if self.budget.expired() {
            UnknownReason::DeadlineExceeded
        } else {
            UnknownReason::AllBudgetsExhausted
        };
        Answer {
            outcome: Outcome::Unknown(reason),
            method: Method::Chase,
        }
    }

    fn solve_mplus(
        &self,
        ctx: &SchemaContext,
        sigma: &[PathConstraint],
        phi: &PathConstraint,
    ) -> Answer {
        debug_assert!(matches!(ctx.schema.model(), Model::MPlus | Model::M));
        // Sound lift: implication over all structures transfers to U(σ).
        let untyped = self.solve_untyped(sigma, phi);
        if let Outcome::Implied(evidence) = untyped.outcome {
            return Answer {
                outcome: Outcome::Implied(Evidence::UntypedImplication(Box::new(evidence))),
                method: Method::UntypedLift,
            };
        }
        // An untyped countermodel proves nothing here (it need not
        // satisfy Φ(σ)); search U_f(σ) directly.
        if let Some(cm) = search_typed_countermodel(&ctx.type_graph, sigma, phi, &self.budget) {
            return Answer {
                outcome: Outcome::NotImplied(Refutation::with_countermodel(cm)),
                method: Method::CounterModelSearch,
            };
        }
        let reason = if self.budget.expired() {
            UnknownReason::DeadlineExceeded
        } else {
            UnknownReason::UntypedCounterModelNotTyped
        };
        Answer {
            outcome: Outcome::Unknown(reason),
            method: Method::CounterModelSearch,
        }
    }
}

/// Where the word tier's `post*` automata come from: the shared
/// context's cache, or a saturation of this query's own.
enum Saturation<'a> {
    Shared(&'a SharedWord),
    Cold(WordEngine),
}

impl Saturation<'_> {
    fn post_star(&self, alpha: &[Label]) -> Arc<Nfa> {
        match self {
            Saturation::Shared(sw) => sw.consequences(alpha),
            Saturation::Cold(engine) => Arc::new(engine.system().post_star(alpha)),
        }
    }

    fn has_epsilon_collapse(&self) -> bool {
        match self {
            Saturation::Shared(sw) => sw.has_epsilon_collapse(),
            Saturation::Cold(engine) => engine.has_epsilon_collapse(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reductions::typed::TypedEncoding;
    use pathcons_constraints::parse_constraints;
    use pathcons_graph::LabelInterner;
    use pathcons_monoid::Presentation;
    use pathcons_types::{example_bibliography_schema_m, TypeGraph};

    #[test]
    fn untyped_word_dispatch() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b\nb -> c", &mut labels).unwrap();
        let phi = PathConstraint::parse("a -> c", &mut labels).unwrap();
        let solver = Solver::new(DataContext::Semistructured);
        let answer = solver.implies(&sigma, &phi).unwrap();
        assert_eq!(answer.method, Method::WordAutomaton);
        assert!(answer.outcome.is_implied());
    }

    #[test]
    fn untyped_local_extent_dispatch() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints(
            "MIT: book.author -> person\nWarner.book: author <- wrote",
            &mut labels,
        )
        .unwrap();
        let phi = PathConstraint::parse("MIT: book.ref -> book", &mut labels).unwrap();
        let solver = Solver::new(DataContext::Semistructured);
        let answer = solver.implies(&sigma, &phi).unwrap();
        assert_eq!(answer.method, Method::LocalExtentReduction);
        assert!(answer.outcome.is_not_implied());
    }

    #[test]
    fn untyped_general_pc_falls_back_to_chase() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("book: author <- wrote", &mut labels).unwrap();
        let phi =
            PathConstraint::parse("book: author -> author.wrote.author", &mut labels).unwrap();
        let solver = Solver::new(DataContext::Semistructured);
        let answer = solver.implies(&sigma, &phi).unwrap();
        assert_eq!(answer.method, Method::Chase);
        assert!(answer.outcome.is_implied());
    }

    #[test]
    fn m_context_dispatch() {
        let mut labels = LabelInterner::new();
        let schema = example_bibliography_schema_m(&mut labels);
        let tg = TypeGraph::build(&schema, &mut labels);
        let sigma = parse_constraints("book.author.wrote -> book", &mut labels).unwrap();
        let phi = PathConstraint::parse("book -> book.author.wrote", &mut labels).unwrap();
        let solver = Solver::new(DataContext::M(SchemaContext::new(schema, tg)));
        let answer = solver.implies(&sigma, &phi).unwrap();
        assert_eq!(answer.method, Method::MCongruenceClosure);
        assert!(answer.outcome.is_implied());
        // Finite implication coincides (Theorem 4.9).
        let fin = solver.finitely_implies(&sigma, &phi).unwrap();
        assert!(fin.outcome.is_implied());
    }

    #[test]
    fn m_context_rejects_mplus_schema() {
        let mut labels = LabelInterner::new();
        let schema = pathcons_types::example_bibliography_schema(&mut labels);
        let tg = TypeGraph::build(&schema, &mut labels);
        let phi = PathConstraint::parse("a -> b", &mut labels).unwrap();
        let solver = Solver::new(DataContext::M(SchemaContext::new(schema, tg)));
        assert!(matches!(
            solver.implies(&[], &phi),
            Err(SolverError::NotAnMSchema)
        ));
    }

    #[test]
    fn mplus_lifts_untyped_implication() {
        let enc = TypedEncoding::new(&{
            let mut p = Presentation::free(["g1", "g2"]);
            p.add_equation(vec![0, 1], vec![1, 0]);
            p
        });
        // A trivially implied query (reflexivity) lifts.
        let phi = enc.query(&[0], &[0]);
        let solver = Solver::new(DataContext::MPlus(SchemaContext::new(
            enc.schema.clone(),
            enc.type_graph.clone(),
        )));
        let answer = solver.implies(&enc.sigma, &phi).unwrap();
        assert_eq!(answer.method, Method::UntypedLift);
        assert!(answer.outcome.is_implied());
    }

    #[test]
    fn mplus_finite_routes_like_mplus() {
        let enc = TypedEncoding::new(&{
            let mut p = Presentation::free(["g1", "g2"]);
            p.add_equation(vec![0, 1], vec![1, 0]);
            p
        });
        let phi = enc.query(&[0], &[0]);
        let solver = Solver::new(DataContext::MPlusFinite(SchemaContext::new(
            enc.schema.clone(),
            enc.type_graph.clone(),
        )));
        let answer = solver.implies(&enc.sigma, &phi).unwrap();
        assert_eq!(answer.method, Method::UntypedLift);
        assert!(answer.outcome.is_implied());
        let fin = solver.finitely_implies(&enc.sigma, &phi).unwrap();
        assert!(fin.outcome.is_implied());
    }

    #[test]
    fn word_refutations_attach_quotient_countermodels() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let phi = PathConstraint::parse("b -> a", &mut labels).unwrap();
        let solver = Solver::new(DataContext::Semistructured);
        let answer = solver.implies(&sigma, &phi).unwrap();
        assert_eq!(answer.method, Method::WordAutomaton);
        let cm = answer.outcome.countermodel().expect("post* quotient");
        assert_eq!(cm.provenance, CounterModelProvenance::PostStarQuotient);
        assert!(pathcons_constraints::all_hold(&cm.graph, &sigma));
        assert!(!pathcons_constraints::holds(&cm.graph, &phi));
    }

    #[test]
    fn mplus_finds_typed_countermodels() {
        let enc = TypedEncoding::new(&Presentation::free(["g1", "g2"]));
        // Free monoid: g1 ≢ g2, so the query is not implied over σ₁;
        // a typed countermodel must be found.
        let phi = enc.query(&[0], &[1]);
        let solver = Solver::new(DataContext::MPlus(SchemaContext::new(
            enc.schema.clone(),
            enc.type_graph.clone(),
        )));
        let answer = solver.implies(&enc.sigma, &phi).unwrap();
        match &answer.outcome {
            Outcome::NotImplied(r) => {
                let cm = r.countermodel.as_ref().expect("typed countermodel");
                assert!(cm.types.is_some());
            }
            Outcome::Unknown(_) => {
                // Acceptable for a semi-decider, but the search should
                // normally succeed here; treat as failure to catch
                // regressions.
                panic!("search failed to find an easy typed countermodel");
            }
            Outcome::Implied(e) => panic!("unsound: {e:?}"),
        }
    }
}
