//! A chase-based semi-decision procedure for `P_c` implication over
//! semistructured (untyped) data.
//!
//! The implication and finite implication problems for `P_c` are
//! undecidable over untyped data (Theorem 4.1, strengthened to the
//! fragment `P_w(K)` by Theorem 4.3), so no terminating procedure exists.
//! The chase is the natural pair of semi-deciders in one loop:
//!
//! - start from the canonical pattern of `¬φ` — a fresh path `π` from the
//!   root to `x` and a fresh path `α` from `x` to `y`;
//! - repeatedly repair violations of Σ by adding the required conclusion
//!   path (or merging vertices, when the conclusion path is empty);
//! - if the conclusion of `φ` ever becomes true of the original witnesses,
//!   `Σ ⊨ φ` (the chase graph maps homomorphically into every model of Σ
//!   containing the pattern);
//! - if the chase reaches a fixpoint, the resulting *finite* graph is a
//!   model of `Σ ∧ ¬φ`, refuting both implication and finite implication;
//! - otherwise the budget runs out and the answer is `Unknown` — the
//!   honest third value for an undecidable problem.
//!
//! Two implementations are provided. [`chase_implication`] is the
//! production engine: it grafts the ¬φ pattern once, then each round
//! scans every constraint of Σ in order with the set-at-a-time
//! [`violations`] check and repairs what it finds. Node merges splice
//! edges in place ([`Graph::merge_nodes`]), so node ids are stable and
//! the recorded [`ChaseTrace`] replays in the trusted checker.
//! [`chase_implication_reference`] is the retained oracle: the same
//! rounds, but every merge rebuilds the graph with fresh ids. The two
//! are compared on random instances by the `prop_chase_incremental`
//! property suite.

use crate::outcome::{
    Budget, BudgetPhase, CounterModel, CounterModelProvenance, Evidence, Outcome, Refutation,
    UnknownReason,
};
use pathcons_cert::{ChaseStep, ChaseTrace};
use pathcons_constraints::{conclusion_holds, holds, violations, Kind, PathConstraint};
use pathcons_graph::{Graph, NodeId};
use pathcons_telemetry::{schema, NoopRecorder, Recorder, SpanGuard};

/// Per-run chase accounting, kept as plain integers in the engines and
/// rendered into the terminal `budget.attribution` event by
/// [`emit_chase_attribution`]. The two `steps_*` phases partition the
/// applied chase steps exactly: `steps_path + steps_merge` equals the
/// `steps` reported in [`Evidence::ChaseForced`].
#[derive(Clone, Copy, Debug, Default)]
struct ChaseMetrics {
    rounds_used: u64,
    /// Repairs that appended a conclusion path.
    steps_path: u64,
    /// Repairs that merged two nodes (empty conclusion path).
    steps_merge: u64,
}

impl ChaseMetrics {
    fn steps(&self) -> usize {
        (self.steps_path + self.steps_merge) as usize
    }
}

/// Renders an [`Outcome`] into the attribution labels.
fn outcome_labels(outcome: &Outcome) -> (&'static str, String) {
    match outcome {
        Outcome::Implied(_) => ("implied", String::new()),
        Outcome::NotImplied(_) => ("not-implied", String::new()),
        Outcome::Unknown(reason) => ("unknown", reason.to_string()),
    }
}

/// Emits the terminal `budget.attribution` event for a chase run. The
/// `phase.*` fields sum exactly to `steps_total`.
fn emit_chase_attribution<R: Recorder + ?Sized>(
    rec: &R,
    engine: &str,
    budget: &Budget,
    metrics: &ChaseMetrics,
    outcome: &Outcome,
) {
    if !rec.enabled() {
        return;
    }
    let (outcome_label, reason) = outcome_labels(outcome);
    rec.event(
        schema::EVENT_ATTRIBUTION,
        &[
            (
                schema::FIELD_STEPS_TOTAL,
                metrics.steps_path + metrics.steps_merge,
            ),
            ("phase.repair_path", metrics.steps_path),
            ("phase.repair_merge", metrics.steps_merge),
            (schema::FIELD_ROUNDS_USED, metrics.rounds_used),
            (schema::FIELD_ROUNDS_BUDGET, budget.chase_rounds as u64),
        ],
        &[
            (schema::LABEL_ENGINE, engine),
            (schema::LABEL_OUTCOME, outcome_label),
            (schema::LABEL_REASON, &reason),
        ],
    );
}

/// Runs the chase for `Σ ⊨ φ` over untyped data.
///
/// The same answer serves finite implication: an `Implied` chase answer
/// transfers to finite models (they are models), and a `NotImplied`
/// fixpoint countermodel is itself finite.
///
/// When `budget.telemetry` is active the run reports per-round
/// `chase.round` events, per-constraint violation counters, and a terminal
/// `budget.attribution` event; otherwise the whole body monomorphizes
/// over [`NoopRecorder`] and the instrumentation compiles away.
pub fn chase_implication(
    sigma: &[PathConstraint],
    phi: &PathConstraint,
    budget: &Budget,
) -> Outcome {
    match budget.telemetry.active() {
        Some(rec) => chase(sigma, phi, budget, rec),
        None => chase(sigma, phi, budget, &NoopRecorder),
    }
}

fn chase<R: Recorder + ?Sized>(
    sigma: &[PathConstraint],
    phi: &PathConstraint,
    budget: &Budget,
    rec: &R,
) -> Outcome {
    let _span = SpanGuard::enter(rec, "chase");
    let mut metrics = ChaseMetrics::default();
    let mut state = ChaseState::new(sigma, phi);
    let outcome = chase_loop(sigma, phi, budget, rec, &mut metrics, &mut state);
    state.flush_scan_telemetry(rec);
    emit_chase_attribution(rec, "chase", budget, &metrics, &outcome);
    outcome
}

fn chase_loop<R: Recorder + ?Sized>(
    sigma: &[PathConstraint],
    phi: &PathConstraint,
    budget: &Budget,
    rec: &R,
    metrics: &mut ChaseMetrics,
    state: &mut ChaseState,
) -> Outcome {
    let armed = budget.deadline.is_armed();

    while metrics.rounds_used < budget.chase_rounds as u64 {
        if state.goal_holds(phi) {
            return Outcome::Implied(Evidence::ChaseForced {
                steps: metrics.steps(),
                trace: state.take_trace(),
            });
        }
        if armed && budget.deadline.expired() {
            return Outcome::Unknown(UnknownReason::DeadlineExceeded);
        }
        let round = metrics.rounds_used;
        metrics.rounds_used += 1;
        let _round_span = SpanGuard::enter(rec, "chase.round");
        let before = (state.graph.revision(), state.merged);
        let batch = state.scan(sigma, rec);
        if batch.is_empty() {
            // Fixpoint: every constraint scanned clean, so the
            // (compacted) chase graph models Σ; the goal check at the top
            // of this round already failed and nothing has changed since,
            // so φ fails on the original witnesses.
            let graph = state.graph.compacted();
            debug_assert!(sigma.iter().all(|c| holds(&graph, c)));
            debug_assert!(!holds(&graph, phi));
            return Outcome::NotImplied(Refutation::with_countermodel(CounterModel {
                graph,
                types: None,
                provenance: CounterModelProvenance::ChaseFixpoint,
            }));
        }
        let violations_found = batch.len();
        for (index, a, b) in batch {
            let Some(merged) = state.fire(sigma, index, a, b, metrics) else {
                continue;
            };
            if state.live_node_count() > budget.chase_max_nodes {
                return Outcome::Unknown(UnknownReason::StepBudgetExhausted {
                    phase: BudgetPhase::ChaseNodes,
                });
            }
            // A single round can apply arbitrarily many repairs, so the
            // deadline is also a per-step cancellation point (one
            // `Instant::now()` per repair — noise next to the work of the
            // repair itself).
            if armed && budget.deadline.expired() {
                return Outcome::Unknown(UnknownReason::DeadlineExceeded);
            }
            if merged {
                // A merge can identify two hypothesis witnesses of any
                // constraint; start a fresh round rather than replaying a
                // batch enumerated before it.
                break;
            }
        }
        state.emit_round(rec, round, violations_found, before);
    }
    if state.goal_holds(phi) {
        return Outcome::Implied(Evidence::ChaseForced {
            steps: metrics.steps(),
            trace: state.take_trace(),
        });
    }
    Outcome::Unknown(UnknownReason::StepBudgetExhausted {
        phase: BudgetPhase::ChaseRounds,
    })
}

/// Chase state: the growing graph, the ¬φ witnesses, and the trace.
struct ChaseState {
    graph: Graph,
    /// The ¬φ witnesses (renamed to the survivor when merged away).
    x: NodeId,
    y: NodeId,
    /// Number of nodes merged away (arena husks), so the live node count
    /// is `graph.node_count() - merged`.
    merged: usize,
    /// Violations reported so far, per constraint — telemetry,
    /// accumulated only while a recorder is enabled and flushed as
    /// counters once per run: per-scan emission (a dyn call plus a
    /// formatted key for every constraint every round) measurably slows
    /// the chase, while plain integer adds do not.
    scan_violations: Vec<u64>,
    /// Every applied repair, in order — the replayable certificate
    /// behind an `Implied` answer. The recorded node ids are the live
    /// ids at firing time; because merges splice in place (ids are
    /// stable), replaying the same repairs from the same pattern
    /// reproduces the same ids.
    trace: Vec<ChaseStep>,
}

impl ChaseState {
    /// The canonical ¬φ pattern: a fresh path `π` from the root to `x`
    /// and a fresh path `α` from `x` to `y`.
    fn new(sigma: &[PathConstraint], phi: &PathConstraint) -> ChaseState {
        let mut graph = Graph::new();
        let x = graph.add_path(graph.root(), phi.prefix());
        let y = graph.add_path(x, phi.lhs());
        ChaseState {
            graph,
            x,
            y,
            merged: 0,
            scan_violations: vec![0; sigma.len()],
            trace: Vec::new(),
        }
    }

    /// Hands the recorded derivation trace to the `Implied` evidence.
    fn take_trace(&mut self) -> ChaseTrace {
        ChaseTrace {
            steps: std::mem::take(&mut self.trace),
        }
    }

    fn live_node_count(&self) -> usize {
        self.graph.node_count() - self.merged
    }

    fn goal_holds(&self, phi: &PathConstraint) -> bool {
        conclusion_holds(&self.graph, phi, self.x, self.y)
    }

    /// Scans every constraint (in Σ order) and returns the combined
    /// batch of `(constraint index, x, y)` violations.
    ///
    /// Violation counts accumulate when the recorder is enabled (flushed
    /// once by [`ChaseState::flush_scan_telemetry`]); for the
    /// monomorphized [`NoopRecorder`] the `enabled()` check is a
    /// compile-time `false` and the block disappears.
    fn scan<R: Recorder + ?Sized>(
        &mut self,
        sigma: &[PathConstraint],
        rec: &R,
    ) -> Vec<(usize, NodeId, NodeId)> {
        let mut batch = Vec::new();
        for (index, c) in sigma.iter().enumerate() {
            let pairs = violations(&self.graph, c);
            if rec.enabled() {
                self.scan_violations[index] += pairs.len() as u64;
            }
            batch.extend(pairs.into_iter().map(|(a, b)| (index, a, b)));
        }
        batch
    }

    /// Emits the accumulated violation tallies as counters — called
    /// exactly once per run, on every exit path, by [`chase`].
    fn flush_scan_telemetry<R: Recorder + ?Sized>(&self, rec: &R) {
        if !rec.enabled() {
            return;
        }
        for (index, &violations) in self.scan_violations.iter().enumerate() {
            if violations > 0 {
                rec.counter(&format!("chase.constraint.{index}.violations"), violations);
            }
        }
    }

    /// Fires violation `(a, b)` of `sigma[index]` unless an earlier
    /// repair in this round already satisfied it (a merge ends the
    /// round, so every id in a batch is still live). Returns `None` when
    /// skipped, else whether the repair merged.
    fn fire(
        &mut self,
        sigma: &[PathConstraint],
        index: usize,
        a: NodeId,
        b: NodeId,
        metrics: &mut ChaseMetrics,
    ) -> Option<bool> {
        if conclusion_holds(&self.graph, &sigma[index], a, b) {
            return None;
        }
        // Record the firing before the repair mutates the graph: the
        // witness ids plus the constraint index are all a replay needs,
        // and replay re-verifies the hypothesis, so a recorded step never
        // has to be trusted.
        self.trace.push(ChaseStep {
            constraint: index,
            a: a.index(),
            b: b.index(),
        });
        let merged = self.repair(&sigma[index], a, b);
        if merged {
            metrics.steps_merge += 1;
        } else {
            metrics.steps_path += 1;
        }
        Some(merged)
    }

    /// Emits the `chase.round` event; `before` is the graph revision and
    /// merge count at the start of the round.
    fn emit_round<R: Recorder + ?Sized>(
        &self,
        rec: &R,
        round: u64,
        violations: usize,
        before: (u64, usize),
    ) {
        if !rec.enabled() {
            return;
        }
        rec.histogram("chase.round.violations", violations as u64);
        rec.event(
            schema::EVENT_CHASE_ROUND,
            &[
                ("round", round),
                ("violations", violations as u64),
                ("edges_added", self.graph.revision() - before.0),
                ("merges", (self.merged - before.1) as u64),
                ("live_nodes", self.live_node_count() as u64),
                ("revision", self.graph.revision()),
            ],
            &[(schema::LABEL_ENGINE, "chase")],
        );
    }

    /// Repairs one violation: adds the conclusion path, or merges the
    /// nodes when the conclusion path is empty (an equality requirement).
    /// Returns whether a merge happened.
    fn repair(&mut self, c: &PathConstraint, a: NodeId, b: NodeId) -> bool {
        let (from, to) = match c.kind() {
            Kind::Forward => (a, b),
            Kind::Backward => (b, a),
        };
        match c.rhs().split_last() {
            None => {
                self.merge(from, to);
                true
            }
            Some((init, last)) => {
                let pen = self.graph.add_path(from, &init);
                self.graph.add_edge(pen, last, to);
                false
            }
        }
    }

    /// Merges two nodes (required by an empty conclusion path `y = x`):
    /// splices `drop`'s adjacency into `keep` and renames the witnesses.
    ///
    /// Cost is the degree of the dropped node — not a whole-graph
    /// rebuild. `drop` stays in the arena as an unreachable husk, so no
    /// later scan reports it.
    fn merge(&mut self, keep: NodeId, drop: NodeId) {
        if keep == drop {
            return;
        }
        self.graph.merge_nodes(keep, drop);
        self.merged += 1;
        for witness in [&mut self.x, &mut self.y] {
            if *witness == drop {
                *witness = keep;
            }
        }
    }
}

/// Runs the *reference* chase: full violation rescans every round and
/// rebuild-style merges.
///
/// Semantically this is the same semi-decider as [`chase_implication`],
/// kept as the executable specification: it is the implementation the
/// production engine is property-tested against (identical verdicts and
/// evidence kinds), and the baseline the `chase_scaling` benchmark
/// measures speedups over. Do not optimize it.
pub fn chase_implication_reference(
    sigma: &[PathConstraint],
    phi: &PathConstraint,
    budget: &Budget,
) -> Outcome {
    match budget.telemetry.active() {
        Some(rec) => chase_reference(sigma, phi, budget, rec),
        None => chase_reference(sigma, phi, budget, &NoopRecorder),
    }
}

fn chase_reference<R: Recorder + ?Sized>(
    sigma: &[PathConstraint],
    phi: &PathConstraint,
    budget: &Budget,
    rec: &R,
) -> Outcome {
    let _span = SpanGuard::enter(rec, "chase.reference");
    let mut metrics = ChaseMetrics::default();
    let outcome = chase_reference_loop(sigma, phi, budget, rec, &mut metrics);
    emit_chase_attribution(rec, "chase-reference", budget, &metrics, &outcome);
    outcome
}

fn chase_reference_loop<R: Recorder + ?Sized>(
    sigma: &[PathConstraint],
    phi: &PathConstraint,
    budget: &Budget,
    rec: &R,
    metrics: &mut ChaseMetrics,
) -> Outcome {
    let mut state = ReferenceChaseState::new(phi);
    let armed = budget.deadline.is_armed();

    for round in 0..budget.chase_rounds {
        if state.goal_holds(phi) {
            return Outcome::Implied(Evidence::ChaseForced {
                steps: metrics.steps(),
                // The reference engine's merges rebuild the graph with
                // fresh ids, so its step records would not replay; it
                // reports an empty (non-replayable) trace.
                trace: ChaseTrace::default(),
            });
        }
        if armed && budget.deadline.expired() {
            return Outcome::Unknown(UnknownReason::DeadlineExceeded);
        }
        metrics.rounds_used = round as u64 + 1;
        let _round_span = SpanGuard::enter(rec, "chase.round");
        match state.all_violations(sigma) {
            None => {
                // Fixpoint: the chase graph models Σ, and the goal check
                // at the top of this round already failed with the graph
                // unchanged since, so it is a finite model of Σ ∧ ¬φ.
                debug_assert!(sigma.iter().all(|c| holds(&state.graph, c)));
                debug_assert!(!holds(&state.graph, phi));
                return Outcome::NotImplied(Refutation::with_countermodel(CounterModel {
                    graph: state.graph,
                    types: None,
                    provenance: CounterModelProvenance::ChaseFixpoint,
                }));
            }
            Some(batch) => {
                let violations_found = batch.len();
                for (index, a, b) in batch {
                    // Re-check: an earlier repair in this round may have
                    // satisfied this instance.
                    if conclusion_holds(&state.graph, &sigma[index], a, b) {
                        continue;
                    }
                    let merged = state.repair(&sigma[index], a, b);
                    if merged {
                        metrics.steps_merge += 1;
                    } else {
                        metrics.steps_path += 1;
                    }
                    if state.graph.node_count() > budget.chase_max_nodes {
                        return Outcome::Unknown(UnknownReason::StepBudgetExhausted {
                            phase: BudgetPhase::ChaseNodes,
                        });
                    }
                    // A single round can apply arbitrarily many repairs,
                    // so the deadline is also a per-step cancellation
                    // point (one `Instant::now()` per repair — noise next
                    // to the violation scan).
                    if armed && budget.deadline.expired() {
                        return Outcome::Unknown(UnknownReason::DeadlineExceeded);
                    }
                    if merged {
                        // Node ids of the remaining batch refer to the
                        // pre-merge graph; rescan.
                        break;
                    }
                }
                if rec.enabled() {
                    rec.histogram("chase.round.violations", violations_found as u64);
                    rec.event(
                        schema::EVENT_CHASE_ROUND,
                        &[
                            ("round", round as u64),
                            ("violations", violations_found as u64),
                            ("live_nodes", state.graph.node_count() as u64),
                            ("revision", state.graph.revision()),
                        ],
                        &[(schema::LABEL_ENGINE, "chase-reference")],
                    );
                }
            }
        }
    }
    if state.goal_holds(phi) {
        return Outcome::Implied(Evidence::ChaseForced {
            steps: metrics.steps(),
            trace: ChaseTrace::default(),
        });
    }
    Outcome::Unknown(UnknownReason::StepBudgetExhausted {
        phase: BudgetPhase::ChaseRounds,
    })
}

struct ReferenceChaseState {
    graph: Graph,
    /// The ¬φ witnesses (kept up to date across merges).
    x: NodeId,
    y: NodeId,
}

impl ReferenceChaseState {
    fn new(phi: &PathConstraint) -> ReferenceChaseState {
        let mut graph = Graph::new();
        let x = graph.add_path(graph.root(), phi.prefix());
        let y = graph.add_path(x, phi.lhs());
        ReferenceChaseState { graph, x, y }
    }

    fn goal_holds(&self, phi: &PathConstraint) -> bool {
        conclusion_holds(&self.graph, phi, self.x, self.y)
    }

    /// All current violations, as `(constraint index, x, y)` triples,
    /// recomputed from scratch against the whole graph.
    fn all_violations(&self, sigma: &[PathConstraint]) -> Option<Vec<(usize, NodeId, NodeId)>> {
        let mut batch = Vec::new();
        for (index, c) in sigma.iter().enumerate() {
            for (a, b) in violations(&self.graph, c) {
                batch.push((index, a, b));
            }
        }
        if batch.is_empty() {
            None
        } else {
            Some(batch)
        }
    }

    /// Repairs one violation: adds the conclusion path, or merges the
    /// nodes when the conclusion path is empty (an equality requirement).
    /// Returns whether a merge (node renumbering) happened.
    fn repair(&mut self, c: &PathConstraint, a: NodeId, b: NodeId) -> bool {
        let (from, to) = match c.kind() {
            Kind::Forward => (a, b),
            Kind::Backward => (b, a),
        };
        match c.rhs().split_last() {
            None => {
                self.merge(from, to);
                true
            }
            Some((init, last)) => {
                let pen = self.graph.add_path(from, &init);
                self.graph.add_edge(pen, last, to);
                false
            }
        }
    }

    /// Merges two nodes (required by an empty conclusion path `y = x`),
    /// rebuilding the graph with fresh node ids — the `O(|G|)` baseline
    /// the in-place merge of the production engine replaces.
    fn merge(&mut self, keep: NodeId, drop: NodeId) {
        if keep == drop {
            return;
        }
        let old = &self.graph;
        // Build the mapping old node -> new node.
        let mut mapping: Vec<Option<NodeId>> = vec![None; old.node_count()];
        let mut graph = Graph::new();
        let target = |n: NodeId| if n == drop { keep } else { n };
        // The root must stay the root.
        let new_root_src = target(old.root());
        mapping[new_root_src.index()] = Some(graph.root());
        for n in old.nodes() {
            let t = target(n);
            if mapping[t.index()].is_none() {
                mapping[t.index()] = Some(graph.add_node());
            }
        }
        for (from, label, to) in old.edges() {
            let f = mapping[target(from).index()].expect("mapped");
            let t = mapping[target(to).index()].expect("mapped");
            graph.add_edge(f, label, t);
        }
        let remap = |n: NodeId| mapping[target(n).index()].expect("mapped");
        self.x = remap(self.x);
        self.y = remap(self.y);
        self.graph = graph;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcons_constraints::{all_hold, parse_constraints};
    use pathcons_graph::LabelInterner;

    fn budget() -> Budget {
        Budget::default()
    }

    /// Every named chase scenario is exercised through both engines.
    fn both_engines(
        sigma: &[PathConstraint],
        phi: &PathConstraint,
        budget: &Budget,
    ) -> [(&'static str, Outcome); 2] {
        [
            ("production", chase_implication(sigma, phi, budget)),
            ("reference", chase_implication_reference(sigma, phi, budget)),
        ]
    }

    #[test]
    fn word_implication_via_chase() {
        let mut labels = LabelInterner::new();
        let sigma =
            parse_constraints("book.author -> person\nperson.wrote -> book", &mut labels).unwrap();
        let phi = PathConstraint::parse("book.author.wrote -> book", &mut labels).unwrap();
        for (engine, outcome) in both_engines(&sigma, &phi, &budget()) {
            match outcome {
                Outcome::Implied(Evidence::ChaseForced { .. }) => {}
                other => panic!("{engine}: expected Implied, got {other:?}"),
            }
        }
    }

    #[test]
    fn chase_fixpoint_gives_countermodel() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("book.author -> person", &mut labels).unwrap();
        let phi = PathConstraint::parse("person -> book.author", &mut labels).unwrap();
        for (engine, outcome) in both_engines(&sigma, &phi, &budget()) {
            match outcome {
                Outcome::NotImplied(r) => {
                    let cm = r.countermodel.expect("chase countermodel");
                    assert!(all_hold(&cm.graph, &sigma), "{engine}: Σ fails");
                    assert!(!holds(&cm.graph, &phi), "{engine}: φ holds");
                }
                other => panic!("{engine}: expected NotImplied, got {other:?}"),
            }
        }
    }

    #[test]
    fn inverse_constraints_imply_local_roundtrip() {
        // The Section 1 inverse constraints: every author's wrote set
        // contains the book — chase must find the backward conclusion.
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints(
            "book: author <- wrote\nperson: wrote <- author",
            &mut labels,
        )
        .unwrap();
        // φ: ∀x(book(r,x) → ∀y(author.wrote… — express the roundtrip as a
        // forward constraint: from a book, author·wrote leads back to it…
        // as a path this needs the inverse edge the chase must add.
        let phi =
            PathConstraint::parse("book: author -> author.wrote.author", &mut labels).unwrap();
        // author(x,y) implies wrote(y,x) (inverse), and then author(x,y)
        // again: so author.wrote.author(x, y) holds via y-x-y.
        for (engine, outcome) in both_engines(&sigma, &phi, &budget()) {
            match outcome {
                Outcome::Implied(_) => {}
                other => panic!("{engine}: expected Implied, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_rhs_forces_merge() {
        let mut labels = LabelInterner::new();
        // ∀x(a(r,x) → ∀y(b(x,y) → y = x)) together with b-existence on the
        // pattern: chase must merge y into x, making b a self-loop.
        let sigma = parse_constraints("a: b -> ()", &mut labels).unwrap();
        // φ: from a-nodes, b·b leads where b leads (true after merge).
        let phi = PathConstraint::parse("a: b.b -> b", &mut labels).unwrap();
        for (engine, outcome) in both_engines(&sigma, &phi, &budget()) {
            match outcome {
                Outcome::Implied(_) => {}
                other => panic!("{engine}: expected Implied, got {other:?}"),
            }
        }
    }

    #[test]
    fn backward_constraints_chase() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("MIT.book: author <- wrote", &mut labels).unwrap();
        let phi =
            PathConstraint::parse("MIT.book: author -> author.wrote.author", &mut labels).unwrap();
        for (engine, outcome) in both_engines(&sigma, &phi, &budget()) {
            match outcome {
                Outcome::Implied(_) => {}
                other => panic!("{engine}: expected Implied, got {other:?}"),
            }
        }
    }

    #[test]
    fn diverging_chase_reports_unknown() {
        let mut labels = LabelInterner::new();
        // a → b·a applied to the pattern of a·… keeps spawning fresh
        // paths whose prefixes retrigger…: use a rule set with a growing
        // loop: x ⊑ a·x forever.
        let sigma = parse_constraints("a -> b.a\nb.a -> a.a", &mut labels).unwrap();
        let phi = PathConstraint::parse("a -> c", &mut labels).unwrap();
        let tight = Budget {
            chase_rounds: 6,
            chase_max_nodes: 64,
            ..Budget::small()
        };
        for (engine, outcome) in both_engines(&sigma, &phi, &tight) {
            match outcome {
                Outcome::Unknown(_) => {}
                // A fixpoint would also be acceptable if the rules
                // stabilize; assert only that we never get Implied.
                Outcome::NotImplied(_) => {}
                Outcome::Implied(e) => panic!("{engine}: unsound Implied: {e:?}"),
            }
        }
    }

    #[test]
    fn goal_checked_before_first_round() {
        let mut labels = LabelInterner::new();
        // φ is true of the bare pattern: with no Σ, and with a Σ whose
        // chase diverges (`() -> k` seeds the root, `k -> k.n` keeps
        // growing) under a node cap the first round would break.
        let diverging = parse_constraints("() -> k\nk -> k.n\nn -> n.n", &mut labels).unwrap();
        let cases = [
            (Vec::new(), "a -> a", budget()),
            (diverging, "p: x.y -> x.y", tiny_node_cap()),
        ];
        for (sigma, text, budget) in cases {
            let phi = PathConstraint::parse(text, &mut labels).unwrap();
            for (engine, outcome) in both_engines(&sigma, &phi, &budget) {
                match outcome {
                    Outcome::Implied(Evidence::ChaseForced { steps: 0, .. }) => {}
                    other => panic!("{engine}: expected immediate Implied, got {other:?}"),
                }
            }
        }
    }

    fn tiny_node_cap() -> Budget {
        Budget {
            chase_rounds: 32,
            chase_max_nodes: 6,
            ..Budget::small()
        }
    }

    #[test]
    fn node_cap_stops_a_diverging_chase() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("() -> k\nk -> k.n\nn -> n.n", &mut labels).unwrap();
        let phi = PathConstraint::parse("k -> q", &mut labels).unwrap();
        for (engine, outcome) in both_engines(&sigma, &phi, &tiny_node_cap()) {
            match outcome {
                Outcome::Unknown(UnknownReason::StepBudgetExhausted {
                    phase: BudgetPhase::ChaseNodes,
                }) => {}
                other => panic!("{engine}: expected the node cap, got {other:?}"),
            }
        }
    }

    #[test]
    fn prefixed_pattern_construction() {
        let mut labels = LabelInterner::new();
        // Local-extent flavored: with only the MIT-local constraint, the
        // Warner query is not implied.
        let sigma = parse_constraints("MIT: book.author -> person", &mut labels).unwrap();
        let phi = PathConstraint::parse("Warner: book.author -> person", &mut labels).unwrap();
        for (engine, outcome) in both_engines(&sigma, &phi, &budget()) {
            match outcome {
                Outcome::NotImplied(r) => {
                    let cm = r.countermodel.unwrap();
                    assert!(all_hold(&cm.graph, &sigma), "{engine}: Σ fails");
                    assert!(!holds(&cm.graph, &phi), "{engine}: φ holds");
                }
                other => panic!("{engine}: expected NotImplied, got {other:?}"),
            }
        }
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;
    use pathcons_constraints::{all_hold, parse_constraints};
    use pathcons_graph::LabelInterner;

    #[test]
    fn backward_with_empty_rhs_merges_backwards() {
        let mut labels = LabelInterner::new();
        // ∀x(a(r,x) → ∀y(b(x,y) → x = y)) written as backward with ε.
        let sigma = parse_constraints("a: b <- ()", &mut labels).unwrap();
        // After merging, b is a self-loop: b.b ≡ b from a-nodes.
        let phi = PathConstraint::parse("a: b.b -> b", &mut labels).unwrap();
        match chase_implication(&sigma, &phi, &Budget::default()) {
            Outcome::Implied(_) => {}
            other => panic!("expected Implied, got {other:?}"),
        }
    }

    #[test]
    fn merge_involving_root_keeps_root() {
        let mut labels = LabelInterner::new();
        // ∀x(ε(r,x) → ∀y(a(x,y) → y = x)): a-successors of the root are
        // the root itself.
        let sigma = parse_constraints("(): a -> ()", &mut labels).unwrap();
        let phi = PathConstraint::parse("a.a.a -> ()", &mut labels).unwrap();
        match chase_implication(&sigma, &phi, &Budget::default()) {
            Outcome::Implied(_) => {}
            other => panic!("expected Implied, got {other:?}"),
        }
    }

    #[test]
    fn multiple_prefix_witnesses_all_repaired() {
        let mut labels = LabelInterner::new();
        // Two K-targets both need the local rule applied.
        let sigma = parse_constraints("K: a -> b", &mut labels).unwrap();
        let phi = PathConstraint::parse("K.a.c -> K.b.c", &mut labels).unwrap();
        // The pattern has one K chain; the rule fires on it; then the
        // word-level goal holds.
        match chase_implication(&sigma, &phi, &Budget::default()) {
            Outcome::Implied(_) => {}
            other => panic!("expected Implied, got {other:?}"),
        }
    }

    #[test]
    fn countermodels_stay_small_on_simple_instances() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b\nc: d <- e", &mut labels).unwrap();
        let phi = PathConstraint::parse("b -> a", &mut labels).unwrap();
        match chase_implication(&sigma, &phi, &Budget::default()) {
            Outcome::NotImplied(r) => {
                let cm = r.countermodel.unwrap();
                assert!(cm.graph.node_count() <= 8, "chase over-expanded");
                assert!(all_hold(&cm.graph, &sigma));
            }
            other => panic!("expected NotImplied, got {other:?}"),
        }
    }

    #[test]
    fn empty_sigma_decides_by_pattern_alone() {
        let mut labels = LabelInterner::new();
        // With no constraints, φ holds iff its conclusion is satisfied on
        // the bare pattern — i.e. iff rhs is a prefix-shaped... in the
        // fresh chain pattern, only lhs itself reaches y.
        let implied = PathConstraint::parse("p: x.y -> x.y", &mut labels).unwrap();
        assert!(chase_implication(&[], &implied, &Budget::default()).is_implied());
        let refuted = PathConstraint::parse("p: x.y -> y.x", &mut labels).unwrap();
        match chase_implication(&[], &refuted, &Budget::default()) {
            Outcome::NotImplied(_) => {}
            other => panic!("expected NotImplied, got {other:?}"),
        }
    }
}
