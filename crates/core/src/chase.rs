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
//! production engine: it is *incremental* — a dirty-constraint worklist
//! re-scans only constraints whose hypothesis alphabet intersects the
//! labels of newly added edges, and node merges splice edges locally
//! instead of rebuilding the graph ([`Graph::merge_nodes`]). Each scan
//! is the set-at-a-time [`violations`] check.
//! [`chase_implication_reference`] is the retained full-rescan oracle: every round recomputes every
//! constraint's violations against the whole graph, and every merge
//! rebuilds the graph with fresh ids. The two are compared on random
//! instances by the `prop_chase_incremental` property suite; `DESIGN.md`
//! ("Incremental chase") gives the soundness argument for the worklist.

use crate::outcome::{
    Budget, BudgetPhase, CounterModel, CounterModelProvenance, Evidence, Outcome, Refutation,
    UnknownReason,
};
use pathcons_cert::{ChaseStep, ChaseTrace};
use pathcons_constraints::{conclusion_holds, holds, violations, Kind, PathConstraint};
use pathcons_graph::{Graph, Label, NodeId};
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

/// Runs the incremental chase for `Σ ⊨ φ` over untyped data.
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
    chase_implication_with(sigma, phi, budget, None)
}

/// [`chase_implication`] with an optional pre-computed Σ-only prefix.
///
/// The chase is *prefix-first*: goal-independent rounds over the bare
/// root graph run before the ¬φ pattern is grafted (only constraints
/// with an empty hypothesis can fire there, so for most Σ the prefix is
/// empty and this is the classic pattern-first chase). The prefix may
/// spend half of `chase_rounds`; one stopped short of a fixpoint is
/// discarded, and the query runs pattern-first with the whole budget,
/// as the reference chase does. Because the
/// prefix is a deterministic function of `(Σ, chase_rounds,
/// chase_max_nodes)` alone, a [`SharedChase`] snapshot of it can be
/// resumed by every query against the same context — producing the
/// byte-identical outcome, trace, and countermodel a cold run computes,
/// because both paths execute the same rounds in the same order. An
/// incompatible snapshot (different Σ or caps) is ignored and the
/// prefix is recomputed inline; the only cold/warm divergence window is
/// a wall-clock deadline expiring mid-prefix on the cold path (deadline
/// answers are never cached or shared).
pub fn chase_implication_with(
    sigma: &[PathConstraint],
    phi: &PathConstraint,
    budget: &Budget,
    shared: Option<&SharedChase>,
) -> Outcome {
    match budget.telemetry.active() {
        Some(rec) => chase_incremental(sigma, phi, budget, rec, shared),
        None => chase_incremental(sigma, phi, budget, &NoopRecorder, shared),
    }
}

fn chase_incremental<R: Recorder + ?Sized>(
    sigma: &[PathConstraint],
    phi: &PathConstraint,
    budget: &Budget,
    rec: &R,
    shared: Option<&SharedChase>,
) -> Outcome {
    let _span = SpanGuard::enter(rec, "chase");
    let mut metrics = ChaseMetrics::default();
    let mut state = ChaseState::bare(sigma);
    match shared.filter(|sc| sc.compatible(sigma, budget)) {
        Some(sc) if sc.end == PrefixEnd::Fixpoint => {
            state = sc.state.clone();
            metrics = sc.metrics;
            if rec.enabled() {
                rec.counter("chase.prefix.reused_rounds", metrics.rounds_used);
            }
        }
        Some(_) => {}
        None => match run_prefix(sigma, budget, rec, &mut metrics, &mut state) {
            PrefixEnd::Fixpoint => {}
            PrefixEnd::Deadline => {
                let outcome = Outcome::Unknown(UnknownReason::DeadlineExceeded);
                state.flush_scan_telemetry(rec);
                emit_chase_attribution(rec, "chase", budget, &metrics, &outcome);
                return outcome;
            }
            PrefixEnd::RoundsExhausted | PrefixEnd::NodeCap => {
                state.flush_scan_telemetry(rec);
                metrics = ChaseMetrics::default();
                state = ChaseState::bare(sigma);
            }
        },
    }
    state.graft_pattern(phi);
    let outcome = chase_pattern_loop(sigma, phi, budget, rec, &mut metrics, &mut state);
    state.flush_scan_telemetry(rec);
    emit_chase_attribution(rec, "chase", budget, &metrics, &outcome);
    outcome
}

/// How a Σ-only prefix run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefixEnd {
    /// Every constraint scanned clean: the prefix graph models Σ.
    Fixpoint,
    /// The prefix's half of the round budget ran out before a fixpoint.
    RoundsExhausted,
    /// The node budget was exceeded before a fixpoint.
    NodeCap,
    /// The wall-clock deadline expired. A deadline-truncated prefix is
    /// nondeterministic and must never be shared.
    Deadline,
}

/// Runs the goal-independent Σ-only rounds of a prefix-first chase over
/// `state` (which must be [`ChaseState::bare`]), at most half of
/// `budget.chase_rounds`. Rounds are counted against
/// `metrics.rounds_used` only when they repair something, so for Σ
/// without empty-hypothesis constraints this is one clean scan that
/// consumes no budget.
fn run_prefix<R: Recorder + ?Sized>(
    sigma: &[PathConstraint],
    budget: &Budget,
    rec: &R,
    metrics: &mut ChaseMetrics,
    state: &mut ChaseState,
) -> PrefixEnd {
    let armed = budget.deadline.is_armed();
    loop {
        if armed && budget.deadline.expired() {
            return PrefixEnd::Deadline;
        }
        if metrics.rounds_used >= budget.chase_rounds as u64 / 2 {
            return PrefixEnd::RoundsExhausted;
        }
        let round = metrics.rounds_used;
        let _round_span = SpanGuard::enter(rec, "chase.round");
        let before = (state.graph.revision(), state.merged);
        let batch = state.scan_dirty(sigma, rec);
        if batch.is_empty() {
            return PrefixEnd::Fixpoint;
        }
        metrics.rounds_used += 1;
        let violations_found = batch.len();
        for (index, a, b) in batch {
            let Some(merged) = state.fire(sigma, index, a, b, metrics) else {
                continue;
            };
            if state.live_node_count() > budget.chase_max_nodes {
                // Stop the prefix *without* failing the query: the goal
                // has not even been built yet, and a pattern-true φ must
                // still answer Implied.
                return PrefixEnd::NodeCap;
            }
            if armed && budget.deadline.expired() {
                return PrefixEnd::Deadline;
            }
            if merged {
                break;
            }
        }
        state.emit_round(rec, round, violations_found, before);
    }
}

/// A snapshot of the Σ-only chase prefix, shared across every query
/// against the same context. Built once and, when it ended at a
/// fixpoint, resumed by [`chase_implication_with`]: the warm
/// continuation executes exactly the rounds a cold run would after its
/// inline prefix, so verdicts, traces, and countermodels are
/// byte-identical. Any other prefix is discarded, warm and cold alike.
///
/// Build with an *unarmed* deadline: a deadline-truncated prefix is
/// refused by [`SharedChase::compatible`] (it is not a deterministic
/// function of Σ and the caps).
#[derive(Clone)]
pub struct SharedChase {
    sigma: Vec<PathConstraint>,
    chase_rounds: usize,
    chase_max_nodes: usize,
    end: PrefixEnd,
    state: ChaseState,
    metrics: ChaseMetrics,
}

impl SharedChase {
    /// Runs the Σ-only prefix under `budget`'s caps and snapshots it.
    pub fn build(sigma: &[PathConstraint], budget: &Budget) -> SharedChase {
        let mut metrics = ChaseMetrics::default();
        let mut state = ChaseState::bare(sigma);
        let end = match budget.telemetry.active() {
            Some(rec) => run_prefix(sigma, budget, rec, &mut metrics, &mut state),
            None => run_prefix(sigma, budget, &NoopRecorder, &mut metrics, &mut state),
        };
        // Scan tallies are per-run observability; resumed clones must
        // not re-flush the build's.
        state.scans = 0;
        state.scan_violations = vec![0; sigma.len()];
        SharedChase {
            sigma: sigma.to_vec(),
            chase_rounds: budget.chase_rounds,
            chase_max_nodes: budget.chase_max_nodes,
            end,
            state,
            metrics,
        }
    }

    /// Whether this snapshot may serve a query with this Σ and budget.
    /// Reuse requires the identical Σ (in order) and identical caps —
    /// the prefix is a deterministic function of exactly those — and a
    /// deterministic ending (not [`PrefixEnd::Deadline`]).
    pub fn compatible(&self, sigma: &[PathConstraint], budget: &Budget) -> bool {
        self.end != PrefixEnd::Deadline
            && self.chase_rounds == budget.chase_rounds
            && self.chase_max_nodes == budget.chase_max_nodes
            && self.sigma == sigma
    }

    /// The Σ the prefix was built from.
    pub(crate) fn sigma(&self) -> &[PathConstraint] {
        &self.sigma
    }

    /// How the prefix run ended.
    pub fn end(&self) -> PrefixEnd {
        self.end
    }

    /// Chase rounds the prefix consumed — the per-query saving.
    pub fn rounds(&self) -> u64 {
        self.metrics.rounds_used
    }

    /// Repair steps the prefix applied.
    pub fn steps(&self) -> usize {
        self.metrics.steps()
    }
}

fn chase_pattern_loop<R: Recorder + ?Sized>(
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
        let batch = state.scan_dirty(sigma, rec);
        if batch.is_empty() {
            // Fixpoint: every constraint's worklist entry has been scanned
            // clean, so the (compacted) chase graph models Σ; the goal
            // check at the top of this round already failed and nothing
            // has changed since, so φ fails on the original witnesses.
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
                // Every constraint is marked dirty; start a fresh round
                // rather than replaying a batch enumerated before the
                // merge.
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

/// Incremental chase state: the growing graph, each constraint's
/// hypothesis alphabet, and the dirty-constraint worklist.
///
/// `Clone` so a [`SharedChase`] prefix snapshot can be resumed by many
/// queries: every component (graph, worklist, trace) is a value type
/// with no interior mutability.
#[derive(Clone)]
struct ChaseState {
    graph: Graph,
    /// The ¬φ witnesses (renamed to the survivor when merged away).
    x: NodeId,
    y: NodeId,
    /// Number of nodes merged away (arena husks), so the live node count
    /// is `graph.node_count() - merged`.
    merged: usize,
    /// Per constraint, the sorted labels of `π · α`: only inserting an
    /// edge with one of them can create a new hypothesis pair.
    hypothesis_labels: Vec<Vec<Label>>,
    /// Per constraint, whether its violations may have changed since its
    /// last scan. Rounds scan dirty constraints in Σ order, like the
    /// reference implementation.
    dirty: Vec<bool>,
    /// Labels of φ's conclusion: only edges with these labels (or a
    /// merge) can turn the goal true.
    goal_labels: Vec<Label>,
    goal_dirty: bool,
    goal_done: bool,
    /// Scan telemetry, accumulated only while a recorder is enabled and
    /// flushed as counters once per run: per-scan emission (a dyn call
    /// plus a formatted key for every constraint every round) measurably
    /// slows the chase, while plain integer adds do not.
    scans: u64,
    /// Violations reported so far, per constraint (telemetry, as `scans`).
    scan_violations: Vec<u64>,
    /// Every applied repair, in order — the replayable certificate
    /// behind an `Implied` answer. The recorded node ids are the live
    /// ids at firing time; because the incremental engine's merges
    /// splice in place (ids are stable), replaying the same repairs from
    /// the same pattern reproduces the same ids.
    trace: Vec<ChaseStep>,
    /// How many leading trace entries were Σ-only prefix steps applied
    /// before the ¬φ pattern was grafted (see [`ChaseTrace::pattern_at`]).
    pattern_at: usize,
}

impl ChaseState {
    /// State over the bare root graph, before any ¬φ pattern exists —
    /// the starting point of the Σ-only prefix. The goal fields are
    /// inert placeholders until [`ChaseState::graft_pattern`].
    fn bare(sigma: &[PathConstraint]) -> ChaseState {
        let graph = Graph::new();
        let root = graph.root();
        ChaseState {
            graph,
            x: root,
            y: root,
            merged: 0,
            hypothesis_labels: sigma
                .iter()
                .map(|c| sorted_labels(c.prefix().labels().iter().chain(c.lhs().labels())))
                .collect(),
            dirty: vec![true; sigma.len()],
            goal_labels: Vec::new(),
            goal_dirty: false,
            goal_done: false,
            scans: 0,
            scan_violations: vec![0; sigma.len()],
            trace: Vec::new(),
            pattern_at: 0,
        }
    }

    /// Grafts the canonical ¬φ pattern onto the (prefix-chased) graph
    /// and arms the goal machinery. Node-id allocation is append-only,
    /// so the pattern lands at the same ids in a cold run and in a
    /// resumed [`SharedChase`] clone.
    fn graft_pattern(&mut self, phi: &PathConstraint) {
        self.pattern_at = self.trace.len();
        let x = self.graph.add_path(self.graph.root(), phi.prefix());
        let y = self.graph.add_path(x, phi.lhs());
        self.x = x;
        self.y = y;
        self.goal_labels = sorted_labels(phi.rhs().labels().iter());
        self.goal_dirty = true;
        self.goal_done = false;
        // The pattern edges can create hypothesis pairs only for
        // constraints whose hypothesis mentions one of their labels
        // (empty-hypothesis constraints ran in the prefix, and any
        // violation it left unrepaired is still on the worklist).
        let pattern_labels = sorted_labels(phi.prefix().labels().iter().chain(phi.lhs().labels()));
        self.mark_dirty_for(&pattern_labels);
    }

    /// Hands the recorded derivation trace to the `Implied` evidence.
    fn take_trace(&mut self) -> ChaseTrace {
        ChaseTrace {
            steps: std::mem::take(&mut self.trace),
            pattern_at: self.pattern_at,
        }
    }

    fn live_node_count(&self) -> usize {
        self.graph.node_count() - self.merged
    }

    fn goal_holds(&mut self, phi: &PathConstraint) -> bool {
        if self.goal_done {
            return true;
        }
        if !self.goal_dirty {
            // No edge with a conclusion label has been added and no merge
            // has happened since the last check; the goal is monotone, so
            // it is still false.
            return false;
        }
        self.goal_dirty = false;
        let ok = conclusion_holds(&self.graph, phi, self.x, self.y);
        self.goal_done = ok;
        ok
    }

    /// Scans every dirty constraint (in Σ order) and returns the combined
    /// batch of `(constraint index, x, y)` violations. Constraints not on
    /// the worklist are guaranteed violation-free — see the soundness
    /// argument in `DESIGN.md`.
    ///
    /// Scan and violation counts accumulate when the recorder is
    /// enabled (flushed once by [`ChaseState::flush_scan_telemetry`]);
    /// for the monomorphized [`NoopRecorder`] the `enabled()` check is a
    /// compile-time `false` and the whole block disappears.
    fn scan_dirty<R: Recorder + ?Sized>(
        &mut self,
        sigma: &[PathConstraint],
        rec: &R,
    ) -> Vec<(usize, NodeId, NodeId)> {
        let mut batch = Vec::new();
        for (index, dirty) in self.dirty.iter_mut().enumerate() {
            if !std::mem::take(dirty) {
                continue;
            }
            let pairs = violations(&self.graph, &sigma[index]);
            if rec.enabled() {
                self.scans += 1;
                self.scan_violations[index] += pairs.len() as u64;
            }
            batch.extend(pairs.into_iter().map(|(a, b)| (index, a, b)));
        }
        batch
    }

    /// Emits the accumulated scan tallies as counters — called exactly
    /// once per run, on every exit path, by [`chase_incremental`].
    fn flush_scan_telemetry<R: Recorder + ?Sized>(&self, rec: &R) {
        if !rec.enabled() {
            return;
        }
        rec.counter("chase.scans", self.scans);
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
                ("requeued", self.dirty.iter().filter(|&&d| d).count() as u64),
                ("live_nodes", self.live_node_count() as u64),
                ("revision", self.graph.revision()),
            ],
            &[(schema::LABEL_ENGINE, "chase")],
        );
    }

    /// Re-enqueues every constraint whose hypothesis alphabet intersects
    /// `labels` (and the goal check, if φ's conclusion does). Constraints
    /// whose hypothesis cannot mention any of the new edge labels cannot
    /// gain a hypothesis pair, so skipping them is sound.
    fn mark_dirty_for(&mut self, labels: &[Label]) {
        for (dirty, hypothesis) in self.dirty.iter_mut().zip(&self.hypothesis_labels) {
            if !*dirty && labels.iter().any(|l| hypothesis.binary_search(l).is_ok()) {
                *dirty = true;
            }
        }
        if labels
            .iter()
            .any(|l| self.goal_labels.binary_search(l).is_ok())
        {
            self.goal_dirty = true;
        }
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
                self.mark_dirty_for(c.rhs().labels());
                false
            }
        }
    }

    /// Merges two nodes (required by an empty conclusion path `y = x`):
    /// splices `drop`'s adjacency into `keep`, renames the witnesses, and
    /// marks everything dirty.
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
        // A merge can affect any constraint (two hypothesis witnesses may
        // have been identified) and the goal; rescan everything.
        self.dirty.fill(true);
        self.goal_dirty = true;
    }
}

/// The sorted, deduplicated labels of a label sequence.
fn sorted_labels<'a>(labels: impl Iterator<Item = &'a Label>) -> Vec<Label> {
    let mut sorted: Vec<Label> = labels.copied().collect();
    sorted.sort_unstable();
    sorted.dedup();
    sorted
}

/// Runs the *reference* chase: full violation rescans every round and
/// rebuild-style merges.
///
/// Semantically this is the same semi-decider as [`chase_implication`],
/// kept as the executable specification: it is the implementation the
/// incremental engine is property-tested against (identical verdicts and
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
    /// the union-find merge of the incremental engine replaces.
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
            ("incremental", chase_implication(sigma, phi, budget)),
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
        // φ: a -> a is reflexively true on the pattern; no Σ needed.
        let phi = PathConstraint::parse("a -> a", &mut labels).unwrap();
        for (engine, outcome) in both_engines(&[], &phi, &budget()) {
            match outcome {
                Outcome::Implied(Evidence::ChaseForced { steps: 0, .. }) => {}
                other => panic!("{engine}: expected immediate Implied, got {other:?}"),
            }
        }
    }

    #[test]
    fn shared_prefix_resume_is_byte_identical_to_cold() {
        let mut labels = LabelInterner::new();
        // Σ with real prefix activity: the empty-hypothesis constraint
        // fires on the bare root before any pattern exists.
        let sigma = parse_constraints("() -> k\nk.m -> k", &mut labels).unwrap();
        let budget = budget();
        let shared = SharedChase::build(&sigma, &budget);
        assert_eq!(shared.end(), PrefixEnd::Fixpoint);
        assert!(shared.steps() > 0, "the prefix should have fired () -> k");
        let queries = ["k -> k.k", "k.m -> k", "m -> k", "a -> k.a", "k: m.m -> m"];
        for text in queries {
            let phi = PathConstraint::parse(text, &mut labels).unwrap();
            let cold = chase_implication(&sigma, &phi, &budget);
            let warm = chase_implication_with(&sigma, &phi, &budget, Some(&shared));
            // Debug output covers verdict, evidence, trace (steps, node
            // ids, pattern_at), and countermodel structure.
            assert_eq!(format!("{cold:?}"), format!("{warm:?}"), "{text}");
        }
    }

    #[test]
    fn incompatible_shared_prefix_falls_back_to_cold() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("() -> k\nk.m -> k", &mut labels).unwrap();
        let phi = PathConstraint::parse("k -> k.k", &mut labels).unwrap();
        let budget = budget();
        let tighter = Budget {
            chase_rounds: budget.chase_rounds / 2,
            ..budget.clone()
        };
        // Built under different caps: must be refused, and the inline
        // cold prefix must still give the cold answer.
        let mismatched = SharedChase::build(&sigma, &tighter);
        assert!(!mismatched.compatible(&sigma, &budget));
        let cold = chase_implication(&sigma, &phi, &budget);
        let warm = chase_implication_with(&sigma, &phi, &budget, Some(&mismatched));
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
    }

    #[test]
    fn prefix_respects_node_cap_without_failing_pattern_true_goals() {
        let mut labels = LabelInterner::new();
        // The prefix alone diverges: () -> k seeds the root, k -> k.n
        // keeps growing. A tiny node cap stops the prefix early.
        let sigma = parse_constraints("() -> k\nk -> k.n\nn -> n.n", &mut labels).unwrap();
        let tight = Budget {
            chase_rounds: 32,
            chase_max_nodes: 6,
            ..Budget::small()
        };
        let shared = SharedChase::build(&sigma, &tight);
        assert_eq!(shared.end(), PrefixEnd::NodeCap);
        // A pattern-true goal still answers Implied (goal is checked
        // before any pattern round repairs), warm and cold alike.
        let phi = PathConstraint::parse("p: x.y -> x.y", &mut labels).unwrap();
        let cold = chase_implication(&sigma, &phi, &tight);
        let warm = chase_implication_with(&sigma, &phi, &tight, Some(&shared));
        assert!(matches!(cold, Outcome::Implied(_)), "{cold:?}");
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
        // A goal needing more chase work reports the node cap.
        let phi2 = PathConstraint::parse("k -> q", &mut labels).unwrap();
        let cold2 = chase_implication(&sigma, &phi2, &tight);
        let warm2 = chase_implication_with(&sigma, &phi2, &tight, Some(&shared));
        assert_eq!(format!("{cold2:?}"), format!("{warm2:?}"));
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
