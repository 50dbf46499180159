//! # pathcons-cert
//!
//! Certificates for implication answers, and the small trusted checker
//! that validates them — the "untrusted engine computes, small trusted
//! checker verifies" split of ROADMAP item 3.
//!
//! Every verdict class has a certificate:
//!
//! - **`Implied`** carries either a chase derivation trace (the exact
//!   sequence of rule firings and merges the chase applied, replayable
//!   in `O(|trace|)` graph operations) or a prefix-rewrite derivation
//!   for the word-constraint fragment;
//! - **`NotImplied`** carries the finite countermodel, re-checked
//!   against every constraint of Σ and the violated φ;
//! - **`Unknown`** carries the budget-attribution record — an *audit*
//!   artifact, not a proof (see [`BudgetCert`]).
//!
//! The checker ([`check`]) depends only on `pathcons-graph` (graph
//! construction, node merging, `word_holds`) and `pathcons-constraints`
//! (the satisfaction checker) — none of the chase/search/solver code
//! paths it is meant to audit. A certificate is bound to a context
//! *snapshot id* (a fingerprint of the canonical query it was issued
//! for); [`check`] rejects a certificate presented under a different
//! snapshot before looking at the body.
//!
//! ## Trust argument
//!
//! *Chase replay*: each recorded step `(c, a, b)` is accepted only if
//! its hypothesis actually holds in the replayed graph — `a` is
//! reachable from the root along `c`'s prefix and `b` from `a` along
//! `c`'s left-hand side — before the (sound) repair is applied. The
//! replayed graph therefore maps homomorphically into every model of Σ
//! containing the ¬φ pattern, so if φ's conclusion holds of the pattern
//! witnesses at the end, `Σ ⊨ φ`. A forged step fails its hypothesis
//! check; a forged goal fails the final `word_holds`.
//!
//! *Word rewrite*: prefix rewriting `α ⇒ β` under the rules read off a
//! word-constraint Σ is exactly derivability in {reflexivity,
//! transitivity, right-congruence}, so a step-checked rewrite sequence
//! from `φ.lhs` to `φ.rhs` proves `Σ ⊨ φ`.
//!
//! *Countermodel*: a finite graph satisfying every constraint of Σ and
//! violating φ refutes both implication and finite implication; the
//! checker re-establishes both facts with the satisfaction checker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pathcons_constraints::{holds, Kind, PathConstraint};
use pathcons_graph::{word_holds, Graph, Label, NodeId, UnionFind};

/// One applied chase step: constraint `constraint` of Σ fired on the
/// hypothesis witness pair `(a, b)` (post-union-find node indexes at
/// the time of firing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaseStep {
    /// Index into Σ of the constraint that fired.
    pub constraint: usize,
    /// The prefix witness (reachable from the root along the
    /// constraint's prefix).
    pub a: usize,
    /// The hypothesis witness (reachable from `a` along the
    /// constraint's left-hand side).
    pub b: usize,
}

/// The full sequence of steps a chase run applied before the goal held.
/// Replaying it (see [`check`]) re-derives the `Implied` verdict in
/// `O(|trace|)` graph operations, independent of the chase engine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaseTrace {
    /// The applied steps, in application order.
    pub steps: Vec<ChaseStep>,
}

/// One prefix-rewrite step: rule `rule` of Σ applied to the current
/// word's prefix, yielding `result`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RewriteStep {
    /// Index into Σ of the applied word constraint.
    pub rule: usize,
    /// The word after the step.
    pub result: Vec<Label>,
}

/// Evidence for an `Implied` verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImpliedCert {
    /// A chase derivation trace, replayed step by step.
    ChaseReplay(ChaseTrace),
    /// A prefix-rewrite derivation `φ.lhs ⇒* φ.rhs` under the word
    /// constraints of Σ.
    WordRewrite {
        /// The starting word (must equal `φ.lhs`).
        start: Vec<Label>,
        /// The rewrite steps; the final `result` must equal `φ.rhs`.
        steps: Vec<RewriteStep>,
    },
}

/// Evidence for a `NotImplied` verdict: a finite countermodel of
/// `Σ ∧ ¬φ` (untyped contexts).
#[derive(Clone, Debug)]
pub struct CounterModelCert {
    /// The countermodel graph.
    pub graph: Graph,
}

/// The audit record for an `Unknown` verdict: which budget the
/// semi-deciders exhausted. This is **not a proof** — `Unknown` makes
/// no claim a checker could verify — but binding the record to the
/// snapshot id makes budget decisions attributable and replayable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BudgetCert {
    /// The `UnknownReason` rendering (machine-readable, as in the wire
    /// format: `deadline`, `chase-budget`, `step-budget`, …).
    pub reason: String,
    /// The budget phase that fired, when one was identified.
    pub phase: Option<String>,
}

/// A certificate body, one variant per verdict class.
#[derive(Clone, Debug)]
pub enum CertificateBody {
    /// The query is implied; replayable evidence.
    Implied(ImpliedCert),
    /// The query is not implied; a checkable countermodel.
    NotImplied(CounterModelCert),
    /// The engines gave up; the budget audit record.
    Unknown(BudgetCert),
}

/// A certificate: a body bound to the context snapshot id of the
/// canonical query it certifies.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// Fingerprint of the canonical `(context, Σ, φ)` the certificate
    /// was issued for. [`check`] rejects a snapshot mismatch outright.
    pub snapshot: u64,
    /// The verdict-class evidence.
    pub body: CertificateBody,
}

/// Everything the checker needs: the canonical query (Σ, φ) and the
/// snapshot id the caller derived from it.
#[derive(Clone, Copy, Debug)]
pub struct CheckContext<'a> {
    /// Snapshot id of the canonical query being checked against.
    pub snapshot: u64,
    /// The canonical constraint set Σ.
    pub sigma: &'a [PathConstraint],
    /// The canonical query constraint φ.
    pub phi: &'a PathConstraint,
}

/// The checker's verdict on a certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckResult {
    /// The certificate replays/validates against the context.
    Valid,
    /// The certificate is broken; the string says where.
    Invalid(String),
}

impl CheckResult {
    /// Whether the certificate was accepted.
    pub fn is_valid(&self) -> bool {
        matches!(self, CheckResult::Valid)
    }
}

fn invalid(message: impl Into<String>) -> CheckResult {
    CheckResult::Invalid(message.into())
}

/// Validates `certificate` against `context`.
///
/// Solver-independent: the implementation uses only graph construction
/// plus [`word_holds`] and the constraint satisfaction checker — no
/// chase, search, or automaton code. Cost is `O(|certificate|)` graph
/// operations (each with a `word_holds` walk bounded by the replayed
/// graph), `O(|Σ| · |countermodel|²)` satisfaction checks for
/// countermodels, and `O(1)` for budget records.
pub fn check(certificate: &Certificate, context: &CheckContext<'_>) -> CheckResult {
    if certificate.snapshot != context.snapshot {
        return invalid(format!(
            "snapshot mismatch: certificate {:#018x}, context {:#018x}",
            certificate.snapshot, context.snapshot
        ));
    }
    match &certificate.body {
        CertificateBody::Implied(ImpliedCert::ChaseReplay(trace)) => {
            replay_chase(context.sigma, context.phi, trace)
        }
        CertificateBody::Implied(ImpliedCert::WordRewrite { start, steps }) => {
            check_word_rewrite(context.sigma, context.phi, start, steps)
        }
        CertificateBody::NotImplied(cm) => check_countermodel(context.sigma, context.phi, cm),
        CertificateBody::Unknown(budget) => {
            if budget.reason.is_empty() {
                invalid("budget record without a reason")
            } else {
                CheckResult::Valid
            }
        }
    }
}

/// Replays a chase trace, verifying each step's hypothesis before
/// applying its (sound) repair, then re-checks the goal on the pattern
/// witnesses. Replay starts from the canonical ¬φ pattern, built exactly
/// as the engine builds it, so recorded node ids line up.
fn replay_chase(sigma: &[PathConstraint], phi: &PathConstraint, trace: &ChaseTrace) -> CheckResult {
    let mut graph = Graph::new();
    let x = graph.add_path(graph.root(), phi.prefix());
    let y = graph.add_path(x, phi.lhs());
    let mut uf = UnionFind::new();
    uf.ensure(graph.node_count());

    for (i, step) in trace.steps.iter().enumerate() {
        let Some(c) = sigma.get(step.constraint) else {
            return invalid(format!("step {i}: constraint index out of range"));
        };
        if step.a >= graph.node_count() || step.b >= graph.node_count() {
            return invalid(format!("step {i}: witness node does not exist"));
        }
        let a = uf.find(NodeId::from_index(step.a));
        let b = uf.find(NodeId::from_index(step.b));
        // Hypothesis: a is a prefix witness, b an lhs witness from a.
        // This is what makes replay sound — a repair applied to a true
        // hypothesis instance is a consequence of Σ on any model
        // containing the pattern (the standard chase homomorphism
        // argument); a repair with a false hypothesis proves nothing.
        let root = uf.find(graph.root());
        if !word_holds(&graph, root, c.prefix(), a) {
            return invalid(format!("step {i}: prefix hypothesis fails"));
        }
        if !word_holds(&graph, a, c.lhs(), b) {
            return invalid(format!("step {i}: lhs hypothesis fails"));
        }
        // Apply the identical repair the chase would: append the
        // conclusion path, or merge when the conclusion is empty.
        let (from, to) = match c.kind() {
            Kind::Forward => (a, b),
            Kind::Backward => (b, a),
        };
        match c.rhs().split_last() {
            None => {
                if from != to {
                    graph.merge_nodes(from, to);
                    uf.ensure(graph.node_count());
                    uf.union_into(from, to);
                }
            }
            Some((init, last)) => {
                let pen = graph.add_path(from, &init);
                graph.add_edge(pen, last, to);
            }
        }
    }

    let (x, y) = (uf.find(x), uf.find(y));
    let goal = match phi.kind() {
        Kind::Forward => word_holds(&graph, x, phi.rhs(), y),
        Kind::Backward => word_holds(&graph, y, phi.rhs(), x),
    };
    if goal {
        CheckResult::Valid
    } else {
        invalid("replayed trace does not force the goal")
    }
}

/// Verifies a prefix-rewrite derivation `φ.lhs ⇒* φ.rhs` step by step
/// against the word constraints of Σ.
fn check_word_rewrite(
    sigma: &[PathConstraint],
    phi: &PathConstraint,
    start: &[Label],
    steps: &[RewriteStep],
) -> CheckResult {
    if !phi.is_word() {
        return invalid("word-rewrite certificate for a non-word query");
    }
    if start != phi.lhs().labels() {
        return invalid("derivation does not start at φ.lhs");
    }
    let mut current: Vec<Label> = start.to_vec();
    for (i, step) in steps.iter().enumerate() {
        let Some(rule) = sigma.get(step.rule) else {
            return invalid(format!("step {i}: rule index out of range"));
        };
        if !rule.is_word() {
            return invalid(format!("step {i}: rule is not a word constraint"));
        }
        let lhs = rule.lhs().labels();
        if current.len() < lhs.len() || current[..lhs.len()] != lhs[..] {
            return invalid(format!("step {i}: rule lhs is not a prefix of the word"));
        }
        let mut next: Vec<Label> = rule.rhs().labels().to_vec();
        next.extend_from_slice(&current[lhs.len()..]);
        if next != step.result {
            return invalid(format!("step {i}: recorded result does not match"));
        }
        current = next;
    }
    if current == phi.rhs().labels() {
        CheckResult::Valid
    } else {
        invalid("derivation does not end at φ.rhs")
    }
}

/// Re-verifies a countermodel: structurally sound, satisfies every
/// constraint of Σ, violates φ.
fn check_countermodel(
    sigma: &[PathConstraint],
    phi: &PathConstraint,
    cm: &CounterModelCert,
) -> CheckResult {
    let graph = &cm.graph;
    let n = graph.node_count();
    if graph.root().index() >= n {
        return invalid("countermodel root out of range");
    }
    if graph
        .edges()
        .any(|(from, _, to)| from.index() >= n || to.index() >= n)
    {
        return invalid("countermodel has a dangling edge endpoint");
    }
    for (i, c) in sigma.iter().enumerate() {
        if !holds(graph, c) {
            return invalid(format!("countermodel violates σ[{i}]"));
        }
    }
    if holds(graph, phi) {
        return invalid("countermodel satisfies φ — refutes nothing");
    }
    CheckResult::Valid
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcons_constraints::parse_constraints;
    use pathcons_graph::LabelInterner;

    const SNAP: u64 = 0xfeed_beef_dead_cafe;

    fn ctx<'a>(sigma: &'a [PathConstraint], phi: &'a PathConstraint) -> CheckContext<'a> {
        CheckContext {
            snapshot: SNAP,
            sigma,
            phi,
        }
    }

    fn cert(body: CertificateBody) -> Certificate {
        Certificate {
            snapshot: SNAP,
            body,
        }
    }

    #[test]
    fn snapshot_mismatch_is_rejected_before_the_body() {
        let mut labels = LabelInterner::new();
        let phi = PathConstraint::parse("a -> a", &mut labels).unwrap();
        let good = cert(CertificateBody::Implied(ImpliedCert::ChaseReplay(
            ChaseTrace::default(),
        )));
        assert!(check(&good, &ctx(&[], &phi)).is_valid());
        let stale = Certificate {
            snapshot: SNAP ^ 1,
            ..good
        };
        assert!(!check(&stale, &ctx(&[], &phi)).is_valid());
    }

    #[test]
    fn empty_trace_accepts_pattern_true_goals_only() {
        let mut labels = LabelInterner::new();
        let body = CertificateBody::Implied(ImpliedCert::ChaseReplay(ChaseTrace::default()));
        let reflexive = PathConstraint::parse("p: x.y -> x.y", &mut labels).unwrap();
        assert!(check(&cert(body.clone()), &ctx(&[], &reflexive)).is_valid());
        let false_goal = PathConstraint::parse("p: x.y -> y.x", &mut labels).unwrap();
        assert!(!check(&cert(body), &ctx(&[], &false_goal)).is_valid());
    }

    #[test]
    fn chase_replay_accepts_an_honest_path_repair() {
        let mut labels = LabelInterner::new();
        // φ = a.c -> b.c has the pattern root -a-> n1 -c-> n2 (x = root,
        // y = n2). σ = a -> b fires on (root, n1), adding root -b-> n1;
        // afterwards b.c reaches y and the goal holds.
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let phi = PathConstraint::parse("a.c -> b.c", &mut labels).unwrap();
        let trace = ChaseTrace {
            steps: vec![ChaseStep {
                constraint: 0,
                a: 0,
                b: 1,
            }],
        };
        let body = CertificateBody::Implied(ImpliedCert::ChaseReplay(trace));
        assert_eq!(check(&cert(body), &ctx(&sigma, &phi)), CheckResult::Valid);
    }

    #[test]
    fn chase_replay_rejects_false_hypotheses_and_false_goals() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let phi = PathConstraint::parse("a.c -> b.c", &mut labels).unwrap();
        // Forged witness pair: node 2 is not an a-successor of the root.
        let forged = ChaseTrace {
            steps: vec![ChaseStep {
                constraint: 0,
                a: 0,
                b: 2,
            }],
        };
        let body = CertificateBody::Implied(ImpliedCert::ChaseReplay(forged));
        assert!(!check(&cert(body), &ctx(&sigma, &phi)).is_valid());
        // Honest step, wrong goal: σ never forces b.d.
        let phi2 = PathConstraint::parse("a.c -> b.d", &mut labels).unwrap();
        let honest = ChaseTrace {
            steps: vec![ChaseStep {
                constraint: 0,
                a: 0,
                b: 1,
            }],
        };
        let body2 = CertificateBody::Implied(ImpliedCert::ChaseReplay(honest));
        assert!(!check(&cert(body2), &ctx(&sigma, &phi2)).is_valid());
    }

    #[test]
    fn chase_replay_handles_merges() {
        let mut labels = LabelInterner::new();
        // σ: a: b -> () merges y into x; afterwards b is a self-loop, so
        // a: b.b -> b holds of the pattern witnesses.
        let sigma = parse_constraints("a: b -> ()", &mut labels).unwrap();
        let phi = PathConstraint::parse("a: b.b -> b", &mut labels).unwrap();
        // Pattern: root -a-> n1 -b-> n2 -b-> n3 (x = n1, y = n3).
        // Violations of σ: (n1, n2) and, after merging n2 into n1…
        // merge(from=n1? Forward ⇒ (a,b) = (n1,n2), rhs empty ⇒ merge
        // n2 into n1); then (n1, n3) merges n3 into n1.
        let trace = ChaseTrace {
            steps: vec![
                ChaseStep {
                    constraint: 0,
                    a: 1,
                    b: 2,
                },
                ChaseStep {
                    constraint: 0,
                    a: 1,
                    b: 3,
                },
            ],
        };
        let body = CertificateBody::Implied(ImpliedCert::ChaseReplay(trace));
        assert_eq!(check(&cert(body), &ctx(&sigma, &phi)), CheckResult::Valid);
    }

    #[test]
    fn word_rewrite_accepts_honest_and_rejects_mutated() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b\nb.g -> c", &mut labels).unwrap();
        let phi = PathConstraint::parse("a.g -> c", &mut labels).unwrap();
        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        let c = labels.get("c").unwrap();
        let g = labels.get("g").unwrap();
        let honest = ImpliedCert::WordRewrite {
            start: vec![a, g],
            steps: vec![
                RewriteStep {
                    rule: 0,
                    result: vec![b, g],
                },
                RewriteStep {
                    rule: 1,
                    result: vec![c],
                },
            ],
        };
        assert_eq!(
            check(
                &cert(CertificateBody::Implied(honest.clone())),
                &ctx(&sigma, &phi)
            ),
            CheckResult::Valid
        );
        // Flip one rule index: the step no longer applies.
        let ImpliedCert::WordRewrite { start, mut steps } = honest else {
            unreachable!()
        };
        steps[1].rule = 0;
        let mutated = ImpliedCert::WordRewrite { start, steps };
        assert!(!check(&cert(CertificateBody::Implied(mutated)), &ctx(&sigma, &phi)).is_valid());
    }

    #[test]
    fn countermodel_cert_checks_sigma_and_not_phi() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let phi = PathConstraint::parse("b -> a", &mut labels).unwrap();
        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        // root -a-> n1, root -b-> n1, root -b-> n2: σ holds (every
        // a-successor is a b-successor), φ fails at n2.
        let mut graph = Graph::new();
        let n1 = graph.add_node();
        let n2 = graph.add_node();
        graph.add_edge(graph.root(), a, n1);
        graph.add_edge(graph.root(), b, n1);
        graph.add_edge(graph.root(), b, n2);
        let good = CounterModelCert {
            graph: graph.clone(),
        };
        assert_eq!(
            check(&cert(CertificateBody::NotImplied(good)), &ctx(&sigma, &phi)),
            CheckResult::Valid
        );
        // Corrupt it: add the a-edge to n2 as well; now φ holds and the
        // graph refutes nothing.
        graph.add_edge(graph.root(), a, n2);
        let bad = CounterModelCert { graph };
        assert!(!check(&cert(CertificateBody::NotImplied(bad)), &ctx(&sigma, &phi)).is_valid());
    }

    #[test]
    fn budget_record_needs_a_reason() {
        let mut labels = LabelInterner::new();
        let phi = PathConstraint::parse("a -> b", &mut labels).unwrap();
        let good = CertificateBody::Unknown(BudgetCert {
            reason: "deadline".to_owned(),
            phase: None,
        });
        assert!(check(&cert(good), &ctx(&[], &phi)).is_valid());
        let empty = CertificateBody::Unknown(BudgetCert {
            reason: String::new(),
            phase: None,
        });
        assert!(!check(&cert(empty), &ctx(&[], &phi)).is_valid());
    }
}
