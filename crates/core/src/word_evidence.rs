//! Evidence extraction for the word-constraint engine: concrete rewrite
//! derivations for positive answers and residual-quotient countermodels
//! for negative ones.
//!
//! The `post*` decision procedure is complete but opaque; this module
//! turns its verdicts into artifacts a skeptic can replay:
//!
//! - [`derivation_guided`] — a step-by-step prefix-rewrite sequence
//!   from `α` to `β`, checkable by [`Derivation::check`] (found by a
//!   backward BFS pruned to `post*(α)`, the automaton the decision
//!   already saturated; shortest derivations can be long, so extraction
//!   is fuel-bounded and optional — the decision itself never is);
//! - [`quotient_countermodel`] — a finite model of `Σ ∧ ¬(α → β)` read
//!   off the automata the decision already built: one node per distinct
//!   residual of `post*(ε)` and of `post*(α)`, so a word reaches a node
//!   exactly when the node's residual language contains it (the
//!   word-constraint analogue of the paper's Lemma 4.5 quotient). The
//!   candidate is *verified* against `Σ ∧ ¬φ` before being returned, so
//!   a `Some` answer is self-certifying; `None` means the quotient hit
//!   its node ceiling or the deadline, or Σ collapses a word to `ε`.

use crate::outcome::Deadline;
use pathcons_automata::{BitNfa, PrefixRewriteSystem};
use pathcons_constraints::{all_hold, holds, Path, PathConstraint};
use pathcons_graph::{Graph, Label};
use std::collections::{HashMap, HashSet, VecDeque};

/// One prefix-rewrite step: rule `index` applied to the current word's
/// prefix, yielding `result`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DerivationStep {
    /// Index of the applied word constraint in Σ.
    pub rule: usize,
    /// The word after the step.
    pub result: Vec<Label>,
}

/// A prefix-rewrite derivation witnessing `Σ ⊢ α → β` under
/// {reflexivity, transitivity, right-congruence}.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Derivation {
    /// The starting word `α`.
    pub start: Vec<Label>,
    /// The steps; the final step's `result` is `β` (empty for `α = β`).
    pub steps: Vec<DerivationStep>,
}

impl Derivation {
    /// The final word of the derivation.
    pub fn end(&self) -> &[Label] {
        self.steps
            .last()
            .map(|s| s.result.as_slice())
            .unwrap_or(&self.start)
    }

    /// Replays the derivation against Σ, verifying every step.
    pub fn check(&self, sigma: &[PathConstraint]) -> Result<(), String> {
        let mut current: Vec<Label> = self.start.clone();
        for (i, step) in self.steps.iter().enumerate() {
            let rule = sigma
                .get(step.rule)
                .ok_or_else(|| format!("step {i}: rule index out of range"))?;
            if !rule.is_word() {
                return Err(format!("step {i}: rule is not a word constraint"));
            }
            let lhs = rule.lhs().labels();
            if current.len() < lhs.len() || current[..lhs.len()] != lhs[..] {
                return Err(format!("step {i}: lhs is not a prefix of the current word"));
            }
            let mut next: Vec<Label> = rule.rhs().to_vec();
            next.extend_from_slice(&current[lhs.len()..]);
            if next != step.result {
                return Err(format!("step {i}: recorded result does not match"));
            }
            current = next;
        }
        Ok(())
    }
}

/// Extracts a derivation of `Σ ⊢ α → β` by *backward* BFS from `β`,
/// pruned to words reachable from `α` — `member` must answer membership
/// in `post*(α)`, which is exactly the language the decision procedure
/// already saturated to answer the query. A shared context hands in
/// (the determinized form of) its memoized automaton, so extraction
/// costs membership queries, not a further saturation.
///
/// Every word on a forward derivation `α ⇒* β` lies in `post*(α)`, so
/// the pruning keeps the search complete while confining it to the cone
/// between `α` and `β`. The result is a function of `(Σ, α, β)` alone
/// (candidates scan in Σ index order, FIFO queue) for any `member`
/// deciding the same language: callers that share the saturation and
/// callers that rebuild it extract the identical derivation.
pub fn derivation_guided(
    sigma: &[PathConstraint],
    alpha: &Path,
    beta: &Path,
    fuel: usize,
    mut member: impl FnMut(&[Label]) -> bool,
) -> Option<Derivation> {
    let mut system = PrefixRewriteSystem::new();
    for c in sigma {
        if !c.is_word() {
            return None;
        }
        system.add_rule(c.lhs().to_vec(), c.rhs().to_vec());
    }
    let start: Vec<Label> = alpha.to_vec();
    let target: Vec<Label> = beta.to_vec();
    if start == target {
        return Some(Derivation {
            start,
            steps: Vec::new(),
        });
    }
    if !member(&target) {
        return None;
    }
    // A backward step requires the rule's rhs to be a prefix of the
    // current word, so bucketing rules by the rhs' first label cuts the
    // per-word scan to the bucket (plus the everywhere-applicable
    // empty-rhs rules). Candidates stay in Σ index order, so the
    // derivation found does not depend on the bucketing.
    let mut by_first: HashMap<Label, Vec<usize>> = HashMap::new();
    let mut empty_rhs: Vec<usize> = Vec::new();
    for (i, rule) in system.rules().iter().enumerate() {
        match rule.rhs.first() {
            Some(l) => by_first.entry(*l).or_default().push(i),
            None => empty_rhs.push(i),
        }
    }

    // Backward step: a word `r·t` un-rewrites to `l·t` for each rule
    // `l → r`. `next_hop` records the forward edge each discovery
    // witnesses, so reaching `α` leaves a ready-made forward chain.
    let mut next_hop: HashMap<Vec<Label>, (Vec<Label>, usize)> = HashMap::new();
    let mut queue: VecDeque<Vec<Label>> = VecDeque::new();
    let mut seen: HashSet<Vec<Label>> = HashSet::new();
    seen.insert(target.clone());
    queue.push_back(target.clone());
    let mut found = false;
    let mut candidates: Vec<usize> = Vec::new();
    'bfs: while let Some(word) = queue.pop_front() {
        if seen.len() > fuel {
            return None;
        }
        candidates.clear();
        if let Some(bucket) = word.first().and_then(|l| by_first.get(l)) {
            candidates.extend_from_slice(bucket);
        }
        candidates.extend_from_slice(&empty_rhs);
        candidates.sort_unstable();
        for &rule_idx in &candidates {
            let rule = &system.rules()[rule_idx];
            if word.len() >= rule.rhs.len() && word[..rule.rhs.len()] == rule.rhs[..] {
                let mut pred: Vec<Label> = rule.lhs.clone();
                pred.extend_from_slice(&word[rule.rhs.len()..]);
                if !seen.contains(&pred) && member(&pred) {
                    seen.insert(pred.clone());
                    next_hop.insert(pred.clone(), (word.clone(), rule_idx));
                    if pred == start {
                        found = true;
                        break 'bfs;
                    }
                    queue.push_back(pred);
                }
            }
        }
    }
    if !found {
        return None;
    }
    let mut steps = Vec::new();
    let mut cursor = start.clone();
    while cursor != target {
        let (succ, rule) = next_hop.get(&cursor).expect("BFS next-hop");
        steps.push(DerivationStep {
            rule: *rule,
            result: succ.clone(),
        });
        cursor = succ.clone();
    }
    Some(Derivation { start, steps })
}

/// Ceiling on countermodel nodes, over both quotients together. A residual
/// quotient determinizes the reversed automaton, so it can in principle
/// be exponential in the automaton's states; past this many nodes the
/// refutation stands on the decision procedure alone.
const MAX_QUOTIENT_NODES: usize = 512;

/// Builds a countermodel of `Σ ∧ ¬(α → β)` from the residuals of the
/// decision procedure's own automata: `empty` must be `post*(ε)` and
/// `post` must be `post*(α)` under Σ's rewrite rules, with `β ∉ post`.
///
/// For an automaton `N` and a word `z`, let `P(z)` be the set of states
/// that accept `z`. The quotient of `N` has one node per distinct
/// non-empty `P(z)`, found by a worklist from `P(ε)` (the backward
/// ε-closure of the accepting states) through
/// `P(l·z) = pre_l(P(z))`, and an edge `P(l·z) --l--> P(z)`. The graph
/// is the quotient of `post*(ε)`, whose `P(ε)` node is the root, next
/// to the quotient of `post*(α)`, plus a root edge `--l--> S` for every
/// node `S` whose automaton's start state lies in `pre_l(S)`.
///
/// A non-empty word `w` then reaches exactly the nodes `P(z)` with
/// `w·z` in their automaton's language (a path through the root is
/// covered because `post*(ε) ∋ w` means `ε ⇒* w`, and both languages
/// are closed under rewriting), and `ε` reaches only the root, whose
/// language is `post*(ε)`. So every rule `u → v` with `v ≠ ε` holds —
/// `ε`-lhs rules included — while `α` reaches the `P(ε)` node of
/// `post*(α)` and `β` does not: the word-constraint analogue of the
/// quotient structure of Lemma 4.5 (Figure 2).
///
/// The candidate is verified against `Σ ∧ ¬φ` before it is returned.
/// `None` means the quotient outgrew its node ceiling, the deadline
/// fired, or verification failed (Σ collapses a word to `ε`, a case the
/// solver hands to the chase).
pub fn quotient_countermodel(
    sigma: &[PathConstraint],
    phi: &PathConstraint,
    empty: &BitNfa,
    post: &BitNfa,
    deadline: &Deadline,
) -> Option<Graph> {
    if !phi.is_word() || !sigma.iter().all(PathConstraint::is_word) {
        return None;
    }
    let mut alphabet: Vec<Label> = sigma
        .iter()
        .chain(std::iter::once(phi))
        .flat_map(|c| c.lhs().labels().iter().chain(c.rhs().labels()))
        .copied()
        .collect();
    alphabet.sort_unstable();
    alphabet.dedup();

    let mut graph = Graph::new();
    add_quotient(&mut graph, empty, &alphabet, true, deadline)?;
    // For α = ε the root already is the witness `P(ε)` of `post*(α)`.
    if !phi.lhs().is_empty() {
        add_quotient(&mut graph, post, &alphabet, false, deadline)?;
    }
    (all_hold(&graph, sigma) && !holds(&graph, phi)).then_some(graph)
}

/// Adds the residual quotient of `nfa` over `alphabet` to `graph`: node
/// `P(ε)` (the root when `at_root`, else a fresh node), one fresh node
/// per further distinct non-empty `P(z)`, the edges `pre_l(S) --l--> S`,
/// and a root edge `--l--> S` whenever the start state lies in
/// `pre_l(S)`. `None` when the graph would pass [`MAX_QUOTIENT_NODES`]
/// or the deadline fires.
fn add_quotient(
    graph: &mut Graph,
    nfa: &BitNfa,
    alphabet: &[Label],
    at_root: bool,
    deadline: &Deadline,
) -> Option<()> {
    let is_empty = |set: &[u64]| set.iter().all(|&w| w == 0);
    // A fresh node, unless the graph is already at the node ceiling.
    let fresh_node =
        |graph: &mut Graph| (graph.node_count() < MAX_QUOTIENT_NODES).then(|| graph.add_node());

    let root = graph.root();
    let mut first = nfa.accepting_set().to_vec();
    nfa.close_backward(&mut first);
    if is_empty(&first) {
        return None;
    }
    let mut nodes = vec![if at_root { root } else { fresh_node(graph)? }];
    let mut sets = vec![first.clone()];
    let mut index: HashMap<Vec<u64>, usize> = HashMap::from([(first, 0)]);
    let mut j = 0;
    while j < sets.len() {
        if deadline.expired() {
            return None;
        }
        for &l in alphabet {
            let pre = nfa.pre_closed(l, &sets[j]);
            if is_empty(&pre) {
                continue;
            }
            if BitNfa::contains(&pre, nfa.start()) {
                graph.add_edge(root, l, nodes[j]);
            }
            let i = match index.get(&pre) {
                Some(&i) => i,
                None => {
                    nodes.push(fresh_node(graph)?);
                    sets.push(pre.clone());
                    index.insert(pre, sets.len() - 1);
                    sets.len() - 1
                }
            };
            graph.add_edge(nodes[i], l, nodes[j]);
        }
        j += 1;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcons_constraints::parse_constraints;
    use pathcons_graph::LabelInterner;

    /// A `post*(α)` membership oracle, as the engine supplies to
    /// [`derivation_guided`] (possibly in determinized form — same
    /// language either way).
    fn post_member(sigma: &[PathConstraint], alpha: &Path) -> impl FnMut(&[Label]) -> bool {
        let post = crate::WordEngine::new(sigma).unwrap().consequences(alpha);
        move |w: &[Label]| post.accepts(w)
    }

    #[test]
    fn derivation_for_chained_rules() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b\nb.g -> c", &mut labels).unwrap();
        let alpha = Path::parse("a.g", &mut labels).unwrap();
        let beta = Path::parse("c", &mut labels).unwrap();
        let d = derivation_guided(&sigma, &alpha, &beta, 10_000, post_member(&sigma, &alpha))
            .expect("derivable");
        assert_eq!(d.steps.len(), 2);
        d.check(&sigma).unwrap();
        assert_eq!(d.start, alpha.to_vec());
        assert_eq!(d.end(), beta.labels());
    }

    #[test]
    fn reflexive_derivation_is_empty() {
        let mut labels = LabelInterner::new();
        let alpha = Path::parse("a.b", &mut labels).unwrap();
        let d = derivation_guided(&[], &alpha, &alpha, 100, |_: &[Label]| {
            panic!("reflexive case must not consult the oracle")
        })
        .unwrap();
        assert!(d.steps.is_empty());
        d.check(&[]).unwrap();
    }

    #[test]
    fn underivable_returns_none() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let alpha = Path::parse("b", &mut labels).unwrap();
        let beta = Path::parse("a", &mut labels).unwrap();
        assert_eq!(
            derivation_guided(&sigma, &alpha, &beta, 10_000, post_member(&sigma, &alpha)),
            None
        );
    }

    #[test]
    fn derivation_check_rejects_forgeries() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let a = labels.get("a").unwrap();
        let b = labels.get("b").unwrap();
        // Claiming a ⇒ a via rule 0 (which produces b) must fail.
        let forged = Derivation {
            start: vec![a],
            steps: vec![DerivationStep {
                rule: 0,
                result: vec![a],
            }],
        };
        assert!(forged.check(&sigma).is_err());
        // And an honest one passes.
        let honest = Derivation {
            start: vec![a],
            steps: vec![DerivationStep {
                rule: 0,
                result: vec![b],
            }],
        };
        honest.check(&sigma).unwrap();
    }

    /// Refutes `phi` through the quotient of a cold saturation.
    fn quotient(sigma: &[PathConstraint], phi: &PathConstraint) -> Option<Graph> {
        let engine = crate::WordEngine::new(sigma).unwrap();
        let post = engine.consequences(phi.lhs());
        assert!(!post.accepts(phi.rhs()), "{phi:?} is implied");
        let empty = engine.consequences(&Path::empty());
        quotient_countermodel(sigma, phi, &empty, &post, &Deadline::none())
    }

    #[test]
    fn quotient_countermodel_for_simple_case() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let phi = PathConstraint::parse("b -> a", &mut labels).unwrap();
        let g = quotient(&sigma, &phi).expect("countermodel");
        assert!(all_hold(&g, &sigma));
        assert!(!holds(&g, &phi));
    }

    #[test]
    fn quotient_countermodel_handles_growing_rules() {
        let mut labels = LabelInterner::new();
        // a ⇒ b·a keeps post* infinite; its residuals stay finite.
        let sigma = parse_constraints("a -> b.a", &mut labels).unwrap();
        let phi = PathConstraint::parse("b.a -> a", &mut labels).unwrap();
        let g = quotient(&sigma, &phi).expect("countermodel");
        assert!(all_hold(&g, &sigma));
        assert!(!holds(&g, &phi));
    }

    #[test]
    fn quotient_countermodel_handles_empty_paths() {
        let mut labels = LabelInterner::new();
        // ε on the left: the root's own language is post*(ε) = K*.
        let sigma = parse_constraints("() -> K\nK.a -> K", &mut labels).unwrap();
        for text in ["K -> a", "K -> ()", "() -> a", "a.b -> K"] {
            let phi = PathConstraint::parse(text, &mut labels).unwrap();
            let g = quotient(&sigma, &phi).unwrap_or_else(|| panic!("no model for {text}"));
            assert!(all_hold(&g, &sigma), "{text}");
            assert!(!holds(&g, &phi), "{text}");
        }
    }

    #[test]
    fn quotient_countermodel_gives_up_on_deadline_and_ceiling() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let phi = PathConstraint::parse("b -> a", &mut labels).unwrap();
        let engine = crate::WordEngine::new(&sigma).unwrap();
        let post = engine.consequences(phi.lhs());
        let empty = engine.consequences(&Path::empty());
        let expired = Deadline::within(std::time::Duration::ZERO);
        assert!(quotient_countermodel(&sigma, &phi, &empty, &post, &expired).is_none());
        // `a^k` has k + 1 residuals (`ε`, `a`, …, `a^k`): a fresh
        // graph holds them up to the node ceiling, counting its root.
        let a = labels.get("a").unwrap();
        let chain = |n: usize| PrefixRewriteSystem::new().post_star(&vec![a; n]);
        let fits = chain(MAX_QUOTIENT_NODES - 2);
        let mut graph = Graph::new();
        add_quotient(&mut graph, &fits, &[a], false, &Deadline::none()).unwrap();
        assert_eq!(graph.node_count(), MAX_QUOTIENT_NODES);
        let spills = chain(MAX_QUOTIENT_NODES - 1);
        let mut graph = Graph::new();
        assert!(add_quotient(&mut graph, &spills, &[a], false, &Deadline::none()).is_none());
    }
}
