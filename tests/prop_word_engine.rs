//! Property tests for the PTIME word-constraint engine: soundness and
//! completeness against independent references.

use pathcons::automata::{Nfa, PrefixRewriteSystem, StateId};
use pathcons::constraints::{all_hold, holds, Path, PathConstraint};
use pathcons::core::{
    chase_implication, quotient_countermodel, Budget, Deadline, Outcome, WordEngine,
};
use pathcons::graph::{Graph, Label};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_word(alphabet: usize, max_len: usize) -> impl Strategy<Value = Vec<Label>> {
    prop::collection::vec(0..alphabet, 0..=max_len)
        .prop_map(move |ixs| ixs.into_iter().map(Label::from_index).collect())
}

fn arb_sigma(alphabet: usize, max_rules: usize) -> impl Strategy<Value = Vec<PathConstraint>> {
    prop::collection::vec(
        (arb_word(alphabet, 3), arb_word(alphabet, 3)),
        0..=max_rules,
    )
    .prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(l, r)| PathConstraint::word(Path::from_labels(l), Path::from_labels(r)))
            .collect()
    })
}

/// The residual quotient countermodel as it was computed before `post*`
/// was frozen into bitsets: the same construction as
/// `quotient_countermodel`, over sorted state vectors of the round-based
/// saturation's [`Nfa`]s. A reference for the bitset version, which must
/// build the identical graph.
fn reference_quotient(sigma: &[PathConstraint], phi: &PathConstraint) -> Option<Graph> {
    let mut system = PrefixRewriteSystem::new();
    for c in sigma {
        system.add_rule(c.lhs().to_vec(), c.rhs().to_vec());
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
    reference_add(&mut graph, &system.post_star_rounds(&[]), &alphabet, true)?;
    if !phi.lhs().is_empty() {
        reference_add(
            &mut graph,
            &system.post_star_rounds(phi.lhs()),
            &alphabet,
            false,
        )?;
    }
    (all_hold(&graph, sigma) && !holds(&graph, phi)).then_some(graph)
}

fn reference_add(graph: &mut Graph, nfa: &Nfa, alphabet: &[Label], at_root: bool) -> Option<()> {
    const MAX_NODES: usize = 512;
    let n = nfa.state_count();
    let mut eps_pred: Vec<Vec<StateId>> = vec![Vec::new(); n];
    let mut pred: Vec<Vec<(Label, StateId)>> = vec![Vec::new(); n];
    for q in (0..n).map(StateId::from_index) {
        for t in nfa.epsilon_successors(q) {
            eps_pred[t.index()].push(q);
        }
        for (l, t) in nfa.transitions(q) {
            pred[t.index()].push((l, q));
        }
    }
    let close = |mut seed: Vec<StateId>| {
        let mut i = 0;
        while i < seed.len() {
            for &p in &eps_pred[seed[i].index()] {
                if !seed.contains(&p) {
                    seed.push(p);
                }
            }
            i += 1;
        }
        seed.sort_unstable();
        seed
    };
    let fresh = |graph: &mut Graph| (graph.node_count() < MAX_NODES).then(|| graph.add_node());
    let root = graph.root();
    let first = close(nfa.accepting_states().collect());
    if first.is_empty() {
        return None;
    }
    let mut nodes = vec![if at_root { root } else { fresh(graph)? }];
    let mut sets = vec![first.clone()];
    let mut index: HashMap<Vec<StateId>, usize> = HashMap::from([(first, 0)]);
    let mut j = 0;
    while j < sets.len() {
        for &l in alphabet {
            let mut seed: Vec<StateId> = sets[j]
                .iter()
                .flat_map(|t| pred[t.index()].iter())
                .filter(|&&(pl, _)| pl == l)
                .map(|&(_, q)| q)
                .collect();
            seed.sort_unstable();
            seed.dedup();
            let pre = close(seed);
            if pre.is_empty() {
                continue;
            }
            if pre.binary_search(&nfa.start()).is_ok() {
                graph.add_edge(root, l, nodes[j]);
            }
            let i = match index.get(&pre) {
                Some(&i) => i,
                None => {
                    nodes.push(fresh(graph)?);
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

fn graph_shape(g: &Graph) -> (usize, usize, Vec<(usize, Label, usize)>) {
    let edges = g
        .edges()
        .map(|(a, l, b)| (a.index(), l, b.index()))
        .collect();
    (g.node_count(), g.root().index(), edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The quotient countermodel read off the bitset `post*` automata is
    /// the graph the round-based automata give, node for node and edge
    /// for edge.
    #[test]
    fn quotient_countermodels_are_unchanged(
        sigma in arb_sigma(3, 4),
        lhs in arb_word(3, 3),
        rhs in arb_word(3, 3),
    ) {
        let phi = PathConstraint::word(Path::from_labels(lhs), Path::from_labels(rhs));
        let engine = WordEngine::new(&sigma).unwrap();
        let post = engine.consequences(phi.lhs());
        prop_assume!(!post.accepts(phi.rhs()));
        let empty = engine.consequences(&[]);
        let got = quotient_countermodel(&sigma, &phi, &empty, &post, &Deadline::none());
        let want = reference_quotient(&sigma, &phi);
        prop_assert_eq!(got.as_ref().map(graph_shape), want.as_ref().map(graph_shape));
    }

    /// Completeness against the naive rewriting reference: every word the
    /// bounded BFS reaches must be accepted by the post* automaton.
    #[test]
    fn post_star_covers_bounded_bfs(
        sigma in arb_sigma(3, 4),
        start in arb_word(3, 3),
    ) {
        let mut system = PrefixRewriteSystem::new();
        for c in &sigma {
            system.add_rule(c.lhs().to_vec(), c.rhs().to_vec());
        }
        let automaton = system.post_star(&start);
        for word in system.bounded_post(&start, 7, 3_000) {
            prop_assert!(automaton.accepts(&word), "missing {word:?}");
        }
    }

    /// Soundness: every accepted word of bounded length is reachable by
    /// naive BFS given enough slack (intermediate words may be longer
    /// than the target, so the BFS bound is generous).
    #[test]
    fn post_star_sound_on_short_words(
        sigma in arb_sigma(2, 3),
        start in arb_word(2, 2),
    ) {
        let mut system = PrefixRewriteSystem::new();
        for c in &sigma {
            system.add_rule(c.lhs().to_vec(), c.rhs().to_vec());
        }
        let automaton = system.post_star(&start);
        let reachable = system.bounded_post(&start, 14, 60_000);
        let alphabet: Vec<Label> = (0..2).map(Label::from_index).collect();
        for word in automaton.accepted_up_to(&alphabet, 3) {
            prop_assert!(
                reachable.contains(&word),
                "automaton accepts {word:?} but bounded BFS (len ≤ 14) cannot reach it"
            );
        }
    }

    /// Agreement with the chase: the chase is a sound-and-complete-
    /// in-the-limit procedure for the same implication problem, so on
    /// conclusive runs the answers must match.
    #[test]
    fn word_engine_agrees_with_chase(
        sigma in arb_sigma(3, 3),
        lhs in arb_word(3, 3),
        rhs in arb_word(3, 3),
    ) {
        let phi = PathConstraint::word(Path::from_labels(lhs), Path::from_labels(rhs));
        let engine = WordEngine::new(&sigma).unwrap();
        let decided = engine.implies(&phi).unwrap();
        match chase_implication(&sigma, &phi, &Budget::small()) {
            Outcome::Implied(_) => prop_assert!(
                decided || engine.has_epsilon_collapse(),
                "chase proved, engine denied, and Σ is ε-collapse-free \
                 (the three-rule system should be complete here)"
            ),
            Outcome::NotImplied(r) => {
                prop_assert!(!decided, "chase refuted, engine affirmed");
                // And the countermodel genuinely separates.
                if let Some(cm) = r.countermodel {
                    prop_assert!(!holds(&cm.graph, &phi));
                    for c in &sigma {
                        prop_assert!(holds(&cm.graph, c));
                    }
                }
            }
            Outcome::Unknown(_) => {} // chase budget ran out: no verdict
        }
    }

    /// The three inference rules are validated structurally: reflexivity,
    /// closure under right-congruence, and transitivity of the decided
    /// relation.
    #[test]
    fn decided_relation_is_a_right_congruent_preorder(
        sigma in arb_sigma(3, 3),
        a in arb_word(3, 2),
        b in arb_word(3, 2),
        c in arb_word(3, 2),
        suffix in arb_word(3, 2),
    ) {
        let engine = WordEngine::new(&sigma).unwrap();
        let pa = Path::from_labels(a);
        let pb = Path::from_labels(b);
        let pc = Path::from_labels(c);
        let ps = Path::from_labels(suffix);
        // Reflexivity.
        prop_assert!(engine.implies_word(&pa, &pa));
        // Transitivity.
        if engine.implies_word(&pa, &pb) && engine.implies_word(&pb, &pc) {
            prop_assert!(engine.implies_word(&pa, &pc));
        }
        // Right-congruence.
        if engine.implies_word(&pa, &pb) {
            prop_assert!(engine.implies_word(&pa.concat(&ps), &pb.concat(&ps)));
        }
    }
}
