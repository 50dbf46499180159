//! Property tests for the PTIME word-constraint engine: soundness and
//! completeness against independent references.

use pathcons::automata::{BitNfa, Nfa, PrefixRewriteSystem, StateId};
use pathcons::constraints::{all_hold, holds, Path, PathConstraint};
use pathcons::core::{
    chase_implication, quotient_countermodel, Answer, Budget, DataContext, Deadline, Evidence,
    Method, Outcome, SharedContext, Solver, WordEngine, MAX_DERIVATION_SIZE,
};
use pathcons::graph::{Graph, Label};
use pathcons_cert as cert;
use pathcons_engine::{canonicalize, certificate_to_json, certify, snapshot_id};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

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
/// `quotient_countermodel`, over sorted state vectors of [`Nfa`]s with
/// the saturations' transitions. A reference for the bitset version,
/// which must build the identical graph.
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
    reference_add(&mut graph, &as_nfa(&system.post_star(&[])), &alphabet, true)?;
    if !phi.lhs().is_empty() {
        reference_add(
            &mut graph,
            &as_nfa(&system.post_star(phi.lhs())),
            &alphabet,
            false,
        )?;
    }
    (all_hold(&graph, sigma) && !holds(&graph, phi)).then_some(graph)
}

/// An [`Nfa`] with the states, transitions and accepting states of
/// `bits`.
fn as_nfa(bits: &BitNfa) -> Nfa {
    let mut nfa = Nfa::new();
    for _ in 1..bits.state_count() {
        nfa.add_state();
    }
    for q in (0..bits.state_count()).map(StateId::from_index) {
        nfa.set_accepting(q, bits.is_accepting(q));
    }
    for (from, label, to) in bits.transitions() {
        nfa.add_transition(from, label, to);
    }
    for (from, to) in bits.epsilon_transitions() {
        nfa.add_epsilon(from, to);
    }
    nfa
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

/// Every word over `alphabet` of length at most `max_len` that `nfa`
/// accepts.
fn accepted_up_to(nfa: &BitNfa, alphabet: &[Label], max_len: usize) -> Vec<Vec<Label>> {
    let mut words = vec![Vec::new()];
    let mut longest = vec![Vec::new()];
    for _ in 0..max_len {
        longest = longest
            .iter()
            .flat_map(|w: &Vec<Label>| alphabet.iter().map(move |&l| [&w[..], &[l]].concat()))
            .collect();
        words.extend(longest.iter().cloned());
    }
    words.retain(|w| nfa.accepts(w));
    words
}

/// Solves `φ` over `sigma`, cold or against a shared context, and
/// certifies the answer; returns it with the certificate's wire text.
fn certified(sigma: &[PathConstraint], phi: &PathConstraint, shared: bool) -> (Answer, String) {
    let mut solver = Solver::new(DataContext::Semistructured);
    let context = shared.then(|| Arc::new(SharedContext::build(sigma)));
    if let Some(context) = &context {
        solver = solver.with_shared(Arc::clone(context));
    }
    let answer = solver.implies(sigma, phi).unwrap();
    let canonical = canonicalize(&DataContext::Semistructured, sigma, phi);
    let certificate = certify(&canonical, sigma, phi, &answer, context.as_deref());
    if let Some(c) = &certificate {
        let check = cert::CheckContext {
            snapshot: snapshot_id(&canonical.key),
            sigma: &canonical.key.sigma,
            phi: &canonical.key.phi,
        };
        assert!(cert::check(c, &check).is_valid(), "{c:?}");
    }
    let wire = certificate.map_or(String::new(), |c| certificate_to_json(&c).to_string());
    (answer, wire)
}

/// `Σ` and `φ` over labels `0..`, each constraint `lhs -> rhs`.
fn word_query(
    rules: &[(&[usize], &[usize])],
    phi: (&[usize], &[usize]),
) -> (Vec<PathConstraint>, PathConstraint) {
    let path = |w: &[usize]| Path::from_labels(w.iter().map(|&i| Label::from_index(i)));
    let sigma = rules
        .iter()
        .map(|(l, r)| PathConstraint::word(path(l), path(r)))
        .collect();
    (sigma, PathConstraint::word(path(phi.0), path(phi.1)))
}

/// The derivation an `Implied` word decision carries.
fn decided_derivation(
    sigma: &[PathConstraint],
    phi: &PathConstraint,
) -> Option<pathcons::core::Derivation> {
    let engine = WordEngine::new(sigma).unwrap();
    match engine.decide(sigma, phi, &Deadline::none()) {
        Some(Outcome::Implied(Evidence::WordDerivation(d))) => d,
        other => panic!("not a word-tier Implied answer: {other:?}"),
    }
}

/// Σ lets any word gain or lose a leading `a` or `b`, so a search
/// backward from `β = a¹⁶·c` meets about `2ᵈ` words within `d` steps
/// and more than 20 000 before `α = c`, sixteen steps away. Read off
/// the saturation, the derivation costs sixteen run searches, and the
/// answer is certified.
#[test]
fn implied_answers_far_from_alpha_are_certified() {
    let a16c: Vec<usize> = [0; 16].into_iter().chain([2]).collect();
    let (sigma, phi) = word_query(
        &[(&[], &[0]), (&[], &[1]), (&[0], &[]), (&[1], &[])],
        (&[2], &a16c),
    );
    let d = decided_derivation(&sigma, &phi).expect("a derivation within the size cap");
    d.check(&sigma).unwrap();
    assert_eq!(d.end(), phi.rhs().labels());
    let (answer, cold) = certified(&sigma, &phi, false);
    assert!(matches!(answer.outcome, Outcome::Implied(_)));
    assert!(cold.contains("word-rewrite"), "{cold}");
    assert_eq!(cold, certified(&sigma, &phi, true).1);
}

/// A binary counter, low bit first: `1ʲ·0 ⇒ 0ʲ·1` adds one, and no
/// other rule applies, so `0ⁿ·#·tⁿ ⇒* 1ⁿ·#·tᵐ` takes exactly `2ⁿ − 1`
/// steps, each yielding a word of `n + 1 + m` labels.
fn counter(bits: usize, tail: usize) -> (Vec<PathConstraint>, PathConstraint) {
    let (zero, one, end, t) = (0, 1, 2, 3);
    let rules: Vec<(Vec<usize>, Vec<usize>)> = (0..bits)
        .map(|j| {
            let lhs = [vec![one; j], vec![zero]].concat();
            let rhs = [vec![zero; j], vec![one]].concat();
            (lhs, rhs)
        })
        .collect();
    let rules: Vec<(&[usize], &[usize])> = rules.iter().map(|(l, r)| (&l[..], &r[..])).collect();
    let from = [vec![zero; bits], vec![end], vec![t; tail]].concat();
    let to = [vec![one; bits], vec![end], vec![t; tail]].concat();
    word_query(&rules, (&from, &to))
}

/// The size of the counter's derivation: each step plus its word.
fn counter_size(bits: usize, tail: usize) -> usize {
    ((1 << bits) - 1) * (1 + bits + 1 + tail)
}

#[test]
fn large_witnesses_stop_at_the_size_cap_and_stay_implied() {
    let (sigma, phi) = counter(10, 0);
    let d = decided_derivation(&sigma, &phi).expect("1 023 steps fit under the cap");
    assert_eq!(d.steps.len(), 1023);
    d.check(&sigma).unwrap();
    // Past the cap by the number of steps, then by the length of the
    // words: a 6-bit counter next to 2 000 labels that no step touches.
    let bits = (1..)
        .find(|&n| counter_size(n, 0) > MAX_DERIVATION_SIZE)
        .unwrap();
    assert!(counter_size(6, 2000) > MAX_DERIVATION_SIZE);
    for (sigma, phi) in [counter(bits, 0), counter(6, 2000)] {
        assert_eq!(decided_derivation(&sigma, &phi), None);
        let (answer, certificate) = certified(&sigma, &phi, false);
        assert!(matches!(
            answer.outcome,
            Outcome::Implied(Evidence::WordDerivation(None))
        ));
        assert_eq!(certificate, "");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every `Implied` word decision carries a derivation from `α` to
    /// `β` that replays against Σ, ε-lhs and ε-rhs rules included; and
    /// certifying the answer cold or against a shared context gives the
    /// same checked certificate bytes.
    #[test]
    fn implied_decisions_carry_replayable_derivations(
        sigma in arb_sigma(3, 4),
        lhs in arb_word(3, 3),
        rhs in arb_word(3, 3),
    ) {
        let phi = PathConstraint::word(Path::from_labels(lhs), Path::from_labels(rhs));
        let engine = WordEngine::new(&sigma).unwrap();
        if let Some(Outcome::Implied(evidence)) = engine.decide(&sigma, &phi, &Deadline::none()) {
            let Evidence::WordDerivation(Some(d)) = evidence else {
                panic!("no derivation: {evidence:?}");
            };
            prop_assert!(d.check(&sigma).is_ok(), "{:?}", d);
            prop_assert_eq!(&d.start, &phi.lhs().to_vec());
            prop_assert_eq!(d.end(), phi.rhs().labels());
        }
        let (cold_answer, cold) = certified(&sigma, &phi, false);
        let (warm_answer, warm) = certified(&sigma, &phi, true);
        prop_assert_eq!(&cold, &warm);
        prop_assert_eq!(cold_answer.method, warm_answer.method);
        if cold_answer.method == Method::WordAutomaton && cold_answer.outcome.is_implied() {
            prop_assert!(cold.contains("word-rewrite"), "{}", cold);
        }
    }

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
        for word in accepted_up_to(&automaton, &alphabet, 3) {
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
