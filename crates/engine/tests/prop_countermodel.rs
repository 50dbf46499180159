//! Word-tier and local-extent refutations carry countermodels read off
//! the `post*` quotient: on every refuted instance without ε-collapse
//! the solver attaches one, the naive first-order checker confirms it
//! satisfies Σ and refutes φ, and `certify` emits a certificate the
//! trusted checker accepts. Warm (shared-context) and cold solves
//! attach the same graph, and a resident-scale context refutes from its
//! cached saturations.

use pathcons_constraints::{holds_naive, Path, PathConstraint};
use pathcons_core::cert::{self, CertificateBody};
use pathcons_core::{
    Answer, Budget, CounterModelProvenance, DataContext, Method, Outcome, SharedContext, Solver,
    WordEngine,
};
use pathcons_engine::{canonicalize, certify, snapshot_id};
use pathcons_graph::{Graph, Label, NodeId};
use proptest::prelude::*;
use std::sync::Arc;

/// The labels with the given ids as a path.
fn path(ids: &[usize]) -> Path {
    Path::from_labels(ids.iter().map(|&i| Label::from_index(i)))
}

/// The countermodel of a refutation, after checking it satisfies Σ and
/// refutes φ under the naive semantics and certifying it against the
/// canonical query.
fn checked_countermodel(sigma: &[PathConstraint], phi: &PathConstraint, answer: &Answer) -> Graph {
    let cm = match &answer.outcome {
        Outcome::NotImplied(refutation) => refutation
            .countermodel
            .as_ref()
            .unwrap_or_else(|| panic!("no countermodel for {sigma:?} ⊭ {phi:?}")),
        other => panic!("{sigma:?} ⊭ {phi:?} answered {other:?}"),
    };
    for c in sigma {
        assert!(
            holds_naive(&cm.graph, c),
            "{c:?} fails: {sigma:?} ⊭ {phi:?}"
        );
    }
    assert!(!holds_naive(&cm.graph, phi), "{phi:?} holds: {sigma:?}");

    let canon = canonicalize(&DataContext::Semistructured, sigma, phi);
    let certificate = certify(&canon, sigma, phi, answer, None)
        .unwrap_or_else(|| panic!("no certificate for {sigma:?} ⊭ {phi:?}"));
    assert!(matches!(certificate.body, CertificateBody::NotImplied(_)));
    let context = cert::CheckContext {
        snapshot: snapshot_id(&canon.key),
        sigma: &canon.key.sigma,
        phi: &canon.key.phi,
    };
    assert!(cert::check(&certificate, &context).is_valid());
    cm.graph.clone()
}

fn edges(graph: &Graph) -> (usize, Vec<(NodeId, Label, NodeId)>) {
    (graph.node_count(), graph.edges().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random word theories over three labels: ε-lhs rules allowed,
    /// ε-rhs rules (the only source of ε-collapse) not; α and β may be
    /// empty.
    #[test]
    fn refuted_word_instances_get_checked_quotient_countermodels(
        rules in prop::collection::vec(
            (prop::collection::vec(0..3usize, 0..=3), prop::collection::vec(0..3usize, 1..=3)),
            0..=6,
        ),
        alpha in prop::collection::vec(0..3usize, 0..=3),
        beta in prop::collection::vec(0..3usize, 0..=3),
    ) {
        let sigma: Vec<PathConstraint> = rules
            .iter()
            .map(|(l, r)| PathConstraint::word(path(l), path(r)))
            .collect();
        let phi = PathConstraint::word(path(&alpha), path(&beta));
        prop_assume!(!WordEngine::new(&sigma).unwrap().implies(&phi).unwrap());

        let cold = Solver::new(DataContext::Semistructured).implies(&sigma, &phi).unwrap();
        prop_assert_eq!(cold.method, Method::WordAutomaton);
        prop_assert_eq!(
            cold.outcome.countermodel().map(|cm| cm.provenance),
            Some(CounterModelProvenance::PostStarQuotient)
        );
        let graph = checked_countermodel(&sigma, &phi, &cold);

        let shared = Arc::new(SharedContext::build(&sigma, &Budget::small()));
        let warm = Solver::new(DataContext::Semistructured)
            .with_shared(shared)
            .implies(&sigma, &phi)
            .unwrap();
        let warm_graph = warm.outcome.countermodel().expect("warm countermodel").graph.clone();
        prop_assert_eq!(edges(&graph), edges(&warm_graph), "{:?} ⊭ {:?}", sigma, phi);
    }

    /// Local extent instances bounded by `π ∈ {ε, p}` and `K`: the
    /// stripped word instance's quotient, lifted through Figure 3 and
    /// the `π`-prefix, refutes the original instance. Σ also carries
    /// constraints on other local databases (Σ_r).
    #[test]
    fn refuted_local_extent_instances_get_checked_lifted_countermodels(
        pi in prop::collection::vec(4..5usize, 0..=1),
        rules in prop::collection::vec(
            (0..3usize, prop::collection::vec(0..4usize, 0..=2), prop::collection::vec(0..4usize, 1..=3)),
            0..=5,
        ),
        others in prop::collection::vec((0..3usize, 0..3usize), 0..=2),
        alpha in (0..3usize, prop::collection::vec(0..4usize, 0..=2)),
        beta in prop::collection::vec(0..4usize, 0..=3),
    ) {
        // Labels a, b, c = 0, 1, 2; K = 3; the π label p = 4; o = 5.
        let k = 3;
        let prefix = path(&[pi.as_slice(), &[k]].concat());
        let mut sigma: Vec<PathConstraint> = rules
            .iter()
            .map(|(first, rest, rhs)| {
                let lhs = [&[*first][..], rest].concat();
                PathConstraint::forward(prefix.clone(), path(&lhs), path(rhs))
            })
            .collect();
        for (x, y) in &others {
            let local = path(&[pi.as_slice(), &[5]].concat());
            sigma.push(PathConstraint::backward(local, path(&[*x]), path(&[*y])));
        }
        let lhs = [&[alpha.0][..], &alpha.1].concat();
        let phi = PathConstraint::forward(prefix, path(&lhs), path(&beta));

        let answer = Solver::new(DataContext::Semistructured).implies(&sigma, &phi).unwrap();
        prop_assert_eq!(answer.method, Method::LocalExtentReduction);
        prop_assume!(answer.outcome.is_not_implied());
        prop_assert_eq!(
            answer.outcome.countermodel().map(|cm| cm.provenance),
            Some(CounterModelProvenance::LocalExtentLift)
        );
        checked_countermodel(&sigma, &phi, &answer);
    }
}

/// A deterministic 128-rule theory over 8 labels, shaped like a
/// resident word context: lhs of 1–2 labels, rhs of 1–3.
fn resident_sigma() -> Vec<PathConstraint> {
    let mut state = 0x5eed_u64;
    let mut next = move |n: usize| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) % n as u64) as usize
    };
    let mut rules: Vec<PathConstraint> = Vec::with_capacity(128);
    while rules.len() < 128 {
        let lhs: Vec<usize> = (0..1 + next(2)).map(|_| next(8)).collect();
        let rhs: Vec<usize> = (0..1 + next(3)).map(|_| next(8)).collect();
        let rule = PathConstraint::word(path(&lhs), path(&rhs));
        if lhs != rhs && !rules.contains(&rule) {
            rules.push(rule);
        }
    }
    rules
}

/// NotImplied queries against a warmed resident-scale context answer
/// from the cached `post*` saturations — no fresh saturation — and
/// carry checked countermodels.
#[test]
fn resident_scale_refutations_reuse_cached_saturations() {
    let sigma = resident_sigma();
    let shared = Arc::new(SharedContext::build(&sigma, &Budget::small()));
    let word = shared.word().expect("word theory");
    let queries: Vec<PathConstraint> = [
        (vec![0], vec![8]),
        (vec![3, 1], vec![8]),
        (vec![5, 2, 7], vec![8, 0]),
    ]
    .iter()
    .map(|(l, r)| PathConstraint::word(path(l), path(r)))
    .collect();
    let mut warm_words: Vec<Vec<Label>> = vec![Vec::new()];
    warm_words.extend(queries.iter().map(|phi| phi.lhs().to_vec()));
    word.warm(&warm_words);

    let solver = Solver::new(DataContext::Semistructured).with_shared(Arc::clone(&shared));
    for phi in &queries {
        let (hits, misses) = word.cache_stats();
        let answer = solver.implies(&sigma, phi).unwrap();
        assert_eq!(answer.method, Method::WordAutomaton);
        checked_countermodel(&sigma, phi, &answer);
        let (hits_after, misses_after) = word.cache_stats();
        assert_eq!(misses_after, misses, "{phi:?} saturated afresh");
        assert_eq!(
            hits_after,
            hits + 2,
            "{phi:?}: post*(α) and post*(ε) both hit"
        );
    }
}
