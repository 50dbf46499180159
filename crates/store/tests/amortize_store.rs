//! Store-level amortization: shared state is attached exactly to the
//! jobs that can use it, mutations bump the revision and invalidate the
//! cached state per context (never the world), and warm solving yields
//! byte-identical verdicts to cold solving.

use pathcons_engine::{BatchEngine, EngineConfig, Job};
use pathcons_store::{snapshot, ConstraintStore};
use std::time::Instant;

const TWO_CONTEXTS: &str = concat!(
    r#"{"name": "wordy", "kind": "semistructured", "sigma": ["() -> k", "k.m -> k"]}"#,
    "\n",
    r#"{"name": "graphy", "kind": "semistructured", "sigma": ["a -> b"], "edges": [["n0", "a", "n1"], ["n1", "b", "n2"]], "root": "n0"}"#,
    "\n",
);

fn job(context: &str, sigma: &[&str], phi: &str) -> Job {
    Job {
        id: "t".into(),
        context: context.into(),
        sigma: sigma.iter().map(|s| s.to_string()).collect(),
        phi: phi.into(),
        deadline_ms: None,
        request_id: None,
    }
}

#[test]
fn prepare_attaches_shared_only_to_empty_sigma_jobs() {
    let store = ConstraintStore::from_jsonl(TWO_CONTEXTS).expect("store");
    assert!(
        store.shared_budget().is_some(),
        "amortization on by default"
    );

    let bare = store
        .prepare(&job("wordy", &[], "k -> k.m"))
        .expect("prepare");
    assert!(bare.shared.is_some(), "empty-sigma job gets shared state");
    assert_eq!(bare.revision, 0);

    let extra = store
        .prepare(&job("wordy", &["k -> m"], "k -> k.m"))
        .expect("prepare");
    assert!(
        extra.shared.is_none(),
        "a job with its own sigma solves cold: its Σ is not the base Σ"
    );

    // Unknown contexts fall back to builtins — no store state to share.
    let fallback = store.prepare(&job("", &[], "k -> k")).expect("prepare");
    assert!(fallback.shared.is_none());
    assert_eq!(fallback.revision, 0);
}

#[test]
fn disabling_the_shared_budget_turns_every_job_cold() {
    let mut store = ConstraintStore::from_jsonl(TWO_CONTEXTS).expect("store");
    assert_eq!(store.warm_all(), 2);
    store.set_shared_budget(None);
    assert_eq!(store.warm_all(), 0, "warm_all is a no-op when disabled");
    let prepared = store
        .prepare(&job("wordy", &[], "k -> k.m"))
        .expect("prepare");
    assert!(prepared.shared.is_none());
    let stats = store.context_stats();
    assert!(
        stats.iter().all(|c| !c.warm),
        "set_shared_budget drops previously-warmed state"
    );
}

#[test]
fn mutations_bump_revision_and_invalidate_only_that_context() {
    let mut store = ConstraintStore::from_jsonl(TWO_CONTEXTS).expect("store");
    let id_before = store.content_id();
    assert_eq!(store.warm_all(), 2);
    assert!(store.context("wordy").unwrap().shared_stats().is_some());

    let rev = store.add_constraint("wordy", "k -> k.m.m").expect("add");
    assert_eq!(rev, 1);
    assert_eq!(store.context("wordy").unwrap().revision(), 1);
    assert!(
        store.context("wordy").unwrap().shared_stats().is_none(),
        "mutation invalidates the mutated context's shared state"
    );
    assert!(
        store.context("graphy").unwrap().shared_stats().is_some(),
        "the other context's state survives"
    );
    assert_ne!(store.content_id(), id_before, "content id tracks mutations");
    assert_eq!(
        store.content_id(),
        snapshot::content_id(&store.to_doc()),
        "the in-place id is the id of the store's document"
    );

    // The next empty-sigma prepare rebuilds state at the new revision
    // and stamps the prepared job with it.
    let prepared = store
        .prepare(&job("wordy", &[], "k -> k.m"))
        .expect("prepare");
    assert_eq!(prepared.revision, 1);
    assert!(prepared.shared.is_some());
    assert!(store.context("wordy").unwrap().shared_stats().is_some());

    let rev = store.add_edge("graphy", 2, "c", 3).expect("edge");
    assert_eq!(rev, 1);
    assert!(store.context("graphy").unwrap().shared_stats().is_none());
    let col = store.context("graphy").unwrap().columnar().expect("graph");
    assert_eq!(col.node_count(), 4);
    assert_eq!(col.edge_count(), 3);
    assert_eq!(store.content_id(), snapshot::content_id(&store.to_doc()));

    // Edges can create a graph on a context that had none.
    let rev = store.add_edge("wordy", 0, "m", 1).expect("edge");
    assert_eq!(rev, 2);
    assert_eq!(
        store
            .context("wordy")
            .unwrap()
            .columnar()
            .unwrap()
            .edge_count(),
        1
    );
    assert_eq!(store.content_id(), snapshot::content_id(&store.to_doc()));
    assert_eq!(store.to_bytes(), snapshot::encode(&store.to_doc()));

    // Mutators reject unknown contexts, bad constraint syntax and
    // out-of-range node ids, and a rejected mutation changes nothing:
    // not the snapshot bytes, and not the content id they hash to.
    let (bytes, id) = (store.to_bytes(), store.content_id());
    assert!(store.add_constraint("nope", "fresh_a -> fresh_b").is_err());
    assert!(store.add_constraint("wordy", "fresh_c -> ->").is_err());
    assert!(store.add_edge("nope", 0, "fresh_d", 1).is_err());
    assert!(store.add_edge("graphy", u32::MAX, "fresh_e", 0).is_err());
    assert!(store.add_edge("graphy", 0, "fresh_f", u32::MAX).is_err());
    assert!(store
        .add_edge("graphy", u32::MAX - 1, "fresh_g", 0)
        .is_err());
    assert_eq!(
        store.to_bytes(),
        bytes,
        "a failed mutation changed the snapshot"
    );
    assert_eq!(store.content_id(), id);
    assert_eq!(
        store.content_id(),
        snapshot::decode(&bytes[..], bytes.len() as u64).unwrap().1
    );
}

#[test]
fn warm_prepared_jobs_match_cold_verdicts_and_reuse_shared_state() {
    let store = ConstraintStore::from_jsonl(TWO_CONTEXTS).expect("store");
    let mut cold_store = ConstraintStore::from_jsonl(TWO_CONTEXTS).expect("store");
    cold_store.set_shared_budget(None);
    assert_eq!(store.warm_all(), 2);

    let queries = [
        ("wordy", "k -> k.m"),
        ("wordy", "k.m.m -> k"),
        ("wordy", "k -> m"),
        ("graphy", "a -> b"),
        ("graphy", "b -> a"),
    ];
    for (context, phi) in queries {
        // Fresh engines per query: the answer cache must not be what
        // makes the two paths agree.
        let warm_engine = BatchEngine::new(EngineConfig::default());
        let cold_engine = BatchEngine::new(EngineConfig::default());
        let j = job(context, &[], phi);
        let warm = store.prepare(&j).expect("prepare");
        let cold = cold_store.prepare(&j).expect("prepare");
        assert!(warm.shared.is_some() && cold.shared.is_none());
        let mut warm_result = warm_engine.solve_prepared("q".into(), &warm, None, Instant::now());
        let mut cold_result = cold_engine.solve_prepared("q".into(), &cold, None, Instant::now());
        // Latency is the one field allowed to differ.
        warm_result.micros = 0;
        cold_result.micros = 0;
        assert_eq!(
            format!("{warm_result:?}"),
            format!("{cold_result:?}"),
            "warm and cold disagree on {context}: {phi}"
        );
    }

    let stats = store.context_stats();
    let wordy = stats.iter().find(|c| c.name == "wordy").expect("wordy");
    assert!(wordy.warm);
    assert_eq!(wordy.jobs, 3);
    assert!(
        wordy.shared.word_hits > 0,
        "shared state was consulted: {:?}",
        wordy.shared
    );
}
