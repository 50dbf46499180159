//! Satellite property: warm and cold solving agree byte-for-byte.
//!
//! For a random matrix of contexts (random Σ, sometimes grounded at the
//! root, sometimes with a data graph) and random jobs, solving a prepared job with the context's
//! amortization state attached must produce the *identical* `JobResult`
//! — verdict, method, detail, cache outcome, and certificate — as
//! solving it on a store with amortization disabled. Latency is the one
//! field allowed to differ. Fresh engines on both sides per job, so the
//! answer cache is never what makes the two paths agree.

use pathcons_engine::{BatchEngine, EngineConfig, Job};
use pathcons_store::ConstraintStore;
use proptest::prelude::*;
use std::time::Instant;

const ALPHABET: &[&str] = &["a", "b", "c", "d", "k", "m"];

/// Deterministically consumes `bits` to build a random path text.
fn path(bits: &mut u64, max_len: u64) -> String {
    let mut take = |n: u64| {
        let v = *bits % n;
        *bits /= n;
        v
    };
    let len = 1 + take(max_len);
    (0..len)
        .map(|_| ALPHABET[take(ALPHABET.len() as u64) as usize])
        .collect::<Vec<_>>()
        .join(".")
}

/// A random constraint: mostly forward word constraints, sometimes
/// backward (chase tier), sometimes prefixed, and — for Σ — sometimes
/// grounded at the root (`() -> x`), which the chase repairs on the
/// root itself.
fn constraint_text(mut bits: u64, allow_grounded: bool) -> String {
    let grounded = allow_grounded && bits % 8 == 0;
    bits /= 8;
    let arrow = if bits % 4 == 0 { "<-" } else { "->" };
    bits /= 4;
    let prefixed = bits % 4 == 0;
    bits /= 4;
    let lhs = if grounded {
        "()".to_owned()
    } else {
        path(&mut bits, 2)
    };
    let rhs = path(&mut bits, 2);
    if prefixed && !grounded {
        let prefix = path(&mut bits, 1);
        format!("{prefix}: {lhs} {arrow} {rhs}")
    } else {
        format!("{lhs} {arrow} {rhs}")
    }
}

fn context_jsonl(sigma: &[String], edges: &[(u8, u8, u8)]) -> String {
    let sigma_json = sigma
        .iter()
        .map(|c| format!(r#""{c}""#))
        .collect::<Vec<_>>()
        .join(", ");
    if edges.is_empty() {
        format!(r#"{{"name": "c", "kind": "semistructured", "sigma": [{sigma_json}]}}"#) + "\n"
    } else {
        let edges_json = edges
            .iter()
            .map(|(s, l, d)| format!(r#"["n{s}", "{}", "n{d}"]"#, ALPHABET[*l as usize]))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            r#"{{"name": "c", "kind": "semistructured", "sigma": [{sigma_json}], "edges": [{edges_json}], "root": "n0"}}"#
        ) + "\n"
    }
}

proptest! {
    // The satellite calls for a 256-case matrix; that is also
    // proptest's default, pinned here so a profile cannot shrink it.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn warm_and_cold_jobs_agree_byte_for_byte(
        sigma_seeds in proptest::collection::vec(0u64..u64::MAX, 1..5),
        phi_seeds in proptest::collection::vec(0u64..u64::MAX, 1..3),
        edges in proptest::collection::vec((0u8..4, 0u8..6, 0u8..4), 0..4),
    ) {
        let mut edges = edges;
        if let Some(first) = edges.first_mut() {
            // The store requires the root to appear in `edges`.
            first.0 = 0;
        }
        let sigma: Vec<String> = sigma_seeds
            .iter()
            .map(|&s| constraint_text(s, true))
            .collect();
        let jsonl = context_jsonl(&sigma, &edges);
        let warm_store = ConstraintStore::from_jsonl(&jsonl).expect("store");
        let mut cold_store = ConstraintStore::from_jsonl(&jsonl).expect("store");
        cold_store.set_shared_budget(None);
        prop_assert_eq!(warm_store.warm_all(), 1);

        for &seed in &phi_seeds {
            let job = Job {
                id: "p".into(),
                context: "c".into(),
                sigma: Vec::new(),
                phi: constraint_text(seed, false),
                deadline_ms: None,
                request_id: None,
            };
            let warm = warm_store.prepare(&job).expect("prepare");
            let cold = cold_store.prepare(&job).expect("prepare");
            prop_assert!(warm.shared.is_some(), "empty-sigma job gets shared state");
            prop_assert!(cold.shared.is_none(), "disabled store solves cold");

            let warm_engine = BatchEngine::new(EngineConfig::default());
            let cold_engine = BatchEngine::new(EngineConfig::default());
            let mut wr = warm_engine.solve_prepared("p".into(), &warm, None, Instant::now());
            let mut cr = cold_engine.solve_prepared("p".into(), &cold, None, Instant::now());
            wr.micros = 0;
            cr.micros = 0;
            prop_assert_eq!(
                format!("{wr:?}"),
                format!("{cr:?}"),
                "warm and cold disagree on sigma {:?} phi {}",
                &sigma,
                &job.phi
            );
        }
    }
}
