//! Batch-level guarantees: parallel determinism, cache efficiency on
//! realistic (repeated / near-duplicate) workloads, and deadline
//! isolation for deliberately hard undecidable jobs.

use pathcons_core::Budget;
use pathcons_engine::{BatchEngine, EngineConfig, Job, JobResult, Verdict};

/// (Σ, φ, context) templates over placeholder labels A/B/C, all in
/// decidable untyped fragments.
const TEMPLATES: &[(&[&str], &str, &str)] = &[
    (&["A -> B", "B -> C"], "A -> C", ""),
    (&["A -> B"], "B -> A", ""),
    (&["A -> B", "B -> A"], "A -> A", ""),
    (&["A: B -> C"], "A: B -> C", ""),
    (&["A -> A.B"], "A.B -> A", ""),
    (&["A.B -> C", "C -> A"], "A.B -> A", ""),
    (&["B -> A", "C -> B"], "C -> A", ""),
    (&["A -> B.C"], "A -> B", ""),
];

/// A workload of `n` jobs cycling through the decidable [`TEMPLATES`].
fn workload(n: usize) -> Vec<Job> {
    instantiate(n, TEMPLATES)
}

/// `n` jobs cycling through `templates`, with label names rotated so
/// most repeats are alpha-variants rather than byte-identical queries.
/// Schema-context templates use the schema's own lower-case labels,
/// which the A/B/C rotation leaves alone.
fn instantiate(n: usize, templates: &[(&[&str], &str, &str)]) -> Vec<Job> {
    // Rotating label alphabets: same shapes, different names.
    let alphabets: &[[&str; 3]] = &[
        ["a", "b", "c"],
        ["x", "y", "z"],
        ["foo", "bar", "baz"],
        ["b", "c", "a"],
        ["p", "q", "r"],
    ];
    (0..n)
        .map(|i| {
            let (sigma, phi, context) = templates[i % templates.len()];
            let names = alphabets[(i / templates.len()) % alphabets.len()];
            let instantiate = |text: &str| {
                text.replace('A', names[0])
                    .replace('B', names[1])
                    .replace('C', names[2])
            };
            Job {
                id: format!("job-{i}"),
                context: context.to_owned(),
                sigma: sigma.iter().map(|s| instantiate(s)).collect(),
                phi: instantiate(phi),
                deadline_ms: None,
                request_id: None,
            }
        })
        .collect()
}

/// The deterministic part of a result: everything except cache
/// hit/miss and latency, which legitimately vary with scheduling.
fn signature(result: &JobResult) -> (String, Verdict, Option<String>, Option<String>) {
    (
        result.id.clone(),
        result.verdict,
        result.method.clone(),
        result.unknown_kind.clone(),
    )
}

#[test]
fn parallel_batches_are_deterministic() {
    // The thread count never changes an answer: N-thread batches give
    // every job the same (id, verdict, method, unknown_kind), in input
    // order, as the 1-thread baseline, cold cache each time. Besides
    // the decidable templates, the workload mixes in a schema context
    // and an instance of general P_c, which is undecidable: only the
    // budget-bounded semi-deciders (chase, seeded search) answer it.
    let mut templates = TEMPLATES.to_vec();
    templates.push((
        &["book.author.wrote -> book"],
        "book -> book.author.wrote",
        "m-bibliography",
    ));
    templates.push((&["p: A -> A.B", "p: B <- C"], "p: A -> C", ""));
    let jobs = instantiate(150, &templates);
    let run = |threads: usize| -> Vec<_> {
        let engine = BatchEngine::new(EngineConfig {
            threads,
            budget: Budget::small(),
            ..EngineConfig::default()
        });
        engine
            .run_batch(jobs.clone())
            .results
            .iter()
            .map(signature)
            .collect()
    };
    let baseline = run(1);
    assert_eq!(baseline.len(), jobs.len());
    assert!(baseline.iter().all(|s| s.1 != Verdict::Error));
    for threads in [2, 4, 8] {
        assert_eq!(baseline, run(threads), "{threads}-thread batch diverged");
    }
}

#[test]
fn thousand_job_batch_exceeds_half_cache_hits() {
    // Acceptance: 1000 repeated / near-duplicate jobs, > 50% hit rate.
    let engine = BatchEngine::new(EngineConfig::default());
    let report = engine.run_batch(workload(1000));
    assert_eq!(report.stats.jobs, 1000);
    assert_eq!(report.stats.errors, 0);
    assert!(
        report.stats.hit_rate() > 0.5,
        "hit rate {:.1}% with {} hits / {} misses",
        report.stats.hit_rate() * 100.0,
        report.stats.hits,
        report.stats.misses,
    );
    // The workload has only 8 shapes; at most one miss per shape per
    // concurrent duplicate burst. Sanity-check the counters add up.
    assert_eq!(report.stats.hits + report.stats.misses, 1000);
}

#[test]
fn hard_job_deadline_does_not_delay_neighbours() {
    // Acceptance: a deliberately hard job — general P_c (backward
    // constraint under a prefix, so no complete procedure applies) with
    // a diverging chase and no countermodel the randomized search finds
    // (probed across seeds) — under a budget that would otherwise run
    // for minutes. Its 50 ms deadline must produce Unknown while
    // unrelated easy jobs (all in decidable fragments) are served
    // normally.
    let hard = Job {
        id: "hard".into(),
        context: String::new(),
        sigma: vec!["p: a -> a.b.c.d".into(), "p: d <- e".into()],
        phi: "p: a -> e".into(),
        deadline_ms: Some(50),
        request_id: None,
    };
    let mut jobs = vec![hard];
    jobs.extend(workload(60));

    let engine = BatchEngine::new(EngineConfig {
        threads: 2,
        budget: pathcons_core::Budget {
            chase_rounds: 1_000_000,
            chase_max_nodes: 1_000_000,
            search_samples: 1_000_000_000,
            ..pathcons_core::Budget::default()
        },
        ..EngineConfig::default()
    });
    let start = std::time::Instant::now();
    let report = engine.run_batch(jobs);
    let wall = start.elapsed();

    let hard_result = &report.results[0];
    assert_eq!(hard_result.verdict, Verdict::Unknown);
    assert_eq!(hard_result.detail.as_deref(), Some("deadline exceeded"));
    // The hard job respected its deadline (with generous scheduling
    // slack) instead of running the full multi-second budget.
    assert!(
        hard_result.micros < 2_000_000,
        "hard job took {} µs",
        hard_result.micros
    );
    // Every easy job still completed with a definite verdict.
    for result in &report.results[1..] {
        assert_ne!(result.verdict, Verdict::Error, "{}", result.id);
        assert_ne!(result.verdict, Verdict::Unknown, "{}", result.id);
    }
    // And the batch as a whole finished promptly.
    assert!(wall.as_secs() < 30, "batch took {wall:?}");
}
