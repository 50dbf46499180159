//! The acceptance matrix for the resilience layer: under every fault
//! plan, a 256-job batch completes with zero lost jobs, and the outcomes
//! of un-faulted jobs are identical to a chaos-free run of the same
//! workload.

use pathcons_core::Budget;
use pathcons_engine::{
    BatchEngine, EngineConfig, FaultKind, FaultPlan, Job, JobResult, RetryPolicy, Verdict,
};

/// Silences the panic noise of injected faults; genuine panics (test
/// assertions included) still print.
fn quiet_chaos_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if message.contains("chaos:") {
                return;
            }
            default(info);
        }));
    });
}

/// A 256-job workload mixing decidable shapes, alpha-variants (cache
/// hits), a schema context, and a budget-bounded undecidable instance.
/// No per-job deadlines: every outcome is deterministic, which is what
/// lets the matrix compare chaos runs against a clean baseline.
fn workload() -> Vec<Job> {
    let templates: &[(&[&str], &str, &str)] = &[
        (&["A -> B", "B -> C"], "A -> C", ""),
        (&["A -> B"], "B -> A", ""),
        (&["A -> B", "B -> A"], "A -> A", ""),
        (&["A: B -> C"], "A: B -> C", ""),
        (&["A -> A.B"], "A.B -> A", ""),
        (&["B -> A", "C -> B"], "C -> A", ""),
        // Undecidable general P_c: the chase diverges, the search finds
        // nothing, and the small budget yields a deterministic Unknown.
        (&["p: A -> A.B", "p: B <- C"], "p: A -> C", ""),
        (
            &["book.author.wrote -> book"],
            "book -> book.author.wrote",
            "m-bibliography",
        ),
    ];
    let alphabets: &[[&str; 3]] = &[
        ["a", "b", "c"],
        ["x", "y", "z"],
        ["foo", "bar", "baz"],
        ["p", "q", "r"],
    ];
    (0..256)
        .map(|i| {
            let (sigma, phi, context) = templates[i % templates.len()];
            let names = alphabets[(i / templates.len()) % alphabets.len()];
            let instantiate = |text: &str| {
                text.replace('A', names[0])
                    .replace('B', names[1])
                    .replace('C', names[2])
            };
            if context.is_empty() {
                Job {
                    id: format!("job-{i}"),
                    context: String::new(),
                    sigma: sigma.iter().map(|s| instantiate(s)).collect(),
                    phi: instantiate(phi),
                    deadline_ms: None,
                    request_id: None,
                }
            } else {
                // Schema jobs use fixed label names (the schema's own).
                Job {
                    id: format!("job-{i}"),
                    context: context.to_owned(),
                    sigma: sigma.iter().map(|s| (*s).to_owned()).collect(),
                    phi: phi.to_owned(),
                    deadline_ms: None,
                    request_id: None,
                }
            }
        })
        .collect()
}

fn engine(chaos: Option<FaultPlan>) -> BatchEngine {
    BatchEngine::new(EngineConfig {
        threads: 4,
        budget: Budget::small(),
        retry: RetryPolicy::default(),
        chaos,
        ..EngineConfig::default()
    })
}

/// The deterministic part of a result: everything except cache hit/miss
/// and latency (both legitimately vary across runs and under faults).
fn signature(result: &JobResult) -> (String, Verdict, Option<String>, Option<String>) {
    (
        result.id.clone(),
        result.verdict,
        result.method.clone(),
        result.unknown_kind.clone(),
    )
}

#[test]
fn every_fault_plan_completes_with_zero_lost_jobs_and_clean_survivors() {
    quiet_chaos_panics();
    let jobs = workload();
    let baseline: Vec<_> = engine(None)
        .run_batch(jobs.clone())
        .results
        .iter()
        .map(signature)
        .collect();
    assert_eq!(baseline.len(), 256);

    let mut plans: Vec<FaultPlan> = FaultKind::ALL
        .iter()
        .map(|kind| FaultPlan::from_seed(42).with_rate(64).with_kind(*kind))
        .collect();
    plans.push(FaultPlan::from_seed(42).with_rate(64)); // mixed kinds

    for plan in plans {
        let report = engine(Some(plan.clone())).run_batch(jobs.clone());

        // Zero lost jobs: one result per job, in input order, and no
        // job fell out of the retry budget (faults fire only on
        // attempt 0, so one retry always recovers).
        assert_eq!(report.results.len(), 256, "plan {plan:?}");
        let mut faulted = 0usize;
        for (idx, result) in report.results.iter().enumerate() {
            assert_eq!(result.id, format!("job-{idx}"), "plan {plan:?}");
            assert_ne!(
                result.verdict,
                Verdict::Error,
                "plan {plan:?} lost job {idx}: {:?}",
                result.detail
            );
            match plan.fault_for(idx, 0) {
                Some(FaultKind::Stall) => {
                    // A stalled worker gives up deterministically with
                    // a deadline `Unknown`.
                    faulted += 1;
                    assert_eq!(result.verdict, Verdict::Unknown, "plan {plan:?} job {idx}");
                    assert_eq!(
                        result.unknown_kind.as_deref(),
                        Some("deadline"),
                        "plan {plan:?} job {idx}"
                    );
                }
                Some(FaultKind::Panic) => {
                    // A panicked job is fully recovered: the retried
                    // outcome matches the clean run.
                    faulted += 1;
                    assert_eq!(
                        signature(result),
                        baseline[idx],
                        "plan {plan:?} job {idx} diverged after recovery"
                    );
                }
                None => {
                    assert_eq!(
                        signature(result),
                        baseline[idx],
                        "plan {plan:?} corrupted un-faulted job {idx}"
                    );
                }
            }
        }
        assert!(faulted > 0, "plan {plan:?} injected nothing at rate 64");

        // The recovery counters must account for the injected faults.
        let stats = &report.stats;
        if (0..256).any(|idx| plan.fault_for(idx, 0) == Some(FaultKind::Panic)) {
            assert!(stats.respawns > 0 && stats.retries > 0, "plan {plan:?}");
        }
        assert_eq!(stats.abandoned, 0, "plan {plan:?}");
    }
}
