//! Resilience properties under random fault schedules:
//!
//! 1. a panic-injected job never loses or corrupts the results of its
//!    sibling jobs — every un-faulted result is identical to the same
//!    workload run without chaos;
//! 2. with the default retry budget, a retried job's outcome is itself
//!    identical to the un-faulted run (faults fire only on attempt 0,
//!    so the retry runs clean and full recovery is total).

use pathcons_core::Budget;
use pathcons_engine::{
    BatchEngine, EngineConfig, FaultKind, FaultPlan, Job, JobResult, RetryPolicy, Verdict,
};
use proptest::prelude::*;

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

/// A small deterministic workload (no deadlines, so every verdict is
/// reproducible) with alpha-variant repeats to exercise the cache.
fn workload(n: usize) -> Vec<Job> {
    let templates: &[(&[&str], &str)] = &[
        (&["A -> B", "B -> C"], "A -> C"),
        (&["A -> B"], "B -> A"),
        (&["A: B -> C"], "A: B -> C"),
        (&["A -> A.B"], "A.B -> A"),
        (&["p: A -> A.B", "p: B <- C"], "p: A -> C"),
    ];
    let alphabets: &[[&str; 3]] = &[["a", "b", "c"], ["x", "y", "z"], ["q", "r", "s"]];
    (0..n)
        .map(|i| {
            let (sigma, phi) = templates[i % templates.len()];
            let names = alphabets[(i / templates.len()) % alphabets.len()];
            let instantiate = |text: &str| {
                text.replace('A', names[0])
                    .replace('B', names[1])
                    .replace('C', names[2])
            };
            Job {
                id: format!("job-{i}"),
                context: String::new(),
                sigma: sigma.iter().map(|s| instantiate(s)).collect(),
                phi: instantiate(phi),
                deadline_ms: None,
                request_id: None,
            }
        })
        .collect()
}

fn signature(result: &JobResult) -> (String, Verdict, Option<String>, Option<String>) {
    (
        result.id.clone(),
        result.verdict,
        result.method.clone(),
        result.unknown_kind.clone(),
    )
}

fn run(jobs: Vec<Job>, threads: usize, chaos: Option<FaultPlan>) -> Vec<JobResult> {
    let engine = BatchEngine::new(EngineConfig {
        threads,
        budget: Budget::small(),
        retry: RetryPolicy::default(),
        chaos,
        ..EngineConfig::default()
    });
    engine.run_batch(jobs).results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Panic faults at a random seed/rate: siblings keep their exact
    /// clean-run results, and the panicked jobs themselves recover to
    /// the clean-run outcome via the supervised retry.
    #[test]
    fn injected_panics_never_lose_or_corrupt_results(
        seed in 0u64..u64::MAX,
        rate in 16u32..160,
        threads in 1usize..4,
    ) {
        quiet_chaos_panics();
        let jobs = workload(30);
        let clean: Vec<_> = run(jobs.clone(), threads, None).iter().map(signature).collect();
        let plan = FaultPlan::from_seed(seed).with_rate(rate).with_kind(FaultKind::Panic);
        let chaotic = run(jobs, threads, Some(plan));

        prop_assert_eq!(chaotic.len(), clean.len());
        for (idx, result) in chaotic.iter().enumerate() {
            prop_assert_eq!(&signature(result), &clean[idx], "job {} diverged", idx);
        }
    }

    /// With retries disabled, a panicked job is abandoned — but its
    /// siblings still come back bit-identical to the clean run, and the
    /// lost job is reported honestly as an error.
    #[test]
    fn without_retries_only_the_faulted_jobs_are_lost(
        seed in 0u64..u64::MAX,
    ) {
        quiet_chaos_panics();
        let jobs = workload(20);
        let clean: Vec<_> = run(jobs.clone(), 2, None).iter().map(signature).collect();
        let plan = FaultPlan::from_seed(seed).with_rate(64).with_kind(FaultKind::Panic);
        let engine = BatchEngine::new(EngineConfig {
            threads: 2,
            budget: Budget::small(),
            retry: RetryPolicy::none(),
            chaos: Some(plan.clone()),
            ..EngineConfig::default()
        });
        let chaotic = engine.run_batch(jobs).results;

        prop_assert_eq!(chaotic.len(), clean.len());
        for (idx, result) in chaotic.iter().enumerate() {
            if plan.fault_for(idx, 0) == Some(FaultKind::Panic) {
                prop_assert_eq!(result.verdict, Verdict::Error, "job {}", idx);
            } else {
                prop_assert_eq!(&signature(result), &clean[idx], "sibling {} corrupted", idx);
            }
        }
    }
}
