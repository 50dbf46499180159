//! The `pathcons-resilience` layer: deterministic fault injection,
//! retry/shed policies, and the cache hit-validator.
//!
//! The batch engine's failure model (DESIGN.md section I) covers the
//! failures safe Rust can have: any worker may panic mid-job and any
//! semi-decider may stall. This module supplies the three pieces that
//! make those failures survivable *and testable*:
//!
//! - [`FaultPlan`]: a seed-driven, fully deterministic fault schedule.
//!   Given the same seed and job order, the same jobs receive the same
//!   faults on every run, so chaos tests can compare a faulted batch
//!   against a clean baseline job by job. Faults fire only on a job's
//!   *first* attempt — a retried job runs clean, which is exactly the
//!   recovery contract the supervisor promises.
//! - [`RetryPolicy`] / [`ShedPolicy`]: the knobs of supervised recovery
//!   (bounded retries with deadline-aware exponential backoff) and of
//!   the admission controller (queue-depth load shedding).
//! - [`validate_hit`]: structural re-validation of cached answers
//!   before they are served. An incoherent entry is detected here and
//!   evicted instead of returned.

use crate::cache::CachedEntry;
use pathcons_core::{Outcome, RefutationBasis, UnknownReason};
use std::collections::HashSet;
use std::time::Duration;

/// The kinds of fault the harness can inject. The taxonomy follows the
/// failure model: each kind corresponds to one real-world failure the
/// engine must survive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The job's worker panics before solving (a crashed worker). The
    /// supervisor respawns the worker and retries the job.
    Panic,
    /// The semi-decider stalls. The harness sleeps briefly and the
    /// deadline supervisor cuts the job off: it answers
    /// `Unknown(DeadlineExceeded)` instead of hanging the batch.
    Stall,
}

impl FaultKind {
    /// Every fault kind, in schedule order (the chaos matrix iterates
    /// this to build one single-kind plan per fault).
    pub const ALL: [FaultKind; 2] = [FaultKind::Panic, FaultKind::Stall];

    /// Stable name, used by `--chaos kind=…` and in test output.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Stall => "stall",
        }
    }

    fn parse(text: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|k| k.as_str() == text)
    }
}

/// A deterministic fault schedule over job indices.
///
/// Inactive unless installed in `EngineConfig::chaos` (the CLI only
/// installs one under `--chaos seed=N`), so production runs pay nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// Faulted jobs per 256 (so 256 faults every job).
    rate: u32,
    /// Restrict the schedule to a single kind (`None` mixes both).
    only: Option<FaultKind>,
}

impl FaultPlan {
    /// The default plan: roughly one job in eight receives a fault,
    /// cycling through every kind.
    pub fn from_seed(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rate: 32,
            only: None,
        }
    }

    /// The seed the plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the fault density (faulted jobs per 256; clamped to 256).
    pub fn with_rate(mut self, rate: u32) -> FaultPlan {
        self.rate = rate.min(256);
        self
    }

    /// Restricts the plan to a single fault kind.
    pub fn with_kind(mut self, kind: FaultKind) -> FaultPlan {
        self.only = Some(kind);
        self
    }

    /// Parses the `--chaos` argument: `seed=N[,rate=R][,kind=K]`, or a
    /// bare seed number.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        if let Ok(seed) = text.trim().parse::<u64>() {
            return Ok(FaultPlan::from_seed(seed));
        }
        let mut seed: Option<u64> = None;
        let mut rate: Option<u32> = None;
        let mut only: Option<FaultKind> = None;
        for part in text.split(',') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad chaos option `{part}` (expected key=value)"))?;
            match key.trim() {
                "seed" => {
                    seed = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| format!("bad chaos seed `{value}`"))?,
                    )
                }
                "rate" => {
                    rate = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| format!("bad chaos rate `{value}` (faults per 256)"))?,
                    )
                }
                "kind" => {
                    only = Some(FaultKind::parse(value.trim()).ok_or_else(|| {
                        format!("unknown fault kind `{value}` (expected panic or stall)")
                    })?)
                }
                other => return Err(format!("unknown chaos option `{other}`")),
            }
        }
        let seed = seed.ok_or("chaos plan needs seed=N")?;
        let mut plan = FaultPlan::from_seed(seed);
        if let Some(rate) = rate {
            plan = plan.with_rate(rate);
        }
        if let Some(kind) = only {
            plan = plan.with_kind(kind);
        }
        Ok(plan)
    }

    /// The fault (if any) for attempt `attempt` of job `index`.
    ///
    /// Deterministic in `(seed, index)`; always `None` for retries —
    /// the fault already fired on attempt 0, and the recovery contract
    /// is that a retried job runs clean.
    pub fn fault_for(&self, index: usize, attempt: usize) -> Option<FaultKind> {
        if attempt > 0 {
            return None;
        }
        let h = splitmix64(self.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if (h % 256) as u32 >= self.rate {
            return None;
        }
        Some(match self.only {
            Some(kind) => kind,
            None => FaultKind::ALL[((h >> 8) % FaultKind::ALL.len() as u64) as usize],
        })
    }

    /// How long a [`FaultKind::Stall`] sleeps (deterministic, bounded).
    pub fn stall_duration(&self, index: usize) -> Duration {
        let h = splitmix64(self.seed.wrapping_add(index as u64));
        Duration::from_millis(1 + h % 4)
    }
}

/// SplitMix64 — the standard 64-bit mixer; a full-avalanche hash is what
/// makes per-index fault decisions look independent while staying
/// reproducible.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How the supervisor retries a job whose worker died.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Retries per job after the first attempt (0 disables retrying).
    pub max_retries: usize,
    /// Backoff before retry `k` is `backoff_base * 2^k`, capped at
    /// [`RetryPolicy::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// No retries: a panicked job fails on its first death.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// The backoff before re-running a job that has already made
    /// `attempt + 1` attempts: exponential in the attempt, capped.
    pub fn backoff(&self, attempt: usize) -> Duration {
        let factor = 1u32 << attempt.min(16) as u32;
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

/// The admission controller's load-shedding policy.
#[derive(Clone, Debug, Default)]
pub struct ShedPolicy {
    /// Maximum jobs admitted per batch; the tail beyond this depth is
    /// answered `Unknown(Overloaded)` without ever reaching a worker.
    /// 0 disables shedding.
    pub max_queue_depth: usize,
}

impl ShedPolicy {
    /// Shedding disabled.
    pub fn unlimited() -> ShedPolicy {
        ShedPolicy { max_queue_depth: 0 }
    }

    /// Shed everything beyond `depth` queued jobs.
    pub fn queue_depth(depth: usize) -> ShedPolicy {
        ShedPolicy {
            max_queue_depth: depth,
        }
    }
}

/// Why the hit-validator rejected a cached entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HitInvalid {
    /// The stored renaming maps two labels to the same canonical label;
    /// adaptation through it would conflate labels.
    RenamingNotInjective,
    /// The cached outcome is one the engine never caches
    /// (deadline/overload `Unknown`s) — a torn or forged write.
    UncacheableOutcome,
    /// A `NotImplied` resting on a checked countermodel carries none.
    MissingCountermodel,
    /// A countermodel graph is structurally unsound (dangling edge
    /// endpoint or root).
    MalformedCountermodel,
}

impl std::fmt::Display for HitInvalid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HitInvalid::RenamingNotInjective => write!(f, "stored renaming is not injective"),
            HitInvalid::UncacheableOutcome => write!(f, "cached outcome is never-cacheable"),
            HitInvalid::MissingCountermodel => {
                write!(f, "countermodel-checked refutation without a countermodel")
            }
            HitInvalid::MalformedCountermodel => write!(f, "countermodel graph is unsound"),
        }
    }
}

/// Structurally re-validates a cached entry before it is served.
///
/// This is the cheap, deterministic checker of the "untrusted engine
/// computes, small trusted checker verifies" architecture (ROADMAP item
/// 3) applied to the cache: every invariant the insert path establishes
/// is re-checked at serve time, so a torn write — however it happened —
/// is detected and evicted instead of propagated. Cost is O(renaming +
/// countermodel edges); no solving, no hashing of the whole answer.
pub fn validate_hit(entry: &CachedEntry) -> Result<(), HitInvalid> {
    // 1. The renaming must be injective (adaptation inverts it).
    let mut images: HashSet<_> = HashSet::with_capacity(entry.renaming.len());
    for target in entry.renaming.values() {
        if !images.insert(*target) {
            return Err(HitInvalid::RenamingNotInjective);
        }
    }

    // 2. Outcome invariants.
    match &entry.answer.outcome {
        Outcome::Unknown(UnknownReason::DeadlineExceeded | UnknownReason::Overloaded) => {
            return Err(HitInvalid::UncacheableOutcome);
        }
        Outcome::NotImplied(refutation) => {
            if refutation.basis == RefutationBasis::CounterModelChecked
                && refutation.countermodel.is_none()
            {
                return Err(HitInvalid::MissingCountermodel);
            }
            if let Some(cm) = &refutation.countermodel {
                let n = cm.graph.node_count();
                if cm.graph.root().index() >= n
                    || cm
                        .graph
                        .edges()
                        .any(|(from, _, to)| from.index() >= n || to.index() >= n)
                {
                    return Err(HitInvalid::MalformedCountermodel);
                }
            }
        }
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::Renaming;
    use pathcons_core::{
        Answer, CounterModel, CounterModelProvenance, Evidence, Method, Outcome, Refutation,
    };
    use pathcons_graph::{Graph, Label};

    fn implied_entry(renaming: Renaming) -> CachedEntry {
        CachedEntry {
            answer: Answer {
                outcome: Outcome::Implied(Evidence::WordDerivation(None)),
                method: Method::WordAutomaton,
            },
            renaming,
            certificate: None,
        }
    }

    #[test]
    fn plans_are_deterministic_and_respect_rate() {
        let plan = FaultPlan::from_seed(42);
        for idx in 0..512 {
            assert_eq!(plan.fault_for(idx, 0), plan.fault_for(idx, 0));
            assert_eq!(plan.fault_for(idx, 1), None, "retries run clean");
        }
        let none = FaultPlan::from_seed(42).with_rate(0);
        assert!((0..512).all(|i| none.fault_for(i, 0).is_none()));
        let all = FaultPlan::from_seed(42).with_rate(256);
        assert!((0..512).all(|i| all.fault_for(i, 0).is_some()));
        let only = FaultPlan::from_seed(42)
            .with_rate(256)
            .with_kind(FaultKind::Stall);
        assert!((0..512).all(|i| only.fault_for(i, 0) == Some(FaultKind::Stall)));
    }

    #[test]
    fn plans_parse_from_cli_syntax() {
        assert_eq!(FaultPlan::parse("7").unwrap(), FaultPlan::from_seed(7));
        assert_eq!(
            FaultPlan::parse("seed=42").unwrap(),
            FaultPlan::from_seed(42)
        );
        assert_eq!(
            FaultPlan::parse("seed=42,rate=256,kind=panic").unwrap(),
            FaultPlan::from_seed(42)
                .with_rate(256)
                .with_kind(FaultKind::Panic)
        );
        assert!(FaultPlan::parse("rate=3").is_err(), "seed is required");
        assert!(FaultPlan::parse("seed=42,kind=gremlin").is_err());
        assert!(FaultPlan::parse("seed=42,kind=torn-cache-write").is_err());
        assert!(FaultPlan::parse("seed=42,bogus=1").is_err());
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RetryPolicy::default();
        assert!(policy.backoff(0) < policy.backoff(1));
        assert!(policy.backoff(20) <= policy.backoff_cap);
    }

    #[test]
    fn validator_accepts_sound_entries() {
        let mut renaming = Renaming::new();
        renaming.insert(Label::from_index(3), Label::from_index(0));
        renaming.insert(Label::from_index(5), Label::from_index(1));
        assert_eq!(validate_hit(&implied_entry(renaming)), Ok(()));
    }

    #[test]
    fn validator_rejects_non_injective_renamings() {
        let mut renaming = Renaming::new();
        renaming.insert(Label::from_index(3), Label::from_index(0));
        renaming.insert(Label::from_index(5), Label::from_index(0));
        assert_eq!(
            validate_hit(&implied_entry(renaming)),
            Err(HitInvalid::RenamingNotInjective)
        );
    }

    #[test]
    fn validator_rejects_uncacheable_and_incoherent_outcomes() {
        let torn = CachedEntry {
            answer: Answer {
                outcome: Outcome::Unknown(UnknownReason::DeadlineExceeded),
                method: Method::Chase,
            },
            renaming: Renaming::new(),
            certificate: None,
        };
        assert_eq!(validate_hit(&torn), Err(HitInvalid::UncacheableOutcome));

        let missing = CachedEntry {
            answer: Answer {
                outcome: Outcome::NotImplied(Refutation {
                    basis: RefutationBasis::CounterModelChecked,
                    countermodel: None,
                }),
                method: Method::CounterModelSearch,
            },
            renaming: Renaming::new(),
            certificate: None,
        };
        assert_eq!(validate_hit(&missing), Err(HitInvalid::MissingCountermodel));

        let sound = CachedEntry {
            answer: Answer {
                outcome: Outcome::NotImplied(Refutation::with_countermodel(CounterModel {
                    graph: Graph::new(),
                    types: None,
                    provenance: CounterModelProvenance::Search,
                })),
                method: Method::CounterModelSearch,
            },
            renaming: Renaming::new(),
            certificate: None,
        };
        assert_eq!(validate_hit(&sound), Ok(()));
    }
}
