//! # pathcons-engine
//!
//! A concurrent batch implication service on top of [`pathcons_core`]:
//! many `Σ ⊨ φ` questions, answered once each.
//!
//! Three pieces compose:
//!
//! - **Canonicalizing answer cache** ([`canon`], [`cache`]): queries
//!   are keyed by an alpha-renamed normal form of `(context, Σ, φ)` —
//!   Σ sorted and de-duplicated, labels renamed to first-occurrence
//!   order anchored at φ — so `{a→b} ⊨ b→a` and `{x→y} ⊨ y→x` share one
//!   cache entry. The key *is* the normal form (not a hash digest), so
//!   hits are sound by construction; countermodels are renamed back
//!   into the asking query's label space. A bounded LRU with
//!   hit/miss/eviction counters, plus a verify mode that re-solves
//!   every hit and counts disagreements.
//! - **Work-stealing executor** ([`executor`]): a small `std::thread`
//!   pool fans a `Vec<Job>` across cores; each job runs under
//!   `catch_unwind`, so a panicking job becomes an error result and
//!   never takes the batch down. A supervisor respawns dead workers
//!   and retries their jobs within a bounded, deadline-aware budget
//!   ([`executor::run_supervised`]).
//! - **Resilience layer** ([`resilience`]): deterministic fault
//!   injection (`--chaos seed=N`), retry/backoff and load-shedding
//!   policies, and a hit-validator that structurally checks cached
//!   answers before they are served. The injector covers the failures
//!   safe Rust can have: worker panics and solver stalls. A poisoned
//!   cache lock is cleared once and the cache emptied.
//! - **Deadline budgets** (in `pathcons_core`): `Budget::with_deadline`
//!   arms a wall-clock cut-off (plus optional cancellation flag)
//!   checked inside the chase and search loops; an out-of-time job
//!   answers `Unknown(DeadlineExceeded)` without delaying its
//!   neighbours. The undecidable cells of the paper's Table 1 make
//!   this load-bearing: some jobs *cannot* terminate with a verdict.
//!
//! The `pathcons batch` CLI subcommand is a thin front-end: JSONL jobs
//! in, JSONL results plus a stats summary (hit rate, p50/p99 latency,
//! unknowns) out. See [`Job`] for the wire format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod cache;
pub mod canon;
pub mod certify;
pub mod certwire;
pub mod executor;
pub mod json;
pub mod resilience;

pub use batch::{
    build_context, evidence_kind, prepare_job, unknown_reason_wire, BatchEngine, BatchReport,
    BatchStats, CacheOutcome, EngineConfig, Job, JobResult, PreparedJob, Verdict, VerifyMode,
};
pub use cache::{AnswerCache, CacheStats, CachedEntry};
pub use canon::{canonicalize, snapshot_id, CanonicalQuery, ContextKey, QueryKey, Renaming};
pub use certify::certify;
pub use certwire::{certificate_from_json, certificate_to_json};
pub use executor::ExecStats;
pub use json::{Json, JsonError};
pub use resilience::{validate_hit, FaultKind, FaultPlan, HitInvalid, RetryPolicy, ShedPolicy};
