//! # pathcons-engine
//!
//! A concurrent batch implication service on top of [`pathcons_core`]:
//! many `Σ ⊨ φ` questions, answered once each.
//!
//! Four pieces compose:
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
//! - **Executor** ([`executor`]): a small scoped `std::thread` pool
//!   fans a `Vec<Job>` across cores from one shared cursor; each job
//!   runs under `catch_unwind`, so a panicking job becomes an `error`
//!   result carrying its panic message and never takes the batch down.
//! - **Resilience layer** ([`resilience`]): the load-shedding policy
//!   and a hit-validator that structurally checks cached answers
//!   before they are served. A poisoned cache lock is cleared once and
//!   the cache emptied.
//! - **Deadline budgets** (in `pathcons_core`): `Budget::with_deadline`
//!   arms a wall-clock cut-off (plus optional cancellation flag)
//!   checked inside the chase and search loops; an out-of-time job
//!   answers `Unknown(DeadlineExceeded)` without delaying its
//!   neighbours. The undecidable cells of the paper's Table 1 make
//!   this load-bearing: some jobs *cannot* terminate with a verdict.
//!
//! [`BatchEngine`] has three entry points: [`BatchEngine::solve`]
//! answers one [`PreparedJob`] through the cache (the answer-level
//! entry every caller builds a `PreparedJob` for),
//! [`BatchEngine::solve_prepared`] wraps it into a wire [`JobResult`],
//! and [`BatchEngine::run_batch`] drives the worker pool. The engine
//! records no metrics: each cache event is counted once, in
//! [`CacheStats`], and every renderer (batch stats, the serve `stats`
//! op, the Prometheus scrape) reads [`BatchEngine::cache_snapshot`].
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
pub use json::{Json, JsonError};
pub use resilience::{validate_hit, HitInvalid, ShedPolicy};
