//! Canonical metric family names and help strings.
//!
//! Every subsystem that records into the shared [`crate::MetricsRegistry`]
//! refers to families through these constants, so the serve layer, the
//! engine, the exposition tests, and the CI scrape validator all agree
//! on spelling. Prometheus conventions: `_total` suffix on counters,
//! unit suffix (`_micros`) on histograms, bare names for gauges.

/// Jobs answered by the resident service (counter).
pub const JOBS_TOTAL: &str = "pathcons_jobs_total";
/// Help for [`JOBS_TOTAL`].
pub const JOBS_TOTAL_HELP: &str = "Jobs answered by the resident service";

/// Connections accepted by the resident service (counter).
pub const CONNECTIONS_TOTAL: &str = "pathcons_connections_total";
/// Help for [`CONNECTIONS_TOTAL`].
pub const CONNECTIONS_TOTAL_HELP: &str = "Connections accepted";

/// Failed accepts on either listener, each retried after a back-off
/// (counter).
pub const ACCEPT_ERRORS_TOTAL: &str = "pathcons_accept_errors_total";
/// Help for [`ACCEPT_ERRORS_TOTAL`].
pub const ACCEPT_ERRORS_TOTAL_HELP: &str = "Failed accepts retried after a back-off";

/// Malformed request lines rejected (counter).
pub const MALFORMED_TOTAL: &str = "pathcons_malformed_total";
/// Help for [`MALFORMED_TOTAL`].
pub const MALFORMED_TOTAL_HELP: &str = "Malformed request lines rejected";

/// Jobs shed by admission control (counter).
pub const SHED_TOTAL: &str = "pathcons_shed_total";
/// Help for [`SHED_TOTAL`].
pub const SHED_TOTAL_HELP: &str = "Jobs shed by admission control";

/// Control-plane ops served (counter).
pub const OPS_TOTAL: &str = "pathcons_ops_total";
/// Help for [`OPS_TOTAL`].
pub const OPS_TOTAL_HELP: &str = "Control-plane ops served";

/// Jobs that crossed the slow-query threshold (counter).
pub const SLOW_JOBS_TOTAL: &str = "pathcons_slow_jobs_total";
/// Help for [`SLOW_JOBS_TOTAL`].
pub const SLOW_JOBS_TOTAL_HELP: &str = "Jobs slower than the --slow-ms threshold";

/// Jobs currently being solved (gauge).
pub const INFLIGHT: &str = "pathcons_inflight";
/// Help for [`INFLIGHT`].
pub const INFLIGHT_HELP: &str = "Jobs currently admitted and being solved";

/// Per-op service latency, labelled `op=` (histogram, microseconds).
pub const OP_LATENCY_MICROS: &str = "pathcons_op_latency_micros";
/// Help for [`OP_LATENCY_MICROS`].
pub const OP_LATENCY_MICROS_HELP: &str =
    "Service latency per operation in microseconds (log2 buckets)";

/// Trailing-window job throughput (gauge, jobs/second).
pub const JOB_RATE_PER_SEC: &str = "pathcons_job_rate_per_sec";
/// Help for [`JOB_RATE_PER_SEC`].
pub const JOB_RATE_PER_SEC_HELP: &str = "Trailing-window job throughput (jobs/second)";

/// Verdicts returned, labelled `verdict=` (counter).
pub const VERDICTS_TOTAL: &str = "pathcons_verdicts_total";
/// Help for [`VERDICTS_TOTAL`].
pub const VERDICTS_TOTAL_HELP: &str = "Verdicts returned, by verdict class";

/// Unknown verdicts by reason kind, labelled `kind=` (counter).
pub const UNKNOWN_TOTAL: &str = "pathcons_unknown_total";
/// Help for [`UNKNOWN_TOTAL`].
pub const UNKNOWN_TOTAL_HELP: &str = "Unknown verdicts, by reason kind";

/// Answer-cache lookups, labelled `outcome=hit|miss` (counter).
pub const CACHE_LOOKUPS_TOTAL: &str = "pathcons_cache_lookups_total";
/// Help for [`CACHE_LOOKUPS_TOTAL`].
pub const CACHE_LOOKUPS_TOTAL_HELP: &str = "Answer-cache lookups, by outcome";

/// Certificate checks on the hit path, labelled `result=` (counter).
pub const CERTCHECK_TOTAL: &str = "pathcons_certcheck_total";
/// Help for [`CERTCHECK_TOTAL`].
pub const CERTCHECK_TOTAL_HELP: &str = "Certificate checks on cache hits, by result";

/// Solver latency per answered job (histogram, microseconds).
pub const SOLVE_MICROS: &str = "pathcons_solve_micros";
/// Help for [`SOLVE_MICROS`].
pub const SOLVE_MICROS_HELP: &str = "Solver latency per answered job in microseconds";

/// Resilience events, labelled `event=` (counter).
pub const RESILIENCE_TOTAL: &str = "pathcons_resilience_total";
/// Help for [`RESILIENCE_TOTAL`].
pub const RESILIENCE_TOTAL_HELP: &str =
    "Resilience events (validation_evict: cached answers the hit-validator rejected)";

/// Answer-cache resident entries (gauge, set at scrape time).
pub const CACHE_ENTRIES: &str = "pathcons_cache_entries";
/// Help for [`CACHE_ENTRIES`].
pub const CACHE_ENTRIES_HELP: &str = "Answer-cache resident entries";

/// Answer-cache lifetime hit ratio (gauge, set at scrape time).
pub const CACHE_HIT_RATIO: &str = "pathcons_cache_hit_ratio";
/// Help for [`CACHE_HIT_RATIO`].
pub const CACHE_HIT_RATIO_HELP: &str = "Answer-cache lifetime hit ratio";

/// Per-context store revision, labelled `context=` (gauge).
pub const CONTEXT_REVISION: &str = "pathcons_context_revision";
/// Help for [`CONTEXT_REVISION`].
pub const CONTEXT_REVISION_HELP: &str = "Constraint-store revision per resident context";

/// Per-context jobs served, labelled `context=` (counter, set at scrape).
pub const CONTEXT_JOBS_TOTAL: &str = "pathcons_context_jobs_total";
/// Help for [`CONTEXT_JOBS_TOTAL`].
pub const CONTEXT_JOBS_TOTAL_HELP: &str = "Jobs served per resident context";

/// Per-context warm flag, labelled `context=` (gauge).
pub const CONTEXT_WARM: &str = "pathcons_context_warm";
/// Help for [`CONTEXT_WARM`].
pub const CONTEXT_WARM_HELP: &str =
    "1 when the context's shared state is built at its current revision";

/// Per-context word-automaton cache hits, labelled `context=` (counter, set at scrape).
pub const CONTEXT_WORD_HITS_TOTAL: &str = "pathcons_context_word_hits_total";
/// Help for [`CONTEXT_WORD_HITS_TOTAL`].
pub const CONTEXT_WORD_HITS_TOTAL_HELP: &str = "Cached post-automaton hits per context";

/// Per-context word-automaton cache misses, labelled `context=` (counter, set at scrape).
pub const CONTEXT_WORD_MISSES_TOTAL: &str = "pathcons_context_word_misses_total";
/// Help for [`CONTEXT_WORD_MISSES_TOTAL`].
pub const CONTEXT_WORD_MISSES_TOTAL_HELP: &str = "Cached post-automaton misses per context";
