//! The batch engine: cached, parallel, deadline-bounded implication.

use crate::cache::{AnswerCache, CacheStats, CachedEntry};
use crate::canon::{self, snapshot_id, CanonicalQuery, Renaming};
use crate::certify::certify;
use crate::certwire;
use crate::executor;
use crate::json::Json;
use crate::resilience::{self, ShedPolicy};
use pathcons_cert::{self as cert, Certificate, CertificateBody};
use pathcons_constraints::PathConstraint;
use pathcons_core::{
    Answer, Budget, DataContext, Deadline, Evidence, Outcome, SchemaContext, SharedContext, Solver,
    SolverError, UnknownReason,
};
use pathcons_graph::LabelInterner;
use pathcons_telemetry::{schema, SpanGuard};
use pathcons_types::{example_bibliography_schema, example_bibliography_schema_m, TypeGraph};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How cache hits are verified before being served.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VerifyMode {
    /// Serve hits as-is (the production default).
    #[default]
    Off,
    /// Validate each hit's stored certificate with the solver-independent
    /// checker (`pathcons-cert`); an invalid certificate evicts the
    /// entry and falls through to a fresh solve. Hits without a
    /// certificate are served unchecked.
    Check,
    /// Re-solve every hit and compare answer shapes — the expensive
    /// oracle the certificate checker is measured against.
    Resolve,
}

/// Configuration of a [`BatchEngine`].
///
/// The engine records no metrics: its only counters are the answer
/// cache's [`CacheStats`], read through [`BatchEngine::cache_snapshot`],
/// and per-job counts belong to the caller (the serve loop's metrics
/// plane, or [`BatchStats`]).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads for batches; 0 means one per available core.
    pub threads: usize,
    /// Answer-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Hit-verification mode: off, certificate check, or re-solve.
    pub verify: VerifyMode,
    /// Base budget for every job (per-job deadlines are layered on top).
    pub budget: Budget,
    /// Admission-control policy: when to shed load with fast
    /// `Unknown(Overloaded)` answers.
    pub shed: ShedPolicy,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            threads: 0,
            cache_capacity: 4096,
            verify: VerifyMode::Off,
            budget: Budget::default(),
            shed: ShedPolicy::unlimited(),
        }
    }
}

/// Whether an answer came from the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache (possibly adapted across a renaming).
    Hit,
    /// Solved fresh (and stored, if cacheable).
    Miss,
}

/// A shareable batch implication service: answer cache + executor.
///
/// `solve` may be called concurrently from any number of threads; the
/// cache is internally synchronized (solving itself runs outside the
/// lock, so a slow miss never blocks hits).
pub struct BatchEngine {
    config: EngineConfig,
    cache: Mutex<AnswerCache>,
}

impl BatchEngine {
    /// An engine with the given configuration.
    pub fn new(config: EngineConfig) -> BatchEngine {
        let cache = Mutex::new(AnswerCache::new(config.cache_capacity));
        BatchEngine { config, cache }
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Locks the answer cache, recovering from poisoning.
    ///
    /// A poisoned lock means some thread panicked while holding it,
    /// possibly midway through a cache update. The first acquisition
    /// that sees the poison clears it and drops every entry (counters
    /// survive), so later acquisitions find a sound cache and the
    /// poison costs one cold refill, never a torn answer.
    fn cache_guard(&self) -> MutexGuard<'_, AnswerCache> {
        match self.cache.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.cache.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.clear();
                guard
            }
        }
    }

    /// The one read of cache state: counters and live entry count under
    /// a single lock acquisition, so the two views are mutually
    /// consistent even while other threads are solving. Every cache
    /// count a renderer shows (batch stats, the serve `stats` op, the
    /// metrics scrape) comes from here.
    pub fn cache_snapshot(&self) -> (CacheStats, usize) {
        let guard = self.cache_guard();
        (guard.stats(), guard.len())
    }

    /// Solves one prepared query through the cache: the engine's one
    /// answer-level entry point.
    ///
    /// On a miss the *original* query is solved (so the first answer for
    /// any query is exactly `Solver::implies`) and stored under its
    /// canonical key. On a hit the stored answer is adapted into the
    /// query's label space (countermodel edges are renamed through the
    /// composed bijection). Deadline `Unknown`s are never cached — a
    /// job that ran out of time must not poison richer-budget retries.
    ///
    /// The certificate (when present) lives in the *canonical* label
    /// space and is bound to the canonical key's snapshot id — see
    /// [`mod@crate::certify`]. On a hit it is the cached certificate; on a
    /// miss it is freshly emitted (and stored alongside the entry). In
    /// [`VerifyMode::Check`] a hit's certificate is validated by the
    /// trusted checker before the entry is served; an invalid one
    /// evicts the entry and the query is re-solved fresh.
    ///
    /// `job.shared` (when given and Σ-compatible) lets the solver answer
    /// word implications against cached saturated `post*` automata instead of solving cold; warm
    /// and cold answers are byte-identical (see
    /// [`pathcons_core::SharedContext`]). `job.revision` scopes the
    /// cache key: entries inserted under an earlier revision of a
    /// mutated context miss instead of being served, without touching
    /// any other context's entries. Certificates stay bound to the
    /// revisionless snapshot id, so serve results audit offline like
    /// batch results.
    pub fn solve(
        &self,
        job: &PreparedJob,
        budget: Budget,
    ) -> Result<(Answer, CacheOutcome, Option<Certificate>), SolverError> {
        let PreparedJob {
            context,
            sigma,
            phi,
            shared,
            revision,
        } = job;
        let mut canon = canon::canonicalize(context, sigma, phi);
        // The revision scopes the cache entry; snapshot ids (and so
        // certificates) ignore it.
        canon.key.revision = *revision;
        let cached = self.cache_guard().lookup(&canon.key);
        // Hit-validation: never serve a structurally implausible entry.
        // An incoherent entry is detected here, evicted, and the query
        // falls through to a fresh solve.
        let mut cached = cached.filter(|entry| {
            let valid = resilience::validate_hit(entry).is_ok();
            if !valid {
                self.cache_guard().evict_invalid(&canon.key);
            }
            valid
        });
        // Check mode: validate the stored certificate with the trusted
        // checker before serving. Orders of magnitude cheaper than a
        // re-solve (O(|certificate|) graph walks), and independent of
        // every solver code path it audits.
        if self.config.verify == VerifyMode::Check {
            if let Some(entry) = &cached {
                match entry_certificate_status(entry, &canon) {
                    CertStatus::Absent => {}
                    CertStatus::Valid => self.cache_guard().note_certcheck(true),
                    CertStatus::Invalid => {
                        // A corrupted certificate impeaches the whole
                        // entry: evict and re-solve, exactly like a
                        // failed structural validation.
                        let mut cache = self.cache_guard();
                        cache.note_certcheck(false);
                        cache.evict_invalid(&canon.key);
                        cached = None;
                    }
                }
            }
        }
        if let Some(entry) = cached {
            let certificate = entry.certificate.clone();
            let answer = adapt_answer(entry, &canon);
            if self.config.verify == VerifyMode::Resolve {
                // The re-solve oracle deliberately runs cold (no shared
                // state): it then also audits the warm path that may
                // have produced the cached answer.
                let fresh = Solver::new(context.clone())
                    .with_budget(budget)
                    .implies(sigma, phi)?;
                let agreed = same_answer_shape(&answer, &fresh);
                self.cache_guard().note_verification(agreed);
                if !agreed {
                    // Trust the fresh answer; the mismatch counter is
                    // the alarm bell. The cached certificate belongs to
                    // the impeached answer, so it is dropped with it.
                    return Ok((fresh, CacheOutcome::Hit, None));
                }
            }
            return Ok((answer, CacheOutcome::Hit, certificate));
        }

        let mut solver = Solver::new(context.clone()).with_budget(budget);
        if let Some(shared) = shared {
            solver = solver.with_shared(Arc::clone(shared));
        }
        let answer = solver.implies(sigma, phi)?;
        // Emission is self-checking: `certify` runs the trusted checker
        // and returns `None` rather than an invalid certificate.
        let certificate = certify(&canon, sigma, phi, &answer, shared.as_deref());
        if cacheable(&answer) {
            self.cache_guard().insert(
                canon.key,
                CachedEntry {
                    answer: answer.clone(),
                    renaming: canon.renaming,
                    certificate: certificate.clone(),
                },
            );
        }
        Ok((answer, CacheOutcome::Miss, certificate))
    }

    /// Runs a batch of JSONL jobs across the worker pool and reports
    /// per-job results plus batch statistics.
    ///
    /// The batch's cache deltas are computed from counter snapshots
    /// taken before and after the run — necessarily under *separate*
    /// lock acquisitions, since the batch itself runs in between. If
    /// other threads call `solve` concurrently with the batch, their
    /// cache activity lands inside the window and is attributed to the
    /// batch; the deltas are an upper bound, not an exact per-batch
    /// count.
    pub fn run_batch(&self, jobs: Vec<Job>) -> BatchReport {
        let telemetry = self.config.budget.telemetry.clone();
        let rec = telemetry.active();
        let _span = rec.map(|r| SpanGuard::enter(r, "batch"));
        let wall_start = Instant::now();
        // Deadlines are armed at *admission*: a job's clock starts when
        // the batch accepts it, not when a worker picks it up, so jobs
        // can expire while still queued (and are then answered without
        // occupying a worker slot — see `run_one`'s fast path).
        let admitted = wall_start;
        let (stats_before, _) = self.cache_snapshot();

        // Admission control: everything beyond the configured queue
        // depth is shed with an immediate `Unknown(Overloaded)` — a
        // cheap honest answer instead of unbounded queueing. Shed
        // verdicts are never cached (`cacheable`), so a retry on a
        // calmer engine gets a real answer.
        let mut jobs = jobs;
        let depth = self.config.shed.max_queue_depth;
        let shed_jobs = if depth > 0 && jobs.len() > depth {
            jobs.split_off(depth)
        } else {
            Vec::new()
        };

        let ids: Vec<String> = jobs.iter().map(|job| job.id.clone()).collect();
        let request_ids: Vec<Option<String>> =
            jobs.iter().map(|job| job.request_id.clone()).collect();
        let deadlines: Vec<Option<Instant>> = jobs
            .iter()
            .map(|job| {
                job.deadline_ms
                    .map(|ms| admitted + Duration::from_millis(ms))
            })
            .collect();
        let threads = if self.config.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.config.threads
        };

        let queued_expired = AtomicU64::new(0);
        let outcomes = executor::run_jobs(threads, jobs, &|idx, job: Job| {
            let request_id = job.request_id.clone();
            let mut result = self.run_one(job, deadlines[idx], &queued_expired);
            // A result that does not echo its own job id is a bug.
            // Treat it exactly like a job panic: an `error` result under
            // the job's own id, never an answer attributed to the wrong
            // id.
            assert_eq!(
                result.id, ids[idx],
                "malformed result for job {idx}: wrong id"
            );
            result.request_id = request_id;
            result
        });

        let mut results: Vec<JobResult> = outcomes
            .into_iter()
            .zip(ids)
            .zip(request_ids)
            .map(|((outcome, id), request_id)| {
                outcome.unwrap_or_else(|message| JobResult {
                    id,
                    verdict: Verdict::Error,
                    method: None,
                    detail: Some(format!("job panicked: {message}")),
                    unknown_kind: None,
                    unknown_phase: None,
                    cache: None,
                    certificate: None,
                    request_id,
                    micros: 0,
                })
            })
            .collect();
        let shed = shed_jobs.len();
        for job in shed_jobs {
            results.push(JobResult {
                id: job.id,
                verdict: Verdict::Unknown,
                method: None,
                detail: Some(UnknownReason::Overloaded.to_string()),
                unknown_kind: Some("overloaded".to_owned()),
                unknown_phase: None,
                cache: None,
                certificate: None,
                request_id: job.request_id,
                micros: 0,
            });
        }

        let stats = BatchStats::collect(
            &results,
            self.cache_snapshot().0,
            stats_before,
            wall_start.elapsed(),
            shed as u64,
            queued_expired.load(Ordering::Relaxed),
        );
        if let Some(rec) = rec {
            rec.event(
                schema::EVENT_BATCH_DONE,
                &[
                    ("jobs", stats.jobs as u64),
                    ("implied", stats.implied as u64),
                    ("not_implied", stats.not_implied as u64),
                    ("unknown", stats.unknown as u64),
                    ("errors", stats.errors as u64),
                    ("hits", stats.hits),
                    ("misses", stats.misses),
                    ("evictions", stats.evictions),
                    ("verify_mismatches", stats.verify_mismatches),
                    ("wall_micros", stats.wall_micros),
                    ("p50_micros", stats.p50_micros),
                    ("p99_micros", stats.p99_micros),
                    ("shed", stats.shed),
                    ("queued_expired", stats.queued_expired),
                    ("validation_evictions", stats.validation_evictions),
                    ("checked_hits", stats.checked_hits),
                    ("cert_invalid", stats.cert_invalid),
                ],
                &[(schema::LABEL_ENGINE, "batch")],
            );
            // A second attribution record accounts for the batch's
            // recovery actions: its `phase.*` fields partition
            // `steps_total`, so `trace-check` validates it like any
            // solver attribution.
            let steps = stats.shed + stats.queued_expired + stats.validation_evictions;
            rec.event(
                schema::EVENT_ATTRIBUTION,
                &[
                    (schema::FIELD_STEPS_TOTAL, steps),
                    (schema::PHASE_SHED, stats.shed),
                    (schema::PHASE_DEADLINE_QUEUE, stats.queued_expired),
                    (schema::PHASE_VALIDATION_EVICT, stats.validation_evictions),
                ],
                &[
                    (schema::LABEL_ENGINE, schema::ENGINE_BATCH_RESILIENCE),
                    (
                        schema::LABEL_OUTCOME,
                        if steps == 0 { "clean" } else { "recovered" },
                    ),
                ],
            );
            // In `--verify` check mode, a third record attributes the
            // certificate work on the hit path: every checked hit was
            // either validated or rejected, so the two phases partition
            // `steps_total` exactly.
            if self.config.verify == VerifyMode::Check {
                let checks = stats.checked_hits + stats.cert_invalid;
                rec.event(
                    schema::EVENT_ATTRIBUTION,
                    &[
                        (schema::FIELD_STEPS_TOTAL, checks),
                        (schema::PHASE_CERT_VALID, stats.checked_hits),
                        (schema::PHASE_CERT_INVALID, stats.cert_invalid),
                    ],
                    &[
                        (schema::LABEL_ENGINE, schema::ENGINE_CERTCHECK),
                        (
                            schema::LABEL_OUTCOME,
                            if stats.cert_invalid > 0 {
                                "invalid"
                            } else {
                                "clean"
                            },
                        ),
                    ],
                );
            }
        }
        BatchReport { results, stats }
    }

    /// Runs one job on a worker: parse, solve through the cache, shape
    /// the result. `deadline_at` is the job's absolute deadline (armed
    /// at admission); `queued_expired` counts deadline fast-path
    /// answers.
    fn run_one(
        &self,
        job: Job,
        deadline_at: Option<Instant>,
        queued_expired: &AtomicU64,
    ) -> JobResult {
        let telemetry = self.config.budget.telemetry.clone();
        let rec = telemetry.active();
        let _span = rec.map(|r| SpanGuard::enter(r, "batch.job"));
        let start = Instant::now();

        // Deadline-expired-in-queue fast path: a job whose absolute
        // deadline passed while it waited is answered immediately — it
        // must not occupy a worker slot solving a query whose caller
        // has already given up. Its detail matches the solver's own
        // `DeadlineExceeded` rendering, it is never cached, and `micros`
        // covers only the time it actually spent.
        if let Some(deadline) = deadline_at {
            if Instant::now() >= deadline {
                queued_expired.fetch_add(1, Ordering::Relaxed);
                return JobResult {
                    id: job.id,
                    verdict: Verdict::Unknown,
                    method: None,
                    detail: Some(UnknownReason::DeadlineExceeded.to_string()),
                    unknown_kind: Some("deadline".to_owned()),
                    unknown_phase: None,
                    cache: None,
                    certificate: None,
                    request_id: None,
                    micros: start.elapsed().as_micros() as u64,
                };
            }
        }

        let prepared = match prepare_job(
            &job.context,
            &job.sigma,
            &job.phi,
            &mut LabelInterner::new(),
        ) {
            Ok(prepared) => prepared,
            Err(detail) => {
                return JobResult {
                    id: job.id,
                    verdict: Verdict::Error,
                    method: None,
                    detail: Some(detail),
                    unknown_kind: None,
                    unknown_phase: None,
                    cache: None,
                    certificate: None,
                    request_id: None,
                    micros: start.elapsed().as_micros() as u64,
                }
            }
        };
        self.solve_prepared(job.id, &prepared, deadline_at, start)
    }

    /// Solves one prepared query with [`BatchEngine::solve`] and shapes
    /// the wire result — the single job-answering path shared by the
    /// batch worker (`run_one`) and the resident serve loop (`pathcons
    /// serve`), so both produce identical verdicts for identical
    /// inputs. `deadline_at` is the job's
    /// absolute wall-clock deadline (already armed by the caller);
    /// `start` is the instant the job was accepted, so `micros` covers
    /// queueing and parsing the caller already performed.
    pub fn solve_prepared(
        &self,
        id: String,
        prepared: &PreparedJob,
        deadline_at: Option<Instant>,
        start: Instant,
    ) -> JobResult {
        let mut budget = self.config.budget.clone();
        if let Some(deadline) = deadline_at {
            budget = budget.with_deadline_at(Deadline::at(deadline));
        }
        match self.solve(prepared, budget) {
            Err(e) => JobResult {
                id,
                verdict: Verdict::Error,
                method: None,
                detail: Some(e.to_string()),
                unknown_kind: None,
                unknown_phase: None,
                cache: None,
                certificate: None,
                request_id: None,
                micros: start.elapsed().as_micros() as u64,
            },
            Ok((answer, cache, certificate)) => {
                let (verdict, detail, unknown) = match &answer.outcome {
                    Outcome::Implied(_) => (Verdict::Implied, None, None),
                    Outcome::NotImplied(_) => (Verdict::NotImplied, None, None),
                    Outcome::Unknown(reason) => (
                        Verdict::Unknown,
                        Some(reason.to_string()),
                        Some(unknown_reason_wire(reason)),
                    ),
                };
                let (unknown_kind, unknown_phase) = match unknown {
                    Some((kind, phase)) => (Some(kind.to_owned()), phase.map(str::to_owned)),
                    None => (None, None),
                };
                JobResult {
                    id,
                    verdict,
                    method: Some(format!("{:?}", answer.method)),
                    detail,
                    unknown_kind,
                    unknown_phase,
                    cache: Some(cache),
                    certificate,
                    request_id: None,
                    micros: start.elapsed().as_micros() as u64,
                }
            }
        }
    }
}

/// What check mode learned about a cached entry's certificate.
enum CertStatus {
    /// No certificate stored; the hit is served unchecked.
    Absent,
    /// The certificate validated against the canonical query.
    Valid,
    /// Class mismatch or checker rejection; the entry is impeached.
    Invalid,
}

/// Validates a cached entry's certificate against the canonical query
/// it is keyed under: the certificate's verdict class must match the
/// stored answer's, and the trusted checker must accept it.
fn entry_certificate_status(entry: &CachedEntry, canon: &CanonicalQuery) -> CertStatus {
    let Some(certificate) = &entry.certificate else {
        return CertStatus::Absent;
    };
    let class_matches = matches!(
        (&certificate.body, &entry.answer.outcome),
        (CertificateBody::Implied(_), Outcome::Implied(_))
            | (CertificateBody::NotImplied(_), Outcome::NotImplied(_))
            | (CertificateBody::Unknown(_), Outcome::Unknown(_))
    );
    if !class_matches {
        return CertStatus::Invalid;
    }
    let context = cert::CheckContext {
        snapshot: snapshot_id(&canon.key),
        sigma: &canon.key.sigma,
        phi: &canon.key.phi,
    };
    if cert::check(certificate, &context).is_valid() {
        CertStatus::Valid
    } else {
        CertStatus::Invalid
    }
}

/// Maps a cached answer into the label space of the querying variant.
///
/// The stored answer lives in the label space of the query that
/// inserted it; `entry.renaming` maps that space into the canonical
/// one, and `canon.renaming` maps the current query's. Composing the
/// first with the inverse of the second renames countermodel edges.
/// Proof-style evidence is kept as-is: its *kind* is
/// renaming-invariant, and its embedded paths are correct up to the
/// alpha-renaming that the cache key equates.
fn adapt_answer(entry: CachedEntry, canon: &CanonicalQuery) -> Answer {
    let mut answer = entry.answer;
    if entry.renaming == canon.renaming {
        return answer;
    }
    let inverse = canon::invert(&canon.renaming);
    let translation: Renaming = entry
        .renaming
        .iter()
        .filter_map(|(stored, canonical)| inverse.get(canonical).map(|q| (*stored, *q)))
        .collect();
    if let Outcome::NotImplied(refutation) = &mut answer.outcome {
        if let Some(cm) = &mut refutation.countermodel {
            match canon::rename_graph(&cm.graph, &translation) {
                Some(graph) => cm.graph = graph,
                // Unreachable for countermodels produced by the solver
                // (they only use mentioned labels), but never return a
                // graph in the wrong label space.
                None => refutation.countermodel = None,
            }
        }
    }
    answer
}

/// Whether an answer may be stored: everything except deadline-induced
/// `Unknown`s (those depend on the per-job deadline, not the query) and
/// shed verdicts (those depend on transient queue depth, not the query).
fn cacheable(answer: &Answer) -> bool {
    !matches!(
        answer.outcome,
        Outcome::Unknown(UnknownReason::DeadlineExceeded)
            | Outcome::Unknown(UnknownReason::Overloaded)
    )
}

/// Structural agreement for verify mode: same verdict, and for positive
/// answers the same evidence kind.
fn same_answer_shape(a: &Answer, b: &Answer) -> bool {
    match (&a.outcome, &b.outcome) {
        (Outcome::Implied(ea), Outcome::Implied(eb)) => evidence_kind(ea) == evidence_kind(eb),
        (Outcome::NotImplied(_), Outcome::NotImplied(_)) => true,
        (Outcome::Unknown(ra), Outcome::Unknown(rb)) => ra == rb,
        _ => false,
    }
}

/// Stable wire names for an `Unknown` outcome: a machine-readable kind
/// plus, for step-budget exhaustion, the budget phase that ran dry.
/// These back the additive `unknown_kind` / `unknown_phase` fields of
/// the result JSON (the human-oriented `detail` string stays as-is).
pub fn unknown_reason_wire(reason: &UnknownReason) -> (&'static str, Option<&'static str>) {
    match reason {
        UnknownReason::ChaseBudgetExhausted => ("chase-budget", None),
        UnknownReason::SearchBudgetExhausted => ("search-budget", None),
        UnknownReason::StepBudgetExhausted { phase } => ("step-budget", Some(phase.as_str())),
        UnknownReason::AllBudgetsExhausted => ("all-budgets", None),
        UnknownReason::UntypedCounterModelNotTyped => ("untyped-countermodel-not-typed", None),
        UnknownReason::DeadlineExceeded => ("deadline", None),
        UnknownReason::Overloaded => ("overloaded", None),
    }
}

/// A stable name for an evidence constructor.
pub fn evidence_kind(evidence: &Evidence) -> &'static str {
    match evidence {
        Evidence::WordDerivation(_) => "word-derivation",
        Evidence::LocalExtentReduction(_) => "local-extent-reduction",
        Evidence::IrProof(_) => "ir-proof",
        Evidence::VacuousOverSchema => "vacuous-over-schema",
        Evidence::InconsistentTheory { .. } => "inconsistent-theory",
        Evidence::ChaseForced { .. } => "chase-forced",
        Evidence::UntypedImplication(_) => "untyped-implication",
    }
}

/// Builds the solver context named by a job's `context` field.
///
/// Schema contexts are limited to the named example schemas (the JSONL
/// format has no schema syntax); the CLI's `implies` subcommand remains
/// the way to query arbitrary schema files.
pub fn build_context(name: &str, labels: &mut LabelInterner) -> Result<DataContext, String> {
    match name {
        "" | "semistructured" | "untyped" => Ok(DataContext::Semistructured),
        "m-bibliography" => {
            let schema = example_bibliography_schema_m(labels);
            let tg = TypeGraph::build(&schema, labels);
            Ok(DataContext::M(SchemaContext::new(schema, tg)))
        }
        "mplus-bibliography" => {
            let schema = example_bibliography_schema(labels);
            let tg = TypeGraph::build(&schema, labels);
            Ok(DataContext::MPlus(SchemaContext::new(schema, tg)))
        }
        other => Err(format!(
            "unknown context `{other}` (expected semistructured, m-bibliography or mplus-bibliography)"
        )),
    }
}

/// A job's query parsed into one label space and ready to solve: the
/// context built, the hypotheses and the goal parsed.
///
/// Produced by [`prepare_job`] (the cold path: everything rebuilt from
/// the job's texts) or assembled directly by a resident context store
/// that already holds a prebuilt [`DataContext`] and parsed base Σ.
#[derive(Clone, Debug)]
pub struct PreparedJob {
    /// The solver context the query runs in.
    pub context: DataContext,
    /// Σ, parsed.
    pub sigma: Vec<PathConstraint>,
    /// φ, parsed.
    pub phi: PathConstraint,
    /// Per-context amortization state (the `post*` cache) the solver
    /// may reuse instead of solving cold. `None` for cold jobs;
    /// a resident store attaches its context's state when the job's Σ
    /// is exactly the context's base Σ.
    pub shared: Option<Arc<SharedContext>>,
    /// Revision of the resident context, scoping the engine's cache key
    /// (see [`crate::QueryKey::revision`]). `0` for cold jobs.
    pub revision: u64,
}

/// Parses a job's `(context, sigma, phi)` triple into `labels` — the
/// one context-building path shared by the batch worker, the offline
/// certificate auditor (`pathcons check --results`), and the serve
/// loop's fallback for jobs naming no stored context.
pub fn prepare_job(
    context_name: &str,
    sigma_texts: &[String],
    phi_text: &str,
    labels: &mut LabelInterner,
) -> Result<PreparedJob, String> {
    let context = build_context(context_name, labels)?;
    let mut sigma = Vec::with_capacity(sigma_texts.len());
    for text in sigma_texts {
        sigma.push(
            PathConstraint::parse(text, labels)
                .map_err(|e| format!("bad constraint `{text}`: {e}"))?,
        );
    }
    let phi = PathConstraint::parse(phi_text, labels)
        .map_err(|e| format!("bad query `{phi_text}`: {e}"))?;
    Ok(PreparedJob {
        context,
        sigma,
        phi,
        shared: None,
        revision: 0,
    })
}

/// One implication job, as read from a JSONL line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    /// Caller-chosen identifier, echoed in the result.
    pub id: String,
    /// Context name ("" / "semistructured" / "m-bibliography" / …).
    pub context: String,
    /// Constraint texts (compact syntax, e.g. `book: author <- wrote`).
    pub sigma: Vec<String>,
    /// The query constraint text.
    pub phi: String,
    /// Optional per-job wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Optional caller-supplied correlation id, echoed verbatim in the
    /// result record and propagated into telemetry spans and the
    /// slow-query log. The resident service assigns one
    /// (`r-<connection>-<line>`) when the caller sends none.
    pub request_id: Option<String>,
}

impl Job {
    /// Parses one JSONL line.
    pub fn from_json_line(line: &str) -> Result<Job, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let id = v
            .get("id")
            .and_then(Json::as_str)
            .ok_or("missing string field `id`")?
            .to_owned();
        let phi = v
            .get("phi")
            .and_then(Json::as_str)
            .ok_or("missing string field `phi`")?
            .to_owned();
        let context = match v.get("context") {
            None => String::new(),
            Some(c) => c
                .as_str()
                .ok_or("field `context` must be a string")?
                .to_owned(),
        };
        let sigma = match v.get("sigma") {
            None => Vec::new(),
            Some(s) => s
                .as_array()
                .ok_or("field `sigma` must be an array of strings")?
                .iter()
                .map(|item| {
                    item.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| "field `sigma` must be an array of strings".to_owned())
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let deadline_ms = match v.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(d) => Some(
                d.as_u64()
                    .ok_or("field `deadline_ms` must be a non-negative integer")?,
            ),
        };
        let request_id = match v.get("request_id") {
            None | Some(Json::Null) => None,
            Some(r) => Some(
                r.as_str()
                    .ok_or("field `request_id` must be a string")?
                    .to_owned(),
            ),
        };
        Ok(Job {
            id,
            context,
            sigma,
            phi,
            deadline_ms,
            request_id,
        })
    }

    /// Parses a whole JSONL document (blank lines and `#` comment lines
    /// are skipped). A malformed line never aborts the batch: parseable
    /// jobs are returned alongside `(1-based line number, error)`
    /// records for the rest, so callers can emit a per-line error
    /// result and keep going.
    pub fn parse_jobs_lossy(text: &str) -> (Vec<Job>, Vec<(usize, String)>) {
        let mut jobs = Vec::new();
        let mut bad = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match Job::from_json_line(line) {
                Ok(job) => jobs.push(job),
                Err(e) => bad.push((lineno + 1, e)),
            }
        }
        (jobs, bad)
    }

    /// Serializes the job back to one JSONL line.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("id".to_owned(), Json::Str(self.id.clone())),
            (
                "sigma".to_owned(),
                Json::Arr(self.sigma.iter().cloned().map(Json::Str).collect()),
            ),
            ("phi".to_owned(), Json::Str(self.phi.clone())),
        ];
        if !self.context.is_empty() {
            members.insert(1, ("context".to_owned(), Json::Str(self.context.clone())));
        }
        if let Some(ms) = self.deadline_ms {
            members.push(("deadline_ms".to_owned(), Json::Num(ms as f64)));
        }
        if let Some(rid) = &self.request_id {
            members.push(("request_id".to_owned(), Json::Str(rid.clone())));
        }
        Json::Obj(members)
    }
}

/// A job's three-valued verdict (or a job-level failure).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Verdict {
    /// `Σ ⊨ φ`.
    Implied,
    /// `Σ ⊭ φ`.
    NotImplied,
    /// Budget or deadline ran out (undecidable context).
    Unknown,
    /// The job itself failed (parse error, bad context, panic).
    Error,
}

impl Verdict {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Implied => "implied",
            Verdict::NotImplied => "not-implied",
            Verdict::Unknown => "unknown",
            Verdict::Error => "error",
        }
    }
}

/// The per-job outcome written to the result stream.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The job's identifier.
    pub id: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Solver method (absent for failed jobs).
    pub method: Option<String>,
    /// Unknown reason or error message.
    pub detail: Option<String>,
    /// Machine-readable `Unknown` kind (`step-budget`, `deadline`, …);
    /// absent unless the verdict is `Unknown`.
    pub unknown_kind: Option<String>,
    /// The exhausted budget phase, when `unknown_kind` is `step-budget`.
    pub unknown_phase: Option<String>,
    /// Cache hit/miss (absent for jobs that never reached the solver).
    pub cache: Option<CacheOutcome>,
    /// A checkable certificate for the verdict, in the canonical label
    /// space of the job's query (see [`crate::certify`]); absent when
    /// the evidence kind has no certificate form or the job never
    /// reached the solver. Serialized under the `certificate` key; a
    /// results file carrying them can be audited offline with
    /// `pathcons check --results`.
    pub certificate: Option<Certificate>,
    /// The correlation id this result answers: the job's own
    /// `request_id` if it sent one, else the id the resident service
    /// assigned at admission. Absent only for offline paths that never
    /// assigned one.
    pub request_id: Option<String>,
    /// Wall-clock latency of the job, in microseconds.
    pub micros: u64,
}

impl JobResult {
    /// Serializes to one JSONL line.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("id".to_owned(), Json::Str(self.id.clone())),
            (
                "verdict".to_owned(),
                Json::Str(self.verdict.as_str().to_owned()),
            ),
        ];
        if let Some(method) = &self.method {
            members.push(("method".to_owned(), Json::Str(method.clone())));
        }
        if let Some(detail) = &self.detail {
            members.push(("detail".to_owned(), Json::Str(detail.clone())));
        }
        if let Some(kind) = &self.unknown_kind {
            members.push(("unknown_kind".to_owned(), Json::Str(kind.clone())));
        }
        if let Some(phase) = &self.unknown_phase {
            members.push(("unknown_phase".to_owned(), Json::Str(phase.clone())));
        }
        if let Some(cache) = self.cache {
            let text = match cache {
                CacheOutcome::Hit => "hit",
                CacheOutcome::Miss => "miss",
            };
            members.push(("cache".to_owned(), Json::Str(text.to_owned())));
        }
        if let Some(certificate) = &self.certificate {
            members.push((
                "certificate".to_owned(),
                certwire::certificate_to_json(certificate),
            ));
        }
        if let Some(rid) = &self.request_id {
            members.push(("request_id".to_owned(), Json::Str(rid.clone())));
        }
        members.push(("micros".to_owned(), Json::Num(self.micros as f64)));
        Json::Obj(members)
    }
}

/// Batch-level statistics.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Jobs in the batch.
    pub jobs: usize,
    /// Cache hits during the batch.
    pub hits: u64,
    /// Cache misses during the batch.
    pub misses: u64,
    /// Cache evictions during the batch.
    pub evictions: u64,
    /// Jobs answered `implied`.
    pub implied: usize,
    /// Jobs answered `not-implied`.
    pub not_implied: usize,
    /// Jobs answered `unknown`.
    pub unknown: usize,
    /// Failed jobs (parse errors, panics).
    pub errors: usize,
    /// Median per-job latency, µs.
    pub p50_micros: u64,
    /// 99th-percentile per-job latency, µs.
    pub p99_micros: u64,
    /// Slowest job, µs.
    pub max_micros: u64,
    /// Wall-clock time of the whole batch, µs.
    pub wall_micros: u64,
    /// Verify-mode disagreements observed during the batch.
    pub verify_mismatches: u64,
    /// Jobs shed by the admission controller (`Unknown(Overloaded)`).
    pub shed: u64,
    /// Jobs whose deadline expired while queued, answered without
    /// occupying a worker slot.
    pub queued_expired: u64,
    /// Cache hits rejected by the hit-validator and evicted.
    pub validation_evictions: u64,
    /// Hits served after certificate validation (`--verify` check mode).
    pub checked_hits: u64,
    /// Hits whose certificate the checker rejected (entry evicted, job
    /// re-solved fresh). Any non-zero value is an alarm bell.
    pub cert_invalid: u64,
}

impl BatchStats {
    fn collect(
        results: &[JobResult],
        after: CacheStats,
        before: CacheStats,
        wall: Duration,
        shed: u64,
        queued_expired: u64,
    ) -> BatchStats {
        let mut latencies: Vec<u64> = results.iter().map(|r| r.micros).collect();
        latencies.sort_unstable();
        let percentile = |p: f64| -> u64 {
            if latencies.is_empty() {
                return 0;
            }
            let rank = (p * (latencies.len() - 1) as f64).round() as usize;
            latencies[rank.min(latencies.len() - 1)]
        };
        let count = |v: Verdict| results.iter().filter(|r| r.verdict == v).count();
        BatchStats {
            jobs: results.len(),
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            implied: count(Verdict::Implied),
            not_implied: count(Verdict::NotImplied),
            unknown: count(Verdict::Unknown),
            errors: count(Verdict::Error),
            p50_micros: percentile(0.50),
            p99_micros: percentile(0.99),
            max_micros: latencies.last().copied().unwrap_or(0),
            wall_micros: wall.as_micros() as u64,
            verify_mismatches: after.verify_mismatches - before.verify_mismatches,
            shed,
            queued_expired,
            validation_evictions: after.validation_evictions - before.validation_evictions,
            checked_hits: after.checked_hits - before.checked_hits,
            cert_invalid: after.cert_invalid - before.cert_invalid,
        }
    }

    /// The fraction of solver-reaching lookups served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Serializes to a JSON object (the batch's trailing summary line).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![(
            "stats".to_owned(),
            Json::Obj(vec![
                ("jobs".to_owned(), Json::Num(self.jobs as f64)),
                ("hits".to_owned(), Json::Num(self.hits as f64)),
                ("misses".to_owned(), Json::Num(self.misses as f64)),
                ("evictions".to_owned(), Json::Num(self.evictions as f64)),
                ("implied".to_owned(), Json::Num(self.implied as f64)),
                ("not_implied".to_owned(), Json::Num(self.not_implied as f64)),
                ("unknown".to_owned(), Json::Num(self.unknown as f64)),
                ("errors".to_owned(), Json::Num(self.errors as f64)),
                ("p50_micros".to_owned(), Json::Num(self.p50_micros as f64)),
                ("p99_micros".to_owned(), Json::Num(self.p99_micros as f64)),
                ("max_micros".to_owned(), Json::Num(self.max_micros as f64)),
                ("wall_micros".to_owned(), Json::Num(self.wall_micros as f64)),
                (
                    "verify_mismatches".to_owned(),
                    Json::Num(self.verify_mismatches as f64),
                ),
                ("shed".to_owned(), Json::Num(self.shed as f64)),
                (
                    "queued_expired".to_owned(),
                    Json::Num(self.queued_expired as f64),
                ),
                (
                    "validation_evictions".to_owned(),
                    Json::Num(self.validation_evictions as f64),
                ),
                (
                    "checked_hits".to_owned(),
                    Json::Num(self.checked_hits as f64),
                ),
                (
                    "cert_invalid".to_owned(),
                    Json::Num(self.cert_invalid as f64),
                ),
            ]),
        )])
    }

    /// A one-paragraph human-readable summary (for stderr).
    pub fn render(&self) -> String {
        format!(
            "{} jobs in {:.1} ms: {} implied, {} not implied, {} unknown, {} errors; \
             cache {} hits / {} misses ({:.0}% hit rate, {} evictions); \
             latency p50 {} µs, p99 {} µs, max {} µs{}{}",
            self.jobs,
            self.wall_micros as f64 / 1000.0,
            self.implied,
            self.not_implied,
            self.unknown,
            self.errors,
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.evictions,
            self.p50_micros,
            self.p99_micros,
            self.max_micros,
            self.render_resilience(),
            self.render_verification()
        )
    }

    /// The verification clause of [`BatchStats::render`]: silent unless
    /// something was checked or something went wrong.
    fn render_verification(&self) -> String {
        let mut out = String::new();
        if self.checked_hits > 0 {
            out.push_str(&format!("; {} hits certificate-checked", self.checked_hits));
        }
        if self.cert_invalid > 0 {
            out.push_str(&format!("; {} INVALID CERTIFICATES", self.cert_invalid));
        }
        if self.verify_mismatches > 0 {
            out.push_str(&format!("; {} VERIFY MISMATCHES", self.verify_mismatches));
        }
        out
    }

    /// The resilience clause of [`BatchStats::render`]: empty for a
    /// clean batch, otherwise only the non-zero recovery counters.
    fn render_resilience(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (count, noun) in [
            (self.shed, "shed"),
            (self.queued_expired, "expired in queue"),
            (self.validation_evictions, "validation evictions"),
        ] {
            if count > 0 {
                parts.push(format!("{count} {noun}"));
            }
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("; resilience: {}", parts.join(", "))
        }
    }
}

/// Results plus statistics for one batch.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-job results, in job order.
    pub results: Vec<JobResult>,
    /// Batch statistics.
    pub stats: BatchStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcons_constraints::parse_constraints;

    /// An untyped query parsed into a fresh label space.
    fn prepared(sigma_text: &str, phi_text: &str) -> PreparedJob {
        let mut labels = LabelInterner::new();
        PreparedJob {
            context: DataContext::Semistructured,
            sigma: parse_constraints(sigma_text, &mut labels).unwrap(),
            phi: PathConstraint::parse(phi_text, &mut labels).unwrap(),
            shared: None,
            revision: 0,
        }
    }

    fn solve_text(
        engine: &BatchEngine,
        sigma_text: &str,
        phi_text: &str,
    ) -> (Answer, CacheOutcome) {
        let (answer, cache, _) = engine
            .solve(&prepared(sigma_text, phi_text), Budget::default())
            .unwrap();
        (answer, cache)
    }

    #[test]
    fn repeat_queries_hit() {
        let engine = BatchEngine::new(EngineConfig::default());
        let (a1, c1) = solve_text(&engine, "a -> b\nb -> c", "a -> c");
        let (a2, c2) = solve_text(&engine, "a -> b\nb -> c", "a -> c");
        assert_eq!(c1, CacheOutcome::Miss);
        assert_eq!(c2, CacheOutcome::Hit);
        assert!(a1.outcome.is_implied() && a2.outcome.is_implied());
    }

    #[test]
    fn alpha_variants_hit_and_countermodels_are_renamed() {
        let engine = BatchEngine::new(EngineConfig::default());
        let (a1, c1) = solve_text(&engine, "a -> b", "b -> a");
        assert_eq!(c1, CacheOutcome::Miss);
        assert!(a1.outcome.is_not_implied());

        // Same query with different label names: x ↔ a, y ↔ b.
        let job = prepared("x -> y", "y -> x");
        let (a2, c2, _) = engine.solve(&job, Budget::default()).unwrap();
        assert_eq!(c2, CacheOutcome::Hit);
        // The adapted countermodel must refute *this* query, i.e. be in
        // this query's label space.
        let cm = a2.outcome.countermodel().expect("countermodel survives");
        assert!(pathcons_core::is_countermodel(
            &cm.graph, &job.sigma, &job.phi
        ));
    }

    #[test]
    fn verify_mode_counts_and_agrees() {
        let engine = BatchEngine::new(EngineConfig {
            verify: VerifyMode::Resolve,
            ..EngineConfig::default()
        });
        solve_text(&engine, "a -> b", "a -> b");
        solve_text(&engine, "a -> b", "a -> b");
        solve_text(&engine, "c -> d", "c -> d"); // alpha-variant hit
        let (stats, _) = engine.cache_snapshot();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.verifications, 2);
        assert_eq!(stats.verify_mismatches, 0);
    }

    #[test]
    fn deadline_unknowns_are_not_cached() {
        let engine = BatchEngine::new(EngineConfig::default());
        // A general-P_c instance (growing forward constraint plus a
        // backward one, under a prefix): routed to the chase/search
        // semi-deciders, where an already-expired deadline yields
        // DeadlineExceeded immediately.
        let job = prepared("p: a -> a.b\np: b <- c", "p: a -> c");
        let budget = Budget::small().with_deadline(Duration::ZERO);
        let (answer, _, _) = engine.solve(&job, budget).unwrap();
        assert!(matches!(
            answer.outcome,
            Outcome::Unknown(UnknownReason::DeadlineExceeded)
        ));
        let (_, entries) = engine.cache_snapshot();
        assert_eq!(entries, 0, "deadline Unknown must not be cached");
    }

    #[test]
    fn jobs_parse_and_round_trip() {
        let text = r#"
            {"id":"j1","sigma":["a -> b"],"phi":"b -> a","deadline_ms":50}
            # a comment
            {"id":"j2","context":"m-bibliography","phi":"book -> book"}
            {"id":"x"}
        "#;
        let (jobs, bad) = Job::parse_jobs_lossy(text);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].deadline_ms, Some(50));
        assert_eq!(jobs[1].context, "m-bibliography");
        // The line without `phi` is reported by its 1-based line
        // number; its neighbours still parse.
        assert_eq!(bad.len(), 1, "phi is required: {bad:?}");
        assert_eq!(bad[0].0, 5);
        assert!(bad[0].1.contains("phi"), "{bad:?}");
        for job in &jobs {
            let reparsed = Job::from_json_line(&job.to_json().to_string()).unwrap();
            assert_eq!(&reparsed, job);
        }
    }

    #[test]
    fn batch_reports_stats_and_isolates_bad_jobs() {
        let engine = BatchEngine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let jobs = vec![
            Job {
                id: "good".into(),
                context: String::new(),
                sigma: vec!["a -> b".into(), "b -> c".into()],
                phi: "a -> c".into(),
                deadline_ms: None,
                request_id: None,
            },
            Job {
                id: "bad-syntax".into(),
                context: String::new(),
                sigma: vec!["a -> ".into()],
                phi: "a -> a".into(),
                deadline_ms: None,
                request_id: None,
            },
            Job {
                id: "bad-context".into(),
                context: "no-such-context".into(),
                sigma: vec![],
                phi: "a -> a".into(),
                deadline_ms: None,
                request_id: None,
            },
        ];
        let report = engine.run_batch(jobs);
        assert_eq!(report.stats.jobs, 3);
        assert_eq!(report.stats.implied, 1);
        assert_eq!(report.stats.errors, 2);
        assert_eq!(report.results[0].verdict, Verdict::Implied);
        assert_eq!(report.results[1].verdict, Verdict::Error);
        assert!(report.results[2]
            .detail
            .as_deref()
            .unwrap()
            .contains("unknown context"));
        // Stats serialize and render without panicking.
        let _ = report.stats.to_json().to_string();
        let _ = report.stats.render();
    }

    #[test]
    fn unknown_results_carry_kind_and_phase_fields() {
        let engine = BatchEngine::new(EngineConfig::default());
        let jobs = vec![
            Job {
                id: "timed-out".into(),
                context: String::new(),
                sigma: vec!["p: a -> a.b".into(), "p: b <- c".into()],
                phi: "p: a -> c".into(),
                deadline_ms: Some(0),
                request_id: None,
            },
            Job {
                id: "easy".into(),
                context: String::new(),
                sigma: vec!["a -> b".into()],
                phi: "a -> b".into(),
                deadline_ms: None,
                request_id: None,
            },
        ];
        let report = engine.run_batch(jobs);
        let unknown = &report.results[0];
        assert_eq!(unknown.verdict, Verdict::Unknown);
        assert_eq!(unknown.unknown_kind.as_deref(), Some("deadline"));
        assert_eq!(unknown.unknown_phase, None);
        let line = unknown.to_json().to_string();
        assert!(line.contains("\"unknown_kind\":\"deadline\""), "{line}");
        // Decided jobs carry no unknown_* fields, keeping the wire
        // format backward compatible.
        let easy = &report.results[1];
        assert_eq!(easy.verdict, Verdict::Implied);
        assert_eq!(easy.unknown_kind, None);
        assert!(!easy.to_json().to_string().contains("unknown_kind"));
    }

    #[test]
    fn step_budget_unknowns_name_the_binding_phase() {
        let (kind, phase) = unknown_reason_wire(&UnknownReason::StepBudgetExhausted {
            phase: pathcons_core::BudgetPhase::ChaseRounds,
        });
        assert_eq!(kind, "step-budget");
        assert_eq!(phase, Some("chase-rounds"));
        assert_eq!(
            unknown_reason_wire(&UnknownReason::DeadlineExceeded),
            ("deadline", None)
        );
    }

    #[test]
    fn lock_poisoning_clears_cache_once_and_keeps_counters() {
        let engine = std::sync::Arc::new(BatchEngine::new(EngineConfig::default()));
        solve_text(&engine, "a -> b\nb -> c", "a -> c");
        let (before, entries) = engine.cache_snapshot();
        assert_eq!(entries, 1);

        let poisoner = engine.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.cache.lock().unwrap();
            panic!("poison the cache lock for the recovery test");
        })
        .join();

        let (stats, len) = engine.cache_snapshot();
        assert_eq!(len, 0, "poison drops every entry");
        assert_eq!(stats, before, "counters survive the clear");
        let (answer, cache) = solve_text(&engine, "a -> b\nb -> c", "a -> c");
        assert!(answer.outcome.is_implied());
        assert_eq!(cache, CacheOutcome::Miss);
        // A hit proves the poison was cleared: a second clear would
        // have dropped the entry just inserted.
        let (_, cache) = solve_text(&engine, "a -> b\nb -> c", "a -> c");
        assert_eq!(cache, CacheOutcome::Hit);
    }

    #[test]
    fn batch_telemetry_balances_spans_and_emits_batch_done() {
        use pathcons_core::telemetry::InMemoryRecorder;
        use pathcons_core::Telemetry;
        use std::sync::Arc;

        let rec = Arc::new(InMemoryRecorder::new());
        // One worker, so the alpha-variant runs after its twin is cached.
        let engine = BatchEngine::new(EngineConfig {
            threads: 1,
            budget: Budget::default().with_telemetry(Telemetry::new(rec.clone())),
            ..EngineConfig::default()
        });
        let job = |id: &str, sigma: &str, phi: &str| Job {
            id: id.into(),
            context: String::new(),
            sigma: vec![sigma.into()],
            phi: phi.into(),
            deadline_ms: None,
            request_id: None,
        };
        let jobs = vec![
            job("i1", "a -> b", "a -> b"),
            job("i2", "x -> y", "x -> y"), // alpha-variant: cache hit
            job("n1", "a -> b", "b -> a"),
        ];
        let report = engine.run_batch(jobs);
        assert_eq!(report.stats.jobs, 3);

        let snap = rec.snapshot();
        assert!(snap.spans_balanced(), "spans: {:?}", snap.spans);
        assert_eq!(snap.spans["batch"].enters, 1);
        assert_eq!(snap.spans["batch.job"].enters, 3);
        let done = snap.events_named(schema::EVENT_BATCH_DONE);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].field("jobs"), Some(3));
        // The cache counts travel on `batch.done` only, read from the
        // engine's one cache snapshot.
        assert_eq!(report.stats.hits, 1);
        assert_eq!(done[0].field("hits"), Some(report.stats.hits));
        assert_eq!(done[0].field("misses"), Some(report.stats.misses));
        assert_eq!(done[0].label(schema::LABEL_ENGINE), Some("batch"));
    }

    #[test]
    fn schema_contexts_cache_by_fingerprint() {
        // One worker, so the second job runs after the first is cached.
        let engine = BatchEngine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        let job = Job {
            id: "m".into(),
            context: "m-bibliography".into(),
            sigma: vec!["book.author.wrote -> book".into()],
            phi: "book -> book.author.wrote".into(),
            deadline_ms: None,
            request_id: None,
        };
        let report = engine.run_batch(vec![job.clone(), job]);
        assert_eq!(report.stats.hits, 1);
        assert_eq!(report.stats.misses, 1);
        assert_eq!(report.stats.implied, 2);
    }

    #[test]
    fn check_mode_validates_hits_with_certificates() {
        let engine = BatchEngine::new(EngineConfig {
            verify: VerifyMode::Check,
            ..EngineConfig::default()
        });
        let (a1, c1) = solve_text(&engine, "a -> b\nb -> c", "a -> c");
        let (a2, c2) = solve_text(&engine, "a -> b\nb -> c", "a -> c");
        assert_eq!((c1, c2), (CacheOutcome::Miss, CacheOutcome::Hit));
        assert!(a1.outcome.is_implied() && a2.outcome.is_implied());
        let (stats, _) = engine.cache_snapshot();
        assert_eq!(stats.checked_hits, 1, "the hit was certificate-checked");
        assert_eq!(stats.cert_invalid, 0);
        // No re-solves happened: the checker replaced the oracle.
        assert_eq!(stats.verifications, 0);
    }

    #[test]
    fn corrupted_certificates_are_detected_and_evicted() {
        let engine = BatchEngine::new(EngineConfig {
            verify: VerifyMode::Check,
            ..EngineConfig::default()
        });
        let job = prepared("a -> b\nb -> c", "a -> c");
        let (_, c1, _) = engine.solve(&job, Budget::default()).unwrap();
        assert_eq!(c1, CacheOutcome::Miss);

        // Corrupt the stored certificate in place: flip one bit of its
        // snapshot binding (the checker must reject any tampering).
        let canon = canon::canonicalize(&job.context, &job.sigma, &job.phi);
        {
            let mut guard = engine.cache_guard();
            let mut entry = guard.lookup(&canon.key).expect("entry cached");
            let certificate = entry.certificate.as_mut().expect("entry certified");
            certificate.snapshot ^= 1;
            guard.insert(canon.key.clone(), entry);
        }

        let (answer, c2, _) = engine.solve(&job, Budget::default()).unwrap();
        // The corrupted entry was impeached and evicted; the job was
        // re-solved fresh and still got the right answer.
        assert_eq!(c2, CacheOutcome::Miss);
        assert!(answer.outcome.is_implied());
        let (stats, _) = engine.cache_snapshot();
        assert_eq!(stats.cert_invalid, 1);
        assert_eq!(stats.checked_hits, 0);
    }

    #[test]
    fn queued_expired_jobs_report_queue_time_not_solver_time() {
        // A deadline of 0 ms expires at admission: the job takes the
        // queued-expiry fast path and must report only the (tiny) time
        // it actually spent, not a solver latency.
        let engine = BatchEngine::new(EngineConfig::default());
        let job = Job {
            id: "expired".into(),
            context: String::new(),
            sigma: vec!["p: a -> a.b".into(), "p: b <- c".into()],
            phi: "p: a -> c".into(),
            deadline_ms: Some(0),
            request_id: None,
        };
        let report = engine.run_batch(vec![job]);
        assert_eq!(report.stats.queued_expired, 1);
        let result = &report.results[0];
        assert_eq!(result.unknown_kind.as_deref(), Some("deadline"));
        assert!(
            result.micros < 1_000_000,
            "fast-path answer reported {} µs of solver time",
            result.micros
        );
    }

    #[test]
    fn revision_scopes_cache_entries_but_not_certificates() {
        let engine = BatchEngine::new(EngineConfig::default());
        let solve = |revision: u64| {
            let job = PreparedJob {
                revision,
                ..prepared("a -> b\nb -> c", "a -> c")
            };
            engine.solve(&job, Budget::default()).unwrap()
        };
        let (_, c1, cert1) = solve(0);
        let (_, c2, _) = solve(0);
        // A bumped revision misses — the old entry is unreachable from
        // the new revision — while the old revision keeps hitting.
        let (_, c3, cert3) = solve(1);
        let (_, c4, _) = solve(0);
        assert_eq!(
            (c1, c2, c3, c4),
            (
                CacheOutcome::Miss,
                CacheOutcome::Hit,
                CacheOutcome::Miss,
                CacheOutcome::Hit
            )
        );
        // One logical query, one snapshot id: the certificate issued
        // under revision 1 audits identically to the revision-0 one.
        let (cert1, cert3) = (cert1.unwrap(), cert3.unwrap());
        assert_eq!(cert1.snapshot, cert3.snapshot);
    }

    #[test]
    fn shared_context_answers_match_cold_answers() {
        use pathcons_core::SharedContext;

        let mut labels = LabelInterner::new();
        // A root-closure theory: the empty-hypothesis constraint fires
        // on the root.
        let sigma = parse_constraints("() -> k\nk.m -> k", &mut labels).unwrap();
        let shared = Arc::new(SharedContext::build(&sigma));
        for phi_text in ["k -> k.m", "k.m.m -> k", "k -> m", "(): m <- k"] {
            let phi = PathConstraint::parse(phi_text, &mut labels).unwrap();
            let cold_job = PreparedJob {
                context: DataContext::Semistructured,
                sigma: sigma.clone(),
                phi,
                shared: None,
                revision: 0,
            };
            let warm_job = PreparedJob {
                shared: Some(Arc::clone(&shared)),
                revision: 1,
                ..cold_job.clone()
            };
            let warm_engine = BatchEngine::new(EngineConfig::default());
            let cold_engine = BatchEngine::new(EngineConfig::default());
            let (warm, _, warm_cert) = warm_engine.solve(&warm_job, Budget::default()).unwrap();
            let (cold, _, cold_cert) = cold_engine.solve(&cold_job, Budget::default()).unwrap();
            assert_eq!(
                format!("{warm:?}"),
                format!("{cold:?}"),
                "warm and cold answers must be byte-identical for {phi_text}"
            );
            assert_eq!(
                format!("{warm_cert:?}"),
                format!("{cold_cert:?}"),
                "warm and cold certificates must be byte-identical for {phi_text}"
            );
        }
    }
}
