//! The traced pass: after a workload's server has exited, one thread
//! replays the workload's leading requests in-process through each
//! layer's public functions, in the order `BatchEngine::solve_full_shared`
//! calls them, with a span around every call:
//!
//! 1. `Job::from_json_line` (`wire.parse`)
//! 2. `ConstraintStore::prepare` (`store.prepare`)
//! 3. `canonicalize` (`canon.canonicalize`)
//! 4. `AnswerCache::lookup` + `validate_hit` (`cache.lookup`), on a cache
//!    of the server's default capacity owned by the pass
//! 5. `Solver::implies` with the prepared shared state
//!    (`solve.<tier>.<verdict>`)
//! 6. `certify` (`certify.emit`), then `AnswerCache::insert`
//!    (`cache.insert`)
//! 7. `cert::check` (`cert.check`)
//! 8. `JobResult::to_json` (`wire.encode`)
//! 9. dropping the request's parsed, prepared and canonical state
//!    (`request.release`)
//!
//! `check` ops go through `Json::parse`, `ConstraintStore::check` and the
//! response encoding instead. An untraced pass over the same requests
//! (parse, `prepare`, `BatchEngine::solve_prepared` on a fresh engine,
//! encode) gives the tracing overhead.

use crate::served::Answer;
use crate::trace::{self, Recorder, Span};
use crate::workload::{Expect, Request};
use pathcons_core::cert::{self, Certificate, CheckContext};
use pathcons_core::{Budget, Method, Outcome, Solver, UnknownReason};
use pathcons_engine::{
    canonicalize, certify, snapshot_id, unknown_reason_wire, validate_hit, AnswerCache,
    BatchEngine, CacheOutcome, CachedEntry, EngineConfig, Job, JobResult, Json, QueryKey, Verdict,
};
use pathcons_store::ConstraintStore;
use std::hint::black_box;
use std::time::Instant;

/// Capacity of the pass's answer cache: the `pathcons serve` default.
const CACHE_CAPACITY: usize = 4096;

/// Name of the per-request root span.
pub const ROOT: &str = "request";

/// Loads a store from snapshot bytes the way `pathcons serve --warm`
/// does: decode, amortize under the default budget, warm every context.
/// Returns the store with the load and warm times in milliseconds.
pub fn load_store(bytes: &[u8]) -> Result<(ConstraintStore, f64, f64), String> {
    let started = Instant::now();
    let mut store = ConstraintStore::from_bytes(bytes).map_err(|e| e.to_string())?;
    let load_ms = started.elapsed().as_secs_f64() * 1e3;
    store.set_shared_budget(Some(Budget::default()));
    let started = Instant::now();
    store.warm_all();
    let warm_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok((store, load_ms, warm_ms))
}

/// What the traced pass recorded.
pub struct Traced {
    /// Every span, in creation order.
    pub spans: Vec<Span>,
    /// Self time of each span, in nanoseconds.
    pub self_ns: Vec<u64>,
    /// Wall time of the whole pass, in nanoseconds.
    pub wall_ns: u64,
    /// The answer to each replayed request, classified like a served one.
    pub answers: Vec<Answer>,
    /// Σ size of each prepared job.
    pub sigma_lens: Vec<usize>,
    /// Answer-cache lookups and hits.
    pub lookups: usize,
    /// Of which hits.
    pub hits: usize,
    /// Solver calls and how many answered Unknown.
    pub solves: usize,
    /// Of which Unknown.
    pub unknowns: usize,
    /// `certify` calls.
    pub certify_calls: usize,
    /// Every certificate `certify` emitted.
    pub emitted_certificates: Vec<Certificate>,
    /// Certificates checked and how many the checker accepted.
    pub checked: usize,
    /// Of which accepted.
    pub accepted: usize,
}

/// Replays `requests` through the layers against `store`.
pub fn traced_pass(store: &ConstraintStore, requests: &[Request]) -> Result<Traced, String> {
    // At most ten spans per request: the root and nine layer calls.
    let mut rec = Recorder::with_capacity(requests.len() * 10);
    let mut cache = AnswerCache::new(CACHE_CAPACITY);
    let budget = Budget::default();
    let mut t = Traced {
        spans: Vec::new(),
        self_ns: Vec::new(),
        wall_ns: 0,
        answers: Vec::with_capacity(requests.len()),
        sigma_lens: Vec::new(),
        lookups: 0,
        hits: 0,
        solves: 0,
        unknowns: 0,
        certify_calls: 0,
        emitted_certificates: Vec::new(),
        checked: 0,
        accepted: 0,
    };
    let started = Instant::now();
    for (index, request) in requests.iter().enumerate() {
        let root = rec.enter(ROOT, index);
        let answer = if matches!(request.expect, Expect::Holds(_)) {
            let (context, texts) =
                rec.time("wire.parse", index, || parse_check_op(&request.line))?;
            let verdicts = rec.time("store.check", index, || store.check(&context, &texts))?;
            rec.time("wire.encode", index, || {
                black_box(check_response(&context, &verdicts));
            });
            Answer::Holds(verdicts.iter().map(|(_, holds)| *holds).collect())
        } else {
            traced_job(&mut rec, &mut cache, &budget, store, index, request, &mut t)?
        };
        t.answers.push(answer);
        rec.exit(root);
    }
    t.wall_ns = started.elapsed().as_nanos() as u64;
    t.self_ns = trace::self_times(rec.spans());
    t.spans = rec.spans().to_vec();
    Ok(t)
}

fn traced_job(
    rec: &mut Recorder,
    cache: &mut AnswerCache,
    budget: &Budget,
    store: &ConstraintStore,
    index: usize,
    request: &Request,
    t: &mut Traced,
) -> Result<Answer, String> {
    let job = rec.time("wire.parse", index, || Job::from_json_line(&request.line))?;
    let prepared = rec.time("store.prepare", index, || store.prepare(&job))?;
    t.sigma_lens.push(prepared.sigma.len());
    let canon = rec.time("canon.canonicalize", index, || {
        canonicalize(&prepared.context, &prepared.sigma, &prepared.phi)
    });
    let (key, cached) = rec.time("cache.lookup", index, || {
        let key = QueryKey {
            revision: prepared.revision,
            ..canon.key.clone()
        };
        let cached = cache
            .lookup(&key)
            .filter(|entry| validate_hit(entry).is_ok())
            .map(|entry| (entry.answer, entry.certificate));
        (key, cached)
    });
    t.lookups += 1;
    let (answer, cache_outcome, certificate, unused_key) = match cached {
        Some((answer, certificate)) => {
            t.hits += 1;
            (answer, CacheOutcome::Hit, certificate, Some(key))
        }
        None => {
            let span = rec.enter("solve", index);
            let mut solver = Solver::new(prepared.context.clone()).with_budget(budget.clone());
            if let Some(shared) = &prepared.shared {
                solver = solver.with_shared(shared.clone());
            }
            let solved = solver.implies(&prepared.sigma, &prepared.phi);
            rec.exit(span);
            let answer = match solved {
                Ok(answer) => answer,
                Err(e) => {
                    rec.rename(span, "solve.error".to_owned());
                    return Ok(Answer::Error(e.to_string()));
                }
            };
            rec.rename(
                span,
                format!("solve.{}.{}", tier(answer.method), verdict(&answer.outcome)),
            );
            t.solves += 1;
            t.unknowns += usize::from(answer.outcome.is_unknown());
            let certificate = rec.time("certify.emit", index, || {
                certify(
                    &canon,
                    &prepared.sigma,
                    &prepared.phi,
                    &answer,
                    prepared.shared.as_deref(),
                )
            });
            t.certify_calls += 1;
            // Only deadline and overload answers are uncacheable, and
            // these jobs carry no deadline and are never shed.
            rec.time("cache.insert", index, || {
                cache.insert(
                    key,
                    CachedEntry {
                        answer: answer.clone(),
                        renaming: canon.renaming.clone(),
                        certificate: certificate.clone(),
                    },
                )
            });
            (answer, CacheOutcome::Miss, certificate, None)
        }
    };
    if let Some(c) = &certificate {
        let valid = rec.time("cert.check", index, || {
            cert::check(
                c,
                &CheckContext {
                    snapshot: snapshot_id(&canon.key),
                    sigma: &canon.key.sigma,
                    phi: &canon.key.phi,
                },
            )
            .is_valid()
        });
        t.checked += 1;
        t.accepted += usize::from(valid);
    }
    let has_certificate = certificate.is_some();
    let (verdict_text, certificate) = rec.time("wire.encode", index, || {
        let (verdict, detail, unknown) = match &answer.outcome {
            Outcome::Implied(_) => (Verdict::Implied, None, None),
            Outcome::NotImplied(_) => (Verdict::NotImplied, None, None),
            Outcome::Unknown(reason) => (
                Verdict::Unknown,
                Some(reason.to_string()),
                Some(unknown_reason_wire(reason)),
            ),
        };
        let result = JobResult {
            id: job.id.clone(),
            verdict,
            method: Some(format!("{:?}", answer.method)),
            detail,
            unknown_kind: unknown.map(|(kind, _)| kind.to_owned()),
            unknown_phase: unknown.and_then(|(_, phase)| phase.map(str::to_owned)),
            cache: Some(cache_outcome),
            certificate,
            request_id: None,
            micros: 0,
        };
        black_box(result.to_json().to_string());
        (verdict.as_str(), result.certificate)
    });
    // Freeing the request's parsed, prepared and canonical state is part
    // of its cost, so it is timed as a step of its own. A freshly emitted
    // certificate is kept, to be sized after the pass.
    let emitted = rec.time("request.release", index, move || {
        drop((job, prepared, canon, answer, unused_key));
        certificate.filter(|_| cache_outcome == CacheOutcome::Miss)
    });
    t.emitted_certificates.extend(emitted);
    Ok(Answer::Verdict {
        verdict: verdict_text,
        micros: 0,
        certificate: has_certificate,
    })
}

/// The untraced pass over the same requests: parse, `prepare`,
/// `BatchEngine::solve_prepared` on a fresh engine, encode. Returns its
/// wall time in nanoseconds.
pub fn untraced_pass(store: &ConstraintStore, requests: &[Request]) -> Result<u64, String> {
    let engine = BatchEngine::new(EngineConfig::default());
    let started = Instant::now();
    for request in requests {
        if matches!(request.expect, Expect::Holds(_)) {
            let (context, texts) = parse_check_op(&request.line)?;
            let verdicts = store.check(&context, &texts)?;
            black_box(check_response(&context, &verdicts));
        } else {
            let job = Job::from_json_line(&request.line)?;
            let prepared = store.prepare(&job)?;
            let result = engine.solve_prepared(job.id, &prepared, None, Instant::now());
            black_box(result.to_json().to_string());
        }
    }
    Ok(started.elapsed().as_nanos() as u64)
}

/// The solver tier an answer came from, as named in the metrics.
pub fn tier(method: Method) -> &'static str {
    match method {
        Method::WordAutomaton => "word",
        Method::LocalExtentReduction => "local_extent",
        Method::MCongruenceClosure => "typed_m",
        Method::Chase => "chase",
        Method::CounterModelSearch => "search",
        Method::UntypedLift => "untyped_lift",
    }
}

fn verdict(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Implied(_) => "implied",
        Outcome::NotImplied(_) => "not_implied",
        Outcome::Unknown(UnknownReason::DeadlineExceeded) => "deadline",
        Outcome::Unknown(_) => "unknown",
    }
}

/// The context and constraint texts of a `check` op line.
fn parse_check_op(line: &str) -> Result<(String, Vec<String>), String> {
    let value = Json::parse(line).map_err(|e| e.to_string())?;
    let context = value
        .get("context")
        .and_then(Json::as_str)
        .ok_or("check op without a context")?
        .to_owned();
    let texts = value
        .get("constraints")
        .and_then(Json::as_array)
        .ok_or("check op without constraints")?
        .iter()
        .map(|c| c.as_str().map(str::to_owned).ok_or("non-string constraint"))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((context, texts))
}

/// The `check` op's response line, shaped as `pathcons serve` shapes it.
fn check_response(context: &str, verdicts: &[(String, bool)]) -> String {
    let results = verdicts
        .iter()
        .map(|(text, holds)| {
            Json::Obj(vec![
                ("constraint".to_owned(), Json::Str(text.clone())),
                ("holds".to_owned(), Json::Bool(*holds)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("ok".to_owned(), Json::Bool(true)),
        ("op".to_owned(), Json::Str("check".to_owned())),
        ("context".to_owned(), Json::Str(context.to_owned())),
        (
            "all_hold".to_owned(),
            Json::Bool(verdicts.iter().all(|(_, holds)| *holds)),
        ),
        ("results".to_owned(), Json::Arr(results)),
    ])
    .to_string()
}
