//! Correctness gates over the served run.
//!
//! Two kinds of finding:
//!
//! - an operational failure (error verdict, transport error, missing
//!   response) is counted and the run goes on;
//! - a contradiction (a verdict the request's construction rules out, a
//!   `check` result that disagrees with the bibliography's construction,
//!   a certificate the trusted checker rejects) fails the run.

use crate::served::{nth, Answer, Completed};
use crate::workload::{Expect, Request};
use pathcons_core::cert::{self, CertificateBody};
use pathcons_engine::{canonicalize, certificate_from_json, snapshot_id, Job, Json};
use pathcons_store::ConstraintStore;

/// Verdict counts over the timed window.
#[derive(Debug, Default)]
pub struct Verdicts {
    /// Implication jobs sent (`check` ops excluded).
    pub jobs: usize,
    /// Jobs answered Implied or NotImplied.
    pub decided: usize,
    /// Decided jobs whose result carries a certificate.
    pub certified: usize,
    /// Requests that failed operationally.
    pub failed: usize,
    /// Contradictions, one line each.
    pub contradictions: Vec<String>,
}

/// Checks every answer of the window against its request's expectation.
pub fn verdicts(requests: &[Request], completed: &[Completed]) -> Verdicts {
    let mut out = Verdicts::default();
    for done in completed {
        let request = nth(requests, done.index);
        let expect = &request.expect;
        if !matches!(expect, Expect::Holds(_)) {
            out.jobs += 1;
        }
        if done.answer.failed() {
            out.failed += 1;
            continue;
        }
        if let Answer::Verdict {
            verdict,
            certificate,
            ..
        } = &done.answer
        {
            if *verdict != "unknown" {
                out.decided += 1;
                out.certified += usize::from(*certificate);
            }
        }
        if !consistent(expect, &done.answer) {
            out.contradictions.push(format!(
                "request {} expected {expect:?}, got {:?}: {}",
                done.index, done.answer, request.line
            ));
        }
    }
    out
}

/// Whether a (non-failed) answer is one the expectation allows.
pub fn consistent(expect: &Expect, answer: &Answer) -> bool {
    match (expect, answer) {
        (Expect::Holds(want), Answer::Holds(got)) => want == got,
        (Expect::Implied, Answer::Verdict { verdict, .. }) => *verdict == "implied",
        (Expect::NotImplied, Answer::Verdict { verdict, .. }) => *verdict == "not-implied",
        (Expect::NotImpliedOrUnknown, Answer::Verdict { verdict, .. }) => {
            *verdict == "not-implied" || *verdict == "unknown"
        }
        _ => false,
    }
}

/// Audits the certificates of the kept responses offline: each job is
/// re-prepared against the snapshot-loaded `store`, its canonical query
/// rebuilt, and the certificate checked by the trusted checker. Returns
/// how many certificates were accepted, and the rejections.
pub fn certificates(
    store: &ConstraintStore,
    requests: &[Request],
    kept: &[(usize, String)],
) -> (usize, Vec<String>) {
    let mut checked = 0;
    let mut rejected = Vec::new();
    for (index, line) in kept {
        let request = nth(requests, *index);
        if matches!(request.expect, Expect::Holds(_)) {
            continue;
        }
        match audit_one(store, &request.line, line) {
            Ok(true) => checked += 1,
            Ok(false) => {}
            Err(why) => rejected.push(format!("request {index}: {why}")),
        }
    }
    (checked, rejected)
}

/// `Ok(true)`: a certificate was present and accepted; `Ok(false)`: no
/// certificate to check.
fn audit_one(store: &ConstraintStore, request: &str, response: &str) -> Result<bool, String> {
    let value = Json::parse(response).map_err(|e| e.to_string())?;
    let Some(wire) = value.get("certificate") else {
        return Ok(false);
    };
    let certificate = certificate_from_json(wire)?;
    let verdict = value.get("verdict").and_then(Json::as_str).unwrap_or("");
    let class_matches = matches!(
        (&certificate.body, verdict),
        (CertificateBody::Implied(_), "implied")
            | (CertificateBody::NotImplied(_), "not-implied")
            | (CertificateBody::Unknown(_), "unknown")
    );
    if !class_matches {
        return Err(format!(
            "certificate class does not match verdict `{verdict}`"
        ));
    }
    let job = Job::from_json_line(request)?;
    let prepared = store.prepare(&job)?;
    let canon = canonicalize(&prepared.context, &prepared.sigma, &prepared.phi);
    let context = cert::CheckContext {
        snapshot: snapshot_id(&canon.key),
        sigma: &canon.key.sigma,
        phi: &canon.key.phi,
    };
    match cert::check(&certificate, &context) {
        cert::CheckResult::Valid => Ok(true),
        cert::CheckResult::Invalid(why) => Err(format!("certificate rejected: {why}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(expect: Expect) -> Request {
        Request {
            line: String::new(),
            expect,
        }
    }

    fn done(index: usize, answer: Answer) -> Completed {
        Completed {
            index,
            latency_ns: 1,
            bytes: 1,
            answer,
        }
    }

    fn verdict(v: &'static str, certificate: bool) -> Answer {
        Answer::Verdict {
            verdict: v,
            micros: 1,
            certificate,
        }
    }

    #[test]
    fn failures_count_and_contradictions_gate() {
        let requests = vec![
            request(Expect::Implied),
            request(Expect::NotImpliedOrUnknown),
            request(Expect::NotImplied),
            request(Expect::Holds(vec![true])),
            request(Expect::Implied),
        ];
        let completed = vec![
            done(0, verdict("implied", true)),
            done(1, verdict("unknown", true)),
            done(2, verdict("implied", false)),
            done(3, Answer::Holds(vec![true])),
            done(4, Answer::Transport("eof".into())),
        ];
        let v = verdicts(&requests, &completed);
        assert_eq!(v.jobs, 4);
        assert_eq!(v.decided, 2);
        assert_eq!(v.certified, 1);
        assert_eq!(v.failed, 1);
        assert_eq!(v.contradictions.len(), 1);
        assert!(v.contradictions[0].starts_with("request 2"));
    }

    #[test]
    fn tampered_certificates_are_rejected() {
        let store = ConstraintStore::from_jsonl("").unwrap();
        let line = r#"{"id":"j0","sigma":["a -> b","b -> c"],"phi":"a -> c"}"#;
        let job = Job::from_json_line(line).unwrap();
        let prepared = store.prepare(&job).unwrap();
        let engine = pathcons_engine::BatchEngine::new(Default::default());
        let result = engine.solve_prepared(job.id, &prepared, None, std::time::Instant::now());
        let response = result.to_json().to_string();
        assert_eq!(audit_one(&store, line, &response), Ok(true));
        // The same certificate presented for another query is refused.
        let other = r#"{"id":"j0","sigma":["a -> b","b -> d"],"phi":"a -> d.d"}"#;
        assert!(audit_one(&store, other, &response).is_err());
        let relabelled = response.replace(r#""verdict":"implied""#, r#""verdict":"not-implied""#);
        assert!(audit_one(&store, line, &relabelled).is_err());
    }
}
