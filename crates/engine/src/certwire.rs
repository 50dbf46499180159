//! JSON wire codec for certificates.
//!
//! Backs the optional `certificate` field of a batch result line and
//! the input side of `pathcons check --results`. Two wire-format
//! decisions matter:
//!
//! - the snapshot id is a full 64-bit fingerprint, but JSON numbers are
//!   IEEE doubles (53-bit mantissa), so it travels as a fixed-width
//!   16-digit hex *string*;
//! - labels and nodes travel as integer indices into the canonical
//!   label space — certificates are canonical-space objects, so an
//!   offline checker recovers their meaning by re-canonicalizing the
//!   job, without any interner state on the wire.

use crate::json::Json;
use pathcons_cert::{
    BudgetCert, Certificate, CertificateBody, ChaseStep, ChaseTrace, CounterModelCert, ImpliedCert,
    RewriteStep,
};
use pathcons_graph::{Graph, Label, NodeId};

/// Serializes a certificate to its JSON wire form.
pub fn certificate_to_json(certificate: &Certificate) -> Json {
    let mut members = vec![(
        "snapshot".to_owned(),
        Json::Str(format!("{:016x}", certificate.snapshot)),
    )];
    match &certificate.body {
        CertificateBody::Implied(ImpliedCert::ChaseReplay(trace)) => {
            members.push(("kind".to_owned(), Json::Str("chase-trace".to_owned())));
            members.push((
                "steps".to_owned(),
                Json::Arr(
                    trace
                        .steps
                        .iter()
                        .map(|s| {
                            Json::Arr(vec![
                                Json::Num(s.constraint as f64),
                                Json::Num(s.a as f64),
                                Json::Num(s.b as f64),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        CertificateBody::Implied(ImpliedCert::WordRewrite { start, steps }) => {
            members.push(("kind".to_owned(), Json::Str("word-rewrite".to_owned())));
            members.push(("start".to_owned(), word_to_json(start)));
            members.push((
                "steps".to_owned(),
                Json::Arr(
                    steps
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("rule".to_owned(), Json::Num(s.rule as f64)),
                                ("result".to_owned(), word_to_json(&s.result)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        CertificateBody::NotImplied(cm) => {
            members.push(("kind".to_owned(), Json::Str("countermodel".to_owned())));
            members.push(("nodes".to_owned(), Json::Num(cm.graph.node_count() as f64)));
            members.push(("root".to_owned(), Json::Num(cm.graph.root().index() as f64)));
            members.push((
                "edges".to_owned(),
                Json::Arr(
                    cm.graph
                        .edges()
                        .map(|(from, label, to)| {
                            Json::Arr(vec![
                                Json::Num(from.index() as f64),
                                Json::Num(label.index() as f64),
                                Json::Num(to.index() as f64),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        CertificateBody::Unknown(budget) => {
            members.push(("kind".to_owned(), Json::Str("budget".to_owned())));
            members.push(("reason".to_owned(), Json::Str(budget.reason.clone())));
            if let Some(phase) = &budget.phase {
                members.push(("phase".to_owned(), Json::Str(phase.clone())));
            }
        }
    }
    Json::Obj(members)
}

fn word_to_json(word: &[Label]) -> Json {
    Json::Arr(word.iter().map(|l| Json::Num(l.index() as f64)).collect())
}

/// Parses a certificate from its JSON wire form, validating structural
/// invariants (hex snapshot, in-range node indices) but not the
/// certificate itself — that is [`pathcons_cert::check`]'s job.
pub fn certificate_from_json(v: &Json) -> Result<Certificate, String> {
    let snapshot_text = v
        .get("snapshot")
        .and_then(Json::as_str)
        .ok_or("certificate without string field `snapshot`")?;
    let snapshot = u64::from_str_radix(snapshot_text, 16)
        .map_err(|_| format!("bad snapshot `{snapshot_text}`: expected hex"))?;
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("certificate without string field `kind`")?;
    let body = match kind {
        "chase-trace" => {
            // Traces replay from the ¬φ pattern. An older trace that
            // began with Σ-only steps, counted by a `pattern` member,
            // would replay them against the wrong node ids: refuse it.
            if v.get("pattern").is_some() {
                return Err(
                    "chase-trace `pattern` (steps before the ¬φ pattern) is not supported"
                        .to_owned(),
                );
            }
            let steps = v
                .get("steps")
                .and_then(Json::as_array)
                .ok_or("chase-trace certificate without `steps` array")?
                .iter()
                .map(|step| {
                    let triple = step
                        .as_array()
                        .filter(|t| t.len() == 3)
                        .ok_or("chase step must be a [constraint, a, b] triple")?;
                    let num = |i: usize| {
                        triple[i]
                            .as_u64()
                            .map(|n| n as usize)
                            .ok_or("chase step entries must be non-negative integers")
                    };
                    Ok(ChaseStep {
                        constraint: num(0)?,
                        a: num(1)?,
                        b: num(2)?,
                    })
                })
                .collect::<Result<Vec<_>, &str>>()
                .map_err(str::to_owned)?;
            CertificateBody::Implied(ImpliedCert::ChaseReplay(ChaseTrace { steps }))
        }
        "word-rewrite" => {
            let start = word_from_json(
                v.get("start")
                    .ok_or("word-rewrite certificate without `start`")?,
            )?;
            let steps = v
                .get("steps")
                .and_then(Json::as_array)
                .ok_or("word-rewrite certificate without `steps` array")?
                .iter()
                .map(|step| {
                    let rule = step
                        .get("rule")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| "rewrite step without numeric `rule`".to_owned())?
                        as usize;
                    let result = word_from_json(
                        step.get("result")
                            .ok_or_else(|| "rewrite step without `result`".to_owned())?,
                    )?;
                    Ok(RewriteStep { rule, result })
                })
                .collect::<Result<Vec<_>, String>>()?;
            CertificateBody::Implied(ImpliedCert::WordRewrite { start, steps })
        }
        "countermodel" => {
            let nodes = v
                .get("nodes")
                .and_then(Json::as_u64)
                .ok_or("countermodel certificate without numeric `nodes`")?
                as usize;
            if nodes == 0 {
                return Err("countermodel must have at least the root node".to_owned());
            }
            let root = v
                .get("root")
                .and_then(Json::as_u64)
                .ok_or("countermodel certificate without numeric `root`")?
                as usize;
            if root >= nodes {
                return Err(format!(
                    "countermodel root {root} out of range ({nodes} nodes)"
                ));
            }
            let mut graph = Graph::with_capacity(nodes);
            for _ in 1..nodes {
                graph.add_node();
            }
            graph.set_root(NodeId::from_index(root));
            for edge in v
                .get("edges")
                .and_then(Json::as_array)
                .ok_or("countermodel certificate without `edges` array")?
            {
                let triple = edge
                    .as_array()
                    .filter(|t| t.len() == 3)
                    .ok_or("countermodel edge must be a [from, label, to] triple")?;
                let num = |i: usize| {
                    triple[i]
                        .as_u64()
                        .map(|n| n as usize)
                        .ok_or("countermodel edge entries must be non-negative integers")
                };
                let (from, label, to) = (num(0)?, num(1)?, num(2)?);
                if from >= nodes || to >= nodes {
                    return Err(format!(
                        "countermodel edge endpoint out of range: {from} -> {to}"
                    ));
                }
                graph.add_edge(
                    NodeId::from_index(from),
                    Label::from_index(label),
                    NodeId::from_index(to),
                );
            }
            CertificateBody::NotImplied(CounterModelCert { graph })
        }
        "budget" => {
            let reason = v
                .get("reason")
                .and_then(Json::as_str)
                .ok_or("budget certificate without string `reason`")?
                .to_owned();
            let phase = v.get("phase").and_then(Json::as_str).map(str::to_owned);
            CertificateBody::Unknown(BudgetCert { reason, phase })
        }
        other => return Err(format!("unknown certificate kind `{other}`")),
    };
    Ok(Certificate { snapshot, body })
}

fn word_from_json(v: &Json) -> Result<Vec<Label>, String> {
    v.as_array()
        .ok_or("word must be an array of label indices")?
        .iter()
        .map(|l| {
            l.as_u64()
                .map(|n| Label::from_index(n as usize))
                .ok_or("word entries must be non-negative integers")
        })
        .collect::<Result<Vec<_>, &str>>()
        .map_err(str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(certificate: &Certificate) -> Certificate {
        let line = certificate_to_json(certificate).to_string();
        certificate_from_json(&Json::parse(&line).unwrap()).unwrap()
    }

    #[test]
    fn chase_trace_round_trips_with_full_snapshot_precision() {
        // A snapshot needing all 64 bits — a JSON double would lose it.
        let certificate = Certificate {
            snapshot: u64::MAX - 1,
            body: CertificateBody::Implied(ImpliedCert::ChaseReplay(ChaseTrace {
                steps: vec![ChaseStep {
                    constraint: 2,
                    a: 0,
                    b: 5,
                }],
            })),
        };
        let back = round_trip(&certificate);
        assert_eq!(back.snapshot, certificate.snapshot);
        match back.body {
            CertificateBody::Implied(ImpliedCert::ChaseReplay(trace)) => {
                assert_eq!(
                    trace.steps,
                    vec![ChaseStep {
                        constraint: 2,
                        a: 0,
                        b: 5
                    }]
                );
            }
            other => panic!("wrong body: {other:?}"),
        }
    }

    #[test]
    fn chase_traces_with_a_pattern_marker_are_refused() {
        // Traces written when the chase could run Σ-only steps before
        // grafting the ¬φ pattern carry a `pattern` count; they decode
        // to an error, whatever the count, never to a misread trace.
        for pattern in ["0", "1", "3", "-1", "\"x\"", "1e300"] {
            let line = format!(
                r#"{{"snapshot":"0000000000000003","kind":"chase-trace","pattern":{pattern},"steps":[[0,0,0]]}}"#
            );
            let err = certificate_from_json(&Json::parse(&line).unwrap()).unwrap_err();
            assert!(err.contains("pattern"), "{pattern}: {err}");
        }
    }

    #[test]
    fn word_rewrite_and_budget_round_trip() {
        let word = Certificate {
            snapshot: 7,
            body: CertificateBody::Implied(ImpliedCert::WordRewrite {
                start: vec![Label::from_index(0), Label::from_index(3)],
                steps: vec![RewriteStep {
                    rule: 1,
                    result: vec![Label::from_index(2)],
                }],
            }),
        };
        match round_trip(&word).body {
            CertificateBody::Implied(ImpliedCert::WordRewrite { start, steps }) => {
                assert_eq!(start, vec![Label::from_index(0), Label::from_index(3)]);
                assert_eq!(steps.len(), 1);
                assert_eq!(steps[0].rule, 1);
            }
            other => panic!("wrong body: {other:?}"),
        }
        let budget = Certificate {
            snapshot: 8,
            body: CertificateBody::Unknown(BudgetCert {
                reason: "step-budget".to_owned(),
                phase: Some("chase-rounds".to_owned()),
            }),
        };
        match round_trip(&budget).body {
            CertificateBody::Unknown(b) => {
                assert_eq!(b.reason, "step-budget");
                assert_eq!(b.phase.as_deref(), Some("chase-rounds"));
            }
            other => panic!("wrong body: {other:?}"),
        }
    }

    #[test]
    fn countermodel_round_trips_and_rejects_dangling_edges() {
        let mut graph = Graph::new();
        let n1 = graph.add_node();
        graph.add_edge(graph.root(), Label::from_index(0), n1);
        let certificate = Certificate {
            snapshot: 9,
            body: CertificateBody::NotImplied(CounterModelCert {
                graph: graph.clone(),
            }),
        };
        match round_trip(&certificate).body {
            CertificateBody::NotImplied(cm) => {
                assert_eq!(cm.graph.node_count(), graph.node_count());
                assert!(cm.graph.has_edge(graph.root(), Label::from_index(0), n1));
            }
            other => panic!("wrong body: {other:?}"),
        }
        let torn = r#"{"snapshot":"0000000000000009","kind":"countermodel","nodes":2,"root":0,"edges":[[0,0,9]]}"#;
        assert!(certificate_from_json(&Json::parse(torn).unwrap()).is_err());
    }
}
