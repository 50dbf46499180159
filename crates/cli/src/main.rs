//! `pathcons` — command-line path-constraint reasoning.
//!
//! ```text
//! pathcons check    --graph G --constraints C        check G ⊨ Σ, list violations
//! pathcons check    --results R.jsonl --jobs F.jsonl audit batch-result certificates
//!                                                     offline with the trusted checker
//! pathcons validate --doc D.xml --schema S           type-check an XML document
//! pathcons implies  --constraints C --query Q        decide/semi-decide Σ ⊨ φ
//!                   [--schema S --context m|mplus]
//! pathcons dot      --graph G [--schema S]           render a graph as GraphViz DOT
//! pathcons optimize --schema S --constraints C       rewrite a path query to the
//!                   --query PATH                      shortest congruent path (model M)
//! pathcons batch    [--jobs F.jsonl] [--threads N]   run a JSONL batch of implication
//!                   [--cache-size N] [--deadline-ms N] jobs through the caching engine
//!                   [--chase-rounds N] [--chase-max-nodes N]
//!                   [--search-samples N] [--quiet]
//!                   [--verify[=check|resolve]]        validate cache hits: `check` runs
//!                                                     the certificate checker, `resolve`
//!                                                     re-solves as an oracle
//!                   [--retries N] [--shed-depth N]    supervised retry budget and
//!                                                     admission-control queue depth
//!                   [--chaos seed=N[,rate=R][,kind=K]] deterministic fault injection
//!                                                     (kind: panic or stall)
//!                   [--trace F.jsonl]                 write a structured JSONL trace and
//!                                                     print a profile summary to stderr
//! pathcons trace-check --trace F.jsonl               validate a trace: every line parses,
//!                                                     spans balance, attributions add up
//! pathcons snapshot build --contexts F.jsonl --out S.pcs
//!                                                     compile contexts (or a jobs file)
//!                                                     into a binary snapshot
//! pathcons snapshot info  --snapshot S.pcs            describe a snapshot
//! pathcons serve    --listen unix:PATH|tcp:ADDR       resident store + JSONL protocol:
//!                   [--snapshot S.pcs | --contexts F] jobs in, batch-identical results
//!                   [engine flags as for batch]       out; `{"op": "shutdown"}` stops it
//!                   [--metrics-addr HOST:PORT]        Prometheus text on /metrics
//!                   [--slow-ms N [--slow-log F]]      JSONL slow-query log
//!                   [--trace F.jsonl]                 engine + serve.job event trace
//! ```
//!
//! Graphs are read from the line format of `pathcons-graph` or, when the
//! file ends in `.xml`, from XML via `pathcons-xml`. Constraint files use
//! the compact text syntax (`book: author <- wrote`), or the XML syntax
//! for `.xml` files. Schemas use the DDL of `pathcons-types`, or
//! XML-Data syntax for `.xml` files.

use pathcons_constraints::{
    holds, parse_constraints, violations, PathConstraint, RegularConstraint,
};
use pathcons_core::telemetry::{schema, FileRecorder, InMemoryRecorder, Snapshot};
use pathcons_core::{
    Budget, DataContext, Evidence, Outcome, RefutationBasis, SchemaContext, Solver, Telemetry,
};
use pathcons_engine::{
    canonicalize, certificate_from_json, prepare_job, snapshot_id, BatchEngine, EngineConfig,
    FaultPlan, Job, JobResult, Json, RetryPolicy, ShedPolicy, Verdict, VerifyMode,
};
use pathcons_graph::{parse_graph, to_dot, DotOptions, Graph, LabelInterner};
use pathcons_store::{ConstraintStore, Endpoint, Server};
use pathcons_types::{infer_typing, parse_schema, Model, Schema, TypeGraph};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

mod args;
use args::Args;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(output) => {
            write_stdout(&output);
            ExitCode::SUCCESS
        }
        Err(CliError::Usage(msg)) => {
            write_stderr(&format!("{msg}\n\n{USAGE}\n"));
            ExitCode::from(2)
        }
        Err(CliError::Failed(msg)) => {
            write_stderr(&format!("error: {msg}\n"));
            ExitCode::FAILURE
        }
        Err(CliError::CheckFailed(msg)) => {
            write_stdout(&msg);
            ExitCode::FAILURE
        }
    }
}

/// Writes ignoring broken pipes (`pathcons … | head` must not panic).
fn write_stdout(text: &str) {
    use std::io::Write as _;
    let _ = std::io::stdout().write_all(text.as_bytes());
}

fn write_stderr(text: &str) {
    use std::io::Write as _;
    let _ = std::io::stderr().write_all(text.as_bytes());
}

const USAGE: &str = "\
usage:
  pathcons check    --graph FILE --constraints FILE
  pathcons check    --results FILE.jsonl --jobs FILE.jsonl
                    (audit the certificates in a batch results file with
                     the trusted checker — no solver code on this path;
                     exit 1 if any certificate is invalid)
  pathcons validate --doc FILE --schema FILE
  pathcons implies  --constraints FILE --query CONSTRAINT
                    [--schema FILE --context m|mplus] [--finite] [--explain-budget]
  pathcons optimize --schema FILE --constraints FILE --query PATH
  pathcons dot      --graph FILE
  pathcons batch    [--jobs FILE.jsonl] [--threads N] [--cache-size N]
                    [--deadline-ms N] [--chase-rounds N] [--chase-max-nodes N]
                    [--search-samples N] [--retries N] [--shed-depth N]
                    [--chaos seed=N[,rate=R][,kind=panic|stall]]
                    [--verify[=check|resolve]] [--quiet] [--trace FILE.jsonl]
                    (jobs from stdin when --jobs is `-` or absent;
                     JSONL results + a stats line on stdout; malformed job
                     lines become per-line error records, never an abort;
                     --chaos injects deterministic worker panics and solver
                     stalls to exercise the supervised-recovery path;
                     --trace writes a structured event log and profiles it on stderr)
  pathcons trace-check --trace FILE.jsonl
                    (validate a --trace log: lines parse, spans balance,
                     budget attributions sum correctly)
  pathcons snapshot build --contexts FILE.jsonl --out FILE.pcs
                    (compile context specs -- or the contexts referenced
                     by a jobs file -- into a versioned binary snapshot;
                     `-` reads the JSONL from stdin)
  pathcons snapshot info --snapshot FILE.pcs
                    (validate a snapshot and describe its contents)
  pathcons serve    --listen unix:PATH|tcp:HOST:PORT
                    [--snapshot FILE.pcs | --contexts FILE.jsonl]
                    [--threads N] [--cache-size N] [--deadline-ms N]
                    [--chase-rounds N] [--chase-max-nodes N]
                    [--search-samples N] [--retries N] [--shed-depth N]
                    [--verify[=check|resolve]] [--warm] [--no-shared] [--quiet]
                    [--metrics-addr HOST:PORT] [--slow-ms N [--slow-log FILE]]
                    [--trace FILE.jsonl]
                    (long-lived JSONL service: job lines get the same
                     verdicts `pathcons batch` gives; control ops are
                     {\"op\": \"ping\"|\"stats\"|\"metrics\"|\"check\"|\"shutdown\"};
                     resident contexts amortize work across jobs —
                     shared chase prefixes and cached post* automata —
                     built lazily, or at startup with --warm; --no-shared
                     solves every job cold; --metrics-addr exposes
                     Prometheus text at /metrics; jobs slower than
                     --slow-ms are logged as JSONL to --slow-log (or
                     stderr) with their request_id; --trace writes the
                     engine + serve.job event log)

`--jobs`/`--results` accept `-` for stdin/stdout in batch and check.";

/// CLI failure modes.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation; usage is printed.
    Usage(String),
    /// An operation failed (I/O, parse, solver error).
    Failed(String),
    /// The check ran and the answer is negative (exit code 1).
    CheckFailed(String),
}

impl CliError {
    fn failed(e: impl std::fmt::Display) -> CliError {
        CliError::Failed(e.to_string())
    }
}

/// Entry point, separated from `main` for testing.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let (command, rest) = argv
        .split_first()
        .ok_or_else(|| CliError::Usage("missing subcommand".into()))?;
    // `snapshot` nests an action word before its options.
    if command == "snapshot" {
        let (action, rest) = rest
            .split_first()
            .ok_or_else(|| CliError::Usage("snapshot needs an action: `build` or `info`".into()))?;
        let args = Args::parse(rest).map_err(CliError::Usage)?;
        return match action.as_str() {
            "build" => cmd_snapshot_build(&args),
            "info" => cmd_snapshot_info(&args),
            other => Err(CliError::Usage(format!(
                "unknown snapshot action `{other}` (expected `build` or `info`)"
            ))),
        };
    }
    let args = Args::parse(rest).map_err(CliError::Usage)?;
    match command.as_str() {
        "check" => cmd_check(&args),
        "validate" => cmd_validate(&args),
        "implies" => cmd_implies(&args),
        "dot" => cmd_dot(&args),
        "optimize" => cmd_optimize(&args),
        "batch" => cmd_batch(&args),
        "serve" => cmd_serve(&args),
        "trace-check" => cmd_trace_check(&args),
        other => Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
    }
}

/// Reads a file, or stdin when the path is `-`.
fn read_input(path: &str) -> Result<String, CliError> {
    if path == "-" {
        use std::io::Read as _;
        let mut buffer = String::new();
        std::io::stdin()
            .read_to_string(&mut buffer)
            .map_err(|e| CliError::Failed(format!("cannot read stdin: {e}")))?;
        Ok(buffer)
    } else {
        read_file(path)
    }
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path)
        .map_err(|e| CliError::Failed(format!("cannot read `{path}`: {e}")))
}

fn load_graph_file(path: &str, labels: &mut LabelInterner) -> Result<Graph, CliError> {
    let content = read_file(path)?;
    if path.ends_with(".xml") {
        let doc = pathcons_xml::load_document(&content, labels).map_err(CliError::failed)?;
        Ok(doc.graph)
    } else {
        parse_graph(&content, labels).map_err(CliError::failed)
    }
}

fn load_constraints_file(
    path: &str,
    labels: &mut LabelInterner,
) -> Result<Vec<PathConstraint>, CliError> {
    let content = read_file(path)?;
    if path.ends_with(".xml") {
        pathcons_xml::load_constraints(&content, labels).map_err(CliError::failed)
    } else {
        parse_constraints(&content, labels).map_err(CliError::failed)
    }
}

fn load_schema_file(path: &str, labels: &mut LabelInterner) -> Result<Schema, CliError> {
    let content = read_file(path)?;
    if path.ends_with(".xml") {
        pathcons_xml::load_schema(&content, labels).map_err(CliError::failed)
    } else {
        parse_schema(&content, labels).map_err(CliError::failed)
    }
}

fn cmd_check(args: &Args) -> Result<String, CliError> {
    // Two checkers share the subcommand: `check --results R --jobs J`
    // audits batch-result certificates offline; `check --graph G
    // --constraints C` checks graph satisfaction.
    if args.optional("results").is_some() {
        return cmd_check_results(args);
    }
    let graph_path = args.required("graph")?;
    let constraints_path = args.required("constraints")?;
    args.finish(&["graph", "constraints"])?;

    let mut labels = LabelInterner::new();
    let graph = load_graph_file(&graph_path, &mut labels)?;

    // Text constraint files may mix P_c constraints with regular
    // inclusion constraints (`p <= q`); XML files carry P_c only.
    let content = read_file(&constraints_path)?;
    let mut path_constraints: Vec<PathConstraint> = Vec::new();
    let mut regular: Vec<RegularConstraint> = Vec::new();
    if constraints_path.ends_with(".xml") {
        path_constraints =
            pathcons_xml::load_constraints(&content, &mut labels).map_err(CliError::failed)?;
    } else {
        for (idx, raw) in content.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line.contains("<=") {
                regular.push(
                    RegularConstraint::parse(line, &mut labels)
                        .map_err(|e| CliError::Failed(format!("line {}: {e}", idx + 1)))?,
                );
            } else {
                path_constraints.push(
                    PathConstraint::parse(line, &mut labels)
                        .map_err(|e| CliError::Failed(format!("line {}: {e}", idx + 1)))?,
                );
            }
        }
    }

    let mut out = String::new();
    let mut failures = 0usize;
    for c in &path_constraints {
        if holds(&graph, c) {
            let _ = writeln!(out, "ok    {}", c.display(&labels));
        } else {
            failures += 1;
            let vs = violations(&graph, c);
            let _ = writeln!(
                out,
                "FAIL  {}   ({} violating pair{})",
                c.display(&labels),
                vs.len(),
                if vs.len() == 1 { "" } else { "s" }
            );
            for (x, y) in vs.iter().take(5) {
                let _ = writeln!(out, "      at x = {x:?}, y = {y:?}");
            }
        }
    }
    for c in &regular {
        if c.holds(&graph) {
            let _ = writeln!(out, "ok    {}", c.display(&labels));
        } else {
            failures += 1;
            let vs = c.violations(&graph);
            let _ = writeln!(
                out,
                "FAIL  {}   ({} violating vertex{})",
                c.display(&labels),
                vs.len(),
                if vs.len() == 1 { "" } else { "es" }
            );
        }
    }
    let total = path_constraints.len() + regular.len();
    let _ = writeln!(
        out,
        "{} constraint{} checked, {} failed",
        total,
        if total == 1 { "" } else { "s" },
        failures
    );
    if failures == 0 {
        Ok(out)
    } else {
        Err(CliError::CheckFailed(out))
    }
}

/// `pathcons check --results R.jsonl --jobs J.jsonl`: the offline
/// certificate auditor.
///
/// Re-canonicalizes each job (canonicalization is deterministic, so the
/// snapshot id recomputes identically in a different process), then
/// runs the trusted `pathcons-cert` checker over every result line that
/// carries a certificate. No chase or search code is on this path: a
/// valid line means the verdict is evidenced, independent of the engine
/// that produced it. Results without certificates (evidence kinds with
/// no certificate form, error records) are counted but not failed.
fn cmd_check_results(args: &Args) -> Result<String, CliError> {
    use pathcons_core::cert::{self, CertificateBody};

    let results_path = args.required("results")?;
    let jobs_path = args.required("jobs")?;
    args.finish(&["results", "jobs"])?;
    if results_path == "-" && jobs_path == "-" {
        return Err(CliError::Usage(
            "only one of --results and --jobs can read stdin (`-`)".into(),
        ));
    }

    let (jobs, _bad) = Job::parse_jobs_lossy(&read_input(&jobs_path)?);
    let jobs: std::collections::HashMap<String, Job> =
        jobs.into_iter().map(|j| (j.id.clone(), j)).collect();

    let mut out = String::new();
    let mut certified = 0usize;
    let mut unchecked = 0usize;
    let mut invalid = 0usize;
    let fail = |out: &mut String, invalid: &mut usize, id: &str, why: String| {
        *invalid += 1;
        let _ = writeln!(out, "INVALID  {id}: {why}");
    };
    for (lineno, raw) in read_input(&results_path)?.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let value = Json::parse(line)
            .map_err(|e| CliError::Failed(format!("results line {}: {e}", lineno + 1)))?;
        if value.get("stats").is_some() {
            continue; // the batch's trailing summary line
        }
        let id = value
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| CliError::Failed(format!("results line {}: no `id`", lineno + 1)))?
            .to_owned();
        let verdict = value.get("verdict").and_then(Json::as_str).unwrap_or("");
        let Some(cert_json) = value.get("certificate") else {
            unchecked += 1;
            continue;
        };
        let certificate = match certificate_from_json(cert_json) {
            Ok(c) => c,
            Err(e) => {
                fail(&mut out, &mut invalid, &id, format!("bad certificate: {e}"));
                continue;
            }
        };
        // The certificate's class must match the claimed verdict — a
        // valid Implied certificate attached to a `not-implied` line
        // certifies nothing about that line.
        let class_ok = matches!(
            (&certificate.body, verdict),
            (CertificateBody::Implied(_), "implied")
                | (CertificateBody::NotImplied(_), "not-implied")
                | (CertificateBody::Unknown(_), "unknown")
        );
        if !class_ok {
            fail(
                &mut out,
                &mut invalid,
                &id,
                format!("certificate class does not match verdict `{verdict}`"),
            );
            continue;
        }
        let Some(job) = jobs.get(&id) else {
            fail(&mut out, &mut invalid, &id, "no such job id".to_owned());
            continue;
        };
        // Rebuild the canonical query exactly as the engine did, via
        // the same helper the batch and serve paths resolve jobs with.
        let prepared = match prepare_job(
            &job.context,
            &job.sigma,
            &job.phi,
            &mut LabelInterner::new(),
        ) {
            Ok(prepared) => prepared,
            Err(e) => {
                fail(&mut out, &mut invalid, &id, e);
                continue;
            }
        };
        let canon = canonicalize(&prepared.context, &prepared.sigma, &prepared.phi);
        let check_context = cert::CheckContext {
            snapshot: snapshot_id(&canon.key),
            sigma: &canon.key.sigma,
            phi: &canon.key.phi,
        };
        match cert::check(&certificate, &check_context) {
            cert::CheckResult::Valid => certified += 1,
            cert::CheckResult::Invalid(why) => fail(&mut out, &mut invalid, &id, why),
        }
    }

    let _ = writeln!(
        out,
        "{} certified, {} unchecked (no certificate), {} invalid",
        certified, unchecked, invalid
    );
    if invalid == 0 {
        Ok(out)
    } else {
        Err(CliError::CheckFailed(out))
    }
}

fn cmd_validate(args: &Args) -> Result<String, CliError> {
    let doc_path = args.required("doc")?;
    let schema_path = args.required("schema")?;
    args.finish(&["doc", "schema"])?;

    let mut labels = LabelInterner::new();
    let schema = load_schema_file(&schema_path, &mut labels)?;
    let type_graph = TypeGraph::build(&schema, &mut labels);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "schema: {} classes, model {:?}, DBtype = {}",
        schema.class_count(),
        schema.model(),
        schema.render_type(schema.db_type(), &labels)
    );

    // XML documents get the schema-directed loader (it materializes the
    // set vertices the schema demands); graph files are validated as-is
    // via type inference.
    if doc_path.ends_with(".xml") {
        let content = read_file(&doc_path)?;
        return match pathcons_xml::load_typed_document(&content, &type_graph, &mut labels) {
            Ok(doc) => {
                let _ = writeln!(
                    out,
                    "document conforms to Phi(sigma): {} vertices ({} identified elements)",
                    doc.typed.graph.node_count(),
                    doc.ids.len()
                );
                Ok(out)
            }
            Err(e) => {
                let _ = writeln!(out, "schema-directed load failed: {e}");
                Err(CliError::CheckFailed(out))
            }
        };
    }

    let graph = load_graph_file(&doc_path, &mut labels)?;
    match infer_typing(&graph, &type_graph) {
        Err(e) => {
            let _ = writeln!(out, "type inference failed: {e}");
            Err(CliError::CheckFailed(out))
        }
        Ok(typed) => {
            let violations = typed.violations(&type_graph);
            if violations.is_empty() {
                let _ = writeln!(
                    out,
                    "document conforms to Φ(σ): {} vertices typed",
                    graph.node_count()
                );
                Ok(out)
            } else {
                for v in &violations {
                    let _ = writeln!(out, "Φ(σ) violation: {}", v.describe(&labels));
                }
                let _ = writeln!(out, "{} violation(s)", violations.len());
                Err(CliError::CheckFailed(out))
            }
        }
    }
}

fn cmd_implies(args: &Args) -> Result<String, CliError> {
    let constraints_path = args.required("constraints")?;
    let query_text = args.required("query")?;
    let schema_path = args.optional("schema");
    let context_name = args.optional("context");
    let finite = args.flag("finite");
    let explain_budget = args.flag("explain-budget");
    args.finish(&[
        "constraints",
        "query",
        "schema",
        "context",
        "finite",
        "explain-budget",
    ])?;

    let mut labels = LabelInterner::new();
    // The schema must intern labels first so `Paths(σ)` checks see them.
    let schema = match &schema_path {
        Some(p) => Some(load_schema_file(p, &mut labels)?),
        None => None,
    };
    let sigma = load_constraints_file(&constraints_path, &mut labels)?;
    let phi = PathConstraint::parse(&query_text, &mut labels).map_err(CliError::failed)?;

    let context = match (schema, context_name.as_deref()) {
        (None, None) | (None, Some("untyped")) => DataContext::Semistructured,
        (None, Some(other)) => {
            return Err(CliError::Usage(format!(
                "--context {other} requires --schema"
            )))
        }
        (Some(schema), ctx) => {
            let mut l2 = labels.clone();
            let tg = TypeGraph::build(&schema, &mut l2);
            labels = l2;
            let bundle = SchemaContext::new(schema, tg);
            match ctx {
                Some("m") => DataContext::M(bundle),
                Some("mplus") | None => match bundle_model(&bundle) {
                    Model::M => DataContext::M(bundle),
                    Model::MPlus => DataContext::MPlus(bundle),
                },
                Some(other) => return Err(CliError::Usage(format!("unknown context `{other}`"))),
            }
        }
    };

    let mut solver = Solver::new(context);
    let recorder = if explain_budget {
        let rec = Arc::new(InMemoryRecorder::new());
        solver = solver.with_budget(Budget::default().with_telemetry(Telemetry::new(rec.clone())));
        Some(rec)
    } else {
        None
    };
    let answer = if finite {
        solver.finitely_implies(&sigma, &phi)
    } else {
        solver.implies(&sigma, &phi)
    }
    .map_err(CliError::failed)?;

    let mut out = String::new();
    let problem = if finite { "Σ ⊨_f φ" } else { "Σ ⊨ φ" };
    let _ = writeln!(out, "query: {}", phi.display(&labels));
    let _ = writeln!(out, "method: {:?}", answer.method);
    let mut ok = true;
    match &answer.outcome {
        Outcome::Implied(evidence) => {
            let _ = writeln!(out, "{problem}: YES");
            // Re-check proof objects before reporting them as evidence.
            if let Evidence::IrProof(proof) = evidence {
                proof
                    .check(&sigma)
                    .map_err(|e| CliError::Failed(format!("proof check failed: {e}")))?;
            }
            let _ = writeln!(out, "evidence: {}", describe_evidence(evidence));
            if let Evidence::IrProof(proof) = evidence {
                let _ = writeln!(out, "derivation:");
                for line in proof.render(&labels).lines() {
                    let _ = writeln!(out, "  {line}");
                }
            }
        }
        Outcome::NotImplied(refutation) => {
            ok = false;
            let _ = writeln!(out, "{problem}: NO");
            match refutation.basis {
                RefutationBasis::DecisionProcedure => {
                    let _ = writeln!(out, "refuted by: complete decision procedure");
                }
                RefutationBasis::CounterModelChecked => {
                    let _ = writeln!(out, "refuted by: verified countermodel");
                }
            }
            if let Some(cm) = &refutation.countermodel {
                let _ = writeln!(out, "countermodel ({} vertices):", cm.graph.node_count());
                let _ = write!(
                    out,
                    "{}",
                    to_dot(&cm.graph, &labels, &DotOptions::default())
                );
            }
        }
        Outcome::Unknown(reason) => {
            ok = false;
            let _ = writeln!(out, "{problem}: UNKNOWN ({reason})");
            let _ = writeln!(
                out,
                "(the queried fragment/context is undecidable; the semi-deciders ran out of budget)"
            );
        }
    }
    if let Some(rec) = recorder {
        let _ = write!(out, "{}", render_budget_profile(&rec.snapshot()));
    }
    if ok {
        Ok(out)
    } else {
        Err(CliError::CheckFailed(out))
    }
}

/// Renders every `budget.attribution` event of a solve as a
/// human-readable profile: which engines ran, how they ended, and where
/// each one's steps went (the `phase.*` fields sum to `steps_total`).
fn render_budget_profile(snap: &Snapshot) -> String {
    let mut out = String::new();
    let attributions = snap.events_named(schema::EVENT_ATTRIBUTION);
    let _ = writeln!(out, "budget profile:");
    if attributions.is_empty() {
        let _ = writeln!(
            out,
            "  (no budgeted engines ran; the answer came from a decision procedure)"
        );
        return out;
    }
    for event in attributions {
        let engine = event.label(schema::LABEL_ENGINE).unwrap_or("?");
        let outcome = event.label(schema::LABEL_OUTCOME).unwrap_or("?");
        let _ = write!(out, "  {engine}: {outcome}");
        if let Some(reason) = event.label(schema::LABEL_REASON) {
            if !reason.is_empty() {
                let _ = write!(out, " ({reason})");
            }
        }
        if let Some(total) = event.field(schema::FIELD_STEPS_TOTAL) {
            let _ = write!(out, "; {total} steps");
            let phases: Vec<String> = event
                .fields
                .iter()
                .filter(|(k, _)| k.starts_with(schema::PHASE_PREFIX))
                .map(|(k, v)| format!("{} {v}", &k[schema::PHASE_PREFIX.len()..]))
                .collect();
            if !phases.is_empty() {
                let _ = write!(out, " ({})", phases.join(", "));
            }
        }
        if let (Some(used), Some(budget)) = (
            event.field(schema::FIELD_ROUNDS_USED),
            event.field(schema::FIELD_ROUNDS_BUDGET),
        ) {
            let _ = write!(out, "; rounds {used}/{budget}");
        }
        if let (Some(used), Some(budget)) = (
            event.field(schema::FIELD_SAMPLES_USED),
            event.field(schema::FIELD_SAMPLES_BUDGET),
        ) {
            let _ = write!(out, "; samples {used}/{budget}");
        }
        let _ = writeln!(out);
    }
    out
}

fn bundle_model(bundle: &SchemaContext) -> Model {
    bundle.schema.model()
}

fn describe_evidence(evidence: &Evidence) -> String {
    match evidence {
        Evidence::WordDerivation => "PTIME word-constraint procedure (β ∈ post*(α))".to_owned(),
        Evidence::LocalExtentReduction(inner) => format!(
            "Theorem 5.1 reduction to word constraints; inner: {}",
            describe_evidence(inner)
        ),
        Evidence::IrProof(proof) => format!(
            "I_r derivation with {} rule applications (checked)",
            proof.size()
        ),
        Evidence::VacuousOverSchema => {
            "vacuous over U(σ): hypothesis path outside Paths(σ)".to_owned()
        }
        Evidence::InconsistentTheory { index } => {
            format!("Σ is unsatisfiable over U(σ) (constraint #{index})")
        }
        Evidence::ChaseForced { steps, .. } => {
            format!("chase forced the conclusion after {steps} steps")
        }
        Evidence::UntypedImplication(inner) => format!(
            "implication over all structures, transferred to U(σ); inner: {}",
            describe_evidence(inner)
        ),
    }
}

/// `pathcons batch`: JSONL implication jobs in, JSONL results plus a
/// stats summary out.
///
/// Each input line is a job object: `{"id": "...", "sigma": ["a -> b"],
/// "phi": "b -> a", "context": "semistructured", "deadline_ms": 50}`
/// (`context` and `deadline_ms` optional; blank and `#` lines skipped).
/// Per-job failures (parse errors, deadline `unknown`s, even panics)
/// become error/unknown *results*; a malformed JSONL line likewise
/// becomes a per-line error record (`"id":"line-N"`) rather than
/// aborting the batch. The process only fails when the batch itself
/// cannot run. The final stdout line is a `{"stats": …}` object; a
/// human-readable summary goes to stderr unless `--quiet`.
///
/// Injected faults panic by design; without this the default hook
/// would spray backtraces over stderr for every recovered fault. Real
/// panics (anything not tagged by the injector) still print normally.
fn quiet_injected_panics() {
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
}

/// Parses the `--verify` family of flags into a [`VerifyMode`].
///
/// Accepted spellings: bare `--verify` and `--verify check` /
/// `--verify=check` (checker-validated hits), `--verify resolve` /
/// `--verify=resolve` (the legacy re-solve oracle). The `=` spellings
/// land in the parser as flags named `verify=check` / `verify=resolve`.
fn parse_verify_mode(args: &Args) -> Result<VerifyMode, CliError> {
    let eq_check = args.flag("verify=check");
    let eq_resolve = args.flag("verify=resolve");
    if eq_check && eq_resolve {
        return Err(CliError::Usage(
            "conflicting --verify modes: pick `check` or `resolve`".into(),
        ));
    }
    if eq_check {
        return Ok(VerifyMode::Check);
    }
    if eq_resolve {
        return Ok(VerifyMode::Resolve);
    }
    match args.optional("verify").as_deref() {
        Some("check") => Ok(VerifyMode::Check),
        Some("resolve") => Ok(VerifyMode::Resolve),
        Some(other) => Err(CliError::Usage(format!(
            "bad --verify mode `{other}`: expected `check` or `resolve`"
        ))),
        None if args.flag("verify") => Ok(VerifyMode::Check),
        None => Ok(VerifyMode::Off),
    }
}

/// Engine knobs shared by `batch` and `serve` (chaos and trace stay
/// batch-only); include in the subcommand's `finish` list.
const ENGINE_ARGS: &[&str] = &[
    "threads",
    "cache-size",
    "chase-rounds",
    "chase-max-nodes",
    "search-samples",
    "retries",
    "shed-depth",
    "verify",
    "verify=check",
    "verify=resolve",
];

/// Builds an [`EngineConfig`] from the shared engine flags — the one
/// place `batch` and `serve` agree on what an engine looks like, so a
/// served job runs under exactly the flags a batch job would.
fn engine_config_from_args(args: &Args) -> Result<EngineConfig, CliError> {
    let mut budget = pathcons_core::Budget::default();
    if let Some(rounds) = parse_numeric(args, "chase-rounds")? {
        budget.chase_rounds = rounds;
    }
    if let Some(nodes) = parse_numeric(args, "chase-max-nodes")? {
        budget.chase_max_nodes = nodes;
    }
    if let Some(samples) = parse_numeric(args, "search-samples")? {
        budget.search_samples = samples;
    }
    let mut retry = RetryPolicy::default();
    if let Some(n) = parse_numeric(args, "retries")? {
        retry.max_retries = n;
    }
    Ok(EngineConfig {
        threads: parse_numeric(args, "threads")?.unwrap_or(0),
        cache_capacity: parse_numeric(args, "cache-size")?.unwrap_or(4096),
        verify: parse_verify_mode(args)?,
        budget,
        retry,
        shed: ShedPolicy::queue_depth(parse_numeric(args, "shed-depth")?.unwrap_or(0)),
        chaos: None,
    })
}

/// `--chaos seed=N[,rate=R][,kind=panic|stall]` arms the deterministic
/// fault injector (worker panics, solver stalls) to exercise the
/// supervised-recovery path; `--retries N` bounds per-job retry
/// attempts and `--shed-depth N` sheds jobs beyond a queue depth with
/// fast `overloaded` answers.
fn cmd_batch(args: &Args) -> Result<String, CliError> {
    let jobs_path = args.optional("jobs");
    let results_path = args.optional("results");
    let deadline_ms = parse_numeric(args, "deadline-ms")?;
    let chaos = match args.optional("chaos") {
        None => None,
        Some(spec) => Some(FaultPlan::parse(&spec).map_err(CliError::Usage)?),
    };
    if chaos.is_some() {
        quiet_injected_panics();
    }
    let quiet = args.flag("quiet");
    let trace_path = args.optional("trace");
    let mut known = vec!["jobs", "results", "deadline-ms", "chaos", "quiet", "trace"];
    known.extend_from_slice(ENGINE_ARGS);
    args.finish(&known)?;

    let text = read_input(jobs_path.as_deref().unwrap_or("-"))?;
    // Malformed lines never abort the batch: each becomes an error
    // record keyed by its line number, emitted ahead of the results.
    let (mut jobs, bad_lines) = Job::parse_jobs_lossy(&text);
    if let Some(ms) = deadline_ms {
        // A batch-wide default deadline; per-job deadlines win.
        for job in &mut jobs {
            job.deadline_ms.get_or_insert(ms as u64);
        }
    }

    let mut config = engine_config_from_args(args)?;
    config.chaos = chaos;
    // --trace tees every engine event into a JSONL file (the durable
    // log, checkable with `pathcons trace-check`) and an in-memory
    // aggregate (the profile printed to stderr).
    let profile = match trace_path.as_deref() {
        None => None,
        Some(path) => {
            let file = FileRecorder::create(path)
                .map_err(|e| CliError::Failed(format!("cannot create trace `{path}`: {e}")))?;
            let memory = Arc::new(InMemoryRecorder::new());
            config.budget.telemetry = Telemetry::tee(vec![Arc::new(file), memory.clone()]);
            Some(memory)
        }
    };
    let engine = BatchEngine::new(config);
    let report = engine.run_batch(jobs);

    let mut out = String::new();
    for (lineno, error) in &bad_lines {
        let record = JobResult {
            id: format!("line-{lineno}"),
            verdict: Verdict::Error,
            method: None,
            detail: Some(format!("malformed job line: {error}")),
            unknown_kind: None,
            unknown_phase: None,
            cache: None,
            certificate: None,
            request_id: None,
            micros: 0,
        };
        let _ = writeln!(out, "{}", record.to_json());
    }
    for result in &report.results {
        let _ = writeln!(out, "{}", result.to_json());
    }
    let _ = writeln!(out, "{}", report.stats.to_json());
    if !quiet {
        if !bad_lines.is_empty() {
            write_stderr(&format!(
                "{} malformed job line(s) skipped (error records emitted)\n",
                bad_lines.len()
            ));
        }
        write_stderr(&format!("{}\n", report.stats.render()));
        if let Some(memory) = &profile {
            write_stderr(&render_trace_profile(
                &memory.snapshot(),
                trace_path.as_deref().unwrap_or("-"),
            ));
        }
    }
    match results_path.as_deref() {
        None | Some("-") => Ok(out),
        Some(path) => {
            std::fs::write(path, &out)
                .map_err(|e| CliError::Failed(format!("cannot write `{path}`: {e}")))?;
            Ok(format!(
                "{} result line(s) written to {path}\n",
                bad_lines.len() + report.results.len()
            ))
        }
    }
}

/// `pathcons snapshot build`: compile a JSONL contexts (or jobs) file
/// into a binary snapshot.
fn cmd_snapshot_build(args: &Args) -> Result<String, CliError> {
    // `--contexts` is the canonical spelling; `--jobs` is accepted so a
    // snapshot can be built straight from an existing batch jobs file.
    let contexts_path = match (args.optional("contexts"), args.optional("jobs")) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "pass one of --contexts or --jobs, not both".into(),
            ))
        }
        (Some(p), None) | (None, Some(p)) => p,
        (None, None) => {
            return Err(CliError::Usage(
                "missing required option `--contexts`".into(),
            ))
        }
    };
    let out_path = args.required("out")?;
    args.finish(&["contexts", "jobs", "out"])?;

    let store =
        ConstraintStore::from_jsonl(&read_input(&contexts_path)?).map_err(CliError::Failed)?;
    let bytes = store.to_bytes();
    std::fs::write(&out_path, &bytes)
        .map_err(|e| CliError::Failed(format!("cannot write `{out_path}`: {e}")))?;
    Ok(format!(
        "wrote {} ({} bytes)\n{}",
        out_path,
        bytes.len(),
        store.describe()
    ))
}

/// `pathcons snapshot info`: validate a snapshot file and describe it.
fn cmd_snapshot_info(args: &Args) -> Result<String, CliError> {
    let path = args.required("snapshot")?;
    args.finish(&["snapshot"])?;
    let bytes =
        std::fs::read(&path).map_err(|e| CliError::Failed(format!("cannot read `{path}`: {e}")))?;
    let store = ConstraintStore::from_bytes(&bytes)
        .map_err(|e| CliError::Failed(format!("`{path}`: {e}")))?;
    Ok(store.describe())
}

/// `pathcons serve`: load the store once, answer JSONL jobs over a
/// socket until a `{"op": "shutdown"}` line (or the process is killed).
fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let listen = args.required("listen")?;
    let snapshot_path = args.optional("snapshot");
    let contexts_path = args.optional("contexts");
    let deadline_ms = parse_numeric(args, "deadline-ms")?;
    let quiet = args.flag("quiet");
    let warm = args.flag("warm");
    let no_shared = args.flag("no-shared");
    let metrics_addr = args.optional("metrics-addr");
    let slow_ms = parse_numeric(args, "slow-ms")?;
    let slow_log = args.optional("slow-log");
    let trace_path = args.optional("trace");
    let mut known = vec![
        "listen",
        "snapshot",
        "contexts",
        "deadline-ms",
        "quiet",
        "warm",
        "no-shared",
        "metrics-addr",
        "slow-ms",
        "slow-log",
        "trace",
    ];
    known.extend_from_slice(ENGINE_ARGS);
    args.finish(&known)?;
    if warm && no_shared {
        return Err(CliError::Usage(
            "--warm builds the shared state --no-shared disables; pass one".into(),
        ));
    }

    let load_start = std::time::Instant::now();
    let mut store = match (snapshot_path.as_deref(), contexts_path.as_deref()) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "pass one of --snapshot or --contexts, not both".into(),
            ))
        }
        (Some(path), None) => {
            let bytes = std::fs::read(path)
                .map_err(|e| CliError::Failed(format!("cannot read `{path}`: {e}")))?;
            ConstraintStore::from_bytes(&bytes)
                .map_err(|e| CliError::Failed(format!("`{path}`: {e}")))?
        }
        (None, Some(path)) => {
            ConstraintStore::from_jsonl(&read_input(path)?).map_err(CliError::Failed)?
        }
        // No context data: every job resolves through the builtin
        // contexts, exactly as `pathcons batch` would.
        (None, None) => ConstraintStore::from_jsonl("").map_err(CliError::Failed)?,
    };
    let load_elapsed = load_start.elapsed();

    let endpoint = Endpoint::parse(&listen).map_err(CliError::Usage)?;
    let mut config = engine_config_from_args(args)?;
    // `serve --trace` mirrors `batch --trace`: every engine event (and
    // the per-job `serve.job` correlation events) lands in a JSONL
    // trace checkable with `pathcons trace-check`.
    if let Some(path) = trace_path.as_deref() {
        let file = FileRecorder::create(path)
            .map_err(|e| CliError::Failed(format!("cannot create trace `{path}`: {e}")))?;
        config.budget.telemetry = Telemetry::new(Arc::new(file));
    }
    // Shared amortization state must be built under the very budget the
    // engine solves with: the solver-side reuse guards compare budget
    // caps exactly and quietly fall back to cold solving on mismatch.
    store.set_shared_budget(if no_shared {
        None
    } else {
        Some(config.budget.clone())
    });
    let warm_start = std::time::Instant::now();
    let warmed = if warm { store.warm_all() } else { 0 };
    let warm_elapsed = warm_start.elapsed();
    let engine = Arc::new(BatchEngine::new(config));
    let mut server = Server::bind(
        &endpoint,
        Arc::new(store),
        engine,
        deadline_ms.map(|ms| ms as u64),
    )
    .map_err(|e| CliError::Failed(format!("cannot bind `{endpoint}`: {e}")))?;
    if let Some(ms) = slow_ms {
        server = server
            .with_slow_log(ms as u64, slow_log.as_deref())
            .map_err(|e| CliError::Failed(format!("cannot open slow log: {e}")))?;
    } else if slow_log.is_some() {
        return Err(CliError::Usage("--slow-log needs --slow-ms".into()));
    }
    if let Some(addr) = metrics_addr.as_deref() {
        server = server
            .with_metrics_addr(addr)
            .map_err(|e| CliError::Failed(format!("cannot bind metrics `{addr}`: {e}")))?;
    }
    if !quiet {
        let warm_note = if warm {
            format!(
                ", {warmed} context(s) warmed in {:.1} ms",
                warm_elapsed.as_secs_f64() * 1e3
            )
        } else {
            String::new()
        };
        let metrics_note = match server.metrics_addr() {
            Some(addr) => format!(", metrics on http://{addr}/metrics"),
            None => String::new(),
        };
        write_stderr(&format!(
            "serving on {} (store loaded in {:.1} ms{warm_note}{metrics_note})\n",
            server.endpoint(),
            load_elapsed.as_secs_f64() * 1e3,
        ));
    }
    let stats = server.stats();
    server
        .run()
        .map_err(|e| CliError::Failed(format!("serve failed: {e}")))?;
    let snap = stats.snapshot();
    Ok(format!(
        "served {} job(s) over {} connection(s) ({} malformed line(s), {} shed, {} slow)\n",
        snap.jobs, snap.connections, snap.malformed, snap.shed, snap.slow,
    ))
}

/// Renders the human-readable side of `batch --trace`: span balance,
/// chase/search effort, cache efficiency, the most expensive
/// constraints by chase violations, and every budget attribution.
fn render_trace_profile(snap: &Snapshot, trace_path: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "trace profile ({trace_path}):");

    let spans: Vec<String> = snap
        .spans
        .iter()
        .map(|(name, b)| {
            if b.enters == b.exits {
                format!("{name} ×{}", b.enters)
            } else {
                format!("{name} ×{} (UNBALANCED: {} exits)", b.enters, b.exits)
            }
        })
        .collect();
    if !spans.is_empty() {
        let _ = writeln!(out, "  spans: {}", spans.join(", "));
    }

    let rounds = snap.events_named(schema::EVENT_CHASE_ROUND).len();
    if rounds > 0 {
        let _ = writeln!(
            out,
            "  chase: {rounds} rounds, {} dirty-constraint scans, frontier {} delta edges / {} new pairs / {} retired",
            snap.counter("chase.scans"),
            snap.counter("chase.frontier.delta_edges"),
            snap.counter("chase.frontier.new_pairs"),
            snap.counter("chase.frontier.retired"),
        );
    }
    let samples = snap.counter("search.samples") + snap.counter("search.typed.samples");
    if samples > 0 {
        let _ = writeln!(out, "  search: {samples} candidate structures sampled");
    }

    // Top constraints by violations repaired, from the per-constraint
    // `chase.constraint.<i>.violations` counters.
    let mut costly: Vec<(&str, u64)> = snap
        .counters
        .iter()
        .filter_map(|(key, v)| {
            let index = key
                .strip_prefix("chase.constraint.")?
                .strip_suffix(".violations")?;
            Some((index, *v))
        })
        .collect();
    costly.sort_by_key(|&(_, v)| std::cmp::Reverse(v));
    if !costly.is_empty() {
        let _ = writeln!(out, "  most violated constraints (by chase repairs):");
        for (index, violations) in costly.iter().take(5) {
            let pairs = snap.counter(&format!("chase.constraint.{index}.pairs"));
            let _ = writeln!(
                out,
                "    constraint #{index}: {violations} violations, {pairs} frontier pairs"
            );
        }
    }

    let attributions = snap.events_named(schema::EVENT_ATTRIBUTION);
    if !attributions.is_empty() {
        let _ = writeln!(out, "  budget attributions: {}", attributions.len());
        let unknowns: Vec<&_> = attributions
            .iter()
            .filter(|e| e.label(schema::LABEL_OUTCOME) == Some("unknown"))
            .copied()
            .collect();
        for event in unknowns.iter().take(5) {
            let engine = event.label(schema::LABEL_ENGINE).unwrap_or("?");
            let reason = event.label(schema::LABEL_REASON).unwrap_or("?");
            let steps = event.field(schema::FIELD_STEPS_TOTAL).unwrap_or(0);
            let _ = writeln!(
                out,
                "    unknown from {engine}: {reason} after {steps} steps"
            );
        }
    }
    out
}

/// `pathcons trace-check`: validates a `--trace` JSONL log.
///
/// Checks, in order of increasing depth:
/// 1. every line parses as a JSON object with `t`, `tid`, `kind` and
///    `name`, and each kind carries its payload (`delta` for counters,
///    `value` for histograms, `fields`/`labels` objects for events);
/// 2. spans balance *per thread* in LIFO order — every `span_exit`
///    matches the innermost open `span_enter` of its `tid`, and no
///    span is left open at end of log;
/// 3. every `budget.attribution` event's `phase.*` fields sum exactly
///    to `steps_total`, `rounds_used ≤ rounds_budget`, and
///    `samples_used ≤ samples_budget`.
///
/// Exit code 0 with a summary when the trace is well-formed; exit 1
/// with the first offending line otherwise.
fn cmd_trace_check(args: &Args) -> Result<String, CliError> {
    let path = args.required("trace")?;
    args.finish(&["trace"])?;
    let text = read_file(&path)?;

    let mut lines = 0usize;
    let mut events = 0usize;
    let mut attributions = 0usize;
    let mut open_spans: std::collections::BTreeMap<u64, Vec<String>> =
        std::collections::BTreeMap::new();
    let bad = |lineno: usize, message: String| {
        CliError::CheckFailed(format!("trace invalid at line {lineno}: {message}\n"))
    };

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        lines += 1;
        let v = Json::parse(line).map_err(|e| bad(lineno, format!("not JSON: {e}")))?;
        v.get("t")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad(lineno, "missing numeric field `t`".into()))?;
        let tid = v
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad(lineno, "missing numeric field `tid`".into()))?;
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| bad(lineno, "missing string field `kind`".into()))?;
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad(lineno, "missing string field `name`".into()))?;

        match kind {
            "span_enter" => open_spans.entry(tid).or_default().push(name.to_owned()),
            "span_exit" => {
                let top = open_spans.entry(tid).or_default().pop();
                if top.as_deref() != Some(name) {
                    return Err(bad(
                        lineno,
                        format!(
                            "span_exit `{name}` on tid {tid} does not close the innermost open span ({})",
                            top.as_deref().unwrap_or("none open")
                        ),
                    ));
                }
            }
            "counter" => {
                v.get("delta")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad(lineno, "counter without numeric `delta`".into()))?;
            }
            "histogram" => {
                v.get("value")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad(lineno, "histogram without numeric `value`".into()))?;
            }
            "event" => {
                events += 1;
                let fields = match v.get("fields") {
                    Some(Json::Obj(members)) => members,
                    _ => return Err(bad(lineno, "event without `fields` object".into())),
                };
                if !matches!(v.get("labels"), Some(Json::Obj(_))) {
                    return Err(bad(lineno, "event without `labels` object".into()));
                }
                let num = |key: &str| {
                    fields
                        .iter()
                        .find(|(k, _)| k == key)
                        .and_then(|(_, v)| v.as_u64())
                };
                if name == "budget.attribution" {
                    attributions += 1;
                    let total = num("steps_total")
                        .ok_or_else(|| bad(lineno, "attribution without `steps_total`".into()))?;
                    let phase_sum: u64 = fields
                        .iter()
                        .filter(|(k, _)| k.starts_with("phase."))
                        .filter_map(|(_, v)| v.as_u64())
                        .sum();
                    if phase_sum != total {
                        return Err(bad(
                            lineno,
                            format!("phase.* fields sum to {phase_sum}, steps_total is {total}"),
                        ));
                    }
                    if let (Some(used), Some(budget)) = (num("rounds_used"), num("rounds_budget")) {
                        if used > budget {
                            return Err(bad(
                                lineno,
                                format!("rounds_used {used} exceeds rounds_budget {budget}"),
                            ));
                        }
                    }
                    if let (Some(used), Some(budget)) = (num("samples_used"), num("samples_budget"))
                    {
                        if used > budget {
                            return Err(bad(
                                lineno,
                                format!("samples_used {used} exceeds samples_budget {budget}"),
                            ));
                        }
                    }
                }
            }
            other => return Err(bad(lineno, format!("unknown record kind `{other}`"))),
        }
    }

    for (tid, stack) in &open_spans {
        if let Some(name) = stack.last() {
            return Err(CliError::CheckFailed(format!(
                "trace invalid: span `{name}` on tid {tid} never exits\n"
            )));
        }
    }

    let threads = open_spans.len();
    Ok(format!(
        "trace ok: {lines} records, {events} events ({attributions} budget attributions), \
         spans balanced across {threads} thread{}\n",
        if threads == 1 { "" } else { "s" }
    ))
}

fn parse_numeric(args: &Args, key: &str) -> Result<Option<usize>, CliError> {
    args.optional(key)
        .map(|v| {
            v.parse()
                .map_err(|_| CliError::Usage(format!("--{key} must be a non-negative integer")))
        })
        .transpose()
}

fn cmd_dot(args: &Args) -> Result<String, CliError> {
    let graph_path = args.required("graph")?;
    args.finish(&["graph"])?;
    let mut labels = LabelInterner::new();
    let graph = load_graph_file(&graph_path, &mut labels)?;
    Ok(to_dot(&graph, &labels, &DotOptions::default()))
}

fn cmd_optimize(args: &Args) -> Result<String, CliError> {
    let schema_path = args.required("schema")?;
    let constraints_path = args.required("constraints")?;
    let query_text = args.required("query")?;
    let fuel: usize = args
        .optional("fuel")
        .map(|f| {
            f.parse()
                .map_err(|_| CliError::Usage("--fuel must be a number".into()))
        })
        .transpose()?
        .unwrap_or(10_000);
    args.finish(&["schema", "constraints", "query", "fuel"])?;

    let mut labels = LabelInterner::new();
    let schema = load_schema_file(&schema_path, &mut labels)?;
    let type_graph = TypeGraph::build(&schema, &mut labels);
    let sigma = load_constraints_file(&constraints_path, &mut labels)?;
    let query =
        pathcons_constraints::Path::parse(&query_text, &mut labels).map_err(CliError::failed)?;

    let result = pathcons_core::optimize_path(&schema, &type_graph, &sigma, &query, fuel)
        .map_err(CliError::failed)?;
    let mut out = String::new();
    let _ = writeln!(out, "query:     {}", query.display(&labels));
    let _ = writeln!(out, "optimized: {}", result.path.display(&labels));
    let _ = writeln!(
        out,
        "explored {} congruent paths; rewrite certified by checked I_r proofs",
        result.class_size_explored
    );
    if result.path.len() < query.len() {
        let _ = writeln!(out, "derivation (query -> optimized):");
        for line in result.forward_proof.render(&labels).lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    Ok(out)
}
