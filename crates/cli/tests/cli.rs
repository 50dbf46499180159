//! End-to-end tests driving the compiled `pathcons` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_pathcons")
}

fn write(dir: &std::path::Path, name: &str, content: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().unwrap()
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pathcons-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const GRAPH: &str = "r -book-> b1\nr -person-> p1\nb1 -author-> p1\np1 -wrote-> b1\n";
const CONSTRAINTS: &str = "book.author -> person\nperson.wrote -> book\nbook: author <- wrote\n";
const SCHEMA: &str = "atoms string;\n\
    class Person = [name: string, wrote: Book];\n\
    class Book = [title: string, author: Person];\n\
    db = [person: Person, book: Book];\n";

#[test]
fn check_passes_on_conforming_graph() {
    let dir = tempdir("check");
    let g = write(&dir, "g.txt", GRAPH);
    let c = write(&dir, "c.txt", CONSTRAINTS);
    let out = run(&[
        "check",
        "--graph",
        g.to_str().unwrap(),
        "--constraints",
        c.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 constraints checked, 0 failed"));
}

#[test]
fn check_fails_with_exit_1_and_violations() {
    let dir = tempdir("check-fail");
    let g = write(&dir, "g.txt", "r -book-> b1\nb1 -author-> p1\n");
    let c = write(&dir, "c.txt", "book.author -> person\n");
    let out = run(&[
        "check",
        "--graph",
        g.to_str().unwrap(),
        "--constraints",
        c.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"));
}

#[test]
fn implies_word_fragment() {
    let dir = tempdir("implies");
    let c = write(&dir, "c.txt", "a -> b\nb -> c\n");
    let out = run(&[
        "implies",
        "--constraints",
        c.to_str().unwrap(),
        "--query",
        "a -> c",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("YES"));
    assert!(stdout.contains("WordAutomaton"));
}

#[test]
fn implies_refutation_prints_countermodel() {
    let dir = tempdir("implies-no");
    let c = write(&dir, "c.txt", "a -> b\n");
    let out = run(&[
        "implies",
        "--constraints",
        c.to_str().unwrap(),
        "--query",
        "b -> a",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("NO"));
    assert!(stdout.contains("digraph"));
}

#[test]
fn implies_typed_context_with_proof() {
    let dir = tempdir("implies-m");
    let c = write(&dir, "c.txt", "book: author <- wrote\n");
    let s = write(&dir, "s.ddl", SCHEMA);
    let out = run(&[
        "implies",
        "--constraints",
        c.to_str().unwrap(),
        "--query",
        "book -> book.author.wrote",
        "--schema",
        s.to_str().unwrap(),
        "--context",
        "m",
        "--finite",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("I_r derivation"));
    assert!(stdout.contains("Σ ⊨_f φ: YES"));
}

#[test]
fn validate_conforming_and_violating() {
    let dir = tempdir("validate");
    let s = write(&dir, "s.ddl", SCHEMA);
    let good = write(
        &dir,
        "good.txt",
        "r -book-> b1\nr -person-> p1\nb1 -author-> p1\nb1 -title-> t1\np1 -wrote-> b1\np1 -name-> n1\n",
    );
    let out = run(&[
        "validate",
        "--doc",
        good.to_str().unwrap(),
        "--schema",
        s.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");

    let bad = write(&dir, "bad.txt", GRAPH); // missing title/name fields
    let out = run(&[
        "validate",
        "--doc",
        bad.to_str().unwrap(),
        "--schema",
        s.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("missing field `title`"));
}

#[test]
fn validate_xml_document_against_xml_schema() {
    let dir = tempdir("validate-xml");
    // A minimal document conforming to a small XML-Data schema.
    let schema = write(
        &dir,
        "s.xml",
        r##"<schema>
          <elementType id="t"><string/></elementType>
          <elementType id="item"><element type="#t"/></elementType>
        </schema>"##,
    );
    let doc = write(&dir, "d.xml", "<bib><item><t>hello</t></item></bib>");
    let out = run(&[
        "validate",
        "--doc",
        doc.to_str().unwrap(),
        "--schema",
        schema.to_str().unwrap(),
    ]);
    // The schema-directed loader materializes the set vertex DBtype
    // demands, so the document conforms.
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("conforms"), "{stdout}");

    // A document with an unknown top-level element fails cleanly.
    let bad = write(&dir, "bad.xml", "<bib><mystery/></bib>");
    let out = run(&[
        "validate",
        "--doc",
        bad.to_str().unwrap(),
        "--schema",
        schema.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("schema-directed load failed"));
}

#[test]
fn dot_renders() {
    let dir = tempdir("dot");
    let g = write(&dir, "g.txt", GRAPH);
    let out = run(&["dot", "--graph", g.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("digraph"));
    assert!(stdout.contains("author"));
}

#[test]
fn usage_errors_exit_2() {
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["implies", "--query", "a -> b"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&[
        "check",
        "--graph",
        "g",
        "--constraints",
        "c",
        "--bogus",
        "x",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["batch", "--chaos", "seed=1,kind=poisoned-lock"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_file_reports_cleanly() {
    let out = run(&["dot", "--graph", "/nonexistent/g.txt"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn check_mixed_regular_constraints() {
    let dir = tempdir("check-regular");
    let g = write(
        &dir,
        "g.txt",
        "r -book-> b1\nb1 -ref-> b2\nb2 -author-> p\nr -person-> p\nb1 -author-> p\np -wrote-> b1\n",
    );
    let c = write(
        &dir,
        "c.txt",
        "book.author -> person\nbook.(ref)*.author <= person\n",
    );
    let out = run(&[
        "check",
        "--graph",
        g.to_str().unwrap(),
        "--constraints",
        c.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("2 constraints checked, 0 failed"),
        "{stdout}"
    );

    // A failing regular constraint.
    let c2 = write(&dir, "c2.txt", "book.(ref)+ <= book\n");
    let out = run(&[
        "check",
        "--graph",
        g.to_str().unwrap(),
        "--constraints",
        c2.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("violating vertex"));
}

#[test]
fn optimize_rewrites_queries() {
    let dir = tempdir("optimize");
    let s = write(&dir, "s.ddl", SCHEMA);
    let c = write(&dir, "c.txt", "book: author <- wrote\n");
    let out = run(&[
        "optimize",
        "--schema",
        s.to_str().unwrap(),
        "--constraints",
        c.to_str().unwrap(),
        "--query",
        "book.author.wrote.author.name",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("optimized: book.author.name"));
    assert!(stdout.contains("hypothesis #0"));
}

#[test]
fn batch_runs_jobs_from_file_with_stats() {
    let dir = tempdir("batch");
    let jobs = write(
        &dir,
        "jobs.jsonl",
        r#"{"id":"j1","sigma":["a -> b","b -> c"],"phi":"a -> c"}
{"id":"j2","sigma":["x -> y","y -> z"],"phi":"x -> z"}
{"id":"j3","sigma":["a -> b"],"phi":"b -> a"}
{"id":"bad","sigma":["a -> "],"phi":"a -> a"}
"#,
    );
    // One worker: with two, j1 and j2 run at once and j2 hits only when
    // j1 happens to finish first.
    let out = run(&["batch", "--jobs", jobs.to_str().unwrap(), "--threads", "1"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 5, "4 results + 1 stats line: {stdout}");
    assert!(lines[0].contains(r#""id":"j1""#) && lines[0].contains(r#""verdict":"implied""#));
    // j2 is an alpha-variant of j1: served from the cache.
    assert!(lines[1].contains(r#""cache":"hit""#), "{}", lines[1]);
    assert!(lines[2].contains(r#""verdict":"not-implied""#));
    assert!(lines[3].contains(r#""verdict":"error""#));
    assert!(lines[4].contains(r#""stats""#) && lines[4].contains(r#""hits":1"#));
    // Human summary goes to stderr (suppressed by --quiet).
    assert!(String::from_utf8_lossy(&out.stderr).contains("hit rate"));
    let quiet = run(&["batch", "--jobs", jobs.to_str().unwrap(), "--quiet"]);
    assert!(quiet.status.success());
    assert!(String::from_utf8_lossy(&quiet.stderr).is_empty());
}

#[test]
fn batch_deadline_bounds_hard_jobs() {
    let dir = tempdir("batch-deadline");
    // A general-P_c job whose chase diverges and whose countermodel
    // search never hits (probed across seeds); under a huge explicit
    // budget the batch-wide default deadline is the only way out and
    // turns it into a prompt `unknown`. Deadlines are armed at batch
    // admission, so on a single-core box "easy" could expire while
    // queued behind "hard" — its own generous per-job deadline (which
    // overrides the batch default) keeps it decidable.
    let jobs = write(
        &dir,
        "jobs.jsonl",
        r#"{"id":"hard","sigma":["p: a -> a.b.c.d","p: d <- e"],"phi":"p: a -> e"}
{"id":"easy","sigma":["a -> b"],"phi":"a -> b","deadline_ms":30000}
"#,
    );
    let out = run(&[
        "batch",
        "--jobs",
        jobs.to_str().unwrap(),
        "--deadline-ms",
        "50",
        "--chase-rounds",
        "1000000",
        "--chase-max-nodes",
        "1000000",
        "--search-samples",
        "1000000000",
        "--quiet",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines[0].contains(r#""verdict":"unknown""#) && lines[0].contains("deadline exceeded"),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains(r#""verdict":"implied""#));
    assert!(lines[2].contains(r#""unknown":1"#));
}

#[test]
fn implies_explain_budget_attributes_every_unknown() {
    let dir = tempdir("explain-budget");
    // General P_c with a diverging chase and no small countermodel:
    // both semi-deciders run and exhaust their budgets, so the profile
    // must attribute each engine's steps.
    let c = write(&dir, "c.txt", "p: a -> a.b.c.d\np: d <- e\n");
    let out = run(&[
        "implies",
        "--constraints",
        c.to_str().unwrap(),
        "--query",
        "p: a -> e",
        "--explain-budget",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("UNKNOWN"), "{stdout}");
    assert!(stdout.contains("budget profile:"), "{stdout}");
    assert!(stdout.contains("chase:"), "{stdout}");
    assert!(stdout.contains("rounds"), "{stdout}");
    assert!(stdout.contains("samples"), "{stdout}");

    // Fast decision-procedure paths run no budgeted engine; the profile
    // says so instead of inventing numbers.
    let word = write(&dir, "w.txt", "a -> b\nb -> c\n");
    let out = run(&[
        "implies",
        "--constraints",
        word.to_str().unwrap(),
        "--query",
        "a -> c",
        "--explain-budget",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("budget profile:"), "{stdout}");
    assert!(stdout.contains("no budgeted engines ran"), "{stdout}");
}

#[test]
fn batch_trace_emits_validatable_jsonl_and_profile() {
    let dir = tempdir("batch-trace");
    // A mixed workload: implied, cache-hit, not-implied, and an
    // unknown whose deadline bounds the diverging chase.
    let jobs = write(
        &dir,
        "jobs.jsonl",
        r#"{"id":"i1","sigma":["a -> b","b -> c"],"phi":"a -> c"}
{"id":"i2","sigma":["x -> y","y -> z"],"phi":"x -> z"}
{"id":"n1","sigma":["a -> b"],"phi":"b -> a"}
{"id":"u1","sigma":["p: a -> a.b.c.d","p: d <- e"],"phi":"p: a -> e","deadline_ms":500}
"#,
    );
    let trace = dir.join("trace.jsonl");
    let out = run(&[
        "batch",
        "--jobs",
        jobs.to_str().unwrap(),
        "--threads",
        "2",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The unknown job carries the machine-readable reason fields.
    let unknown_line = stdout
        .lines()
        .find(|l| l.contains(r#""id":"u1""#))
        .expect("u1 result line");
    assert!(
        unknown_line.contains(r#""verdict":"unknown""#),
        "{unknown_line}"
    );
    assert!(
        unknown_line.contains(r#""unknown_kind":""#),
        "{unknown_line}"
    );
    // The stderr profile summarizes the trace; the cache counts are on
    // the stats line above it.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("trace profile"), "{stderr}");
    assert!(stderr.contains(" hits / "), "{stderr}");
    assert!(stderr.contains("budget attributions:"), "{stderr}");

    // The written trace passes its own validator.
    let check = run(&["trace-check", "--trace", trace.to_str().unwrap()]);
    assert!(check.status.success(), "{check:?}");
    let check_out = String::from_utf8_lossy(&check.stdout);
    assert!(check_out.contains("trace ok"), "{check_out}");
    assert!(check_out.contains("budget attributions"), "{check_out}");
}

#[test]
fn trace_check_rejects_broken_traces() {
    let dir = tempdir("trace-check-bad");

    // An unbalanced span: entered, never exited.
    let unbalanced = write(
        &dir,
        "unbalanced.jsonl",
        "{\"t\":1,\"tid\":0,\"kind\":\"span_enter\",\"name\":\"chase\"}\n",
    );
    let out = run(&["trace-check", "--trace", unbalanced.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("never exits"));

    // An attribution whose phases do not sum to steps_total.
    let lying = write(
        &dir,
        "lying.jsonl",
        "{\"t\":1,\"tid\":0,\"kind\":\"event\",\"name\":\"budget.attribution\",\
         \"fields\":{\"steps_total\":5,\"phase.repair_path\":3},\"labels\":{\"engine\":\"chase\"}}\n",
    );
    let out = run(&["trace-check", "--trace", lying.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("steps_total"));

    // Garbage is reported with its line number.
    let garbage = write(&dir, "garbage.jsonl", "not json at all\n");
    let out = run(&["trace-check", "--trace", garbage.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("line 1"));
}

#[test]
fn batch_tolerates_malformed_jsonl_lines() {
    let dir = tempdir("batch-bad");
    // A malformed line becomes a per-line error record; the rest of
    // the batch still runs.
    let jobs = write(
        &dir,
        "jobs.jsonl",
        "{\"id\":\"x\" no-json\n{\"id\":\"ok\",\"sigma\":[\"a -> b\"],\"phi\":\"a -> b\"}\n",
    );
    let out = run(&["batch", "--jobs", jobs.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "error record + result + stats: {stdout}");
    assert!(
        lines[0].contains(r#""id":"line-1""#)
            && lines[0].contains(r#""verdict":"error""#)
            && lines[0].contains("malformed job line"),
        "{}",
        lines[0]
    );
    assert!(
        lines[1].contains(r#""id":"ok""#) && lines[1].contains(r#""verdict":"implied""#),
        "{}",
        lines[1]
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("malformed job line"));
}

#[test]
fn batch_chaos_recovers_and_loses_no_jobs() {
    let dir = tempdir("batch-chaos");
    // 24 distinct easy jobs under a fault-heavy plan: every result line
    // must come back with its own id, and the trace must still
    // validate (the resilience attribution sums like any other).
    let mut body = String::new();
    for i in 0..24 {
        body.push_str(&format!(
            "{{\"id\":\"j{i}\",\"sigma\":[\"a{i} -> b{i}\"],\"phi\":\"a{i} -> b{i}\"}}\n"
        ));
    }
    let jobs = write(&dir, "jobs.jsonl", &body);
    let trace = dir.join("trace.jsonl");
    let out = run(&[
        "batch",
        "--jobs",
        jobs.to_str().unwrap(),
        "--threads",
        "3",
        "--chaos",
        "seed=42,rate=128",
        "--quiet",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 25, "24 results + stats: {stdout}");
    for i in 0..24 {
        assert!(
            stdout.contains(&format!(r#""id":"j{i}""#)),
            "job j{i} lost: {stdout}"
        );
    }
    let check = run(&["trace-check", "--trace", trace.to_str().unwrap()]);
    assert!(check.status.success(), "{check:?}");

    // Shedding: a queue depth of 2 answers the tail `overloaded`.
    let shed = run(&[
        "batch",
        "--jobs",
        jobs.to_str().unwrap(),
        "--shed-depth",
        "2",
        "--quiet",
    ]);
    assert!(shed.status.success(), "{shed:?}");
    let shed_out = String::from_utf8_lossy(&shed.stdout);
    assert_eq!(
        shed_out.matches(r#""unknown_kind":"overloaded""#).count(),
        22,
        "{shed_out}"
    );
    assert!(shed_out.contains(r#""shed":22"#), "{shed_out}");
}

#[test]
fn snapshot_build_info_and_serve_errors() {
    let dir = tempdir("snapshot");
    let contexts = write(
        &dir,
        "contexts.jsonl",
        r#"{"name": "lib", "sigma": ["a -> b"], "edges": [["n0", "a", "n1"], ["n1", "b", "n2"]], "root": "n0"}
"#,
    );
    let snap = dir.join("world.pcs");
    let out = run(&[
        "snapshot",
        "build",
        "--contexts",
        contexts.to_str().unwrap(),
        "--out",
        snap.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote"), "{stdout}");
    assert!(stdout.contains("lib"), "{stdout}");

    let info = run(&["snapshot", "info", "--snapshot", snap.to_str().unwrap()]);
    assert!(info.status.success(), "{info:?}");
    let info_out = String::from_utf8_lossy(&info.stdout);
    assert!(info_out.contains("snapshot "), "{info_out}");
    assert!(
        info_out.contains("graph 3 node(s) / 2 edge(s)"),
        "{info_out}"
    );

    // Corruption is a clean exit-1 diagnostic, not a panic.
    let mut bytes = std::fs::read(&snap).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    let bad = write(&dir, "bad.pcs", "");
    std::fs::write(&bad, &bytes).unwrap();
    let info = run(&["snapshot", "info", "--snapshot", bad.to_str().unwrap()]);
    assert_eq!(info.status.code(), Some(1), "{info:?}");
    let err = String::from_utf8_lossy(&info.stderr);
    assert!(err.contains("checksum"), "{err}");

    // serve refuses ambiguous store sources.
    let out = run(&[
        "serve",
        "--listen",
        "unix:/tmp/unused.sock",
        "--snapshot",
        snap.to_str().unwrap(),
        "--contexts",
        contexts.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn batch_reads_stdin_and_writes_results_file() {
    use std::io::Write as _;
    let dir = tempdir("stdin-batch");
    let results = dir.join("results.jsonl");
    let mut child = Command::new(bin())
        .args([
            "batch",
            "--jobs",
            "-",
            "--results",
            results.to_str().unwrap(),
            "--quiet",
        ])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"{\"id\": \"s1\", \"sigma\": [\"a -> b\", \"b -> c\"], \"phi\": \"a -> c\"}\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let written = std::fs::read_to_string(&results).unwrap();
    assert!(
        written.contains(r#""id":"s1","verdict":"implied""#),
        "{written}"
    );

    // And the results file audits cleanly with check --jobs -.
    let results_arg = results.to_str().unwrap().to_owned();
    let mut child = Command::new(bin())
        .args(["check", "--results", &results_arg, "--jobs", "-"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"{\"id\": \"s1\", \"sigma\": [\"a -> b\", \"b -> c\"], \"phi\": \"a -> c\"}\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");

    // Both streams can't be stdin.
    let out = run(&["check", "--results", "-", "--jobs", "-"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
