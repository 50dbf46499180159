//! The serve metrics plane end to end: the `{"op": "metrics"}` snapshot
//! and the Prometheus HTTP scrape agree with the traffic actually sent,
//! job and cache counts match the `stats` op exactly, idle scrapes are
//! byte-identical, the inflight gauge survives a shed-and-malformed
//! hammer, and a slow-query record's request id joins the wire result
//! and the telemetry trace.

use pathcons_engine::{BatchEngine, EngineConfig, Json, ShedPolicy};
use pathcons_metrics::names;
use pathcons_store::{Client, ConstraintStore, Endpoint, Server, ServerHandle};
use pathcons_telemetry::{schema, InMemoryRecorder, Telemetry};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn socket_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("pcm-{}-{tag}-{seq}.sock", std::process::id()))
}

fn temp_file(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("pcm-{}-{tag}-{seq}.jsonl", std::process::id()))
}

/// A server over an empty store with its Prometheus listener bound.
fn server(tag: &str, config: EngineConfig) -> ServerHandle {
    let store = ConstraintStore::from_jsonl("").expect("empty store");
    Server::bind(
        &Endpoint::Unix(socket_path(tag)),
        Arc::new(store),
        Arc::new(BatchEngine::new(config)),
        None,
    )
    .expect("bind unix socket")
    .with_metrics_addr("127.0.0.1:0")
    .expect("bind metrics listener")
    .spawn()
}

/// One `GET` against the exposition listener; returns (status line, body).
fn scrape(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect metrics addr");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header block");
    let status = head.lines().next().unwrap_or_default().to_owned();
    (status, body.to_owned())
}

/// The samples of one family in a `metrics` op response.
fn samples<'a>(metrics: &'a Json, family: &str) -> &'a [Json] {
    match metrics
        .get("families")
        .and_then(|f| f.get(family))
        .and_then(|f| f.get("samples"))
    {
        Some(Json::Arr(items)) => items,
        _ => &[],
    }
}

/// The value of a zero-label sample in a `metrics` op response.
fn family_value(metrics: &Json, family: &str) -> Option<f64> {
    samples(metrics, family).iter().find_map(|s| {
        let empty = matches!(s.get("labels"), Some(Json::Obj(members)) if members.is_empty());
        if empty {
            s.get("value").and_then(Json::as_f64)
        } else {
            None
        }
    })
}

/// The value of the sample labelled `key=value` in a `metrics` op
/// response.
fn labelled_value(metrics: &Json, family: &str, key: &str, value: &str) -> Option<f64> {
    samples(metrics, family).iter().find_map(|s| {
        let labels = s.get("labels")?;
        if labels.get(key).and_then(Json::as_str) == Some(value) {
            s.get("value").and_then(Json::as_f64)
        } else {
            None
        }
    })
}

fn metrics_op(client: &mut Client) -> Json {
    Json::parse(
        &client
            .round_trip(r#"{"op": "metrics"}"#)
            .expect("metrics op"),
    )
    .expect("metrics response parses")
}

#[test]
fn metrics_op_and_scrape_agree_with_traffic() {
    let handle = server("agree", EngineConfig::default());
    let mut client = Client::connect(handle.endpoint()).expect("connect");

    const JOBS: usize = 17;
    for i in 0..JOBS {
        let line = format!(r#"{{"id": "j{i}", "sigma": ["a -> b", "b -> c"], "phi": "a -> c"}}"#);
        let response = client.round_trip(&line).expect("job answered");
        assert!(response.contains("\"implied\""), "got {response}");
    }

    // The structured snapshot: jobs counted exactly, engine-side
    // families present.
    let metrics = metrics_op(&mut client);
    assert_eq!(metrics.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(family_value(&metrics, names::JOBS_TOTAL), Some(JOBS as f64));
    assert_eq!(family_value(&metrics, names::INFLIGHT), Some(0.0));
    // All 17 jobs are one canonical query, so one resident entry.
    assert_eq!(family_value(&metrics, names::CACHE_ENTRIES), Some(1.0));
    assert_eq!(
        labelled_value(&metrics, names::VERDICTS_TOTAL, "verdict", "implied"),
        Some(JOBS as f64)
    );

    // The Prometheus scrape: valid exposition carrying the same count.
    let addr = handle.metrics_addr().expect("metrics listener bound");
    let (status, body) = scrape(addr, "/metrics");
    assert!(status.contains("200"), "got {status}");
    assert!(body.contains(&format!("# TYPE {} counter\n", names::JOBS_TOTAL)));
    assert!(body.contains(&format!(
        "# HELP {} {}\n",
        names::JOBS_TOTAL,
        names::JOBS_TOTAL_HELP
    )));
    assert!(
        body.contains(&format!("{} {JOBS}\n", names::JOBS_TOTAL)),
        "scrape reports the jobs sent:\n{body}"
    );
    assert!(body.contains(&format!("# TYPE {} histogram\n", names::OP_LATENCY_MICROS)));
    assert!(body.contains("le=\"+Inf\""), "histograms end at +Inf");

    // Every non-comment line is `name[{labels}] value`.
    for line in body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "sample value parses as a number: {line}"
        );
    }

    // Unknown paths 404 without disturbing the listener.
    let (status, _) = scrape(addr, "/nope");
    assert!(status.contains("404"), "got {status}");

    handle.stop().expect("server stops");
}

#[test]
fn idle_scrapes_are_byte_identical() {
    let handle = server("stable", EngineConfig::default());
    let mut client = Client::connect(handle.endpoint()).expect("connect");

    // Real traffic first, so the stability claim covers populated
    // histograms and rate windows — not just an all-zero registry.
    for i in 0..8 {
        let line = format!(r#"{{"id": "s{i}", "sigma": ["a -> b"], "phi": "a -> b"}}"#);
        client.round_trip(&line).expect("job answered");
    }
    client.round_trip(r#"{"op": "ping"}"#).expect("ping");

    let addr = handle.metrics_addr().expect("metrics listener bound");
    let (_, first) = scrape(addr, "/metrics");
    std::thread::sleep(std::time::Duration::from_millis(50));
    let (_, second) = scrape(addr, "/metrics");
    assert_eq!(
        first, second,
        "two scrapes of an idle server must be byte-identical"
    );

    handle.stop().expect("server stops");
}

#[test]
fn inflight_returns_to_zero_under_shed_and_malformed_hammer() {
    // Depth 1 makes shedding near-certain under 16 concurrent clients;
    // malformed lines interleave so the error path is hammered too.
    let config = EngineConfig {
        shed: ShedPolicy::queue_depth(1),
        ..EngineConfig::default()
    };
    let handle = server("hammer", config);

    const CLIENTS: usize = 16;
    const ROUNDS: usize = 24;
    let mut workers = Vec::new();
    for c in 0..CLIENTS {
        let endpoint = handle.endpoint().clone();
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("connect");
            for i in 0..ROUNDS {
                let line = match i % 3 {
                    0 => format!(r#"{{"id": "h{c}-{i}", "sigma": ["a -> b"], "phi": "a -> b"}}"#),
                    1 => "definitely not json".to_owned(),
                    // Parseable line, but the job itself is broken.
                    _ => format!(r#"{{"id": "bad{c}-{i}", "sigma": ["<<<"], "phi": "a -> b"}}"#),
                };
                client.round_trip(&line).expect("line answered");
            }
        }));
    }
    for worker in workers {
        worker.join().expect("client thread");
    }

    let stats = handle.stats();
    assert_eq!(
        stats.inflight.load(Ordering::Relaxed),
        0,
        "every admit must be balanced by a guard drop"
    );
    let snap = stats.snapshot();
    assert_eq!(snap.inflight, 0);
    assert_eq!(snap.malformed, (CLIENTS * ROUNDS / 3) as u64);
    // Jobs = answered job lines (solved, errored, or shed) — malformed
    // protocol lines never reach admission.
    assert_eq!(snap.jobs, (CLIENTS * ROUNDS * 2 / 3) as u64);

    // The scrape agrees with the raw counters.
    let mut client = Client::connect(handle.endpoint()).expect("connect");
    let metrics = metrics_op(&mut client);
    assert_eq!(family_value(&metrics, names::INFLIGHT), Some(0.0));
    assert_eq!(
        family_value(&metrics, names::JOBS_TOTAL),
        Some(snap.jobs as f64)
    );
    handle.stop().expect("server stops");
}

#[test]
fn job_metrics_match_the_stats_op_exactly() {
    let handle = server("exact", EngineConfig::default());
    let mut client = Client::connect(handle.endpoint()).expect("connect");

    // A fixed mix: a miss, its repeat, an alpha-renamed variant (both
    // hits), a NotImplied miss and its renamed hit, a job naming an
    // unknown context (answered by the store, never reaching the
    // engine), and a chase job whose deadline expires at admission.
    let lines = [
        r#"{"id": "m1", "sigma": ["a -> b", "b -> c"], "phi": "a -> c"}"#,
        r#"{"id": "h1", "sigma": ["a -> b", "b -> c"], "phi": "a -> c"}"#,
        r#"{"id": "h2", "sigma": ["x -> y", "y -> z"], "phi": "x -> z"}"#,
        r#"{"id": "m2", "sigma": ["a -> b"], "phi": "b -> a"}"#,
        r#"{"id": "h3", "sigma": ["q -> r"], "phi": "r -> q"}"#,
        r#"{"id": "e1", "context": "no-such-context", "phi": "a -> a"}"#,
        r#"{"id": "d1", "sigma": ["p: a -> a.b", "p: b <- c"], "phi": "p: a -> c", "deadline_ms": 0}"#,
    ];
    for line in lines {
        client.round_trip(line).expect("job answered");
    }
    let reached_engine = lines.len() - 1;

    let stats = Json::parse(&client.round_trip(r#"{"op": "stats"}"#).expect("stats op"))
        .expect("stats parses");
    let stat = |key: &str| stats.get(key).and_then(Json::as_f64).expect(key);
    assert_eq!((stat("cache_hits"), stat("cache_misses")), (3.0, 3.0));

    let metrics = metrics_op(&mut client);
    let lookups =
        |outcome| labelled_value(&metrics, names::CACHE_LOOKUPS_TOTAL, "outcome", outcome);
    assert_eq!(lookups("hit"), Some(stat("cache_hits")));
    assert_eq!(lookups("miss"), Some(stat("cache_misses")));

    let verdicts: f64 = samples(&metrics, names::VERDICTS_TOTAL)
        .iter()
        .filter_map(|s| s.get("value").and_then(Json::as_f64))
        .sum();
    assert_eq!(Some(verdicts), family_value(&metrics, names::JOBS_TOTAL));
    assert_eq!(verdicts, lines.len() as f64);
    assert_eq!(
        labelled_value(&metrics, names::VERDICTS_TOTAL, "verdict", "error"),
        Some(1.0)
    );
    assert_eq!(
        labelled_value(&metrics, names::UNKNOWN_TOTAL, "kind", "deadline"),
        Some(1.0)
    );

    let solve = samples(&metrics, names::SOLVE_MICROS);
    assert_eq!(solve.len(), 1, "one unlabelled solve-latency histogram");
    assert_eq!(
        solve[0].get("count").and_then(Json::as_f64),
        Some(reached_engine as f64)
    );
    handle.stop().expect("server stops");
}

#[test]
fn slow_log_request_id_joins_result_and_trace() {
    // Threshold 0: every job is "slow", so the log is deterministic.
    let recorder = Arc::new(InMemoryRecorder::new());
    let mut config = EngineConfig::default();
    config.budget.telemetry = Telemetry::new(recorder.clone());
    let slow_path = temp_file("slowlog");
    let store = ConstraintStore::from_jsonl("").expect("empty store");
    let handle = Server::bind(
        &Endpoint::Unix(socket_path("slow")),
        Arc::new(store),
        Arc::new(BatchEngine::new(config)),
        None,
    )
    .expect("bind unix socket")
    .with_slow_log(0, slow_path.to_str())
    .expect("open slow log")
    .spawn();

    let mut client = Client::connect(handle.endpoint()).expect("connect");

    // A caller-supplied correlation id is echoed verbatim...
    let r1 = Json::parse(
        &client
            .round_trip(
                r#"{"id": "q1", "request_id": "req-42", "sigma": ["a -> b"], "phi": "a -> b"}"#,
            )
            .expect("job 1"),
    )
    .expect("result parses");
    assert_eq!(r1.get("request_id").and_then(Json::as_str), Some("req-42"));

    // ...and a job without one gets a server-assigned `r-<conn>-<line>`.
    let r2 = Json::parse(
        &client
            .round_trip(r#"{"id": "q2", "sigma": ["a -> b"], "phi": "a -> c"}"#)
            .expect("job 2"),
    )
    .expect("result parses");
    let assigned = r2
        .get("request_id")
        .and_then(Json::as_str)
        .expect("server assigns a request id")
        .to_owned();
    assert!(assigned.starts_with("r-"), "got {assigned}");

    handle.stop().expect("server stops");

    // The slow log has one record per job, ids joined to the results.
    let log = std::fs::read_to_string(&slow_path).expect("slow log written");
    let records: Vec<Json> = log
        .lines()
        .map(|l| Json::parse(l).expect("slow-log line parses"))
        .collect();
    assert_eq!(records.len(), 2, "one record per slow job:\n{log}");
    for (record, (id, req)) in records.iter().zip([("q1", "req-42"), ("q2", &assigned)]) {
        assert_eq!(record.get("slow_query").and_then(Json::as_bool), Some(true));
        assert_eq!(record.get("id").and_then(Json::as_str), Some(id));
        assert_eq!(record.get("request_id").and_then(Json::as_str), Some(req));
        assert!(record.get("key").is_some(), "canonical key hash present");
        assert!(record.get("queue_micros").is_some());
        assert!(record.get("solve_micros").is_some());
    }

    // The telemetry trace carries the same ids on its `serve.job`
    // events, so slow-log records join spans by request id.
    let snap = recorder.snapshot();
    let serve_events: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.name == schema::EVENT_SERVE_JOB)
        .collect();
    assert_eq!(serve_events.len(), 2, "one serve.job event per job");
    let traced: Vec<&str> = serve_events
        .iter()
        .filter_map(|e| e.label(schema::LABEL_REQUEST_ID))
        .collect();
    assert_eq!(traced, vec!["req-42", assigned.as_str()]);

    let _ = std::fs::remove_file(&slow_path);
}
