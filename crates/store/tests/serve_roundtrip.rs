//! Serve integration: concurrent clients over a unix socket get the
//! same verdicts `pathcons batch` produces for the same jobs, malformed
//! protocol lines get per-line error records without dropping the
//! connection, and the control ops answer.

use pathcons_engine::{BatchEngine, EngineConfig, Job, Json};
use pathcons_store::{Client, ConstraintStore, Endpoint, Server};
use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A unix socket path unique to this test invocation (socket paths are
/// length-limited, so short names in the system temp dir).
fn socket_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("pcs-{}-{tag}-{seq}.sock", std::process::id()))
}

fn example_jobs_text() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/batch_jobs.jsonl");
    std::fs::read_to_string(path).expect("examples/batch_jobs.jsonl readable")
}

/// The comparison key: everything about a verdict a client can act on.
fn verdict_key(line: &str) -> (String, String, String) {
    let v = Json::parse(line).expect("result line parses");
    let field = |k: &str| {
        v.get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned()
    };
    (field("id"), field("verdict"), field("unknown_kind"))
}

fn spawn_server(
    tag: &str,
    store: ConstraintStore,
    engine: BatchEngine,
) -> pathcons_store::ServerHandle {
    let endpoint = Endpoint::Unix(socket_path(tag));
    Server::bind(&endpoint, Arc::new(store), Arc::new(engine), None)
        .expect("bind unix socket")
        .spawn()
}

#[test]
fn concurrent_clients_match_batch_verdicts() {
    let text = example_jobs_text();
    let (jobs, bad) = Job::parse_jobs_lossy(&text);
    assert!(bad.is_empty(), "example jobs all parse");
    assert!(jobs.len() >= 32, "need a real workload, got {}", jobs.len());

    // The reference verdicts, from the batch path.
    let batch_engine = BatchEngine::new(EngineConfig::default());
    let reference: BTreeMap<String, (String, String)> = batch_engine
        .run_batch(jobs.clone())
        .results
        .iter()
        .map(|r| {
            let (id, verdict, kind) = verdict_key(&r.to_json().to_string());
            (id, (verdict, kind))
        })
        .collect();

    // The served verdicts: the store built from the very same jobs
    // file, 64 clients each driving the full job list concurrently.
    let store = ConstraintStore::from_jsonl(&text).expect("store from jobs");
    let handle = spawn_server("match", store, BatchEngine::new(EngineConfig::default()));
    let endpoint = handle.endpoint().clone();

    const CLIENTS: usize = 64;
    let mut workers = Vec::new();
    for c in 0..CLIENTS {
        let endpoint = endpoint.clone();
        let lines: Vec<String> = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.trim().starts_with('#'))
            .map(str::to_owned)
            .collect();
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("connect");
            let mut got = Vec::new();
            // Stagger: each client starts at a different offset so the
            // server sees genuinely interleaved traffic.
            for i in 0..lines.len() {
                let line = &lines[(i + c) % lines.len()];
                let response = client.round_trip(line).expect("round trip");
                got.push(verdict_key(&response));
            }
            got
        }));
    }

    let mut answered = 0usize;
    for worker in workers {
        for (id, verdict, kind) in worker.join().expect("client thread") {
            let (expect_verdict, expect_kind) =
                reference.get(&id).expect("served id is a batch id");
            assert_eq!(
                (&verdict, &kind),
                (expect_verdict, expect_kind),
                "job {id}: served verdict must match batch"
            );
            answered += 1;
        }
    }
    assert_eq!(answered, CLIENTS * reference.len());

    let stats = handle.stats();
    assert_eq!(stats.jobs.load(Ordering::Relaxed), answered as u64);
    assert_eq!(stats.connections.load(Ordering::Relaxed), CLIENTS as u64);
    handle.stop().expect("server stops");
}

#[test]
fn malformed_lines_get_error_records_and_the_connection_survives() {
    let store = ConstraintStore::from_jsonl("").expect("empty store");
    let handle = spawn_server("mal", store, BatchEngine::new(EngineConfig::default()));
    let mut client = Client::connect(handle.endpoint()).expect("connect");

    // 1: not JSON at all.
    let r1 = client.round_trip("this is not json").expect("r1");
    let (id, verdict, _) = verdict_key(&r1);
    assert_eq!((id.as_str(), verdict.as_str()), ("line-1", "error"));

    // 2: JSON but not a valid job (no phi).
    let r2 = client.round_trip(r#"{"id": "x"}"#).expect("r2");
    let (id, verdict, _) = verdict_key(&r2);
    assert_eq!((id.as_str(), verdict.as_str()), ("line-2", "error"));

    // 3: unknown op.
    let r3 = client.round_trip(r#"{"op": "frobnicate"}"#).expect("r3");
    let (id, verdict, _) = verdict_key(&r3);
    assert_eq!((id.as_str(), verdict.as_str()), ("line-3", "error"));

    // 4: the same connection still answers a real job afterwards.
    let r4 = client
        .round_trip(r#"{"id": "ok", "sigma": ["a -> b", "b -> c"], "phi": "a -> c"}"#)
        .expect("r4");
    let (id, verdict, _) = verdict_key(&r4);
    assert_eq!((id.as_str(), verdict.as_str()), ("ok", "implied"));

    // 5: a bad job on a *parseable* line also reports cleanly (bad
    // constraint text becomes an error result under the job's own id).
    let r5 = client
        .round_trip(r#"{"id": "bad", "sigma": ["<<<"], "phi": "a -> b"}"#)
        .expect("r5");
    let (id, verdict, _) = verdict_key(&r5);
    assert_eq!((id.as_str(), verdict.as_str()), ("bad", "error"));

    assert_eq!(handle.stats().malformed.load(Ordering::Relaxed), 2);
    handle.stop().expect("server stops");
}

#[test]
fn oversized_lines_get_an_error_record_and_the_connection_survives() {
    let store = ConstraintStore::from_jsonl("").expect("empty store");
    let handle = spawn_server("big", store, BatchEngine::new(EngineConfig::default()));
    let mut client = Client::connect(handle.endpoint()).expect("connect");

    // One line well past the server's buffer cap (the cap is enforced
    // at read-chunk granularity, so overshoot by more than one chunk):
    // the server must answer a per-line error record — not grow its
    // buffer without bound, not drop the connection — and discard the
    // line's tail.
    let oversized = "x".repeat(pathcons_store::MAX_LINE_BYTES + 64 * 1024);
    let r1 = client.round_trip(&oversized).expect("r1");
    let (id, verdict, _) = verdict_key(&r1);
    assert_eq!((id.as_str(), verdict.as_str()), ("line-1", "error"));
    assert!(r1.contains("exceeds"), "names the cap: {r1}");

    // The same connection still answers a real job afterwards.
    let r2 = client
        .round_trip(r#"{"id": "after", "sigma": ["a -> b"], "phi": "a -> b"}"#)
        .expect("r2");
    let (id, verdict, _) = verdict_key(&r2);
    assert_eq!((id.as_str(), verdict.as_str()), ("after", "implied"));

    assert_eq!(handle.stats().malformed.load(Ordering::Relaxed), 1);
    handle.stop().expect("server stops");
}

#[test]
fn binding_over_a_live_server_fails_but_a_stale_socket_is_reclaimed() {
    let store = ConstraintStore::from_jsonl("").expect("empty store");
    let handle = spawn_server("live", store, BatchEngine::new(EngineConfig::default()));
    let endpoint = handle.endpoint().clone();

    // A second server on the same path must not steal the endpoint.
    let second = Server::bind(
        &endpoint,
        Arc::new(ConstraintStore::from_jsonl("").expect("store")),
        Arc::new(BatchEngine::new(EngineConfig::default())),
        None,
    );
    match second {
        Ok(_) => panic!("bound over a live server"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::AddrInUse, "got {e}"),
    }
    // The first server is unharmed.
    let mut client = Client::connect(&endpoint).expect("connect to first");
    let pong = client.round_trip(r#"{"op": "ping"}"#).expect("ping");
    assert!(pong.contains("\"ok\""));
    handle.stop().expect("server stops");

    // A stale socket file (its listener is gone, connects are refused)
    // is still reclaimed.
    let stale = socket_path("stale");
    drop(std::os::unix::net::UnixListener::bind(&stale).expect("stale listener"));
    assert!(stale.exists(), "listener left its socket file behind");
    let reclaimed = Server::bind(
        &Endpoint::Unix(stale),
        Arc::new(ConstraintStore::from_jsonl("").expect("store")),
        Arc::new(BatchEngine::new(EngineConfig::default())),
        None,
    )
    .expect("stale socket reclaimed")
    .spawn();
    reclaimed.stop().expect("reclaimed server stops");
}

#[test]
fn control_ops_answer_and_shutdown_stops_the_server() {
    let specs = r#"{"name": "g", "sigma": [], "edges": [["r", "a", "n1"], ["n1", "b", "n2"]], "root": "r"}"#;
    let store = ConstraintStore::from_jsonl(specs).expect("store");
    let snapshot_hex = store.content_id_hex();
    let handle = spawn_server("ops", store, BatchEngine::new(EngineConfig::default()));
    let mut client = Client::connect(handle.endpoint()).expect("connect");

    let pong = Json::parse(&client.round_trip(r#"{"op": "ping"}"#).expect("ping")).unwrap();
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        pong.get("snapshot").and_then(Json::as_str),
        Some(snapshot_hex.as_str())
    );

    let stats = Json::parse(&client.round_trip(r#"{"op": "stats"}"#).expect("stats")).unwrap();
    assert_eq!(stats.get("contexts").and_then(Json::as_u64), Some(1));

    // A resident-graph satisfaction check over the wire.
    let check = Json::parse(
        &client
            .round_trip(r#"{"op": "check", "context": "g", "constraints": ["a . b -> a . b"]}"#)
            .expect("check"),
    )
    .unwrap();
    assert_eq!(check.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(check.get("all_hold").and_then(Json::as_bool), Some(true));

    let bye = Json::parse(
        &client
            .round_trip(r#"{"op": "shutdown"}"#)
            .expect("shutdown"),
    )
    .unwrap();
    assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
    // The shutdown op has already woken the accept loop; stop() joins.
    handle.stop().expect("server stopped by protocol op");
}

#[test]
fn store_resident_sigma_is_prepended_to_job_sigma() {
    // The resident context carries `a -> b`; the job only supplies
    // `b -> c`. Served together they imply `a -> c`, which the bare
    // job alone would not.
    let specs = r#"{"name": "base", "sigma": ["a -> b"]}"#;
    let store = ConstraintStore::from_jsonl(specs).expect("store");
    let handle = spawn_server("sigma", store, BatchEngine::new(EngineConfig::default()));
    let mut client = Client::connect(handle.endpoint()).expect("connect");

    let r = client
        .round_trip(r#"{"id": "q", "context": "base", "sigma": ["b -> c"], "phi": "a -> c"}"#)
        .expect("job");
    let (id, verdict, _) = verdict_key(&r);
    assert_eq!((id.as_str(), verdict.as_str()), ("q", "implied"));
    handle.stop().expect("server stops");
}

/// How long a stopped server may take to exit.
const STOP_LIMIT: Duration = Duration::from_secs(2);

/// Stops and joins `handle`, failing the test if that takes longer
/// than [`STOP_LIMIT`].
fn stop_within_limit(handle: pathcons_store::ServerHandle) {
    let (done, joined) = mpsc::channel();
    std::thread::spawn(move || done.send(handle.stop()));
    joined
        .recv_timeout(STOP_LIMIT)
        .expect("server did not stop within 2 s")
        .expect("server stops");
}

/// One start/stop cycle: bind, ping, `shutdown` op with its ack read,
/// then wait for the accept loop to exit on its own before joining.
/// Only the protocol connection is counted.
fn ping_shutdown_cycle(endpoint: &Endpoint) {
    let handle = Server::bind(
        endpoint,
        Arc::new(ConstraintStore::from_jsonl("").expect("empty store")),
        Arc::new(BatchEngine::new(EngineConfig::default())),
        None,
    )
    .expect("bind")
    .spawn();
    let mut client = Client::connect(handle.endpoint()).expect("connect");
    let pong = client.round_trip(r#"{"op": "ping"}"#).expect("ping");
    assert!(pong.contains(r#""ok":true"#), "{pong}");
    let bye = client.round_trip(r#"{"op": "shutdown"}"#).expect("ack");
    assert_eq!(bye, r#"{"ok":true,"op":"shutdown"}"#);
    let started = Instant::now();
    while !handle.is_finished() {
        assert!(
            started.elapsed() < STOP_LIMIT,
            "the shutdown op did not end the accept loop within 2 s"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(handle.stats().connections.load(Ordering::Relaxed), 1);
    stop_within_limit(handle);
}

#[test]
fn unix_start_stop_cycles_never_hang() {
    let endpoint = Endpoint::Unix(socket_path("cycle"));
    for _ in 0..200 {
        ping_shutdown_cycle(&endpoint);
    }
}

#[test]
fn tcp_start_stop_cycles_never_hang() {
    for _ in 0..50 {
        ping_shutdown_cycle(&Endpoint::Tcp("127.0.0.1:0".into()));
    }
}

#[test]
fn stop_wakes_an_idle_server_and_frees_the_metrics_port() {
    // Unspecified addresses: the wake connections go over loopback.
    let handle = Server::bind(
        &Endpoint::Tcp("0.0.0.0:0".into()),
        Arc::new(ConstraintStore::from_jsonl("").expect("empty store")),
        Arc::new(BatchEngine::new(EngineConfig::default())),
        None,
    )
    .expect("bind")
    .with_metrics_addr("0.0.0.0:0")
    .expect("bind metrics")
    .spawn();
    let metrics_addr = handle.metrics_addr().expect("metrics bound").to_owned();
    let loopback = |addr: &str| {
        let port = addr.rsplit(':').next().expect("port");
        format!("127.0.0.1:{port}")
    };
    // One answered request on each listener shows both accept loops
    // running; both connections close before the stop.
    let Endpoint::Tcp(addr) = handle.endpoint() else {
        unreachable!("bound on TCP")
    };
    let mut client = Client::connect(&Endpoint::Tcp(loopback(addr))).expect("connect");
    let pong = client.round_trip(r#"{"op": "ping"}"#).expect("ping");
    assert!(pong.contains(r#""ok":true"#), "{pong}");
    drop(client);
    let mut scrape = std::net::TcpStream::connect(loopback(&metrics_addr)).expect("scrape");
    scrape
        .write_all(b"GET /metrics HTTP/1.1\r\n\r\n")
        .expect("scrape request");
    let mut body = String::new();
    scrape.read_to_string(&mut body).expect("scrape response");
    assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
    drop(scrape);

    stop_within_limit(handle);
    std::net::TcpListener::bind(&metrics_addr).expect("metrics port released");
}
