//! Metrics-plane overhead benchmark: sustained serve throughput at 64
//! concurrent clients with the metrics plane in its cheapest
//! configuration (the server's own registry only) versus fully live
//! (Prometheus listener bound, slow-query log armed). The registry
//! records every job in both: engine-side counts are read from the
//! answer cache at scrape time, so there is no separate engine
//! instrumentation to switch on. Results go to `BENCH_metrics.json`.
//!
//! Usage:
//!
//! ```text
//! bench_metrics [--smoke] [--out PATH]
//! ```
//!
//! Methodology: configurations run as adjacent baseline/instrumented
//! pairs and the overhead is the *median of paired deltas* — both
//! members of a pair see the same thermal/cache environment, so ambient
//! drift subtracts out (separately-aggregated medians would fold that
//! drift into the overhead figure). `--smoke` scales the workload down
//! for CI; the full run asserts the acceptance ceiling: under 2%
//! throughput overhead with the plane fully live.

use pathcons_bench::{bench_meta, time_ms};
use pathcons_engine::{BatchEngine, EngineConfig, Json};
use pathcons_metrics::names;
use pathcons_store::{Client, ConstraintStore, Endpoint, Server, ServerHandle};
use std::fmt::Write as _;
use std::sync::Arc;

/// One distinct word-implication job line (same family as
/// `bench_serve`): a chain in Σ with the transitive query — cheap,
/// verdict `implied`, distinct enough to mix cache hits with misses.
fn job_line(client: usize, i: usize, variants: usize) -> String {
    let v = i % variants;
    let len = 2 + v % 4;
    let mut sigma = String::new();
    for k in 0..len {
        if k > 0 {
            sigma.push_str(", ");
        }
        let _ = write!(sigma, r#""x{v}_{k} -> x{v}_{}""#, k + 1);
    }
    format!(r#"{{"id": "c{client}-{i}", "sigma": [{sigma}], "phi": "x{v}_0 -> x{v}_{len}"}}"#)
}

fn socket_path(round: usize, live: bool) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "pcs-bm-{}-{round}-{}.sock",
        std::process::id(),
        if live { "on" } else { "off" }
    ))
}

/// A fresh server per measurement. `live` arms the exporters: the
/// Prometheus listener and a slow-query log whose threshold no
/// benchmark job crosses — so the cost measured is the slow-log check
/// on every job and the bound listener, not log I/O.
fn spawn_server(round: usize, live: bool) -> ServerHandle {
    let store = ConstraintStore::from_jsonl("").expect("empty store");
    let server = Server::bind(
        &Endpoint::Unix(socket_path(round, live)),
        Arc::new(store),
        Arc::new(BatchEngine::new(EngineConfig::default())),
        None,
    )
    .expect("bind unix socket");
    if live {
        server
            .with_metrics_addr("127.0.0.1:0")
            .expect("bind metrics listener")
            .with_slow_log(3_600_000, None)
            .expect("arm slow log")
            .spawn()
    } else {
        server.spawn()
    }
}

/// Drives `clients` concurrent connections through one server, each
/// sending `per_client` pipelined job lines (send-ahead window of 32);
/// returns wall time from first byte to last verdict.
fn measure(handle: &ServerHandle, clients: usize, per_client: usize) -> f64 {
    const WINDOW: usize = 32;
    let (_, wall_ms) = time_ms(|| {
        let mut workers = Vec::with_capacity(clients);
        for c in 0..clients {
            let endpoint = handle.endpoint().clone();
            workers.push(std::thread::spawn(move || {
                let mut client = Client::connect(&endpoint).expect("connect");
                let mut received = 0usize;
                for i in 0..per_client {
                    client.send(&job_line(c, i, 64)).expect("send");
                    if i + 1 >= WINDOW {
                        client.recv().expect("recv");
                        received += 1;
                    }
                }
                while received < per_client {
                    client.recv().expect("drain");
                    received += 1;
                }
            }));
        }
        for worker in workers {
            worker.join().expect("client thread");
        }
    });
    wall_ms
}

/// Scrapes the live server's exposition once and checks the job counter
/// matches the jobs actually sent — the benchmark doubles as an
/// end-to-end accounting check.
fn check_accounting(handle: &ServerHandle, expected_jobs: u64) {
    let snapshot = handle.metrics_plane().snapshot();
    let text = snapshot.render_prometheus();
    let needle = format!("{} {expected_jobs}\n", names::JOBS_TOTAL);
    assert!(
        text.contains(&needle),
        "metrics accounting drifted: wanted `{}`, exposition:\n{text}",
        needle.trim()
    );
    let mut client = Client::connect(handle.endpoint()).expect("connect");
    let metrics = Json::parse(
        &client
            .round_trip(r#"{"op": "metrics"}"#)
            .expect("metrics op"),
    )
    .expect("metrics response parses");
    assert_eq!(metrics.get("ok").and_then(Json::as_bool), Some(true));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_metrics.json".to_owned());

    let (clients, per_client, pairs, inner) = if smoke {
        (16, 50, 2, 2)
    } else {
        (64, 400, 5, 3)
    };

    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };

    // Warm-up round (not measured): page in the binary, the allocator,
    // and the thread stacks before the first timed pair.
    {
        let handle = spawn_server(usize::MAX, false);
        measure(&handle, clients, per_client.min(50));
        handle.stop().expect("warm-up server stops");
    }

    // One server per configuration per pair, `inner` runs against it,
    // the per-config time is the median of those runs — thread-churn
    // noise (64 client threads against however few cores CI grants)
    // otherwise swamps a single-digit-percent signal. Pairs alternate
    // which side runs first so slow ambient drift cancels in the delta.
    let run_config = |round: usize, live: bool| -> f64 {
        let handle = spawn_server(round, live);
        let ms = median(
            (0..inner)
                .map(|_| measure(&handle, clients, per_client))
                .collect(),
        );
        if live {
            check_accounting(&handle, (inner * clients * per_client) as u64);
        }
        handle.stop().expect("server stops");
        ms
    };
    let mut off_samples = Vec::with_capacity(pairs);
    let mut deltas = Vec::with_capacity(pairs);
    for round in 0..pairs {
        let (off, on) = if round % 2 == 0 {
            let off = run_config(round, false);
            (off, run_config(round, true))
        } else {
            let on = run_config(round, true);
            (run_config(round, false), on)
        };
        println!(
            "pair {:>2}: metrics off {:>9.3} ms, on {:>9.3} ms, delta {:>+8.3} ms",
            round,
            off,
            on,
            on - off
        );
        off_samples.push(off);
        deltas.push(on - off);
    }
    let off_ms = median(off_samples);
    let on_ms = off_ms + median(deltas);
    let overhead_pct = (on_ms / off_ms.max(1e-6) - 1.0) * 100.0;
    let jobs = (clients * per_client) as f64;
    println!(
        "{clients} clients x {per_client} jobs: off {off_ms:.3} ms ({:.0} jobs/sec), on {on_ms:.3} ms ({:.0} jobs/sec), overhead {overhead_pct:+.2}%",
        jobs / (off_ms / 1e3),
        jobs / (on_ms / 1e3),
    );
    if !smoke {
        assert!(
            overhead_pct < 2.0,
            "live metrics plane broke the 2% throughput-overhead ceiling: {overhead_pct:+.2}%"
        );
    }

    let workload = format!(
        "{clients} concurrent clients x {per_client} word-chain jobs, pipeline window 32, {pairs} alternating off/on pairs x median-of-{inner}, overhead = median of paired deltas"
    );
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"meta\": {},", bench_meta(&workload));
    let _ = writeln!(json, "  \"workload\": \"{workload}\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(
        json,
        "  \"clients\": {clients}, \"jobs_per_client\": {per_client}, \"pairs\": {pairs},"
    );
    let _ = writeln!(
        json,
        "  \"metrics_off_ms\": {off_ms:.3}, \"metrics_on_ms\": {on_ms:.3},"
    );
    let _ = writeln!(
        json,
        "  \"jobs_per_sec_off\": {:.0}, \"jobs_per_sec_on\": {:.0},",
        jobs / (off_ms / 1e3),
        jobs / (on_ms / 1e3)
    );
    let _ = writeln!(json, "  \"overhead_pct\": {overhead_pct:.3}");
    json.push_str("}\n");
    std::fs::write(&out, &json).expect("write results");
    println!("wrote {out}");
}
