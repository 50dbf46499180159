//! Serve benchmark trajectory: startup cost (binary snapshot load vs
//! cold JSONL context parsing, the resident graphs' heap bytes, and the
//! latency of a `check` of ten constraints on a 1 000-book
//! bibliography) and sustained throughput (jobs/sec at 1, 8 and 64
//! concurrent clients over a unix socket). Results go to
//! `BENCH_serve.json`.
//!
//! Usage:
//!
//! ```text
//! bench_serve [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` runs a scaled-down workload (seconds, used by CI); the
//! default run is the one committed to the repo and asserts the
//! acceptance floor: snapshot load at least 10x faster than parsing the
//! same contexts from JSONL. Both modes assert that the loaded graphs
//! keep at most 12.1 bytes per edge and 8 per node.

use pathcons_bench::{bench_meta, gen_bibliography, median_time_ms};
use pathcons_engine::{BatchEngine, EngineConfig};
use pathcons_store::snapshot::{self, ContextRecord, GraphColumns, SnapshotDoc};
use pathcons_store::{Client, ConstraintStore, Endpoint, Server};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Synthesizes a contexts JSONL document: `contexts` resident contexts,
/// each with a few base constraints and a random-ish graph of
/// `edges_per` edges over `nodes_per` nodes (deterministic LCG — the
/// workload must be identical across runs and machines).
fn gen_contexts_jsonl(contexts: usize, nodes_per: usize, edges_per: usize) -> String {
    let mut out = String::new();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |bound: usize| -> usize {
        // xorshift*: good enough spread, no dependencies.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % bound
    };
    for c in 0..contexts {
        let _ = write!(
            out,
            r#"{{"name": "ctx{c}", "sigma": ["a{c} -> b{c}", "b{c} -> c{c}"], "root": "n0", "edges": ["#
        );
        for e in 0..edges_per {
            if e > 0 {
                out.push_str(", ");
            }
            let src = next(nodes_per);
            let dst = next(nodes_per);
            let label = next(16);
            let _ = write!(out, r#"["n{src}", "l{label}", "n{dst}"]"#);
        }
        out.push_str("]}\n");
    }
    out
}

/// One distinct word-implication job line: a chain `l0 -> l1 -> … -> lk`
/// in Σ with the transitive query — cheap (PTIME), verdict `implied`,
/// and distinct enough across `i` to mix cache hits with misses.
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

/// The resident-graph bound: bytes per edge, bytes per node, and an
/// allowance per graph for the rounding of its small tables.
const MAX_GRAPH_BYTES_PER_EDGE: f64 = 12.1;
const MAX_GRAPH_BYTES_PER_NODE: f64 = 8.0;
const GRAPH_BYTES_ALLOWANCE: f64 = 64.0;

/// The `check` pool: the Section 1 constraints, which every generated
/// bibliography meets, and five that fail on any bibliography with a
/// book, a person and an authorship.
const CHECK_POOL: [(&str, bool); 10] = [
    ("book.author -> person", true),
    ("person.wrote -> book", true),
    ("book.ref -> book", true),
    ("book: author <- wrote", true),
    ("person: wrote <- author", true),
    ("book -> person", false),
    ("person -> book", false),
    ("book.author -> book", false),
    ("book.title -> book", false),
    ("book: title <- author", false),
];

struct LoadPoint {
    contexts: usize,
    edges_total: usize,
    jsonl_bytes: usize,
    snapshot_bytes: usize,
    cold_parse_ms: f64,
    snapshot_load_ms: f64,
    /// Heap bytes of the loaded store's resident graphs.
    resident_graph_bytes: usize,
    /// Median wall time of one `check` of [`CHECK_POOL`] on a
    /// 1 000-book bibliography, in microseconds.
    check_us_p50: f64,
}

impl LoadPoint {
    fn speedup(&self) -> f64 {
        self.cold_parse_ms / self.snapshot_load_ms.max(1e-6)
    }
}

fn measure_load(contexts: usize, nodes_per: usize, edges_per: usize, reps: usize) -> LoadPoint {
    let jsonl = gen_contexts_jsonl(contexts, nodes_per, edges_per);
    let store = ConstraintStore::from_jsonl(&jsonl).expect("contexts build");
    let bytes = store.to_bytes();
    // Loads must agree before timing means anything.
    let reloaded = ConstraintStore::from_bytes(&bytes).expect("snapshot loads");
    assert_eq!(reloaded.context_count(), contexts);
    assert_eq!(reloaded.content_id(), store.content_id());

    let cold_parse_ms = median_time_ms(reps, || {
        std::hint::black_box(ConstraintStore::from_jsonl(&jsonl).expect("cold build"))
    });
    let snapshot_load_ms = median_time_ms(reps, || {
        std::hint::black_box(ConstraintStore::from_bytes(&bytes).expect("warm load"))
    });
    let graphs: Vec<_> = reloaded
        .contexts()
        .filter_map(|(_, c)| c.columnar())
        .collect();
    let resident_graph_bytes = graphs.iter().map(|g| g.heap_bytes()).sum();
    let bound: f64 = graphs
        .iter()
        .map(|g| {
            MAX_GRAPH_BYTES_PER_EDGE * g.edge_count() as f64
                + MAX_GRAPH_BYTES_PER_NODE * g.node_count() as f64
                + GRAPH_BYTES_ALLOWANCE
        })
        .sum();
    assert!(
        resident_graph_bytes as f64 <= bound,
        "resident graphs keep {resident_graph_bytes} bytes, over the {bound:.0} byte bound"
    );
    LoadPoint {
        contexts,
        edges_total: contexts * edges_per,
        jsonl_bytes: jsonl.len(),
        snapshot_bytes: bytes.len(),
        cold_parse_ms,
        snapshot_load_ms,
        resident_graph_bytes,
        check_us_p50: measure_check(reps * 10),
    }
}

/// Loads a 1 000-book bibliography (400 persons) through a snapshot and
/// times `check` of the whole [`CHECK_POOL`] against it: the median of
/// `reps` runs, in microseconds.
fn measure_check(reps: usize) -> f64 {
    let bib = gen_bibliography(1_000, 400, 7);
    let edges: Vec<_> = bib.graph.edges().collect();
    let doc = SnapshotDoc {
        labels: bib.labels.iter().map(|(_, name)| name.to_owned()).collect(),
        contexts: vec![ContextRecord {
            name: "bib".to_owned(),
            kind: "semistructured".to_owned(),
            sigma: Vec::new(),
            graph: Some(GraphColumns {
                node_count: bib.graph.node_count() as u32,
                root: bib.graph.root().index() as u32,
                src: edges.iter().map(|e| e.0.index() as u32).collect(),
                label: edges.iter().map(|e| e.1.index() as u32).collect(),
                dst: edges.iter().map(|e| e.2.index() as u32).collect(),
            }),
        }],
    };
    let store = ConstraintStore::from_bytes(&snapshot::encode(&doc)).expect("bibliography loads");
    let texts: Vec<String> = CHECK_POOL.iter().map(|(t, _)| (*t).to_owned()).collect();
    let verdicts = store.check("bib", &texts).expect("check runs");
    let holds: Vec<bool> = verdicts.iter().map(|(_, holds)| *holds).collect();
    let want: Vec<bool> = CHECK_POOL.iter().map(|(_, holds)| *holds).collect();
    assert_eq!(holds, want, "check verdicts on the bibliography");
    median_time_ms(reps, || {
        std::hint::black_box(store.check("bib", &texts).expect("check runs"))
    }) * 1e3
}

struct ThroughputPoint {
    clients: usize,
    jobs: usize,
    wall_ms: f64,
    jobs_per_sec: f64,
}

/// Drives `clients` concurrent connections, each sending `per_client`
/// job lines with a bounded pipeline window (send-ahead of 32, so
/// neither side's socket buffer can deadlock), and measures wall time
/// from first byte to last verdict.
fn measure_throughput(endpoint: &Endpoint, clients: usize, per_client: usize) -> ThroughputPoint {
    const WINDOW: usize = 32;
    let start = Instant::now();
    let mut workers = Vec::with_capacity(clients);
    for c in 0..clients {
        let endpoint = endpoint.clone();
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("connect");
            let mut received = 0usize;
            for i in 0..per_client {
                client.send(&job_line(c, i, 64)).expect("send");
                if i + 1 >= WINDOW {
                    let response = client.recv().expect("recv");
                    assert!(
                        response.contains("\"verdict\""),
                        "not a verdict: {response}"
                    );
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
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let jobs = clients * per_client;
    ThroughputPoint {
        clients,
        jobs,
        wall_ms,
        jobs_per_sec: jobs as f64 / (wall_ms / 1e3),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_serve.json".to_owned());

    // Startup: parse-once vs load-snapshot on a context set heavy
    // enough that context data, not allocator noise, dominates.
    let (contexts, nodes_per, edges_per, reps) = if smoke {
        (4, 200, 1000, 3)
    } else {
        (16, 2000, 20000, 5)
    };
    let load = measure_load(contexts, nodes_per, edges_per, reps);
    println!(
        "load {:>2} contexts x {:>6} edges: cold JSONL {:>9.3} ms ({} bytes), snapshot {:>7.3} ms ({} bytes), speedup {:>6.1}x",
        load.contexts,
        edges_per,
        load.cold_parse_ms,
        load.jsonl_bytes,
        load.snapshot_load_ms,
        load.snapshot_bytes,
        load.speedup()
    );
    println!(
        "resident graphs {} bytes; check of {} constraints on a 1000-book bibliography {:.1} us p50",
        load.resident_graph_bytes,
        CHECK_POOL.len(),
        load.check_us_p50
    );
    if !smoke {
        assert!(
            load.speedup() >= 10.0,
            "snapshot load fell below the 10x floor over cold JSONL parsing: {:.2}x",
            load.speedup()
        );
    }

    // Throughput: one resident server, rising client counts.
    let per_client = if smoke { 50 } else { 400 };
    let socket = std::env::temp_dir().join(format!("pcs-bench-{}.sock", std::process::id()));
    let store = ConstraintStore::from_jsonl("").expect("empty store");
    let engine = BatchEngine::new(EngineConfig::default());
    let handle = Server::bind(
        &Endpoint::Unix(socket),
        Arc::new(store),
        Arc::new(engine),
        None,
    )
    .expect("bind")
    .spawn();

    let mut throughput = Vec::new();
    for &clients in &[1usize, 8, 64] {
        let p = measure_throughput(handle.endpoint(), clients, per_client);
        println!(
            "throughput {:>2} client(s): {:>6} jobs in {:>9.3} ms = {:>9.0} jobs/sec",
            p.clients, p.jobs, p.wall_ms, p.jobs_per_sec
        );
        throughput.push(p);
    }
    handle.stop().expect("server stops");

    let workload = format!(
        "startup: {contexts} contexts x {edges_per} edges; throughput: word-chain implication jobs, 64 distinct queries, pipeline window 32"
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
    json.push_str("  \"load\": {\n");
    let _ = writeln!(
        json,
        "    \"contexts\": {}, \"edges_total\": {}, \"jsonl_bytes\": {}, \"snapshot_bytes\": {},",
        load.contexts, load.edges_total, load.jsonl_bytes, load.snapshot_bytes
    );
    let _ = writeln!(
        json,
        "    \"cold_parse_ms\": {:.3}, \"snapshot_load_ms\": {:.3}, \"speedup\": {:.2},",
        load.cold_parse_ms,
        load.snapshot_load_ms,
        load.speedup()
    );
    let _ = writeln!(
        json,
        "    \"resident_graph_bytes\": {}, \"check_us_p50\": {:.1}",
        load.resident_graph_bytes, load.check_us_p50
    );
    json.push_str("  },\n");
    json.push_str("  \"throughput\": [\n");
    for (i, p) in throughput.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"clients\": {}, \"jobs\": {}, \"wall_ms\": {:.3}, \"jobs_per_sec\": {:.0}}}{}",
            p.clients,
            p.jobs,
            p.wall_ms,
            p.jobs_per_sec,
            if i + 1 == throughput.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).expect("write results");
    println!("wrote {out}");
}
