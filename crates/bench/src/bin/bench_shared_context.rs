//! Shared-context amortization trajectory: a resident server answering
//! many queries against one context, cold (per-context amortization
//! disabled — every job re-saturates `post*`) vs warm (cached
//! automata), at 1, 8 and 64 concurrent clients. Verdicts must be
//! identical between the two modes — the speedup is only admissible
//! because the answers are. Results go to `BENCH_shared_context.json`.
//!
//! Usage:
//!
//! ```text
//! bench_shared_context [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` runs a scaled-down workload (seconds, used by CI) and
//! asserts warm throughput at least matches cold; the default run is
//! the one committed to the repo and asserts the acceptance floor:
//! warm jobs/sec at least 5x cold at 64 clients.

use pathcons_bench::bench_meta;
use pathcons_engine::{BatchEngine, EngineConfig, Json};
use pathcons_store::{Client, ConstraintStore, Endpoint, Server};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Deterministic xorshift* stream — the workload must be identical
/// across runs, machines, and the two modes being compared.
struct Rng(u64);

impl Rng {
    fn next(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % bound
    }
}

const ALPHABET: usize = 8;
/// The fixed query lhs: every job asks `w0.w1 -> rhs_i`, so the cold
/// path re-saturates `post*(w0.w1)` per job while the warm path pays it
/// once.
const START: [usize; 2] = [0, 1];

/// The benchmark workload: one resident word context whose `post*`
/// saturation dominates per-job cost, and per-(client, i) job lines
/// whose rhs words are *derived by prefix rewriting from the fixed
/// lhs* — every query is implied (so neither mode pays the
/// countermodel-materialization path, which is unamortized by design)
/// and every rhs is globally distinct (so the engine's *answer* cache
/// never hits and the measurement isolates the amortization layer).
struct Workload {
    jsonl: String,
    /// `lines[client][i]` is the ready-to-send JSONL job line.
    lines: Vec<Vec<String>>,
}

fn render_word(word: &[usize]) -> String {
    word.iter()
        .map(|l| format!("w{l}"))
        .collect::<Vec<_>>()
        .join(".")
}

fn gen_workload(constraints: usize, clients: usize, per_client: usize) -> Workload {
    let mut rng = Rng(0x5eed_0fc0_ffee);
    let idx_word = |rng: &mut Rng, min: usize, max: usize| -> Vec<usize> {
        let len = min + rng.next(max - min + 1);
        (0..len).map(|_| rng.next(ALPHABET)).collect()
    };
    // No empty rhs: an ε-collapsing theory would route negative
    // answers to the chase/search semi-deciders — a different (and
    // unamortizable) cost model than the word tier under test.
    let rules: Vec<(Vec<usize>, Vec<usize>)> = (0..constraints)
        .map(|_| (idx_word(&mut rng, 1, 3), idx_word(&mut rng, 1, 4)))
        .collect();
    let sigma: Vec<String> = rules
        .iter()
        .map(|(l, r)| format!(r#""{} -> {}""#, render_word(l), render_word(r)))
        .collect();
    let jsonl = format!(
        r#"{{"name": "shared", "kind": "semistructured", "sigma": [{}]}}"#,
        sigma.join(", ")
    );

    // Distinct rhs words, each reachable from START by prefix rewriting
    // (hence implied by construction): enumerate the forward ball around
    // START breadth-first, then pick pseudo-randomly across depths.
    let total = clients * per_client;
    let mut frontier = vec![START.to_vec()];
    let mut seen = std::collections::BTreeSet::from([START.to_vec()]);
    let mut ball: Vec<Vec<usize>> = Vec::new();
    for _depth in 0..4 {
        let mut next_frontier = Vec::new();
        for w in &frontier {
            for (l, r) in &rules {
                if w.len() >= l.len() && w[..l.len()] == l[..] {
                    let mut next = r.clone();
                    next.extend_from_slice(&w[l.len()..]);
                    if next.len() <= 12 && seen.insert(next.clone()) {
                        ball.push(next.clone());
                        next_frontier.push(next);
                    }
                }
            }
        }
        frontier = next_frontier;
        if ball.len() >= 4 * total {
            break;
        }
    }
    assert!(
        ball.len() >= total,
        "rewrite ball too small: {} derived words for {total} jobs",
        ball.len()
    );
    // Keep the shallowest `total` (BFS order), then shuffle the client
    // assignment: a derivation costs more to read the deeper it is,
    // in both modes, and the shallow cone is where the per-job
    // work is dominated by the saturation being amortized.
    ball.truncate(total);
    for i in (1..ball.len()).rev() {
        ball.swap(i, rng.next(i + 1));
    }
    let start_text = render_word(&START);
    let mut rhs = ball.into_iter();
    let lines = (0..clients)
        .map(|c| {
            (0..per_client)
                .map(|i| {
                    format!(
                        r#"{{"id": "c{c}-{i}", "context": "shared", "phi": "{start_text} -> {}"}}"#,
                        render_word(&rhs.next().expect("generated enough rhs"))
                    )
                })
                .collect()
        })
        .collect();
    Workload { jsonl, lines }
}

/// Everything a client can act on in a response line.
fn verdict_key(line: &str) -> (String, (String, String)) {
    let v = Json::parse(line).expect("result line parses");
    let field = |k: &str| {
        v.get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned()
    };
    (field("id"), (field("verdict"), field("unknown_kind")))
}

struct ThroughputPoint {
    clients: usize,
    jobs: usize,
    cold_wall_ms: f64,
    warm_wall_ms: f64,
    cold_jps: f64,
    warm_jps: f64,
}

impl ThroughputPoint {
    fn speedup(&self) -> f64 {
        self.warm_jps / self.cold_jps.max(1e-9)
    }
}

/// Spawns a fresh server (fresh engine — the answer cache must start
/// cold in both modes), drives `clients` concurrent connections with a
/// bounded pipeline window, and returns wall time plus every verdict.
fn run_mode(
    workload: &Workload,
    warm: bool,
    clients: usize,
    per_client: usize,
    tag: &str,
) -> (f64, BTreeMap<String, (String, String)>) {
    let mut store = ConstraintStore::from_jsonl(&workload.jsonl).expect("context builds");
    let config = EngineConfig::default();
    store.set_shared_budget(if warm {
        Some(config.budget.clone())
    } else {
        None
    });
    if warm {
        assert_eq!(store.warm_all(), 1, "one resident context");
    }
    let socket = std::env::temp_dir().join(format!(
        "pcs-shctx-{}-{tag}-{clients}.sock",
        std::process::id()
    ));
    let handle = Server::bind(
        &Endpoint::Unix(socket),
        Arc::new(store),
        Arc::new(BatchEngine::new(config)),
        None,
    )
    .expect("bind")
    .spawn();

    const WINDOW: usize = 32;
    let start = Instant::now();
    let mut workers = Vec::with_capacity(clients);
    for c in 0..clients {
        let endpoint = handle.endpoint().clone();
        let lines = workload.lines[c][..per_client].to_vec();
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("connect");
            let mut verdicts = BTreeMap::new();
            let mut pending = 0usize;
            for line in &lines {
                client.send(line).expect("send");
                pending += 1;
                if pending >= WINDOW {
                    let (id, v) = verdict_key(&client.recv().expect("recv"));
                    verdicts.insert(id, v);
                    pending -= 1;
                }
            }
            while pending > 0 {
                let (id, v) = verdict_key(&client.recv().expect("drain"));
                verdicts.insert(id, v);
                pending -= 1;
            }
            verdicts
        }));
    }
    let mut verdicts = BTreeMap::new();
    for worker in workers {
        verdicts.extend(worker.join().expect("client thread"));
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    handle.stop().expect("server stops");
    assert_eq!(verdicts.len(), clients * per_client, "every job answered");
    (wall_ms, verdicts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_shared_context.json".to_owned());

    let (constraints, per_client) = if smoke { (128, 4) } else { (128, 16) };
    let workload = gen_workload(constraints, 64, per_client);

    let mut points = Vec::new();
    for &clients in &[1usize, 8, 64] {
        let (cold_wall_ms, cold_verdicts) = run_mode(&workload, false, clients, per_client, "cold");
        let (warm_wall_ms, warm_verdicts) = run_mode(&workload, true, clients, per_client, "warm");
        assert_eq!(
            cold_verdicts, warm_verdicts,
            "verdicts diverged between cold and warm at {clients} client(s)"
        );
        let jobs = clients * per_client;
        let p = ThroughputPoint {
            clients,
            jobs,
            cold_wall_ms,
            warm_wall_ms,
            cold_jps: jobs as f64 / (cold_wall_ms / 1e3),
            warm_jps: jobs as f64 / (warm_wall_ms / 1e3),
        };
        println!(
            "{:>2} client(s) x {:>3} jobs: cold {:>9.0} jobs/sec, warm {:>9.0} jobs/sec ({:>5.1}x), verdicts identical",
            p.clients, per_client, p.cold_jps, p.warm_jps, p.speedup()
        );
        points.push(p);
    }

    let headline = points.last().expect("three client points");
    if smoke {
        assert!(
            headline.speedup() >= 1.0,
            "warm throughput fell below cold at {} clients: {:.2}x",
            headline.clients,
            headline.speedup()
        );
    } else {
        assert!(
            headline.speedup() >= 5.0,
            "warm throughput fell below the 5x floor at {} clients: {:.2}x",
            headline.clients,
            headline.speedup()
        );
    }

    let workload = format!(
        "one resident word context ({constraints} constraints over {ALPHABET} labels), {per_client} jobs/client, fixed lhs w0.w1 with globally distinct rhs, pipeline window 32"
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
    let _ = writeln!(json, "  \"verdicts_identical\": true,");
    json.push_str("  \"throughput\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"clients\": {}, \"jobs\": {}, \"cold_wall_ms\": {:.3}, \"warm_wall_ms\": {:.3}, \"cold_jobs_per_sec\": {:.0}, \"warm_jobs_per_sec\": {:.0}, \"speedup\": {:.2}}}{}",
            p.clients,
            p.jobs,
            p.cold_wall_ms,
            p.warm_wall_ms,
            p.cold_jps,
            p.warm_jps,
            p.speedup(),
            if i + 1 == points.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).expect("write results");
    println!("wrote {out}");
}
