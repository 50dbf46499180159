//! `servebench`: the repository benchmark. It measures `pathcons serve`
//! end to end — set-up time, throughput, latency, decided share,
//! certificate coverage and peak memory — on four workloads that each
//! load a different solver tier, and splits the wall time by layer in a
//! separate in-process traced pass. See `README.md` next to this crate.
//!
//! ```text
//! servebench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!            [--runs K] [--smoke] [--out FILE] [--pathcons PATH]
//! ```
//!
//! With `--workload`, one workload runs and the last line of standard
//! output is `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! Without it, all four workloads run with the traced pass and every
//! metric is printed. `--runs K` repeats each run with seeds `N` to `N+K-1`
//! and prints each metric's median and quartile spread, flagging spreads
//! beyond the metric's bound. Exit codes: 0 success, 1 a correctness
//! gate fired, 2 the run could not be carried out.

mod audit;
mod report;
mod served;
mod trace;
mod traced;
mod workload;

use pathcons_engine::Json;
use report::{mean, percentile, ratio, sorted, MetricSpec, Spec, Values};
use served::{Answer, Served};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workload::{Scale, Workload, WORKLOADS};

/// Where runs keep their temporary files and span dumps, relative to the
/// checkout root the benchmark runs from.
const WORK_ROOT: &str = ".bench_work";

/// `trace.coverage` below this means the spans miss part of the work.
const MIN_COVERAGE: f64 = 0.95;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: Option<bool>,
    runs: u64,
    smoke: bool,
    out: Option<PathBuf>,
    pathcons: PathBuf,
}

fn parse_options() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned());
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        runs: 1,
        smoke: false,
        out: None,
        pathcons: Path::new(&target).join("release").join("pathcons"),
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            options.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => options.workload = Some(value),
            "--seed" => options.seed = number(&value)?,
            "--seconds" => options.seconds = Some(number(&value)?.max(1)),
            "--trace" => {
                options.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            "--runs" => options.runs = number(&value)?.max(1),
            "--out" => options.out = Some(PathBuf::from(value)),
            "--pathcons" => options.pathcons = PathBuf::from(value),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(options)
}

/// One run of one workload.
struct Run {
    workload: &'static str,
    seed: u64,
    values: Values,
    attempted: usize,
    failed: usize,
    /// Certificates the offline audit accepted.
    audited: usize,
    /// Correctness-gate findings; any makes the run incorrect.
    problems: Vec<String>,
    /// Traced self time per step as a share of the traced wall time,
    /// largest first (empty without the traced pass).
    steps: Vec<(String, f64)>,
}

fn main() -> ExitCode {
    match benchmark() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs what the options ask for; `Ok(false)` when a gate fired.
fn benchmark() -> Result<bool, String> {
    let options = parse_options()?;
    let spec = report::load_spec("BENCHMARK.json")?;
    if !options.pathcons.is_file() {
        return Err(format!(
            "no pathcons binary at {} (build it with `cargo build --release -p pathcons-cli`, or pass --pathcons)",
            options.pathcons.display()
        ));
    }
    let scale = if options.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let seconds = options
        .seconds
        .unwrap_or(if options.smoke { 2 } else { spec.run_seconds });
    let names: Vec<&str> = match &options.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    // One workload: a single measured run, tracing only when asked. All
    // workloads: the traced pass runs too, unless `--trace 0`.
    let traced = options.trace.unwrap_or(options.workload.is_none());

    let mut runs = Vec::new();
    for name in &names {
        for k in 0..options.runs {
            let seed = options.seed + k;
            let run = run_workload(&options, name, seed, seconds, scale, traced)?;
            print_run(&run, &spec, traced);
            runs.push(run);
        }
    }
    if options.runs > 1 {
        print_spreads(&runs, &spec, traced);
    }
    if let Some(path) = &options.out {
        write_out(path, &runs, seconds, traced)?;
        println!("wrote {}", path.display());
    }
    let correct = runs.iter().all(|r| r.problems.is_empty());
    if let [run] = runs.as_slice() {
        let specs = if traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        println!(
            "{}",
            report::result_line(correct, run.attempted, run.failed, &run.values, specs)?
        );
    }
    Ok(correct)
}

fn run_workload(
    options: &Options,
    name: &str,
    seed: u64,
    seconds: u64,
    scale: Scale,
    traced: bool,
) -> Result<Run, String> {
    let w = workload::build(name, seed, scale)?;
    let bytes = pathcons_store::snapshot::encode(&w.snapshot);
    let work = served::WorkDir::create(Path::new(WORK_ROOT))?;
    let snapshot = work.join("snapshot.pcs");
    std::fs::write(&snapshot, &bytes).map_err(|e| format!("{}: {e}", snapshot.display()))?;
    eprintln!(
        "servebench: {name} seed {seed}: {} requests listed, serving for {seconds} s",
        w.requests.len()
    );
    let served = served::run(
        &options.pathcons,
        &snapshot,
        &work.join("serve.sock"),
        &w.requests,
        Duration::from_secs(seconds),
        w.audit_stride,
    )?;
    drop(work);

    let mut problems = Vec::new();
    let verdicts = audit::verdicts(&w.requests, &served.completed);
    problems.extend(verdicts.contradictions.iter().cloned());
    let (audit_store, load_ms, warm_ms) = traced::load_store(&bytes)?;
    let (audited, rejections) = audit::certificates(&audit_store, &w.requests, &served.kept);
    problems.extend(rejections);
    drop(audit_store);

    let mut values = end_to_end(&served, &verdicts)?;
    let mut steps = Vec::new();
    if traced {
        let (layer, shares) = per_layer(&w, &bytes, &served, load_ms, warm_ms, &mut problems)?;
        values.extend(layer);
        steps = shares;
    }
    for problem in problems.iter().take(20) {
        eprintln!("servebench: {name}: CORRECTNESS: {problem}");
    }
    Ok(Run {
        workload: w.name,
        seed,
        values,
        attempted: served.completed.len(),
        failed: verdicts.failed,
        audited,
        problems,
        steps,
    })
}

/// The end-to-end metrics, all from the untraced server.
fn end_to_end(served: &Served, verdicts: &audit::Verdicts) -> Result<Values, String> {
    let answered: Vec<&served::Completed> = served
        .completed
        .iter()
        .filter(|c| !c.answer.failed())
        .collect();
    let latencies = sorted(answered.iter().map(|c| c.latency_ns as f64 / 1e6).collect());
    if verdicts.jobs == 0 || verdicts.decided == 0 {
        return Err("the timed window answered no implication job".into());
    }
    let mut setup = served.setup_s.clone();
    setup.sort_by(f64::total_cmp);
    let mut values = Values::new();
    values.insert("setup_s".into(), setup[setup.len() / 2]);
    values.insert(
        "throughput_jps".into(),
        answered.len() as f64 / served.wall_s,
    );
    values.insert("latency_p50_ms".into(), percentile(&latencies, 0.50));
    values.insert("latency_p99_ms".into(), percentile(&latencies, 0.99));
    values.insert(
        "decided_ratio".into(),
        ratio(verdicts.decided as f64, verdicts.jobs as f64),
    );
    values.insert(
        "cert_coverage".into(),
        ratio(verdicts.certified as f64, verdicts.decided as f64),
    );
    values.insert("peak_rss_mb".into(), served.peak_rss_mb);
    values.insert("latency_samples".into(), latencies.len() as f64);
    values.insert(
        "failed_ratio".into(),
        ratio(verdicts.failed as f64, served.completed.len() as f64),
    );
    Ok(values)
}

/// The per-layer metrics: server-side counters from the served run, and
/// self times from the traced pass over the workload's leading requests.
/// Also returns each traced step's share of the traced wall time.
fn per_layer(
    w: &Workload,
    bytes: &[u8],
    served: &Served,
    load_ms: f64,
    warm_ms: f64,
    problems: &mut Vec<String>,
) -> Result<(Values, Vec<(String, f64)>), String> {
    let replay = w.traced.min(served.completed.len());
    let requests = &w.requests[..replay];
    let (untraced_store, second_load_ms, _) = traced::load_store(bytes)?;
    let untraced_ns = traced::untraced_pass(&untraced_store, requests)?;
    drop(untraced_store);
    let (traced_store, third_load_ms, _) = traced::load_store(bytes)?;
    let t = traced::traced_pass(&traced_store, requests)?;
    drop(traced_store);

    for (index, answer) in t.answers.iter().enumerate() {
        // The answered requests are a prefix of the list, in index order.
        let served_answer = &served.completed[index].answer;
        let agree = match (served_answer, answer) {
            (Answer::Verdict { verdict: a, .. }, Answer::Verdict { verdict: b, .. }) => a == b,
            (a, b) => a.failed() || a == b,
        };
        if !agree {
            problems.push(format!(
                "request {index}: served {served_answer:?}, traced {answer:?}"
            ));
        }
    }

    // Self times by span name, in microseconds.
    let mut by_name: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (span, &ns) in t.spans.iter().zip(&t.self_ns) {
        by_name
            .entry(span.name.as_ref())
            .or_default()
            .push(ns as f64 / 1e3);
    }
    let p50 = |name: &str| percentile(&sorted(by_name.get(name).cloned().unwrap_or_default()), 0.5);
    let total_us = |prefix: &str| -> f64 {
        by_name
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .flat_map(|(_, v)| v.iter())
            // Folding from +0.0: an empty `f64` sum is -0.0.
            .fold(0.0, |total, us| total + us)
    };
    let solve_times = sorted(
        by_name
            .iter()
            .filter(|(name, _)| name.starts_with("solve."))
            .flat_map(|(_, v)| v.iter().copied())
            .collect(),
    );
    let solve_total = total_us("solve.");
    let wall_us = t.wall_ns as f64 / 1e3;
    let mut steps: Vec<(String, f64)> = by_name
        .iter()
        .map(|(&name, times)| {
            let label = if name == traced::ROOT {
                "(between steps)"
            } else {
                name
            };
            let total = times.iter().fold(0.0, |sum, us| sum + us);
            (label.to_owned(), total / wall_us)
        })
        .collect();
    steps.sort_by(|a, b| b.1.total_cmp(&a.1));

    let mut values = Values::new();
    let mut put = |name: &str, value: f64| {
        values.insert(name.to_owned(), value);
    };
    // Wire.
    let wire: Vec<f64> = served
        .completed
        .iter()
        .filter_map(|c| match c.answer {
            Answer::Verdict { micros, .. } => {
                Some((c.latency_ns as f64 / 1e3 - micros as f64).max(0.0))
            }
            _ => None,
        })
        .collect();
    put("serve.wire_us.p50", percentile(&sorted(wire), 0.5));
    put("serve.parse_us.p50", p50("wire.parse"));
    put("serve.encode_us.p50", p50("wire.encode"));
    let bytes_sent: Vec<f64> = served.completed.iter().map(|c| c.bytes as f64).collect();
    put("serve.response_bytes.mean", mean(&bytes_sent));
    // Store.
    put("store.prepare_us.p50", p50("store.prepare"));
    put("store.check.share", total_us("store.check") / wall_us);
    let mut loads = [load_ms, second_load_ms, third_load_ms];
    loads.sort_by(f64::total_cmp);
    put("setup.snapshot_load_ms", loads[1]);
    put("setup.warm_ms", warm_ms);
    // Canon.
    put("canon.canonicalize_us.p50", p50("canon.canonicalize"));
    let lens: Vec<f64> = t.sigma_lens.iter().map(|&n| n as f64).collect();
    put("canon.sigma_len.mean", mean(&lens));
    // Cache.
    put("cache.lookup_us.p50", p50("cache.lookup"));
    put("cache.hit_ratio", ratio(t.hits as f64, t.lookups as f64));
    let count = |key: &str| {
        served
            .stats
            .get(key)
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    let (hits, misses) = (count("cache_hits"), count("cache_misses"));
    put("server.cache_hit_ratio", ratio(hits, hits + misses));
    // Solve.
    put("solve_us.p50", percentile(&solve_times, 0.5));
    put("solve_us.p99", percentile(&solve_times, 0.99));
    for tier in ["word", "local_extent", "typed_m", "chase", "search"] {
        put(
            &format!("solve.{tier}.share"),
            ratio(total_us(&format!("solve.{tier}.")), solve_total),
        );
    }
    put(
        "solve.word.not_implied.share",
        ratio(total_us("solve.word.not_implied"), solve_total),
    );
    put(
        "solve.unknown_ratio",
        ratio(t.unknowns as f64, t.solves as f64),
    );
    put("server.solve_us.mean", server_solve_mean(&served.metrics));
    // Amortize.
    let contexts = served
        .stats
        .get("contexts_detail")
        .and_then(|v| v.as_array())
        .unwrap_or(&[]);
    let sum = |key: &str| -> f64 {
        contexts
            .iter()
            .filter_map(|c| c.get(key).and_then(|v| v.as_f64()))
            .sum()
    };
    let (word_hits, word_misses) = (sum("word_hits"), sum("word_misses"));
    put(
        "amortize.word_hit_ratio",
        ratio(word_hits, word_hits + word_misses),
    );
    put("amortize.chase_reuses", sum("chase_reuses"));
    // Certify and cert.
    put("certify.emit_us.p50", p50("certify.emit"));
    put(
        "certify.emitted_ratio",
        ratio(t.emitted_certificates.len() as f64, t.certify_calls as f64),
    );
    let cert_bytes: Vec<f64> = t
        .emitted_certificates
        .iter()
        .map(|c| pathcons_engine::certificate_to_json(c).to_string().len() as f64)
        .collect();
    put("certify.bytes.mean", mean(&cert_bytes));
    put("cert.check_us.p50", p50("cert.check"));
    put(
        "cert.accept_ratio",
        ratio(t.accepted as f64, t.checked as f64),
    );
    // Trace bookkeeping. The untraced pass runs no separate certificate
    // check, so that step's time is taken out before comparing.
    let coverage = trace::coverage(&t.spans, &t.self_ns, traced::ROOT, t.wall_ns);
    put("trace.coverage", coverage);
    let check_ns = total_us("cert.check") * 1e3;
    put(
        "trace.overhead_pct",
        (t.wall_ns as f64 - check_ns - untraced_ns as f64) / untraced_ns.max(1) as f64 * 100.0,
    );
    if coverage < MIN_COVERAGE {
        problems.push(format!(
            "trace.coverage {coverage:.3} is below {MIN_COVERAGE}: the spans miss part of the traced work"
        ));
    }
    let dump = Path::new(WORK_ROOT).join(format!("spans-{}.jsonl", w.name));
    std::fs::write(&dump, trace::to_jsonl(&t.spans, &t.self_ns))
        .map_err(|e| format!("{}: {e}", dump.display()))?;
    Ok((values, steps))
}

/// Mean of the server's `pathcons_solve_micros` histogram (its log2
/// buckets make the quantile estimates step between powers of two).
fn server_solve_mean(metrics: &Json) -> f64 {
    let sample = metrics
        .get("families")
        .and_then(|f| f.get("pathcons_solve_micros"))
        .and_then(|f| f.get("samples"))
        .and_then(|s| s.as_array())
        .and_then(|s| s.first());
    let field = |key: &str| sample.and_then(|s| s.get(key)).and_then(|v| v.as_f64());
    match (field("sum"), field("count")) {
        (Some(sum), Some(count)) if count > 0.0 => sum / count,
        _ => 0.0,
    }
}

fn print_run(run: &Run, spec: &Spec, traced: bool) {
    let mut text = format!(
        "{} seed {}: {} requests, {} failed, {} certificates audited, {}\n",
        run.workload,
        run.seed,
        run.attempted,
        run.failed,
        run.audited,
        if run.problems.is_empty() {
            "all correctness gates passed".to_owned()
        } else {
            format!("{} CORRECTNESS FINDINGS", run.problems.len())
        }
    );
    let unbounded = unbounded();
    let layer: &[MetricSpec] = if traced { &spec.per_layer } else { &[] };
    for m in spec.end_to_end.iter().chain(&unbounded).chain(layer) {
        if let Some(value) = run.values.get(&m.name) {
            let _ = writeln!(
                text,
                "  {:<14} {:<30} {:>14.4} {}",
                run.workload, m.name, value, m.unit
            );
        }
    }
    if !run.steps.is_empty() {
        let top: Vec<String> = run
            .steps
            .iter()
            .take(6)
            .map(|(name, share)| format!("{name} {:.1}%", share * 100.0))
            .collect();
        let _ = writeln!(
            text,
            "  {:<14} traced self time: {}",
            run.workload,
            top.join(", ")
        );
    }
    print!("{text}");
}

/// End-to-end values every run measures and prints but `BENCHMARK.json`
/// does not bound: the served throughput and latencies, whose spread
/// from run to run on a 2-vCPU virtual machine exceeded the 10% a bound
/// may allow (see the README), the sample count behind the percentiles,
/// and the failure share, which is 0 in a correct run.
fn unbounded() -> [MetricSpec; 5] {
    [
        ("throughput_jps", "jobs/s"),
        ("latency_p50_ms", "ms"),
        ("latency_p99_ms", "ms"),
        ("latency_samples", "count"),
        ("failed_ratio", "ratio"),
    ]
    .map(|(name, unit)| MetricSpec {
        name: name.into(),
        unit: unit.into(),
        bound: None,
    })
}

/// Median and quartile spread of every metric over the runs of each
/// workload; a spread beyond an end-to-end metric's bound is flagged.
fn print_spreads(runs: &[Run], spec: &Spec, traced: bool) {
    let unbounded = unbounded();
    let layer: &[MetricSpec] = if traced { &spec.per_layer } else { &[] };
    println!("spread over runs (IQR / median, as statistics.quantiles computes it):");
    for name in WORKLOADS {
        let group: Vec<&Run> = runs.iter().filter(|r| r.workload == name).collect();
        if group.is_empty() {
            continue;
        }
        for m in spec.end_to_end.iter().chain(&unbounded).chain(layer) {
            let values: Vec<f64> = group
                .iter()
                .filter_map(|r| r.values.get(&m.name).copied())
                .collect();
            let (q1, median, q3) = report::quartiles(&values);
            let spread = if median != 0.0 {
                (q3 - q1) / median.abs()
            } else {
                0.0
            };
            let flag = match m.bound {
                Some(bound) if spread > bound => "  SPREAD EXCEEDS BOUND",
                Some(bound) if spread > bound / 3.0 => "  spread above a third of the bound",
                _ => "",
            };
            let bound = m
                .bound
                .map_or_else(String::new, |b| format!(" (bound {b})"));
            println!(
                "  {name:<14} {:<30} median {median:>14.4} {:<7} spread {spread:.4}{bound}{flag}",
                m.name, m.unit
            );
        }
    }
}

fn write_out(path: &Path, runs: &[Run], seconds: u64, traced: bool) -> Result<(), String> {
    let workload = format!(
        "pathcons serve, closed loop, {} connections, {seconds} s per run{}",
        served::CONNECTIONS,
        if traced { ", plus the traced pass" } else { "" }
    );
    let mut out = format!(
        "{{\n  \"meta\": {},\n  \"runs\": [\n",
        pathcons_bench::bench_meta(&workload)
    );
    for (i, run) in runs.iter().enumerate() {
        let metrics: Vec<(String, Json)> = run
            .values
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect();
        let record = Json::Obj(vec![
            ("workload".into(), Json::Str(run.workload.into())),
            ("seed".into(), Json::Num(run.seed as f64)),
            ("correct".into(), Json::Bool(run.problems.is_empty())),
            ("attempted".into(), Json::Num(run.attempted as f64)),
            ("failed".into(), Json::Num(run.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(out, "    {record}{comma}");
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}
