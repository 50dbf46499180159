//! The live metrics plane behind `pathcons serve`.
//!
//! A [`MetricsPlane`] owns the server's [`MetricsRegistry`], where the
//! serve loop records what only it sees — per-op latency, throughput,
//! the verdict of every job line answered and the solve latency of
//! every job that reached the engine. Everything counted elsewhere is
//! read at scrape time from the one place it is counted: serve
//! counters, the engine's answer-cache counters (lookups, certificate
//! checks, validation evictions, entries) and the store's per-context
//! amortization state. The merged view renders two ways:
//!
//! - [`MetricsPlane::json`]: the `{"op": "metrics"}` response, a
//!   structured snapshot with quantile estimates for every histogram;
//! - [`MetricsPlane::prometheus_text`]: Prometheus text exposition
//!   (0.0.4) for the `--metrics-addr` HTTP listener.
//!
//! Both renderings are **deterministic**: families and label sets are
//! ordered, rate windows slide only on record, and nothing
//! time-dependent (uptime, timestamps) is included — so two scrapes of
//! an idle server are byte-identical.

use crate::serve::ServeStats;
use crate::store::ConstraintStore;
use pathcons_engine::{BatchEngine, JobResult, Json, Verdict};
use pathcons_metrics::{
    names, Counter, Histogram, MetricKind, MetricsRegistry, MetricsSnapshot, SampleValue,
    WindowedRate,
};
use std::sync::Arc;

/// The serve-side metrics plane: the server's registry plus
/// pre-resolved hot-path handles, and the exposition entry points.
pub struct MetricsPlane {
    registry: MetricsRegistry,
    store: Arc<ConstraintStore>,
    engine: Arc<BatchEngine>,
    stats: Arc<ServeStats>,
    op_job: Arc<Histogram>,
    op_ping: Arc<Histogram>,
    op_stats: Arc<Histogram>,
    op_check: Arc<Histogram>,
    op_metrics: Arc<Histogram>,
    job_rate: Arc<WindowedRate>,
    solve_micros: Arc<Histogram>,
    /// `pathcons_verdicts_total`, indexed like [`verdict_index`].
    verdicts: [Arc<Counter>; 4],
}

/// The slot of a verdict in [`MetricsPlane`]'s `verdicts` handles.
fn verdict_index(verdict: Verdict) -> usize {
    match verdict {
        Verdict::Implied => 0,
        Verdict::NotImplied => 1,
        Verdict::Unknown => 2,
        Verdict::Error => 3,
    }
}

impl MetricsPlane {
    /// A plane with a fresh registry over the server's store, engine
    /// and serve counters.
    pub fn new(
        store: Arc<ConstraintStore>,
        engine: Arc<BatchEngine>,
        stats: Arc<ServeStats>,
    ) -> MetricsPlane {
        let registry = MetricsRegistry::new();
        let op = |name: &str| {
            registry.histogram(
                names::OP_LATENCY_MICROS,
                names::OP_LATENCY_MICROS_HELP,
                &[("op", name)],
            )
        };
        let verdict = |verdict: Verdict| {
            registry.counter(
                names::VERDICTS_TOTAL,
                names::VERDICTS_TOTAL_HELP,
                &[("verdict", verdict.as_str())],
            )
        };
        MetricsPlane {
            op_job: op("job"),
            op_ping: op("ping"),
            op_stats: op("stats"),
            op_check: op("check"),
            op_metrics: op("metrics"),
            job_rate: registry.rate(names::JOB_RATE_PER_SEC, names::JOB_RATE_PER_SEC_HELP, &[]),
            solve_micros: registry.histogram(names::SOLVE_MICROS, names::SOLVE_MICROS_HELP, &[]),
            verdicts: [
                Verdict::Implied,
                Verdict::NotImplied,
                Verdict::Unknown,
                Verdict::Error,
            ]
            .map(verdict),
            registry,
            store,
            engine,
            stats,
        }
    }

    /// Records one answered job line — the single place job metrics
    /// are counted: its service latency and throughput, its verdict
    /// class, its `Unknown` kind, and (for jobs that reached the
    /// engine, i.e. were neither shed nor rejected by the store) its
    /// `micros` into the solve-latency histogram.
    pub(crate) fn record_job(&self, result: &JobResult, reached_engine: bool, micros: u64) {
        self.op_job.record(micros);
        self.job_rate.record(1);
        self.verdicts[verdict_index(result.verdict)].add(1);
        if let Some(kind) = &result.unknown_kind {
            self.registry
                .counter(
                    names::UNKNOWN_TOTAL,
                    names::UNKNOWN_TOTAL_HELP,
                    &[("kind", kind)],
                )
                .add(1);
        }
        if reached_engine {
            self.solve_micros.record(result.micros);
        }
    }

    /// Records one control op's service latency.
    pub(crate) fn record_op(&self, op: &str, micros: u64) {
        match op {
            "ping" => self.op_ping.record(micros),
            "stats" => self.op_stats.record(micros),
            "check" => self.op_check.record(micros),
            "metrics" => self.op_metrics.record(micros),
            other => self
                .registry
                .histogram(
                    names::OP_LATENCY_MICROS,
                    names::OP_LATENCY_MICROS_HELP,
                    &[("op", other)],
                )
                .record(micros),
        }
    }

    /// A merged point-in-time snapshot: everything recorded into the
    /// registry, plus the scrape-time families computed from the serve
    /// counters, the answer cache, and the store's per-context state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        use MetricKind::{Counter, Gauge};
        let mut snap = self.registry.snapshot();
        let serve = self.stats.snapshot();
        let c = SampleValue::Counter;
        let g = SampleValue::Gauge;
        snap.set(
            names::JOBS_TOTAL,
            Counter,
            names::JOBS_TOTAL_HELP,
            vec![],
            c(serve.jobs),
        );
        snap.set(
            names::CONNECTIONS_TOTAL,
            Counter,
            names::CONNECTIONS_TOTAL_HELP,
            vec![],
            c(serve.connections),
        );
        snap.set(
            names::ACCEPT_ERRORS_TOTAL,
            Counter,
            names::ACCEPT_ERRORS_TOTAL_HELP,
            vec![],
            c(serve.accept_errors),
        );
        snap.set(
            names::MALFORMED_TOTAL,
            Counter,
            names::MALFORMED_TOTAL_HELP,
            vec![],
            c(serve.malformed),
        );
        snap.set(
            names::SHED_TOTAL,
            Counter,
            names::SHED_TOTAL_HELP,
            vec![],
            c(serve.shed),
        );
        snap.set(
            names::OPS_TOTAL,
            Counter,
            names::OPS_TOTAL_HELP,
            vec![],
            c(serve.ops),
        );
        snap.set(
            names::SLOW_JOBS_TOTAL,
            Counter,
            names::SLOW_JOBS_TOTAL_HELP,
            vec![],
            c(serve.slow),
        );
        snap.set(
            names::INFLIGHT,
            Gauge,
            names::INFLIGHT_HELP,
            vec![],
            g(serve.inflight as f64),
        );

        let (cache, entries) = self.engine.cache_snapshot();
        let lookups = cache.hits + cache.misses;
        let hit_ratio = if lookups == 0 {
            0.0
        } else {
            cache.hits as f64 / lookups as f64
        };
        snap.set(
            names::CACHE_HIT_RATIO,
            Gauge,
            names::CACHE_HIT_RATIO_HELP,
            vec![],
            g(hit_ratio),
        );
        snap.set(
            names::CACHE_ENTRIES,
            Gauge,
            names::CACHE_ENTRIES_HELP,
            vec![],
            g(entries as f64),
        );
        for (outcome, n) in [("hit", cache.hits), ("miss", cache.misses)] {
            snap.set(
                names::CACHE_LOOKUPS_TOTAL,
                Counter,
                names::CACHE_LOOKUPS_TOTAL_HELP,
                vec![("outcome".to_owned(), outcome.to_owned())],
                c(n),
            );
        }
        // Rare events get a sample once non-zero, so a server that never
        // checks certificates or evicts exposes no such family.
        let rare = [
            (
                names::CERTCHECK_TOTAL,
                names::CERTCHECK_TOTAL_HELP,
                ("result", "valid"),
                cache.checked_hits,
            ),
            (
                names::CERTCHECK_TOTAL,
                names::CERTCHECK_TOTAL_HELP,
                ("result", "invalid"),
                cache.cert_invalid,
            ),
            (
                names::RESILIENCE_TOTAL,
                names::RESILIENCE_TOTAL_HELP,
                ("event", "validation_evict"),
                cache.validation_evictions,
            ),
        ];
        for (family, help, (key, value), n) in rare {
            if n > 0 {
                snap.set(
                    family,
                    Counter,
                    help,
                    vec![(key.to_owned(), value.to_owned())],
                    c(n),
                );
            }
        }

        for ctx in self.store.context_stats() {
            let labels = || vec![("context".to_owned(), ctx.name.clone())];
            snap.set(
                names::CONTEXT_REVISION,
                Gauge,
                names::CONTEXT_REVISION_HELP,
                labels(),
                g(ctx.revision as f64),
            );
            snap.set(
                names::CONTEXT_JOBS_TOTAL,
                Counter,
                names::CONTEXT_JOBS_TOTAL_HELP,
                labels(),
                c(ctx.jobs),
            );
            snap.set(
                names::CONTEXT_WARM,
                Gauge,
                names::CONTEXT_WARM_HELP,
                labels(),
                g(if ctx.warm { 1.0 } else { 0.0 }),
            );
            snap.set(
                names::CONTEXT_WORD_HITS_TOTAL,
                Counter,
                names::CONTEXT_WORD_HITS_TOTAL_HELP,
                labels(),
                c(ctx.shared.word_hits),
            );
            snap.set(
                names::CONTEXT_WORD_MISSES_TOTAL,
                Counter,
                names::CONTEXT_WORD_MISSES_TOTAL_HELP,
                labels(),
                c(ctx.shared.word_misses),
            );
        }
        snap
    }

    /// Prometheus text exposition (0.0.4) of [`MetricsPlane::snapshot`].
    pub fn prometheus_text(&self) -> String {
        self.snapshot().render_prometheus()
    }

    /// The `{"op": "metrics"}` response body: the snapshot as structured
    /// JSON, with quantile estimates for every histogram.
    pub fn json(&self) -> Json {
        snapshot_to_json(&self.snapshot())
    }
}

/// Renders a snapshot as the `metrics` op's JSON shape: a `families`
/// object keyed by family name, each with `kind`, `help`, and a
/// `samples` array of `{labels, ...value}` objects.
pub fn snapshot_to_json(snap: &MetricsSnapshot) -> Json {
    let mut families = Vec::new();
    for (name, family) in snap.families() {
        let samples = family
            .samples
            .iter()
            .map(|(labels, value)| {
                let label_obj = Json::Obj(
                    labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                );
                let mut members = vec![("labels".to_owned(), label_obj)];
                match value {
                    SampleValue::Counter(n) => {
                        members.push(("value".to_owned(), Json::Num(*n as f64)));
                    }
                    SampleValue::Gauge(v) => {
                        members.push(("value".to_owned(), Json::Num(*v)));
                    }
                    SampleValue::Histogram(h) => {
                        members.push(("count".to_owned(), Json::Num(h.count() as f64)));
                        members.push(("sum".to_owned(), Json::Num(h.sum as f64)));
                        members.push(("max".to_owned(), Json::Num(h.max as f64)));
                        members.push(("p50".to_owned(), Json::Num(h.p50() as f64)));
                        members.push(("p90".to_owned(), Json::Num(h.p90() as f64)));
                        members.push(("p99".to_owned(), Json::Num(h.p99() as f64)));
                    }
                }
                Json::Obj(members)
            })
            .collect();
        families.push((
            name.to_owned(),
            Json::Obj(vec![
                (
                    "kind".to_owned(),
                    Json::Str(family.kind.as_str().to_owned()),
                ),
                ("help".to_owned(), Json::Str(family.help.clone())),
                ("samples".to_owned(), Json::Arr(samples)),
            ]),
        ));
    }
    Json::Obj(vec![
        ("ok".to_owned(), Json::Bool(true)),
        ("op".to_owned(), Json::Str("metrics".to_owned())),
        ("families".to_owned(), Json::Obj(families)),
    ])
}
