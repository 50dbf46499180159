//! # pathcons-telemetry
//!
//! A zero-cost-when-disabled instrumentation layer for the `pathcons`
//! semi-decision procedures.
//!
//! The implication engines for the undecidable `P_c` cells answer
//! `Unknown(budget)` without saying *where* the budget went. This crate
//! provides the vocabulary to explain it:
//!
//! - a lightweight [`Recorder`] trait — span enter/exit, monotonic
//!   counters, `u64` histograms, structured events;
//! - [`NoopRecorder`] (disabled; the engines monomorphize instrumented
//!   code over it, so the disabled path compiles to nothing),
//!   [`DiscardRecorder`] (enabled but drops everything — for overhead
//!   measurement), the thread-safe [`InMemoryRecorder`] (aggregation +
//!   profiles), the JSONL [`FileRecorder`] (machine-readable traces),
//!   and [`TeeRecorder`] (fan-out);
//! - a cloneable [`Telemetry`] handle carried inside
//!   `pathcons_core::Budget`, so the recorder reaches every engine
//!   without changing their signatures;
//! - the **budget attribution** schema ([`schema`]): a terminal event
//!   per engine run whose per-phase step counts sum exactly to the
//!   steps consumed, turning every `Unknown` into a breakdown instead
//!   of a shrug.
//!
//! Span enter/exit is balanced by construction: [`SpanGuard`] exits on
//! drop, so early returns, deadline bail-outs, and panics all unwind
//! the span stack correctly. The event schema is documented in
//! `DESIGN.md` section H.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod file;
mod memory;

pub use file::FileRecorder;
pub use memory::{EventRecord, HistogramSummary, InMemoryRecorder, Snapshot, SpanBalance};

use std::sync::Arc;

/// Event, span, counter and field names shared by the instrumented
/// engines and the trace validators. Using these constants (rather than
/// ad-hoc strings) keeps the emitting and consuming sides in sync; the
/// full schema is documented in `DESIGN.md` section H.
pub mod schema {
    /// Terminal attribution event: one per engine run, explaining where
    /// the budget went. Fields prefixed [`PHASE_PREFIX`] must sum to
    /// [`FIELD_STEPS_TOTAL`].
    pub const EVENT_ATTRIBUTION: &str = "budget.attribution";
    /// Per-chase-round progress event.
    pub const EVENT_CHASE_ROUND: &str = "chase.round";
    /// Batch summary event emitted by the batch engine.
    pub const EVENT_BATCH_DONE: &str = "batch.done";
    /// Per-job summary event emitted by the resident service; carries
    /// the job's correlation id in [`LABEL_REQUEST_ID`], so a slow-log
    /// record can be joined against the trace with `grep`.
    pub const EVENT_SERVE_JOB: &str = "serve.job";
    /// Field-name prefix for per-phase step counts inside
    /// [`EVENT_ATTRIBUTION`].
    pub const PHASE_PREFIX: &str = "phase.";
    /// Field-name prefix for per-phase elapsed-time attribution
    /// (microseconds) inside [`EVENT_ATTRIBUTION`].
    pub const MICROS_PREFIX: &str = "micros.";
    /// Total steps consumed by the run; the `phase.*` fields partition it.
    pub const FIELD_STEPS_TOTAL: &str = "steps_total";
    /// Chase rounds actually executed.
    pub const FIELD_ROUNDS_USED: &str = "rounds_used";
    /// Chase round budget (`Budget::chase_rounds`).
    pub const FIELD_ROUNDS_BUDGET: &str = "rounds_budget";
    /// Search samples actually drawn.
    pub const FIELD_SAMPLES_USED: &str = "samples_used";
    /// Search sample budget (`Budget::search_samples`).
    pub const FIELD_SAMPLES_BUDGET: &str = "samples_budget";
    /// Label naming the engine that emitted the record.
    pub const LABEL_ENGINE: &str = "engine";
    /// Label naming the run's outcome (`implied`, `not-implied`,
    /// `unknown`, `found`, `exhausted`, …).
    pub const LABEL_OUTCOME: &str = "outcome";
    /// Label carrying the `UnknownReason` rendering for unknown runs.
    pub const LABEL_REASON: &str = "reason";
    /// Label carrying a job's correlation id on [`EVENT_SERVE_JOB`].
    pub const LABEL_REQUEST_ID: &str = "request_id";

    /// `LABEL_ENGINE` value of the per-batch resilience attribution
    /// record: an [`EVENT_ATTRIBUTION`] whose `phase.*` fields count
    /// recovery actions (sheds, validation evictions, queued-deadline
    /// fast answers) and sum to
    /// [`FIELD_STEPS_TOTAL`], so `trace-check` validates it like any
    /// other attribution.
    pub const ENGINE_BATCH_RESILIENCE: &str = "batch.resilience";
    /// Resilience phase: jobs shed by the admission controller.
    pub const PHASE_SHED: &str = "phase.shed";
    /// Resilience phase: cache hits rejected by the hit-validator.
    pub const PHASE_VALIDATION_EVICT: &str = "phase.validation-evict";
    /// Resilience phase: jobs found already past their deadline while
    /// queued, answered without solving.
    pub const PHASE_DEADLINE_QUEUE: &str = "phase.deadline-queue";
    /// The batch engine's certificate-checking attribution record: how
    /// many cache hits were validated by the solver-independent
    /// certificate checker instead of a re-solve. Its `phase.*` fields
    /// sum to [`FIELD_STEPS_TOTAL`], so `trace-check` validates it.
    pub const ENGINE_CERTCHECK: &str = "batch.certcheck";
    /// Certcheck phase: cached certificates that validated.
    pub const PHASE_CERT_VALID: &str = "phase.cert-valid";
    /// Certcheck phase: cached certificates rejected (entry evicted and
    /// the query re-solved fresh).
    pub const PHASE_CERT_INVALID: &str = "phase.cert-invalid";
}

/// A sink for instrumentation: spans, counters, histograms and events.
///
/// Implementations must be thread-safe — one recorder is shared by every
/// worker of a batch. All methods take `&self`.
///
/// Call sites are expected to gate *preparation* work (formatting keys,
/// reading clocks) on [`Recorder::enabled`]; the methods themselves must
/// also be safe to call when disabled (they are no-ops on
/// [`NoopRecorder`]).
pub trait Recorder: Send + Sync {
    /// Whether this recorder wants data at all. Instrumented code uses
    /// this to skip measurement work (clock reads, key formatting); a
    /// `false` answer must be constant for the recorder's lifetime.
    fn enabled(&self) -> bool;

    /// Enters a named span. Must be balanced by a matching
    /// [`Recorder::span_exit`] — use [`SpanGuard`] to get that for free
    /// across early returns and panics.
    fn span_enter(&self, name: &str);

    /// Exits a named span.
    fn span_exit(&self, name: &str);

    /// Adds `delta` to a monotonic counter.
    fn counter(&self, key: &str, delta: u64);

    /// Records one observation into a histogram.
    fn histogram(&self, key: &str, value: u64);

    /// Records a structured event: numeric `fields` plus string
    /// `labels`.
    fn event(&self, name: &str, fields: &[(&str, u64)], labels: &[(&str, &str)]);
}

/// The disabled recorder: reports `enabled() == false` and drops
/// everything. Instrumented engines monomorphize over this type for
/// their untraced path, so the compiler erases the instrumentation
/// entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
    #[inline(always)]
    fn span_enter(&self, _name: &str) {}
    #[inline(always)]
    fn span_exit(&self, _name: &str) {}
    #[inline(always)]
    fn counter(&self, _key: &str, _delta: u64) {}
    #[inline(always)]
    fn histogram(&self, _key: &str, _value: u64) {}
    #[inline(always)]
    fn event(&self, _name: &str, _fields: &[(&str, u64)], _labels: &[(&str, &str)]) {}
}

/// An *enabled* recorder that discards everything. Exists to measure the
/// cost of the instrumentation call sites themselves (dynamic dispatch,
/// key formatting, clock reads) with no aggregation behind them — the
/// `bench_chase --telemetry` overhead check compares this against the
/// monomorphized [`NoopRecorder`] path.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiscardRecorder;

impl Recorder for DiscardRecorder {
    fn enabled(&self) -> bool {
        true
    }
    fn span_enter(&self, _name: &str) {}
    fn span_exit(&self, _name: &str) {}
    fn counter(&self, _key: &str, _delta: u64) {}
    fn histogram(&self, _key: &str, _value: u64) {}
    fn event(&self, _name: &str, _fields: &[(&str, u64)], _labels: &[(&str, &str)]) {}
}

/// Fans every record out to several recorders (e.g. a JSONL
/// [`FileRecorder`] for machines plus an [`InMemoryRecorder`] for the
/// human-readable profile).
pub struct TeeRecorder {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl TeeRecorder {
    /// A recorder forwarding to every sink in `sinks`.
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> TeeRecorder {
        TeeRecorder { sinks }
    }
}

impl Recorder for TeeRecorder {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }
    fn span_enter(&self, name: &str) {
        for s in &self.sinks {
            s.span_enter(name);
        }
    }
    fn span_exit(&self, name: &str) {
        for s in &self.sinks {
            s.span_exit(name);
        }
    }
    fn counter(&self, key: &str, delta: u64) {
        for s in &self.sinks {
            s.counter(key, delta);
        }
    }
    fn histogram(&self, key: &str, value: u64) {
        for s in &self.sinks {
            s.histogram(key, value);
        }
    }
    fn event(&self, name: &str, fields: &[(&str, u64)], labels: &[(&str, &str)]) {
        for s in &self.sinks {
            s.event(name, fields, labels);
        }
    }
}

/// RAII span: enters on construction, exits on drop — so every return
/// path (including `?`, deadline bail-outs and panics) balances the
/// span. Does nothing at all when the recorder is disabled.
pub struct SpanGuard<'a, R: Recorder + ?Sized> {
    recorder: &'a R,
    name: &'a str,
    armed: bool,
}

impl<'a, R: Recorder + ?Sized> SpanGuard<'a, R> {
    /// Enters `name` on `recorder` (if enabled) and returns the guard
    /// that will exit it.
    pub fn enter(recorder: &'a R, name: &'a str) -> SpanGuard<'a, R> {
        let armed = recorder.enabled();
        if armed {
            recorder.span_enter(name);
        }
        SpanGuard {
            recorder,
            name,
            armed,
        }
    }
}

impl<R: Recorder + ?Sized> Drop for SpanGuard<'_, R> {
    fn drop(&mut self) {
        if self.armed {
            self.recorder.span_exit(self.name);
        }
    }
}

/// A cloneable, shareable handle to a recorder — the form in which
/// telemetry travels inside `pathcons_core::Budget`.
///
/// [`Telemetry::disabled`] (the `Default`) carries no recorder at all;
/// engines test [`Telemetry::active`] once and monomorphize their
/// untraced path over [`NoopRecorder`], so a disabled handle costs one
/// branch per engine call.
#[derive(Clone, Default)]
pub struct Telemetry {
    recorder: Option<Arc<dyn Recorder>>,
}

impl Telemetry {
    /// The disabled handle: no recorder, no cost.
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// A handle wrapping one shared recorder.
    pub fn new(recorder: Arc<dyn Recorder>) -> Telemetry {
        Telemetry {
            recorder: Some(recorder),
        }
    }

    /// A handle fanning out to several recorders.
    pub fn tee(sinks: Vec<Arc<dyn Recorder>>) -> Telemetry {
        Telemetry::new(Arc::new(TeeRecorder::new(sinks)))
    }

    /// Whether any recorder is attached and enabled.
    pub fn enabled(&self) -> bool {
        self.recorder.as_deref().is_some_and(Recorder::enabled)
    }

    /// The attached recorder, if enabled — engines branch on this once
    /// per call and fall back to the monomorphized [`NoopRecorder`]
    /// path otherwise.
    pub fn active(&self) -> Option<&dyn Recorder> {
        match self.recorder.as_deref() {
            Some(r) if r.enabled() => Some(r),
            _ => None,
        }
    }

    /// The attached recorder, or a no-op one.
    pub fn recorder(&self) -> &dyn Recorder {
        static NOOP: NoopRecorder = NoopRecorder;
        self.recorder.as_deref().unwrap_or(&NOOP)
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.recorder {
            None => write!(f, "Telemetry(disabled)"),
            Some(r) if r.enabled() => write!(f, "Telemetry(enabled)"),
            Some(_) => write!(f, "Telemetry(attached, disabled)"),
        }
    }
}

/// Escapes a string for embedding in a JSON string literal (used by the
/// [`FileRecorder`] and exposed for the CLI's profile rendering).
pub fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_silent() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        rec.counter("k", 1);
        rec.histogram("h", 2);
        rec.event("e", &[("f", 3)], &[("l", "v")]);
        {
            let _g = SpanGuard::enter(&rec, "s");
        }
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        assert!(t.active().is_none());
    }

    #[test]
    fn discard_is_enabled() {
        assert!(DiscardRecorder.enabled());
        let t = Telemetry::new(Arc::new(DiscardRecorder));
        assert!(t.enabled());
        assert!(t.active().is_some());
    }

    #[test]
    fn tee_fans_out_to_all_sinks() {
        let a = Arc::new(InMemoryRecorder::new());
        let b = Arc::new(InMemoryRecorder::new());
        let t = Telemetry::tee(vec![a.clone(), b.clone()]);
        t.recorder().counter("k", 2);
        t.recorder().counter("k", 3);
        assert_eq!(a.snapshot().counter("k"), 5);
        assert_eq!(b.snapshot().counter("k"), 5);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\ny\u{1}"), "x\\ny\\u0001");
    }
}
