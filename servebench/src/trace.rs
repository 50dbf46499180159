//! The span recorder of the traced pass.
//!
//! A span is one timed call into a layer: a name, start and end (in
//! nanoseconds since the recorder was created), the span that caused it,
//! and the request it belongs to. Spans stay in memory and are written
//! out as JSONL once the pass ends. A span's self time is its duration
//! minus the part of that interval its child spans cover.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer call, e.g. `store.prepare` or `solve.word.implied`.
    /// Borrowed unless renamed, so recording allocates no string.
    pub name: Cow<'static, str>,
    /// Start, in nanoseconds since the recorder's origin.
    pub start: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: usize,
}

/// Records nested spans on one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder with room for `spans` spans, whose clock starts
    /// now. Reserving up front keeps vector growth out of the timings.
    pub fn with_capacity(spans: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str, request: usize) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(id);
        // Read the clock last, so the recorder's own work falls between
        // spans as little as possible.
        let start = self.now();
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            start,
            end: start,
            parent,
            request,
        });
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let end = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = end;
    }

    /// Renames a span, e.g. to label a solve span with the tier and the
    /// verdict once they are known.
    pub fn rename(&mut self, id: usize, name: String) {
        self.spans[id].name = Cow::Owned(name);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, request: usize, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let value = f();
        self.exit(id);
        value
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in nanoseconds: its duration minus the union
/// of its children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end - span.start).saturating_sub(covered)
        })
        .collect()
}

/// Sum of the self times of every span not named `root`, as a share of
/// `wall` nanoseconds: how much of the traced wall time the layer spans
/// account for.
pub fn coverage(spans: &[Span], self_ns: &[u64], root: &str, wall: u64) -> f64 {
    let covered: u64 = spans
        .iter()
        .zip(self_ns)
        .filter(|(span, _)| span.name != root)
        .map(|(_, &ns)| ns)
        .sum();
    covered as f64 / wall.max(1) as f64
}

/// The spans as JSONL, one object per line, with their self times.
pub fn to_jsonl(spans: &[Span], self_ns: &[u64]) -> String {
    let mut out = String::new();
    for (id, (span, own)) in spans.iter().zip(self_ns).enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            r#"{{"span":{id},"name":"{}","request":{},"parent":{parent},"start_ns":{},"end_ns":{},"self_ns":{own}}}"#,
            span.name, span.request, span.start, span.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: Cow::Borrowed(name),
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 10, 20, Some(0)),
            span("solve", 30, 80, Some(0)),
            span("inner", 40, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 10, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Covered: [10, 60) and [90, 100) — 60 of the root's 100.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn coverage_excludes_the_root_spans() {
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 0, 45, Some(0)),
            span("solve", 50, 100, Some(0)),
            span("request", 100, 200, None),
            span("parse", 100, 200, Some(3)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![5, 45, 50, 0, 100]);
        let share = coverage(&spans, &own, "request", 200);
        assert!((share - 0.975).abs() < 1e-12, "{share}");
    }

    #[test]
    fn recorder_nests_and_renames() {
        let mut rec = Recorder::with_capacity(4);
        let root = rec.enter("request", 7);
        rec.time("parse", 7, || std::hint::black_box(1 + 1));
        let solve = rec.enter("solve", 7);
        rec.exit(solve);
        rec.rename(solve, "solve.word.implied".to_owned());
        rec.exit(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].name, "solve.word.implied");
        assert!(spans.iter().all(|s| s.request == 7 && s.end >= s.start));
        assert!(spans[0].end >= spans[2].end);
        let own = self_times(spans);
        let total = spans[0].end - spans[0].start;
        assert_eq!(own.iter().sum::<u64>(), total);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let spans = vec![span("request", 0, 10, None), span("parse", 1, 2, Some(0))];
        let text = to_jsonl(&spans, &self_times(&spans));
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains(r#""parent":0"#));
        assert!(text.contains(r#""parent":null"#));
    }
}
