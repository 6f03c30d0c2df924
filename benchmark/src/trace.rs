//! Spans around the calls into each layer.
//!
//! The benchmark records a span at every call it makes into a layer:
//! name, start, end, the span that caused it, and (for folded spans) how
//! many calls it stands for. Spans live in a buffer allocated before the
//! measured region and are written out when the workload ends. A layer's
//! self time is its span minus the part its children cover.
//!
//! A [`Tracer`] that is off records nothing, so the workloads that drive
//! the engine themselves run one loop for both the untraced and the
//! traced run.

use crate::json::Value;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer's buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

const NO_PARENT: u32 = u32::MAX;

/// One recorded call (or folded group of calls) into a layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `engine.step`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that was open when this one began.
    pub parent: Option<SpanId>,
    /// Calls this span stands for (1 unless folded).
    pub calls: u32,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer with room for `capacity` spans, so the measured
    /// region does not reallocate.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            on: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().map(|&p| SpanId(p));
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            calls: 1,
        });
        SpanId(id)
    }

    /// Close `id`, which must be the innermost open span.
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        self.end_folded(id, 1);
    }

    /// Close `id` as one span standing for `calls` calls.
    #[inline]
    pub fn end_folded(&mut self, id: SpanId, calls: usize) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end_ns;
        span.calls = u32::try_from(calls).unwrap_or(u32::MAX);
    }

    /// Every span recorded so far, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span to `path`. `rep` identifies the
    /// repetition the spans belong to and is repeated on every line.
    pub fn write_jsonl(&self, path: &Path, rep: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Value::obj([
                ("id", Value::from(id as u64)),
                (
                    "parent",
                    s.parent
                        .map_or(Value::Null, |p| Value::from(u64::from(p.0))),
                ),
                ("rep", Value::from(rep)),
                ("name", Value::from(s.name)),
                ("start_ns", Value::from(s.start_ns)),
                ("end_ns", Value::from(s.end_ns)),
                ("calls", Value::from(u64::from(s.calls))),
            ]);
            writeln!(out, "{}", line.compact())?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children. Children of one parent never overlap (one thread,
/// innermost-first closing), so the subtraction cannot go negative;
/// `saturating_sub` only guards against clock granularity.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(SpanId(p)) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// What one span name added up to over a traced run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameTotal {
    /// Spans recorded under the name.
    pub spans: u64,
    /// Calls those spans stand for.
    pub calls: u64,
    /// Summed self time, in seconds.
    pub self_s: f64,
    /// Duration of each span, in seconds, in record order.
    pub durations_s: Vec<f64>,
}

/// Totals of the spans called `name` (all zero when there are none).
pub fn total_of(spans: &[Span], self_ns: &[u64], name: &str) -> NameTotal {
    let mut t = NameTotal::default();
    for (s, own) in spans.iter().zip(self_ns) {
        if s.name == name {
            t.spans += 1;
            t.calls += u64::from(s.calls);
            t.self_s += *own as f64 * 1e-9;
            t.durations_s.push(s.duration_ns() as f64 * 1e-9);
        }
    }
    t
}

/// Summed self time, in seconds, of every span that has a parent: the
/// time spent inside calls into a layer, the root span's own time (the
/// benchmark's loop, or the library runner's additions) left out.
pub fn nested_self_s(spans: &[Span], self_ns: &[u64]) -> f64 {
    spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.parent.is_some())
        .map(|(_, own)| *own as f64 * 1e-9)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: parent.map(SpanId),
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 holds a 10..40 (which holds c 15..25) and b 50..90.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("c", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        let own = self_times_ns(&spans);
        // root loses its two direct children (30 + 40) but not the
        // grandchild, which a already paid for.
        assert_eq!(own, vec![30, 20, 10, 40]);
        assert_eq!(
            own.iter().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn tracer_links_parents_and_folds_calls() {
        let mut tr = Tracer::with_capacity(4);
        let root = tr.begin("workload.measure");
        let gen = tr.begin("traffic.gen");
        let fold = tr.begin("engine.generate");
        tr.end_folded(fold, 37);
        tr.end(gen);
        let step = tr.begin("engine.step");
        tr.end(step);
        tr.end(root);
        let s = tr.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[2].parent, Some(gen));
        assert_eq!(s[3].parent, Some(root));
        assert_eq!(s[2].calls, 37);
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        let own = self_times_ns(s);
        assert_eq!(own.iter().sum::<u64>(), s[0].duration_ns());
        let gen_total = total_of(s, &own, "engine.generate");
        assert_eq!((gen_total.spans, gen_total.calls), (1, 37));
        let nested = nested_self_s(s, &own);
        assert!((nested - (own[1] + own[2] + own[3]) as f64 * 1e-9).abs() < 1e-15);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut tr = Tracer::off();
        let a = tr.begin("engine.step");
        tr.end_folded(a, 5);
        assert!(!tr.is_on());
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn trace_file_has_one_parseable_object_per_span() {
        let mut tr = Tracer::with_capacity(2);
        let root = tr.begin("workload.measure");
        let step = tr.begin("engine.step");
        tr.end(step);
        tr.end(root);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace-unit-test.jsonl");
        tr.write_jsonl(&path, "unit-s1").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<Value> = text.lines().map(|l| Value::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Value::Null));
        assert_eq!(lines[1].get("parent").and_then(Value::as_u64), Some(0));
        assert_eq!(
            lines[1].get("name").and_then(Value::as_str),
            Some("engine.step")
        );
        assert_eq!(lines[1].get("rep").and_then(Value::as_str), Some("unit-s1"));
        std::fs::remove_file(path).ok();
    }
}
