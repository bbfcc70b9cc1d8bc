//! In-memory span recording around the benchmark's calls into each layer.
//!
//! Spans live in a vector until the run ends, then leave as Chrome
//! trace-event JSON (opens in Perfetto or `chrome://tracing`). Each span
//! records its name, start, end, parent span and the work item ("cell")
//! it belongs to. A disabled tracer runs the wrapped call and nothing
//! else: no clock reads, no allocation.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One span; `end_ns` equals `start_ns` until the span closes.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `oclsim.estimate`.
    pub name: &'static str,
    /// The work item the span belongs to.
    pub cell: usize,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate: how often a span ran, its total and its self time
/// (the span minus the part its children cover).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: usize,
    /// Summed span time in milliseconds.
    pub total_ms: f64,
    /// Summed self time in milliseconds.
    pub self_ms: f64,
}

/// The recorder. Shared by reference; single-threaded by design (the
/// benchmark drives the pipeline from one thread).
pub struct Tracer {
    enabled: Cell<bool>,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that starts disabled.
    pub fn new() -> Self {
        Tracer {
            enabled: Cell::new(false),
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Runs `f` inside a span named `name` for work item `cell`.
    pub fn span<T>(&self, name: &'static str, cell: usize, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            let now = self.now_ns();
            spans.push(Span {
                name,
                cell,
                start_ns: now,
                end_ns: now,
                parent,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let e = out.entry(s.name).or_insert(LayerTime {
                count: 0,
                total_ms: 0.0,
                self_ms: 0.0,
            });
            e.count += 1;
            e.total_ms += s.duration_ns() as f64 / 1e6;
            e.self_ms += s.duration_ns().saturating_sub(child_ns[i]) as f64 / 1e6;
        }
        out
    }

    /// The spans as a Chrome trace-event document (complete events,
    /// microsecond timestamps); span ids, parents and cells ride in `args`.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.borrow();
        let events: Vec<String> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let cat = s.name.split('.').next().unwrap_or(s.name);
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"cell\":{}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.duration_ns() as f64 / 1e3,
                    s.cell
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert_eq!(t.span("a.b", 0, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.span("outer.x", 1, || {
            t.span("inner.y", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner.y", 1, || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let layers = t.layer_times();
        let outer = &layers["outer.x"];
        let inner = &layers["inner.y"];
        assert_eq!((outer.count, inner.count), (1, 2));
        assert!(inner.total_ms >= 2.0);
        assert!((outer.self_ms - (outer.total_ms - inner.total_ms)).abs() < 1e-6);
        assert_eq!(t.durations_ms("inner.y").len(), 2);
    }

    #[test]
    fn chrome_json_parses_and_carries_parents() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.span("a.outer", 3, || t.span("b.inner", 3, || ()));
        let doc = lift::lift_tuner::json::Value::parse(&t.chrome_json()).unwrap();
        let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        let inner = &events[1];
        assert_eq!(inner.get("ph").and_then(|v| v.as_str()), Some("X"));
        let args = inner.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(args.get("cell").and_then(|v| v.as_u64()), Some(3));
    }
}
