//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; the simulator itself is not
//! instrumented. A span has a name, a start and an end on one monotonic
//! clock, the span that caused it, and the operation it belongs to. All
//! spans stay in memory until [`Tracer::write_jsonl`] at the end of the
//! run. A disabled tracer records nothing and costs one branch per span.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub op: u64,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total: Duration,
    /// Duration minus the part covered by child spans.
    pub self_time: Duration,
}

/// Single-threaded span recorder (spans are opened on the driving
/// thread only; library calls are timed as a whole from outside).
#[derive(Debug)]
pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    op: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Switch recording on or off (used to time the same loop with and
    /// without spans, which is how tracing overhead is measured).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Tag subsequent spans with operation `op` (the request identifier
    /// spans of one operation share).
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let now = self.origin.elapsed();
            spans.push(Span {
                name,
                parent: self.stack.borrow().last().copied(),
                op: self.op.get(),
                start: now,
                end: now,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.origin.elapsed();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans.borrow();
        let mut child_time = vec![Duration::ZERO; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_time) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total += s.duration();
            t.self_time += s.duration().saturating_sub(children);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        let mut text = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.op,
                s.start.as_nanos(),
                s.end.as_nanos(),
            );
        }
        std::fs::write(path, text).map_err(|e| format!("cannot write '{}': {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_spans_vanish() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || std::thread::sleep(Duration::from_millis(2)));
        });
        t.set_enabled(false);
        t.span("hidden", || ());
        let totals = t.totals();
        assert_eq!(totals.len(), 2);
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert!(inner.total >= Duration::from_millis(2));
        assert_eq!(outer.self_time + inner.total, outer.total);
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
