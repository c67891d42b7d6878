//! Spans recorded from outside the layers.
//!
//! A [`Tracer`] wraps each call the benchmark makes into a layer in a
//! span (name, start, end, parent, op id) kept in memory and written out
//! when the run ends. Hot callbacks the machine invokes many times per
//! simulated second ([`IntervalObserver`], [`ControlHook`]) would drown
//! the span log, so their decorators aggregate a call count and a total
//! time into an [`Agg`] instead.
//!
//! A disabled tracer records nothing, so the end-to-end pass can share
//! the workload code with the traced pass.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

use bench::Stopwatch;
use machine::{ControlHook, IntervalObserver, IntervalRecord, MachineView};
use simcore::{SimTime, SnapshotError, SnapshotReader, SnapshotWriter};

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `simserve.server_ingest`.
    pub name: &'static str,
    /// Operation the span belongs to (one figure, one ingest batch, one
    /// drill, one scenario).
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the tracer was created.
    pub start_s: f64,
    /// End, seconds since the tracer was created.
    pub end_s: f64,
}

impl Span {
    /// Span duration, s.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Call count and total time of a decorated callback.
#[derive(Debug, Default)]
pub struct Agg {
    calls: Cell<u64>,
    total_s: Cell<f64>,
}

impl Agg {
    fn add(&self, dt_s: f64) {
        self.calls.set(self.calls.get() + 1);
        self.total_s.set(self.total_s.get() + dt_s);
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Total time inside the callback, s.
    pub fn total_s(&self) -> f64 {
        self.total_s.get()
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    clock: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
    aggs: BTreeMap<&'static str, Rc<Agg>>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`, and nothing otherwise.
    // simlint: allow(P1) — the span clock is host time by design
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            clock: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
            aggs: BTreeMap::new(),
        }
    }

    /// True when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` for operation `op`. Spans
    /// opened inside `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_s: self.clock.elapsed_s(),
            end_s: 0.0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_s = self.clock.elapsed_s();
        if let Some(span) = self.spans.get_mut(idx) {
            span.end_s = end_s;
        }
        out
    }

    /// The aggregate named `name`, created on first use.
    pub fn agg(&mut self, name: &'static str) -> Rc<Agg> {
        self.aggs.entry(name).or_default().clone()
    }

    /// Wraps an interval observer so its calls count into `name` when
    /// tracing; returns it unchanged otherwise.
    pub fn observer(
        &mut self,
        name: &'static str,
        inner: Box<dyn IntervalObserver>,
    ) -> Box<dyn IntervalObserver> {
        if !self.enabled {
            return inner;
        }
        Box::new(TimedObserver {
            inner,
            agg: self.agg(name),
        })
    }

    /// Wraps a control hook so its ticks count into `name` when tracing;
    /// returns it unchanged otherwise.
    pub fn hook(
        &mut self,
        name: &'static str,
        inner: Box<dyn ControlHook>,
    ) -> Box<dyn ControlHook> {
        if !self.enabled {
            return inner;
        }
        Box::new(TimedHook {
            inner,
            agg: self.agg(name),
        })
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every aggregate, by name.
    pub fn aggs(&self) -> &BTreeMap<&'static str, Rc<Agg>> {
        &self.aggs
    }

    /// Spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Total duration of spans named `name`, s.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .sum()
    }

    /// The span log as JSON lines, followed by one line per aggregate.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}\n",
                s.name, s.op, s.start_s, s.end_s
            ));
        }
        for (name, agg) in &self.aggs {
            out.push_str(&format!(
                "{{\"agg\":\"{name}\",\"calls\":{},\"total_s\":{}}}\n",
                agg.calls(),
                agg.total_s()
            ));
        }
        out
    }
}

/// Self time per span name: each span's duration minus the durations of
/// its direct children, summed over spans of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_s = vec![0.0; spans.len()];
    for s in spans {
        if let Some(slot) = s.parent.and_then(|p| child_s.get_mut(p)) {
            *slot += s.duration_s();
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_s) {
        *out.entry(s.name).or_insert(0.0) += s.duration_s() - children;
    }
    out
}

/// Times each interval an observer receives.
struct TimedObserver {
    inner: Box<dyn IntervalObserver>,
    agg: Rc<Agg>,
}

impl IntervalObserver for TimedObserver {
    // simlint: allow(P1) — times the wrapped observer, which sees the same records
    fn on_interval(&mut self, rec: &IntervalRecord<'_>) {
        let sw = Stopwatch::start();
        self.inner.on_interval(rec);
        self.agg.add(sw.elapsed_s());
    }
}

/// Times each tick of a control hook; snapshot calls pass straight
/// through so a decorated rig freezes exactly like a plain one.
struct TimedHook {
    inner: Box<dyn ControlHook>,
    agg: Rc<Agg>,
}

impl ControlHook for TimedHook {
    // simlint: allow(P1) — times the wrapped hook, which sees the same view
    fn on_tick(&mut self, now: SimTime, view: &mut MachineView<'_>) {
        let sw = Stopwatch::start();
        self.inner.on_tick(now, view);
        self.agg.add(sw.elapsed_s());
    }

    fn freeze(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        self.inner.freeze(w)
    }

    fn thaw(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.inner.thaw(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("round", None, 0.0, 10.0),
            span("ingest", Some(0), 1.0, 4.0),
            span("freeze", Some(1), 2.0, 3.0),
            span("ingest", Some(0), 5.0, 6.0),
            span("other", None, 20.0, 21.5),
        ];
        let t = self_times(&spans);
        assert!((t["round"] - 6.0).abs() < 1e-12, "{t:?}");
        assert!((t["ingest"] - 3.0).abs() < 1e-12, "{t:?}");
        assert!((t["freeze"] - 1.0).abs() < 1e-12, "{t:?}");
        assert!((t["other"] - 1.5).abs() < 1e-12, "{t:?}");
    }

    #[test]
    fn tracer_nests_spans_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", 7, |t| t.span("inner", 7, |_| 41) + 1);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent, s[1].op), ("inner", Some(0), 7));
        assert!(s[0].start_s <= s[1].start_s && s[1].end_s <= s[0].end_s);
        assert_eq!(t.jsonl().lines().count(), 2);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 0, |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
