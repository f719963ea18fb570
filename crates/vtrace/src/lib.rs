//! vtrace — span-based extraction tracing over the bridge's meter.
//!
//! Table 4 reports end-of-run aggregates; this crate decomposes them.
//! Every pipeline stage (parse → interp → distiller walk → ViewQL →
//! render) opens a [`TraceSpan`]. The bridge counts every wire packet,
//! cache hit and fault into one [`Meter`]; a traced target counts into
//! its [`Tracer`]'s, so the spans and the target's stats read the same
//! counts. Spans carry *inclusive* counters measured as deltas of the
//! meter's monotone [`Counters`], so the per-span exclusive ("own")
//! costs telescope: summed over any well-formed tree they equal the
//! root's inclusive totals **exactly**, in integer nanoseconds — which
//! is the reconciliation invariant the test suite pins against
//! `TargetStats`.
//!
//! The meter only ever advances when the bridge counts an event; its
//! time is *virtual*, deterministic across runs.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use serde_json::{Map, Number, Value};

/// Shared diagnostic formatting, so every layer of the stack renders
/// source positions the same way.
pub mod diag {
    /// The canonical byte-position phrase: `at byte N`. The ViewQL and
    /// ViewCL parsers (and anything else that reports a source offset)
    /// render through this one helper instead of hand-rolling formats.
    pub fn at_byte(pos: usize) -> String {
        format!("at byte {pos}")
    }

    /// Render `prefix` + position + message in the canonical shape:
    /// `"{prefix} at byte {pos}: {msg}"`.
    pub fn parse_error(prefix: &str, pos: usize, msg: &str) -> String {
        format!("{prefix} {}: {msg}", at_byte(pos))
    }
}

/// Cap on retained finished top-level spans, so a long session that
/// never drains them (e.g. a bench loop) cannot grow without bound.
const MAX_FINISHED: usize = 256;

/// What pipeline stage a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A pane's whole recorded history (synthetic root).
    Pane,
    /// One `vplot` extraction end to end.
    Extract,
    /// ViewCL parsing.
    Parse,
    /// ViewCL interpretation (contains the distiller spans).
    Interp,
    /// One distiller invocation (List/RBTree/XArray/… walk).
    Distill,
    /// Footprint replay: fetching, before a walk, the blocks the same
    /// pane's last walk used.
    Prefetch,
    /// Incremental refresh: the dirty-set intersection that decides
    /// whether a retained pane is kept or re-walked.
    Incr,
    /// Re-evaluating the views of the boxes of a retained pane whose
    /// reads changed, instead of walking the pane (contains distiller
    /// spans).
    Patch,
    /// One ViewQL program applied to a pane.
    Query,
    /// One ViewQL clause (statement).
    Clause,
    /// Rendering a pane (text/DOT/SVG).
    Render,
    /// A vcheck invariant sweep.
    Check,
    /// One request serviced by the vserve pane server.
    Serve,
    /// Anything else.
    Other,
}

impl SpanKind {
    /// Stable lowercase name (Chrome trace category, table rows).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Pane => "pane",
            SpanKind::Extract => "extract",
            SpanKind::Parse => "parse",
            SpanKind::Interp => "interp",
            SpanKind::Distill => "distill",
            SpanKind::Prefetch => "prefetch",
            SpanKind::Incr => "incr",
            SpanKind::Patch => "patch",
            SpanKind::Query => "query",
            SpanKind::Clause => "clause",
            SpanKind::Render => "render",
            SpanKind::Check => "check",
            SpanKind::Serve => "serve",
            SpanKind::Other => "other",
        }
    }
}

/// Cumulative totals of everything the bridge counted, as a [`Meter`]
/// reports them. Span counters are deltas of two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Wire packets (one per metered read request / block fetch).
    pub packets: u64,
    /// Wire bytes.
    pub bytes: u64,
    /// Virtual nanoseconds of wire latency.
    pub virtual_ns: u64,
    /// Reads served from the snapshot block cache.
    pub cache_hits: u64,
    /// Faulting accesses (unmapped memory).
    pub faults: u64,
}

impl Counters {
    /// Component-wise difference (`self` must be the later snapshot).
    pub fn since(self, earlier: Counters) -> Counters {
        Counters {
            packets: self.packets - earlier.packets,
            bytes: self.bytes - earlier.bytes,
            virtual_ns: self.virtual_ns - earlier.virtual_ns,
            cache_hits: self.cache_hits - earlier.cache_hits,
            faults: self.faults - earlier.faults,
        }
    }

    /// Component-wise sum.
    pub fn plus(self, other: Counters) -> Counters {
        Counters {
            packets: self.packets + other.packets,
            bytes: self.bytes + other.bytes,
            virtual_ns: self.virtual_ns + other.virtual_ns,
            cache_hits: self.cache_hits + other.cache_hits,
            faults: self.faults + other.faults,
        }
    }
}

/// One node of the span tree. Counters are *inclusive* (cover the
/// children); [`TraceSpan::own`] gives the exclusive share.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Human label (`"List(&init_task.tasks)"`, `"viewcl::parse"`, …).
    pub name: String,
    /// Pipeline stage.
    pub kind: SpanKind,
    /// Clock value (virtual ns) when the span opened.
    pub start_ns: u64,
    /// Clock value when the span closed.
    pub end_ns: u64,
    /// Wire packets sent while the span was open (inclusive).
    pub packets: u64,
    /// Wire bytes (inclusive).
    pub bytes: u64,
    /// Cache hits (inclusive).
    pub cache_hits: u64,
    /// Faulting accesses (inclusive).
    pub faults: u64,
    /// Nested spans, in open order.
    pub children: Vec<TraceSpan>,
}

impl TraceSpan {
    /// A zero-cost span pinned at one clock instant (used as a synthetic
    /// container, e.g. the per-pane root).
    pub fn synthetic(kind: SpanKind, name: impl Into<String>, at_ns: u64) -> TraceSpan {
        TraceSpan {
            name: name.into(),
            kind,
            start_ns: at_ns,
            end_ns: at_ns,
            packets: 0,
            bytes: 0,
            cache_hits: 0,
            faults: 0,
            children: Vec::new(),
        }
    }

    /// Adopt `child`, stretching this span to contain it and folding the
    /// child's inclusive counters into this span's.
    pub fn absorb(&mut self, child: TraceSpan) {
        self.start_ns = self.start_ns.min(child.start_ns);
        self.end_ns = self.end_ns.max(child.end_ns);
        self.packets += child.packets;
        self.bytes += child.bytes;
        self.cache_hits += child.cache_hits;
        self.faults += child.faults;
        self.children.push(child);
    }

    /// Inclusive virtual duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Inclusive counters as a [`Counters`] (virtual_ns = duration).
    pub fn totals(&self) -> Counters {
        Counters {
            packets: self.packets,
            bytes: self.bytes,
            virtual_ns: self.duration_ns(),
            cache_hits: self.cache_hits,
            faults: self.faults,
        }
    }

    /// Exclusive counters: inclusive minus the children's inclusive.
    /// Summed over every span of a tree these telescope back to the
    /// root's [`TraceSpan::totals`] exactly.
    pub fn own(&self) -> Counters {
        let kids = self
            .children
            .iter()
            .fold(Counters::default(), |acc, c| acc.plus(c.totals()));
        self.totals().since(kids)
    }

    /// Every span of the subtree, preorder (self first).
    pub fn flatten(&self) -> Vec<&TraceSpan> {
        let mut out = vec![self];
        for c in &self.children {
            out.extend(c.flatten());
        }
        out
    }

    /// Sum of [`TraceSpan::own`] over the whole subtree. By construction
    /// equals [`TraceSpan::totals`]; the property suite asserts it.
    pub fn leaf_totals(&self) -> Counters {
        self.flatten()
            .iter()
            .fold(Counters::default(), |acc, s| acc.plus(s.own()))
    }

    /// Structural well-formedness: children lie inside the parent's
    /// interval, appear in monotone start order, and no counter of a
    /// parent is smaller than the sum over its children. Returns the
    /// first violation as text.
    pub fn check_well_formed(&self) -> std::result::Result<(), String> {
        if self.start_ns > self.end_ns {
            return Err(format!("span `{}` ends before it starts", self.name));
        }
        let mut prev_start = self.start_ns;
        let mut kids = Counters::default();
        for c in &self.children {
            if c.start_ns < self.start_ns || c.end_ns > self.end_ns {
                return Err(format!(
                    "child `{}` [{}, {}] escapes parent `{}` [{}, {}]",
                    c.name, c.start_ns, c.end_ns, self.name, self.start_ns, self.end_ns
                ));
            }
            if c.start_ns < prev_start {
                return Err(format!("child `{}` starts before its sibling", c.name));
            }
            prev_start = c.start_ns;
            kids = kids.plus(c.totals());
            c.check_well_formed()?;
        }
        let tot = self.totals();
        if kids.packets > tot.packets
            || kids.bytes > tot.bytes
            || kids.virtual_ns > tot.virtual_ns
            || kids.cache_hits > tot.cache_hits
            || kids.faults > tot.faults
        {
            return Err(format!("children of `{}` exceed the parent", self.name));
        }
        Ok(())
    }
}

/// The bridge's counters: packets, bytes, virtual ns, cache hits and
/// faults. Interior-mutable, so metering (`&Target`) counts through a
/// shared reference. A [`Tracer`] owns one and reads it at each span's
/// open and close; an untraced bridge target keeps its own.
#[derive(Debug, Default)]
pub struct Meter {
    counts: Cell<Counters>,
}

impl Meter {
    /// Snapshot of the counts so far.
    pub fn now(&self) -> Counters {
        self.counts.get()
    }

    /// One wire packet of `len` bytes costing `ns` of virtual time.
    pub fn packet(&self, len: u64, ns: u64) {
        self.counts.update(|c| Counters {
            packets: c.packets + 1,
            bytes: c.bytes + len,
            virtual_ns: c.virtual_ns + ns,
            ..c
        });
    }

    /// A read served from the snapshot block cache (no packet).
    pub fn cache_hit(&self) {
        self.counts.update(|c| Counters {
            cache_hits: c.cache_hits + 1,
            ..c
        });
    }

    /// An access faulted on unmapped memory.
    pub fn fault(&self) {
        self.counts.update(|c| Counters {
            faults: c.faults + 1,
            ..c
        });
    }
}

#[derive(Debug)]
struct OpenSpan {
    name: String,
    kind: SpanKind,
    opened_at: Counters,
    children: Vec<TraceSpan>,
}

#[derive(Debug, Default)]
struct Inner {
    stack: Vec<OpenSpan>,
    finished: Vec<TraceSpan>,
}

/// The session-wide trace collector. Shared as `Rc<Tracer>` between the
/// session, its bridge targets and the interpreters: the targets count
/// into its [`Meter`], and its spans read it.
#[derive(Debug, Default)]
pub struct Tracer {
    meter: Meter,
    inner: RefCell<Inner>,
}

impl Tracer {
    /// A tracer with no spans and a zero meter.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Open a span; it closes at the matching [`Tracer::end`].
    pub fn begin(&self, kind: SpanKind, name: impl Into<String>) {
        self.inner.borrow_mut().stack.push(OpenSpan {
            name: name.into(),
            kind,
            opened_at: self.meter.now(),
            children: Vec::new(),
        });
    }

    /// Close the innermost open span. A no-op when none is open.
    pub fn end(&self) {
        let mut inner = self.inner.borrow_mut();
        let Some(open) = inner.stack.pop() else {
            return;
        };
        let now = self.meter.now();
        let delta = now.since(open.opened_at);
        let span = TraceSpan {
            name: open.name,
            kind: open.kind,
            start_ns: open.opened_at.virtual_ns,
            end_ns: now.virtual_ns,
            packets: delta.packets,
            bytes: delta.bytes,
            cache_hits: delta.cache_hits,
            faults: delta.faults,
            children: open.children,
        };
        match inner.stack.last_mut() {
            Some(parent) => parent.children.push(span),
            None => {
                if inner.finished.len() == MAX_FINISHED {
                    inner.finished.remove(0);
                }
                inner.finished.push(span);
            }
        }
    }

    /// Depth of the open-span stack.
    pub fn depth(&self) -> usize {
        self.inner.borrow().stack.len()
    }

    /// The meter the bridge counts into.
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// Snapshot of the meter: the clock every span reads.
    pub fn clock(&self) -> Counters {
        self.meter.now()
    }

    /// Drain every finished top-level span, oldest first.
    pub fn take_finished(&self) -> Vec<TraceSpan> {
        std::mem::take(&mut self.inner.borrow_mut().finished)
    }

    /// Pop the most recently finished top-level span.
    pub fn take_last_finished(&self) -> Option<TraceSpan> {
        self.inner.borrow_mut().finished.pop()
    }
}

/// RAII guard closing its span on drop (error paths included).
/// [`span`] builds one; with no tracer it is free.
#[derive(Debug)]
pub struct SpanHandle {
    tracer: Option<Rc<Tracer>>,
}

impl Drop for SpanHandle {
    fn drop(&mut self) {
        if let Some(t) = &self.tracer {
            t.end();
        }
    }
}

/// Open a span on `tracer` (when present) for the enclosing scope.
pub fn span(tracer: Option<&Rc<Tracer>>, kind: SpanKind, name: impl Into<String>) -> SpanHandle {
    span_with(tracer, kind, || name.into())
}

/// [`span`] with a name built only when a tracer is attached, for
/// labels that cost a `format!` on untraced hot paths.
pub fn span_with(
    tracer: Option<&Rc<Tracer>>,
    kind: SpanKind,
    name: impl FnOnce() -> String,
) -> SpanHandle {
    if let Some(t) = tracer {
        t.begin(kind, name());
    }
    SpanHandle {
        tracer: tracer.cloned(),
    }
}

// ------------------------------------------------------- chrome export --

fn num(n: u64) -> Value {
    Value::Number(Number::from_u64(n))
}

fn us(ns: u64) -> Value {
    Value::Number(Number::from_f64(ns as f64 / 1e3))
}

fn span_events(span: &TraceSpan, tid: u64, out: &mut Vec<Value>) {
    let own = span.own();
    let mut args = Map::new();
    args.insert("packets".into(), num(span.packets));
    args.insert("bytes".into(), num(span.bytes));
    args.insert("cache_hits".into(), num(span.cache_hits));
    args.insert("faults".into(), num(span.faults));
    args.insert("own_packets".into(), num(own.packets));
    args.insert("own_bytes".into(), num(own.bytes));
    let mut ev = Map::new();
    ev.insert("name".into(), Value::String(span.name.clone()));
    ev.insert("cat".into(), Value::String(span.kind.as_str().into()));
    ev.insert("ph".into(), Value::String("X".into()));
    ev.insert("ts".into(), us(span.start_ns));
    ev.insert("dur".into(), us(span.duration_ns()));
    ev.insert("pid".into(), num(1));
    ev.insert("tid".into(), num(tid));
    ev.insert("args".into(), Value::Object(args));
    out.push(Value::Object(ev));
    for c in &span.children {
        span_events(c, tid, out);
    }
}

/// Serialize span trees as Chrome `trace_event` JSON (`chrome://tracing`
/// / Perfetto "complete" events, one tid per root). Timestamps are
/// virtual microseconds.
pub fn chrome_trace<'a>(roots: impl IntoIterator<Item = (u64, &'a TraceSpan)>) -> String {
    chrome_trace_with_backend(None, roots)
}

/// [`chrome_trace`] plus an `otherData.backend` tag naming the wire
/// backend the trace was collected over (sim/record/replay).
pub fn chrome_trace_with_backend<'a>(
    backend: Option<&str>,
    roots: impl IntoIterator<Item = (u64, &'a TraceSpan)>,
) -> String {
    let mut events = Vec::new();
    for (tid, root) in roots {
        span_events(root, tid, &mut events);
    }
    let mut top = Map::new();
    top.insert("traceEvents".into(), Value::Array(events));
    top.insert("displayTimeUnit".into(), Value::String("ms".into()));
    let mut other = Map::new();
    if let Some(b) = backend {
        other.insert("backend".into(), Value::String(b.into()));
    }
    if !other.is_empty() {
        top.insert("otherData".into(), Value::Object(other));
    }
    serde_json::to_string(&Value::Object(top)).expect("trace serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(t: &Tracer, len: u64, ns: u64) {
        t.meter().packet(len, ns);
    }

    #[test]
    fn spans_nest_and_counters_telescope() {
        let t = Rc::new(Tracer::new());
        t.begin(SpanKind::Extract, "extract");
        tick(&t, 8, 100); // own of extract (before any child)
        t.begin(SpanKind::Parse, "parse");
        t.end();
        t.begin(SpanKind::Interp, "interp");
        tick(&t, 16, 200);
        t.begin(SpanKind::Distill, "List(&init_task.tasks)");
        tick(&t, 32, 300);
        t.meter().cache_hit();
        t.end();
        tick(&t, 4, 50);
        t.end();
        t.end();
        let root = t.take_last_finished().unwrap();
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.packets, 4);
        assert_eq!(root.bytes, 60);
        assert_eq!(root.duration_ns(), 650);
        assert_eq!(root.cache_hits, 1);
        // Parse saw nothing; interp includes the distiller.
        let parse = &root.children[0];
        assert_eq!(parse.totals(), Counters::default());
        let interp = &root.children[1];
        assert_eq!(interp.packets, 3);
        assert_eq!(interp.own().packets, 2);
        // Telescoping: own-sums equal the inclusive root totals.
        assert_eq!(root.leaf_totals(), root.totals());
        root.check_well_formed().unwrap();
    }

    #[test]
    fn end_without_begin_is_a_noop() {
        let t = Tracer::new();
        t.end();
        assert_eq!(t.depth(), 0);
        assert!(t.take_finished().is_empty());
    }

    #[test]
    fn span_handle_closes_on_drop_even_on_unwind_paths() {
        let t = Rc::new(Tracer::new());
        fn failing_stage(t: &Rc<Tracer>) -> Result<(), ()> {
            let _root = span(Some(t), SpanKind::Extract, "extract");
            let _child = span(Some(t), SpanKind::Parse, "parse");
            Err(())
        }
        assert!(failing_stage(&t).is_err());
        assert_eq!(t.depth(), 0, "guards unwound the stack");
        let root = t.take_last_finished().unwrap();
        assert_eq!(root.children.len(), 1);
    }

    #[test]
    fn the_meter_counts_each_event_into_its_own_fields() {
        let m = Meter::default();
        m.packet(8, 100);
        m.packet(16, 50);
        m.cache_hit();
        m.fault();
        let want = Counters {
            packets: 2,
            bytes: 24,
            virtual_ns: 150,
            cache_hits: 1,
            faults: 1,
        };
        assert_eq!(m.now(), want);
        assert_eq!(m.now().since(want), Counters::default());
    }

    #[test]
    fn a_fault_advances_the_clock_and_the_open_span_but_not_time() {
        let t = Tracer::new();
        tick(&t, 8, 100);
        t.begin(SpanKind::Distill, "List(&bad)");
        t.meter().fault();
        t.end();
        assert_eq!(t.clock().faults, 1);
        assert_eq!(t.clock().packets, 1);
        let span = t.take_last_finished().unwrap();
        assert_eq!(span.faults, 1);
        assert_eq!((span.packets, span.duration_ns()), (0, 0));
    }

    #[test]
    fn synthetic_roots_absorb_children() {
        let mut root = TraceSpan::synthetic(SpanKind::Pane, "pane-0", 500);
        let mut a = TraceSpan::synthetic(SpanKind::Extract, "extract", 100);
        a.end_ns = 400;
        a.packets = 3;
        a.bytes = 24;
        let mut b = TraceSpan::synthetic(SpanKind::Query, "viewql", 600);
        b.end_ns = 700;
        b.faults = 1;
        root.absorb(a);
        root.absorb(b);
        assert_eq!((root.start_ns, root.end_ns), (100, 700));
        assert_eq!(root.packets, 3);
        assert_eq!(root.faults, 1);
        root.check_well_formed().unwrap();
        assert_eq!(root.leaf_totals().packets, root.totals().packets);
    }

    #[test]
    fn chrome_trace_emits_complete_events() {
        let t = Rc::new(Tracer::new());
        t.begin(SpanKind::Extract, "extract fig3-4");
        tick(&t, 8, 2_000);
        t.begin(SpanKind::Distill, "List(x)");
        tick(&t, 8, 1_000);
        t.end();
        t.end();
        let root = t.take_last_finished().unwrap();
        let json = chrome_trace([(7u64, &root)]);
        let v: Value = serde_json::from_str(&json).unwrap();
        let evs = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(evs[0].get("tid").unwrap().as_u64(), Some(7));
        assert_eq!(evs[0].get("dur").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            evs[1].get("cat").unwrap().as_str(),
            Some("distill"),
            "{json}"
        );
    }
}
