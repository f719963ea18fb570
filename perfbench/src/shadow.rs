//! The shadow replay: a benchmark-owned `Session` with the engine's
//! builder settings repeats, call for call, the public calls the engine
//! and the viewers made during a wire run, each inside a span.
//!
//! The replay models the engine's serving policy (one walk per pane per
//! stop generation, a full ship on first subscription, one structural
//! diff per pane per generation shared by every in-sync viewer, and a
//! delta only when it is smaller than the full plot). Its books must
//! equal the engine's `ServeStats` exactly; `main` checks that, so a
//! policy change in `vserve` that the replay does not follow fails the
//! run instead of silently mis-attributing time.

use std::collections::BTreeMap;

use ksim::workload::build;
use vbridge::TargetStats;
use vgraph::Graph;
use visualinux::proto::VCommand;
use visualinux::PlotStats;

use crate::measure::SpanLog;
use crate::wire::{attach_session, workload_config};
use crate::{Books, Pane, Spec};

/// Time and count of one kind of call.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallTime {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds spent in them.
    pub ns: u64,
}

/// What the replay measured.
pub struct Shadow {
    /// Books over the whole run, set-up included.
    pub books: Books,
    /// Per call name, over the timed window's triggers only.
    pub window: BTreeMap<&'static str, CallTime>,
    /// Target counters of the window's walks.
    pub window_target: TargetStats,
    /// Every call as a span.
    pub spans: SpanLog,
    /// Each viewer's graphs after the last trigger, per pane.
    pub final_graphs: Vec<Vec<Graph>>,
}

/// A subscription: the generation of the graph the viewer holds and the
/// sequence of the last payload it was shipped.
#[derive(Clone, Copy)]
struct Sub {
    generation: u64,
    seq: u64,
}

/// A viewer of the replay: its subscription and graph per pane.
struct Viewer {
    subs: Vec<Option<Sub>>,
    graphs: Vec<Option<Graph>>,
}

impl Viewer {
    fn new(panes: usize) -> Viewer {
        Viewer {
            subs: vec![None; panes],
            graphs: vec![None; panes],
        }
    }
}

/// One generation's memoized extraction of a pane.
struct Memo {
    graph: Graph,
    stats: PlotStats,
    full: String,
    /// `(base generation, seq, payload)` of the delta computed from it.
    delta: Option<(u64, u64, String)>,
}

struct Replay<'a> {
    panes: &'a [Pane],
    session: visualinux::Session,
    generation: u64,
    memo: Vec<Option<Memo>>,
    /// The previous generation's graph per pane, the base of its deltas.
    prev: Vec<Option<(u64, Graph)>>,
    books: Books,
    log: SpanLog,
    trigger: u32,
    root: Option<usize>,
    /// First trigger whose calls count toward the window.
    window_from: u32,
    window: BTreeMap<&'static str, CallTime>,
    window_target: TargetStats,
}

impl Replay<'_> {
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.log.open(name, self.root, self.trigger);
        let out = f(self);
        self.log.close(id);
        if self.trigger >= self.window_from {
            let s = self.log.spans()[id];
            let c = self.window.entry(name).or_default();
            c.calls += 1;
            c.ns += s.end_ns - s.start_ns;
        }
        out
    }

    /// The engine's handling of one `vplot_request` for pane `p` from a
    /// viewer holding `sub`; returns the payload shipped.
    fn plot(&mut self, p: usize, sub: &mut Option<Sub>) -> String {
        let pane = &self.panes[p];
        self.timed("proto.decode_request", |_| {
            VCommand::from_json(&pane.request)
        })
        .expect("the request parses");
        self.books.plot_requests += 1;
        if self.memo[p].is_some() {
            self.books.coalesced += 1;
        } else {
            self.walk(p);
        }
        let generation = self.generation;
        let Some(held) = *sub else {
            // A new subscription adopts a copy of the graph as a
            // server-side pane, the copy included as the engine makes it.
            self.timed("core.adopt_graph", |r| {
                let m = r.memo[p].as_ref().expect("walked");
                let (graph, stats) = (m.graph.clone(), m.stats);
                r.session.adopt_graph(graph, Some(stats))
            })
            .expect("the pane adopts");
            let full = self.memo[p].as_ref().expect("walked").full.clone();
            *sub = Some(Sub { generation, seq: 0 });
            return self.ship_full(full);
        };
        let next_seq = held.seq + 1;
        let cached = self.memo[p]
            .as_ref()
            .and_then(|m| m.delta.as_ref())
            .filter(|(base, seq, _)| *base == held.generation && *seq == next_seq)
            .map(|(_, _, payload)| payload.clone());
        let payload = match cached {
            Some(payload) => payload,
            None => {
                let (base_gen, base) = self.prev[p].take().expect("a previous generation");
                assert_eq!(base_gen, held.generation, "viewers stay in lockstep");
                let current = self.memo[p].take().expect("walked");
                let delta =
                    self.timed("vgraph.diff", |_| vgraph::diff::diff(&base, &current.graph));
                let payload = self.timed("proto.encode_delta", |_| {
                    VCommand::VplotDelta {
                        source: pane.source.clone(),
                        seq: next_seq,
                        delta,
                    }
                    .to_json()
                });
                self.prev[p] = Some((base_gen, base));
                self.memo[p] = Some(Memo {
                    delta: Some((held.generation, next_seq, payload.clone())),
                    ..current
                });
                payload
            }
        };
        let full_len = self.memo[p].as_ref().expect("walked").full.len();
        if payload.len() < full_len {
            *sub = Some(Sub {
                generation,
                seq: next_seq,
            });
            self.books.deltas += 1;
            self.books.delta_bytes += payload.len() as u64;
            payload
        } else {
            let full = self.memo[p].as_ref().expect("walked").full.clone();
            *sub = Some(Sub { generation, seq: 0 });
            self.ship_full(full)
        }
    }

    fn ship_full(&mut self, full: String) -> String {
        self.books.fulls += 1;
        self.books.full_bytes += full.len() as u64;
        full
    }

    /// One engine walk of pane `p`: parse, extract, and the full plot
    /// the engine serializes on every walk.
    fn walk(&mut self, p: usize) {
        let source = &self.panes[p].source;
        self.timed("viewcl.parse", |_| viewcl::parse_program(source))
            .expect("the pane parses");
        let (graph, stats) = self
            .timed("core.extract", |r| r.session.extract(source))
            .expect("the pane extracts");
        self.books.walks += 1;
        self.books.walk_packets += stats.target.reads;
        self.books.walk_virtual_ns += stats.target.virtual_ns;
        self.books.walk_cache_hits += stats.target.cache_hits;
        if self.trigger >= self.window_from {
            let t = &mut self.window_target;
            t.reads += stats.target.reads;
            t.cache_hits += stats.target.cache_hits;
            t.cache_misses += stats.target.cache_misses;
            t.vincr_hits += stats.target.vincr_hits;
            t.vincr_rewalks += stats.target.vincr_rewalks;
        }
        let full = self.timed("proto.encode_full", |_| {
            VCommand::Vplot {
                graph: graph.clone(),
                source: source.clone(),
            }
            .to_json()
        });
        self.memo[p] = Some(Memo {
            graph,
            stats,
            full,
            delta: None,
        });
    }

    fn stop(&mut self, roots: &ksim::workload::WorkloadRoots, step: u64) {
        self.timed("core.stop_event", |r| {
            r.session
                .stop_event(|img| {
                    ksim::tick::tick(img, roots, step);
                })
                .expect("a live session takes stop events")
        });
        self.books.stops += 1;
        self.generation += 1;
        for p in 0..self.panes.len() {
            let old = self.generation - 1;
            self.prev[p] = self.memo[p].take().map(|m| (old, m.graph));
        }
    }

    /// A viewer applying one plot reply.
    fn apply(&mut self, held: &mut Option<Graph>, payload: &str) {
        let cmd = self
            .timed("proto.decode_reply", |_| VCommand::from_json(payload))
            .expect("the reply parses");
        match cmd {
            VCommand::Vplot { graph, .. } => *held = Some(graph),
            VCommand::VplotDelta { delta, .. } => {
                let base = held.take().expect("a delta follows a full plot");
                let next = self
                    .timed("vgraph.apply", |_| vgraph::diff::apply(&base, &delta))
                    .expect("the delta applies");
                *held = Some(next);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    /// The engine decoding one viewer's acks for every pane.
    fn acks(&mut self, subs: &[Option<Sub>]) {
        for (p, sub) in subs.iter().enumerate() {
            let ack = VCommand::Vack {
                source: self.panes[p].source.clone(),
                seq: sub.expect("subscribed").seq,
                proto: visualinux::proto::VERSION,
            }
            .to_json();
            self.timed("proto.decode_request", |_| VCommand::from_json(&ack))
                .expect("the ack parses");
            self.books.acks += 1;
        }
    }

    /// One exchange: every viewer requests every pane, applies the
    /// replies, and acks.
    fn exchange(&mut self, viewers: &mut [Viewer]) {
        for p in 0..self.panes.len() {
            for v in viewers.iter_mut() {
                let payload = self.plot(p, &mut v.subs[p]);
                self.apply(&mut v.graphs[p], &payload);
            }
        }
        for v in viewers.iter() {
            self.acks(&v.subs);
        }
    }
}

/// Replay a run of `triggers` triggers (warm-up included) whose timed
/// window starts at trigger `window_from`.
pub fn replay(spec: &Spec, panes: &[Pane], seed: u64, triggers: u32, window_from: u32) -> Shadow {
    let mut r = Replay {
        panes,
        session: attach_session(seed, spec.incremental),
        generation: 0,
        memo: panes.iter().map(|_| None).collect(),
        prev: panes.iter().map(|_| None).collect(),
        books: Books::default(),
        log: SpanLog::new(),
        trigger: 0,
        root: None,
        window_from,
        window: BTreeMap::new(),
        window_target: TargetStats::default(),
    };
    let (_, _, roots) = build(&workload_config(seed)).finish();
    let fresh = || -> Vec<Viewer> {
        (0..spec.viewers)
            .map(|_| Viewer::new(panes.len()))
            .collect()
    };
    let mut viewers = fresh();
    for n in 0..=triggers {
        r.trigger = n;
        r.root = Some(r.log.open("shadow.trigger", None, n));
        if n > 0 {
            if spec.stops {
                r.stop(&roots, u64::from(n));
            } else {
                viewers = fresh();
            }
        }
        r.exchange(&mut viewers);
        let root = r.root.expect("opened above");
        r.log.close(root);
    }
    Shadow {
        books: r.books,
        window: r.window,
        window_target: r.window_target,
        spans: r.log,
        final_graphs: viewers
            .into_iter()
            .map(|v| {
                v.graphs
                    .into_iter()
                    .map(|g| g.expect("every pane applied"))
                    .collect()
            })
            .collect(),
    }
}
