//! The wire phase: one live `vserve` engine behind a `WirePump`, driven
//! closed-loop by viewers that all live on the calling thread.

use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ksim::workload::{build, WorkloadConfig, WorkloadRoots};
use vbridge::{CacheConfig, LatencyProfile};
use visualinux::proto::VResponse;
use visualinux::Session;
use vserve::{
    byte_pair, PumpHandle, Replica, ReplicaEvent, ServeConfig, ServeStats, Server, ServerHandle,
    SingleSession, WireClient, WireConfig, WirePump, WireStats,
};

use crate::measure::{current_tid, thread_schedstat, SchedStat, SpanLog};
use crate::{Pane, Spec};

/// How long a viewer waits for one reply before the exchange counts as
/// failed.
const RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// Chunks a viewer's in-process byte channel buffers per direction.
const CHANNEL_DEPTH: usize = 64;

/// Builder settings shared by the engine and the shadow replay: the
/// KGDB rpi-400 link, the default block cache, the interpreter, and
/// vincr when the workload asks for it.
pub fn attach_session(seed: u64, incremental: bool) -> Session {
    let builder = Session::builder(build(&workload_config(seed)))
        .profile(LatencyProfile::kgdb_rpi400())
        .cache(CacheConfig::default());
    let builder = if incremental {
        builder.incremental()
    } else {
        builder
    };
    builder.attach().expect("the generated image attaches")
}

/// The kernel image the workload seed generates.
pub fn workload_config(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        seed,
        ..WorkloadConfig::default()
    }
}

/// Operations attempted and failed, by kind of failure.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Exchanges, handshakes, stop events and checks attempted.
    pub attempted: u64,
    /// `VResponse::Err` replies.
    pub err_replies: u64,
    /// `Replica` out-of-sync or protocol errors, and replies of the
    /// wrong kind.
    pub replica_errors: u64,
    /// Handshakes, sends and receives that failed: timeouts, closed
    /// streams, framing errors.
    pub wire_failures: u64,
    /// Output and book checks that failed.
    pub check_failures: u64,
}

impl Tally {
    /// All failed operations.
    pub fn failed(&self) -> u64 {
        self.err_replies + self.replica_errors + self.wire_failures + self.check_failures
    }

    /// Record one check; a failing one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.check_failures += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.err_replies += o.err_replies;
        self.replica_errors += o.replica_errors;
        self.wire_failures += o.wire_failures;
        self.check_failures += o.check_failures;
    }
}

/// What the viewers saw, booked the way `ServeStats`/`WireStats` book
/// the same traffic, so the two can be reconciled exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClientBooks {
    /// Connections opened (each a binary handshake).
    pub connections: u64,
    /// `vplot_request` frames sent.
    pub plot_requests: u64,
    /// `vack` frames sent.
    pub acks: u64,
    /// Full plots applied.
    pub fulls: u64,
    /// Deltas applied.
    pub deltas: u64,
    /// Payload bytes of the full plots.
    pub full_bytes: u64,
    /// Payload bytes of the deltas.
    pub delta_bytes: u64,
    /// Reply frames received.
    pub frames_in: u64,
}

/// A running engine and pump.
struct Rig {
    /// Stop events and shutdown.
    handle: ServerHandle,
    pump: PumpHandle,
    engine: JoinHandle<ServeStats>,
    pump_thread: JoinHandle<WireStats>,
    /// Kernel thread id of the engine.
    engine_tid: Option<u32>,
    /// Kernel thread id of the pump.
    pump_tid: Option<u32>,
    /// What `ksim::tick` needs to mutate the engine's image.
    roots: WorkloadRoots,
}

impl Rig {
    /// Build the image, attach the engine's session, and start the
    /// engine and pump threads.
    fn start(seed: u64, incremental: bool) -> Rig {
        let (tx, rx) = mpsc::channel();
        let engine = thread::spawn(move || {
            let session = attach_session(seed, incremental);
            let mut server = Server::new(
                session,
                ServeConfig {
                    exit_when_idle: false,
                    ..ServeConfig::default()
                },
            );
            tx.send((server.handle(), current_tid()))
                .expect("the load generator waits for the engine");
            server.run();
            server.stats()
        });
        let (handle, engine_tid) = rx.recv().expect("the engine starts");
        let pump = WirePump::new(
            Box::new(SingleSession::new(handle.clone())),
            WireConfig::default(),
        );
        let pump_handle = pump.handle();
        let (tx, rx) = mpsc::channel();
        let pump_thread = thread::spawn(move || {
            tx.send(current_tid())
                .expect("the load generator waits for the pump");
            pump.run()
        });
        let pump_tid = rx.recv().expect("the pump starts");
        // The workload build is deterministic, so a fresh build holds the
        // same addresses the engine's image does.
        let (_, _, roots) = build(&workload_config(seed)).finish();
        Rig {
            handle,
            pump: pump_handle,
            engine,
            pump_thread,
            engine_tid,
            pump_tid,
            roots,
        }
    }

    /// Open a binary-framed viewer over a fresh in-process channel.
    fn connect(&self) -> Result<Viewer, String> {
        let (ours, theirs) = byte_pair(CHANNEL_DEPTH);
        self.pump
            .add(Box::new(theirs))
            .map_err(|e| format!("pump refused a connection: {e}"))?;
        let client =
            WireClient::binary(Box::new(ours)).map_err(|e| format!("handshake failed: {e}"))?;
        Ok(Viewer {
            client,
            replica: Replica::new(),
        })
    }

    /// Scheduler accounting of the engine and pump threads.
    fn schedstats(&self) -> (Option<SchedStat>, Option<SchedStat>) {
        (
            self.engine_tid.and_then(thread_schedstat),
            self.pump_tid.and_then(thread_schedstat),
        )
    }

    /// Shut down once every viewer is gone; returns the books.
    fn stop(self) -> (ServeStats, WireStats) {
        self.pump.shutdown();
        let wire = self.pump_thread.join().expect("the pump thread panicked");
        self.handle.shutdown();
        let serve = self.engine.join().expect("the engine thread panicked");
        (serve, wire)
    }
}

/// One viewer: a wire client and the replica its replies update.
struct Viewer {
    client: WireClient,
    /// Every pane the viewer holds.
    replica: Replica,
}

/// The closed loop's client side: sends, receives, applies and books
/// everything, optionally inside spans.
struct LoadGen<'a> {
    panes: &'a [Pane],
    /// Client-side books.
    books: ClientBooks,
    /// Operations attempted and failed.
    tally: Tally,
    /// Spans, when this is the traced run.
    spans: Option<SpanLog>,
    trigger: u32,
    phase: Option<usize>,
}

impl<'a> LoadGen<'a> {
    /// A load for `panes`; `traced` records spans.
    fn new(panes: &'a [Pane], traced: bool) -> LoadGen<'a> {
        LoadGen {
            panes,
            books: ClientBooks::default(),
            tally: Tally::default(),
            spans: traced.then(SpanLog::new),
            trigger: 0,
            phase: None,
        }
    }

    /// Run `f` inside a span named `name` under the current phase.
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(log) = self.spans.as_mut() else {
            return f();
        };
        let id = log.open(name, self.phase, self.trigger);
        let out = f();
        self.spans.as_mut().expect("checked above").close(id);
        out
    }

    /// Start trigger `n` (0 is set-up); returns its root span.
    fn begin_trigger(&mut self, n: u32) -> Option<usize> {
        self.trigger = n;
        let root = self.spans.as_mut().map(|l| l.open("trigger", None, n));
        self.phase = root;
        root
    }

    /// Open a phase span under the trigger's root.
    fn begin_phase(&mut self, root: Option<usize>, name: &'static str) -> Option<usize> {
        let trigger = self.trigger;
        self.phase = self.spans.as_mut().map(|l| l.open(name, root, trigger));
        self.phase
    }

    fn end_span(&mut self, id: Option<usize>) {
        if let (Some(log), Some(id)) = (self.spans.as_mut(), id) {
            log.close(id);
        }
    }

    /// Close trigger `root`.
    fn end_trigger(&mut self, root: Option<usize>) {
        self.end_span(root);
        self.phase = None;
    }

    /// Connect `n` viewers (timed as `vserve.connect`).
    fn connect(&mut self, rig: &Rig, n: usize) -> Option<Vec<Viewer>> {
        let mut viewers = Vec::with_capacity(n);
        for _ in 0..n {
            self.tally.attempted += 1;
            match self.timed("vserve.connect", || rig.connect()) {
                Ok(v) => {
                    self.books.connections += 1;
                    viewers.push(v);
                }
                Err(e) => {
                    self.tally.wire_failures += 1;
                    eprintln!("perfbench: {e}");
                    return None;
                }
            }
        }
        Some(viewers)
    }

    /// Queue a stop event that runs `ksim::tick` with `step`.
    fn stop(&mut self, rig: &Rig, step: u64) -> bool {
        self.tally.attempted += 1;
        let roots = rig.roots.clone();
        let queued = self.timed("vserve.stop_event", || {
            rig.handle.stop_event(move |img| {
                ksim::tick::tick(img, &roots, step);
            })
        });
        if let Err(e) = queued {
            self.tally.err_replies += 1;
            eprintln!("perfbench: stop event refused: {e}");
            return false;
        }
        true
    }

    /// One refresh: every pane's request on every connection, then the
    /// replies read alternating between connections. Returns when every
    /// pane of every viewer is current, with the plot-reply bytes.
    ///
    /// With `shipped`, every reply is received before any is applied, and
    /// `shipped` is set to when the last one arrived: the moment every
    /// subscription exists on the engine, before the viewers decode.
    fn refresh(
        &mut self,
        viewers: &mut [Viewer],
        root: Option<usize>,
        shipped: Option<&mut Instant>,
    ) -> Option<u64> {
        let phase = self.begin_phase(root, "refresh");
        let panes = self.panes;
        for v in viewers.iter_mut() {
            for p in panes {
                self.books.plot_requests += 1;
                if !self.send(v, &p.request) {
                    return None;
                }
            }
        }
        let mut held = Vec::new();
        let mut bytes = 0;
        for p in panes {
            for (i, v) in viewers.iter_mut().enumerate() {
                let line = self.recv(v)?;
                bytes += line.len() as u64;
                if shipped.is_some() {
                    held.push((i, p, line));
                } else {
                    self.apply_plot(v, p, &line)?;
                }
            }
        }
        if let Some(at) = shipped {
            *at = Instant::now();
            for (i, p, line) in held {
                self.apply_plot(&mut viewers[i], p, &line)?;
            }
        }
        self.end_span(phase);
        self.phase = root;
        Some(bytes)
    }

    /// Apply pane `p`'s plot reply and book it.
    fn apply_plot(&mut self, v: &mut Viewer, p: &Pane, line: &str) -> Option<()> {
        match self.apply(v, line)? {
            ReplicaEvent::Full { source } if source == p.source => {
                self.books.fulls += 1;
                self.books.full_bytes += line.len() as u64;
            }
            ReplicaEvent::Delta { source, .. } if source == p.source => {
                self.books.deltas += 1;
                self.books.delta_bytes += line.len() as u64;
            }
            ReplicaEvent::Response(VResponse::Err { message }) => {
                self.tally.err_replies += 1;
                eprintln!("perfbench: `{}` answered with an error: {message}", p.id);
                return None;
            }
            other => {
                self.tally.replica_errors += 1;
                eprintln!("perfbench: `{}` answered with {other:?}", p.id);
                return None;
            }
        }
        Some(())
    }

    /// Acknowledge every pane on every viewer and wait for the answers.
    fn ack(&mut self, viewers: &mut [Viewer], root: Option<usize>) -> bool {
        let phase = self.begin_phase(root, "ack");
        let panes = self.panes;
        for v in viewers.iter_mut() {
            for p in panes {
                let Some(ack) = v.replica.ack(&p.source) else {
                    self.tally.replica_errors += 1;
                    eprintln!("perfbench: no replica state to ack for `{}`", p.id);
                    return false;
                };
                self.books.acks += 1;
                if !self.send(v, &ack.to_json()) {
                    return false;
                }
            }
        }
        for p in panes {
            for v in viewers.iter_mut() {
                let Some(line) = self.recv(v) else {
                    return false;
                };
                match self.apply(v, &line) {
                    Some(ReplicaEvent::Response(VResponse::Ok { .. })) => {}
                    Some(ReplicaEvent::Response(VResponse::Err { message })) => {
                        self.tally.err_replies += 1;
                        eprintln!("perfbench: ack of `{}` refused: {message}", p.id);
                        return false;
                    }
                    Some(other) => {
                        self.tally.replica_errors += 1;
                        eprintln!("perfbench: ack of `{}` answered with {other:?}", p.id);
                        return false;
                    }
                    None => return false,
                }
            }
        }
        self.end_span(phase);
        self.phase = root;
        true
    }

    fn send(&mut self, v: &mut Viewer, payload: &str) -> bool {
        self.tally.attempted += 1;
        match self.timed("vserve.send", || v.client.send_payload(payload)) {
            Ok(()) => true,
            Err(e) => {
                self.tally.wire_failures += 1;
                eprintln!("perfbench: send failed: {e}");
                false
            }
        }
    }

    fn recv(&mut self, v: &mut Viewer) -> Option<String> {
        let deadline = Instant::now() + RECV_TIMEOUT;
        match self.timed("vserve.recv", || v.client.recv_deadline(deadline)) {
            Ok(Some(line)) => {
                self.books.frames_in += 1;
                Some(line)
            }
            Ok(None) => {
                self.tally.wire_failures += 1;
                eprintln!("perfbench: the engine closed a viewer's stream");
                None
            }
            Err(e) => {
                self.tally.wire_failures += 1;
                eprintln!("perfbench: recv failed: {e}");
                None
            }
        }
    }

    fn apply(&mut self, v: &mut Viewer, line: &str) -> Option<ReplicaEvent> {
        match self.timed("vserve.apply_line", || v.replica.apply_line(line)) {
            Ok(event) => Some(event),
            Err(e) => {
                self.tally.replica_errors += 1;
                eprintln!("perfbench: replica error: {e}");
                None
            }
        }
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;

/// Scheduler accounting over the timed window.
#[derive(Debug, Clone, Copy)]
pub struct Threads {
    /// The engine thread.
    pub engine: SchedStat,
    /// The pump thread.
    pub pump: SchedStat,
    /// The load-generator thread (every viewer).
    pub viewers: SchedStat,
}

/// Everything one wire run measured and booked.
pub struct WireRun {
    /// Each set-up's duration, seconds.
    pub setup_s: Vec<f64>,
    /// Refresh latency of each timed trigger, milliseconds.
    pub refresh_ms: Vec<f64>,
    /// Wall time of each timed trigger, acks included, seconds.
    pub cycle_s: Vec<f64>,
    /// Wall time of the timed window, seconds.
    pub window_s: f64,
    /// Plot replies applied in the timed window.
    pub window_plots: u64,
    /// The last engine's books (it set up and then ran every trigger).
    pub serve: ServeStats,
    /// The last pump's books.
    pub wire: WireStats,
    /// The viewers' books of that engine's set-up.
    pub setup_books: ClientBooks,
    /// Plot-reply bytes of each trigger after set-up.
    pub trigger_bytes: Vec<u64>,
    /// The replicas of the viewers connected at the end.
    pub replicas: Vec<Replica>,
    /// Operations attempted and failed over every set-up and trigger.
    pub tally: Tally,
    /// Scheduler accounting over the window, where the kernel has it.
    pub threads: Option<Threads>,
    /// Spans of the last engine's traffic, when traced.
    pub spans: Option<SpanLog>,
}

/// Check one engine's books against themselves and the viewers'.
fn check_books(serve: &ServeStats, wire: &WireStats, books: &ClientBooks, tally: &mut Tally) {
    tally.check(serve.reconcile().is_ok(), || {
        format!("ServeStats::reconcile: {:?}", serve.reconcile())
    });
    tally.check(wire.reconcile().is_ok(), || {
        format!("WireStats::reconcile: {:?}", wire.reconcile())
    });
    let pairs = [
        ("plot requests", serve.plot_requests, books.plot_requests),
        ("acks", serve.acks, books.acks),
        ("requests", serve.requests, books.plot_requests + books.acks),
        ("full plots", serve.fulls_sent, books.fulls),
        ("deltas", serve.deltas_sent, books.deltas),
        ("full bytes", serve.full_bytes_sent, books.full_bytes),
        ("delta bytes", serve.delta_bytes_sent, books.delta_bytes),
        ("error replies", serve.errors, 0),
        (
            "frames admitted",
            wire.frames_in,
            books.plot_requests + books.acks,
        ),
        ("frames answered", wire.frames_out, books.frames_in),
        ("binary handshakes", wire.hello_binary, books.connections),
        ("lanes accepted", wire.accepted, books.connections),
        ("decode errors", wire.decode_errors, 0),
    ];
    for (what, engine, viewers) in pairs {
        tally.check(engine == viewers, || {
            format!("engine booked {engine} {what}, the viewers {viewers}")
        });
    }
}

/// Scheduler accounting of the engine, pump and calling threads.
fn sample_threads(rig: &Rig, me: Option<u32>) -> Option<Threads> {
    let (engine, pump) = rig.schedstats();
    Some(Threads {
        engine: engine?,
        pump: pump?,
        viewers: thread_schedstat(me?)?,
    })
}

/// Run `spec` over the wire: [`SETUPS`] set-ups (all but the last torn
/// down again), then the spec's untimed warm-up and `timed` timed
/// triggers on the last engine. Returns `None` after a failed exchange;
/// the tally in `failed` says why.
pub fn run(
    spec: &Spec,
    panes: &[Pane],
    seed: u64,
    timed: u32,
    traced: bool,
    failed: &mut Tally,
) -> Option<WireRun> {
    let warmup = spec.warmup;
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let me = current_tid();
    let (rig, mut load, mut viewers, setup_books) = loop {
        let last = setup_s.len() + 1 == SETUPS;
        let start = Instant::now();
        let mut shipped = start;
        let rig = Rig::start(seed, spec.incremental);
        let mut load = LoadGen::new(panes, traced && last);
        let root = load.begin_trigger(0);
        let viewers = load.connect(&rig, spec.viewers).and_then(|mut viewers| {
            let subscribed = load.refresh(&mut viewers, root, Some(&mut shipped));
            (subscribed.is_some() && load.ack(&mut viewers, root)).then_some(viewers)
        });
        load.end_trigger(root);
        setup_s.push((shipped - start).as_secs_f64());
        let Some(viewers) = viewers else {
            tally.absorb(&load.tally);
            failed.absorb(&tally);
            return None;
        };
        if last {
            let books = load.books;
            break (rig, load, viewers, books);
        }
        drop(viewers);
        let (serve, wire) = rig.stop();
        tally.absorb(&load.tally);
        check_books(&serve, &wire, &load.books, &mut tally);
    };
    if !spec.stops {
        // Attach: the set-up viewers only warmed the memo.
        viewers.clear();
    }

    let mut refresh_ms = Vec::with_capacity(timed as usize);
    let mut cycle_s = Vec::with_capacity(timed as usize);
    let mut trigger_bytes = Vec::with_capacity((warmup + timed) as usize);
    let mut window = None;
    let mut ok = true;
    for n in 1..=warmup + timed {
        if n == warmup + 1 {
            window = Some((Instant::now(), sample_threads(&rig, me)));
        }
        let root = load.begin_trigger(n);
        let start = Instant::now();
        let bytes = if spec.stops {
            load.stop(&rig, u64::from(n)).then_some(())
        } else {
            load.connect(&rig, spec.viewers).map(|v| viewers = v)
        }
        .and_then(|()| load.refresh(&mut viewers, root, None));
        let refreshed = start.elapsed();
        ok = bytes.is_some() && load.ack(&mut viewers, root);
        if !spec.stops && n < warmup + timed {
            // Attach viewers disconnect when done; the last pair stays
            // for the output check.
            viewers.clear();
        }
        load.end_trigger(root);
        if !ok {
            break;
        }
        trigger_bytes.extend(bytes);
        if n > warmup {
            refresh_ms.push(refreshed.as_secs_f64() * 1e3);
            cycle_s.push(start.elapsed().as_secs_f64());
        }
    }
    let (window_start, threads_before) = window.unwrap_or((Instant::now(), None));
    let window_s = window_start.elapsed().as_secs_f64();
    let threads = threads_before
        .zip(sample_threads(&rig, me))
        .map(|(a, b)| Threads {
            engine: b.engine.since(a.engine),
            pump: b.pump.since(a.pump),
            viewers: b.viewers.since(a.viewers),
        });
    tally.absorb(&load.tally);
    if !ok {
        // The engine may be wedged, so its threads are not joined: the
        // process exits on failure.
        failed.absorb(&tally);
        return None;
    }
    let replicas = viewers.into_iter().map(|v| v.replica).collect();
    let (serve, wire) = rig.stop();
    check_books(&serve, &wire, &load.books, &mut tally);
    Some(WireRun {
        setup_s,
        refresh_ms,
        cycle_s,
        window_s,
        window_plots: u64::from(timed) * (panes.len() * spec.viewers) as u64,
        serve,
        wire,
        setup_books,
        trigger_bytes,
        replicas,
        tally,
        threads,
        spans: load.spans,
    })
}
