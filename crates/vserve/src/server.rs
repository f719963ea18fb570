//! The pane-server engine: one `Session`, many clients.
//!
//! [`visualinux::Session`] is deliberately single-threaded (it holds
//! `Rc`/`RefCell` state for tracing), so the engine runs on the thread
//! that owns the [`Server`] and everything that crosses threads is a
//! queue handle: clients hold a [`Connection`] (Send) whose `send` pushes
//! into the shared bounded request queue and whose `recv` pops a
//! per-client bounded outbox. Both directions exert real backpressure —
//! a full request queue blocks producers, a slow client eventually
//! blocks the engine on that client's outbox instead of buffering
//! without bound.
//!
//! Identical concurrent extraction requests coalesce: the first
//! `vplot_request` for a ViewCL program in a given stop pays the bridge
//! walk, every further one (from any client, until the next stop event)
//! is served from the memoized result. Per subscription (client, source)
//! the server remembers the last graph it shipped, until the client
//! departs, and sends a [`vgraph::diff`] delta when that is smaller. The
//! step from the previous generation's record is diffed and encoded once,
//! into the record, for every client that holds that record.
//!
//! A fleet (`vfleet`) extends the memo across engines: join a
//! [`ShareGroup`] with [`Server::share_extractions`] and the engine
//! consults it before walking and publishes the record it walks. It
//! also journals its session ([`SessionOp`]): every stop and, on a
//! replay session, every extraction served; a live session's graphs
//! depend on its image alone. Ops not applied yet (a shared hit whose
//! tape span the cursor could not jump, and all that follows it) are
//! re-enacted in order before the next local walk, so the tape sees
//! walks and resume marks as recorded. A respawned engine is handed the
//! whole journal, all of it owed ([`Server::preload`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ksim::image::KernelImage;
use vbridge::BackendKind;
use visualinux::proto::{vplot_delta_json, vplot_json, vplot_json_len, Json, VCommand, VResponse};
use visualinux::Session;
use vtrace::SpanKind;

use crate::framing::MAX_FRAME;
use crate::queue::{Bounded, TryPush, Wake};
use crate::shared::{ShareGroup, SharedPlot};
use crate::stats::ServeStats;
use crate::ServeError;

/// How long the engine idles before it rings a wire pump still holding
/// its replies ([`Connection::set_waker`]). A pump's own sweeps usually
/// collect them first (`WireConfig::idle_sleep`, 200 µs by default); the
/// ring bounds the wait behind a pump that parks longer.
const RING_AFTER: std::time::Duration = std::time::Duration::from_millis(1);

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Capacity of the shared request queue.
    pub request_queue: usize,
    /// Capacity of each client's outbound queue.
    pub client_queue: usize,
    /// When true, [`Server::run`] returns after the last client
    /// disconnects (instead of waiting for an explicit shutdown).
    pub exit_when_idle: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            request_queue: 64,
            client_queue: 16,
            exit_when_idle: true,
        }
    }
}

/// A stop's image mutation. `FnMut`, so a recorded stop can be applied
/// again by a respawned engine.
type Mutate = Box<dyn FnMut(&mut KernelImage) + Send>;

/// One operation of a fleet session's journal, re-enacted in order by
/// an engine that owes it (see the module docs).
pub enum SessionOp {
    /// A stop event. A replay session consumes its resume mark and
    /// never calls the mutation: the tape holds the recorded kernel's
    /// changes.
    Stop(Mutate),
    /// An extraction a replay session served. Re-walking it moves the
    /// tape cursor exactly as the original walk did.
    Plot(Arc<str>),
}

/// A unit of work for the engine.
enum Request {
    /// A protocol line from a client.
    Cmd { client: u64, line: String },
    /// The debugger stopped again: mutate the image, invalidate caches.
    /// `generation` is the fleet's stop-generation key; `None` means
    /// "increment" (standalone servers).
    Stop {
        generation: Option<u64>,
        mutate: Mutate,
    },
    /// A client departed. The marker trails everything that client
    /// queued, so the engine answers those requests *before* dropping
    /// the outbox — late-queued requests are drained, not lost.
    Gone(u64),
}

struct ClientEntry {
    outbox: Arc<Bounded<String>>,
    /// Departed; entry lives on until the engine processes the trailing
    /// [`Request::Gone`] marker (or finishes its final drain).
    gone: bool,
}

/// State shared between the engine thread and all client threads.
struct Shared {
    reqq: Bounded<Request>,
    clients: Mutex<HashMap<u64, ClientEntry>>,
    next_client: AtomicU64,
    active: AtomicUsize,
    shutting_down: AtomicBool,
    client_queue: usize,
    exit_when_idle: bool,
}

impl Shared {
    /// Called when a client disconnects; the last one out closes the
    /// request queue so an idle-exit engine can return.
    fn client_gone(&self, id: u64) {
        {
            let mut clients = self.clients.lock().unwrap();
            match clients.get_mut(&id) {
                Some(e) if !e.gone => e.gone = true,
                _ => return, // unknown, or already departing
            }
        }
        // Ordered departure: a marker queued *behind* the client's own
        // requests lets the engine answer them before the outbox goes.
        // Full queue: blocking here (inside close()/drop) could deadlock
        // against an engine stalled on this very client's outbox — fall
        // back to the immediate drop. Closed queue: the engine's final
        // drain still owns the entry and closes every outbox when done,
        // so already-queued requests are answered, not silently lost.
        match self.reqq.try_push(Request::Gone(id)) {
            Ok(()) | Err(TryPush::Closed(_)) => {}
            Err(TryPush::Full(_)) => {
                if let Some(e) = self.clients.lock().unwrap().remove(&id) {
                    e.outbox.close();
                }
            }
        }
        if self.active.fetch_sub(1, Ordering::SeqCst) == 1 && self.exit_when_idle {
            self.reqq.close();
        }
    }
}

/// A client's endpoint. `Send`: hand it to the thread that talks to the
/// server. Dropping it disconnects.
pub struct Connection {
    id: u64,
    shared: Arc<Shared>,
    outbox: Arc<Bounded<String>>,
}

impl Connection {
    /// Submit a command. A full request queue blocks the call until
    /// there is room (backpressure throttles the producer); it fails
    /// with [`ServeError::Closed`] once the server is shutting down.
    pub fn send(&self, cmd: &VCommand) -> Result<(), ServeError> {
        self.send_frame(cmd.to_json())
    }

    /// Submit an already-serialized protocol frame payload, as
    /// [`Connection::send`] does.
    pub fn send_frame(&self, payload: String) -> Result<(), ServeError> {
        let req = Request::Cmd {
            client: self.id,
            line: payload,
        };
        self.shared.reqq.push(req).map_err(|_| ServeError::Closed)
    }

    /// [`Connection::send_frame`] without waiting: the queue's refusal,
    /// full or closed, hands the payload back, so a wire pump, which
    /// must never park on one client's behalf, can keep it queued
    /// without copying it first.
    pub(crate) fn offer_frame(&self, payload: String) -> Result<(), TryPush<String>> {
        let req = Request::Cmd {
            client: self.id,
            line: payload,
        };
        let line = |req| match req {
            Request::Cmd { line, .. } => line,
            _ => unreachable!("a frame is offered as a command"),
        };
        self.shared.reqq.try_push(req).map_err(|e| match e {
            TryPush::Full(req) => TryPush::Full(line(req)),
            TryPush::Closed(req) => TryPush::Closed(line(req)),
        })
    }

    /// Next reply line; blocks. `None` once the server closed this
    /// client's stream and everything queued has been read.
    pub fn recv(&self) -> Option<String> {
        self.outbox.pop()
    }

    /// Non-blocking variant of [`Connection::recv`].
    pub fn try_recv(&self) -> Option<String> {
        self.outbox.try_pop()
    }

    /// Whether the server has closed this client's reply stream
    /// (shutdown or engine exit). Queued replies may still be readable.
    pub fn is_closed(&self) -> bool {
        self.outbox.is_closed()
    }

    /// This client's id (diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Capacity of this client's reply outbox. A wire pump uses it as
    /// the admission window: with at most `capacity()` frames in flight
    /// per client, the engine's reply push can never block on this
    /// client's outbox.
    pub fn capacity(&self) -> usize {
        self.outbox.capacity()
    }

    /// Unpark `thread` when the server closes this client's outbox, and
    /// when the engine has idled [`RING_AFTER`] with replies still
    /// queued here. The wire pump parks between sweeps and otherwise
    /// collects replies on its own next sweep.
    pub(crate) fn set_waker(&self, thread: std::thread::Thread) {
        self.outbox.set_waker(thread, Wake::OnRing);
    }

    /// Disconnect. Idempotent; also called on drop. Replies to requests
    /// already queued stay readable via [`Connection::recv`].
    pub fn close(&self) {
        self.shared.client_gone(self.id);
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.close();
    }
}

/// A clonable, `Send` handle for connecting clients and controlling the
/// server from other threads.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Register a new client and return its endpoint.
    pub fn connect(&self) -> Connection {
        let id = self.shared.next_client.fetch_add(1, Ordering::SeqCst);
        let outbox = Arc::new(Bounded::new(self.shared.client_queue));
        self.shared.clients.lock().unwrap().insert(
            id,
            ClientEntry {
                outbox: outbox.clone(),
                gone: false,
            },
        );
        self.shared.active.fetch_add(1, Ordering::SeqCst);
        Connection {
            id,
            shared: self.shared.clone(),
            outbox,
        }
    }

    /// Enqueue a stop event: the engine applies `mutate` to the image,
    /// bumps the cache epoch, and invalidates its extraction memo, all
    /// strictly ordered with the surrounding requests.
    pub fn stop_event(
        &self,
        mutate: impl FnMut(&mut KernelImage) + Send + 'static,
    ) -> Result<(), ServeError> {
        self.stop_with(None, mutate)
    }

    /// [`ServerHandle::stop_event`] with an explicit stop-generation key.
    /// A fleet chains tick arguments into the key so engines only share
    /// cached extractions when their mutation histories are identical.
    pub fn stop_event_keyed(
        &self,
        generation: u64,
        mutate: impl FnMut(&mut KernelImage) + Send + 'static,
    ) -> Result<(), ServeError> {
        self.stop_with(Some(generation), mutate)
    }

    fn stop_with(
        &self,
        generation: Option<u64>,
        mutate: impl FnMut(&mut KernelImage) + Send + 'static,
    ) -> Result<(), ServeError> {
        self.shared
            .reqq
            .push(Request::Stop {
                generation,
                mutate: Box::new(mutate),
            })
            .map_err(|_| ServeError::Closed)
    }

    /// Begin graceful shutdown: no new requests are accepted; the engine
    /// finishes what is queued, answers it, then closes every client
    /// stream and returns from [`Server::run`].
    pub fn shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.reqq.close();
    }
}

/// One client's subscription to one source: no pane, freed on departure.
struct SyncState {
    /// Sequence of the last payload shipped (0 = the full ship).
    seq: u64,
    /// The graph the client holds after applying that payload. Shared
    /// with the memo entry it was shipped from, so in-sync clients all
    /// point at the same allocation and lockstep checks are a pointer
    /// compare.
    last: Arc<vgraph::Graph>,
    /// Ship full next time (client acked out of sync).
    resync: bool,
}

/// One source's memoized extraction: the record it serves in the
/// current stop generation — or, until it is served again, in the one
/// that just ended — and the record of the generation before. Holding
/// both is what keeps a record alive in a share group: a stop drops
/// every entry it did not serve, so a record lives exactly while some
/// engine can serve it or step from it.
struct MemoEntry {
    /// The source, as the memo's key holds it.
    src: Arc<str>,
    /// The source as every reply echoes it, escaped once.
    src_json: Json,
    plot: Arc<SharedPlot>,
    /// The previous generation's record: the base of `plot`'s step,
    /// recognized by graph pointer.
    prev: Option<Arc<SharedPlot>>,
    /// Served in the current generation, so requests coalesce on it.
    /// Every stop clears it: a repeated generation key still
    /// invalidates.
    fresh: bool,
}

/// The pane server. Owns the session; `run` is the engine loop.
pub struct Server {
    session: Session,
    shared: Arc<Shared>,
    stats: ServeStats,
    /// Each client's subscriptions by source; a departure drops its map.
    subs: HashMap<u64, HashMap<Arc<str>, SyncState>>,
    /// By source; the key is the one copy of the source the engine's
    /// subscriptions, journal and share group hold.
    memo: HashMap<Arc<str>, MemoEntry>,
    /// The fleet's share group, if joined.
    share: Option<Arc<ShareGroup>>,
    /// Current stop-generation key (fleet-chained or a plain counter).
    generation: u64,
    /// The session's journal, kept only in a share group: only a fleet
    /// respawns engines.
    journal: Vec<SessionOp>,
    /// How many of `journal`'s ops the session has applied; the rest
    /// are owed.
    applied: usize,
    /// Outboxes with a waker that took a reply since the engine last
    /// idled long enough to ring them.
    owed: Vec<Arc<Bounded<String>>>,
}

impl Server {
    /// Wrap an attached session.
    pub fn new(session: Session, cfg: ServeConfig) -> Server {
        Server {
            session,
            shared: Arc::new(Shared {
                reqq: Bounded::new(cfg.request_queue),
                clients: Mutex::new(HashMap::new()),
                next_client: AtomicU64::new(1),
                active: AtomicUsize::new(0),
                shutting_down: AtomicBool::new(false),
                client_queue: cfg.client_queue,
                exit_when_idle: cfg.exit_when_idle,
            }),
            stats: ServeStats::default(),
            subs: HashMap::new(),
            memo: HashMap::new(),
            share: None,
            generation: 0,
            journal: Vec::new(),
            applied: 0,
            owed: Vec::new(),
        }
    }

    /// Join a fleet share group: the engine consults it before walking
    /// and publishes the record it walks. The group holds the records
    /// only while this engine's memo (or a sibling's) does, so leaving
    /// takes nothing but dropping the engine.
    pub fn share_extractions(&mut self, share: Arc<ShareGroup>) {
        self.share = Some(share);
    }

    /// Hand a fresh engine its session's journal (fleet respawn):
    /// `generation` is the current stop-generation key, and every op of
    /// `journal` is owed. They are re-enacted before the first local
    /// walk, so a respawn costs nothing until a request misses the
    /// share group.
    pub fn preload(&mut self, generation: u64, journal: Vec<SessionOp>) {
        assert!(self.journal.is_empty(), "preload must precede serving");
        self.journal = journal;
        self.applied = 0;
        self.generation = generation;
    }

    /// A handle for client threads. Connect at least one client before
    /// calling [`Server::run`] when `exit_when_idle` is set, or the run
    /// may return before anyone got to speak.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: self.shared.clone(),
        }
    }

    /// Serving totals so far.
    pub fn stats(&self) -> ServeStats {
        let mut s = self.stats;
        s.queue_depth_max = s.queue_depth_max.max(self.shared.reqq.high_water() as u64);
        s
    }

    /// The wrapped session, whose panes are those `vplot` pushes made.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Retire the engine and take its session's journal, preloaded
    /// history included: what a respawned successor re-enacts. Empty
    /// for a standalone engine: the journal is kept only once
    /// [`Server::share_extractions`] joined a share group.
    pub fn into_journal(self) -> Vec<SessionOp> {
        self.journal
    }

    /// Journal `op` in a share group. An op the session has not applied
    /// yet is owed, and only a suffix of the journal may be.
    fn record(&mut self, op: SessionOp, applied: bool) {
        if self.share.is_some() {
            debug_assert!(!applied || self.applied == self.journal.len());
            self.journal.push(op);
            self.applied += usize::from(applied);
        }
    }

    /// Whether the session owes journaled ops.
    fn owes(&self) -> bool {
        self.applied < self.journal.len()
    }

    /// The current stop-generation key.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The engine loop: processes requests until shutdown — or, with
    /// `exit_when_idle`, until the last client disconnects. Afterwards
    /// every client stream is closed (graceful: already-queued replies
    /// remain readable).
    pub fn run(&mut self) {
        loop {
            let req = match self.shared.reqq.try_pop() {
                Some(req) => req,
                None => match self.idle() {
                    Some(req) => req,
                    None => break,
                },
            };
            self.handle_request(req);
        }
        for e in self.shared.clients.lock().unwrap().values() {
            e.outbox.close();
        }
    }

    /// Out of queued work: wait for the next request (`None` once the
    /// queue is closed and drained). The engine's replies do not wake a
    /// parked wire pump, which collects them on its own next sweep
    /// (`WireConfig::idle_sleep`); only after [`RING_AFTER`] without a
    /// request does the engine ring each outbox that still holds some
    /// (see [`Connection::set_waker`]). Ringing sooner, per reply or as
    /// soon as the engine runs dry, pins the engine, pump and viewer to
    /// fixed CPUs, and a run's refresh then follows the speed of the one
    /// CPU the engine sits on (DESIGN.md §17).
    fn idle(&mut self) -> Option<Request> {
        if !self.owed.is_empty() {
            if let Some(next) = self.shared.reqq.pop_timeout(RING_AFTER) {
                return next;
            }
            for q in self.owed.drain(..) {
                if !q.is_empty() {
                    q.ring();
                }
            }
        }
        self.shared.reqq.pop()
    }

    fn handle_request(&mut self, req: Request) {
        match req {
            Request::Stop {
                generation,
                mut mutate,
            } => {
                // While the session owes shared-served walks, the stop is
                // owed too: a replay tape must observe walks and resume
                // marks in original order.
                let owed = self.owes();
                if !owed {
                    apply_stop(&mut self.session, &mut mutate);
                }
                self.record(SessionOp::Stop(mutate), !owed);
                self.generation = generation.unwrap_or(self.generation + 1);
                // What the ended generation served becomes the base of
                // the steps into the new one, and the record of the
                // generation before goes. Anything the ended generation
                // did not serve goes.
                self.memo.retain(|_, m| {
                    let served = std::mem::take(&mut m.fresh);
                    if served {
                        m.prev = Some(Arc::clone(&m.plot));
                    }
                    served
                });
                self.stats.stops += 1;
            }
            Request::Gone(id) => {
                // Trails everything the departed client queued: those
                // replies are delivered by now, so the outbox can go, as do
                // the subscriptions of every unregistered client (see
                // `Shared::client_gone`'s fallback, which queues no `Gone`).
                let mut clients = self.shared.clients.lock().unwrap();
                if let Some(e) = clients.remove(&id) {
                    e.outbox.close();
                }
                self.subs.retain(|client, _| clients.contains_key(client));
            }
            Request::Cmd { client, line } => {
                self.stats.requests += 1;
                let reply = match VCommand::from_json(&line) {
                    Err(e) => {
                        self.stats.errors += 1;
                        VResponse::Err {
                            message: format!("unparseable command: {e}"),
                        }
                        .to_json()
                    }
                    Ok(cmd) => {
                        let _sp = vtrace::span_with(self.session.tracer(), SpanKind::Serve, || {
                            format!("serve:{}", tag_of(&cmd))
                        });
                        self.dispatch(client, cmd)
                    }
                };
                self.reply(client, reply);
            }
        }
    }

    fn dispatch(&mut self, client: u64, cmd: VCommand) -> String {
        match cmd {
            VCommand::VplotRequest { viewcl } => {
                self.stats.plot_requests += 1;
                match self.plot(client, &viewcl) {
                    Ok(payload) => payload,
                    Err(message) => {
                        self.stats.errors += 1;
                        VResponse::Err { message }.to_json()
                    }
                }
            }
            VCommand::Vack { source, seq, .. } => {
                self.stats.acks += 1;
                match self
                    .subs
                    .get_mut(&client)
                    .and_then(|s| s.get_mut(source.as_str()))
                {
                    Some(sub) if sub.seq == seq => VResponse::Ok {
                        pane: None,
                        synthesized: None,
                    }
                    .to_json(),
                    Some(sub) => {
                        // The client applied something else than what we
                        // last shipped; re-baseline on its next request.
                        sub.resync = true;
                        self.stats.resyncs += 1;
                        VResponse::Err {
                            message: format!(
                                "ack for seq {seq}, last shipped {}; resyncing",
                                sub.seq
                            ),
                        }
                        .to_json()
                    }
                    None => {
                        self.stats.errors += 1;
                        VResponse::Err {
                            message: format!("ack for unknown plot `{source}`"),
                        }
                        .to_json()
                    }
                }
            }
            other => {
                // Pane ops (vctrl/vchat/vplot-push) go straight to the
                // shared session's dispatcher.
                let resp = visualinux::proto::dispatch(&mut self.session, other);
                if matches!(resp, VResponse::Err { .. }) {
                    self.stats.errors += 1;
                }
                resp.to_json()
            }
        }
    }

    /// The record `src` (escaped as `src_json`) serves in the current
    /// generation: from the fleet's share group when a sibling engine
    /// already walked it, else a walk of the bridge here (catching the
    /// session up on any owed operations first). `last` is what `src`
    /// served before: a pane the session kept keeps its measured length
    /// and payload cell, and one patched from it is measured from it.
    fn materialize(
        &mut self,
        src: &Arc<str>,
        src_json: &Json,
        last: Option<&SharedPlot>,
    ) -> Result<Arc<SharedPlot>, String> {
        let replay = self.session.backend_kind() == BackendKind::Replay;
        if let Some(share) = self.share.clone() {
            if let Some(plot) = share.get(self.generation, src) {
                self.stats.shared_hits += 1;
                // A shared hit leaves the session untouched, but a
                // replay tape must still observe this walk, in order,
                // before any future local walk. When the sibling
                // published the span it consumed and our cursor sits
                // exactly at its start (identical capture, identical
                // history), the cursor just jumps the span. Otherwise —
                // cache-backed sessions, whose block state a skipped
                // walk would leave cold, or ops already owed — the walk
                // is owed and re-enacted later.
                if replay {
                    let skipped = !self.session.cache_enabled()
                        && !self.owes()
                        && plot.tape.is_some_and(|(from, to)| {
                            self.session.replay_state().is_some_and(|st| {
                                st.position() == from && st.skip_events(to - from).is_ok()
                            })
                        });
                    self.stats.tape_skips += u64::from(skipped);
                    self.record(SessionOp::Plot(Arc::clone(src)), skipped);
                }
                return Ok(plot);
            }
        }
        let walked = self.catch_up().and_then(|()| {
            let tape_from = self.session.replay_state().map(|st| st.position());
            let walk = self.session.extract_shared(src);
            walk.map(|walk| (walk, tape_from))
                .map_err(|e| e.to_string())
        });
        let ((graph, pstats), tape_from) = match walked {
            Ok(walked) => walked,
            Err(e) => {
                // A walk that fails publishes nothing: release the claim
                // its miss took, or later lookups of the key wait for it.
                if let Some(share) = &self.share {
                    share.abandon(self.generation, src);
                }
                return Err(e);
            }
        };
        self.stats.walks += 1;
        self.stats.walk_packets += pstats.target.reads;
        self.stats.walk_bytes += pstats.target.bytes;
        self.stats.walk_virtual_ns += pstats.target.virtual_ns;
        self.stats.walk_cache_hits += pstats.target.cache_hits;
        self.stats.walk_faults += pstats.target.faults;
        if replay {
            self.record(SessionOp::Plot(Arc::clone(src)), true);
        }
        // A pane the session kept comes back as the very allocation this
        // source last served, and keeps its measured length and payload
        // cell. Any other graph is measured here and encoded only if a
        // full plot of it ships: one that shares most of its boxes with
        // the last (a patched pane) by the length of the boxes it does
        // not share, else whole.
        let (full_len, full) = match last {
            Some(last) if Arc::ptr_eq(&last.graph, &graph) => {
                (last.full_len, Arc::clone(&last.full))
            }
            _ => {
                let by_change = last.and_then(|last| {
                    let change = graph.json_len_change(&last.graph)?;
                    last.full_len.checked_add_signed(change)
                });
                let len = by_change.unwrap_or_else(|| vplot_json_len(&graph, src_json));
                debug_assert_eq!(len, vplot_json_len(&graph, src_json), "measured exactly");
                (len, Arc::default())
            }
        };
        let plot = Arc::new(SharedPlot {
            graph,
            full_len,
            full,
            tape: tape_from
                .and_then(|from| self.session.replay_state().map(|st| (from, st.position()))),
            step: OnceLock::new(),
        });
        if let Some(share) = &self.share {
            share.publish(self.generation, src, &plot);
        }
        Ok(plot)
    }

    /// Re-enact the owed operations (shared-served walks, deferred
    /// stops) in original order, so a local walk starts from a
    /// consistent tape position. A failed walk counts as applied.
    fn catch_up(&mut self) -> Result<(), String> {
        while let Some(op) = self.journal.get_mut(self.applied) {
            self.applied += 1;
            match op {
                SessionOp::Plot(src) => {
                    self.session
                        .extract_shared(src)
                        .map_err(|e| format!("catch-up walk of `{src}` failed: {e}"))?;
                    self.stats.catchup_walks += 1;
                }
                SessionOp::Stop(mutate) => apply_stop(&mut self.session, mutate),
            }
        }
        Ok(())
    }

    /// Serve one `vplot_request`: memoized extraction, then a full ship
    /// or a delta, whichever is fewer bytes for *this* client. A payload
    /// past [`MAX_FRAME`] is refused with an error: no peer could take
    /// the frame.
    fn plot(&mut self, client: u64, viewcl: &str) -> Result<String, String> {
        // The memo leaves `self` while this request holds its entry, so
        // the walk and the reply, which need the rest of `self`, look
        // the source up no second time.
        let mut memo = std::mem::take(&mut self.memo);
        let reply = self.plot_in(&mut memo, client, viewcl);
        self.memo = memo;
        reply
    }

    /// [`Server::plot`] over the memo taken out of `self`: one lookup,
    /// and an entry from an earlier generation takes its new record in
    /// place.
    fn plot_in(
        &mut self,
        memo: &mut HashMap<Arc<str>, MemoEntry>,
        client: u64,
        viewcl: &str,
    ) -> Result<String, String> {
        if let Some(m) = memo.get_mut(viewcl) {
            if m.fresh {
                self.stats.coalesced += 1;
            } else {
                m.plot = self.materialize(&m.src, &m.src_json, Some(&m.plot))?;
                m.fresh = true;
            }
            return self.ship(client, m);
        }
        let src: Arc<str> = Arc::from(viewcl);
        let src_json = Json::of(viewcl);
        let plot = self.materialize(&src, &src_json, None)?;
        let m = memo.entry(Arc::clone(&src)).or_insert(MemoEntry {
            src,
            src_json,
            plot,
            prev: None,
            fresh: true,
        });
        self.ship(client, m)
    }

    /// Answer `client`'s request for `m`'s source, served in the current
    /// generation: a delta from the graph the client holds, when it has
    /// one and the delta is smaller, else the full plot.
    fn ship(&mut self, client: u64, m: &MemoEntry) -> Result<String, String> {
        self.stats.extractions += 1;
        let plot = &m.plot;
        let subs = self.subs.entry(client).or_default();
        // A first subscription ships full, as a resync does.
        let sub = subs.entry(Arc::clone(&m.src)).or_insert_with(|| SyncState {
            seq: 0,
            last: Arc::clone(&plot.graph),
            resync: true,
        });
        let delta = (!sub.resync).then(|| {
            // The step from the previous record is the same for every
            // client holding that record, here or in a share group's
            // sibling, so the first ship diffs and encodes it into the
            // record and every ship copies it into its own envelope.
            // Shipped graphs are shared allocations, so "holds that
            // record" is a pointer compare. Any other base is diffed for
            // this client alone.
            let seq = sub.seq + 1;
            let mut diff = || {
                self.stats.diffs += 1;
                vgraph::diff::diff(&sub.last, &plot.graph)
            };
            match &m.prev {
                Some(prev) if Arc::ptr_eq(&prev.graph, &sub.last) => {
                    let step = plot.step.get_or_init(|| Json::of(&diff()));
                    vplot_delta_json(step, &m.src_json, seq)
                }
                _ => vplot_delta_json(&diff(), &m.src_json, seq),
            }
        });
        sub.last = Arc::clone(&plot.graph);
        let delta = delta.filter(|d| d.len() < plot.full_len);
        let len = delta.as_ref().map_or(plot.full_len, String::len);
        if len > MAX_FRAME {
            // The client never gets this step, so its next ship is full.
            sub.resync = true;
            self.stats.oversized += 1;
            return Err(format!(
                "a {len}-byte reply exceeds the {MAX_FRAME}-byte frame cap"
            ));
        }
        match delta {
            // Delta sync pays off: ship it.
            Some(d) => {
                sub.seq += 1;
                self.stats.deltas_sent += 1;
                self.stats.delta_bytes_sent += d.len() as u64;
                self.stats.delta_bytes_saved += (plot.full_len - d.len()) as u64;
                Ok(d)
            }
            // Fallback: the delta would cost more than the plot
            // (or the client lost sync) — full ship, seq resets.
            None => {
                sub.seq = 0;
                sub.resync = false;
                Ok(self.ship_full(plot, &m.src_json))
            }
        }
    }

    /// The full `vplot` ship of `plot`, the record of the source `src`
    /// escapes. The first full ship of a record encodes it
    /// (`ServeStats::full_encodes`) into a string sized by its measured
    /// length; every later one, here or in a sibling engine holding the
    /// same cell, copies those bytes.
    fn ship_full(&mut self, plot: &SharedPlot, src: &Json) -> String {
        let mut encoded = false;
        let json = plot.full.get_or_init(|| {
            encoded = true;
            vplot_json(&plot.graph, src, plot.full_len).into()
        });
        debug_assert_eq!(json.len(), plot.full_len, "a measured length is exact");
        let full = json.to_string();
        self.stats.full_encodes += u64::from(encoded);
        self.stats.fulls_sent += 1;
        self.stats.full_bytes_sent += full.len() as u64;
        full
    }

    fn reply(&mut self, client: u64, mut line: String) {
        let outbox = self
            .shared
            .clients
            .lock()
            .unwrap()
            .get(&client)
            .map(|e| (e.outbox.clone(), e.gone));
        let Some((q, mut gone)) = outbox else {
            // Departed: drop what a request it left queued subscribed.
            self.stats.dropped_replies += 1;
            self.subs.remove(&client);
            return;
        };
        // Backpressure: a slow client stalls the engine rather than
        // growing an unbounded buffer — but never block forever on a
        // client that departed (it may drain its remaining replies, yet
        // nothing forces it to), so the wait periodically rechecks the
        // gone flag and a departed client only gets best-effort pushes.
        loop {
            let attempt = if gone {
                q.try_push(line)
            } else {
                q.push_timeout(line, std::time::Duration::from_millis(25))
            };
            match attempt {
                Ok(()) => {
                    self.stats.queue_depth_max =
                        self.stats.queue_depth_max.max(q.high_water() as u64);
                    if q.has_waker() && !self.owed.iter().any(|o| Arc::ptr_eq(o, &q)) {
                        self.owed.push(q);
                    }
                    return;
                }
                Err(TryPush::Closed(_)) => {
                    self.stats.dropped_replies += 1;
                    return;
                }
                Err(TryPush::Full(l)) => {
                    if gone {
                        self.stats.dropped_replies += 1;
                        return;
                    }
                    line = l;
                    gone = self
                        .shared
                        .clients
                        .lock()
                        .unwrap()
                        .get(&client)
                        .is_none_or(|e| e.gone);
                }
            }
        }
    }
}

/// Advance `session` across a stop. A replay session refuses image
/// mutation ([`Session::stop_event`] errors loudly there — the tape
/// already holds the recorded kernel's changes), so the engine advances
/// its cursor with a bare resume instead.
fn apply_stop(session: &mut Session, mutate: &mut Mutate) {
    if session.backend_kind() == BackendKind::Replay {
        session.resume();
    } else {
        session
            .stop_event(mutate)
            .expect("live sessions accept stop events");
    }
}

fn tag_of(cmd: &VCommand) -> &'static str {
    match cmd {
        VCommand::Vplot { .. } => "vplot",
        VCommand::VctrlApply { .. } => "vctrl_apply",
        VCommand::VctrlSplit { .. } => "vctrl_split",
        VCommand::VctrlFocus { .. } => "vctrl_focus",
        VCommand::Vchat { .. } => "vchat",
        VCommand::VplotRequest { .. } => "vplot_request",
        VCommand::VplotDelta { .. } => "vplot_delta",
        VCommand::Vack { .. } => "vack",
        VCommand::Vattach { .. } => "vattach",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    use ksim::workload::{build, WorkloadConfig};
    use vbridge::LatencyProfile;
    use visualinux::figures;
    use visualinux::vpanels::PaneId;

    fn server(cfg: ServeConfig) -> Server {
        let session = Session::builder(build(&WorkloadConfig::default()))
            .profile(LatencyProfile::free())
            .attach()
            .unwrap();
        Server::new(session, cfg)
    }

    fn request(fig: &str) -> VCommand {
        VCommand::VplotRequest {
            viewcl: figures::by_id(fig).unwrap().viewcl.to_string(),
        }
    }

    #[test]
    fn offered_frames_report_backpressure_then_closed() {
        // No engine thread: the queue stays full, so the second offer
        // must be refused as full rather than block.
        let mut server = server(ServeConfig {
            request_queue: 1,
            client_queue: 1,
            exit_when_idle: true,
        });
        let handle = server.handle();
        let conn = handle.connect();
        let ping = request("fig3-4").to_json();
        let offer = || conn.offer_frame(ping.clone());
        offer().expect("first fits");
        // A refused frame is handed back.
        assert!(matches!(offer(), Err(TryPush::Full(p)) if p == ping));
        // A refused offer enqueues nothing: the queue is still full.
        assert!(matches!(offer(), Err(TryPush::Full(p)) if p == ping));
        assert_eq!(server.shared.reqq.len(), 1);

        // Graceful shutdown: queued work is still answered before the
        // engine returns, but nothing new gets in.
        handle.shutdown();
        assert!(matches!(offer(), Err(TryPush::Closed(p)) if p == ping));
        assert!(conn.send(&request("fig3-4")).is_err());
        server.run();
        let reply = conn.recv().expect("queued request was served");
        assert!(reply.contains("vplot"), "{reply}");
        assert_eq!(conn.recv(), None, "stream closed after the drain");

        let stats = server.stats();
        assert_eq!(stats.requests, 1);
        assert!(stats.queue_depth_max >= 1);
        stats.reconcile().expect("books balance");
    }

    #[test]
    fn departed_clients_leave_no_subscription_and_no_pane() {
        let mut server = server(ServeConfig {
            exit_when_idle: false,
            ..ServeConfig::default()
        });
        let handle = server.handle();
        let clients = thread::spawn(move || {
            for _ in 0..10_000 {
                let conn = handle.connect();
                conn.send(&request("fig3-4")).unwrap();
                let reply = conn.recv().expect("a reply");
                assert!(reply.starts_with(r#"{"command":"vplot","#), "{reply:.80}");
            }
            handle.shutdown();
        });
        server.run();
        clients.join().unwrap();
        assert!(server.subs.is_empty());
        assert!(server.session().graph(PaneId(0)).is_err());
        let stats = server.stats();
        stats.reconcile().unwrap();
        assert_eq!(
            (stats.walks, stats.fulls_sent, stats.deltas_sent),
            (1, 10_000, 0)
        );
    }

    #[test]
    fn requests_answered_after_an_unannounced_departure_subscribe_nobody() {
        let mut server = server(ServeConfig {
            request_queue: 2,
            ..ServeConfig::default()
        });
        let handle = server.handle();
        let (a, b) = (handle.connect(), handle.connect());
        b.send(&request("fig3-4")).unwrap();
        a.send(&request("fig7-1")).unwrap();
        // The queue is full, so neither departure can queue its `Gone`:
        // both clients are unregistered at once, with a request queued.
        drop(b);
        drop(a);
        server.run();
        assert!(server.subs.is_empty());
        let stats = server.stats();
        stats.reconcile().unwrap();
        assert_eq!(
            (stats.plot_requests, stats.fulls_sent, stats.dropped_replies),
            (2, 2, 2)
        );
    }

    #[test]
    fn any_departure_frees_clients_unregistered_without_one() {
        let (tx, rx) = mpsc::channel();
        let engine = thread::spawn(move || {
            let mut server = server(ServeConfig {
                request_queue: 2,
                client_queue: 1,
                exit_when_idle: false,
            });
            tx.send(server.handle()).unwrap();
            server.run();
            (server.subs.len(), server.stats())
        });
        let handle = rx.recv().unwrap();
        let (a, b, c) = (handle.connect(), handle.connect(), handle.connect());
        b.send(&request("fig3-4")).unwrap();
        assert!(b.recv().is_some(), "b is subscribed");
        // The second reply to `a` finds its one-slot outbox full, so the
        // engine waits there; `c`'s two requests then fill the queue.
        a.send(&request("fig3-4")).unwrap();
        a.send(&request("fig7-1")).unwrap();
        c.send(&request("fig3-4")).unwrap();
        c.send(&request("fig7-1")).unwrap();
        drop(b); // no room for its `Gone`: unregistered unannounced
        for conn in [&a, &a, &c, &c] {
            assert!(conn.recv().is_some());
        }
        drop(c); // handling this `Gone` frees `b`'s subscription too
        drop(a);
        handle.shutdown();
        let (subs, stats) = engine.join().unwrap();
        assert_eq!(subs, 0);
        stats.reconcile().unwrap();
        assert_eq!((stats.fulls_sent, stats.dropped_replies), (5, 0));
    }

    #[test]
    fn pane_ops_act_on_pushed_panes_only() {
        let mut server = server(ServeConfig::default());
        let conn = server.handle().connect();
        let client = thread::spawn(move || {
            let ask = |cmd: &VCommand| {
                conn.send(cmd).unwrap();
                conn.recv().expect("reply")
            };
            let answer = |cmd: &VCommand| VResponse::from_json(&ask(cmd)).unwrap();
            // Subscriptions create no panes: the first push is pane 0.
            let mut pushed = None;
            for fig in figures::all() {
                let reply = ask(&request(fig.id));
                if fig.id == "fig3-4" {
                    pushed = Some(VCommand::from_json(&reply).unwrap());
                }
            }
            let Some(VCommand::Vplot { graph, source }) = pushed else {
                panic!("a full plot of fig3-4");
            };
            let addr = graph.get(graph.roots[0]).addr;
            let ok = |pane| VResponse::Ok {
                pane: Some(PaneId(pane)),
                synthesized: None,
            };
            assert_eq!(answer(&VCommand::Vplot { graph, source }), ok(0));
            assert_eq!(answer(&VCommand::VctrlFocus { addr }), ok(0));
            let apply = |pane| VCommand::VctrlApply {
                pane: PaneId(pane),
                viewql: "a = SELECT task_struct FROM * WHERE mm == NULL\n\
                         UPDATE a WITH collapsed: true"
                    .to_string(),
            };
            assert_eq!(answer(&apply(0)), ok(0));
            // A pane no push created is an error, and the engine keeps
            // serving.
            assert!(matches!(answer(&apply(1)), VResponse::Err { .. }));
            let chat = VCommand::Vchat {
                pane: PaneId(1),
                message: "shrink tasks that have no address space".to_string(),
            };
            assert!(matches!(answer(&chat), VResponse::Err { .. }));
            let again = ask(&request("fig3-4"));
            assert!(again.starts_with(r#"{"command":"vplot"#), "{again:.80}");
        });
        server.run();
        client.join().unwrap();
        let stats = server.stats();
        assert_eq!(stats.errors, 2);
        stats.reconcile().unwrap();
    }

    #[test]
    fn a_reply_past_the_frame_cap_is_an_error_and_siblings_stay_served() {
        let mut server = server(ServeConfig {
            exit_when_idle: false,
            ..ServeConfig::default()
        });
        let handle = server.handle();
        let (big, sibling) = (handle.connect(), handle.connect());
        // A comment of control bytes, each six bytes once JSON-escaped:
        // every plot echoes its source, so this one passes the cap at a
        // sixth of its size.
        let fig = figures::by_id("fig3-4").unwrap().viewcl;
        let padded = format!("// {}\n{fig}", "\u{1}".repeat(MAX_FRAME / 6 + 1));
        // `big` holds the source in sync, as after earlier ships, so the
        // refused step is a delta the client never gets.
        let src: Arc<str> = Arc::from(padded.as_str());
        let in_sync = SyncState {
            seq: 3,
            last: Arc::new(vgraph::Graph::new()),
            resync: false,
        };
        let big_id = big.id();
        server
            .subs
            .entry(big_id)
            .or_default()
            .insert(Arc::clone(&src), in_sync);
        let clients = thread::spawn(move || {
            let ask = |conn: &Connection, viewcl: &str| {
                let cmd = VCommand::VplotRequest {
                    viewcl: viewcl.to_string(),
                };
                conn.send(&cmd).unwrap();
                conn.recv().expect("a reply")
            };
            let refused = ask(&big, &padded);
            assert!(refused.len() < 256, "{} B error reply", refused.len());
            let Ok(VResponse::Err { message }) = VResponse::from_json(&refused) else {
                panic!("expected an error, got {refused:.80}");
            };
            let cap = format!(" exceeds the {MAX_FRAME}-byte frame cap");
            let len: usize = message
                .strip_prefix("a ")
                .and_then(|m| m.strip_suffix(&cap))
                .and_then(|m| m.strip_suffix("-byte reply"))
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("{message}"));
            assert!(len > MAX_FRAME, "{message}");
            // The engine keeps serving: a sibling, and the refused client.
            for (conn, fig) in [(&sibling, "fig3-4"), (&big, "fig7-1")] {
                let plot = ask(conn, figures::by_id(fig).unwrap().viewcl);
                assert!(plot.starts_with(r#"{"command":"vplot","#), "{plot:.80}");
            }
            // Stop the engine while both clients are still subscribed.
            handle.shutdown();
            (big, sibling)
        });
        server.run();
        let _still_connected = clients.join().unwrap();
        assert!(
            server.subs[&big_id][&src].resync,
            "the refused subscription ships in full next"
        );
        let stats = server.stats();
        stats.reconcile().unwrap();
        assert_eq!(
            (stats.extractions, stats.oversized, stats.errors),
            (3, 1, 1),
            "{stats:?}"
        );
        assert_eq!((stats.fulls_sent, stats.deltas_sent), (2, 0), "{stats:?}");
    }

    #[test]
    fn an_idle_engine_rings_its_pump_once_not_per_reply() {
        // A stand-in pump: counts how often it is unparked.
        let wakes = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let (w, d) = (wakes.clone(), done.clone());
        let pump = thread::spawn(move || {
            while !d.load(Ordering::SeqCst) {
                thread::park();
                w.fetch_add(1, Ordering::SeqCst);
            }
        });

        let (tx, rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let engine = thread::spawn(move || {
            let session = Session::builder(build(&WorkloadConfig::default()))
                .profile(LatencyProfile::free())
                .attach()
                .unwrap();
            let mut server = Server::new(
                session,
                ServeConfig {
                    // Room for every reply: the engine never waits on it.
                    client_queue: 64,
                    exit_when_idle: false,
                    ..ServeConfig::default()
                },
            );
            tx.send(server.handle()).unwrap();
            go_rx.recv().unwrap();
            server.run();
            server.stats()
        });
        let handle = rx.recv().unwrap();
        let conn = handle.connect();
        conn.set_waker(pump.thread().clone());
        // Every request is queued before the engine starts, so it stays
        // busy until the last reply, and nothing reads the replies: the
        // engine idles with all of them still queued.
        let figs = figures::all();
        for f in &figs {
            let req = VCommand::VplotRequest {
                viewcl: f.viewcl.to_string(),
            };
            conn.send(&req).unwrap();
        }
        go_tx.send(()).unwrap();
        let t0 = std::time::Instant::now();
        while wakes.load(Ordering::SeqCst) == 0 && t0.elapsed() < Duration::from_secs(10) {
            thread::sleep(Duration::from_millis(1));
        }
        thread::sleep(Duration::from_millis(50));
        let rung = wakes.load(Ordering::SeqCst);
        for _ in &figs {
            assert!(conn.recv().is_some(), "every request is answered");
        }

        handle.shutdown();
        let stats = engine.join().unwrap();
        done.store(true, Ordering::SeqCst);
        pump.thread().unpark();
        pump.join().unwrap();
        assert_eq!(stats.plot_requests, figs.len() as u64);
        // One ring once the engine idles (allowing one spurious return
        // from `park`); waking per reply would count one per figure, and
        // no ring at all would leave a parked pump asleep.
        assert!(
            (1..=2).contains(&rung),
            "{rung} wake-ups for {} queued replies",
            figs.len()
        );
    }
}
