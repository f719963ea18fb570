//! The evented wire pump: many connections, one poll thread.
//!
//! The old `Transport` pump was one blocking thread per client in
//! strict lock-step. [`WirePump`] replaces it with a readiness loop
//! over the same [`crate::Bounded`] primitives: every connection is a
//! *lane* (an [`Io`] plus decode/encode buffers and a small state
//! machine), and one thread sweeps all lanes round-robin, moving
//! whatever bytes and frames are ready and never blocking on any single
//! peer. See DESIGN.md §17.
//!
//! **Waking.** After a sweep that moved nothing the thread parks, and
//! what arrives from outside unparks it: a connection on the intake,
//! bytes or a close on a lane whose [`Io`] can signal
//! ([`Io::set_waker`]), the close of a routed connection's outbox.
//! Engine replies do not: the pump collects them on its next sweep,
//! at most [`WireConfig::idle_sleep`] later, and an engine that idles
//! with replies still queued rings it after about a millisecond.
//!
//! **Fairness.** Each sweep visits the lanes in rotating round-robin
//! order and admits at most `FAIR_BUDGET` frames per lane into the
//! engine, so a chatty client cannot starve its siblings.
//!
//! **The engine never blocks.** A lane only admits a frame while its
//! replies in flight are below the engine-side outbox capacity
//! ([`Connection::capacity`]) — so the engine's reply push always finds
//! room, no matter how stalled the client is. The full backpressure
//! chain: a client that stops reading fills the lane's out-buffer to
//! [`WireConfig::outbuf_limit`]; the pump then stops draining that
//! lane's outbox and stops admitting; the shared request queue fills
//! only with frames whose replies have reserved space. A stalled client
//! costs its siblings one skipped lane visit per sweep — measured by
//! the `serve_bench --soak` gate.
//!
//! **The handshake.** Every lane starts at the hello
//! ([`crate::framing::parse_hello`]): a `VWHI` hello runs the version
//! handshake (skew → reject frame naming both versions, lane closed).
//! A peer whose first bytes are anything else — a newline-JSON client
//! included — gets one JSON error line naming the hello and the
//! protocol version, the shape of the connection-limit refusal, and is
//! closed ([`WireStats::decode_errors`]).
//!
//! **Routing.** Engine selection is a seam: [`ConnectRouter`] maps a
//! lane's first protocol frame to a [`Connection`]. The single-session
//! impl ([`SingleSession`]) connects everyone to one server and
//! forwards the frame; `vfleet` implements it with the `vattach`
//! handshake (consuming the frame, acking it, and pinning the engine
//! lease via the returned guard).

use std::any::Any;
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use std::time::Duration;

use visualinux::proto::VResponse;

use crate::framing::{negotiate_server, parse_hello, BinaryFraming, DecodeBuf};
use crate::queue::{Bounded, Wake};
use crate::server::{Connection, ServerHandle};
use crate::stats::WireStats;
use crate::wire::Io;
use crate::ServeError;

/// Frames admitted into the engine per lane per sweep: the round-robin
/// fairness quantum.
const FAIR_BUDGET: usize = 4;

/// Tuning knobs for a [`WirePump`].
#[derive(Debug, Clone, Copy)]
pub struct WireConfig {
    /// Lanes the pump will drive at once; connections beyond it are
    /// refused with a best-effort JSON error line.
    pub max_connections: usize,
    /// Bytes buffered toward one client before the pump declares it
    /// stalled and skips its reads and reply drains.
    pub outbuf_limit: usize,
    /// Longest the pump parks after a sweep that moved nothing. Arriving
    /// connections and bytes on transports that can signal
    /// ([`Io::set_waker`]) unpark it at once, so this bounds the wait on
    /// the rest: engine replies (an engine idle for about a millisecond
    /// rings for those still queued), streams that cannot signal (TCP),
    /// a full request queue, a client channel that was full.
    pub idle_sleep: Duration,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            max_connections: 1024,
            outbuf_limit: 1 << 20,
            idle_sleep: Duration::from_micros(200),
        }
    }
}

/// Maps a fresh lane's first protocol frame to an engine connection.
pub trait ConnectRouter: Send {
    /// Decide where this lane's frames go. `first` is the lane's first
    /// decoded frame: a router that consumes it as a routing prefix
    /// (fleet `vattach`) returns `ack: Some(reply)`; a router that does
    /// not (single session) returns `ack: None` and the pump forwards
    /// `first` to the engine as an ordinary command. `Err(message)` is
    /// answered with a protocol error and the client may retry with
    /// another first frame.
    fn route(&self, first: &str) -> Result<RoutedConn, String>;
}

/// A routed engine connection plus whatever the router needs kept alive
/// for the lane's lifetime.
pub struct RoutedConn {
    /// The engine connection frames flow to.
    pub conn: Connection,
    /// Reply for the routing frame itself, if the router consumed it.
    pub ack: Option<String>,
    /// Dropped when the lane dies (e.g. a fleet's engine lease).
    pub guard: Option<Box<dyn Any + Send>>,
}

/// The trivial router: every lane connects to the same server, no
/// routing prefix.
pub struct SingleSession {
    handle: ServerHandle,
}

impl SingleSession {
    /// Route everything to `handle`'s server.
    pub fn new(handle: ServerHandle) -> SingleSession {
        SingleSession { handle }
    }
}

impl ConnectRouter for SingleSession {
    fn route(&self, _first: &str) -> Result<RoutedConn, String> {
        Ok(RoutedConn {
            conn: self.handle.connect(),
            ack: None,
            guard: None,
        })
    }
}

/// Where a lane is in its lifecycle.
enum Stage {
    /// Waiting for the 8-byte hello.
    Hello,
    /// Version pinned; waiting for the first frame to route.
    Route,
    /// Routed: frames flow to the engine, replies flow back.
    Ready,
}

/// One connection under the pump.
struct Lane {
    io: Box<dyn Io>,
    stage: Stage,
    inbuf: DecodeBuf,
    outbuf: Vec<u8>,
    /// Decoded frames awaiting admission (bounded by `FAIR_BUDGET`).
    pending: VecDeque<String>,
    conn: Option<Connection>,
    _guard: Option<Box<dyn Any + Send>>,
    /// Replies owed by the engine; admission stops at `window`.
    in_flight: usize,
    /// The engine-side outbox capacity (reply space reserved per admit).
    window: usize,
    /// Peer closed its write side; drain what remains, then finish.
    eof: bool,
    /// Flush the out-buffer, then die (fatal error or clean end).
    closing: bool,
    /// Remove this lane from the pump.
    dead: bool,
}

impl Lane {
    fn new(io: Box<dyn Io>) -> Lane {
        Lane {
            io,
            stage: Stage::Hello,
            inbuf: DecodeBuf::new(),
            outbuf: Vec::new(),
            pending: VecDeque::new(),
            conn: None,
            _guard: None,
            in_flight: 0,
            window: 0,
            eof: false,
            closing: false,
            dead: false,
        }
    }

    /// Encode a reply payload toward the client.
    fn push_reply(&mut self, payload: &str, stats: &mut WireStats) {
        BinaryFraming.encode(payload, &mut self.outbuf);
        stats.frames_out += 1;
    }

    /// A fatal framing failure: answer with a positioned diagnostic, then
    /// close.
    fn fail(&mut self, msg: String, stats: &mut WireStats) {
        stats.decode_errors += 1;
        let reply = VResponse::Err { message: msg }.to_json();
        self.push_reply(&reply, stats);
        self.closing = true;
    }
}

/// A refusal before any handshake, in the one shape any peer can read:
/// a JSON error line.
fn refusal(message: String) -> String {
    format!("{}\n", VResponse::Err { message }.to_json())
}

/// Hands new connections to a running pump. Clonable and `Send`.
#[derive(Clone)]
pub struct PumpHandle {
    intake: Arc<Bounded<Box<dyn Io>>>,
}

impl PumpHandle {
    /// Submit a freshly accepted connection; blocks while the intake
    /// queue is full. Fails once the pump is shutting down.
    pub fn add(&self, io: Box<dyn Io>) -> Result<(), ServeError> {
        self.intake.push(io).map_err(|_| ServeError::Closed)
    }

    /// Stop accepting connections; [`WirePump::run`] returns once every
    /// live lane has drained.
    pub fn shutdown(&self) {
        self.intake.close();
    }
}

/// The evented pump. Build it, clone a [`PumpHandle`] for the acceptor,
/// and give [`WirePump::run`] a thread.
pub struct WirePump {
    router: Box<dyn ConnectRouter>,
    cfg: WireConfig,
    intake: Arc<Bounded<Box<dyn Io>>>,
    lanes: Vec<Lane>,
    cursor: usize,
    stats: WireStats,
}

impl WirePump {
    /// A pump routing via `router`.
    pub fn new(router: Box<dyn ConnectRouter>, cfg: WireConfig) -> WirePump {
        WirePump {
            router,
            cfg,
            intake: Arc::new(Bounded::new(64)),
            lanes: Vec::new(),
            cursor: 0,
            stats: WireStats::default(),
        }
    }

    /// A handle for feeding connections in (and shutting the pump down).
    pub fn handle(&self) -> PumpHandle {
        PumpHandle {
            intake: self.intake.clone(),
        }
    }

    /// Drive every lane until the intake is shut down and the last lane
    /// drains. Returns the pump's wire totals. Between sweeps that move
    /// nothing the thread parks: the intake, each lane's [`Io`] and the
    /// engine behind each routed connection (its outbox's close, and its
    /// ring once idle with replies queued) unpark it.
    pub fn run(mut self) -> WireStats {
        self.intake.set_waker(std::thread::current(), Wake::OnPush);
        loop {
            let mut progress = self.accept();
            let n = self.lanes.len();
            for i in 0..n {
                let idx = (self.cursor + i) % n;
                progress |= self.step(idx);
            }
            // Rotate the sweep's starting lane so admission budget
            // exhaustion (a full request queue) does not always bite the
            // same client.
            self.cursor = self.cursor.wrapping_add(1);
            self.lanes.retain(|l| !l.dead);
            self.stats.sweeps += 1;
            if self.lanes.is_empty() && self.intake.is_closed() && self.intake.is_empty() {
                return self.stats;
            }
            if !progress {
                std::thread::park_timeout(self.cfg.idle_sleep);
            }
        }
    }

    /// Pull newly accepted connections into lanes; refuse past the
    /// connection limit.
    fn accept(&mut self) -> bool {
        let mut progress = false;
        while let Some(mut io) = {
            // Only pop while there is room or we intend to refuse.
            self.intake.try_pop()
        } {
            progress = true;
            if self.lanes.len() >= self.cfg.max_connections {
                self.stats.refused += 1;
                // Best-effort: the connection is dropped either way.
                let limit = self.cfg.max_connections;
                let _ = io.write(refusal(format!("connection limit ({limit}) reached")).as_bytes());
                continue;
            }
            self.stats.accepted += 1;
            io.set_waker(std::thread::current());
            self.lanes.push(Lane::new(io));
            self.stats.lanes_max = self.stats.lanes_max.max(self.lanes.len() as u64);
        }
        progress
    }

    /// One visit to one lane: flush, drain replies, read, decode, admit.
    fn step(&mut self, idx: usize) -> bool {
        let mut progress = false;
        progress |= self.flush(idx);
        let lane = &mut self.lanes[idx];
        if lane.dead {
            return progress;
        }
        if lane.closing {
            if lane.outbuf.is_empty() {
                lane.dead = true;
                return true;
            }
            return progress;
        }

        // Replies engine → client. A stalled client (out-buffer at the
        // limit) is skipped: its outbox keeps at most `window` replies —
        // space the admission gate already reserved — so the engine
        // still never blocks.
        let stalled = lane.outbuf.len() >= self.cfg.outbuf_limit;
        if stalled {
            self.stats.stalled_skips += 1;
        } else if let Some(conn) = &lane.conn {
            while lane.outbuf.len() < self.cfg.outbuf_limit {
                match conn.try_recv() {
                    Some(reply) => {
                        lane.in_flight = lane.in_flight.saturating_sub(1);
                        BinaryFraming.encode(&reply, &mut lane.outbuf);
                        self.stats.frames_out += 1;
                        progress = true;
                    }
                    None => {
                        if conn.is_closed() {
                            // Engine ended the stream (shutdown/evict);
                            // everything queued is drained.
                            lane.closing = true;
                            progress = true;
                        }
                        break;
                    }
                }
            }
        }

        // Bytes client → pump.
        if !stalled && !lane.eof {
            let mut chunk = [0u8; 16 * 1024];
            match self.lanes[idx].io.read(&mut chunk) {
                Ok(0) => {
                    self.lanes[idx].eof = true;
                    progress = true;
                }
                Ok(n) => {
                    self.lanes[idx].inbuf.extend(&chunk[..n]);
                    self.stats.bytes_in += n as u64;
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => {
                    self.lanes[idx].dead = true;
                    return true;
                }
            }
        }

        progress |= self.advance(idx);
        progress
    }

    /// Decode and admit per the lane's stage.
    fn advance(&mut self, idx: usize) -> bool {
        let mut progress = false;
        loop {
            let lane = &mut self.lanes[idx];
            if lane.closing || lane.dead {
                return progress;
            }
            match lane.stage {
                Stage::Hello => match parse_hello(&mut lane.inbuf) {
                    Ok(None) => break,
                    Ok(Some(theirs)) => {
                        self.stats.hello_binary += 1;
                        match negotiate_server(theirs) {
                            Ok(accept) => {
                                lane.outbuf.extend_from_slice(&accept);
                                lane.stage = Stage::Route;
                            }
                            Err((_skew, reject)) => {
                                self.stats.version_skews += 1;
                                lane.outbuf.extend_from_slice(&reject);
                                lane.closing = true;
                            }
                        }
                        progress = true;
                    }
                    Err(e) => {
                        // Not a hello, so no framing was agreed: refuse
                        // in the one shape any peer can read.
                        self.stats.decode_errors += 1;
                        let line = refusal(format!("frame error: {e}"));
                        lane.outbuf.extend_from_slice(line.as_bytes());
                        lane.closing = true;
                        progress = true;
                    }
                },
                Stage::Route => match BinaryFraming.decode(&mut lane.inbuf) {
                    Ok(None) => break,
                    Ok(Some(frame)) => {
                        progress = true;
                        match self.router.route(&frame) {
                            Ok(routed) => {
                                routed.conn.set_waker(std::thread::current());
                                let lane = &mut self.lanes[idx];
                                lane.window = routed.conn.capacity();
                                lane.conn = Some(routed.conn);
                                lane._guard = routed.guard;
                                lane.stage = Stage::Ready;
                                match routed.ack {
                                    Some(ack) => lane.push_reply(&ack, &mut self.stats),
                                    None => lane.pending.push_back(frame),
                                }
                            }
                            Err(message) => {
                                self.stats.routing_retries += 1;
                                let reply = VResponse::Err { message }.to_json();
                                self.lanes[idx].push_reply(&reply, &mut self.stats);
                            }
                        }
                    }
                    Err(e) => {
                        let msg = format!("frame error: {e}");
                        lane.fail(msg, &mut self.stats);
                        return true;
                    }
                },
                Stage::Ready => {
                    progress |= self.pump_ready(idx);
                    break;
                }
            }
        }
        progress | self.finish_eof(idx)
    }

    /// Admit up to `FAIR_BUDGET` frames from a routed lane.
    fn pump_ready(&mut self, idx: usize) -> bool {
        let mut admitted = 0;
        let mut progress = false;
        while admitted < FAIR_BUDGET {
            let lane = &mut self.lanes[idx];
            if lane.pending.is_empty() {
                match BinaryFraming.decode(&mut lane.inbuf) {
                    Ok(Some(frame)) => lane.pending.push_back(frame),
                    Ok(None) => break,
                    Err(e) => {
                        let msg = format!("frame error: {e}");
                        lane.fail(msg, &mut self.stats);
                        return true;
                    }
                }
            }
            let lane = &mut self.lanes[idx];
            // Admission gate: only while replies in flight are below the
            // engine-side outbox capacity — the engine's reply push can
            // always land without blocking.
            if lane.in_flight >= lane.window {
                self.stats.engine_busy += 1;
                break;
            }
            // The frame moves into the engine's queue; one the queue
            // refuses comes back to the front of the lane.
            let frame = lane.pending.pop_front().expect("just ensured");
            let conn = lane.conn.as_ref().expect("ready lanes are routed");
            match conn.offer_frame(frame) {
                Ok(()) => {
                    lane.in_flight += 1;
                    admitted += 1;
                    self.stats.frames_in += 1;
                    progress = true;
                }
                Err((ServeError::Backpressure, frame)) => {
                    lane.pending.push_front(frame);
                    self.stats.engine_busy += 1;
                    break;
                }
                Err((_, frame)) => {
                    // Engine gone; flush what we owe and end the lane.
                    lane.pending.push_front(frame);
                    lane.closing = true;
                    return true;
                }
            }
        }
        progress
    }

    /// After EOF: check the residue is a clean frame boundary, wait out
    /// owed replies, then close. True when the lane started closing.
    fn finish_eof(&mut self, idx: usize) -> bool {
        let lane = &mut self.lanes[idx];
        if !lane.eof || lane.closing || lane.dead {
            return false;
        }
        // A partial hello has no frame to check; it just closes.
        if !matches!(lane.stage, Stage::Hello) {
            if let Err(e) = BinaryFraming.finish(&lane.inbuf) {
                let msg = format!("frame error: {e}");
                lane.fail(msg, &mut self.stats);
                return true;
            }
        }
        lane.closing = lane.pending.is_empty() && lane.in_flight == 0;
        lane.closing
    }

    /// Push buffered bytes to the client; a stalled peer leaves them
    /// buffered (bounded by `outbuf_limit` upstream).
    fn flush(&mut self, idx: usize) -> bool {
        let lane = &mut self.lanes[idx];
        if lane.outbuf.is_empty() {
            return false;
        }
        let mut done = 0;
        loop {
            match lane.io.write(&lane.outbuf[done..]) {
                Ok(0) => break,
                Ok(n) => {
                    done += n;
                    self.stats.bytes_out += n as u64;
                    if done == lane.outbuf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    lane.dead = true;
                    return true;
                }
            }
        }
        lane.outbuf.drain(..done);
        done > 0
    }
}
