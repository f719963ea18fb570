//! `vserve`: the concurrent pane server (paper §4.2, serving side).
//!
//! The paper's visualizer is a detached front-end fed by `vplot`/`vctrl`
//! messages on every stop event. This crate is the missing middle: a
//! transport-agnostic server that owns one attached
//! [`visualinux::Session`] (and therefore one bridge target behind the
//! snapshot cache) and services many clients speaking the
//! [`visualinux::proto::VCommand`] protocol concurrently.
//!
//! Architecture — see DESIGN.md §11:
//!
//! * **Threading.** The session is single-threaded by design; the engine
//!   ([`Server::run`]) runs on its owner thread. Clients hold `Send`
//!   [`Connection`] handles: bounded queues in both directions, so a
//!   full request queue blocks producers and a slow reader eventually
//!   stalls the engine instead of buffering without bound.
//! * **Coalescing.** The first `vplot_request` for a ViewCL program in a
//!   stop generation pays the bridge walk; identical requests from any
//!   client are answered from the memo until the next stop event
//!   ([`ServeStats::coalesced`]).
//! * **Delta sync.** A client's first `vplot_request` for a source
//!   subscribes it: the server remembers the last graph it shipped that
//!   client and sends a [`vgraph::GraphDelta`] (`vplot_delta`) when it
//!   is smaller than a full re-ship, falling back to `vplot` otherwise;
//!   [`Replica`] applies them client-side, in place, and answers
//!   `vack`. A subscription is that sync state and nothing more: it
//!   creates no pane, and the client's departure frees it.
//! * **Stop events.** [`ServerHandle::stop_event`] queues an image
//!   mutation; the engine applies it strictly ordered with requests,
//!   bumps the cache epoch and invalidates the extraction memo. A pane
//!   the session kept comes back as the allocation the memo already
//!   serves, so its full payload is reused and its identity delta is
//!   built without comparing boxes.
//! * **Full plots on demand.** A walk measures its full `vplot`'s exact
//!   length ([`visualinux::proto::vplot_json_len`]) without encoding
//!   it: the delta-or-full decision needs only the length. A pane
//!   patched from the one served before shares all but its patched
//!   boxes with it, and is measured from that plot's length by those
//!   boxes alone ([`vgraph::Graph::json_len_change`]). The bytes are
//!   encoded by the first full ship, once, into a cell shared by every
//!   client of the source and, through a [`ShareGroup`], by every fleet
//!   sibling ([`ServeStats::full_encodes`]). Each source is escaped
//!   once, when its memo entry is made, and every reply copies it.
//! * **The wire.** See DESIGN.md §17: byte streams plug in through the
//!   nonblocking [`Io`] seam, and [`BinaryFraming`] turns bytes into
//!   `VCommand` payloads: length-prefixed frames of at most
//!   [`framing::MAX_FRAME`] bytes behind a versioned `VWHI`/`VWOK`
//!   handshake that fails loudly naming both versions on skew. A peer
//!   that does not open with the hello gets one JSON error line and is
//!   closed. One evented [`WirePump`] thread multiplexes every
//!   connection — per-client fair budgeted admission, bounded
//!   out-buffers, and a stall cap so one dead-reader client cannot
//!   stall the engine or starve its siblings. The pump parks when idle
//!   and is woken by what clients send; it collects engine replies on
//!   its own sweeps (an idle engine rings it for replies still queued).
//!   A [`WireClient`] over a [`ChanIo`] waits on its receive queue.
//!   Framing sits strictly below [`visualinux::proto::VCommand`], so
//!   replies are byte-identical over the wire and over a direct
//!   [`Connection`], and `.vrec` determinism is untouched. A plot
//!   whose payload would exceed the frame cap is answered with an
//!   error on every transport ([`ServeStats::oversized`]).

mod client;
mod evented;
pub mod framing;
mod queue;
mod server;
mod shared;
mod stats;
mod wire;

pub use client::{Replica, ReplicaEvent};
pub use evented::{ConnectRouter, PumpHandle, RoutedConn, SingleSession, WireConfig, WirePump};
pub use framing::{BinaryFraming, DecodeBuf, FrameError};
pub use queue::{Bounded, TryPush};
pub use server::{Connection, ServeConfig, Server, ServerHandle, SessionOp};
pub use shared::{ShareGroup, ShareStats};
pub use stats::{ServeStats, WireStats};
pub use wire::{byte_pair, ChanIo, Io, StreamIo, WireClient};

/// Errors on the client side of a serving session.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The server is shutting down (or already gone).
    Closed,
    /// A delta did not fit the replica's current state.
    OutOfSync(String),
    /// The peer spoke something that is not the protocol.
    Protocol(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Closed => write!(f, "server closed"),
            ServeError::OutOfSync(m) => write!(f, "replica out of sync: {m}"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}
