//! `vfleet`: shard many debugging sessions across many engines.
//!
//! One `vserve` engine owns one session; a fleet owns many — live
//! [`visualinux::vbridge::SimBackend`] images and `.vrec` replay
//! captures mixed — and routes clients to them by session key. See
//! DESIGN.md §14.
//!
//! * **Keyed routing.** Register sessions as [`visualinux::SessionSpec`]
//!   recipes under string keys; clients attach with a `vattach` routing
//!   frame ([`FleetRouter`] implements [`vserve::ConnectRouter`], so a
//!   [`vserve::WirePump`] serves the whole fleet from one endpoint) or
//!   directly by key ([`Fleet::connect`]) and then speak the ordinary
//!   `vserve` protocol.
//! * **Lazy lifecycle.** Engines spawn on first connection. A resident
//!   budget ([`FleetConfig::max_resident`]) evicts the least-recently-
//!   used idle engine — gracefully, books settled — and the next request
//!   respawns the session from its spec plus its journal
//!   ([`vserve::SessionOp`]): every stop and, for a replay session,
//!   every extraction served, in order. A replay respawn re-walks what
//!   its predecessors served and lands at their tape position; a live
//!   one re-applies its stops, since its graphs depend on its image
//!   alone, and walks only what it is asked.
//! * **Cross-session sharing.** Engines whose specs fingerprint
//!   identically join a share group ([`vserve::ShareGroup`]): the first
//!   engine to walk a `(generation, ViewCL)` pair publishes its memo
//!   record, siblings serve it without touching their own bridge, and
//!   the record's generation step is diffed and encoded once, into the
//!   record, for every client of all of them. Stop
//!   generations are hash-chained over tick arguments
//!   ([`chain_generation`]), so diverging mutation histories can never
//!   alias. The group holds records only while some engine's memo does,
//!   so a fleet's shared state stays flat however long it steps.
//! * **Accounting.** [`FleetStats`] aggregates lifecycle counters, the
//!   summed per-engine [`vserve::ServeStats`], and share-group hit/miss
//!   books; [`FleetStats::reconcile`] checks them against each other
//!   bit-for-bit once the books settle ([`Fleet::shutdown`]).

mod pool;
mod router;
mod stats;

pub use pool::{chain_generation, ConnGuard, Fleet, FleetConfig, FleetConnection};
pub use router::FleetRouter;
pub use stats::FleetStats;

/// Errors from fleet registration and routing.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// No session registered under that key.
    UnknownSession(String),
    /// A session is already registered under that key.
    DuplicateSession(String),
    /// The engine could not be built (workload/capture attach failed).
    Spawn(String),
    /// The engine rejected a request (shutting down).
    Engine(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownSession(k) => write!(f, "unknown session `{k}`"),
            FleetError::DuplicateSession(k) => write!(f, "session `{k}` already registered"),
            FleetError::Spawn(m) => write!(f, "engine spawn failed: {m}"),
            FleetError::Engine(m) => write!(f, "engine unavailable: {m}"),
        }
    }
}

impl std::error::Error for FleetError {}
