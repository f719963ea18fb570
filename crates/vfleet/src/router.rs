//! Keyed routing: the `vattach` prefix as a [`ConnectRouter`].
//!
//! A fleet endpoint speaks the same wire protocol as a single `vserve`
//! server, prefixed by one routing frame: the first well-formed command
//! on a connection must be `vattach {"session": key}`. Everything after
//! a successful attach flows to that session's engine verbatim (a
//! *second* `vattach` therefore reaches the engine, which answers with
//! the single-session error from `proto::dispatch` — routing frames are
//! not re-interpreted mid-stream). Bad first frames are answered with an
//! error and counted, and the client may retry the handshake on the
//! same connection.
//!
//! The routing decision plugs into the evented [`vserve::WirePump`] via
//! [`ConnectRouter`]: build the pump with
//! `WirePump::new(Box::new(FleetRouter::new(fleet)), cfg)` and one poll
//! thread serves every session behind one endpoint — the versioned
//! binary framing, fair queuing and all.

use std::sync::Arc;

use visualinux::proto::{VCommand, VResponse};
use vserve::{ConnectRouter, RoutedConn};

use crate::pool::Fleet;

/// [`ConnectRouter`] over a shared [`Fleet`]: the `vattach` handshake
/// as a wire pump's routing seam.
pub struct FleetRouter {
    fleet: Arc<Fleet>,
}

impl FleetRouter {
    /// Route lanes into `fleet`'s sessions.
    pub fn new(fleet: Arc<Fleet>) -> FleetRouter {
        FleetRouter { fleet }
    }
}

impl ConnectRouter for FleetRouter {
    /// Interpret a lane's first frame as the `vattach` routing prefix.
    /// The frame is consumed: a successful attach is acked with an `Ok`
    /// response and later frames flow to the routed engine; failures
    /// are counted and surfaced so the client can retry.
    fn route(&self, first: &str) -> Result<RoutedConn, String> {
        let message = match VCommand::from_json(first) {
            Ok(VCommand::Vattach { session }) => match self.fleet.connect(&session) {
                Ok(conn) => {
                    let (conn, guard) = conn.into_parts();
                    return Ok(RoutedConn {
                        conn,
                        ack: Some(
                            VResponse::Ok {
                                pane: None,
                                synthesized: None,
                            }
                            .to_json(),
                        ),
                        guard: Some(Box::new(guard)),
                    });
                }
                Err(e) => format!("vattach `{session}`: {e}"),
            },
            Ok(other) => format!(
                "expected a vattach routing frame first, got `{}`",
                other.to_json()
            ),
            Err(e) => format!("unparseable routing frame: {e}"),
        };
        self.fleet.note_routing_error();
        Err(message)
    }
}
