//! The v-command wire protocol (§4.2).
//!
//! The paper's GDB extension talks to the detached visualizer via HTTP
//! POST; this module defines that payload: a JSON envelope carrying
//! either a freshly extracted graph (`vplot`) or a pane-control request
//! (`vctrl` with a ViewQL program or a pane operation). A front-end can
//! consume these messages verbatim — the library stays transport-
//! agnostic (any HTTP server can forward `VCommand::to_json` bodies).

use serde::{Deserialize, Serialize};
use vgraph::{Graph, GraphDelta};
use vpanels::{PaneId, SplitDir};

/// The protocol revision this build speaks. Negotiated (and pinned) by
/// the binary wire handshake (`vserve::framing`): a peer announcing a
/// different revision is rejected loudly, naming both versions, instead
/// of silently misparsing frames. A peer that does not open with the
/// handshake at all (a newline-JSON client of revision 1) is refused with
/// one JSON error line. Clients stamp the revision into every
/// [`VCommand::Vack`] so the serving side can still observe what its
/// peers speak.
///
/// History: 1 = the blocking newline-JSON protocol (PR 4–9);
/// 2 = length-prefixed binary framing + hello/accept negotiation +
/// version-stamped acks.
pub const VERSION: u16 = 2;

/// A message from the GDB side to the visualizer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "command", rename_all = "snake_case")]
pub enum VCommand {
    /// `vplot`: display a new object graph.
    Vplot {
        /// The extracted graph.
        graph: Graph,
        /// The ViewCL source it came from (for session replay).
        source: String,
    },
    /// `vctrl apply`: run a ViewQL program on a pane.
    VctrlApply {
        /// Target pane.
        pane: PaneId,
        /// The ViewQL program.
        viewql: String,
    },
    /// `vctrl split`: split a pane.
    VctrlSplit {
        /// Pane to split.
        pane: PaneId,
        /// Orientation.
        dir: SplitDir,
    },
    /// `vctrl focus`: search an object across panes.
    VctrlFocus {
        /// The object address.
        addr: u64,
    },
    /// `vchat`: natural-language request (the visualizer synthesizes and
    /// echoes back the ViewQL it ran).
    Vchat {
        /// Target pane.
        pane: PaneId,
        /// The user's message.
        message: String,
    },
    /// `vplot_request`: ask the serving side to extract and ship a graph
    /// (clients of `vserve`; the GDB side pushes `Vplot` instead).
    VplotRequest {
        /// The ViewCL program to extract.
        viewcl: String,
    },
    /// `vplot_delta`: incremental update to a previously shipped plot —
    /// apply `delta` to the last graph received for `source`.
    VplotDelta {
        /// The ViewCL source identifying the pane's plot.
        source: String,
        /// Sequence number; increments per delta, resets on a full ship.
        seq: u64,
        /// The semantic delta against the client's current graph.
        delta: GraphDelta,
    },
    /// `vack`: client acknowledges having applied `seq` for `source` —
    /// the server falls back to a full ship when the client is out of
    /// sync.
    Vack {
        /// The ViewCL source identifying the pane's plot.
        source: String,
        /// Last sequence number applied client-side.
        seq: u64,
        /// The protocol revision the acking client speaks
        /// ([`VERSION`]); `0` from peers that predate version stamping.
        #[serde(default)]
        proto: u16,
    },
    /// `vattach`: routing frame — the **first** line on a fleet
    /// (`vfleet`) connection names the session the client wants; every
    /// later frame flows to that session's engine. A single-session
    /// endpoint (or an already-routed connection) answers with an error.
    Vattach {
        /// The fleet session key.
        session: String,
    },
}

/// The visualizer's reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "status", rename_all = "snake_case")]
pub enum VResponse {
    /// Success; `pane` identifies the created/affected pane.
    Ok {
        /// Affected pane.
        pane: Option<PaneId>,
        /// For `vchat`: the synthesized ViewQL.
        synthesized: Option<String>,
    },
    /// Failure with a message.
    Err {
        /// What went wrong.
        message: String,
    },
}

impl VCommand {
    /// Serialize to the JSON body of the HTTP POST.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("command serialization cannot fail")
    }

    /// Parse a received command.
    pub fn from_json(s: &str) -> serde_json::Result<VCommand> {
        serde_json::from_str(s)
    }
}

/// How a [`VCommand::Vplot`] opens, up to its graph, and what separates
/// the graph from the source.
const VPLOT_HEAD: &str = "{\"command\":\"vplot\",\"graph\":";
const VPLOT_SOURCE: &str = ",\"source\":";

/// How a [`VCommand::VplotDelta`] opens, up to its source, and what
/// separates the source from the sequence number and that from the
/// delta.
const DELTA_HEAD: &str = "{\"command\":\"vplot_delta\",\"source\":";
const DELTA_SEQ: &str = ",\"seq\":";
const DELTA_BODY: &str = ",\"delta\":";

/// A value as a reply writes it: its JSON, encoded once. [`vplot_json`]
/// and [`vplot_delta_json`] copy these bytes where they would encode the
/// value, so a server that echoes one source, or ships one step, in many
/// replies encodes it once. Written exactly as the value it encodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Json(Box<str>);

impl Json {
    /// Encode `value`.
    pub fn of<T: Serialize + ?Sized>(value: &T) -> Json {
        let mut json = String::with_capacity(value.json_len());
        value.write_json(&mut json);
        Json(json.into())
    }
}

impl Serialize for Json {
    fn serialize_value(&self) -> serde_json::Value {
        serde_json::from_str(&self.0).expect("encoded from a value")
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(&self.0);
    }

    fn json_len(&self) -> usize {
        self.0.len()
    }
}

/// The `vplot` command for `graph` and `source` (a `str`, or its
/// [`Json`]): byte for byte `VCommand::Vplot { graph, source
/// }.to_json()`, written from borrowed parts into a string of capacity
/// `len`, its length as [`vplot_json_len`] measured it, so no graph is
/// moved, cloned or measured again to encode it.
pub fn vplot_json<S: Serialize + ?Sized>(graph: &Graph, source: &S, len: usize) -> String {
    let mut out = String::with_capacity(len);
    out.push_str(VPLOT_HEAD);
    graph.write_json(&mut out);
    out.push_str(VPLOT_SOURCE);
    source.write_json(&mut out);
    out.push('}');
    out
}

/// The `vplot_delta` command for `delta` (a `GraphDelta`, or its
/// [`Json`]) and `source` (a `str`, or its [`Json`]): byte for byte
/// `VCommand::VplotDelta { source, seq, delta }.to_json()`, written from
/// borrowed parts into a string sized once, so a step shared by many
/// replies is encoded once and copied into each.
pub fn vplot_delta_json<D: Serialize + ?Sized, S: Serialize + ?Sized>(
    delta: &D,
    source: &S,
    seq: u64,
) -> String {
    let len = DELTA_HEAD.len()
        + source.json_len()
        + DELTA_SEQ.len()
        + seq.json_len()
        + DELTA_BODY.len()
        + delta.json_len()
        + 1;
    let mut out = String::with_capacity(len);
    out.push_str(DELTA_HEAD);
    source.write_json(&mut out);
    out.push_str(DELTA_SEQ);
    seq.write_json(&mut out);
    out.push_str(DELTA_BODY);
    delta.write_json(&mut out);
    out.push('}');
    debug_assert_eq!(out.len(), len, "a measured length is exact");
    out
}

/// The exact length of [`vplot_json`]`(graph, source)`, counted without
/// encoding it.
pub fn vplot_json_len<S: Serialize + ?Sized>(graph: &Graph, source: &S) -> usize {
    VPLOT_HEAD.len() + graph.json_len() + VPLOT_SOURCE.len() + source.json_len() + 1
}

impl VResponse {
    /// Serialize the reply.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("response serialization cannot fail")
    }

    /// Parse a reply.
    pub fn from_json(s: &str) -> serde_json::Result<VResponse> {
        serde_json::from_str(s)
    }
}

/// Dispatch a received command against a live [`crate::Session`] — what
/// the visualizer's request handler does. A pushed graph is not copied.
pub fn dispatch(session: &mut crate::Session, cmd: VCommand) -> VResponse {
    let result: Result<VResponse, crate::SessionError> = (|| {
        Ok(match cmd {
            VCommand::Vplot { graph, .. } => {
                // The GDB side already paid the extraction cost; adopt the
                // shipped graph instead of re-extracting from `source`
                // (which is carried for session replay only).
                let pane = session.adopt_graph(graph, None)?;
                VResponse::Ok {
                    pane: Some(pane),
                    synthesized: None,
                }
            }
            VCommand::VctrlApply { pane, viewql } => {
                session.vctrl_refine(pane, &viewql)?;
                VResponse::Ok {
                    pane: Some(pane),
                    synthesized: None,
                }
            }
            VCommand::VctrlSplit { .. } => VResponse::Err {
                message: "split requires a ViewCL source; use Session::vctrl_split".into(),
            },
            VCommand::VctrlFocus { addr } => {
                let hits = session.focus(addr);
                VResponse::Ok {
                    pane: hits.first().map(|h| h.pane),
                    synthesized: None,
                }
            }
            VCommand::Vchat { pane, message } => {
                let out = session.vchat(pane, &message, true)?;
                VResponse::Ok {
                    pane: Some(pane),
                    synthesized: Some(out.viewql),
                }
            }
            VCommand::VplotRequest { viewcl } => {
                let pane = session.plot(crate::PlotSpec::Source(&viewcl))?;
                VResponse::Ok {
                    pane: Some(pane),
                    synthesized: None,
                }
            }
            VCommand::VplotDelta { .. } => VResponse::Err {
                message: "vplot_delta needs the client's base graph; \
                          apply it with vserve::Replica"
                    .into(),
            },
            VCommand::Vack { .. } => VResponse::Ok {
                pane: None,
                synthesized: None,
            },
            VCommand::Vattach { session } => VResponse::Err {
                message: format!(
                    "vattach `{session}`: this endpoint serves a single session \
                     (already routed, or not a fleet router)"
                ),
            },
        })
    })();
    result.unwrap_or_else(|e| VResponse::Err {
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::workload::{build, WorkloadConfig};
    use vbridge::LatencyProfile;

    /// `Json::of(value)` writes, measures and renders as `value` does.
    fn encodes_as<T: Serialize + ?Sized>(value: &T) {
        let json = Json::of(value);
        let (mut got, mut want) = (String::new(), String::new());
        json.write_json(&mut got);
        value.write_json(&mut want);
        assert_eq!(got, want);
        assert_eq!(json.json_len(), value.json_len());
        assert_eq!(json.serialize_value(), value.serialize_value());
    }

    #[test]
    fn an_escaped_source_is_written_as_its_str() {
        for source in ["", "plot @x", "q\"\\\n\u{1f}é😀"] {
            encodes_as(source);
        }
    }

    #[test]
    fn an_encoded_step_is_written_as_its_delta() {
        let mut graph = Graph::new();
        graph.intern(0x1000, "Task", "task_struct", 8);
        encodes_as(&vgraph::diff::diff(&Graph::new(), &graph));
    }

    #[test]
    fn commands_round_trip_as_json() {
        let cmd = VCommand::Vchat {
            pane: PaneId(0),
            message: "shrink idle tasks".into(),
        };
        let json = cmd.to_json();
        assert!(json.contains("\"command\":\"vchat\""));
        let back = VCommand::from_json(&json).unwrap();
        assert!(matches!(back, VCommand::Vchat { .. }));
    }

    #[test]
    fn dispatch_runs_the_full_v_command_path() {
        let mut s = crate::Session::builder(build(&WorkloadConfig::default()))
            .profile(LatencyProfile::free())
            .attach()
            .unwrap();
        // vplot over the wire.
        let fig = crate::figures::by_id("fig3-4").unwrap();
        let (graph, _) = s.extract(fig.viewcl).unwrap();
        let resp = dispatch(
            &mut s,
            VCommand::Vplot {
                graph,
                source: fig.viewcl.to_string(),
            },
        );
        let pane = match resp {
            VResponse::Ok { pane: Some(p), .. } => p,
            other => panic!("unexpected {other:?}"),
        };
        // vctrl apply over the wire.
        let resp = dispatch(
            &mut s,
            VCommand::VctrlApply {
                pane,
                viewql:
                    "a = SELECT task_struct FROM * WHERE mm == NULL\nUPDATE a WITH collapsed: true"
                        .into(),
            },
        );
        assert!(matches!(resp, VResponse::Ok { .. }));
        // vchat over the wire.
        let resp = dispatch(
            &mut s,
            VCommand::Vchat {
                pane,
                message: "shrink tasks that have no address space".into(),
            },
        );
        match resp {
            VResponse::Ok {
                synthesized: Some(v),
                ..
            } => assert!(v.contains("mm == NULL")),
            other => panic!("unexpected {other:?}"),
        }
        // Errors come back as Err responses, not panics.
        let resp = dispatch(
            &mut s,
            VCommand::VctrlApply {
                pane,
                viewql: "UPDATE nope WITH x: 1".into(),
            },
        );
        assert!(matches!(resp, VResponse::Err { .. }));
    }
}
