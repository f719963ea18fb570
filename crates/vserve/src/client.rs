//! The client-side replica: applies `vplot`/`vplot_delta` payloads and
//! produces the `vack`s the server uses to detect sync loss.

use std::collections::HashMap;

use vgraph::{diff, DeltaSummary, Graph};
use visualinux::proto::{VCommand, VResponse};

use crate::ServeError;

/// What one server line did to the replica.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplicaEvent {
    /// A full plot (re)established the baseline for `source`.
    Full {
        /// The plot's ViewCL source.
        source: String,
    },
    /// A delta advanced `source` to `seq`.
    Delta {
        /// The plot's ViewCL source.
        source: String,
        /// Sequence after applying.
        seq: u64,
        /// What the delta changed.
        summary: DeltaSummary,
    },
    /// A plain response (ok/error) to a non-plot command.
    Response(VResponse),
}

/// Client-side mirror of every plot this client subscribed to.
#[derive(Default)]
pub struct Replica {
    plots: HashMap<String, (u64, Graph)>,
}

impl Replica {
    /// An empty replica.
    pub fn new() -> Replica {
        Replica::default()
    }

    /// Apply one server line. Graph payloads update the mirror; anything
    /// else is surfaced as [`ReplicaEvent::Response`].
    pub fn apply_line(&mut self, line: &str) -> Result<ReplicaEvent, ServeError> {
        if let Ok(cmd) = VCommand::from_json(line) {
            return self.apply_command(cmd);
        }
        match VResponse::from_json(line) {
            Ok(resp) => Ok(ReplicaEvent::Response(resp)),
            Err(e) => Err(ServeError::Protocol(format!("unparseable reply: {e}"))),
        }
    }

    fn apply_command(&mut self, cmd: VCommand) -> Result<ReplicaEvent, ServeError> {
        match cmd {
            VCommand::Vplot { graph, source } => {
                self.plots.insert(source.clone(), (0, graph));
                Ok(ReplicaEvent::Full { source })
            }
            VCommand::VplotDelta { source, seq, delta } => {
                let Some((have, graph)) = self.plots.get_mut(&source) else {
                    return Err(ServeError::OutOfSync(format!(
                        "delta for `{source}` but no baseline"
                    )));
                };
                if seq != *have + 1 {
                    return Err(ServeError::OutOfSync(format!(
                        "delta seq {seq} after {have}"
                    )));
                }
                let summary = delta.summary;
                diff::apply_in_place(graph, delta)
                    .map_err(|e| ServeError::OutOfSync(e.to_string()))?;
                *have = seq;
                Ok(ReplicaEvent::Delta {
                    source,
                    seq,
                    summary,
                })
            }
            other => Err(ServeError::Protocol(format!(
                "server pushed unexpected command {other:?}"
            ))),
        }
    }

    /// The mirrored graph for a source, if subscribed.
    pub fn graph(&self, source: &str) -> Option<&Graph> {
        self.plots.get(source).map(|(_, g)| g)
    }

    /// Current sequence for a source (0 after a full ship).
    pub fn seq(&self, source: &str) -> Option<u64> {
        self.plots.get(source).map(|(s, _)| *s)
    }

    /// The acknowledgement for a source's current state, stamped with
    /// the protocol revision this build speaks
    /// ([`visualinux::proto::VERSION`]).
    pub fn ack(&self, source: &str) -> Option<VCommand> {
        self.plots.get(source).map(|(seq, _)| VCommand::Vack {
            source: source.to_string(),
            seq: *seq,
            proto: visualinux::proto::VERSION,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(v: i64) -> Graph {
        let mut g = Graph::new();
        let (a, _) = g.intern(0x10, "N", "node", 8);
        g.get_mut(a).views.push(vgraph::ViewInst {
            name: "default".into(),
            items: vec![vgraph::Item::Text {
                name: "v".into(),
                value: v.to_string(),
                raw: Some(v),
            }],
        });
        g.roots.push(a);
        g
    }

    #[test]
    fn full_then_delta_then_ack() {
        let mut r = Replica::new();
        let base = graph(1);
        let next = graph(2);
        let ev = r
            .apply_line(
                &VCommand::Vplot {
                    graph: base.clone(),
                    source: "src".into(),
                }
                .to_json(),
            )
            .unwrap();
        assert_eq!(
            ev,
            ReplicaEvent::Full {
                source: "src".into()
            }
        );
        assert_eq!(r.seq("src"), Some(0));

        let d = VCommand::VplotDelta {
            source: "src".into(),
            seq: 1,
            delta: diff::diff(&base, &next),
        };
        let ev = r.apply_line(&d.to_json()).unwrap();
        assert!(matches!(ev, ReplicaEvent::Delta { seq: 1, .. }));
        assert_eq!(r.graph("src").unwrap().to_json(), next.to_json());
        let ack = r.ack("src").unwrap();
        assert!(matches!(ack, VCommand::Vack { seq: 1, .. }), "{ack:?}");
    }

    #[test]
    fn out_of_order_delta_is_rejected() {
        let mut r = Replica::new();
        let base = graph(1);
        r.apply_line(
            &VCommand::Vplot {
                graph: base.clone(),
                source: "src".into(),
            }
            .to_json(),
        )
        .unwrap();
        let d = VCommand::VplotDelta {
            source: "src".into(),
            seq: 5,
            delta: diff::diff(&base, &graph(2)),
        };
        assert!(matches!(
            r.apply_line(&d.to_json()),
            Err(ServeError::OutOfSync(_))
        ));
        // And a delta with no baseline at all.
        let mut fresh = Replica::new();
        assert!(matches!(
            fresh.apply_line(&d.to_json()),
            Err(ServeError::OutOfSync(_))
        ));
    }

    #[test]
    fn oversized_new_len_is_refused_and_the_replica_stays_usable() {
        let mut r = Replica::new();
        let base = graph(1);
        r.apply_line(
            &VCommand::Vplot {
                graph: base.clone(),
                source: "src".into(),
            }
            .to_json(),
        )
        .unwrap();
        // A matching `base_len` gets a delta past the first check; a
        // slot table sized by this `new_len` would take hundreds of GB.
        let mut oversized = diff::diff(&base, &graph(2));
        oversized.new_len = u32::MAX;
        // Applied, this link would leave a graph whose edges name a box
        // it does not have.
        let mut dangling = diff::diff(&base, &graph(2));
        std::sync::Arc::make_mut(&mut dangling.boxes[0]).views[0]
            .items
            .push(vgraph::Item::Link {
                name: "next".into(),
                target: vgraph::BoxId(99),
            });
        for (delta, named) in [(oversized, "new_len 4294967295"), (dangling, "no box 99")] {
            let hostile = VCommand::VplotDelta {
                source: "src".into(),
                seq: 1,
                delta,
            };
            match r.apply_line(&hostile.to_json()) {
                Err(ServeError::OutOfSync(m)) => assert!(m.contains(named), "{m}"),
                other => panic!("hostile delta applied: {other:?}"),
            }
            assert_eq!(r.graph("src"), Some(&base));
            assert_eq!(r.seq("src"), Some(0));
        }

        let good = VCommand::VplotDelta {
            source: "src".into(),
            seq: 1,
            delta: diff::diff(&base, &graph(2)),
        };
        r.apply_line(&good.to_json()).unwrap();
        assert_eq!(r.graph("src"), Some(&graph(2)));
        assert_eq!(r.seq("src"), Some(1));
    }
}
