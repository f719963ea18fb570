//! Serving-side accounting, threaded through every request.

use serde::{Deserialize, Serialize};

/// Counters the server keeps while it runs. The `walk_*` block mirrors
/// the bridge's `TargetStats` for the walks this server actually paid
/// for, so an external audit (`table4 --serve`) can reconcile serving
/// totals against the vtrace clock bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Commands received (including malformed ones).
    pub requests: u64,
    /// `vplot_request` commands among them.
    pub plot_requests: u64,
    /// Stop events processed.
    pub stops: u64,
    /// Extraction results served (`walks + coalesced`).
    pub extractions: u64,
    /// Bridge walks actually performed.
    pub walks: u64,
    /// Full `vplot` payloads serialized. A payload is encoded only for a
    /// full plot that ships, once per graph: later full ships of that
    /// graph (to another client, after a pane an incremental session
    /// kept, or by a fleet sibling holding the same payload) reuse it,
    /// and a graph that only ever ships as deltas is never encoded.
    pub full_encodes: u64,
    /// Extraction requests answered from a concurrent/identical walk.
    pub coalesced: u64,
    /// Extraction requests answered from a fleet's share group — a
    /// sibling engine paid the walk.
    pub shared_hits: u64,
    /// Structural diffs computed. A record's step (from the previous
    /// generation's record) is diffed once, by the first ship that steps
    /// from that record, for every client of the engine and of its share
    /// group's siblings, whatever their sequence numbers: one diff per
    /// source and generation step. Any other base is diffed for its
    /// client alone.
    pub diffs: u64,
    /// Owed walks re-enacted to catch a replay session up on its
    /// journal before a local walk: shared hits whose tape span it could
    /// not jump, or a fleet respawn's history.
    pub catchup_walks: u64,
    /// Shared hits absorbed by jumping the replay cursor over the
    /// sibling's published tape span instead of re-enacting the walk.
    pub tape_skips: u64,
    /// Full `vplot` payloads shipped.
    pub fulls_sent: u64,
    /// `vplot_delta` payloads shipped.
    pub deltas_sent: u64,
    /// Bytes of full payloads shipped.
    pub full_bytes_sent: u64,
    /// Bytes of delta payloads shipped.
    pub delta_bytes_sent: u64,
    /// Bytes a full re-ship would have cost minus what the delta cost.
    pub delta_bytes_saved: u64,
    /// Plots refused because their payload would exceed the wire's
    /// frame cap ([`crate::framing::MAX_FRAME`]): each is answered with
    /// an error, and its subscription ships in full next.
    pub oversized: u64,
    /// `vack` commands processed.
    pub acks: u64,
    /// Subscriptions forced back to a full ship by a bad/missing ack.
    pub resyncs: u64,
    /// Requests answered with an error response.
    pub errors: u64,
    /// Replies dropped because the client had disconnected.
    pub dropped_replies: u64,
    /// Deepest the request queue or any client outbox ever got.
    pub queue_depth_max: u64,
    /// Wire packets of all walks (mirrors `TargetStats.reads`).
    pub walk_packets: u64,
    /// Bytes transferred by all walks.
    pub walk_bytes: u64,
    /// Virtual nanoseconds of all walks.
    pub walk_virtual_ns: u64,
    /// Cache hits of all walks.
    pub walk_cache_hits: u64,
    /// Faulting packets of all walks.
    pub walk_faults: u64,
}

impl ServeStats {
    /// Internal bookkeeping invariants. A violation means the serving
    /// loop lost track of work — the condition `table4 --serve` turns
    /// into a non-zero exit.
    pub fn reconcile(&self) -> Result<(), String> {
        if self.extractions != self.walks + self.coalesced + self.shared_hits {
            return Err(format!(
                "extractions ({}) != walks ({}) + coalesced ({}) + shared hits ({})",
                self.extractions, self.walks, self.coalesced, self.shared_hits
            ));
        }
        // An encode fills the payload of a graph this engine walked or
        // took from a sibling, and only for a full plot that ships.
        if self.full_encodes > self.walks + self.shared_hits {
            return Err(format!(
                "full encodes ({}) > walks ({}) + shared hits ({})",
                self.full_encodes, self.walks, self.shared_hits
            ));
        }
        if self.full_encodes > self.fulls_sent {
            return Err(format!(
                "full encodes ({}) > full ships ({}) — a full plot was \
                 encoded that never shipped",
                self.full_encodes, self.fulls_sent
            ));
        }
        if self.fulls_sent + self.deltas_sent + self.oversized != self.extractions {
            return Err(format!(
                "fulls ({}) + deltas ({}) + oversized ({}) != extractions ({})",
                self.fulls_sent, self.deltas_sent, self.oversized, self.extractions
            ));
        }
        // A delta is only chosen when strictly smaller than the full ship.
        if self.delta_bytes_saved < self.deltas_sent {
            return Err(format!(
                "{} deltas saved only {} bytes — some delta cannot have \
                 been smaller than its full payload",
                self.deltas_sent, self.delta_bytes_saved
            ));
        }
        if self.plot_requests > self.requests || self.acks > self.requests {
            return Err("more plot requests or acks than requests".into());
        }
        if self.plot_requests < self.extractions {
            return Err(format!(
                "plot requests ({}) cannot cover extractions ({})",
                self.plot_requests, self.extractions
            ));
        }
        Ok(())
    }

    /// Fold another engine's totals into this one (fleet aggregation).
    /// Counters sum; high-water marks take the max.
    pub fn absorb(&mut self, other: &ServeStats) {
        self.requests += other.requests;
        self.plot_requests += other.plot_requests;
        self.stops += other.stops;
        self.extractions += other.extractions;
        self.walks += other.walks;
        self.full_encodes += other.full_encodes;
        self.coalesced += other.coalesced;
        self.shared_hits += other.shared_hits;
        self.diffs += other.diffs;
        self.catchup_walks += other.catchup_walks;
        self.tape_skips += other.tape_skips;
        self.fulls_sent += other.fulls_sent;
        self.deltas_sent += other.deltas_sent;
        self.full_bytes_sent += other.full_bytes_sent;
        self.delta_bytes_sent += other.delta_bytes_sent;
        self.delta_bytes_saved += other.delta_bytes_saved;
        self.oversized += other.oversized;
        self.acks += other.acks;
        self.resyncs += other.resyncs;
        self.errors += other.errors;
        self.dropped_replies += other.dropped_replies;
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.walk_packets += other.walk_packets;
        self.walk_bytes += other.walk_bytes;
        self.walk_virtual_ns += other.walk_virtual_ns;
        self.walk_cache_hits += other.walk_cache_hits;
        self.walk_faults += other.walk_faults;
    }

    /// Requests per wall-clock second.
    pub fn requests_per_sec(&self, wall: std::time::Duration) -> f64 {
        if wall.is_zero() {
            return 0.0;
        }
        self.requests as f64 / wall.as_secs_f64()
    }

    /// Fraction of extraction results served without a bridge walk.
    pub fn coalesce_rate(&self) -> f64 {
        if self.extractions == 0 {
            return 0.0;
        }
        self.coalesced as f64 / self.extractions as f64
    }
}

/// Counters a [`crate::WirePump`] keeps while it sweeps. Orthogonal to
/// [`ServeStats`] (which books engine work): these book the wire itself
/// — lanes, handshakes, frames, and the fairness machinery's decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireStats {
    /// Connections taken on as lanes.
    pub accepted: u64,
    /// Connections refused over the connection limit.
    pub refused: u64,
    /// Lanes that opened with a well-formed `VWHI` hello.
    pub hello_binary: u64,
    /// Handshakes rejected for version skew.
    pub version_skews: u64,
    /// Routing frames answered with an error (client may retry).
    pub routing_retries: u64,
    /// Frames admitted into an engine.
    pub frames_in: u64,
    /// Reply frames encoded toward clients.
    pub frames_out: u64,
    /// Raw bytes read off all lanes.
    pub bytes_in: u64,
    /// Raw bytes written to all lanes.
    pub bytes_out: u64,
    /// Fatal framing failures, a first frame that is not a hello among
    /// them (positioned diagnostics sent, lane closed).
    pub decode_errors: u64,
    /// Admissions deferred because the reply window or request queue was
    /// full — the backpressure gate that keeps the engine nonblocking.
    pub engine_busy: u64,
    /// Lane visits skipped because the client's out-buffer hit the
    /// stall limit.
    pub stalled_skips: u64,
    /// Most lanes ever concurrently live.
    pub lanes_max: u64,
    /// Full round-robin sweeps performed.
    pub sweeps: u64,
}

impl WireStats {
    /// Internal bookkeeping invariants for the wire layer.
    pub fn reconcile(&self) -> Result<(), String> {
        if self.hello_binary > self.accepted {
            return Err(format!(
                "more hellos ({}) than accepted lanes ({})",
                self.hello_binary, self.accepted
            ));
        }
        if self.version_skews > self.hello_binary {
            return Err(format!(
                "version skews ({}) exceed binary handshakes ({})",
                self.version_skews, self.hello_binary
            ));
        }
        if self.lanes_max > self.accepted {
            return Err(format!(
                "lane high-water ({}) exceeds accepted lanes ({})",
                self.lanes_max, self.accepted
            ));
        }
        Ok(())
    }

    /// Fold another pump's totals into this one. Counters sum;
    /// high-water marks take the max.
    pub fn absorb(&mut self, other: &WireStats) {
        self.accepted += other.accepted;
        self.refused += other.refused;
        self.hello_binary += other.hello_binary;
        self.version_skews += other.version_skews;
        self.routing_retries += other.routing_retries;
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.decode_errors += other.decode_errors;
        self.engine_busy += other.engine_busy;
        self.stalled_skips += other.stalled_skips;
        self.lanes_max = self.lanes_max.max(other.lanes_max);
        self.sweeps += other.sweeps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_reconcile_and_absorb() {
        let a = WireStats {
            accepted: 4,
            hello_binary: 3,
            version_skews: 1,
            frames_in: 10,
            frames_out: 9,
            lanes_max: 3,
            ..WireStats::default()
        };
        a.reconcile().unwrap();
        let b = WireStats {
            accepted: 2,
            hello_binary: 2,
            lanes_max: 2,
            ..WireStats::default()
        };
        let mut sum = a;
        sum.absorb(&b);
        assert_eq!(sum.accepted, 6);
        assert_eq!(sum.lanes_max, 3);
        sum.reconcile().unwrap();
        let bad = WireStats {
            accepted: 1,
            version_skews: 1,
            ..WireStats::default()
        };
        assert!(bad.reconcile().is_err());
    }

    #[test]
    fn reconcile_accepts_consistent_books() {
        let s = ServeStats {
            requests: 10,
            plot_requests: 8,
            extractions: 8,
            walks: 3,
            coalesced: 5,
            fulls_sent: 6,
            deltas_sent: 2,
            delta_bytes_saved: 1000,
            acks: 2,
            ..ServeStats::default()
        };
        s.reconcile().unwrap();
        assert!((s.coalesce_rate() - 0.625).abs() < 1e-9);
    }

    #[test]
    fn absorb_sums_counters_and_maxes_high_water() {
        let a = ServeStats {
            requests: 4,
            plot_requests: 3,
            extractions: 3,
            walks: 1,
            shared_hits: 2,
            fulls_sent: 3,
            queue_depth_max: 7,
            ..ServeStats::default()
        };
        let b = ServeStats {
            requests: 6,
            plot_requests: 5,
            extractions: 5,
            walks: 2,
            coalesced: 3,
            fulls_sent: 5,
            queue_depth_max: 3,
            ..ServeStats::default()
        };
        let mut sum = a;
        sum.absorb(&b);
        assert_eq!(sum.requests, 10);
        assert_eq!(sum.extractions, 8);
        assert_eq!(sum.shared_hits, 2);
        assert_eq!(sum.queue_depth_max, 7);
        sum.reconcile().unwrap();
    }

    #[test]
    fn reconcile_catches_lost_walks() {
        let s = ServeStats {
            extractions: 5,
            walks: 3,
            coalesced: 1,
            ..ServeStats::default()
        };
        assert!(s.reconcile().is_err());
    }

    #[test]
    fn reconcile_catches_more_encodes_than_walks() {
        let settled = ServeStats {
            requests: 3,
            plot_requests: 3,
            extractions: 3,
            walks: 2,
            coalesced: 1,
            full_encodes: 2,
            fulls_sent: 3,
            ..ServeStats::default()
        };
        settled.reconcile().unwrap();
        let s = ServeStats {
            full_encodes: 3,
            ..settled
        };
        let err = s.reconcile().unwrap_err();
        assert!(err.contains("walks"), "{err}");
        // A fleet sibling that ships a shared hit's plot in full encodes
        // a graph it never walked.
        let sibling = ServeStats {
            requests: 1,
            plot_requests: 1,
            extractions: 1,
            shared_hits: 1,
            full_encodes: 1,
            fulls_sent: 1,
            ..ServeStats::default()
        };
        sibling.reconcile().unwrap();
    }

    #[test]
    fn reconcile_catches_an_encode_that_never_shipped() {
        let settled = ServeStats {
            requests: 2,
            plot_requests: 2,
            extractions: 2,
            walks: 2,
            full_encodes: 1,
            fulls_sent: 1,
            deltas_sent: 1,
            delta_bytes_saved: 900,
            ..ServeStats::default()
        };
        settled.reconcile().unwrap();
        let s = ServeStats {
            full_encodes: 2,
            ..settled
        };
        let err = s.reconcile().unwrap_err();
        assert!(err.contains("full ships"), "{err}");
    }

    #[test]
    fn reconcile_catches_unsaved_deltas() {
        let s = ServeStats {
            plot_requests: 2,
            extractions: 2,
            walks: 2,
            fulls_sent: 1,
            deltas_sent: 1,
            delta_bytes_saved: 0,
            requests: 2,
            ..ServeStats::default()
        };
        assert!(s.reconcile().is_err());
    }
}
