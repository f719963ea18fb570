//! Fleet-wide accounting and its reconciliation invariants.

use serde::{Deserialize, Serialize};
use vserve::{ServeStats, ShareStats};

/// Aggregated fleet totals: lifecycle counters, the summed per-engine
/// [`ServeStats`], and the summed share-group [`ShareStats`].
///
/// Engine books settle when an engine retires (eviction or fleet
/// shutdown) — a resident engine's counters live on its own thread and
/// cannot be read mid-flight. A snapshot taken while engines are still
/// resident therefore under-counts `engine` relative to `cache`, and
/// [`FleetStats::reconcile`] is only expected to pass on the snapshot
/// returned by [`crate::Fleet::shutdown`].
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct FleetStats {
    /// Sessions registered.
    pub sessions: u64,
    /// Engines currently resident.
    pub resident: u64,
    /// Engine spawns, total (first spawns + respawns).
    pub spawns: u64,
    /// Spawns that rebuilt a previously evicted session.
    pub respawns: u64,
    /// Engines retired by the LRU budget.
    pub evictions: u64,
    /// Successful `vattach` routings.
    pub attaches: u64,
    /// Rejected routing frames (unknown session, or a first frame that
    /// was not `vattach`).
    pub routing_errors: u64,
    /// Summed per-engine serving totals (settled books only).
    pub engine: ServeStats,
    /// Summed share-group totals.
    pub cache: ShareStats,
}

impl FleetStats {
    /// Cross-layer bookkeeping invariants, checked bit-for-bit against
    /// the summed engine books. Call on the [`crate::Fleet::shutdown`]
    /// snapshot; see the type docs for why mid-flight snapshots differ.
    pub fn reconcile(&self) -> Result<(), String> {
        self.engine.reconcile()?;
        if self.cache.hits != self.engine.shared_hits {
            return Err(format!(
                "cache hits ({}) != engines' shared hits ({})",
                self.cache.hits, self.engine.shared_hits
            ));
        }
        // Every local walk publishes exactly once: new key or duplicate.
        if self.cache.published + self.cache.duplicates != self.engine.walks {
            return Err(format!(
                "published ({}) + duplicates ({}) != walks ({})",
                self.cache.published, self.cache.duplicates, self.engine.walks
            ));
        }
        // Every walk started as a miss; a miss may exceed walks only by
        // extractions that failed after the lookup.
        if self.cache.misses < self.engine.walks {
            return Err(format!(
                "cache misses ({}) cannot cover walks ({})",
                self.cache.misses, self.engine.walks
            ));
        }
        if self.respawns > self.spawns {
            return Err(format!(
                "respawns ({}) exceed spawns ({})",
                self.respawns, self.spawns
            ));
        }
        if self.evictions > self.spawns {
            return Err(format!(
                "evictions ({}) exceed spawns ({})",
                self.evictions, self.spawns
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconcile_accepts_settled_books() {
        let s = FleetStats {
            sessions: 2,
            spawns: 3,
            respawns: 1,
            evictions: 1,
            engine: ServeStats {
                requests: 10,
                plot_requests: 10,
                extractions: 10,
                walks: 4,
                coalesced: 3,
                shared_hits: 3,
                fulls_sent: 10,
                ..ServeStats::default()
            },
            cache: ShareStats {
                hits: 3,
                misses: 4,
                published: 4,
                ..ShareStats::default()
            },
            ..FleetStats::default()
        };
        s.reconcile().unwrap();
    }

    #[test]
    fn reconcile_catches_unaccounted_shared_hits() {
        let s = FleetStats {
            engine: ServeStats {
                plot_requests: 2,
                requests: 2,
                extractions: 2,
                walks: 1,
                shared_hits: 1,
                fulls_sent: 2,
                ..ServeStats::default()
            },
            cache: ShareStats {
                hits: 2, // one hit too many
                misses: 1,
                published: 1,
                ..ShareStats::default()
            },
            ..FleetStats::default()
        };
        assert!(s.reconcile().is_err());
    }
}
