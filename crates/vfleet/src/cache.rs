//! The cross-session share group: one [`FleetCache`] per session-spec
//! fingerprint.
//!
//! Engines whose specs fingerprint identically serve identical graphs
//! for identical `(stop generation, ViewCL)` pairs — the fleet chains
//! tick arguments into the generation key, so diverging mutation
//! histories diverge keys and can never alias. Under that invariant the
//! store is sound by construction; [`FleetCache::publish`] still
//! *asserts* graph equality when two engines race to publish the same
//! key, turning any unsoundness into a loud failure instead of a wrong
//! pane. It compares after releasing the group's lock, so the compare
//! holds no sibling up and a failed assertion poisons nothing they lock.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use vbridge::CacheSnapshot;
use vserve::{SharedExtractions, SharedPlot};

/// Hit/miss accounting for one share group; summed across groups into
/// [`crate::FleetStats`] and reconciled against engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetCacheStats {
    /// `get` calls answered from the store (== engines' `shared_hits`).
    pub hits: u64,
    /// `get` calls that missed (the engine walked locally).
    pub misses: u64,
    /// Extractions newly published.
    pub published: u64,
    /// Publishes that found the key already present (engine race); the
    /// payloads were asserted identical.
    pub duplicates: u64,
    /// Generation-step deltas answered from the store (== engines'
    /// `shared_delta_hits`).
    pub delta_hits: u64,
    /// Generation-step deltas newly published.
    pub delta_published: u64,
    /// Block snapshots adopted as a generation's warm set.
    pub block_snapshots: u64,
}

impl FleetCacheStats {
    /// Sum another group's counters into this one.
    pub fn absorb(&mut self, other: &FleetCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.published += other.published;
        self.duplicates += other.duplicates;
        self.delta_hits += other.delta_hits;
        self.delta_published += other.delta_published;
        self.block_snapshots += other.block_snapshots;
    }
}

#[derive(Default)]
struct Inner {
    plots: HashMap<(u64, String), SharedPlot>,
    /// Canonical `(from, to)` generation-step diffs per source.
    deltas: HashMap<(u64, u64, String), vgraph::diff::GraphDelta>,
    /// Largest published warm-block snapshot per generation (live
    /// engines only; replay tapes fetch their own bytes in order).
    blocks: HashMap<u64, CacheSnapshot>,
    /// Keys some engine is walking right now: siblings briefly wait for
    /// the publish instead of duplicating the walk.
    walking: HashSet<(u64, String)>,
    stats: FleetCacheStats,
}

/// A shared, thread-safe extraction store for one group of engines
/// serving identical sessions.
#[derive(Default)]
pub struct FleetCache {
    inner: Mutex<Inner>,
    published: Condvar,
}

/// How long a `get` waits on a sibling's in-flight walk before giving up
/// and walking itself (bounds the damage of a sibling dying mid-walk).
const WALK_WAIT: Duration = Duration::from_millis(500);

impl FleetCache {
    /// Counter snapshot.
    pub fn stats(&self) -> FleetCacheStats {
        self.inner.lock().unwrap().stats
    }

    /// Number of distinct extractions stored.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().plots.len()
    }

    /// Whether nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SharedExtractions for FleetCache {
    fn get(&self, generation: u64, viewcl: &str) -> Option<SharedPlot> {
        let key = (generation, viewcl.to_string());
        let mut g = self.inner.lock().unwrap();
        let deadline = std::time::Instant::now() + WALK_WAIT;
        loop {
            if let Some(plot) = g.plots.get(&key).cloned() {
                g.stats.hits += 1;
                return Some(plot);
            }
            // A sibling is mid-walk on this very key: waiting for its
            // publish is far cheaper than re-walking, so lockstep
            // engines converge on one walk per key instead of racing.
            let now = std::time::Instant::now();
            if !g.walking.contains(&key) || now >= deadline {
                break;
            }
            let (guard, _) = self.published.wait_timeout(g, deadline - now).unwrap();
            g = guard;
        }
        g.stats.misses += 1;
        g.walking.insert(key);
        None
    }

    fn publish(&self, generation: u64, viewcl: &str, plot: &SharedPlot) {
        let key = (generation, viewcl.to_string());
        let stored = {
            let mut g = self.inner.lock().unwrap();
            g.walking.remove(&key);
            match g.plots.entry(key) {
                Entry::Occupied(e) => {
                    let stored = Arc::clone(&e.get().graph);
                    g.stats.duplicates += 1;
                    Some(stored)
                }
                Entry::Vacant(v) => {
                    v.insert(plot.clone());
                    g.stats.published += 1;
                    None
                }
            }
        };
        self.published.notify_all();
        // Soundness tripwire: equal keys must mean equal graphs.
        if let Some(graph) = stored {
            assert!(
                graph == plot.graph,
                "share-group collision: generation {generation:#x} / `{viewcl}` \
                 published twice with different graphs"
            );
        }
    }

    fn abandon(&self, generation: u64, viewcl: &str) {
        let mut g = self.inner.lock().unwrap();
        g.walking.remove(&(generation, viewcl.to_string()));
        self.published.notify_all();
    }

    fn get_delta(&self, from: u64, to: u64, viewcl: &str) -> Option<vgraph::diff::GraphDelta> {
        let mut g = self.inner.lock().unwrap();
        let hit = g.deltas.get(&(from, to, viewcl.to_string())).cloned();
        if hit.is_some() {
            g.stats.delta_hits += 1;
        }
        hit
    }

    fn publish_delta(&self, from: u64, to: u64, viewcl: &str, delta: &vgraph::diff::GraphDelta) {
        let mut g = self.inner.lock().unwrap();
        if g.deltas
            .insert((from, to, viewcl.to_string()), delta.clone())
            .is_none()
        {
            g.stats.delta_published += 1;
        }
    }

    fn blocks(&self, generation: u64) -> Option<CacheSnapshot> {
        self.inner.lock().unwrap().blocks.get(&generation).cloned()
    }

    fn publish_blocks(&self, generation: u64, snap: CacheSnapshot) {
        let mut g = self.inner.lock().unwrap();
        let keep = match g.blocks.get(&generation) {
            Some(existing) => snap.len() > existing.len(),
            None => true,
        };
        if keep {
            g.blocks.insert(generation, snap);
            g.stats.block_snapshots += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plot() -> SharedPlot {
        plot_of(vgraph::Graph::default())
    }

    fn plot_of(graph: vgraph::Graph) -> SharedPlot {
        SharedPlot {
            graph: Arc::new(graph),
            full_len: 0,
            full: Default::default(),
            tape: None,
        }
    }

    #[test]
    fn publish_then_get_hits_and_counts() {
        let c = FleetCache::default();
        assert!(c.get(1, "fig").is_none());
        c.publish(1, "fig", &plot());
        assert!(c.get(1, "fig").is_some());
        assert!(c.get(2, "fig").is_none(), "other generation is a miss");
        c.publish(1, "fig", &plot());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.published, s.duplicates), (1, 2, 1, 1));
    }

    #[test]
    fn a_colliding_publish_panics_without_poisoning_the_group() {
        let c = Arc::new(FleetCache::default());
        c.publish(1, "fig", &plot());
        let mut other = vgraph::Graph::new();
        other.intern(0x1000, "Task", "task_struct", 8);
        let collide = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.publish(1, "fig", &plot_of(other));
        }));
        assert!(collide.is_err(), "a collision still trips the assertion");
        // A sibling engine's thread keeps using the group.
        let sibling = Arc::clone(&c);
        std::thread::spawn(move || {
            assert!(sibling.get(1, "fig").is_some());
            sibling.publish(2, "fig", &plot());
            assert!(sibling.get(2, "fig").is_some());
        })
        .join()
        .expect("the group's lock is not poisoned");
        let s = c.stats();
        assert_eq!((s.published, s.duplicates, s.hits), (2, 1, 2));
    }
}
