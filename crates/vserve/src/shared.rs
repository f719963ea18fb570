//! Cross-engine extraction sharing: the record an engine's memo serves,
//! and the share group a fleet plugs into its engines.
//!
//! Engines spawned from identical session specs serve identical graphs,
//! so the first engine to walk a `(stop generation, ViewCL)` pair can
//! publish the result and every sibling can serve it without touching
//! its own bridge. For replay engines that sharing is what makes the
//! fleet scale: a shared hit skips an entire tape walk. A replay engine
//! that cannot jump its tape cursor over the sibling's span records the
//! hit in its journal as *owed*, a walk it re-enacts in order the moment
//! a local walk becomes necessary (see [`crate::SessionOp`]). A live
//! engine owes nothing for a hit: its graphs are a function of its image
//! alone.
//!
//! A [`ShareGroup`] indexes the very records the engines' memos hold,
//! and holds them only weakly: a record lives while some memo can serve
//! it or step from it, and the group forgets it with the last such memo.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use visualinux::proto::Json;

/// One extraction: what a memo serves for a source in one stop
/// generation, and what a share group hands its siblings. Shared behind
/// an `Arc`, so publishing and hitting are pointer bumps — a shared hit
/// must not pay a graph deep-clone or a multi-kilobyte re-serialize, or
/// the sharing saves nothing.
pub(crate) struct SharedPlot {
    /// The extracted graph.
    pub(crate) graph: Arc<vgraph::Graph>,
    /// The exact length of the full `vplot` ship of `graph`, measured
    /// by the walking engine without encoding it.
    pub(crate) full_len: usize,
    /// The full `vplot` ship, encoded by the first engine that ships it
    /// in full (the walker, or a sibling serving a shared hit) and then
    /// byte-identical for every engine holding this cell. Empty until
    /// then, so a sibling encodes only if it ships a full plot. A pane
    /// the session kept shares its cell with the record before.
    pub(crate) full: Arc<OnceLock<Arc<str>>>,
    /// The replay-tape event span `[from, to)` this walk consumed, when
    /// the walker serves a capture. Siblings replaying the *same*
    /// capture at the same position can advance their cursor over the
    /// span instead of re-enacting the walk.
    pub(crate) tape: Option<(usize, usize)>,
    /// The step: the structural diff from the previous stop
    /// generation's record of this source to this one, encoded as the
    /// body of a `vplot_delta`. Engines stepping identical histories
    /// step identical graphs, so the first ship that steps from the
    /// previous record, in any engine holding this one, diffs and
    /// encodes it, and every such ship copies it.
    pub(crate) step: OnceLock<Json>,
}

/// Hit/miss accounting for one share group; a fleet sums its groups and
/// reconciles them against the engines' counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShareStats {
    /// Lookups answered from the group (== engines' `shared_hits`).
    pub hits: u64,
    /// Lookups that missed (the engine walked locally).
    pub misses: u64,
    /// Extractions newly published.
    pub published: u64,
    /// Publishes that found a live record under the key (engine race);
    /// the graphs were asserted identical.
    pub duplicates: u64,
}

impl ShareStats {
    /// Sum another group's counters into this one.
    pub fn absorb(&mut self, other: &ShareStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.published += other.published;
        self.duplicates += other.duplicates;
    }
}

/// The extractions shared by one group of engines serving identical
/// sessions. `generation` is the caller-defined stop-generation key: two
/// engines may only observe equal keys when their images went through
/// identical mutation histories (a fleet chains tick arguments into the
/// key to enforce that). Under that invariant sharing is sound by
/// construction; a publish that races a sibling's still *asserts* graph
/// equality, after releasing the lock, so an unsound key fails loudly
/// instead of serving a wrong pane, and poisons nothing siblings lock.
#[derive(Default)]
pub struct ShareGroup {
    inner: Mutex<Index>,
    published: Condvar,
}

#[derive(Default)]
struct Index {
    /// Each published record, until no engine's memo holds it.
    plots: HashMap<(u64, Arc<str>), Weak<SharedPlot>>,
    /// Keys some engine is walking right now: siblings briefly wait for
    /// the publish instead of duplicating the walk.
    walking: HashSet<(u64, Arc<str>)>,
    /// Size of `plots` past which the next publish prunes dead entries.
    prune_at: usize,
    stats: ShareStats,
}

/// How long a lookup waits on a sibling's in-flight walk before giving
/// up and walking itself (bounds the damage of a sibling dying mid-walk).
const WALK_WAIT: Duration = Duration::from_millis(500);

/// Nothing panics while holding a group's lock: a colliding publish
/// asserts after releasing it.
const POISON: &str = "a share group's lock is never held across a panic";

impl ShareGroup {
    /// Counter snapshot.
    pub fn stats(&self) -> ShareStats {
        self.inner.lock().expect(POISON).stats
    }

    /// Records alive in the group: each held by some engine's memo.
    pub fn records(&self) -> usize {
        let g = self.inner.lock().expect(POISON);
        g.plots.values().filter(|w| w.strong_count() > 0).count()
    }

    /// A sibling's record of `source` under `generation`, if one is
    /// alive. A miss claims the key's walk; a lookup of a key another
    /// engine claimed waits up to [`WALK_WAIT`] for its publish.
    pub(crate) fn get(&self, generation: u64, source: &Arc<str>) -> Option<Arc<SharedPlot>> {
        let key = (generation, Arc::clone(source));
        let deadline = Instant::now() + WALK_WAIT;
        let mut g = self.inner.lock().expect(POISON);
        loop {
            if let Some(plot) = g.plots.get(&key).and_then(Weak::upgrade) {
                g.stats.hits += 1;
                return Some(plot);
            }
            // A sibling is mid-walk on this very key: waiting for its
            // publish is far cheaper than re-walking, so lockstep
            // engines converge on one walk per key instead of racing.
            let now = Instant::now();
            if !g.walking.contains(&key) || now >= deadline {
                break;
            }
            g = self
                .published
                .wait_timeout(g, deadline - now)
                .expect(POISON)
                .0;
        }
        g.stats.misses += 1;
        g.walking.insert(key);
        None
    }

    /// Publish a locally walked record for siblings, releasing the
    /// key's claim.
    pub(crate) fn publish(&self, generation: u64, source: &Arc<str>, plot: &Arc<SharedPlot>) {
        let key = (generation, Arc::clone(source));
        let stored = {
            let mut g = self.inner.lock().expect(POISON);
            g.walking.remove(&key);
            let stored = g.plots.get(&key).and_then(Weak::upgrade);
            if stored.is_some() {
                g.stats.duplicates += 1;
            } else {
                g.plots.insert(key, Arc::downgrade(plot));
                g.stats.published += 1;
                // Drop what no memo holds any more once the index has
                // doubled since the last prune: amortized O(1) a publish.
                if g.plots.len() > g.prune_at {
                    g.plots.retain(|_, w| w.strong_count() > 0);
                    g.prune_at = 2 * g.plots.len();
                }
            }
            stored
        };
        self.published.notify_all();
        // Soundness tripwire: equal keys must mean equal graphs.
        if let Some(stored) = stored {
            assert!(
                stored.graph == plot.graph,
                "share-group collision: generation {generation:#x} / `{source}` \
                 published twice with different graphs"
            );
        }
    }

    /// The local walk that followed a missed [`ShareGroup::get`] failed,
    /// so nothing will be published for the key: let the waiters go.
    pub(crate) fn abandon(&self, generation: u64, source: &Arc<str>) {
        let mut g = self.inner.lock().expect(POISON);
        g.walking.remove(&(generation, Arc::clone(source)));
        self.published.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plot() -> Arc<SharedPlot> {
        plot_of(vgraph::Graph::default())
    }

    fn plot_of(graph: vgraph::Graph) -> Arc<SharedPlot> {
        Arc::new(SharedPlot {
            graph: Arc::new(graph),
            full_len: 0,
            full: Default::default(),
            tape: None,
            step: OnceLock::new(),
        })
    }

    fn fig() -> Arc<str> {
        Arc::from("fig")
    }

    #[test]
    fn publish_then_get_hits_and_counts() {
        let c = ShareGroup::default();
        let held = plot();
        assert!(c.get(1, &fig()).is_none());
        c.publish(1, &fig(), &held);
        assert!(c.get(1, &fig()).is_some());
        assert!(c.get(2, &fig()).is_none(), "other generation is a miss");
        c.publish(1, &fig(), &plot());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.published, s.duplicates), (1, 2, 1, 1));
    }

    #[test]
    fn a_record_no_memo_holds_is_forgotten() {
        let c = ShareGroup::default();
        let held = plot();
        c.publish(1, &fig(), &held);
        assert_eq!(c.records(), 1);
        drop(held);
        assert_eq!(c.records(), 0);
        assert!(c.get(1, &fig()).is_none(), "a forgotten record is a miss");
        c.publish(1, &fig(), &plot());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.published, s.duplicates), (0, 1, 2, 0));
    }

    #[test]
    fn a_get_on_a_claimed_key_waits_for_the_publish() {
        let c = Arc::new(ShareGroup::default());
        assert!(
            c.get(1, &fig()).is_none(),
            "the first lookup claims the walk"
        );
        let (asking, asked) = std::sync::mpsc::channel();
        let sibling = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                asking.send(()).unwrap();
                c.get(1, &fig()).is_some()
            })
        };
        asked.recv().unwrap();
        // Give the sibling time to reach its wait. Were it late, its
        // lookup would hit at once and the books would read the same.
        std::thread::sleep(Duration::from_millis(100));
        let held = plot();
        c.publish(1, &fig(), &held);
        assert!(
            sibling.join().unwrap(),
            "the waiting lookup hits the publish"
        );
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.published, s.duplicates), (1, 1, 1, 0));
    }

    #[test]
    fn a_claim_never_published_becomes_a_miss_after_the_walk_wait() {
        let c = ShareGroup::default();
        assert!(
            c.get(1, &fig()).is_none(),
            "the first lookup claims the walk"
        );
        let t0 = Instant::now();
        assert!(c.get(1, &fig()).is_none(), "nothing was published");
        assert!(t0.elapsed() >= WALK_WAIT, "{:?}", t0.elapsed());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 2));
    }

    #[test]
    fn a_colliding_publish_panics_without_poisoning_the_group() {
        let c = Arc::new(ShareGroup::default());
        let held = plot();
        c.publish(1, &fig(), &held);
        let mut other = vgraph::Graph::new();
        other.intern(0x1000, "Task", "task_struct", 8);
        let collide = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.publish(1, &fig(), &plot_of(other));
        }));
        assert!(collide.is_err(), "a collision still trips the assertion");
        // A sibling engine's thread keeps using the group.
        let sibling = Arc::clone(&c);
        std::thread::spawn(move || {
            assert!(sibling.get(1, &fig()).is_some());
            let held = plot();
            sibling.publish(2, &fig(), &held);
            assert!(sibling.get(2, &fig()).is_some());
        })
        .join()
        .expect("the group's lock is not poisoned");
        let s = c.stats();
        assert_eq!((s.published, s.duplicates, s.hits), (2, 1, 2));
    }
}
