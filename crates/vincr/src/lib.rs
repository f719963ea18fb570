//! Incremental pane re-extraction between stops.
//!
//! When the kernel runs briefly and stops again, most retained panes are
//! still correct: a scheduler tick touches a handful of `task_struct`
//! fields, not the VFS mount tree. `vincr` turns that observation into a
//! cost model:
//!
//! * the backend reports which byte ranges changed across the resume
//!   ([`vbridge::DirtyInfo`] — `ksim` knows exactly, a record wire tapes
//!   it, a replay wire reproduces it, anything else says `Unknown`);
//! * a [`TouchedIndex`] remembers which address spans each retained pane
//!   read during its last extraction (collected by
//!   `Target::set_touched_tracking`);
//! * [`decide`] intersects the two: a pane whose touched spans miss the
//!   dirty set keeps its retained graph verbatim (a *hit*), anything
//!   else re-walks — including everything, when dirty info is unknown
//!   (the degradation ladder's bottom rung is exactly the old
//!   whole-epoch behaviour);
//! * a re-walked pane's fresh graph replaces its retained one outright.
//!   The delta a client sees is computed once, by vserve, from the graph
//!   it last shipped — so the wire cost of a refresh is proportional to
//!   what actually changed.
//!
//! The subsystem never *improves* fidelity claims by guessing: every
//! shortcut is justified by an exact dirty set, and the equivalence
//! suite checks the incremental result byte-identical to a fresh
//! extraction.

use std::collections::BTreeMap;

use vbridge::{DirtyInfo, DirtySet};

/// Why a pane could not be served from its retained graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewalkReason {
    /// The dirty set intersects a span the pane read last time.
    DirtyOverlap,
    /// The backend could not say what changed; correctness demands a
    /// full re-walk (the degradation ladder's bottom rung).
    UnknownDirty,
    /// No touched spans are on file for this pane (first extraction, or
    /// tracking was off) — nothing to prove a keep with.
    Untracked,
}

/// The per-pane refresh decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The retained graph is provably current: serve it as-is.
    Keep,
    /// Re-extract the pane; the fresh graph replaces the retained one.
    Rewalk(RewalkReason),
}

impl Decision {
    /// Whether the retained graph survives.
    pub fn is_keep(&self) -> bool {
        matches!(self, Decision::Keep)
    }
}

/// Decide whether a retained pane survives the mutation described by
/// `dirty`. `touched` is the span set the pane read during its last
/// extraction, or `None` when no index entry exists.
pub fn decide(touched: Option<&DirtySet>, dirty: &DirtyInfo) -> Decision {
    let Some(touched) = touched else {
        return Decision::Rewalk(RewalkReason::Untracked);
    };
    match dirty {
        DirtyInfo::Unknown => Decision::Rewalk(RewalkReason::UnknownDirty),
        DirtyInfo::Known(set) => {
            if set.intersects(touched.ranges()) {
                Decision::Rewalk(RewalkReason::DirtyOverlap)
            } else {
                Decision::Keep
            }
        }
    }
}

/// Which address spans each retained pane read during its last
/// extraction, keyed by pane label. Spans are normalized ([`DirtySet`])
/// so the per-resume intersection is a cheap sorted-range walk.
#[derive(Debug, Default, Clone)]
pub struct TouchedIndex {
    panes: BTreeMap<String, DirtySet>,
}

impl TouchedIndex {
    /// An empty index.
    pub fn new() -> Self {
        TouchedIndex::default()
    }

    /// Replace `pane`'s span set with the freshly recorded accesses.
    pub fn record(&mut self, pane: &str, spans: impl IntoIterator<Item = (u64, u64)>) {
        self.panes
            .insert(pane.to_string(), DirtySet::from_ranges(spans));
    }

    /// The spans on file for `pane`, if any.
    pub fn get(&self, pane: &str) -> Option<&DirtySet> {
        self.panes.get(pane)
    }

    /// Drop `pane`'s entry (its retained graph was discarded).
    pub fn forget(&mut self, pane: &str) {
        self.panes.remove(pane);
    }

    /// Number of panes on file.
    pub fn len(&self) -> usize {
        self.panes.len()
    }

    /// Whether no panes are on file.
    pub fn is_empty(&self) -> bool {
        self.panes.is_empty()
    }

    /// Every `(pane, spans)` entry, in pane order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &DirtySet)> {
        self.panes.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Union of every pane's spans — the addresses whose blocks must be
    /// invalidated before any pane re-walks (everything else in the
    /// snapshot cache is provably still byte-fresh only if clean, so
    /// callers intersect this with the dirty set instead).
    pub fn union(&self) -> DirtySet {
        DirtySet::from_ranges(self.panes.values().flat_map(|s| s.ranges().iter().copied()))
    }
}

/// Outcome counters for one whole refresh (all panes of one stop).
/// Feed these to `Target::note_incr` so live runs and replays report
/// byte-identical `vincr_*` stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Panes served from their retained graph.
    pub hits: u64,
    /// Panes re-walked.
    pub rewalks: u64,
    /// Mutated bytes the backend reported (0 when unknown).
    pub dirty_bytes: u64,
}

impl RefreshStats {
    /// Record one pane's decision.
    pub fn note(&mut self, d: Decision) {
        match d {
            Decision::Keep => self.hits += 1,
            Decision::Rewalk(_) => self.rewalks += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ranges: &[(u64, u64)]) -> DirtySet {
        DirtySet::from_ranges(ranges.iter().copied())
    }

    #[test]
    fn decide_walks_the_degradation_ladder() {
        let touched = set(&[(0x1000, 64), (0x3000, 8)]);
        // Exact dirty info, no overlap: keep.
        let clean = DirtyInfo::Known(set(&[(0x2000, 8)]));
        assert_eq!(decide(Some(&touched), &clean), Decision::Keep);
        // Exact dirty info, overlap: rewalk.
        let hit = DirtyInfo::Known(set(&[(0x1038, 16)]));
        assert_eq!(
            decide(Some(&touched), &hit),
            Decision::Rewalk(RewalkReason::DirtyOverlap)
        );
        // Unknown dirty info: rewalk, always.
        assert_eq!(
            decide(Some(&touched), &DirtyInfo::Unknown),
            Decision::Rewalk(RewalkReason::UnknownDirty)
        );
        // No index entry: rewalk even when provably clean.
        assert_eq!(
            decide(None, &clean),
            Decision::Rewalk(RewalkReason::Untracked)
        );
    }

    #[test]
    fn touched_index_normalizes_and_unions() {
        let mut idx = TouchedIndex::new();
        idx.record("a", [(0x100, 8), (0x108, 8), (0x300, 4)]);
        idx.record("b", [(0x200, 16)]);
        assert_eq!(idx.get("a").unwrap().ranges(), &[(0x100, 16), (0x300, 4)]);
        assert_eq!(
            idx.union().ranges(),
            &[(0x100, 16), (0x200, 16), (0x300, 4)]
        );
        assert_eq!(idx.len(), 2);
        idx.forget("a");
        assert!(idx.get("a").is_none());
        // Re-recording replaces rather than accumulates.
        idx.record("b", [(0x500, 4)]);
        assert_eq!(idx.get("b").unwrap().ranges(), &[(0x500, 4)]);
    }

    #[test]
    fn refresh_stats_tally_decisions() {
        let mut st = RefreshStats::default();
        st.note(Decision::Keep);
        st.note(Decision::Rewalk(RewalkReason::DirtyOverlap));
        st.note(Decision::Keep);
        st.dirty_bytes = 20;
        assert_eq!(
            st,
            RefreshStats {
                hits: 2,
                rewalks: 1,
                dirty_bytes: 20
            }
        );
    }
}
