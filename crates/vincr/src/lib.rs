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
//! * each retained pane keeps, beside its graph, the address spans its
//!   last walk read (derived by `Target::end_walk` from the walk's
//!   `ReadRecord`);
//! * at every resume, [`decide`] intersects the stop's dirty set once
//!   with the spans of each pane not yet stale. A pane whose spans miss
//!   it stays current, and the next request is served its retained
//!   graph as-is, with no fetch (a *hit*); anything else is marked
//!   stale — every pane, when dirty info is unknown (the degradation
//!   ladder's bottom rung);
//! * a stale pane on a cached session is checked by content before it
//!   re-walks: its footprint is fetched, as on any cached session's
//!   first walk after a resume, and if every byte its last walk was
//!   served is unchanged the retained graph is served (a hit again);
//!   otherwise, or with no snapshot to compare, it re-walks. This also
//!   keeps a pane whose dirty hit rewrote its bytes with the same
//!   values;
//! * a re-walked pane's fresh graph replaces its retained one outright.
//!   The delta a client sees is computed once, by vserve, from the graph
//!   it last shipped — so the wire cost of a refresh is proportional to
//!   what actually changed.
//!
//! The session (`visualinux::Session`) holds those per-pane records, so
//! a dirty-set keep costs a flag read, however many stops ago the pane
//! was walked. A plain cached session, whose resumes say nothing about
//! what changed, keeps panes by the content check alone.
//!
//! The subsystem never *improves* fidelity claims by guessing: every
//! shortcut is justified by an exact dirty set or an exact comparison
//! of bytes, and the equivalence suite checks the incremental result
//! byte-identical to a fresh extraction.

use vbridge::{DirtyInfo, DirtySet};

/// Why a pane could not be served from its retained graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewalkReason {
    /// The dirty set intersects a span the pane read last time.
    DirtyOverlap,
    /// The backend could not say what changed; correctness demands a
    /// full re-walk (the degradation ladder's bottom rung).
    UnknownDirty,
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
/// extraction.
pub fn decide(touched: &DirtySet, dirty: &DirtyInfo) -> Decision {
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
        assert_eq!(decide(&touched, &clean), Decision::Keep);
        // Exact dirty info, overlap: rewalk.
        let hit = DirtyInfo::Known(set(&[(0x1038, 16)]));
        assert_eq!(
            decide(&touched, &hit),
            Decision::Rewalk(RewalkReason::DirtyOverlap)
        );
        // Unknown dirty info: rewalk, always.
        assert_eq!(
            decide(&touched, &DirtyInfo::Unknown),
            Decision::Rewalk(RewalkReason::UnknownDirty)
        );
    }
}
