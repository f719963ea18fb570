//! Cross-engine extraction sharing — the hook a fleet plugs into its
//! engines.
//!
//! Engines spawned from identical session specs serve identical graphs,
//! so the first engine to walk a `(stop generation, ViewCL)` pair can
//! publish the result and every sibling can serve it without touching
//! its own bridge. For replay engines that sharing is what makes the
//! fleet scale: a shared hit skips an entire tape walk. The engine
//! records each shared hit as *lag* — a deferred local re-extraction —
//! so its session (and, for replay backends, the strict in-order tape
//! cursor) can be caught up the moment a local walk becomes necessary.

use std::sync::{Arc, OnceLock};

/// One shareable extraction result. Graph and payload cell are behind
/// `Arc` so publishing and hitting are pointer bumps — a shared hit must
/// not pay a graph deep-clone or a multi-kilobyte re-serialize, or the
/// sharing saves nothing.
#[derive(Clone)]
pub struct SharedPlot {
    /// The extracted graph.
    pub graph: Arc<vgraph::Graph>,
    /// The exact length of the full `vplot` ship of `graph`, measured
    /// by the walking engine without encoding it.
    pub full_len: usize,
    /// The full `vplot` ship, encoded by the first engine that ships it
    /// in full (the walker, or a sibling serving a shared hit) and then
    /// byte-identical for every engine holding this cell. Empty until
    /// then, so a sibling encodes only if it ships a full plot.
    pub full: Arc<OnceLock<Arc<str>>>,
    /// The replay-tape event span `[from, to)` this walk consumed, when
    /// the walker serves a capture. Siblings replaying the *same*
    /// capture at the same position can advance their cursor over the
    /// span instead of re-enacting the walk.
    pub tape: Option<(usize, usize)>,
}

/// A store of extraction results shared by engines serving identical
/// sessions. `generation` is the caller-defined stop-generation key: two
/// engines may only observe equal keys when their images went through
/// identical mutation histories (the fleet chains tick arguments into
/// the key to enforce that).
pub trait SharedExtractions: Send + Sync {
    /// A sibling's walk of `viewcl` under `generation`, if published.
    fn get(&self, generation: u64, viewcl: &str) -> Option<SharedPlot>;

    /// Publish a locally walked extraction for siblings.
    fn publish(&self, generation: u64, viewcl: &str, plot: &SharedPlot);

    /// The local walk that followed a missed [`SharedExtractions::get`]
    /// failed, so nothing will be published for the key: a store that
    /// holds siblings back while a walk is in flight lets them go.
    fn abandon(&self, _generation: u64, _viewcl: &str) {}

    /// Warmed block spans for `generation`, if any. Only consulted by
    /// live engines — a replay tape must fetch its own bytes in
    /// recorded order.
    fn blocks(&self, _generation: u64) -> Option<vbridge::CacheSnapshot> {
        None
    }

    /// Publish this engine's warmed blocks after a local walk.
    fn publish_blocks(&self, _generation: u64, _snap: vbridge::CacheSnapshot) {}

    /// A sibling's memoized `from → to` generation-step delta for
    /// `viewcl`, if published. Engines stepping identical histories
    /// produce identical diffs, so the structural diff is computed once
    /// per fleet, not once per engine.
    fn get_delta(&self, _from: u64, _to: u64, _viewcl: &str) -> Option<vgraph::diff::GraphDelta> {
        None
    }

    /// Publish a locally computed generation-step delta for siblings.
    fn publish_delta(
        &self,
        _from: u64,
        _to: u64,
        _viewcl: &str,
        _delta: &vgraph::diff::GraphDelta,
    ) {
    }
}

/// One served extraction in first-served order: the journal a fleet
/// keeps per session so a respawned engine can re-enact exactly what its
/// predecessor served (tape position, cache state) before taking new
/// work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Stop-generation key the extraction was served under.
    pub generation: u64,
    /// The ViewCL program.
    pub viewcl: String,
}

/// A deferred session operation handed to a freshly respawned engine
/// ([`crate::Server::preload`]): the predecessor's journal, interleaved
/// with the stop events the fleet applied, in original order.
pub enum Preload {
    /// Re-extract a ViewCL program (re-positions a replay tape; warms a
    /// live cache).
    Plot(String),
    /// Re-apply a stop event (replay sessions skip the mutation but
    /// consume their resume marker).
    Stop(Box<dyn FnOnce(&mut ksim::image::KernelImage) + Send>),
}
