//! The pane-based interactive debugger front-end (paper §2.4).
//!
//! Panes form a binary layout tree (borrowed from tmux): *primary* panes
//! display a ViewCL-extracted graph that ViewQL programs refine;
//! *secondary* panes display objects picked from another pane. The
//! `focus` operation searches every displayed graph for one object —
//! the paper's Figure 2 shows it locating a task simultaneously in the
//! parent tree and the scheduler tree.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use vgraph::{BoxId, Graph};

/// How many panes a session holds. A layout of at most 63 splits nests
/// shallowly enough for [`Session::load`] to read back whatever shape
/// the splits built.
pub const MAX_PANES: usize = 64;

/// Handle to a pane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, PartialOrd, Ord)]
pub struct PaneId(pub u32);

/// Split orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitDir {
    /// Side by side.
    Horizontal,
    /// Stacked.
    Vertical,
}

/// The layout tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layout {
    /// A leaf holding one pane.
    Leaf(PaneId),
    /// A split holding two subtrees.
    Split {
        /// Orientation.
        dir: SplitDir,
        /// First child (left/top).
        first: Box<Layout>,
        /// Second child (right/bottom).
        second: Box<Layout>,
    },
}

impl Layout {
    fn replace_leaf(&mut self, target: PaneId, with: Layout) -> bool {
        match self {
            Layout::Leaf(id) if *id == target => {
                *self = with;
                true
            }
            Layout::Leaf(_) => false,
            Layout::Split { first, second, .. } => {
                first.replace_leaf(target, with.clone()) || second.replace_leaf(target, with)
            }
        }
    }

    /// The last pane in left-to-right, top-to-bottom order: the end of
    /// the `second` spine.
    pub fn last_leaf(&self) -> PaneId {
        let mut node = self;
        loop {
            match node {
                Layout::Leaf(id) => return *id,
                Layout::Split { second, .. } => node = second,
            }
        }
    }

    /// Pane ids in left-to-right, top-to-bottom order.
    pub fn leaves(&self) -> Vec<PaneId> {
        match self {
            Layout::Leaf(id) => vec![*id],
            Layout::Split { first, second, .. } => {
                let mut v = first.leaves();
                v.extend(second.leaves());
                v
            }
        }
    }
}

/// One pane's content.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PaneContent {
    /// A primary pane: an extracted object graph plus the ViewQL programs
    /// applied so far (kept for session persistence / replay).
    Primary {
        /// The displayed graph.
        graph: Graph,
        /// Applied ViewQL programs, in order.
        refinements: Vec<String>,
    },
    /// A secondary pane: a set of boxes picked from another pane.
    Secondary {
        /// The pane the objects were picked from.
        origin: PaneId,
        /// The picked boxes (ids within the origin's graph).
        picks: Vec<BoxId>,
    },
}

/// A focus hit: where a searched object appears.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FocusHit {
    /// The pane displaying the object.
    pub pane: PaneId,
    /// The box within that pane's graph.
    pub boxid: BoxId,
    /// The box's label (for display).
    pub label: String,
}

/// A whole debugger session: layout + panes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Session {
    /// The layout tree.
    pub layout: Layout,
    /// Keyed by pane id; a `BTreeMap` so iteration (and therefore
    /// [`Session::save`] output and focus-hit order) is deterministic.
    panes: BTreeMap<PaneId, PaneContent>,
    next_id: u32,
}

/// Errors from pane operations.
#[derive(Debug, Clone, PartialEq)]
pub enum PanelError {
    /// The pane id does not exist.
    NoSuchPane(PaneId),
    /// The operation needs a primary pane.
    NotPrimary(PaneId),
    /// A ViewQL refinement failed.
    Refine(String),
    /// The session already holds [`MAX_PANES`] panes.
    Full,
}

impl std::fmt::Display for PanelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PanelError::NoSuchPane(p) => write!(f, "no such pane {p:?}"),
            PanelError::NotPrimary(p) => write!(f, "pane {p:?} is not primary"),
            PanelError::Refine(m) => write!(f, "refinement failed: {m}"),
            PanelError::Full => write!(f, "a session holds at most {MAX_PANES} panes"),
        }
    }
}

impl std::error::Error for PanelError {}

impl Session {
    /// Start a session with one primary pane displaying `graph`.
    pub fn new(graph: Graph) -> Self {
        let root = PaneId(0);
        let mut panes = BTreeMap::new();
        panes.insert(
            root,
            PaneContent::Primary {
                graph,
                refinements: Vec::new(),
            },
        );
        Session {
            layout: Layout::Leaf(root),
            panes,
            next_id: 1,
        }
    }

    /// A new pane's id, splitting `pane`, if the session has room.
    fn fresh(&mut self, pane: PaneId) -> Result<PaneId, PanelError> {
        if !self.panes.contains_key(&pane) {
            return Err(PanelError::NoSuchPane(pane));
        }
        if self.panes.len() >= MAX_PANES {
            return Err(PanelError::Full);
        }
        let id = PaneId(self.next_id);
        self.next_id += 1;
        Ok(id)
    }

    /// The pane content.
    pub fn pane(&self, id: PaneId) -> Option<&PaneContent> {
        self.panes.get(&id)
    }

    /// The graph displayed by a pane (secondary panes resolve through
    /// their origin).
    pub fn graph_of(&self, id: PaneId) -> Option<&Graph> {
        match self.panes.get(&id)? {
            PaneContent::Primary { graph, .. } => Some(graph),
            PaneContent::Secondary { origin, .. } => self.graph_of(*origin),
        }
    }

    /// Mutable access to the graph displayed by a pane (secondary panes
    /// resolve through their origin). Used by annotating commands such
    /// as `vcheck` that decorate boxes in place.
    pub fn graph_of_mut(&mut self, id: PaneId) -> Option<&mut Graph> {
        let mut id = id;
        loop {
            match self.panes.get(&id)? {
                PaneContent::Primary { .. } => break,
                PaneContent::Secondary { origin, .. } => id = *origin,
            }
        }
        match self.panes.get_mut(&id) {
            Some(PaneContent::Primary { graph, .. }) => Some(graph),
            _ => None,
        }
    }

    /// Number of panes.
    pub fn len(&self) -> usize {
        self.panes.len()
    }

    /// Whether the session has no panes.
    pub fn is_empty(&self) -> bool {
        self.panes.is_empty()
    }

    /// *Split*: divide `pane` creating a new primary pane showing `graph`.
    pub fn split(
        &mut self,
        pane: PaneId,
        dir: SplitDir,
        graph: Graph,
    ) -> Result<PaneId, PanelError> {
        let new = self.fresh(pane)?;
        self.panes.insert(
            new,
            PaneContent::Primary {
                graph,
                refinements: Vec::new(),
            },
        );
        let replaced = self.layout.replace_leaf(
            pane,
            Layout::Split {
                dir,
                first: Box::new(Layout::Leaf(pane)),
                second: Box::new(Layout::Leaf(new)),
            },
        );
        debug_assert!(replaced);
        Ok(new)
    }

    /// *Select*: create a secondary pane displaying `picks` from `origin`.
    pub fn select(
        &mut self,
        origin: PaneId,
        dir: SplitDir,
        picks: Vec<BoxId>,
    ) -> Result<PaneId, PanelError> {
        let new = self.fresh(origin)?;
        self.panes
            .insert(new, PaneContent::Secondary { origin, picks });
        self.layout.replace_leaf(
            origin,
            Layout::Split {
                dir,
                first: Box::new(Layout::Leaf(origin)),
                second: Box::new(Layout::Leaf(new)),
            },
        );
        Ok(new)
    }

    /// *Refine*: apply a ViewQL program to a primary pane's graph.
    pub fn refine(&mut self, pane: PaneId, viewql: &str) -> Result<(), PanelError> {
        let mut engine = vql::Engine::new();
        self.refine_with(pane, viewql, &mut engine)
    }

    /// *Refine* with a caller-supplied engine, so the caller can
    /// pre-configure it (e.g. attach a tracer) and inspect the bound
    /// selection variables afterwards.
    pub fn refine_with(
        &mut self,
        pane: PaneId,
        viewql: &str,
        engine: &mut vql::Engine,
    ) -> Result<(), PanelError> {
        match self.panes.get_mut(&pane) {
            None => Err(PanelError::NoSuchPane(pane)),
            Some(PaneContent::Secondary { .. }) => Err(PanelError::NotPrimary(pane)),
            Some(PaneContent::Primary { graph, refinements }) => {
                engine
                    .run(graph, viewql)
                    .map_err(|e| PanelError::Refine(e.to_string()))?;
                refinements.push(viewql.to_string());
                Ok(())
            }
        }
    }

    /// *Focus*: find the object at `addr` in every displayed graph.
    pub fn focus(&self, addr: u64) -> Vec<FocusHit> {
        let mut hits = Vec::new();
        for pane in self.layout.leaves() {
            let Some(graph) = self.graph_of(pane) else {
                continue;
            };
            for b in graph.boxes() {
                if b.addr == addr {
                    hits.push(FocusHit {
                        pane,
                        boxid: b.id,
                        label: b.label.to_string(),
                    });
                }
            }
        }
        hits
    }

    /// Persist the session (panes, layouts, applied refinements) to JSON
    /// for reuse across debugging sessions (§4.2).
    pub fn save(&self) -> String {
        serde_json::to_string(self).expect("session serialization cannot fail")
    }

    /// Restore a saved session.
    pub fn load(s: &str) -> serde_json::Result<Session> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgraph::{Item, ViewInst};

    fn graph(tag: &str, addrs: &[u64]) -> Graph {
        let mut g = Graph::new();
        for &a in addrs {
            let (id, _) = g.intern(a, tag, "task_struct", 64);
            g.get_mut(id).views.push(ViewInst {
                name: "default".into(),
                items: vec![Item::Text {
                    name: "pid".into(),
                    value: "7".into(),
                    raw: Some(7),
                }],
            });
        }
        g
    }

    #[test]
    fn split_and_layout_order() {
        let mut s = Session::new(graph("A", &[0x1000]));
        let right = s
            .split(PaneId(0), SplitDir::Horizontal, graph("B", &[0x2000]))
            .unwrap();
        let bottom = s
            .split(right, SplitDir::Vertical, graph("C", &[0x3000]))
            .unwrap();
        assert_eq!(s.layout.leaves(), vec![PaneId(0), right, bottom]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn focus_finds_object_across_panes() {
        let mut s = Session::new(graph("ParentTree", &[0x1000, 0x2000]));
        s.split(
            PaneId(0),
            SplitDir::Horizontal,
            graph("SchedTree", &[0x2000, 0x3000]),
        )
        .unwrap();
        let hits = s.focus(0x2000);
        assert_eq!(hits.len(), 2, "found in both panes (paper Fig 2)");
        assert_eq!(hits[0].label, "ParentTree");
        assert_eq!(hits[1].label, "SchedTree");
        assert!(s.focus(0xdead).is_empty());
    }

    #[test]
    fn refine_applies_viewql_and_records_history() {
        let mut s = Session::new(graph("Task", &[0x1000, 0x2000]));
        s.refine(
            PaneId(0),
            "a = SELECT task_struct FROM *\nUPDATE a WITH collapsed: true",
        )
        .unwrap();
        let g = s.graph_of(PaneId(0)).unwrap();
        assert!(g.boxes().iter().all(|b| b.attrs.collapsed));
        match s.pane(PaneId(0)).unwrap() {
            PaneContent::Primary { refinements, .. } => assert_eq!(refinements.len(), 1),
            _ => unreachable!(),
        }
        // Bad ViewQL reports, does not panic.
        assert!(matches!(
            s.refine(PaneId(0), "UPDATE nope WITH x: 1"),
            Err(PanelError::Refine(_))
        ));
    }

    #[test]
    fn secondary_panes_resolve_origin_graph() {
        let mut s = Session::new(graph("Task", &[0x1000]));
        let sec = s
            .select(PaneId(0), SplitDir::Vertical, vec![BoxId(0)])
            .unwrap();
        assert!(matches!(s.pane(sec), Some(PaneContent::Secondary { .. })));
        assert_eq!(s.graph_of(sec).unwrap().len(), 1);
        assert!(matches!(
            s.refine(sec, "a = SELECT x FROM *"),
            Err(PanelError::NotPrimary(_))
        ));
    }

    #[test]
    fn a_full_session_refuses_panes_and_still_loads() {
        // The deepest layouts splits can build: a chain down the
        // `second` spine, as pushes build it, and one down `first`.
        for split_last in [true, false] {
            let mut s = Session::new(graph("A", &[0x1000]));
            for _ in 1..MAX_PANES {
                let at = if split_last {
                    s.layout.last_leaf()
                } else {
                    PaneId(0)
                };
                s.split(at, SplitDir::Horizontal, Graph::new()).unwrap();
            }
            assert_eq!(s.len(), MAX_PANES);
            let last = s.layout.last_leaf();
            assert_eq!(s.layout.leaves().last(), Some(&last));
            assert_eq!(
                s.split(last, SplitDir::Vertical, Graph::new()),
                Err(PanelError::Full)
            );
            assert_eq!(
                s.select(PaneId(0), SplitDir::Vertical, vec![BoxId(0)]),
                Err(PanelError::Full)
            );
            let restored = Session::load(&s.save()).expect("a full session loads");
            assert_eq!(restored.layout, s.layout);
            assert_eq!(restored.len(), MAX_PANES);
        }
    }

    #[test]
    fn session_round_trips_through_json() {
        let mut s = Session::new(graph("Task", &[0x1000]));
        s.split(PaneId(0), SplitDir::Horizontal, graph("B", &[0x2000]))
            .unwrap();
        s.refine(
            PaneId(0),
            "a = SELECT task_struct FROM *\nUPDATE a WITH view: sched",
        )
        .unwrap();
        let saved = s.save();
        let restored = Session::load(&saved).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.layout, s.layout);
        match restored.pane(PaneId(0)).unwrap() {
            PaneContent::Primary { refinements, .. } => assert_eq!(refinements.len(), 1),
            _ => unreachable!(),
        }
    }
}

#[cfg(test)]
mod prop_tests {
    //! The layout tree stays consistent under arbitrary split sequences.

    use super::*;
    use proptest::prelude::*;
    use vgraph::Graph;

    proptest! {
        #[test]
        fn prop_splits_preserve_all_panes(
            ops in proptest::collection::vec((0u32..16, any::<bool>()), 1..24)
        ) {
            let mut s = Session::new(Graph::new());
            let mut created = vec![PaneId(0)];
            for (pick, horizontal) in ops {
                let target = created[pick as usize % created.len()];
                let dir = if horizontal { SplitDir::Horizontal } else { SplitDir::Vertical };
                let new = s.split(target, dir, Graph::new()).unwrap();
                created.push(new);
            }
            // Every created pane appears exactly once in the layout.
            let mut leaves = s.layout.leaves();
            leaves.sort();
            let mut want = created.clone();
            want.sort();
            prop_assert_eq!(leaves, want);
            prop_assert_eq!(s.len(), created.len());
        }
    }
}
