//! Semantic graph deltas between consecutive stops of the same pane.
//!
//! The visualizer protocol re-ships the full [`Graph`] on every stop
//! event; for a breakpoint in a hot path almost nothing changed. This
//! module computes a [`GraphDelta`] against the previously-shipped graph
//! so the server can send only the boxes whose content moved.
//!
//! Box *identity* across extractions is semantic, not positional: a real
//! box is identified by `(addr, label)` — the same key the interner uses —
//! and a virtual box (addr 0) by `(label, occurrence index)`. `BoxId`s are
//! positional per graph and shift freely between stops, so the delta
//! carries an explicit old→new id remap; a box whose neighbours were
//! renumbered but whose content is otherwise untouched costs two integers
//! on the wire, not a re-serialized subtree.
//!
//! Graphs share boxes (see [`Graph`]): a patched pane shares all but its
//! patched boxes with the pane it was patched from. When two graphs hold
//! the same `(addr, label)` at every position, every box keeps its id,
//! so [`diff`] maps none and passes over a box both share; and
//! [`apply_in_place`] writes only the boxes a delta ships, so a graph
//! keeps sharing the rest.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::graph::{BoxId, BoxNode, Graph, Item};

/// Aggregate description of what changed (boxes/edges added, removed,
/// text values rewritten) — the human-readable face of a delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaSummary {
    /// Boxes present in the new graph with no identity in the base.
    pub boxes_added: u32,
    /// Base boxes whose identity vanished.
    pub boxes_removed: u32,
    /// Identity-persistent boxes whose content differs.
    pub boxes_changed: u32,
    /// Edges (links + container memberships) new in this stop.
    pub edges_added: u32,
    /// Edges gone since the base.
    pub edges_removed: u32,
    /// Text items of persistent boxes whose display value changed.
    pub texts_changed: u32,
}

impl DeltaSummary {
    /// True when the two graphs were semantically identical.
    pub fn is_empty(&self) -> bool {
        *self == DeltaSummary::default()
    }
}

/// The wire delta: everything a client needs to rebuild the new graph
/// from the base it already holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphDelta {
    /// Box count of the base graph (consistency check on apply).
    pub base_len: u32,
    /// Box count of the new graph.
    pub new_len: u32,
    /// `(old id, new id)` for every box whose identity persists — kept
    /// *and* changed boxes. Base boxes absent from this map were removed.
    pub remap: Vec<(u32, u32)>,
    /// Full new content for changed and added boxes (ids are new ids),
    /// shared with the new graph. Persistent boxes not listed here are
    /// carried over from the base with their edge targets rewritten
    /// through `remap`.
    pub boxes: Vec<Arc<BoxNode>>,
    /// Roots of the new graph.
    pub roots: Vec<BoxId>,
    /// What changed, in human terms.
    pub summary: DeltaSummary,
}

/// Why a delta could not be applied to a base graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffError {
    /// The base graph does not have the box count the delta was made for.
    BaseMismatch { expected: u32, got: u32 },
    /// An id in the delta is out of range or claimed twice.
    BadId(String),
    /// A carried-over box links to a base box with no new identity.
    UnmappedEdge { from: u32, to: u32 },
    /// After carrying over and patching, some new-graph slot stayed empty.
    MissingBox(u32),
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::BaseMismatch { expected, got } => {
                write!(f, "delta made for a {expected}-box base, applied to {got}")
            }
            DiffError::BadId(what) => write!(f, "bad id in delta: {what}"),
            DiffError::UnmappedEdge { from, to } => {
                write!(f, "carried-over box {from} points at removed box {to}")
            }
            DiffError::MissingBox(id) => write!(f, "no content for new box {id}"),
        }
    }
}

impl std::error::Error for DiffError {}

impl GraphDelta {
    /// Serialize to the JSON wire format.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("delta serialization cannot fail")
    }

    /// Deserialize from the JSON wire format.
    pub fn from_json(s: &str) -> serde_json::Result<GraphDelta> {
        serde_json::from_str(s)
    }
}

/// Semantic identity of one box: `(addr, label, virtual-occurrence)`,
/// borrowing the label from its graph. Real boxes are unique per
/// `(addr, label)` by interning; virtual boxes (addr 0) are numbered per
/// label in graph order.
type Key<'g> = (u64, &'g str, u32);

fn keys_of(g: &Graph) -> impl Iterator<Item = Key<'_>> {
    let mut virt: HashMap<&str, u32> = HashMap::new();
    g.boxes().iter().map(move |b| {
        let label = &*b.label;
        if b.addr != 0 {
            (b.addr, label, 0)
        } else {
            let occ = virt.entry(label).or_insert(0);
            *occ += 1;
            (0, label, *occ - 1)
        }
    })
}

/// The new id of base box `old`, if its identity persists.
fn remapped(old2new: &[Option<u32>], old: BoxId) -> Option<u32> {
    old2new.get(old.0 as usize).copied().flatten()
}

/// Base ids to new ids, over every persistent identity.
#[derive(Clone, Copy)]
enum Ids<'a> {
    /// Aligned graphs of this many boxes: each box keeps its id.
    Same(u32),
    /// Indexed by base id.
    Map(&'a [Option<u32>]),
}

impl Ids<'_> {
    /// The new id of base box `old`, if its identity persists.
    fn get(self, old: BoxId) -> Option<u32> {
        match self {
            Ids::Same(n) => (old.0 < n).then_some(old.0),
            Ids::Map(old2new) => remapped(old2new, old),
        }
    }
}

/// Whether `base` and `new` hold the same `(addr, label)` at every
/// position: then a box's semantic key is its position's in both, as
/// virtual boxes count their occurrences in the same order.
fn aligned(base: &Graph, new: &Graph) -> bool {
    base.len() == new.len()
        && (base.boxes().iter().zip(new.boxes()))
            .all(|(o, n)| Arc::ptr_eq(o, n) || (o.addr == n.addr && o.label == n.label))
}

/// Whether `new` (at `new_id`) is base box `old` with its edges
/// rewritten through `ids` — i.e. whether the base box can be carried
/// over and cost only its remap pair. Compares in place; an edge to a
/// base box with no new identity never matches.
fn carries_over(old: &BoxNode, new: &BoxNode, new_id: u32, ids: Ids) -> bool {
    let same_edge = |o: &BoxId, n: &BoxId| ids.get(*o) == Some(n.0);
    let same_item = |oi: &Item, ni: &Item| match (oi, ni) {
        (Item::Link { name, target }, Item::Link { name: n, target: t }) => {
            name == n && same_edge(target, t)
        }
        (
            Item::Container {
                name,
                kind,
                members,
                attrs,
            },
            Item::Container {
                name: n,
                kind: k,
                members: m,
                attrs: a,
            },
        ) => {
            name == n
                && kind == k
                && attrs == a
                && members.len() == m.len()
                && members.iter().zip(m).all(|(o, n)| same_edge(o, n))
        }
        _ => oi == ni,
    };
    new.id.0 == new_id
        && old.label == new.label
        && old.ctype == new.ctype
        && old.addr == new.addr
        && old.size == new.size
        && old.attrs == new.attrs
        && old.views.len() == new.views.len()
        && old.views.iter().zip(&new.views).all(|(ov, nv)| {
            ov.name == nv.name
                && ov.items.len() == nv.items.len()
                && ov
                    .items
                    .iter()
                    .zip(&nv.items)
                    .all(|(oi, ni)| same_item(oi, ni))
        })
}

/// A box's outgoing edges (links and container memberships) as
/// `(item name, target)` pairs.
fn edges(b: &BoxNode) -> impl Iterator<Item = (&str, BoxId)> {
    b.views.iter().flat_map(|v| &v.items).flat_map(|item| {
        let targets: &[BoxId] = match item {
            Item::Link { target, .. } => std::slice::from_ref(target),
            Item::Container { members, .. } => members,
            _ => &[],
        };
        targets.iter().map(move |t| (item.name(), *t))
    })
}

fn edge_count(b: &BoxNode) -> u32 {
    edges(b).count() as u32
}

/// `(added, removed)` edges between a changed box and its predecessor:
/// the multiset difference of their `(item name, target)` pairs, with
/// base targets carried into new ids. An edge whose target vanished
/// matches nothing, so it counts as removed.
fn edge_churn(old: &BoxNode, new: &BoxNode, ids: Ids) -> (u32, u32) {
    let mut was: Vec<(&str, Option<u32>)> =
        edges(old).map(|(name, t)| (name, ids.get(t))).collect();
    let mut now: Vec<(&str, Option<u32>)> = edges(new).map(|(name, t)| (name, Some(t.0))).collect();
    was.sort_unstable();
    now.sort_unstable();
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < was.len() && j < now.len() {
        match was[i].cmp(&now[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    ((now.len() - common) as u32, (was.len() - common) as u32)
}

fn count_text_changes(old: &BoxNode, new: &BoxNode) -> u32 {
    let mut n = 0;
    for ov in &old.views {
        let Some(nv) = new.views.iter().find(|v| v.name == ov.name) else {
            continue;
        };
        for oi in &ov.items {
            if let Item::Text { name, value, .. } = oi {
                for ni in &nv.items {
                    if let Item::Text {
                        name: nn,
                        value: nval,
                        ..
                    } = ni
                    {
                        if nn == name && nval != value {
                            n += 1;
                        }
                    }
                }
            }
        }
    }
    n
}

/// Compute the delta that turns `base` into `new`.
///
/// Each new box is matched to its predecessor by semantic key and
/// compared with it in place, through the old→new id map; only changed
/// and added boxes go into the delta, shared with `new`.
///
/// When the two graphs are aligned (as many boxes, and the same
/// `(addr, label)` at every position, checked in one pass) each box's
/// predecessor is the base box at its position, so no key is hashed,
/// and a box both graphs share is carried over without a comparison.
/// Keys of an intern-built graph are unique, and each of its edges names
/// one of its boxes, so this is the delta the keyed match gives.
pub fn diff(base: &Graph, new: &Graph) -> GraphDelta {
    if aligned(base, new) {
        let n = base.len() as u32;
        let remap = (0..n).map(|i| (i, i)).collect();
        return delta(base, new, (0..n).map(Some), Ids::Same(n), remap);
    }
    let base_index: HashMap<Key, u32> = keys_of(base).zip(0..).collect();
    // new→old and old→new over every persistent identity.
    let new2old: Vec<Option<u32>> = keys_of(new).map(|k| base_index.get(&k).copied()).collect();
    let mut old2new: Vec<Option<u32>> = vec![None; base.len()];
    for (n, o) in (0..).zip(&new2old) {
        if let Some(o) = o {
            old2new[*o as usize] = Some(n);
        }
    }
    let remap: Vec<(u32, u32)> = (0..)
        .zip(&old2new)
        .filter_map(|(o, n)| n.map(|n| (o, n)))
        .collect();
    delta(base, new, new2old.into_iter(), Ids::Map(&old2new), remap)
}

/// The delta from `base` to `new`, given each new box's predecessor in
/// `base` (`new2old`, in new-id order), the map back (`ids`) and its
/// pairs (`remap`).
fn delta(
    base: &Graph,
    new: &Graph,
    new2old: impl Iterator<Item = Option<u32>>,
    ids: Ids,
    remap: Vec<(u32, u32)>,
) -> GraphDelta {
    // Edge churn is counted per source box. Keys are unique within a
    // graph (interning makes real boxes unique, occurrence numbers make
    // virtual boxes unique), so every edge belongs to exactly one
    // source identity, and a kept box's edges are equal under the
    // remap: only changed, added and removed boxes contribute, and
    // their sum equals the graph-wide multiset difference of
    // `(source key, item name, target key)` edges.
    let mut summary = DeltaSummary {
        boxes_removed: (base.len() - remap.len()) as u32,
        ..DeltaSummary::default()
    };
    let mut boxes: Vec<Arc<BoxNode>> = Vec::new();
    for ((n, nb), old) in (0..).zip(new.boxes()).zip(new2old) {
        match old {
            Some(o) => {
                let ob = &base.boxes()[o as usize];
                // Kept: costs only the remap pair. A box both graphs
                // share at one id, under ids that move no box, is
                // equal to itself with its edges rewritten.
                let shared = matches!(ids, Ids::Same(_)) && Arc::ptr_eq(ob, nb) && nb.id.0 == n;
                if shared || carries_over(ob, nb, n, ids) {
                    continue;
                }
                let (added, removed) = edge_churn(ob, nb, ids);
                summary.boxes_changed += 1;
                summary.texts_changed += count_text_changes(ob, nb);
                summary.edges_added += added;
                summary.edges_removed += removed;
            }
            None => {
                summary.boxes_added += 1;
                summary.edges_added += edge_count(nb);
            }
        }
        boxes.push(Arc::clone(nb));
    }
    for (o, ob) in (0..).zip(base.boxes()) {
        if ids.get(BoxId(o)).is_none() {
            summary.edges_removed += edge_count(ob);
        }
    }

    GraphDelta {
        base_len: base.len() as u32,
        new_len: new.len() as u32,
        remap,
        boxes,
        roots: new.roots.clone(),
        summary,
    }
}

/// Apply a delta to the base it was computed against, reconstructing the
/// new graph exactly (same boxes, ids, roots — byte-identical wire form).
/// A copy of `base` plus [`apply_in_place`]: the result shares with
/// `base` every box the delta does not change, and with `delta` the
/// boxes it ships.
pub fn apply(base: &Graph, delta: &GraphDelta) -> Result<Graph, DiffError> {
    let mut graph = base.clone();
    apply_in_place(&mut graph, delta.clone())?;
    Ok(graph)
}

/// [`apply`] to `graph` itself. Every check runs before anything
/// changes, so on error the graph is untouched. When every persistent
/// box keeps its id, only the shipped boxes are written; otherwise the
/// base boxes move into their new slots with their edges rewritten.
/// Either way a carried box is copied only where its id or an edge
/// target changes (a box shared with another graph stays shared), and
/// the intern index follows the boxes.
pub fn apply_in_place(graph: &mut Graph, delta: GraphDelta) -> Result<(), DiffError> {
    let base_len = graph.len();
    if base_len as u32 != delta.base_len {
        return Err(DiffError::BaseMismatch {
            expected: delta.base_len,
            got: base_len as u32,
        });
    }
    // Each new slot holds a shipped box or a carried base box, so no
    // delta that applies is longer than both together. `new_len` comes
    // off the wire: bound it before allocating anything by it.
    let new_len = delta.new_len as usize;
    if new_len > base_len + delta.boxes.len() {
        return Err(DiffError::BadId(format!(
            "new_len {new_len} over {base_len} base boxes plus {} shipped",
            delta.boxes.len()
        )));
    }
    let mut old2new: Vec<Option<u32>> = vec![None; base_len];
    let mut claimed = vec![false; new_len];
    for &(o, n) in &delta.remap {
        if o >= delta.base_len || n >= delta.new_len {
            return Err(DiffError::BadId(format!("remap ({o}, {n})")));
        }
        let (old, new) = (&mut old2new[o as usize], &mut claimed[n as usize]);
        if old.is_some() || *new {
            return Err(DiffError::BadId(format!("duplicate in remap ({o}, {n})")));
        }
        *old = Some(n);
        *new = true;
    }

    // Patched and added boxes ship in full.
    let mut shipped = vec![false; new_len];
    for b in &delta.boxes {
        let Some(slot) = shipped.get_mut(b.id.0 as usize) else {
            return Err(DiffError::BadId(format!("box {}", b.id.0)));
        };
        if *slot {
            return Err(DiffError::BadId(format!("box {} shipped twice", b.id.0)));
        }
        *slot = true;
    }

    // Everything else persists from the base, so each of its edges
    // needs a new identity; and a carried box whose id is not its new
    // slot takes that id.
    let mut renumbered = false;
    for ((o, ob), n) in (0..).zip(graph.boxes()).zip(&old2new) {
        let Some(n) = *n else { continue };
        if shipped[n as usize] {
            continue;
        }
        if edges(ob).any(|(_, t)| remapped(&old2new, t).is_none()) {
            return Err(DiffError::UnmappedEdge { from: o, to: n });
        }
        renumbered |= ob.id.0 != n;
    }
    if let Some(i) = (0..new_len).find(|&i| !shipped[i] && !claimed[i]) {
        return Err(DiffError::MissingBox(i as u32));
    }
    if let Some(r) = delta.roots.iter().find(|r| r.0 >= delta.new_len) {
        return Err(DiffError::BadId(format!("root {}", r.0)));
    }

    if new_len == base_len && delta.remap.iter().all(|&(o, n)| o == n) {
        // Carried boxes keep their slots, and every edge they hold
        // already names its target's new id.
        if renumbered {
            for i in (0..base_len as u32).filter(|&i| !shipped[i as usize]) {
                if graph.get(BoxId(i)).id.0 != i {
                    graph.get_mut(BoxId(i)).id = BoxId(i);
                }
            }
        }
        for b in delta.boxes {
            graph.replace_box(b);
        }
        graph.roots = delta.roots;
        return Ok(());
    }
    let mut slots: Vec<Option<Arc<BoxNode>>> = vec![None; new_len];
    for (mut ob, n) in std::mem::take(graph).into_boxes().into_iter().zip(&old2new) {
        let Some(n) = *n else { continue };
        if shipped[n as usize] {
            continue;
        }
        let moved = |t: BoxId| remapped(&old2new, t) != Some(t.0);
        if ob.id.0 != n || edges(&ob).any(|(_, t)| moved(t)) {
            let b = Arc::make_mut(&mut ob);
            b.id = BoxId(n);
            let renumber =
                |t: &mut BoxId| *t = BoxId(remapped(&old2new, *t).expect("edges checked"));
            for item in b.views.iter_mut().flat_map(|v| &mut v.items) {
                match item {
                    Item::Link { target, .. } => renumber(target),
                    Item::Container { members, .. } => members.iter_mut().for_each(renumber),
                    _ => {}
                }
            }
        }
        slots[n as usize] = Some(ob);
    }
    for b in delta.boxes {
        let at = b.id.0 as usize;
        slots[at] = Some(b);
    }
    let boxes = slots
        .into_iter()
        .map(|b| b.expect("every slot checked filled"))
        .collect();
    *graph = Graph::from_parts(boxes, delta.roots);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Attrs, ContainerKind, ViewInst};

    fn text(name: &str, value: &str, raw: i64) -> Item {
        Item::Text {
            name: name.into(),
            value: value.into(),
            raw: Some(raw),
        }
    }

    /// A three-task graph shaped like a tiny scheduler plot.
    fn stop(vruntimes: &[(u64, i64)], extra_child: bool) -> Graph {
        let mut g = Graph::new();
        let (root, _) = g.intern(0, "Runqueue", "", 0);
        let mut kids = Vec::new();
        for &(addr, vr) in vruntimes {
            let (t, _) = g.intern(addr, "Task", "task_struct", 0x1000);
            g.get_mut(t).views.push(ViewInst {
                name: "default".into(),
                items: vec![
                    text("pid", &format!("{}", addr & 0xff), (addr & 0xff) as i64),
                    text("vruntime", &format!("{vr}"), vr),
                ],
            });
            kids.push(t);
        }
        if extra_child {
            let (t, _) = g.intern(0x9000, "Task", "task_struct", 0x1000);
            g.get_mut(t).views.push(ViewInst {
                name: "default".into(),
                items: vec![text("pid", "90", 90)],
            });
            kids.push(t);
        }
        g.get_mut(root).views.push(ViewInst {
            name: "default".into(),
            items: vec![Item::Container {
                name: "tasks".into(),
                kind: ContainerKind::Sequence,
                members: kids,
                attrs: Attrs::default(),
            }],
        });
        g.roots.push(root);
        g
    }

    #[test]
    fn identical_graphs_yield_empty_delta() {
        let g = stop(&[(0x1100, 10), (0x1200, 20)], false);
        let d = diff(&g, &g);
        assert!(d.summary.is_empty(), "{:?}", d.summary);
        assert!(d.boxes.is_empty());
        assert_eq!(d.remap.len(), g.len());
        let back = apply(&g, &d).unwrap();
        assert_eq!(back.to_json(), g.to_json());
    }

    #[test]
    fn text_change_ships_only_the_changed_box() {
        let a = stop(&[(0x1100, 10), (0x1200, 20)], false);
        let b = stop(&[(0x1100, 10), (0x1200, 25)], false);
        let d = diff(&a, &b);
        assert_eq!(d.summary.boxes_changed, 1);
        assert_eq!(d.summary.texts_changed, 1);
        assert_eq!(d.summary.boxes_added, 0);
        assert_eq!(d.summary.boxes_removed, 0);
        assert_eq!(d.boxes.len(), 1, "only the mutated task ships");
        let back = apply(&a, &d).unwrap();
        assert_eq!(back.to_json(), b.to_json());
        assert!(
            d.to_json().len() < b.to_json().len(),
            "delta smaller than full graph"
        );
    }

    #[test]
    fn add_and_remove_are_detected() {
        let a = stop(&[(0x1100, 10), (0x1200, 20)], false);
        let b = stop(&[(0x1100, 10)], true);
        let d = diff(&a, &b);
        assert_eq!(d.summary.boxes_added, 1, "0x9000 appeared");
        assert_eq!(d.summary.boxes_removed, 1, "0x1200 vanished");
        // The container's member list changed, so the root is changed too.
        assert_eq!(d.summary.boxes_changed, 1);
        assert!(d.summary.edges_added >= 1);
        assert!(d.summary.edges_removed >= 1);
        let back = apply(&a, &d).unwrap();
        assert_eq!(back.to_json(), b.to_json());
    }

    #[test]
    fn id_shuffle_costs_only_remap_pairs() {
        // Same semantic content, boxes discovered in a different order:
        // nothing ships in full, only the id correspondence.
        let a = stop(&[(0x1100, 10), (0x1200, 20)], false);
        let b = stop(&[(0x1200, 20), (0x1100, 10)], false);
        let d = diff(&a, &b);
        assert_eq!(d.summary.boxes_added, 0);
        assert_eq!(d.summary.boxes_removed, 0);
        // The container lists the same members in a different order — that
        // IS a content change of the root, but the tasks themselves ride
        // the remap for free.
        assert!(d.boxes.len() <= 1);
        let back = apply(&a, &d).unwrap();
        assert_eq!(back.to_json(), b.to_json());
    }

    #[test]
    fn link_to_a_renumbered_box_is_kept() {
        // A new box is discovered before the MM, so the MM's id moves
        // and the task's link target with it. The task's content is
        // otherwise untouched: it rides the remap and does not ship.
        let mk = |grown: bool| {
            let mut g = Graph::new();
            let (t, _) = g.intern(0x1000, "Task", "task_struct", 64);
            g.roots.push(t);
            if grown {
                let (n, _) = g.intern(0x3000, "Task", "task_struct", 64);
                g.roots.push(n);
            }
            let (mm, _) = g.intern(0x2000, "MM", "mm_struct", 32);
            g.get_mut(t).views.push(ViewInst {
                name: "default".into(),
                items: vec![Item::Link {
                    name: "mm".into(),
                    target: mm,
                }],
            });
            g
        };
        let (a, b) = (mk(false), mk(true));
        let d = diff(&a, &b);
        assert_eq!(d.remap, vec![(0, 0), (1, 2)]);
        assert_eq!(d.boxes.len(), 1, "only the new box ships");
        assert_eq!(d.boxes[0].addr, 0x3000);
        let only_added = DeltaSummary {
            boxes_added: 1,
            ..DeltaSummary::default()
        };
        assert_eq!(d.summary, only_added);
        assert_eq!(apply(&a, &d).unwrap(), b);
    }

    #[test]
    fn edge_to_a_vanished_box_counts_as_removed() {
        // Both stops link `mm` to box 1, but box 1 is a different object
        // each time: the edge to the vanished MM is removed and the edge
        // to its successor added, although the ids agree.
        let mk = |mm_addr: u64| {
            let mut g = Graph::new();
            let (t, _) = g.intern(0x1000, "Task", "task_struct", 64);
            let (mm, _) = g.intern(mm_addr, "MM", "mm_struct", 32);
            g.get_mut(t).views.push(ViewInst {
                name: "default".into(),
                items: vec![Item::Link {
                    name: "mm".into(),
                    target: mm,
                }],
            });
            g.roots.push(t);
            g
        };
        let (a, b) = (mk(0x2000), mk(0x3000));
        let d = diff(&a, &b);
        let expected = DeltaSummary {
            boxes_added: 1,
            boxes_removed: 1,
            boxes_changed: 1,
            edges_added: 1,
            edges_removed: 1,
            texts_changed: 0,
        };
        assert_eq!(d.summary, expected);
        assert_eq!(apply(&a, &d).unwrap(), b);

        // A container that drops its vanished member loses one edge and
        // gains none.
        let a = stop(&[(0x1100, 10), (0x1200, 20)], false);
        let b = stop(&[(0x1100, 10)], false);
        let d = diff(&a, &b);
        assert_eq!((d.summary.edges_added, d.summary.edges_removed), (0, 1));
    }

    #[test]
    fn delta_survives_the_wire() {
        let a = stop(&[(0x1100, 10), (0x1200, 20)], false);
        let b = stop(&[(0x1100, 11), (0x1200, 20)], true);
        let d = diff(&a, &b);
        let d2 = GraphDelta::from_json(&d.to_json()).unwrap();
        assert_eq!(d, d2);
        assert_eq!(apply(&a, &d2).unwrap().to_json(), b.to_json());
    }

    #[test]
    fn apply_rejects_wrong_base() {
        let a = stop(&[(0x1100, 10), (0x1200, 20)], false);
        let b = stop(&[(0x1100, 10), (0x1200, 25)], false);
        let d = diff(&a, &b);
        let wrong = stop(&[(0x1100, 10)], false);
        assert_eq!(
            apply(&wrong, &d),
            Err(DiffError::BaseMismatch {
                expected: a.len() as u32,
                got: wrong.len() as u32
            })
        );
    }

    #[test]
    fn apply_rejects_corrupt_deltas() {
        let a = stop(&[(0x1100, 10), (0x1200, 20)], false);
        let b = stop(&[(0x1100, 10), (0x1200, 25)], false);
        let good = diff(&a, &b);

        let mut d = good.clone();
        d.remap.push((0, 99));
        assert!(matches!(apply(&a, &d), Err(DiffError::BadId(_))));

        let mut d = good.clone();
        d.remap.push((1, 1));
        assert!(matches!(apply(&a, &d), Err(DiffError::BadId(_))));

        // An *added* box has no base identity to fall back on: dropping
        // its shipped content must fail (a changed box would silently
        // regress to base content instead, which `remap` makes legal).
        let grown = stop(&[(0x1100, 10), (0x1200, 20)], true);
        let mut d = diff(&a, &grown);
        d.boxes.retain(|b| b.addr != 0x9000);
        assert!(matches!(apply(&a, &d), Err(DiffError::MissingBox(_))));
    }

    #[test]
    fn virtual_boxes_match_by_occurrence() {
        let mk = |vals: &[i64]| {
            let mut g = Graph::new();
            for v in vals {
                let (b, _) = g.intern(0, "V", "", 0);
                g.get_mut(b).views.push(ViewInst {
                    name: "default".into(),
                    items: vec![text("v", &v.to_string(), *v)],
                });
                g.roots.push(b);
            }
            g
        };
        let a = mk(&[1, 2, 3]);
        let b = mk(&[1, 9, 3]);
        let d = diff(&a, &b);
        assert_eq!(d.summary.boxes_changed, 1, "only the middle V changed");
        assert_eq!(d.boxes.len(), 1);
        assert_eq!(apply(&a, &d).unwrap().to_json(), b.to_json());
        // Shrinking the population removes the tail occurrence.
        let c = mk(&[1, 2]);
        let d = diff(&a, &c);
        assert_eq!(d.summary.boxes_removed, 1);
        assert_eq!(apply(&a, &d).unwrap().to_json(), c.to_json());
    }
}
