//! Graph data model.
//!
//! Names (box labels and C types, view and item names) are shared
//! `Arc<str>`s: a graph built from a program holds the program's own
//! names, so building, cloning, diffing and applying a box copies only
//! its values, and equal names usually compare by pointer.
//!
//! Boxes are shared too. A [`Graph`] holds each box behind an `Arc`, so
//! a copy of a graph shares every box with it, and [`Graph::get_mut`]
//! copies a shared box before it changes it (copy on write). Graphs that
//! differ in a few boxes, such as a retained pane and the pane patched
//! from it, hold one copy of the rest; dropping one frees only the boxes
//! the other does not share. The intern index is shared the same way.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hasher};
use std::sync::{Arc, LazyLock};

use serde::{Deserialize, Serialize};

/// Handle to a box within its [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BoxId(pub u32);

/// How a container's members are logically related (the result of the
/// *distill* operation, §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContainerKind {
    /// An ordered sequence (lists, rb-tree in-order, sorted VMAs).
    Sequence,
    /// An unordered set (hash tables).
    Set,
}

/// One item of a view: a text line, an edge, or a member collection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Item {
    /// A displayed scalar.
    Text {
        /// Display name (field name or ViewCL-defined name).
        name: Arc<str>,
        /// Decorated display string (e.g. `0xffff8880…`, `vmstat_update`).
        value: String,
        /// Raw integer value for ViewQL `WHERE` comparisons.
        raw: Option<i64>,
    },
    /// An edge to another box.
    Link {
        /// Link label.
        name: Arc<str>,
        /// Target box.
        target: BoxId,
    },
    /// A link whose target was NULL (kept for display as `∅`).
    NullLink {
        /// Link label.
        name: Arc<str>,
    },
    /// A collection of member boxes.
    Container {
        /// Container label.
        name: Arc<str>,
        /// Sequence or set.
        kind: ContainerKind,
        /// Member boxes in order.
        members: Vec<BoxId>,
        /// Display attributes private to this item (ViewQL can select
        /// `type.member` and collapse just the container).
        attrs: Attrs,
    },
}

impl Item {
    /// The item's display name.
    pub fn name(&self) -> &str {
        match self {
            Item::Text { name, .. }
            | Item::Link { name, .. }
            | Item::NullLink { name }
            | Item::Container { name, .. } => name,
        }
    }
}

/// Display attributes, the domain of ViewQL `UPDATE` (§2.3, §4.2).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Attrs {
    /// Which view to display (`None` = default).
    pub view: Option<String>,
    /// Remove the object and its descendants from the plot.
    pub trimmed: bool,
    /// Display as a small click-to-expand button.
    pub collapsed: bool,
    /// Container plotting direction (`horizontal` default, or `vertical`).
    pub direction: Option<String>,
    /// Free-form attributes (forward compatibility with new front-ends).
    /// A `BTreeMap` so serialization order is insertion-independent —
    /// deltas and golden comparisons need byte-stable wire output.
    pub extra: BTreeMap<String, serde_json::Value>,
}

impl Attrs {
    /// Set an attribute by name, coercing the JSON value; unknown names
    /// land in `extra`.
    pub fn set(&mut self, key: &str, value: serde_json::Value) {
        match key {
            "view" => self.view = value.as_str().map(|s| s.to_string()),
            "trimmed" => self.trimmed = as_truthy(&value),
            "collapsed" => self.collapsed = as_truthy(&value),
            "direction" => self.direction = value.as_str().map(|s| s.to_string()),
            _ => {
                self.extra.insert(key.to_string(), value);
            }
        }
    }
}

fn as_truthy(v: &serde_json::Value) -> bool {
    match v {
        serde_json::Value::Bool(b) => *b,
        serde_json::Value::Number(n) => n.as_i64().unwrap_or(0) != 0,
        serde_json::Value::String(s) => s == "true" || s == "1",
        _ => false,
    }
}

/// One named view of a box (§2.2: a customized layout to plot an object).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ViewInst {
    /// View name (`default` unless declared otherwise).
    pub name: Arc<str>,
    /// Items in declaration order.
    pub items: Vec<Item>,
}

/// A vertex: one plotted kernel object (or virtual box).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoxNode {
    /// Stable id within the graph.
    pub id: BoxId,
    /// ViewCL box-type label (`Task`, `MapleNode`, …).
    pub label: Arc<str>,
    /// Underlying C type tag (`task_struct`, …; empty for virtual boxes).
    pub ctype: Arc<str>,
    /// Object address (0 for virtual boxes).
    pub addr: u64,
    /// Object size in bytes (0 for virtual boxes).
    pub size: u64,
    /// All materialized views, first is the default.
    pub views: Vec<ViewInst>,
    /// Display attributes.
    pub attrs: Attrs,
}

impl BoxNode {
    /// The view selected by `attrs.view`, falling back to the first.
    pub fn active_view(&self) -> Option<&ViewInst> {
        match &self.attrs.view {
            Some(name) => self
                .views
                .iter()
                .find(|v| *v.name == **name)
                .or_else(|| self.views.first()),
            None => self.views.first(),
        }
    }

    /// Look up an item by name across all views (ViewQL member access).
    pub fn item(&self, name: &str) -> Option<&Item> {
        self.views
            .iter()
            .flat_map(|v| &v.items)
            .find(|i| i.name() == name)
    }

    /// The raw comparison value of a member: text raw, link target address
    /// marker, or `None`.
    pub fn member_raw(&self, name: &str, graph: &Graph) -> Option<i64> {
        match self.item(name)? {
            Item::Text { raw, .. } => *raw,
            Item::Link { target, .. } => Some(graph.get(*target).addr as i64),
            Item::NullLink { .. } => Some(0),
            Item::Container { members, .. } => Some(members.len() as i64),
        }
    }
}

/// The object graph. Its boxes and intern index are shared with its
/// copies until one of them changes (see the module docs).
#[derive(Debug, Clone, Default, Serialize)]
pub struct Graph {
    boxes: Vec<Arc<BoxNode>>,
    /// Plot roots (the `plot` statements' arguments).
    pub roots: Vec<BoxId>,
    /// Intern index: the positions in `boxes` of the real boxes at each
    /// address, oldest first. One object plotted under several labels
    /// shares an entry, and a lookup compares labels in place. `None`
    /// until the graph holds a real box.
    #[serde(skip)]
    by_addr: Option<Arc<AddrIndex>>,
}

/// See [`Graph`]'s `by_addr`.
type AddrIndex = HashMap<u64, Positions, AddrHasher>;

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        // `by_addr` is derived from `boxes`, so it carries no extra state.
        // A box both graphs share is equal without a look inside.
        self.roots == other.roots
            && self.boxes.len() == other.boxes.len()
            && (self.boxes.iter().zip(&other.boxes)).all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

/// A decoded graph comes from a peer, so it is checked before it is
/// used: every box's id is its position, and every link, container
/// member and root names a box. The graph is then built with
/// [`Graph::from_parts`], so its intern index is whole.
impl Deserialize for Graph {
    fn deserialize_value(v: &serde::Value) -> serde::Result<Graph> {
        checked(Deserialize::deserialize_value(v)?)
    }

    fn deserialize_json(p: &mut serde::de::Parser<'_>) -> serde::Result<Graph> {
        checked(Deserialize::deserialize_json(p)?)
    }
}

fn checked(wire::Graph { boxes, roots }: wire::Graph) -> serde::Result<Graph> {
    check_parts(&boxes, &roots).map_err(serde::Error::custom)?;
    Ok(Graph::from_parts(boxes, roots))
}

mod wire {
    use super::{BoxId, BoxNode};

    /// A graph as the JSON carries it, before [`super::check_parts`].
    /// Named as [`super::Graph`] is, so decode errors read the same.
    #[derive(serde::Deserialize)]
    pub(super) struct Graph {
        pub(super) boxes: Vec<BoxNode>,
        pub(super) roots: Vec<BoxId>,
    }
}

/// Why `boxes` and `roots` do not form a graph, if they do not: a box
/// whose id is not its position, or a link, container member or root
/// that names no box. Names quoted from the input are cut short.
fn check_parts(boxes: &[BoxNode], roots: &[BoxId]) -> Result<(), String> {
    let n = boxes.len();
    let in_graph = |id: &BoxId| (id.0 as usize) < n;
    for (pos, b) in boxes.iter().enumerate() {
        if b.id.0 as usize != pos {
            return Err(format!("box {pos} has id {}", b.id.0));
        }
        for item in b.views.iter().flat_map(|v| &v.items) {
            let bad = match item {
                Item::Link { target, .. } => Some(target).filter(|t| !in_graph(t)),
                Item::Container { members, .. } => members.iter().find(|m| !in_graph(m)),
                Item::Text { .. } | Item::NullLink { .. } => None,
            };
            if let Some(t) = bad {
                return Err(format!(
                    "box {pos}, item `{}`: no box {} in a graph of {n}",
                    cut(item.name()),
                    t.0
                ));
            }
        }
    }
    match roots.iter().find(|r| !in_graph(r)) {
        Some(r) => Err(format!("root: no box {} in a graph of {n}", r.0)),
        None => Ok(()),
    }
}

/// `s`, cut to at most 64 bytes, with `…` when something was cut.
fn cut(s: &str) -> String {
    let mut end = s.len().min(64);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    let more = if end < s.len() { "…" } else { "" };
    format!("{}{more}", &s[..end])
}

/// The positions of the real boxes at one address, oldest first. An
/// address usually holds one box, which is kept inline.
#[derive(Debug, Clone)]
enum Positions {
    One(u32),
    Many(Vec<u32>),
}

impl Positions {
    fn as_slice(&self) -> &[u32] {
        match self {
            Positions::One(p) => std::slice::from_ref(p),
            Positions::Many(ps) => ps,
        }
    }

    /// Add `pos`, keeping the positions in order.
    fn insert(&mut self, pos: u32) {
        let mut ps = match self {
            Positions::One(p) => vec![*p],
            Positions::Many(ps) => std::mem::take(ps),
        };
        ps.insert(ps.partition_point(|&p| p < pos), pos);
        *self = Positions::Many(ps);
    }

    /// Drop `pos`; false when no position is left.
    fn remove(&mut self, pos: u32) -> bool {
        match self {
            Positions::One(p) => *p != pos,
            Positions::Many(ps) => {
                ps.retain(|&p| p != pos);
                !ps.is_empty()
            }
        }
    }
}

/// Hashes an address with one folded multiply: the 128-bit product of
/// the key and a constant, its halves XORed, so every key bit reaches
/// the low bits the table indexes by. The key is first mixed with a
/// per-process seed, so crafted addresses cannot aim at one bucket.
#[derive(Debug, Clone, Copy)]
struct AddrHasher {
    seed: u64,
}

impl Default for AddrHasher {
    fn default() -> AddrHasher {
        static SEED: LazyLock<u64> = LazyLock::new(|| RandomState::new().hash_one(0u64));
        AddrHasher { seed: *SEED }
    }
}

impl BuildHasher for AddrHasher {
    type Hasher = AddrHash;

    fn build_hasher(&self) -> AddrHash {
        AddrHash(self.seed)
    }
}

/// The state of one [`AddrHasher`] hash.
struct AddrHash(u64);

impl Hasher for AddrHash {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Graph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a graph from raw parts, restoring the intern index.
    /// Box ids must match their position in `boxes`, which may be boxes
    /// or boxes shared with other graphs.
    pub fn from_parts<B: Into<Arc<BoxNode>>>(boxes: Vec<B>, roots: Vec<BoxId>) -> Graph {
        let boxes: Vec<Arc<BoxNode>> = boxes.into_iter().map(Into::into).collect();
        let mut by_addr = AddrIndex::default();
        for (pos, b) in (0..).zip(&boxes) {
            if b.addr != 0 {
                match by_addr.entry(b.addr) {
                    Entry::Occupied(mut at) => at.get_mut().insert(pos),
                    Entry::Vacant(at) => {
                        at.insert(Positions::One(pos));
                    }
                }
            }
        }
        Graph {
            boxes,
            roots,
            by_addr: (!by_addr.is_empty()).then(|| Arc::new(by_addr)),
        }
    }

    /// The intern index, copied first if another graph shares it.
    fn index_mut(&mut self) -> &mut AddrIndex {
        Arc::make_mut(self.by_addr.get_or_insert_default())
    }

    /// Intern a box for `(addr, label)`; returns `(id, true)` when newly
    /// created. Virtual boxes (addr 0) are never deduplicated. When
    /// several boxes share `(addr, label)` (only possible through
    /// [`Graph::from_parts`]), the last one wins. A new box keeps the
    /// names it is given; pass shared ones to avoid a copy.
    pub fn intern(
        &mut self,
        addr: u64,
        label: impl AsRef<str> + Into<Arc<str>>,
        ctype: impl Into<Arc<str>>,
        size: u64,
    ) -> (BoxId, bool) {
        if let Some(id) = self.find(addr, label.as_ref()) {
            return (id, false);
        }
        let pos = self.boxes.len() as u32;
        if addr != 0 {
            match self.index_mut().entry(addr) {
                Entry::Occupied(mut at) => at.get_mut().insert(pos),
                Entry::Vacant(at) => {
                    at.insert(Positions::One(pos));
                }
            }
        }
        let id = BoxId(pos);
        self.boxes.push(Arc::new(BoxNode {
            id,
            label: label.into(),
            ctype: ctype.into(),
            addr,
            size,
            views: Vec::new(),
            attrs: Attrs::default(),
        }));
        (id, true)
    }

    /// The box [`Graph::intern`] would return for `(addr, label)` without
    /// creating one: `None` for a virtual box (addr 0), which is never
    /// shared, and for a key the graph does not hold.
    pub fn find(&self, addr: u64, label: &str) -> Option<BoxId> {
        let at = self.by_addr.as_ref()?.get(&addr).filter(|_| addr != 0)?;
        let same = |&&i: &&u32| *self.boxes[i as usize].label == *label;
        let hit = at.as_slice().iter().rev().find(same)?;
        Some(self.boxes[*hit as usize].id)
    }

    /// Get a box.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this graph.
    pub fn get(&self, id: BoxId) -> &BoxNode {
        &self.boxes[id.0 as usize]
    }

    /// Get a box mutably, copying it first if another graph shares it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this graph.
    pub fn get_mut(&mut self, id: BoxId) -> &mut BoxNode {
        Arc::make_mut(&mut self.boxes[id.0 as usize])
    }

    /// Give box `id` the views `views` in place of its own. A box another
    /// graph shares is not copied: a new box takes its id, names,
    /// address, size and attributes, and `views`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this graph.
    pub fn set_views(&mut self, id: BoxId, views: Vec<ViewInst>) {
        let slot = &mut self.boxes[id.0 as usize];
        match Arc::get_mut(slot) {
            Some(node) => node.views = views,
            None => {
                *slot = Arc::new(BoxNode {
                    id: slot.id,
                    label: Arc::clone(&slot.label),
                    ctype: Arc::clone(&slot.ctype),
                    addr: slot.addr,
                    size: slot.size,
                    views,
                    attrs: slot.attrs.clone(),
                })
            }
        }
    }

    /// Put `node` into the slot its id names, moving its intern-index
    /// entry when the slot's address changes.
    pub(crate) fn replace_box(&mut self, node: Arc<BoxNode>) {
        let pos = node.id.0;
        let (old, new) = (self.boxes[pos as usize].addr, node.addr);
        self.boxes[pos as usize] = node;
        if old == new {
            return;
        }
        let index = self.index_mut();
        if let Entry::Occupied(mut at) = index.entry(old) {
            if !at.get_mut().remove(pos) {
                at.remove();
            }
        }
        if new != 0 {
            match index.entry(new) {
                Entry::Occupied(mut at) => at.get_mut().insert(pos),
                Entry::Vacant(at) => {
                    at.insert(Positions::One(pos));
                }
            }
        }
    }

    /// The boxes, by value.
    pub(crate) fn into_boxes(self) -> Vec<Arc<BoxNode>> {
        self.boxes
    }

    /// All boxes. Two graphs share a box when their `Arc`s are one
    /// (`Arc::ptr_eq`).
    pub fn boxes(&self) -> &[Arc<BoxNode>] {
        &self.boxes
    }

    /// Number of boxes.
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// Whether the graph has no boxes.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Ids of the boxes a box points at (links + container members).
    pub fn neighbors(&self, id: BoxId) -> Vec<BoxId> {
        let mut out = Vec::new();
        for view in &self.get(id).views {
            for item in &view.items {
                match item {
                    Item::Link { target, .. } => out.push(*target),
                    Item::Container { members, .. } => out.extend(members.iter().copied()),
                    _ => {}
                }
            }
        }
        out
    }

    /// Transitive closure of `seeds` over links and containers
    /// (ViewQL's `REACHABLE`).
    pub fn reachable(&self, seeds: &[BoxId]) -> Vec<BoxId> {
        let mut seen = vec![false; self.boxes.len()];
        let mut stack: Vec<BoxId> = seeds.to_vec();
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            if seen[id.0 as usize] {
                continue;
            }
            seen[id.0 as usize] = true;
            out.push(id);
            stack.extend(self.neighbors(id));
        }
        out.sort_unstable();
        out
    }

    /// How many bytes longer `self`'s JSON is than `base`'s, counted from
    /// the boxes the two do not share. `None` unless they have as many
    /// boxes and the same roots, so that only those boxes' bytes differ,
    /// and at most half of the boxes differ, so that measuring both
    /// sides of those costs less than measuring `self` whole.
    pub fn json_len_change(&self, base: &Graph) -> Option<isize> {
        if self.boxes.len() != base.boxes.len() || self.roots != base.roots {
            return None;
        }
        let pairs = || self.boxes.iter().zip(&base.boxes);
        let unshared = pairs().filter(|(a, b)| !Arc::ptr_eq(a, b)).count();
        if unshared * 2 > self.boxes.len() {
            return None;
        }
        let len = |b: &BoxNode| b.json_len() as isize;
        let change = pairs()
            .filter(|(a, b)| !Arc::ptr_eq(a, b))
            .map(|(a, b)| len(a) - len(b))
            .sum();
        Some(change)
    }

    /// Serialize to the JSON wire format (the visualizer protocol).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("graph serialization cannot fail")
    }

    /// Deserialize from the JSON wire format, checked as any decoded
    /// graph is (see the `Deserialize` impl).
    pub fn from_json(s: &str) -> serde_json::Result<Graph> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut g = Graph::new();
        let (a, _) = g.intern(0x1000, "Task", "task_struct", 100);
        let (b, _) = g.intern(0x2000, "Task", "task_struct", 100);
        let (c, _) = g.intern(0x3000, "MM", "mm_struct", 50);
        g.get_mut(a).views.push(ViewInst {
            name: "default".into(),
            items: vec![
                Item::Text {
                    name: "pid".into(),
                    value: "1".into(),
                    raw: Some(1),
                },
                Item::Link {
                    name: "mm".into(),
                    target: c,
                },
                Item::Container {
                    name: "children".into(),
                    kind: ContainerKind::Sequence,
                    members: vec![b],
                    attrs: Attrs::default(),
                },
            ],
        });
        g.get_mut(b).views.push(ViewInst {
            name: "default".into(),
            items: vec![Item::Text {
                name: "pid".into(),
                value: "2".into(),
                raw: Some(2),
            }],
        });
        g.roots.push(a);
        g
    }

    #[test]
    fn interning_deduplicates_by_addr_and_label() {
        let mut g = Graph::new();
        let (a, fresh_a) = g.intern(0x1000, "Task", "task_struct", 10);
        let (b, fresh_b) = g.intern(0x1000, "Task", "task_struct", 10);
        assert_eq!(a, b);
        assert!(fresh_a);
        assert!(!fresh_b);
        // Same address, different box type is a distinct vertex.
        let (c, _) = g.intern(0x1000, "TaskSched", "task_struct", 10);
        assert_ne!(a, c);
        // Virtual boxes never deduplicate.
        let (v1, _) = g.intern(0, "V", "", 0);
        let (v2, _) = g.intern(0, "V", "", 0);
        assert_ne!(v1, v2);
    }

    #[test]
    fn reachable_closure() {
        let g = sample();
        let r = g.reachable(&[BoxId(0)]);
        assert_eq!(r.len(), 3, "root reaches everything");
        let r = g.reachable(&[BoxId(1)]);
        assert_eq!(r, vec![BoxId(1)]);
    }

    #[test]
    fn member_raw_variants() {
        let g = sample();
        let a = g.get(BoxId(0));
        assert_eq!(a.member_raw("pid", &g), Some(1));
        assert_eq!(a.member_raw("mm", &g), Some(0x3000));
        assert_eq!(a.member_raw("children", &g), Some(1));
        assert_eq!(a.member_raw("nope", &g), None);
    }

    #[test]
    fn attrs_set_coerces() {
        let mut a = Attrs::default();
        a.set("view", serde_json::json!("sched"));
        a.set("trimmed", serde_json::json!(true));
        a.set("collapsed", serde_json::json!("true"));
        a.set("direction", serde_json::json!("vertical"));
        a.set("custom_thing", serde_json::json!(42));
        assert_eq!(a.view.as_deref(), Some("sched"));
        assert!(a.trimmed);
        assert!(a.collapsed);
        assert_eq!(a.direction.as_deref(), Some("vertical"));
        assert_eq!(a.extra["custom_thing"], serde_json::json!(42));
    }

    #[test]
    fn active_view_respects_attr() {
        let mut g = sample();
        g.get_mut(BoxId(0)).views.push(ViewInst {
            name: "sched".into(),
            items: vec![],
        });
        assert_eq!(&*g.get(BoxId(0)).active_view().unwrap().name, "default");
        g.get_mut(BoxId(0)).attrs.view = Some("sched".into());
        assert_eq!(&*g.get(BoxId(0)).active_view().unwrap().name, "sched");
        // Unknown view falls back to first.
        g.get_mut(BoxId(0)).attrs.view = Some("nope".into());
        assert_eq!(&*g.get(BoxId(0)).active_view().unwrap().name, "default");
    }

    #[test]
    fn serialization_is_insertion_order_independent() {
        // Regression for the delta-sync prerequisite: the wire bytes of a
        // graph must not depend on the order display attributes were set.
        let build = |keys: &[&str]| {
            let mut g = sample();
            for (i, k) in keys.iter().enumerate() {
                g.get_mut(BoxId(0))
                    .attrs
                    .set(k, serde_json::json!(i as i64));
            }
            g
        };
        let a = build(&["zeta", "alpha", "mid"]);
        let mut b = build(&["mid", "zeta", "alpha"]);
        // Overwrite so the *values* also match, only insertion order differs.
        b.get_mut(BoxId(0))
            .attrs
            .set("zeta", serde_json::json!(0i64));
        b.get_mut(BoxId(0))
            .attrs
            .set("alpha", serde_json::json!(1i64));
        b.get_mut(BoxId(0))
            .attrs
            .set("mid", serde_json::json!(2i64));
        assert_eq!(a.to_json(), b.to_json());
        // And serialization is a pure function of content: repeated calls
        // and a round trip both reproduce the bytes exactly.
        assert_eq!(a.to_json(), a.to_json());
        let rt = Graph::from_json(&a.to_json()).unwrap();
        assert_eq!(rt.to_json(), a.to_json());
        assert_eq!(rt, a);
    }

    #[test]
    fn from_parts_restores_intern_index() {
        let g = sample();
        let mut g2 = Graph::from_parts(g.boxes().to_vec(), g.roots.clone());
        assert_eq!(g, g2);
        let (id, fresh) = g2.intern(0x1000, "Task", "task_struct", 100);
        assert_eq!(id, BoxId(0));
        assert!(!fresh);
    }

    #[test]
    fn one_address_with_two_labels_stays_two_boxes() {
        let mut g = Graph::new();
        let (task, _) = g.intern(0x1000, "Task", "task_struct", 100);
        let (sched, fresh) = g.intern(0x1000, "TaskSched", "task_struct", 100);
        assert!(fresh);
        assert_ne!(task, sched);
        // Each label keeps resolving to its own box, in either order.
        assert_eq!(g.intern(0x1000, "TaskSched", "", 0), (sched, false));
        assert_eq!(g.intern(0x1000, "Task", "", 0), (task, false));
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn from_parts_resolves_a_duplicate_key_to_the_last_box() {
        let mut boxes = sample().boxes().to_vec();
        let mut dup = BoxNode::clone(&boxes[0]);
        dup.id = BoxId(boxes.len() as u32);
        boxes.push(Arc::new(dup));
        let mut g = Graph::from_parts(boxes, vec![BoxId(0)]);
        assert_eq!(
            g.intern(0x1000, "Task", "task_struct", 100),
            (BoxId(3), false)
        );
        assert_eq!(
            g.intern(0x2000, "Task", "task_struct", 100),
            (BoxId(1), false)
        );
    }

    #[test]
    fn a_decoded_graph_interns_each_real_box_to_itself() {
        let mut g = sample();
        // A second label at one address, and a virtual box.
        g.intern(0x2000, "TaskSched", "task_struct", 100);
        g.intern(0, "Cell", "", 0);
        let mut decoded: Graph = serde_json::from_str(&g.to_json()).unwrap();
        assert_eq!(decoded, g);
        for b in g.boxes().iter().filter(|b| b.addr != 0) {
            let label = b.label.clone();
            assert_eq!(decoded.intern(b.addr, label, "", 0), (b.id, false));
        }
    }

    #[test]
    fn decoding_refuses_ids_and_edges_that_name_no_box() {
        let decode = |g: &Graph| serde_json::from_str::<Graph>(&g.to_json()).map(|_| ());
        let mut renumbered = sample();
        renumbered.get_mut(BoxId(1)).id = BoxId(7);
        let mut linked = sample();
        linked.get_mut(BoxId(1)).views[0].items.push(Item::Link {
            name: "x".repeat(100).into(),
            target: BoxId(3),
        });
        let mut member = sample();
        if let Item::Container { members, .. } = &mut member.get_mut(BoxId(0)).views[0].items[2] {
            members.push(BoxId(99));
        }
        let mut rooted = sample();
        rooted.roots.push(BoxId(5));
        let long = format!("{}…", "x".repeat(64));
        for (g, want) in [
            (renumbered, "box 1 has id 7".to_string()),
            (
                linked,
                format!("box 1, item `{long}`: no box 3 in a graph of 3"),
            ),
            (
                member,
                "box 0, item `children`: no box 99 in a graph of 3".to_string(),
            ),
            (rooted, "root: no box 5 in a graph of 3".to_string()),
        ] {
            let err = decode(&g).unwrap_err().to_string();
            assert!(err.contains(&want), "{err}");
        }
        assert!(decode(&sample()).is_ok());
    }

    #[test]
    fn a_copy_shares_its_boxes_until_it_writes_them() {
        let g = sample();
        let json = g.to_json();
        let mut copy = g.clone();
        let shared = |a: &Graph, b: &Graph, i: usize| Arc::ptr_eq(&a.boxes()[i], &b.boxes()[i]);
        assert!((0..g.len()).all(|i| shared(&g, &copy, i)));
        copy.get_mut(BoxId(1)).attrs.collapsed = true;
        copy.set_views(BoxId(0), Vec::new());
        let (added, fresh) = copy.intern(0x4000, "Task", "task_struct", 8);
        assert!(fresh);
        // Each write copied the box it wrote, and the index; nothing
        // else, and the graph copied from reads as it did.
        assert_eq!(g.to_json(), json);
        assert_eq!(g.find(0x4000, "Task"), None);
        assert_eq!(copy.find(0x4000, "Task"), Some(added));
        assert_eq!((shared(&g, &copy, 0), shared(&g, &copy, 1)), (false, false));
        assert!(shared(&g, &copy, 2));
        assert_eq!(copy.get(BoxId(0)).label, g.get(BoxId(0)).label);
        assert!(copy.get(BoxId(0)).views.is_empty());
        assert!(copy.get(BoxId(1)).attrs.collapsed);
        // A box no other graph holds is written in place.
        let before = Arc::as_ptr(&copy.boxes()[0]);
        copy.set_views(BoxId(0), g.get(BoxId(0)).views.clone());
        assert_eq!(Arc::as_ptr(&copy.boxes()[0]), before);
    }

    #[test]
    fn a_length_change_counts_the_boxes_two_graphs_do_not_share() {
        let g = sample();
        let len = |g: &Graph| g.to_json().len() as isize;
        assert_eq!(g.json_len_change(&g), Some(0));
        let mut patched = g.clone();
        patched.set_views(BoxId(1), Vec::new());
        assert_eq!(patched.json_len_change(&g), Some(len(&patched) - len(&g)));
        assert_eq!(g.json_len_change(&patched), Some(len(&g) - len(&patched)));
        // Two of three boxes differ: measuring the graph whole is cheaper.
        patched.get_mut(BoxId(2)).attrs.trimmed = true;
        assert_eq!(patched.json_len_change(&g), None);
        // Other roots, or another box count, change other bytes.
        let mut rooted = g.clone();
        rooted.roots.push(BoxId(1));
        assert_eq!(rooted.json_len_change(&g), None);
        let mut grown = g.clone();
        grown.intern(0, "V", "", 0);
        assert_eq!(grown.json_len_change(&g), None);
    }

    #[test]
    fn json_round_trip() {
        let g = sample();
        let s = g.to_json();
        let g2 = Graph::from_json(&s).unwrap();
        assert_eq!(g.len(), g2.len());
        assert_eq!(g.roots, g2.roots);
        assert_eq!(g.get(BoxId(0)).views, g2.get(BoxId(0)).views);
        // The intern index was rebuilt.
        let mut g2 = g2;
        let (id, fresh) = g2.intern(0x1000, "Task", "task_struct", 100);
        assert_eq!(id, BoxId(0));
        assert!(!fresh);
    }
}

#[cfg(test)]
mod prop_tests {
    //! Properties of the reachability closure used by ViewQL.

    use super::*;
    use proptest::prelude::*;

    /// A random DAG-ish graph: n boxes, random links.
    fn arb_graph() -> impl Strategy<Value = Graph> {
        (
            2usize..40,
            proptest::collection::vec((0usize..40, 0usize..40), 0..80),
        )
            .prop_map(|(n, edges)| {
                let mut g = Graph::new();
                for i in 0..n {
                    let (id, _) = g.intern(0x1000 + i as u64 * 0x100, "N", "node", 8);
                    g.get_mut(id).views.push(ViewInst {
                        name: "default".into(),
                        items: vec![],
                    });
                }
                for (a, b) in edges {
                    if a < n && b < n {
                        let target = BoxId(b as u32);
                        g.get_mut(BoxId(a as u32)).views[0].items.push(Item::Link {
                            name: "e".into(),
                            target,
                        });
                    }
                }
                g
            })
    }

    proptest! {
        #[test]
        fn prop_reachable_is_idempotent_and_monotone(g in arb_graph()) {
            let seeds = vec![BoxId(0)];
            let r1 = g.reachable(&seeds);
            let r2 = g.reachable(&r1);
            prop_assert_eq!(&r1, &r2, "closure is a fixpoint");
            prop_assert!(r1.contains(&BoxId(0)), "seeds are included");
            // Monotone: closing over a superset yields a superset.
            let mut bigger = seeds.clone();
            bigger.push(BoxId(1));
            let r3 = g.reachable(&bigger);
            prop_assert!(r1.iter().all(|x| r3.contains(x)));
        }

        #[test]
        fn prop_neighbors_subset_of_reachable(g in arb_graph()) {
            for b in g.boxes() {
                let r = g.reachable(&[b.id]);
                for n in g.neighbors(b.id) {
                    prop_assert!(r.contains(&n));
                }
            }
        }
    }
}
