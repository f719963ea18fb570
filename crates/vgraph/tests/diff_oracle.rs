//! The structural diff against the straightforward one it replaced.
//!
//! `vgraph::diff::diff` compares each persistent box with its
//! predecessor in place, through the old→new id map, and counts edge
//! churn only for boxes that changed, appeared or vanished. [`oracle`]
//! below is the earlier version: it clones every persistent base box,
//! rewrites the clone's edges, compares it with the new box, and counts
//! edge churn over a multiset of every edge of both graphs, keyed by
//! semantic identity. Random pairs of intern-built graphs must get the
//! same `GraphDelta` from both — summary included — and the delta must
//! rebuild the new graph exactly.
//!
//! `vgraph::diff::apply_in_place` rewrites the base graph itself, and
//! `apply` is a copy plus `apply_in_place`. [`oracle_apply`] is the
//! earlier `apply`, which assembled a fresh graph slot by slot. Every
//! delta, sound or corrupted, must get the oracle's result from both:
//! the same graph or the same error, and an untouched graph on error.
//!
//! Graphs share boxes, and `diff` passes over a box two aligned graphs
//! share. So pairs whose second graph is a copy of the first that
//! shares all but a few boxes ([`arb_shared_pair`]: views replaced as a
//! patch does, attrs changed through `get_mut`, a box swapped for one
//! at another address or under another label) must get the oracle's
//! delta too, and `apply` must copy no box the delta does not ship.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use vgraph::diff::{apply, apply_in_place, diff};
use vgraph::{
    Attrs, BoxId, BoxNode, ContainerKind, DeltaSummary, DiffError, Graph, GraphDelta, Item,
    ViewInst,
};

// ------------------------------------------------------------ oracle --

/// Semantic identity of one box: `(addr, label, virtual-occurrence)`.
type Key = (u64, String, u32);

fn keys_of(g: &Graph) -> Vec<Key> {
    let mut virt: HashMap<&str, u32> = HashMap::new();
    g.boxes()
        .iter()
        .map(|b| {
            if b.addr != 0 {
                (b.addr, b.label.to_string(), 0)
            } else {
                let occ = virt.entry(&b.label).or_insert(0);
                let k = (0, b.label.to_string(), *occ);
                *occ += 1;
                k
            }
        })
        .collect()
}

/// Rewrite every edge of `node` through `old2new`; `None` when an edge
/// points at a box with no new identity.
fn remap_node(node: &BoxNode, new_id: BoxId, old2new: &HashMap<u32, u32>) -> Option<BoxNode> {
    let mut out = node.clone();
    out.id = new_id;
    for view in &mut out.views {
        for item in &mut view.items {
            match item {
                Item::Link { target, .. } => {
                    *target = BoxId(*old2new.get(&target.0)?);
                }
                Item::Container { members, .. } => {
                    for m in members.iter_mut() {
                        *m = BoxId(*old2new.get(&m.0)?);
                    }
                }
                _ => {}
            }
        }
    }
    Some(out)
}

/// Edge signatures of a graph in semantic-key space, with multiplicity.
fn edge_sigs(g: &Graph, keys: &[Key]) -> HashMap<(Key, String, Key), i64> {
    let mut sigs = HashMap::new();
    for b in g.boxes() {
        for view in &b.views {
            for item in &view.items {
                let targets: Vec<BoxId> = match item {
                    Item::Link { target, .. } => vec![*target],
                    Item::Container { members, .. } => members.clone(),
                    _ => continue,
                };
                for t in targets {
                    let sig = (
                        keys[b.id.0 as usize].clone(),
                        item.name().to_string(),
                        keys[t.0 as usize].clone(),
                    );
                    *sigs.entry(sig).or_insert(0) += 1;
                }
            }
        }
    }
    sigs
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

/// The delta that turns `base` into `new`, computed the long way.
fn oracle(base: &Graph, new: &Graph) -> GraphDelta {
    let base_keys = keys_of(base);
    let new_keys = keys_of(new);
    let base_index: HashMap<&Key, u32> = base_keys
        .iter()
        .enumerate()
        .map(|(i, k)| (k, i as u32))
        .collect();

    let mut old2new: HashMap<u32, u32> = HashMap::new();
    for (new_id, key) in new_keys.iter().enumerate() {
        if let Some(&old_id) = base_index.get(key) {
            old2new.insert(old_id, new_id as u32);
        }
    }

    let mut summary = DeltaSummary {
        boxes_removed: (base.len() - old2new.len()) as u32,
        ..DeltaSummary::default()
    };
    let mut remap: Vec<(u32, u32)> = old2new.iter().map(|(&o, &n)| (o, n)).collect();
    remap.sort_unstable();

    let mut boxes: Vec<Arc<BoxNode>> = Vec::new();
    for (new_id, key) in new_keys.iter().enumerate() {
        let nb = &new.boxes()[new_id];
        match base_index.get(key) {
            Some(&old_id) => {
                let carried = remap_node(
                    &base.boxes()[old_id as usize],
                    BoxId(new_id as u32),
                    &old2new,
                );
                match carried {
                    Some(c) if c == **nb => {}
                    _ => {
                        summary.boxes_changed += 1;
                        summary.texts_changed +=
                            count_text_changes(&base.boxes()[old_id as usize], nb);
                        boxes.push(Arc::clone(nb));
                    }
                }
            }
            None => {
                summary.boxes_added += 1;
                boxes.push(Arc::clone(nb));
            }
        }
    }

    let old_sigs = edge_sigs(base, &base_keys);
    let new_sigs = edge_sigs(new, &new_keys);
    for (sig, n) in &new_sigs {
        let old_n = old_sigs.get(sig).copied().unwrap_or(0);
        summary.edges_added += (n - old_n).max(0) as u32;
    }
    for (sig, n) in &old_sigs {
        let new_n = new_sigs.get(sig).copied().unwrap_or(0);
        summary.edges_removed += (n - new_n).max(0) as u32;
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

/// The earlier `apply`: fill a fresh slot per new box, shipped boxes
/// first, then carried base boxes with their edges rewritten.
fn oracle_apply(base: &Graph, delta: &GraphDelta) -> Result<Graph, DiffError> {
    if base.len() as u32 != delta.base_len {
        return Err(DiffError::BaseMismatch {
            expected: delta.base_len,
            got: base.len() as u32,
        });
    }
    let mut slots: Vec<Option<BoxNode>> = vec![None; delta.new_len as usize];
    let mut old2new: Vec<Option<u32>> = vec![None; base.len()];
    let mut claimed = vec![false; delta.new_len as usize];
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
    for b in &delta.boxes {
        let Some(slot) = slots.get_mut(b.id.0 as usize) else {
            return Err(DiffError::BadId(format!("box {}", b.id.0)));
        };
        if slot.is_some() {
            return Err(DiffError::BadId(format!("box {} shipped twice", b.id.0)));
        }
        *slot = Some(BoxNode::clone(b));
    }
    let old2new: HashMap<u32, u32> = (0..)
        .zip(&old2new)
        .filter_map(|(o, n)| n.map(|n| (o, n)))
        .collect();
    for (o, ob) in (0..).zip(base.boxes()) {
        let Some(&n) = old2new.get(&o) else { continue };
        let slot = &mut slots[n as usize];
        if slot.is_none() {
            let node = remap_node(ob, BoxId(n), &old2new)
                .ok_or(DiffError::UnmappedEdge { from: o, to: n })?;
            *slot = Some(node);
        }
    }
    let mut boxes = Vec::with_capacity(delta.new_len as usize);
    for (i, slot) in slots.into_iter().enumerate() {
        boxes.push(slot.ok_or(DiffError::MissingBox(i as u32))?);
    }
    for r in &delta.roots {
        if r.0 >= delta.new_len {
            return Err(DiffError::BadId(format!("root {}", r.0)));
        }
    }
    Ok(Graph::from_parts(boxes, delta.roots.clone()))
}

// ------------------------------------------------------------- model --

/// Real boxes draw addresses from a small pool, so one address often
/// carries two labels and repeated `(addr, label)` pairs deduplicate.
const ADDRS: [u64; 5] = [0x1000, 0x2000, 0x3000, 0x4000, 0x5000];
const REAL: [&str; 3] = ["Task", "MM", "Node"];
const VIRTUAL: [&str; 2] = ["V", "Cell"];
const NAMES: [&str; 4] = ["pid", "next", "kids", "state"];

/// One item; box references are indices into [`Pane::boxes`].
#[derive(Debug, Clone)]
enum ItemSpec {
    Text(&'static str, i64),
    Link(&'static str, usize),
    Null(&'static str),
    Members(&'static str, ContainerKind, Vec<usize>),
}

#[derive(Debug, Clone)]
struct BoxSpec {
    addr: u64,
    label: &'static str,
    views: Vec<(String, Vec<ItemSpec>)>,
    attrs: Attrs,
}

/// One pane's extraction: boxes in discovery order, box 0 the root.
#[derive(Debug, Clone)]
struct Pane {
    boxes: Vec<BoxSpec>,
}

impl Pane {
    /// Intern every box in order, as the interpreter does: a repeated
    /// `(addr, label)` resolves to the first box and adds no content.
    fn build(&self) -> Graph {
        let mut g = Graph::new();
        let ids: Vec<(BoxId, bool)> = self
            .boxes
            .iter()
            .map(|b| match b.addr {
                0 => g.intern(0, b.label, "", 0),
                addr => g.intern(addr, b.label, "obj", 64),
            })
            .collect();
        for (b, &(id, fresh)) in self.boxes.iter().zip(&ids) {
            if !fresh {
                continue;
            }
            let node = g.get_mut(id);
            node.attrs = b.attrs.clone();
            node.views = b
                .views
                .iter()
                .map(|(name, items)| ViewInst {
                    name: name.as_str().into(),
                    items: items.iter().map(|it| it.build(&ids)).collect(),
                })
                .collect();
        }
        g.roots.push(ids[0].0);
        g
    }

    /// Rewrite every box reference through `f`; a reference `f` drops
    /// nulls its link or leaves its container.
    fn retarget(&mut self, f: impl Fn(usize) -> Option<usize>) {
        for b in &mut self.boxes {
            for (_, items) in &mut b.views {
                for it in items.iter_mut() {
                    match it {
                        ItemSpec::Link(name, t) => match f(*t) {
                            Some(u) => *t = u,
                            None => *it = ItemSpec::Null(name),
                        },
                        ItemSpec::Members(_, _, ms) => {
                            *ms = ms.iter().filter_map(|&t| f(t)).collect()
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    /// The `pick`-th item of box `i` that `want` accepts, cycling.
    fn item_mut(
        &mut self,
        i: usize,
        pick: usize,
        want: fn(&ItemSpec) -> bool,
    ) -> Option<&mut ItemSpec> {
        let mut hits: Vec<&mut ItemSpec> = self.boxes[i]
            .views
            .iter_mut()
            .flat_map(|(_, items)| items.iter_mut())
            .filter(|it| want(it))
            .collect();
        let n = hits.len();
        (n > 0).then(|| hits.swap_remove(pick % n))
    }

    fn mutate(&mut self, m: Mutation) {
        let n = self.boxes.len();
        let (a, b, c) = (m.a % n, m.b % n, m.c);
        let is_text = |it: &ItemSpec| matches!(it, ItemSpec::Text(..));
        let is_link = |it: &ItemSpec| matches!(it, ItemSpec::Link(..));
        let is_members = |it: &ItemSpec| matches!(it, ItemSpec::Members(..));
        match m.kind {
            // Text edit.
            0 => {
                if let Some(ItemSpec::Text(_, v)) = self.item_mut(a, m.b, is_text) {
                    *v += 1 + c;
                }
            }
            // Retargeted link.
            1 => {
                if let Some(ItemSpec::Link(_, t)) = self.item_mut(a, m.c as usize, is_link) {
                    *t = b;
                }
            }
            // Nulled link.
            2 => {
                if let Some(it) = self.item_mut(a, m.b, is_link) {
                    *it = ItemSpec::Null(it.name());
                }
            }
            // Reordered, grown, shrunk or re-kinded container.
            3..=6 => {
                if let Some(ItemSpec::Members(_, kind, ms)) =
                    self.item_mut(a, m.c as usize, is_members)
                {
                    match m.kind {
                        3 => ms.reverse(),
                        4 => ms.push(b),
                        5 => drop(ms.pop()),
                        _ => {
                            *kind = match kind {
                                ContainerKind::Sequence => ContainerKind::Set,
                                ContainerKind::Set => ContainerKind::Sequence,
                            }
                        }
                    }
                }
            }
            // Added box, discovered at position `at` and linked from `a`.
            7 => {
                let at = m.b % (n + 1);
                self.retarget(|t| Some(if t >= at { t + 1 } else { t }));
                let (addr, label) = match c % 3 {
                    0 => (0, VIRTUAL[c as usize / 3 % 2]),
                    _ => (
                        ADDRS[c as usize % ADDRS.len()],
                        REAL[c as usize % REAL.len()],
                    ),
                };
                self.boxes.insert(
                    at,
                    BoxSpec {
                        addr,
                        label,
                        views: vec![("default".into(), vec![ItemSpec::Text("pid", c)])],
                        attrs: Attrs::default(),
                    },
                );
                let from = if a >= at { a + 1 } else { a };
                match self.boxes[from].views.first_mut() {
                    Some((_, items)) => items.push(ItemSpec::Link("next", at)),
                    None => self.boxes[from]
                        .views
                        .push(("default".into(), vec![ItemSpec::Link("next", at)])),
                }
            }
            // Removed box: links to it null, containers drop it.
            8 => {
                if n > 1 {
                    self.boxes.remove(a);
                    self.retarget(|t| match t.cmp(&a) {
                        std::cmp::Ordering::Less => Some(t),
                        std::cmp::Ordering::Equal => None,
                        std::cmp::Ordering::Greater => Some(t - 1),
                    });
                }
            }
            // Display attributes.
            9 => {
                let attrs = &mut self.boxes[a].attrs;
                match c % 3 {
                    0 => attrs.collapsed = !attrs.collapsed,
                    1 => attrs.set("view", serde_json::json!("sched")),
                    _ => attrs.set("pinned", serde_json::json!(c)),
                }
            }
            // Added view.
            10 => self.boxes[a]
                .views
                .push(("sched".into(), vec![ItemSpec::Text("state", c)])),
            // Two boxes discovered in the other order: ids renumber.
            _ => {
                self.boxes.swap(a, b);
                self.retarget(|t| {
                    Some(match t {
                        t if t == a => b,
                        t if t == b => a,
                        t => t,
                    })
                });
            }
        }
    }
}

impl ItemSpec {
    fn name(&self) -> &'static str {
        match self {
            ItemSpec::Text(n, _)
            | ItemSpec::Link(n, _)
            | ItemSpec::Null(n)
            | ItemSpec::Members(n, ..) => n,
        }
    }

    fn build(&self, ids: &[(BoxId, bool)]) -> Item {
        let id = |i: usize| ids[i % ids.len()].0;
        match self {
            ItemSpec::Text(name, v) => Item::Text {
                name: name.to_string().into(),
                value: v.to_string(),
                raw: Some(*v),
            },
            ItemSpec::Link(name, t) => Item::Link {
                name: name.to_string().into(),
                target: id(*t),
            },
            ItemSpec::Null(name) => Item::NullLink {
                name: name.to_string().into(),
            },
            ItemSpec::Members(name, kind, ms) => Item::Container {
                name: name.to_string().into(),
                kind: *kind,
                members: ms.iter().map(|&t| id(t)).collect(),
                attrs: Attrs::default(),
            },
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Mutation {
    kind: u8,
    a: usize,
    b: usize,
    c: i64,
}

fn arb_item() -> impl Strategy<Value = ItemSpec> {
    (
        0u8..4,
        0usize..NAMES.len(),
        0i64..4,
        any::<usize>(),
        proptest::collection::vec(any::<usize>(), 0..4),
        any::<bool>(),
    )
        .prop_map(|(kind, name, v, target, members, set)| {
            let name = NAMES[name];
            match kind {
                0 => ItemSpec::Text(name, v),
                1 => ItemSpec::Link(name, target),
                2 => ItemSpec::Null(name),
                _ => {
                    let kind = if set {
                        ContainerKind::Set
                    } else {
                        ContainerKind::Sequence
                    };
                    ItemSpec::Members(name, kind, members)
                }
            }
        })
}

fn arb_box() -> impl Strategy<Value = BoxSpec> {
    (
        0u8..4,
        0usize..ADDRS.len(),
        0usize..REAL.len(),
        proptest::collection::vec(arb_item(), 0..5),
        any::<bool>(),
    )
        .prop_map(|(kind, slot, label, items, collapsed)| {
            let (addr, label) = match kind {
                0 => (0, VIRTUAL[label % VIRTUAL.len()]),
                _ => (ADDRS[slot], REAL[label]),
            };
            BoxSpec {
                addr,
                label,
                views: vec![("default".into(), items)],
                attrs: Attrs {
                    collapsed,
                    ..Attrs::default()
                },
            }
        })
}

fn arb_pane() -> impl Strategy<Value = Pane> {
    proptest::collection::vec(arb_box(), 1..10).prop_map(|boxes| {
        let n = boxes.len();
        let mut pane = Pane { boxes };
        pane.retarget(|t| Some(t % n));
        pane
    })
}

/// A base pane and the same pane after up to six random changes.
fn arb_pair() -> impl Strategy<Value = (Graph, Graph)> {
    let mutation = (0u8..12, any::<usize>(), any::<usize>(), 0i64..60)
        .prop_map(|(kind, a, b, c)| Mutation { kind, a, b, c });
    (arb_pane(), proptest::collection::vec(mutation, 0..7)).prop_map(|(pane, muts)| {
        let base = pane.build();
        let mut next = pane;
        for m in muts {
            next.mutate(m);
        }
        (base, next.build())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn diff_matches_the_oracle_and_rebuilds_the_new_graph(pair in arb_pair()) {
        let (a, b) = pair;
        for (base, new) in [(&a, &b), (&b, &a)] {
            let d = diff(base, new);
            prop_assert_eq!(&d, &oracle(base, new));
            let back = apply(base, &d);
            prop_assert_eq!(back.as_ref(), Ok(new));
            prop_assert_eq!(back.unwrap().to_json(), new.to_json());
        }
    }
}

#[test]
fn generated_pairs_cover_every_kind_of_change() {
    // The property above is only as good as the pairs it sees: check
    // that they keep, change, add and remove boxes, churn edges, and
    // renumber kept boxes.
    let mut rng = proptest::test_runner::TestRng::from_seed_str("diff_oracle coverage");
    let mut seen = DeltaSummary::default();
    let mut renumbered = 0;
    let mut kept = 0;
    for _ in 0..512 {
        let (a, b) = arb_pair().generate(&mut rng);
        let d = diff(&a, &b);
        seen.boxes_added += d.summary.boxes_added;
        seen.boxes_removed += d.summary.boxes_removed;
        seen.boxes_changed += d.summary.boxes_changed;
        seen.edges_added += d.summary.edges_added;
        seen.edges_removed += d.summary.edges_removed;
        seen.texts_changed += d.summary.texts_changed;
        renumbered += d.remap.iter().filter(|(o, n)| o != n).count();
        kept += d.remap.len() - d.summary.boxes_changed as usize;
    }
    for (what, n) in [
        ("boxes added", seen.boxes_added),
        ("boxes removed", seen.boxes_removed),
        ("boxes changed", seen.boxes_changed),
        ("edges added", seen.edges_added),
        ("edges removed", seen.edges_removed),
        ("texts changed", seen.texts_changed),
        ("boxes renumbered", renumbered as u32),
        ("boxes kept", kept as u32),
    ] {
        assert!(n >= 50, "only {n} {what} over 512 pairs");
    }
}

// ------------------------------------------------------- corruptions --

/// One way to break a sound delta; `a` and `b` pick where and how far.
#[derive(Debug, Clone, Copy)]
struct Corruption {
    kind: u8,
    a: usize,
    b: u32,
}

fn arb_corruption() -> impl Strategy<Value = Corruption> {
    (0u8..10, any::<usize>(), 0u32..6).prop_map(|(kind, a, b)| Corruption { kind, a, b })
}

fn nth<T>(v: &[T], i: usize) -> Option<usize> {
    (!v.is_empty()).then(|| i % v.len())
}

/// Targets of every edge of `g`.
fn edge_targets(g: &Graph) -> Vec<u32> {
    let mut out = Vec::new();
    for item in g
        .boxes()
        .iter()
        .flat_map(|b| &b.views)
        .flat_map(|v| &v.items)
    {
        match item {
            Item::Link { target, .. } => out.push(target.0),
            Item::Container { members, .. } => out.extend(members.iter().map(|m| m.0)),
            _ => {}
        }
    }
    out
}

fn corrupt(d: &mut GraphDelta, base: &Graph, c: Corruption) {
    let (base_len, new_len, k) = (d.base_len, d.new_len, c.b % 3);
    match c.kind {
        // A remap id out of range, on either side.
        0 => {
            if let Some(i) = nth(&d.remap, c.a) {
                match c.b % 2 {
                    0 => d.remap[i].0 = base_len + k,
                    _ => d.remap[i].1 = new_len + k,
                }
            }
        }
        // An old or new id the remap names twice.
        1 => {
            if let Some(i) = nth(&d.remap, c.a) {
                let (o, n) = d.remap[i];
                d.remap.push(match c.b % 3 {
                    0 => (o, n),
                    1 => (o, (n + 1) % new_len.max(1)),
                    _ => ((o + 1) % base_len.max(1), n),
                });
            }
        }
        // A shipped box out of range.
        2 => {
            if let Some(i) = nth(&d.boxes, c.a) {
                Arc::make_mut(&mut d.boxes[i]).id = BoxId(new_len + k);
            }
        }
        // A box shipped twice.
        3 => {
            if let Some(i) = nth(&d.boxes, c.a) {
                let again = d.boxes[i].clone();
                d.boxes.push(again);
            }
        }
        // A shipped box dropped.
        4 => {
            if let Some(i) = nth(&d.boxes, c.a) {
                d.boxes.remove(i);
            }
        }
        // A root out of range.
        5 => d.roots.push(BoxId(new_len + k)),
        // The wrong base.
        6 => {
            d.base_len = match c.b % 2 {
                0 => base_len + 1 + k,
                _ => base_len.saturating_sub(1 + k),
            }
        }
        // An edge target the remap no longer carries.
        7 => {
            let targets = edge_targets(base);
            if let Some(i) = nth(&targets, c.a) {
                d.remap.retain(|&(o, _)| o != targets[i]);
            }
        }
        // More new boxes than the base and the shipped boxes can fill.
        8 => d.new_len = base_len + d.boxes.len() as u32 + 1 + k,
        // Fewer new boxes than the delta names.
        _ => d.new_len = new_len.saturating_sub(1 + k),
    }
}

/// Whether interning each real box's `(addr, label)` finds that box.
fn interns_to_itself(g: &Graph) -> bool {
    let mut probe = g.clone();
    g.boxes()
        .iter()
        .filter(|b| b.addr != 0)
        .all(|b| probe.intern(b.addr, b.label.clone(), b.ctype.clone(), b.size) == (b.id, false))
}

/// What applying `d` to `base` gives, through `apply` and through
/// `apply_in_place`, checked against each other and the oracle.
fn apply_both(base: &Graph, d: &GraphDelta) -> Result<Result<Graph, DiffError>, TestCaseError> {
    let copied = apply(base, d);
    let mut graph = base.clone();
    let in_place = apply_in_place(&mut graph, d.clone()).map(|()| graph.clone());
    prop_assert_eq!(&copied, &in_place);
    if in_place.is_err() {
        prop_assert_eq!(&graph, base, "a failed apply changed the graph");
    }
    prop_assert!(interns_to_itself(&graph), "intern index out of step");
    // No delta longer than the base plus its shipped boxes can apply:
    // it is refused before anything is sized by its `new_len`.
    if base.len() as u32 == d.base_len && d.new_len as usize > base.len() + d.boxes.len() {
        let named = format!("new_len {} ", d.new_len);
        prop_assert!(
            matches!(&in_place, Err(DiffError::BadId(m)) if m.starts_with(&named)),
            "{:?}",
            in_place
        );
    } else {
        prop_assert_eq!(&in_place, &oracle_apply(base, d));
    }
    Ok(in_place)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn in_place_apply_matches_the_oracle_on_sound_and_corrupted_deltas(
        pair in arb_pair(),
        corruptions in proptest::collection::vec(arb_corruption(), 0..3),
    ) {
        let (a, b) = pair;
        for g in [&a, &b] {
            prop_assert_eq!(diff(g, g), oracle(g, &g.clone()));
        }
        for (base, new) in [(&a, &b), (&b, &a)] {
            let mut d = diff(base, new);
            for &c in &corruptions {
                corrupt(&mut d, base, c);
            }
            let got = apply_both(base, &d)?;
            if corruptions.is_empty() {
                prop_assert_eq!(got.as_ref(), Ok(new));
            }
        }
    }
}

#[test]
fn corrupted_deltas_reach_every_outcome() {
    // The property above is only as good as the deltas it sees: check
    // that they apply and fail in every way `apply_in_place` can.
    let mut rng = proptest::test_runner::TestRng::from_seed_str("diff_oracle corruptions");
    let mut seen: HashMap<&str, u32> = HashMap::new();
    for _ in 0..512 {
        let (base, new) = arb_pair().generate(&mut rng);
        let mut d = diff(&base, &new);
        corrupt(&mut d, &base, arb_corruption().generate(&mut rng));
        let outcome = match apply_both(&base, &d).expect("matches the oracle") {
            Ok(_) => "applied",
            Err(DiffError::BaseMismatch { .. }) => "base mismatch",
            Err(DiffError::BadId(m)) if m.starts_with("new_len") => "new_len bound",
            Err(DiffError::BadId(_)) => "bad id",
            Err(DiffError::UnmappedEdge { .. }) => "unmapped edge",
            Err(DiffError::MissingBox(_)) => "missing box",
        };
        *seen.entry(outcome).or_default() += 1;
    }
    for outcome in [
        "applied",
        "base mismatch",
        "new_len bound",
        "bad id",
        "unmapped edge",
        "missing box",
    ] {
        let n = seen.get(outcome).copied().unwrap_or(0);
        assert!(
            n >= 10,
            "only {n} corrupted deltas ended in {outcome}: {seen:?}"
        );
    }
}

#[test]
fn carried_boxes_take_their_slot_ids_when_the_base_numbers_them_otherwise() {
    // A graph off the wire can give its boxes ids other than their
    // positions. The oracle gives each carried box its new slot's id,
    // and so must the in-place path, even when no box moves.
    let mut g = Graph::new();
    g.intern(0x1000, "Task", "task_struct", 64);
    g.intern(0x2000, "Task", "task_struct", 64);
    g.roots.push(BoxId(0));
    let mut boxes: Vec<BoxNode> = g.boxes().iter().map(|b| BoxNode::clone(b)).collect();
    boxes[0].id = BoxId(1);
    boxes[1].id = BoxId(0);
    let base = Graph::from_parts(boxes, g.roots.clone());
    let identity = GraphDelta {
        base_len: 2,
        new_len: 2,
        remap: vec![(0, 0), (1, 1)],
        boxes: Vec::new(),
        roots: vec![BoxId(0)],
        summary: DeltaSummary::default(),
    };
    let got = apply_both(&base, &identity).expect("matches the oracle");
    assert_eq!(got, Ok(g));
}

#[test]
fn a_graph_diffed_with_itself_is_the_identity_on_every_figure() {
    use visualinux::ksim::workload::{build, WorkloadConfig};
    let session = visualinux::Session::builder(build(&WorkloadConfig::default()))
        .attach()
        .expect("live attach");
    for fig in visualinux::figures::all() {
        let (g, _) = session.extract(fig.viewcl).expect("the figure extracts");
        assert_eq!(diff(&g, &g), oracle(&g, &g.clone()), "{}", fig.id);
    }
}

// ----------------------------------------------------- shared boxes --

/// How [`arb_shared_pair`]'s copy comes to differ from its base.
const VIEWS: u8 = 0;
const ATTRS: u8 = 1;
const SWAP: u8 = 2;

/// A base pane's graph and a copy of it that shares all but a few of its
/// boxes, made one of three ways (`how`, returned beside the pair):
/// * `VIEWS`: some boxes take the views the pane's boxes have after up
///   to six random changes to their items, through `set_views`, as a
///   patch puts re-evaluated views into a copy of the retained pane;
/// * `ATTRS`: a box's attrs change through `get_mut`;
/// * `SWAP`: a box is swapped for one at another address or under
///   another label, its content otherwise the same.
fn arb_shared_pair() -> impl Strategy<Value = (Graph, Graph, u8)> {
    // Text, link, container and added-view changes: none adds, removes
    // or reorders a box, so the changed pane numbers its boxes as the
    // base does.
    let mutation = (0u8..8, any::<usize>(), any::<usize>(), 0i64..60).prop_map(|(k, a, b, c)| {
        let kind = if k == 7 { 10 } else { k };
        Mutation { kind, a, b, c }
    });
    (
        arb_pane(),
        proptest::collection::vec(mutation, 0..7),
        0u8..3,
        any::<u64>(),
        0i64..60,
    )
        .prop_map(|(pane, muts, how, pick, c)| {
            let base = pane.build();
            let n = base.len();
            let at = BoxId((pick as usize % n) as u32);
            let mut new = base.clone();
            match how {
                VIEWS => {
                    let mut next = pane;
                    for m in muts {
                        next.mutate(m);
                    }
                    let changed = next.build();
                    for id in (0..n as u32)
                        .map(BoxId)
                        .filter(|id| pick >> (id.0 % 64) & 1 == 1)
                    {
                        new.set_views(id, changed.get(id).views.clone());
                    }
                }
                ATTRS => {
                    let attrs = &mut new.get_mut(at).attrs;
                    match c % 3 {
                        0 => attrs.collapsed = !attrs.collapsed,
                        1 => attrs.set("view", serde_json::json!("sched")),
                        _ => attrs.set("pinned", serde_json::json!(c)),
                    }
                }
                _ => {
                    // Another key than any box of the pane has.
                    let mut swapped = BoxNode::clone(base.get(at));
                    if c % 2 == 0 {
                        swapped.addr = 0x9000;
                    } else {
                        swapped.label = "Swapped".into();
                    }
                    let mut boxes = base.boxes().to_vec();
                    boxes[at.0 as usize] = Arc::new(swapped);
                    new = Graph::from_parts(boxes, base.roots.clone());
                }
            }
            (base, new, how)
        })
}

/// Whether `a` and `b` hold one allocation for box `id`.
fn shared(a: &Graph, b: &Graph, id: usize) -> bool {
    Arc::ptr_eq(&a.boxes()[id], &b.boxes()[id])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn pairs_that_share_boxes_get_the_oracles_delta_and_apply_copying_only_shipped_boxes(
        pair in arb_shared_pair(),
    ) {
        let (a, b, _) = pair;
        for (base, new) in [(&a, &b), (&b, &a)] {
            let d = diff(base, new);
            prop_assert_eq!(&d, &oracle(base, new));
            for shipped in &d.boxes {
                let own = &new.boxes()[shipped.id.0 as usize];
                prop_assert!(Arc::ptr_eq(shipped, own), "a shipped box is shared with new");
            }
            let got = apply_both(base, &d)?;
            prop_assert_eq!(got.as_ref(), Ok(new));
            // When no box moves, every box the delta does not ship is
            // the base's own allocation, through either apply.
            let mut in_place = base.clone();
            apply_in_place(&mut in_place, d.clone()).expect("applies");
            let copied = apply(base, &d).expect("applies");
            if d.remap.iter().all(|&(o, n)| o == n) {
                let carried = (0..new.len()).filter(|&i| d.boxes.iter().all(|b| b.id.0 as usize != i));
                for i in carried {
                    prop_assert!(shared(&copied, base, i), "apply copied box {}", i);
                    prop_assert!(shared(&in_place, base, i), "apply_in_place copied box {}", i);
                }
            }
        }
    }
}

#[test]
fn shared_pairs_cover_every_way_of_sharing() {
    // The property above is only as good as the pairs it sees: each way
    // of making the copy must change some boxes and share the rest, and
    // a swap must add and remove a box.
    let mut rng = proptest::test_runner::TestRng::from_seed_str("diff_oracle shared boxes");
    let mut changed = [0u32; 3];
    let mut kept = [0usize; 3];
    let mut swaps = 0;
    for _ in 0..512 {
        let (base, new, how) = arb_shared_pair().generate(&mut rng);
        let d = diff(&base, &new);
        let how = how as usize;
        changed[how] += d.summary.boxes_changed;
        kept[how] += (0..base.len()).filter(|&i| shared(&base, &new, i)).count();
        let replaced = d.summary.boxes_added == 1 && d.summary.boxes_removed == 1;
        swaps += u32::from(how == SWAP as usize && replaced);
    }
    assert!(changed[VIEWS as usize] >= 50, "views: {changed:?}");
    assert!(changed[ATTRS as usize] >= 50, "attrs: {changed:?}");
    assert!(swaps >= 50, "only {swaps} swaps added and removed a box");
    assert!(kept.iter().all(|&k| k >= 200), "shared boxes: {kept:?}");
}
