//! Renderers for extracted object graphs.
//!
//! The paper's visualizer is a browser front-end; this crate provides the
//! equivalent presentation layer for a library context: a Unicode text
//! renderer (for terminals and tests), Graphviz DOT export, and a
//! self-contained SVG writer. All three respect the ViewQL display
//! attributes: `trimmed` objects disappear (with their descendants),
//! `collapsed` objects draw as a stub button, the `view` attribute picks
//! which item set is shown, and container `direction` flips the layout.

mod dot;
mod svg;
mod text;

pub use dot::to_dot;
pub use svg::to_svg;
pub use text::to_text;

use std::collections::HashSet;

use vgraph::{BoxId, Graph, Item};

/// Boxes that should actually be drawn: reachable from the roots, minus
/// trimmed subtrees. If the graph has no roots, every box is a root.
pub(crate) fn visible(graph: &Graph) -> Vec<BoxId> {
    let roots: Vec<BoxId> = if graph.roots.is_empty() {
        graph.boxes().iter().map(|b| b.id).collect()
    } else {
        graph.roots.clone()
    };
    let mut seen: HashSet<BoxId> = HashSet::new();
    let mut order = Vec::new();
    let mut stack: Vec<BoxId> = roots.into_iter().rev().collect();
    while let Some(id) = stack.pop() {
        if seen.contains(&id) || graph.get(id).attrs.trimmed {
            continue;
        }
        seen.insert(id);
        order.push(id);
        if graph.get(id).attrs.collapsed {
            continue; // children hidden behind the button
        }
        let b = graph.get(id);
        if let Some(view) = b.active_view() {
            for item in view.items.iter().rev() {
                match item {
                    Item::Link { target, .. } => stack.push(*target),
                    Item::Container { members, attrs, .. } if !attrs.collapsed => {
                        for m in members.iter().rev() {
                            stack.push(*m);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    order
}

#[cfg(test)]
pub(crate) fn sample_graph() -> Graph {
    use vgraph::{Attrs, ContainerKind, ViewInst};
    let mut g = Graph::new();
    let (a, _) = g.intern(0x1000, "Task", "task_struct", 64);
    let (b, _) = g.intern(0x2000, "Task", "task_struct", 64);
    let (c, _) = g.intern(0x3000, "MM", "mm_struct", 32);
    g.get_mut(a).views.push(ViewInst {
        name: "default".into(),
        items: vec![
            Item::Text {
                name: "pid".into(),
                value: "1".into(),
                raw: Some(1),
            },
            Item::Text {
                name: "comm".into(),
                value: "init".into(),
                raw: None,
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
        items: vec![
            Item::Text {
                name: "pid".into(),
                value: "2".into(),
                raw: Some(2),
            },
            Item::NullLink { name: "mm".into() },
        ],
    });
    g.get_mut(c).views.push(ViewInst {
        name: "default".into(),
        items: vec![Item::Text {
            name: "map_count".into(),
            value: "12".into(),
            raw: Some(12),
        }],
    });
    g.roots.push(a);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visible_respects_trim_and_collapse() {
        let mut g = sample_graph();
        assert_eq!(visible(&g).len(), 3);
        // Trim the MM: it disappears.
        let mm = g.boxes().iter().find(|b| &*b.label == "MM").unwrap().id;
        g.get_mut(mm).attrs.trimmed = true;
        assert_eq!(visible(&g).len(), 2);
        // Collapse the root: children hidden.
        g.get_mut(vgraph::BoxId(0)).attrs.trimmed = false;
        g.get_mut(mm).attrs.trimmed = false;
        g.get_mut(vgraph::BoxId(0)).attrs.collapsed = true;
        assert_eq!(visible(&g).len(), 1);
    }
}
