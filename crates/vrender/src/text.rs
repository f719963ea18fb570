//! Unicode box-drawing text renderer.

use vgraph::{Graph, Item};

use crate::visible;

/// Render the graph as indented Unicode boxes.
///
/// Each visible box prints a bordered card with its active view's items;
/// links and containers recurse with indentation. Cycles and shared boxes
/// print a `↩ ref` line instead of re-expanding.
pub fn to_text(graph: &Graph) -> String {
    let visible_set: std::collections::HashSet<_> = visible(graph).into_iter().collect();
    let mut out = String::new();
    let mut printed = std::collections::HashSet::new();
    let roots: Vec<_> = if graph.roots.is_empty() {
        graph.boxes().iter().map(|b| b.id).collect()
    } else {
        graph.roots.clone()
    };
    for root in roots {
        render_box(graph, root, 0, &mut printed, &visible_set, &mut out);
    }
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn render_box(
    graph: &Graph,
    id: vgraph::BoxId,
    depth: usize,
    printed: &mut std::collections::HashSet<vgraph::BoxId>,
    visible: &std::collections::HashSet<vgraph::BoxId>,
    out: &mut String,
) {
    if !visible.contains(&id) {
        return;
    }
    let b = graph.get(id);
    if printed.contains(&id) {
        indent(out, depth);
        out.push_str(&format!("↩ {} @{:#x}\n", b.label, b.addr));
        return;
    }
    printed.insert(id);

    let title = if b.addr != 0 {
        format!("{} ({}) @{:#x}", b.label, b.ctype, b.addr)
    } else {
        b.label.to_string()
    };
    if b.attrs.collapsed {
        indent(out, depth);
        out.push_str(&format!("[+] {title}\n"));
        return;
    }
    let mut lines: Vec<String> = vec![title];
    let mut children: Vec<(String, Vec<vgraph::BoxId>, bool)> = Vec::new();
    if let Some(view) = b.active_view() {
        for item in &view.items {
            match item {
                Item::Text { name, value, .. } => lines.push(format!("{name}: {value}")),
                Item::NullLink { name } => lines.push(format!("{name} → ∅")),
                Item::Link { name, target } => {
                    lines.push(format!("{name} ↓"));
                    children.push((name.to_string(), vec![*target], false));
                }
                Item::Container {
                    name,
                    members,
                    attrs,
                    ..
                } => {
                    if attrs.collapsed {
                        lines.push(format!("{name}: [+] {} members", members.len()));
                    } else {
                        lines.push(format!("{name} [{}] ↓", members.len()));
                        // `direction` can sit on the container item or on
                        // the owning box (ViewQL box selections set the
                        // latter); either flips the layout.
                        let vertical = attrs.direction.as_deref() == Some("vertical")
                            || b.attrs.direction.as_deref() == Some("vertical");
                        children.push((name.to_string(), members.clone(), vertical));
                    }
                }
            }
        }
    }
    let width = lines.iter().map(|l| l.chars().count()).max().unwrap_or(0);
    indent(out, depth);
    out.push_str(&format!("┌{}┐\n", "─".repeat(width + 2)));
    for (i, l) in lines.iter().enumerate() {
        indent(out, depth);
        let pad = width - l.chars().count();
        out.push_str(&format!("│ {}{} │\n", l, " ".repeat(pad)));
        if i == 0 && lines.len() > 1 {
            indent(out, depth);
            out.push_str(&format!("├{}┤\n", "─".repeat(width + 2)));
        }
    }
    indent(out, depth);
    out.push_str(&format!("└{}┘\n", "─".repeat(width + 2)));

    for (name, kids, vertical) in children {
        if vertical && kids.len() > 1 {
            // Vertical containers draw a rail so the column reads as one
            // structure (ViewQL `direction: vertical`, Table 3 #14-3).
            indent(out, depth + 1);
            out.push_str(&format!("▼ {name}\n"));
        }
        for k in kids {
            render_box(graph, k, depth + 1, printed, visible, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_graph;

    #[test]
    fn renders_boxes_fields_and_nesting() {
        let g = sample_graph();
        let t = to_text(&g);
        assert!(t.contains("Task (task_struct) @0x1000"));
        assert!(t.contains("pid: 1"));
        assert!(t.contains("comm: init"));
        assert!(t.contains("mm → ∅"), "null link rendered: {t}");
        assert!(t.contains("children [1]"));
        // Child indented one level.
        assert!(t.contains("    ┌"));
    }

    #[test]
    fn collapsed_box_renders_as_button() {
        let mut g = sample_graph();
        let mm = g.boxes().iter().find(|b| &*b.label == "MM").unwrap().id;
        g.get_mut(mm).attrs.collapsed = true;
        let t = to_text(&g);
        assert!(t.contains("[+] MM"));
        assert!(!t.contains("map_count"));
    }

    #[test]
    fn trimmed_box_vanishes() {
        let mut g = sample_graph();
        let mm = g.boxes().iter().find(|b| &*b.label == "MM").unwrap().id;
        g.get_mut(mm).attrs.trimmed = true;
        let t = to_text(&g);
        assert!(!t.contains("MM"));
    }

    #[test]
    fn shared_boxes_render_as_backrefs() {
        use vgraph::{Item, ViewInst};
        let mut g = sample_graph();
        // Task #2 also links to the same MM.
        let mm = g.boxes().iter().find(|b| &*b.label == "MM").unwrap().id;
        let t2 = vgraph::BoxId(1);
        g.get_mut(t2).views[0].items.push(Item::Link {
            name: "mm2".into(),
            target: mm,
        });
        // Rebuild a view order where MM is hit twice.
        let t = to_text(&g);
        assert_eq!(t.matches("map_count").count(), 1);
        assert!(t.contains("↩ MM"));
        let _ = ViewInst {
            name: "".into(),
            items: vec![],
        };
    }
}
