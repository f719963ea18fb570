//! Graphviz DOT export.

use std::fmt::Write as _;

use vgraph::{Graph, Item};

use crate::visible;

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('{', "\\{")
        .replace('}', "\\}")
        .replace('<', "\\<")
        .replace('>', "\\>")
        .replace('|', "\\|")
}

/// Render the graph as a Graphviz digraph with record-shaped nodes.
pub fn to_dot(graph: &Graph) -> String {
    let vis: std::collections::HashSet<_> = visible(graph).into_iter().collect();
    let mut out = String::from(
        "digraph visualinux {\n  rankdir=LR;\n  node [shape=record, fontname=\"monospace\"];\n",
    );
    for b in graph.boxes() {
        if !vis.contains(&b.id) {
            continue;
        }
        let title = if b.addr != 0 {
            format!("{} @{:#x}", b.label, b.addr)
        } else {
            b.label.to_string()
        };
        if b.attrs.collapsed {
            let _ = writeln!(
                out,
                "  n{} [label=\"[+] {}\", style=dashed];",
                b.id.0,
                esc(&title)
            );
            continue;
        }
        let mut fields = vec![esc(&title)];
        if let Some(view) = b.active_view() {
            for item in &view.items {
                match item {
                    Item::Text { name, value, .. } => {
                        fields.push(format!("{}: {}", esc(name), esc(value)))
                    }
                    Item::Link { name, .. } => {
                        fields.push(format!("<{}> {}", esc(name), esc(name)))
                    }
                    Item::NullLink { name } => fields.push(format!("{}: NULL", esc(name))),
                    Item::Container {
                        name,
                        members,
                        attrs,
                        ..
                    } => {
                        if attrs.collapsed {
                            fields.push(format!("{}: [+{}]", esc(name), members.len()));
                        } else {
                            fields.push(format!(
                                "<{}> {} [{}]",
                                esc(name),
                                esc(name),
                                members.len()
                            ));
                        }
                    }
                }
            }
        }
        let _ = writeln!(out, "  n{} [label=\"{}\"];", b.id.0, fields.join(" | "));
    }
    // Edges.
    for b in graph.boxes() {
        if !vis.contains(&b.id) || b.attrs.collapsed {
            continue;
        }
        if let Some(view) = b.active_view() {
            for item in &view.items {
                match item {
                    Item::Link { name, target } if vis.contains(target) => {
                        let _ = writeln!(out, "  n{}:{} -> n{};", b.id.0, esc(name), target.0);
                    }
                    Item::Container {
                        name,
                        members,
                        attrs,
                        ..
                    } if !attrs.collapsed => {
                        for m in members {
                            if vis.contains(m) {
                                let _ = writeln!(
                                    out,
                                    "  n{}:{} -> n{} [style=dotted];",
                                    b.id.0,
                                    esc(name),
                                    m.0
                                );
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_graph;

    #[test]
    fn dot_has_nodes_and_edges() {
        let g = sample_graph();
        let d = to_dot(&g);
        assert!(d.starts_with("digraph"));
        assert!(d.contains("n0 ["));
        assert!(d.contains("n0:mm -> n2;"));
        assert!(d.contains("style=dotted"), "container edges dotted");
        assert!(d.ends_with("}\n"));
    }

    #[test]
    fn special_characters_are_escaped() {
        let mut g = sample_graph();
        if let Some(v) = g.get_mut(vgraph::BoxId(0)).views.first_mut() {
            v.items.push(Item::Text {
                name: "weird".into(),
                value: "a|b{c}\"d\"".into(),
                raw: None,
            });
        }
        let d = to_dot(&g);
        assert!(d.contains("a\\|b\\{c\\}\\\"d\\\""));
    }

    #[test]
    fn trimmed_boxes_and_their_edges_vanish() {
        let mut g = sample_graph();
        let mm = g.boxes().iter().find(|b| &*b.label == "MM").unwrap().id;
        g.get_mut(mm).attrs.trimmed = true;
        let d = to_dot(&g);
        assert!(!d.contains("n0:mm ->"));
        assert!(!d.contains(&format!("n{} [", mm.0)));
    }
}
