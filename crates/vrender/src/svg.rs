//! Self-contained SVG writer.
//!
//! Lays visible boxes out in columns by BFS depth from the roots — the
//! same left-to-right flow as the paper's screenshots — and draws links
//! as curves between box edges. No external tooling needed to view the
//! result.

use std::collections::HashMap;
use std::fmt::Write as _;

use vgraph::{BoxId, Graph, Item};

use crate::visible;

const BOX_W: f64 = 240.0;
const LINE_H: f64 = 18.0;
const COL_GAP: f64 = 70.0;
const ROW_GAP: f64 = 16.0;
const PAD: f64 = 24.0;

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Render the graph as a standalone SVG document.
pub fn to_svg(graph: &Graph) -> String {
    let vis = visible(graph);
    let vis_set: std::collections::HashSet<_> = vis.iter().copied().collect();

    // BFS depth from roots → column index.
    let mut depth: HashMap<BoxId, usize> = HashMap::new();
    let roots: Vec<BoxId> = if graph.roots.is_empty() {
        vis.clone()
    } else {
        graph.roots.clone()
    };
    let mut queue: std::collections::VecDeque<(BoxId, usize)> =
        roots.iter().map(|r| (*r, 0)).collect();
    while let Some((id, d)) = queue.pop_front() {
        if !vis_set.contains(&id) || depth.contains_key(&id) {
            continue;
        }
        depth.insert(id, d);
        for n in graph.neighbors(id) {
            queue.push_back((n, d + 1));
        }
    }

    // Column heights → positions.
    let mut columns: Vec<Vec<BoxId>> = Vec::new();
    for id in &vis {
        let d = *depth.get(id).unwrap_or(&0);
        while columns.len() <= d {
            columns.push(Vec::new());
        }
        columns[d].push(*id);
    }

    let mut pos: HashMap<BoxId, (f64, f64, f64)> = HashMap::new(); // x, y, h
    let mut max_h: f64 = 0.0;
    for (ci, col) in columns.iter().enumerate() {
        let x = PAD + ci as f64 * (BOX_W + COL_GAP);
        let mut y = PAD;
        for id in col {
            let lines = box_lines(graph, *id).len();
            let h = (lines as f64 + 0.5) * LINE_H;
            pos.insert(*id, (x, y, h));
            y += h + ROW_GAP;
        }
        max_h = max_h.max(y);
    }
    let width = PAD * 2.0 + columns.len() as f64 * (BOX_W + COL_GAP);
    let height = max_h + PAD;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" font-family=\"monospace\" font-size=\"12\">"
    );
    // Edges first (under boxes).
    for id in &vis {
        let Some(&(x, y, _)) = pos.get(id) else {
            continue;
        };
        if graph.get(*id).attrs.collapsed {
            continue;
        }
        if let Some(view) = graph.get(*id).active_view() {
            for item in &view.items {
                let targets: Vec<BoxId> = match item {
                    Item::Link { target, .. } => vec![*target],
                    Item::Container { members, attrs, .. } if !attrs.collapsed => members.clone(),
                    _ => continue,
                };
                for t in targets {
                    if let Some(&(tx, ty, th)) = pos.get(&t) {
                        let _ = writeln!(
                            out,
                            "  <path d=\"M {sx:.0} {sy:.0} C {c1:.0} {sy:.0}, {c2:.0} {ty2:.0}, {tx:.0} {ty2:.0}\" fill=\"none\" stroke=\"#668\" stroke-width=\"1\"/>",
                            sx = x + BOX_W,
                            sy = y + LINE_H,
                            c1 = x + BOX_W + COL_GAP / 2.0,
                            c2 = tx - COL_GAP / 2.0,
                            ty2 = ty + th / 2.0,
                        );
                    }
                }
            }
        }
    }
    // Boxes.
    for id in &vis {
        let Some(&(x, y, h)) = pos.get(id) else {
            continue;
        };
        let b = graph.get(*id);
        let lines = box_lines(graph, *id);
        let fill = if b.attrs.collapsed { "#eee" } else { "#fffdf5" };
        let _ = writeln!(
            out,
            "  <rect x=\"{x:.0}\" y=\"{y:.0}\" width=\"{BOX_W:.0}\" height=\"{h:.0}\" rx=\"6\" fill=\"{fill}\" stroke=\"#334\"/>"
        );
        for (i, line) in lines.iter().enumerate() {
            let weight = if i == 0 { " font-weight=\"bold\"" } else { "" };
            let _ = writeln!(
                out,
                "  <text x=\"{tx:.0}\" y=\"{ty:.0}\"{weight}>{}</text>",
                esc(line),
                tx = x + 8.0,
                ty = y + (i as f64 + 1.0) * LINE_H - 4.0,
            );
        }
    }
    out.push_str("</svg>\n");
    out
}

fn box_lines(graph: &Graph, id: BoxId) -> Vec<String> {
    let b = graph.get(id);
    let title = if b.addr != 0 {
        format!("{} @{:#x}", b.label, b.addr)
    } else {
        b.label.to_string()
    };
    if b.attrs.collapsed {
        return vec![format!("[+] {title}")];
    }
    let mut lines = vec![title];
    if let Some(view) = b.active_view() {
        for item in &view.items {
            match item {
                Item::Text { name, value, .. } => lines.push(format!("{name}: {value}")),
                Item::Link { name, .. } => lines.push(format!("{name} →")),
                Item::NullLink { name } => lines.push(format!("{name} → ∅")),
                Item::Container {
                    name,
                    members,
                    attrs,
                    ..
                } => {
                    if attrs.collapsed {
                        lines.push(format!("{name}: [+{}]", members.len()));
                    } else {
                        lines.push(format!("{name} [{}] →", members.len()));
                    }
                }
            }
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_graph;

    #[test]
    fn svg_is_well_formed_enough() {
        let g = sample_graph();
        let s = to_svg(&g);
        assert!(s.starts_with("<svg"));
        assert!(s.ends_with("</svg>\n"));
        assert_eq!(s.matches("<rect").count(), 3);
        assert!(s.contains("pid: 1"));
        assert!(s.matches("<path").count() >= 2, "link + container edges");
    }

    #[test]
    fn collapsed_box_is_a_stub() {
        let mut g = sample_graph();
        let mm = g.boxes().iter().find(|b| &*b.label == "MM").unwrap().id;
        g.get_mut(mm).attrs.collapsed = true;
        let s = to_svg(&g);
        assert!(s.contains("[+] MM"));
        assert!(!s.contains("map_count"));
    }

    #[test]
    fn xml_escaping() {
        let mut g = sample_graph();
        if let Some(v) = g.get_mut(vgraph::BoxId(0)).views.first_mut() {
            v.items.push(Item::Text {
                name: "x".into(),
                value: "<&>".into(),
                raw: None,
            });
        }
        let s = to_svg(&g);
        assert!(s.contains("&lt;&amp;&gt;"));
    }
}
