//! Figure 4 harness: the maple tree of a process address space, after the
//! §3.1 ViewQL simplification (collapse slot lists, trim writable VMAs).
//!
//! Writes `target/figures/fig4.{txt,dot,svg}` and prints the text plot.

use bench::attach;
use vbridge::LatencyProfile;
use visualinux::PlotSpec;

fn main() {
    let mut session = attach(LatencyProfile::free());
    let pane = session
        .plot(PlotSpec::Figure("fig9-2"))
        .expect("figure extracts");

    // Show the maple-tree view, then the paper's §3.1 ViewQL.
    session
        .vctrl_refine(
            pane,
            "m = SELECT mm_struct FROM *\nUPDATE m WITH view: show_mt",
        )
        .expect("view switch");
    session
        .vctrl_refine(
            pane,
            r#"
// Collapse the slots field of all maple_node objects
slots = SELECT maple_node.slots FROM *
UPDATE slots WITH collapsed: true
// Make all writable memory areas invisible
writable_vmas = SELECT vm_area_struct FROM * WHERE is_writable == true
UPDATE writable_vmas WITH trimmed: true
"#,
        )
        .expect("§3.1 ViewQL");

    let g = session.graph(pane).unwrap();
    let nodes = g
        .boxes()
        .iter()
        .filter(|b| &*b.label == "MapleNode")
        .count();
    let visible_vmas = g
        .boxes()
        .iter()
        .filter(|b| &*b.ctype == "vm_area_struct" && !b.attrs.trimmed)
        .count();
    let trimmed_vmas = g
        .boxes()
        .iter()
        .filter(|b| &*b.ctype == "vm_area_struct" && b.attrs.trimmed)
        .count();

    let text = session.render_text(pane).unwrap();
    std::fs::create_dir_all("target/figures").expect("mkdir");
    std::fs::write("target/figures/fig4.txt", &text).expect("write txt");
    std::fs::write("target/figures/fig4.dot", session.render_dot(pane).unwrap())
        .expect("write dot");
    std::fs::write("target/figures/fig4.svg", session.render_svg(pane).unwrap())
        .expect("write svg");

    println!("{text}");
    println!("Figure 4 (maple tree of the current task's address space):");
    println!("  maple nodes plotted:     {nodes}");
    println!("  read-only VMAs visible:  {visible_vmas}");
    println!("  writable VMAs trimmed:   {trimmed_vmas}");
    println!("  outputs: target/figures/fig4.{{txt,dot,svg}}");
    assert!(
        nodes >= 2 && visible_vmas > 0 && trimmed_vmas > 0,
        "figure shape"
    );
}
