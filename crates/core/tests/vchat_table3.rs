//! Table 3 / §4.2: every debugging objective must be synthesizable from
//! its natural-language description, with the same effect on the graph as
//! the hand-written ViewQL (the paper reports DeepSeek-V2 going 10/10).

use ksim::workload::{build, WorkloadConfig};
use vbridge::LatencyProfile;
use vgraph::Graph;
use visualinux::{figures, PlotSpec, Session};

/// One box's observable display state: addr, label, collapsed, trimmed,
/// view, direction, and per-member container states.
type BoxState = (
    u64,
    String,
    bool,
    bool,
    Option<String>,
    Option<String>,
    Vec<(String, bool, Option<String>)>,
);

/// The observable display state of a graph, for semantic comparison.
fn display_state(g: &Graph) -> Vec<BoxState> {
    let mut v: Vec<_> = g
        .boxes()
        .iter()
        .map(|b| {
            let members: Vec<(String, bool, Option<String>)> = b
                .views
                .iter()
                .flat_map(|view| &view.items)
                .filter_map(|i| match i {
                    vgraph::Item::Container { name, attrs, .. } => {
                        Some((name.to_string(), attrs.collapsed, attrs.direction.clone()))
                    }
                    _ => None,
                })
                .collect();
            (
                b.addr,
                b.label.to_string(),
                b.attrs.collapsed,
                b.attrs.trimmed,
                b.attrs.view.clone(),
                b.attrs.direction.clone(),
                members,
            )
        })
        .collect();
    v.sort();
    v
}

#[test]
fn vchat_synthesizes_all_ten_objectives() {
    let objectives: Vec<_> = figures::all()
        .into_iter()
        .filter(|f| f.objective.is_some())
        .collect();
    assert_eq!(objectives.len(), 10);

    let mut score = 0;
    let mut notes = Vec::new();
    for fig in &objectives {
        let obj = fig.objective.as_ref().unwrap();

        // Reference: hand-written ViewQL on a fresh plot.
        let mut s1 = Session::builder(build(&WorkloadConfig::default()))
            .profile(LatencyProfile::free())
            .attach()
            .unwrap();
        let p1 = s1.plot(PlotSpec::Source(fig.viewcl)).unwrap();
        s1.vctrl_refine(p1, obj.viewql).unwrap();
        let want = display_state(s1.graph(p1).unwrap());

        // Candidate: vchat synthesis from the description.
        let mut s2 = Session::builder(build(&WorkloadConfig::default()))
            .profile(LatencyProfile::free())
            .attach()
            .unwrap();
        let p2 = s2.plot(PlotSpec::Source(fig.viewcl)).unwrap();
        match s2.vchat(p2, obj.description, true) {
            Err(e) => notes.push(format!("{}: synthesis failed: {e}", fig.id)),
            Ok(out) => {
                let got = display_state(s2.graph(p2).unwrap());
                if got == want {
                    score += 1;
                } else {
                    notes.push(format!(
                        "{}: effect differs\n  desc: {}\n  synthesized:\n{}",
                        fig.id, obj.description, out.viewql
                    ));
                }
            }
        }
    }
    assert_eq!(
        score,
        10,
        "vchat must go 10/10 like the paper:\n{}",
        notes.join("\n")
    );
}
