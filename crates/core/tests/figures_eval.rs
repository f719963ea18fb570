//! Every Table 2 figure must extract a non-trivial graph from the
//! evaluation workload (the C1 claim of the paper's artifact).

use ksim::workload::{build, WorkloadConfig};
use vbridge::LatencyProfile;
use visualinux::{figures, PlotSpec, Session};

#[test]
fn all_21_figures_extract_nontrivial_graphs() {
    let mut session = Session::builder(build(&WorkloadConfig::default()))
        .profile(LatencyProfile::free())
        .attach()
        .unwrap();
    let mut failures = Vec::new();
    for fig in figures::all() {
        match session.plot(PlotSpec::Source(fig.viewcl)) {
            Err(e) => failures.push(format!("{}: {e}", fig.id)),
            Ok(pane) => {
                let stats = session.plot_stats(pane).unwrap();
                if stats.graph.objects < 2 {
                    failures.push(format!(
                        "{}: trivial graph ({} objects)",
                        fig.id, stats.graph.objects
                    ));
                }
                // Text items must not contain evaluation errors.
                let g = session.graph(pane).unwrap();
                for b in g.boxes() {
                    for v in &b.views {
                        for item in &v.items {
                            if let vgraph::Item::Text { name, value, .. } = item {
                                if value.starts_with("<error") {
                                    failures.push(format!(
                                        "{}: {}.{} = {}",
                                        fig.id, b.label, name, value
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "figure failures:\n{}",
        failures.join("\n")
    );
}

#[test]
fn figure_graphs_have_expected_shapes() {
    let mut session = Session::builder(build(&WorkloadConfig::default()))
        .profile(LatencyProfile::free())
        .attach()
        .unwrap();

    // fig3-4: the process tree holds every task.
    let pane = session.plot(PlotSpec::Figure("fig3-4")).unwrap();
    let g = session.graph(pane).unwrap();
    let tasks = g
        .boxes()
        .iter()
        .filter(|b| &*b.ctype == "task_struct")
        .count();
    assert_eq!(tasks, session.roots.all_tasks.len());

    // fig9-2: maple nodes + every VMA of the current task.
    let pane = session.plot(PlotSpec::Figure("fig9-2")).unwrap();
    let g = session.graph(pane).unwrap();
    let nodes = g
        .boxes()
        .iter()
        .filter(|b| &*b.label == "MapleNode")
        .count();
    let vmas = g
        .boxes()
        .iter()
        .filter(|b| &*b.ctype == "vm_area_struct")
        .count();
    assert!(nodes >= 2, "expected a multi-node maple tree, got {nodes}");
    assert!(vmas >= 8, "expected the full VMA set, got {vmas}");

    // fig15-1: a real radix tree with pages.
    let pane = session.plot(PlotSpec::Figure("fig15-1")).unwrap();
    let g = session.graph(pane).unwrap();
    let pages = g.boxes().iter().filter(|b| &*b.ctype == "page").count();
    assert!(pages >= 1, "page cache must hold pages");

    // workqueue: both enclosing types present (heterogeneous list).
    let pane = session.plot(PlotSpec::Figure("workqueue")).unwrap();
    let g = session.graph(pane).unwrap();
    assert!(g.boxes().iter().any(|b| &*b.label == "DelayedWork"));
    assert!(g
        .boxes()
        .iter()
        .any(|b| &*b.label == "Work" && &*b.ctype == "work_struct"));

    // socketconn: one socket per process, with skbs.
    let pane = session.plot(PlotSpec::Figure("socketconn")).unwrap();
    let g = session.graph(pane).unwrap();
    let socks = g.boxes().iter().filter(|b| &*b.ctype == "socket").count();
    assert_eq!(socks, 5);
}

#[test]
fn table3_objectives_run_hand_written_viewql() {
    let mut session = Session::builder(build(&WorkloadConfig::default()))
        .profile(LatencyProfile::free())
        .attach()
        .unwrap();
    for fig in figures::all() {
        let Some(obj) = &fig.objective else { continue };
        let pane = session
            .plot(PlotSpec::Source(fig.viewcl))
            .unwrap_or_else(|e| panic!("{}: {e}", fig.id));
        session
            .vctrl_refine(pane, obj.viewql)
            .unwrap_or_else(|e| panic!("{} objective: {e}", fig.id));
        // Each objective must actually change something.
        let g = session.graph(pane).unwrap();
        let touched = g.boxes().iter().any(|b| {
            b.attrs.collapsed
                || b.attrs.trimmed
                || b.attrs.view.is_some()
                || b.attrs.direction.is_some()
                || b.views.iter().flat_map(|v| &v.items).any(|i| {
                    matches!(i, vgraph::Item::Container { attrs, .. }
                        if attrs.collapsed || attrs.direction.is_some())
                })
        });
        assert!(touched, "{}: objective had no effect", fig.id);
    }
}
