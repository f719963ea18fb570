//! Fault-injection corpus end to end: `vcheck` flags every injected
//! corruption with a symbol-rooted path, a clean image stays silent, and
//! corrupted plots still render — annotated with diagnostics — within a
//! bounded packet budget.
//!
//! `FAULT_SEED` selects the corpus RNG seed so CI can sweep a matrix of
//! seeds over the same test body.

use ksim::faults::{self, FaultKind, ALL_FAULTS};
use ksim::workload::{build, Workload, WorkloadConfig};
use vbridge::LatencyProfile;
use visualinux::{figures, PlotSpec, Session};

fn fault_seed() -> u64 {
    std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

#[test]
fn clean_image_passes_every_checker() {
    let s = Session::builder(build(&WorkloadConfig::default()))
        .profile(LatencyProfile::free())
        .attach()
        .unwrap();
    let report = s.vcheck();
    assert!(report.is_clean(), "clean image: {}", report.summary());
    assert!(report.checkers_run > 10, "the sweep covers the image");
}

#[test]
fn every_injected_fault_is_flagged_with_a_symbol_rooted_path() {
    let seed = fault_seed();
    for kind in ALL_FAULTS {
        let mut w = build(&WorkloadConfig::default());
        let f = faults::inject(&mut w, kind, seed);
        let s = Session::builder(w)
            .profile(LatencyProfile::free())
            .attach()
            .unwrap();
        let report = s.vcheck();
        assert!(
            report.count_of(f.class()) >= 1,
            "{kind:?} (seed {seed}, {}) must be flagged as `{}`: {}",
            f.note,
            f.class(),
            report.summary()
        );
        for v in &report.violations {
            assert!(
                v.path.starts_with("init_task")
                    || v.path.starts_with("runqueues")
                    || v.path.starts_with("super_blocks")
                    || v.path.starts_with("slab_caches")
                    || v.path.starts_with("pid_hash"),
                "violation path must be symbol-rooted: {v:?}"
            );
        }
    }
}

/// An inline plot of the global task list — the structure the list
/// faults target.
const TASK_LIST_VIEWCL: &str = r#"
define T as Box<task_struct> [
    Text pid
    Text<string> comm
]
all = Box AllTasks [
    Container tasks: List(${&init_task.tasks}).forEach |node| {
        yield T<task_struct.tasks>(@node)
    }
]
plot @all
"#;

fn packets_of(w: Workload, viewcl: &str) -> (Session, vpanels::PaneId, u64, usize) {
    let mut s = Session::builder(w)
        .profile(LatencyProfile::free())
        .attach()
        .unwrap();
    let pane = s.plot(PlotSpec::Source(viewcl)).expect("plot must survive");
    let reads = s.plot_stats(pane).unwrap().target.reads;
    let diags = s
        .graph(pane)
        .unwrap()
        .boxes()
        .iter()
        .filter(|b| &*b.label == "Diag")
        .count();
    (s, pane, reads, diags)
}

#[test]
fn cross_linked_task_list_plots_with_diagnostic_within_packet_budget() {
    let (_, _, clean_reads, clean_diags) =
        packets_of(build(&WorkloadConfig::default()), TASK_LIST_VIEWCL);
    assert_eq!(clean_diags, 0, "clean plot carries no diagnostics");

    let mut w = build(&WorkloadConfig::default());
    let f = faults::inject(&mut w, FaultKind::ListCrossLink, fault_seed());
    let (s, pane, reads, diags) = packets_of(w, TASK_LIST_VIEWCL);
    assert!(diags >= 1, "the truncated list is annotated ({})", f.note);
    assert!(
        reads <= 2 * clean_reads,
        "corrupted plot must stay within 2x the clean packet count: {reads} vs {clean_reads}"
    );
    // The diagnostic names the cycle.
    let g = s.graph(pane).unwrap();
    let diag_text = g
        .boxes()
        .iter()
        .filter(|b| &*b.label == "Diag")
        .flat_map(|b| b.views.iter().flat_map(|v| &v.items))
        .find_map(|i| match i {
            vgraph::Item::Text { value, .. } => Some(value.clone()),
            _ => None,
        })
        .unwrap();
    assert!(diag_text.contains("cycle"), "{diag_text}");
}

/// Rewire the plotted (first leader's) address-space tree so its root
/// slot dangles into unmapped memory — the same mutation as
/// [`FaultKind::MapleEnodeDangle`], pinned to the tree `fig9-2` plots
/// (`current_task->mm`).
fn dangle_plotted_maple_root(w: &mut Workload) {
    use ksim::maple;
    let (mm_off, _) =
        w.kb.types
            .field_path(w.types.task.task_struct, "mm")
            .unwrap();
    let mm = w.kb.mem.read_uint(w.roots.leaders[0] + mm_off, 8).unwrap();
    let (mt_off, _) =
        w.kb.types
            .field_path(w.types.mm.mm_struct, "mm_mt")
            .unwrap();
    let (root_off, _) =
        w.kb.types
            .field_path(w.types.maple.maple_tree, "ma_root")
            .unwrap();
    let root = w.kb.mem.read_uint(mm + mt_off + root_off, 8).unwrap();
    assert!(maple::xa_is_node(root));
    let node = maple::mte_to_node(root);
    let slot0 = node + 8 + 8 * (maple::MAPLE_ARANGE64_SLOTS - 1);
    let dangling = maple::mt_mk_node(0xdead_0000_0000, maple::MapleType::Leaf64);
    w.kb.mem.write_uint(slot0, 8, dangling);
}

#[test]
fn dangling_maple_node_plots_with_diagnostic_within_packet_budget() {
    let fig = figures::by_id("fig9-2").unwrap();
    let (_, _, clean_reads, clean_diags) =
        packets_of(build(&WorkloadConfig::default()), fig.viewcl);
    assert_eq!(clean_diags, 0);

    let mut w = build(&WorkloadConfig::default());
    dangle_plotted_maple_root(&mut w);
    let (s, pane, reads, diags) = packets_of(w, fig.viewcl);
    assert!(diags >= 1, "the dangling subtree is annotated");
    assert!(
        reads <= 2 * clean_reads,
        "corrupted plot must stay within 2x the clean packet count: {reads} vs {clean_reads}"
    );
    // The wild reads were metered as faults, and vcheck sees the damage.
    assert!(s.plot_stats(pane).unwrap().target.faults >= 1);
    let report = s.vcheck();
    assert!(report.count_of("maple") >= 1, "{}", report.summary());
}

#[test]
fn scoped_vcheck_annotates_only_the_damaged_objects() {
    let mut w = build(&WorkloadConfig::default());
    faults::inject(&mut w, FaultKind::MaplePivotCorrupt, fault_seed());
    let mut s = Session::builder(w)
        .profile(LatencyProfile::free())
        .attach()
        .unwrap();
    let pane = s.plot(PlotSpec::Figure("fig3-4")).unwrap();
    let report = s
        .vcheck_scoped(
            pane,
            "t = SELECT task_struct FROM *\nm = SELECT mm_struct FROM REACHABLE(t)",
        )
        .unwrap();
    assert!(report.count_of("maple") >= 1, "{}", report.summary());
    let g = s.graph(pane).unwrap();
    let annotated: Vec<_> = g
        .boxes()
        .iter()
        .filter(|b| b.attrs.extra.contains_key("violations"))
        .collect();
    assert!(!annotated.is_empty());
    assert!(
        annotated.iter().all(|b| &*b.ctype == "mm_struct"),
        "only the damaged address spaces are marked"
    );
}
