//! StackRot (CVE-2023-3269) end to end: the §3.2 debugging session.

use vbridge::LatencyProfile;
use visualinux::casestudies;

#[test]
fn stackrot_full_investigation() {
    let r = casestudies::stackrot(LatencyProfile::gdb_qemu()).unwrap();

    // The paper's two pieces of evidence, both visible in one plot:
    // the node is simultaneously (1) reachable from mm_mt and (2) queued
    // for freeing on the RCU callback list with mt_free_rcu.
    assert!(r.node_in_tree);
    assert!(r.node_on_rcu_list);

    // The §3.2 natural-language pin collapsed everything else.
    assert_eq!(r.visible_vmas, 1);
    assert!(r.pin_viewql.contains("collapsed: true"));

    // The plot is renderable and contains both data structures.
    let text = r.session.render_text(r.pane).unwrap();
    assert!(text.contains("MapleNode") || text.contains("maple_node"));
    assert!(
        text.contains("mt_free_rcu"),
        "the destructor is named in the plot"
    );

    // Cost was metered (this ran under the QEMU profile).
    let stats = r.session.plot_stats(r.pane).unwrap();
    assert!(stats.total_ms() > 0.0);
}

#[test]
fn stackrot_rcu_lists_differ_across_cpus() {
    let r = casestudies::stackrot(LatencyProfile::free()).unwrap();
    let g = r.session.graph(r.pane).unwrap();
    // CPU 0 carries the deferred free; CPU 1's list exists but shorter.
    let rcu_datas: Vec<_> = g
        .boxes()
        .iter()
        .filter(|b| &*b.label == "RcuData")
        .collect();
    assert_eq!(rcu_datas.len(), 2);
    let heads: Vec<i64> = rcu_datas
        .iter()
        .map(|b| b.member_raw("len", g).unwrap_or(0))
        .collect();
    assert!(
        heads[0] > heads[1],
        "cpu0 has the extra callback: {heads:?}"
    );
}

/// After the grace period expires, the plot *shows* the corruption: the
/// tree dangles into slab poison — the visual manifestation of the UAF
/// that textual debuggers make so hard to spot.
#[test]
fn stackrot_after_grace_period_plots_the_poison() {
    use ksim::scenarios;
    use ksim::workload::{build, WorkloadConfig};
    use visualinux::{figures, PlotSpec, Session};

    let mut w = build(&WorkloadConfig::default());
    let sr = scenarios::inject_stackrot(&mut w);
    scenarios::expire_rcu_grace_period(&mut w, &sr);
    let mut session = Session::builder(w)
        .profile(LatencyProfile::free())
        .attach()
        .unwrap();

    // The plot still completes (a debugger must not crash on corrupt
    // state); the poisoned node shows garbage where structure used to be.
    let fig = figures::by_id("fig9-2").unwrap();
    let pane = session
        .plot(PlotSpec::Source(fig.viewcl))
        .expect("plot survives the corrupt tree");
    let g = session.graph(pane).unwrap();

    // The victim node's box exists (linked from its parent) but its slot
    // entries decode as poison-pattern pointers, visibly bogus.
    let victim = g
        .boxes()
        .iter()
        .find(|b| &*b.label == "MapleNode" && ksim::maple::mte_to_node(b.addr) == sr.victim_node)
        .expect("the dangling node is still plotted");
    let ntype = victim
        .views
        .iter()
        .flat_map(|v| &v.items)
        .find_map(|i| match i {
            vgraph::Item::Text { name, value, .. } if &**name == "ntype" => Some(value.clone()),
            _ => None,
        })
        .unwrap();
    // The tag bits come from the (dangling) parent slot, so the displayed
    // type is still plausible — but the *pivot cells* read 0x6b... poison.
    let _ = ntype;
    let poisoned_cells = g
        .boxes()
        .iter()
        .filter(|b| &*b.label == "Pivot")
        .filter(|b| {
            b.views.iter().flat_map(|v| &v.items).any(|i| match i {
                vgraph::Item::Text { value, .. } => value.contains("0x6b6b6b6b6b6b6b6b"),
                _ => false,
            })
        })
        .count();
    assert!(
        poisoned_cells > 0,
        "pivot cells must display the 0x6b6b… poison value"
    );
}
