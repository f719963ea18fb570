//! Every inline listing of the paper, §1–§3, executed end to end against
//! the simulated kernel.

use ksim::workload::{build, WorkloadConfig};
use vbridge::LatencyProfile;
use vgraph::Item;
use visualinux::{PlotSpec, Session};

fn session() -> Session {
    Session::builder(build(&WorkloadConfig::default()))
        .profile(LatencyProfile::free())
        .attach()
        .unwrap()
}

/// §1: the intro's ViewCL + ViewQL pair.
#[test]
fn section1_runqueue_listing() {
    let mut s = session();
    let pane = s
        .plot(PlotSpec::Source(
            r#"
define Task as Box<task_struct> [
    Text pid, comm
    Text ppid: ${@this.parent != NULL ? @this.parent->pid : 0}
    Text<string> state: ${task_state(@this)}
    Text se.vruntime
]
root = ${cpu_rq(0)->cfs.tasks_timeline}
sched_tree = RBTree(@root).forEach |node| {
    yield Task<task_struct.se.run_node>(@node)
}
plot @sched_tree
"#,
        ))
        .unwrap();
    let n_before = s.graph(pane).unwrap().boxes().len();
    assert!(n_before >= 3);

    // §1's ViewQL: keep process 100 and its children, collapse the rest.
    s.vctrl_refine(
        pane,
        r#"
task_all = SELECT task_struct FROM *
task_2 = SELECT task_struct FROM task_all WHERE pid == 100 OR ppid == 100
UPDATE task_all \ task_2 WITH collapsed: true
"#,
    )
    .unwrap();
    let g = s.graph(pane).unwrap();
    for b in g.boxes().iter().filter(|b| &*b.ctype == "task_struct") {
        let pid = b.member_raw("pid", g).unwrap();
        let ppid = b.member_raw("ppid", g).unwrap();
        assert_eq!(
            b.attrs.collapsed,
            pid != 100 && ppid != 100,
            "pid {pid} ppid {ppid}"
        );
    }
}

/// §2.2: three views of a task_struct with `=>` inheritance.
#[test]
fn section2_2_view_inheritance_listing() {
    let mut s = session();
    let pane = s
        .plot(PlotSpec::Source(
            r#"
define RQ as Box<rq> [
    Text cpu, nr_running
]
define Task as Box<task_struct> {
    :default [
        Text pid, comm
    ]
    :default => :sched [
        Text se.vruntime
    ]
    :sched => :sched_rq [
        Link runqueue -> @rq
    ] where {
        rq = RQ(${cpu_rq(0)})
    }
}
t = Task(${current_task})
plot @t
"#,
        ))
        .unwrap();
    let g = s.graph(pane).unwrap();
    let b = g.get(g.roots[0]);
    assert_eq!(b.views.len(), 3);
    // :sched_rq includes pid, comm, se.vruntime and the runqueue link.
    let names: Vec<&str> = b.views[2].items.iter().map(|i| i.name()).collect();
    assert_eq!(names, vec!["pid", "comm", "se.vruntime", "runqueue"]);
}

/// §2.3: the user-threads / writable-areas customization pair.
#[test]
fn section2_3_customization_listings() {
    let mut s = session();
    let pane = s.plot(PlotSpec::Figure("fig3-4")).unwrap();
    s.vctrl_refine(
        pane,
        r#"
user_threads = SELECT task_struct FROM * WHERE mm != NULL
UPDATE user_threads WITH view: show_children
"#,
    )
    .unwrap();
    let g = s.graph(pane).unwrap();
    let (user, kernel): (Vec<_>, Vec<_>) = g
        .boxes()
        .iter()
        .filter(|b| &*b.ctype == "task_struct")
        .partition(|b| b.member_raw("mm", g).unwrap_or(0) != 0);
    assert!(user
        .iter()
        .all(|b| b.attrs.view.as_deref() == Some("show_children")));
    assert!(kernel.iter().all(|b| b.attrs.view.is_none()));

    // Writable-VMA trim on the address-space figure.
    let pane = s.plot(PlotSpec::Figure("fig9-2")).unwrap();
    s.vctrl_refine(
        pane,
        r#"
non_writable_vmas = SELECT vm_area_struct FROM * WHERE is_writable != true
UPDATE non_writable_vmas WITH collapsed: true
"#,
    )
    .unwrap();
    let g = s.graph(pane).unwrap();
    for b in g.boxes().iter().filter(|b| &*b.ctype == "vm_area_struct") {
        let writable = b.member_raw("is_writable", g).unwrap_or(0) == 1;
        assert_eq!(b.attrs.collapsed, !writable);
    }
}

/// §2.4: the natural-language request of the paper, verbatim.
#[test]
fn section2_4_vchat_listing() {
    let mut s = session();
    let pane = s.plot(PlotSpec::Figure("fig3-4")).unwrap();
    let out = s
        .vchat(
            pane,
            "display the task_structs that have non-null mm members with the show_mm view",
            true,
        )
        .unwrap();
    assert!(out.viewql.contains("mm != NULL"), "{}", out.viewql);
    assert!(out.viewql.contains("view: show_mm"), "{}", out.viewql);
}

/// §5.2: the LLM-generated superblock program from the paper, verbatim.
#[test]
fn section5_2_superblock_listing() {
    let mut s = session();
    let pane = s.plot(PlotSpec::Figure("fig14-3")).unwrap();
    s.vctrl_refine(
        pane,
        r#"
a = SELECT List FROM *
UPDATE a WITH direction: vertical
b = SELECT super_block FROM * WHERE s_bdev == NULL
UPDATE b WITH collapsed: true
"#,
    )
    .unwrap();
    let g = s.graph(pane).unwrap();
    // The List virtual box's container is vertical now.
    let list = g.boxes().iter().find(|b| &*b.label == "List").unwrap();
    let vertical = list.views.iter().flat_map(|v| &v.items).any(|i| {
        matches!(i, Item::Container { attrs, .. } if attrs.direction.as_deref() == Some("vertical"))
    }) || list.attrs.direction.as_deref() == Some("vertical");
    assert!(vertical);
    // tmpfs and proc collapsed; ext4 (disk-backed) not.
    let collapsed: Vec<bool> = g
        .boxes()
        .iter()
        .filter(|b| &*b.ctype == "super_block")
        .map(|b| b.attrs.collapsed)
        .collect();
    assert_eq!(collapsed, vec![false, true, true]);
}

/// The detached front-end speaks JSON (§4.2): a plotted graph survives
/// the wire format with its ViewQL attributes.
#[test]
fn graph_json_wire_format_round_trip() {
    let mut s = session();
    let pane = s.plot(PlotSpec::Figure("fig7-1")).unwrap();
    s.vctrl_refine(
        pane,
        "a = SELECT task_struct FROM *\nUPDATE a WITH view: sched",
    )
    .unwrap();
    let g = s.graph(pane).unwrap();
    let json = g.to_json();
    let g2 = vgraph::Graph::from_json(&json).unwrap();
    assert_eq!(g.len(), g2.len());
    for (a, b) in g.boxes().iter().zip(g2.boxes()) {
        assert_eq!(a.attrs.view, b.attrs.view);
        assert_eq!(a.views, b.views);
    }
}
