//! The §5.3 case studies: StackRot (CVE-2023-3269) and Dirty Pipe
//! (CVE-2022-0847), driven end to end.
//!
//! Each driver builds the workload, injects the bug state
//! ([`ksim::scenarios`]), attaches a [`crate::Session`], extracts the
//! plots the paper shows, applies the ViewQL (hand-written and
//! vchat-synthesized), and returns a structured report the benches and
//! examples assert on.

use ksim::scenarios;
use ksim::workload::{build, WorkloadConfig};
use vbridge::LatencyProfile;
use vgraph::Item;
use vpanels::PaneId;

use crate::{PlotSpec, Session, SessionError};

/// The RCU side of the StackRot plot, appended to the Fig 9-2 program.
pub const STACKROT_RCU_VIEWCL: &str = r#"
define RcuHead as Box<callback_head> [
    Text<fptr> func
    Link next -> switch ${@this.next != NULL} {
        case ${true}: RcuHead(${@this.next})
        otherwise: NULL
    }
]
define RcuData as Box<rcu_data> [
    Text cpu
    Text len: cblist.len
    Text<u64:x> gp_seq
    Link cblist_head -> switch ${@this.cblist.head != NULL} {
        case ${true}: RcuHead(${@this.cblist.head})
        otherwise: NULL
    }
]
rcu0 = RcuData(${rcu_data_of(0)})
rcu1 = RcuData(${rcu_data_of(1)})
plot @rcu0
plot @rcu1
"#;

/// Findings of the StackRot investigation.
pub struct StackRotReport {
    /// The attached session (panes intact for rendering).
    pub session: Session,
    /// The combined maple-tree + RCU pane.
    pub pane: PaneId,
    /// The injected ground truth.
    pub injected: scenarios::StackRot,
    /// Was the victim node found in the plotted maple tree?
    pub node_in_tree: bool,
    /// Was the victim's `rcu_head` found on the RCU callback list with
    /// destructor `mt_free_rcu`?
    pub node_on_rcu_list: bool,
    /// The ViewQL program used to pin the victim (vchat-synthesized).
    pub pin_viewql: String,
    /// VMAs left visible after pinning.
    pub visible_vmas: usize,
}

/// Run the StackRot case study.
pub fn stackrot(profile: LatencyProfile) -> Result<StackRotReport, SessionError> {
    let mut workload = build(&WorkloadConfig::default());
    let injected = scenarios::inject_stackrot(&mut workload);
    let mut session = Session::builder(workload).profile(profile).attach()?;

    // One pane: the process address space (Fig 9-2's maple tree) plus the
    // per-CPU RCU callback lists.
    let fig = crate::figures::by_id("fig9-2").expect("figure library");
    let combined = format!("{}\n{}", fig.viewcl, STACKROT_RCU_VIEWCL);
    let pane = session.plot(PlotSpec::Source(&combined))?;

    // Force the maple-tree view everywhere (Fig 4 uses :show_mt).
    session.vctrl_refine(
        pane,
        "m = SELECT mm_struct FROM *\nUPDATE m WITH view: show_mt",
    )?;

    // Evidence 1: the victim node is still linked below the tree root.
    let graph = session.graph(pane)?;
    let node_in_tree = graph.boxes().iter().any(|b| {
        &*b.label == "MapleNode" && ksim::maple::mte_to_node(b.addr) == injected.victim_node
    });
    // Evidence 2: its embedded rcu_head sits on CPU 0's callback list with
    // the maple destructor.
    let node_on_rcu_list = graph.boxes().iter().any(|b| {
        &*b.label == "RcuHead"
            && b.addr == injected.rcu_head
            && matches!(
                b.item("func"),
                Some(Item::Text { value, .. }) if value == "mt_free_rcu"
            )
    });

    // §3.2: pin one VMA through natural language; every other VMA
    // collapses.
    let keep = graph
        .boxes()
        .iter()
        .find(|b| &*b.ctype == "vm_area_struct")
        .map(|b| b.addr)
        .unwrap_or(0);
    let out = session.vchat(
        pane,
        &format!("Find me all vm_area_struct whose address is not {keep:#x}, and collapse them"),
        true,
    )?;
    let graph = session.graph(pane)?;
    let visible_vmas = graph
        .boxes()
        .iter()
        .filter(|b| &*b.ctype == "vm_area_struct" && !b.attrs.collapsed && !b.attrs.trimmed)
        .count();

    Ok(StackRotReport {
        session,
        pane,
        injected,
        node_in_tree,
        node_on_rcu_list,
        pin_viewql: out.viewql,
        visible_vmas,
    })
}

/// The Dirty Pipe plot: page caches of all files and all pipes reachable
/// from the current thread's file table (paper Fig 7, ~60 LoC).
pub const DIRTY_PIPE_VIEWCL: &str = r#"
define PageDP as Box<page> [
    Text index
    Text<flag:page> flags
    Text refcount: _refcount.counter
]
define PageCache as Box<address_space> [
    Text nrpages
    Container pagecache: XArray(${&@this.i_pages}).forEach |e| {
        yield PageDP(@e)
    }
]
define FileDP as Box<file> [
    Text<string> name: ${@this.f_path.dentry->d_iname}
    Link pagecache -> PageCache(${@this.f_mapping})
]
define PipeBuffer as Box<pipe_buffer> [
    Text offset, len
    Text<flag:pipe_buf> flags
    Link page -> switch ${@this.page != NULL} {
        case ${true}: PageDP(${@this.page})
        otherwise: NULL
    }
]
define Pipe as Box<pipe_inode_info> [
    Text head, tail, ring_size
    Container bufs: Array(${@this.bufs}, ${@this.head}).forEach |b| {
        yield PipeBuffer(@b)
    }
]
define TaskDP as Box<task_struct> [
    Text pid
    Text<string> comm
    Container files: Array(${@this.files->fdt->fd}, ${@this.files->next_fd}).forEach |f| {
        yield switch ${@f != NULL} {
            case ${true}: switch ${(@f->f_inode->i_mode & 61440) == S_IFIFO} {
                case ${true}: Pipe(${@f->private_data})
                otherwise: switch ${(@f->f_inode->i_mode & 61440) == S_IFREG} {
                    case ${true}: FileDP(@f)
                    otherwise: NULL
                }
            }
            otherwise: NULL
        }
    }
]
t = TaskDP(${current_task})
plot @t
"#;

/// The paper's Fig 7 ViewQL: isolate pages shared between a file and a
/// pipe.
pub const DIRTY_PIPE_VIEWQL: &str = r#"
// Find pages belonging to any file
file_pgc = SELECT file->pagecache FROM *
file_pgs = SELECT page FROM REACHABLE(file_pgc)
// Find pages belonging to any pipe
pipe_buf = SELECT pipe_inode_info->bufs FROM *
pipe_pgs = SELECT page FROM REACHABLE(pipe_buf)
// Trim pages except for shared ones
UPDATE pipe_pgs \ file_pgs WITH trimmed: true
UPDATE file_pgs \ pipe_pgs WITH trimmed: true
"#;

/// Findings of the Dirty Pipe investigation.
pub struct DirtyPipeReport {
    /// The attached session.
    pub session: Session,
    /// The Fig 7 pane.
    pub pane: PaneId,
    /// The injected ground truth.
    pub injected: scenarios::DirtyPipe,
    /// Pages left visible after the ViewQL (should be exactly the shared
    /// one).
    pub visible_pages: Vec<u64>,
    /// Does the surviving pipe buffer carry `PIPE_BUF_FLAG_CAN_MERGE`?
    pub can_merge_flagged: bool,
}

/// Run the Dirty Pipe case study.
pub fn dirty_pipe(profile: LatencyProfile) -> Result<DirtyPipeReport, SessionError> {
    let mut workload = build(&WorkloadConfig::default());
    let injected = scenarios::inject_dirty_pipe(&mut workload);
    let mut session = Session::builder(workload).profile(profile).attach()?;

    let pane = session.plot(PlotSpec::Source(DIRTY_PIPE_VIEWCL))?;
    session.vctrl_refine(pane, DIRTY_PIPE_VIEWQL)?;

    let graph = session.graph(pane)?;
    let visible_pages: Vec<u64> = graph
        .boxes()
        .iter()
        .filter(|b| &*b.ctype == "page" && !b.attrs.trimmed)
        .map(|b| b.addr)
        .collect();
    let can_merge_flagged = graph.boxes().iter().any(|b| {
        &*b.ctype == "pipe_buffer"
            && matches!(
                b.item("flags"),
                Some(Item::Text { value, .. }) if value.contains("PIPE_BUF_FLAG_CAN_MERGE")
            )
    });

    Ok(DirtyPipeReport {
        session,
        pane,
        injected,
        visible_pages,
        can_merge_flagged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stackrot_evidence_is_visible() {
        let r = stackrot(LatencyProfile::free()).unwrap();
        assert!(r.node_in_tree, "victim node must still hang in the tree");
        assert!(
            r.node_on_rcu_list,
            "victim rcu_head must be on the callback list"
        );
        assert_eq!(r.visible_vmas, 1, "pin leaves exactly one VMA visible");
        assert!(r.pin_viewql.contains("AS obj WHERE obj !="));
    }

    #[test]
    fn dirty_pipe_isolates_the_shared_page() {
        let r = dirty_pipe(LatencyProfile::free()).unwrap();
        assert_eq!(
            r.visible_pages,
            vec![r.injected.shared_page],
            "exactly the shared page survives the trim"
        );
        assert!(r.can_merge_flagged, "the buggy CAN_MERGE flag is displayed");
    }
}
