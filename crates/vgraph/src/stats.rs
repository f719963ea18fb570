//! Graph statistics, the denominators of Table 4.

use serde::{Deserialize, Serialize};

use crate::graph::{Graph, Item, ViewInst};

/// Aggregate statistics of an extracted graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Number of boxes (objects), including virtual boxes.
    pub objects: u64,
    /// Number of non-virtual kernel objects.
    pub kernel_objects: u64,
    /// Total bytes of the underlying kernel objects.
    pub bytes: u64,
    /// Number of link edges.
    pub links: u64,
    /// Number of container memberships.
    pub memberships: u64,
}

impl GraphStats {
    /// Compute statistics for a graph.
    pub fn of(g: &Graph) -> GraphStats {
        let mut s = GraphStats {
            objects: g.len() as u64,
            ..Default::default()
        };
        for b in g.boxes() {
            if b.addr != 0 {
                s.kernel_objects += 1;
                s.bytes += b.size;
            }
            let (links, memberships) = edges(&b.views);
            s.links += links;
            s.memberships += memberships;
        }
        s
    }

    /// The statistics of the graph these describe once a box's views
    /// `old` are replaced by `new` ([`Graph::set_views`]): its edges
    /// change, and nothing else.
    pub fn with_views_replaced(mut self, old: &[ViewInst], new: &[ViewInst]) -> GraphStats {
        let ((old_links, old_memberships), (links, memberships)) = (edges(old), edges(new));
        self.links = self.links - old_links + links;
        self.memberships = self.memberships - old_memberships + memberships;
        self
    }
}

/// `(links, container memberships)` of a box's views.
fn edges(views: &[ViewInst]) -> (u64, u64) {
    let (mut links, mut memberships) = (0, 0);
    for item in views.iter().flat_map(|v| &v.items) {
        match item {
            Item::Link { .. } => links += 1,
            Item::Container { members, .. } => memberships += members.len() as u64,
            _ => {}
        }
    }
    (links, memberships)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Attrs, ContainerKind, Item, ViewInst};

    #[test]
    fn stats_count_objects_bytes_edges() {
        let mut g = Graph::new();
        let (a, _) = g.intern(0x1000, "A", "task_struct", 64);
        let (b, _) = g.intern(0x2000, "B", "mm_struct", 32);
        let (v, _) = g.intern(0, "Virt", "", 0);
        g.get_mut(a).views.push(ViewInst {
            name: "default".into(),
            items: vec![
                Item::Link {
                    name: "x".into(),
                    target: b,
                },
                Item::Container {
                    name: "c".into(),
                    kind: ContainerKind::Sequence,
                    members: vec![b, v],
                    attrs: Attrs::default(),
                },
            ],
        });
        let s = GraphStats::of(&g);
        assert_eq!(s.objects, 3);
        assert_eq!(s.kernel_objects, 2);
        assert_eq!(s.bytes, 96);
        assert_eq!(s.links, 1);
        assert_eq!(s.memberships, 2);

        // Box `a` loses its link and one member; `b` gains a link.
        let mut patched = g.clone();
        let mut stats = s;
        let views = |items| {
            vec![ViewInst {
                name: "default".into(),
                items,
            }]
        };
        let container = Item::Container {
            name: "c".into(),
            kind: ContainerKind::Set,
            members: vec![v],
            attrs: Attrs::default(),
        };
        let link = Item::Link {
            name: "back".into(),
            target: a,
        };
        for (id, new) in [(a, views(vec![container])), (b, views(vec![link]))] {
            stats = stats.with_views_replaced(&patched.get(id).views, &new);
            patched.set_views(id, new);
        }
        assert_eq!(stats, GraphStats::of(&patched));
        assert_eq!((stats.links, stats.memberships), (1, 1));
        assert_eq!(GraphStats::of(&g), s, "the graph patched from is as it was");
    }
}
