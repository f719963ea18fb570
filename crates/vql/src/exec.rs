//! ViewQL execution over a [`vgraph::Graph`].

use std::collections::HashMap;
use std::rc::Rc;

use vgraph::{BoxId, Graph, Item};
use vtrace::Tracer;

use crate::parse::{Cond, Op, SelExpr, SetExpr, Source, Stmt, ValueLit};
use crate::{Result, VqlError};

/// One selected entity: a whole box, or one member of a box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Entry {
    /// A box.
    Box(BoxId),
    /// A member item (by view-materialized name); the `u32` indexes into
    /// an interned member-name table kept by the engine.
    Member(BoxId, u32),
}

/// An ordered, deduplicated selection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Selection {
    /// Entries in selection order.
    pub entries: Vec<Entry>,
}

impl Selection {
    fn dedup(mut self) -> Self {
        let mut seen = std::collections::HashSet::new();
        self.entries.retain(|e| seen.insert(*e));
        self
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the selection is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The boxes covered by this selection (members resolve to their
    /// box), deduplicated, in first-appearance order.
    pub fn boxes(&self) -> Vec<BoxId> {
        let mut seen = std::collections::HashSet::new();
        self.entries
            .iter()
            .map(|e| match e {
                Entry::Box(b) | Entry::Member(b, _) => *b,
            })
            .filter(|b| seen.insert(*b))
            .collect()
    }
}

/// The ViewQL engine: binds selection variables, executes statements,
/// mutates graph display attributes.
#[derive(Debug, Default)]
pub struct Engine {
    vars: HashMap<String, Selection>,
    member_names: Vec<String>,
    member_index: HashMap<String, u32>,
    tracer: Option<Rc<Tracer>>,
}

impl Engine {
    /// Create an engine with no bound variables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one [`vtrace::SpanKind::Clause`] span per executed
    /// statement on `tracer`.
    pub fn set_tracer(&mut self, tracer: Rc<Tracer>) {
        self.tracer = Some(tracer);
    }

    fn intern_member(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.member_index.get(name) {
            return i;
        }
        let i = self.member_names.len() as u32;
        self.member_names.push(name.to_string());
        self.member_index.insert(name.to_string(), i);
        i
    }

    /// The interned member name for an [`Entry::Member`].
    pub fn member_name(&self, idx: u32) -> &str {
        &self.member_names[idx as usize]
    }

    /// A bound selection variable.
    pub fn var(&self, name: &str) -> Option<&Selection> {
        self.vars.get(name)
    }

    /// Parse and execute a whole program against `graph`.
    pub fn run(&mut self, graph: &mut Graph, src: &str) -> Result<()> {
        let stmts = crate::parse(src)?;
        for s in &stmts {
            let _sp = vtrace::span(
                self.tracer.as_ref(),
                vtrace::SpanKind::Clause,
                describe_stmt(s),
            );
            self.exec(graph, s)?;
        }
        Ok(())
    }

    /// Execute one statement.
    pub fn exec(&mut self, graph: &mut Graph, stmt: &Stmt) -> Result<()> {
        match stmt {
            Stmt::Select {
                var,
                expr,
                source,
                alias,
                cond,
            } => {
                let sel = self.select(graph, expr, source, alias.as_deref(), cond.as_ref())?;
                self.vars.insert(var.clone(), sel);
                Ok(())
            }
            Stmt::Update { target, attrs } => {
                let sel = self.eval_set(graph, target)?;
                for entry in &sel.entries {
                    for (name, value) in attrs {
                        let v = lit_to_json(value);
                        match entry {
                            Entry::Box(id) => graph.get_mut(*id).attrs.set(name, v),
                            Entry::Member(id, m) => {
                                let mname = self.member_names[*m as usize].clone();
                                apply_member_attr(graph, *id, &mname, name, v);
                            }
                        }
                    }
                }
                Ok(())
            }
        }
    }

    fn candidate_boxes(&self, graph: &Graph, source: &Source) -> Result<Vec<BoxId>> {
        Ok(match source {
            Source::All => graph.boxes().iter().map(|b| b.id).collect(),
            Source::Var(v) => self
                .vars
                .get(v)
                .ok_or_else(|| VqlError::Exec(format!("unknown selection `{v}`")))?
                .boxes(),
            Source::Reachable(v) => {
                let sel = self
                    .vars
                    .get(v)
                    .ok_or_else(|| VqlError::Exec(format!("unknown selection `{v}`")))?;
                let seeds = self.expand(graph, sel);
                graph.reachable(&seeds)
            }
        })
    }

    /// Expand a selection to boxes, resolving member entries to their
    /// link targets / container members (for closure seeds).
    fn expand(&self, graph: &Graph, sel: &Selection) -> Vec<BoxId> {
        let mut out = Vec::new();
        for e in &sel.entries {
            match e {
                Entry::Box(b) => out.push(*b),
                Entry::Member(b, m) => {
                    let name = &self.member_names[*m as usize];
                    if let Some(item) = graph.get(*b).item(name) {
                        match item {
                            Item::Link { target, .. } => out.push(*target),
                            Item::Container { members, .. } => out.extend(members.iter().copied()),
                            _ => out.push(*b),
                        }
                    }
                }
            }
        }
        out
    }

    fn select(
        &mut self,
        graph: &Graph,
        expr: &SelExpr,
        source: &Source,
        alias: Option<&str>,
        cond: Option<&Cond>,
    ) -> Result<Selection> {
        let candidates = self.candidate_boxes(graph, source)?;
        let mut entries = Vec::new();
        for id in candidates {
            let b = graph.get(id);
            // Type match: C type tag or ViewCL label (case-sensitive).
            if *b.ctype != *expr.type_name && *b.label != *expr.type_name {
                continue;
            }
            if let Some(c) = cond {
                let inside =
                    |var: &str, probe: BoxId| -> bool {
                        let Some(sel) = self.vars.get(var) else {
                            return false;
                        };
                        sel.boxes().iter().any(|holder| {
                            graph.get(*holder).views.iter().flat_map(|v| &v.items).any(
                                |i| match i {
                                    Item::Container { members, .. } => members.contains(&probe),
                                    _ => false,
                                },
                            )
                        })
                    };
                let hit = c
                    .disjuncts
                    .iter()
                    .any(|conj| conj.iter().all(|a| eval_atom(graph, id, alias, a, &inside)));
                if !hit {
                    continue;
                }
            }
            match &expr.member {
                None => entries.push(Entry::Box(id)),
                Some(m) => {
                    if b.item(m).is_some() {
                        let mi = self.intern_member(m);
                        entries.push(Entry::Member(id, mi));
                    }
                }
            }
        }
        Ok(Selection { entries }.dedup())
    }

    fn eval_set(&self, graph: &Graph, e: &SetExpr) -> Result<Selection> {
        Ok(match e {
            SetExpr::Var(v) => self
                .vars
                .get(v)
                .cloned()
                .ok_or_else(|| VqlError::Exec(format!("unknown selection `{v}`")))?,
            SetExpr::Reachable(v) => {
                let sel = self
                    .vars
                    .get(v)
                    .ok_or_else(|| VqlError::Exec(format!("unknown selection `{v}`")))?;
                let seeds = self.expand(graph, sel);
                Selection {
                    entries: graph
                        .reachable(&seeds)
                        .into_iter()
                        .map(Entry::Box)
                        .collect(),
                }
            }
            SetExpr::Diff(a, b) => {
                let a = self.eval_set(graph, a)?;
                let b = self.eval_set(graph, b)?;
                let bs: std::collections::HashSet<Entry> = b.entries.into_iter().collect();
                Selection {
                    entries: a.entries.into_iter().filter(|e| !bs.contains(e)).collect(),
                }
            }
            SetExpr::Inter(a, b) => {
                let a = self.eval_set(graph, a)?;
                let b = self.eval_set(graph, b)?;
                let bs: std::collections::HashSet<Entry> = b.entries.into_iter().collect();
                Selection {
                    entries: a.entries.into_iter().filter(|e| bs.contains(e)).collect(),
                }
            }
            SetExpr::Union(a, b) => {
                let mut a = self.eval_set(graph, a)?;
                let b = self.eval_set(graph, b)?;
                a.entries.extend(b.entries);
                a.dedup()
            }
        })
    }
}

/// A one-line label for a clause span (what `vtrace` shows per clause).
fn describe_stmt(stmt: &Stmt) -> String {
    match stmt {
        Stmt::Select {
            var, expr, source, ..
        } => {
            let member = expr
                .member
                .as_deref()
                .map(|m| format!(".{m}"))
                .unwrap_or_default();
            let src = match source {
                Source::All => "*".to_string(),
                Source::Var(v) => v.clone(),
                Source::Reachable(v) => format!("REACHABLE({v})"),
            };
            format!("{var} = SELECT {}{member} FROM {src}", expr.type_name)
        }
        Stmt::Update { attrs, .. } => {
            let names: Vec<&str> = attrs.iter().map(|(n, _)| n.as_str()).collect();
            format!("UPDATE … WITH {}", names.join(", "))
        }
    }
}

fn lit_to_json(v: &ValueLit) -> serde_json::Value {
    match v {
        ValueLit::Int(n) => {
            // Attribute context: 0/1 read best as booleans.
            if *n == 0 || *n == 1 {
                serde_json::Value::Bool(*n == 1)
            } else {
                serde_json::json!(n)
            }
        }
        ValueLit::Str(s) => serde_json::json!(s),
    }
}

fn apply_member_attr(graph: &mut Graph, id: BoxId, member: &str, attr: &str, v: serde_json::Value) {
    // Container members carry their own attrs; link members forward to the
    // target box; texts fall back to the box itself.
    let mut link_target = None;
    {
        let b = graph.get_mut(id);
        for view in &mut b.views {
            for item in &mut view.items {
                if item.name() != member {
                    continue;
                }
                match item {
                    Item::Container { attrs, .. } => {
                        attrs.set(attr, v.clone());
                        return;
                    }
                    Item::Link { target, .. } => {
                        link_target = Some(*target);
                    }
                    _ => {}
                }
            }
        }
    }
    match link_target {
        Some(t) => graph.get_mut(t).attrs.set(attr, v),
        None => graph.get_mut(id).attrs.set(attr, v),
    }
}

fn eval_atom(
    graph: &Graph,
    id: BoxId,
    alias: Option<&str>,
    atom: &crate::parse::CondAtom,
    inside: &dyn Fn(&str, BoxId) -> bool,
) -> bool {
    let (member, op, value) = match atom {
        crate::parse::CondAtom::IsInside(var) => return inside(var, id),
        crate::parse::CondAtom::Cmp { member, op, value } => (member, *op, value),
    };
    let b = graph.get(id);
    // The alias (or the literal word `addr`) compares the box address.
    let lhs: Option<i64> = if Some(member.as_str()) == alias || member == "addr" {
        Some(b.addr as i64)
    } else {
        b.member_raw(member, graph)
    };
    match (value, lhs) {
        (ValueLit::Int(rhs), Some(l)) => cmp(op, l, *rhs),
        (ValueLit::Str(s), _) => {
            // String comparison against the rendered text.
            let text = b.item(member).and_then(|i| match i {
                Item::Text { value, .. } => Some(value.clone()),
                _ => None,
            });
            match (op, text) {
                (Op::Eq, Some(t)) => t == *s,
                (Op::Ne, Some(t)) => t != *s,
                (Op::Ne, None) => true,
                _ => false,
            }
        }
        (_, None) => matches!(op, Op::Ne),
    }
}

fn cmp(op: Op, l: i64, r: i64) -> bool {
    match op {
        Op::Eq => l == r,
        Op::Ne => l != r,
        // Addresses and sizes are unsigned; compare as such.
        Op::Lt => (l as u64) < (r as u64),
        Op::Gt => (l as u64) > (r as u64),
        Op::Le => (l as u64) <= (r as u64),
        Op::Ge => (l as u64) >= (r as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgraph::{Attrs, ContainerKind, ViewInst};

    /// A toy graph shaped like a process list with mms and a container.
    fn toy() -> Graph {
        let mut g = Graph::new();
        let mut tasks = Vec::new();
        for (i, (pid, ppid)) in [(1i64, 0i64), (2, 1), (3, 1), (4, 2)].iter().enumerate() {
            let (id, _) = g.intern(0x1000 + i as u64 * 0x100, "Task", "task_struct", 64);
            let mm = if *pid == 3 {
                None
            } else {
                let (m, _) = g.intern(0x9000 + i as u64 * 0x100, "MM", "mm_struct", 32);
                g.get_mut(m).views.push(ViewInst {
                    name: "default".into(),
                    items: vec![],
                });
                Some(m)
            };
            let mut items = vec![
                Item::Text {
                    name: "pid".into(),
                    value: pid.to_string(),
                    raw: Some(*pid),
                },
                Item::Text {
                    name: "ppid".into(),
                    value: ppid.to_string(),
                    raw: Some(*ppid),
                },
            ];
            match mm {
                Some(m) => items.push(Item::Link {
                    name: "mm".into(),
                    target: m,
                }),
                None => items.push(Item::NullLink { name: "mm".into() }),
            }
            g.get_mut(id).views.push(ViewInst {
                name: "default".into(),
                items,
            });
            tasks.push(id);
        }
        // A container on task 0.
        let members = tasks[1..].to_vec();
        let t0 = tasks[0];
        if let Some(view) = g.get_mut(t0).views.first_mut() {
            view.items.push(Item::Container {
                name: "children".into(),
                kind: ContainerKind::Sequence,
                members,
                attrs: Attrs::default(),
            });
        }
        g.roots.push(t0);
        g
    }

    #[test]
    fn select_where_or_and_update_difference() {
        let mut g = toy();
        let mut e = Engine::new();
        e.run(
            &mut g,
            r#"
task_all = SELECT task_struct FROM *
task_2 = SELECT task_struct FROM task_all WHERE pid == 2 OR ppid == 2
UPDATE task_all \ task_2 WITH collapsed: true
"#,
        )
        .unwrap();
        assert_eq!(e.var("task_all").unwrap().len(), 4);
        assert_eq!(e.var("task_2").unwrap().len(), 2);
        let collapsed: Vec<bool> = g
            .boxes()
            .iter()
            .filter(|b| &*b.label == "Task")
            .map(|b| b.attrs.collapsed)
            .collect();
        // pids 1 and 3 collapsed; 2 and 4 (ppid 2) stay.
        assert_eq!(collapsed, vec![true, false, true, false]);
    }

    #[test]
    fn an_update_copies_only_the_boxes_it_changes() {
        // A refinement runs on a copy of a pane's graph, which shares
        // its boxes with the graph it was copied from.
        let g = toy();
        let json = g.to_json();
        let mut pane = g.clone();
        let mut e = Engine::new();
        e.run(
            &mut pane,
            "two = SELECT task_struct FROM * WHERE pid == 2\nUPDATE two WITH collapsed: true",
        )
        .unwrap();
        assert_eq!(g.to_json(), json, "the graph copied from is as it was");
        let copied: Vec<bool> = (g.boxes().iter().zip(pane.boxes()))
            .map(|(a, b)| !std::sync::Arc::ptr_eq(a, b))
            .collect();
        let collapsed: Vec<bool> = pane.boxes().iter().map(|b| b.attrs.collapsed).collect();
        assert_eq!(copied, collapsed, "exactly the updated box is copied");
        assert_eq!(collapsed.iter().filter(|&&c| c).count(), 1);
    }

    #[test]
    fn where_null_checks_links() {
        let mut g = toy();
        let mut e = Engine::new();
        e.run(
            &mut g,
            "user = SELECT task_struct FROM * WHERE mm != NULL\nUPDATE user WITH view: show_mm",
        )
        .unwrap();
        assert_eq!(e.var("user").unwrap().len(), 3);
        let with_view = g
            .boxes()
            .iter()
            .filter(|b| b.attrs.view.as_deref() == Some("show_mm"))
            .count();
        assert_eq!(with_view, 3);
    }

    #[test]
    fn member_select_collapses_container_only() {
        let mut g = toy();
        let mut e = Engine::new();
        e.run(
            &mut g,
            "kids = SELECT task_struct.children FROM *\nUPDATE kids WITH collapsed: true",
        )
        .unwrap();
        assert_eq!(e.var("kids").unwrap().len(), 1);
        // The container item is collapsed, not the box.
        let t0 = g.roots[0];
        let b = g.get(t0);
        assert!(!b.attrs.collapsed);
        match b.item("children").unwrap() {
            Item::Container { attrs, .. } => assert!(attrs.collapsed),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reachable_closure_from_selection() {
        let mut g = toy();
        let mut e = Engine::new();
        e.run(
            &mut g,
            r#"
roots = SELECT task_struct FROM * WHERE pid == 1
everything = SELECT task_struct FROM REACHABLE(roots)
mms = SELECT mm_struct FROM REACHABLE(roots)
"#,
        )
        .unwrap();
        assert_eq!(e.var("everything").unwrap().len(), 4);
        assert_eq!(e.var("mms").unwrap().len(), 3);
    }

    #[test]
    fn member_link_select_targets_boxes() {
        let mut g = toy();
        let mut e = Engine::new();
        e.run(
            &mut g,
            r#"
task_mms = SELECT task_struct->mm FROM *
UPDATE task_mms WITH trimmed: true
"#,
        )
        .unwrap();
        // Updating the `mm` member forwards to the MM target boxes.
        let trimmed = g
            .boxes()
            .iter()
            .filter(|b| &*b.label == "MM" && b.attrs.trimmed)
            .count();
        assert_eq!(trimmed, 3);
    }

    #[test]
    fn alias_compares_addresses() {
        let mut g = toy();
        let keep = g.get(g.roots[0]).addr;
        let mut e = Engine::new();
        e.run(
            &mut g,
            &format!(
                "a = SELECT task_struct FROM * AS t WHERE t != {keep}\nUPDATE a WITH trimmed: true"
            ),
        )
        .unwrap();
        let trimmed: Vec<bool> = g
            .boxes()
            .iter()
            .filter(|b| &*b.label == "Task")
            .map(|b| b.attrs.trimmed)
            .collect();
        assert_eq!(trimmed, vec![false, true, true, true]);
    }

    #[test]
    fn set_union_and_intersection() {
        let mut g = toy();
        let mut e = Engine::new();
        e.run(
            &mut g,
            r#"
a = SELECT task_struct FROM * WHERE pid <= 2
b = SELECT task_struct FROM * WHERE pid >= 2
UPDATE a & b WITH view: only_two
UPDATE a | b WITH collapsed: true
"#,
        )
        .unwrap();
        let two = g
            .boxes()
            .iter()
            .filter(|b| b.attrs.view.as_deref() == Some("only_two"))
            .count();
        assert_eq!(two, 1);
        let all = g.boxes().iter().filter(|b| b.attrs.collapsed).count();
        assert_eq!(all, 4);
    }

    #[test]
    fn is_inside_tests_container_membership() {
        let mut g = toy();
        let mut e = Engine::new();
        e.run(
            &mut g,
            r#"
roots = SELECT task_struct FROM * WHERE pid == 1
kids = SELECT task_struct FROM * WHERE IS_INSIDE(roots)
UPDATE kids WITH collapsed: true
"#,
        )
        .unwrap();
        // pids 2, 3, 4 are members of task 1's `children` container.
        assert_eq!(e.var("kids").unwrap().len(), 3);
        let collapsed: Vec<bool> = g
            .boxes()
            .iter()
            .filter(|b| &*b.label == "Task")
            .map(|b| b.attrs.collapsed)
            .collect();
        assert_eq!(collapsed, vec![false, true, true, true]);
    }

    #[test]
    fn set_algebra_laws_hold() {
        let g = toy();
        let mut e = Engine::new();
        let mut g2 = g.clone();
        e.run(
            &mut g2,
            "a = SELECT task_struct FROM * WHERE pid <= 2
b = SELECT task_struct FROM * WHERE pid >= 2",
        )
        .unwrap();
        let a = e.var("a").unwrap().clone();
        let b = e.var("b").unwrap().clone();
        let inter = e
            .eval_set(
                &g2,
                &crate::parse::SetExpr::Inter(
                    Box::new(crate::parse::SetExpr::Var("a".into())),
                    Box::new(crate::parse::SetExpr::Var("b".into())),
                ),
            )
            .unwrap();
        let diff = e
            .eval_set(
                &g2,
                &crate::parse::SetExpr::Diff(
                    Box::new(crate::parse::SetExpr::Var("a".into())),
                    Box::new(crate::parse::SetExpr::Var("b".into())),
                ),
            )
            .unwrap();
        let union = e
            .eval_set(
                &g2,
                &crate::parse::SetExpr::Union(
                    Box::new(crate::parse::SetExpr::Var("a".into())),
                    Box::new(crate::parse::SetExpr::Var("b".into())),
                ),
            )
            .unwrap();
        // |A| = |A\B| + |A∩B|;  |A∪B| = |A| + |B| - |A∩B|;  A∩B ⊆ A.
        assert_eq!(a.len(), diff.len() + inter.len());
        assert_eq!(union.len(), a.len() + b.len() - inter.len());
        assert!(inter.entries.iter().all(|x| a.entries.contains(x)));
        assert!(diff.entries.iter().all(|x| !b.entries.contains(x)));
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let mut g = toy();
        let mut e = Engine::new();
        assert!(matches!(
            e.run(&mut g, "UPDATE nope WITH trimmed: true"),
            Err(VqlError::Exec(_))
        ));
    }
}
