//! The ViewCL interpreter: program × target → object graph.
//!
//! A walk pays only for the kernel values it reads. What a program fixes
//! was resolved when it was parsed (decorators, view chains, the
//! definitions table) or is bound on first use and kept with the program
//! for as long as the target's type registry and symbol table stay as
//! they were (box C types, anchor offsets, and every name inside a C
//! expression, see [`vbridge::eval`]). Names reach the graph as the
//! program's own `Arc<str>`s, and the fixed ones are shared process-wide.
//!
//! Scopes are slot vectors: one stack of `(name, value)` bindings,
//! borrowed names from the program, reused by every box of a walk. A
//! scope is the stack from its base up, searched from the end, so a
//! later binding shadows an earlier one; a box starts a new scope at the
//! top, and a `forEach` element or an anonymous box extends the enclosing
//! one and truncates it again when done.
//!
//! A walk books every read to the box whose views make it (the
//! top-level statements to [`vbridge::TOP_LEVEL`]) and notes, for each
//! box, which boxes its views instantiated, in order: its [`Trail`]. A
//! box's views see only its own scope, so when only some boxes' reads
//! changed, [`Interp::patch`] can evaluate just their views again and
//! check that they instantiate what they did before.

use std::sync::{Arc, LazyLock};

use ktypes::{CValue, Name, TypeId};
use vbridge::{Evaluator, HelperRegistry, Target, TOP_LEVEL};
use vgraph::{Attrs, BoxId, ContainerKind, Graph, Item, ViewInst};

use crate::ast::*;
use crate::decor::{self, Decorator, FlagSets};
use crate::stdlib;
use crate::{Result, VclError};

/// A ViewCL runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// A C value (integer, pointer, lvalue, string).
    C(CValue),
    /// A plotted box.
    Box(BoxId),
    /// No value / no box.
    Null,
    /// A container of member boxes.
    Seq(Vec<BoxId>, ContainerKind),
}

/// The names every walk gives its virtual boxes and default views,
/// shared by all graphs of the process.
pub(crate) static DEFAULT: LazyLock<Arc<str>> = LazyLock::new(|| "default".into());
static VALUE: LazyLock<Arc<str>> = LazyLock::new(|| "value".into());
static DIAGNOSTIC: LazyLock<Arc<str>> = LazyLock::new(|| "diagnostic".into());
static CELL: LazyLock<Arc<str>> = LazyLock::new(|| "Cell".into());
static DIAG: LazyLock<Arc<str>> = LazyLock::new(|| "Diag".into());
static NO_CTYPE: LazyLock<Arc<str>> = LazyLock::new(|| "".into());

/// The flag and emoji sets of the decorators, built once per process.
static FLAGS: LazyLock<FlagSets> = LazyLock::new(FlagSets::with_builtins);

/// How many boxes may nest, each inside its parent's views. Every
/// figure nests at most 6 deep; a box that links each element of a
/// kernel list to the next nests once per element, and the recursion
/// that instantiates it would otherwise overflow the thread's stack.
const MAX_BOX_DEPTH: usize = 64;

/// The interpreter. Owns the output graph; borrows the programs it runs
/// (`'p`) and the target and helper registry (`'t`) for the duration of
/// evaluation.
pub struct Interp<'p, 't, 'img> {
    target: &'t Target<'img>,
    helpers: &'t HelperRegistry,
    /// Programs whose definitions are loaded, in load order; a later
    /// program's definition of a name shadows an earlier one's.
    programs: Vec<&'p Program>,
    /// The graph under construction.
    graph: Graph,
    /// The C type of each box of `graph`, by id; `None` for virtual ones.
    box_types: Vec<Option<TypeId>>,
    /// The scope stack (see the module docs). Top-level assignments stay
    /// at its bottom.
    scope: Vec<(&'p str, Value)>,
    /// How many boxes are being instantiated, each inside the last.
    depth: usize,
    /// The box whose views are being evaluated, [`TOP_LEVEL`] outside
    /// them: who the target books reads to.
    owner: u32,
    /// Every box interned, with the box whose views interned it, in
    /// walk order.
    calls: Vec<(u32, BoxId)>,
    /// A `Link` turned an error into a null link, so a box that failed
    /// may hide behind it; or a patch needed a box its pane lacks.
    swallowed: bool,
    /// While patching ([`Interp::patch`]): the pane, read in place of
    /// `graph`, which stays empty.
    pane: Option<Arc<Graph>>,
    /// While patching: the views of the box being evaluated again, and
    /// the boxes its views instantiated in the walk, in order.
    views: Vec<ViewInst>,
    expect: &'p [BoxId],
}

/// Which boxes each box's views instantiated in the walk that built a
/// graph, in order, for [`Interp::patch`]; from [`Interp::finish`].
#[derive(Debug, Clone, Default)]
pub struct Trail {
    /// Box `i`'s are `calls[starts[i]..starts[i + 1]]`.
    calls: Vec<BoxId>,
    starts: Vec<u32>,
}

impl Trail {
    /// Group `calls` by owner, keeping their order; the top level's go.
    fn of(boxes: usize, calls: &[(u32, BoxId)]) -> Trail {
        let mut starts = vec![0u32; boxes + 1];
        let owned = calls.iter().filter(|(owner, _)| (*owner as usize) < boxes);
        for &(owner, _) in owned.clone() {
            starts[owner as usize] += 1;
        }
        let mut total = 0;
        for s in &mut starts {
            total += std::mem::replace(s, total);
        }
        // Each box's slot starts as its first position and ends as the
        // next box's.
        let mut grouped = vec![BoxId(0); total as usize];
        for &(owner, id) in owned {
            let at = &mut starts[owner as usize];
            grouped[*at as usize] = id;
            *at += 1;
        }
        starts.rotate_right(1);
        starts[0] = 0;
        Trail {
            calls: grouped,
            starts,
        }
    }

    /// The boxes `id`'s views instantiated.
    fn of_box(&self, id: BoxId) -> &[BoxId] {
        let i = id.0 as usize;
        match (self.starts.get(i), self.starts.get(i + 1)) {
            (Some(&from), Some(&to)) => &self.calls[from as usize..to as usize],
            _ => &[],
        }
    }
}

impl<'p, 't, 'img> Interp<'p, 't, 'img> {
    /// Create an interpreter over `target` with `helpers` callable from
    /// `${...}` expressions.
    pub fn new(target: &'t Target<'img>, helpers: &'t HelperRegistry) -> Self {
        target.set_owner(TOP_LEVEL);
        Interp {
            target,
            helpers,
            programs: Vec::new(),
            graph: Graph::new(),
            box_types: Vec::new(),
            scope: Vec::new(),
            depth: 0,
            owner: TOP_LEVEL,
            calls: Vec::new(),
            swallowed: false,
            pane: None,
            views: Vec::new(),
            expect: &[],
        }
    }

    /// Load a program's box definitions without executing statements
    /// (used for the predefined "standard library" of boxes, §2.2).
    pub fn load_defines(&mut self, program: &'p Program) {
        self.programs.push(program);
    }

    /// Execute a program: register its defines, run its statements.
    pub fn run(&mut self, program: &'p Program) -> Result<()> {
        self.load_defines(program);
        for stmt in &program.stmts {
            match stmt {
                Stmt::Assign(name, rv) => {
                    let v = self.eval(rv, 0)?;
                    self.scope.push((name, v));
                }
                Stmt::Plot(name) => {
                    let v = lookup(&self.scope, 0, name)
                        .ok_or_else(|| VclError::Eval(format!("plot: unknown `@{name}`")))?;
                    match v {
                        Value::Box(id) => self.graph.roots.push(*id),
                        Value::Seq(ids, _) => self.graph.roots.extend(ids.iter().copied()),
                        other => {
                            return Err(VclError::Eval(format!(
                                "plot: `@{name}` is not a box ({other:?})"
                            )))
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Finish and take the graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Finish and take the graph, and its [`Trail`] unless no patch can
    /// stand in for a walk of the programs run: one of them uses
    /// `selectFrom`, whose result depends on the graph built so far, or
    /// a `Link` swallowed an error, so a box's views may have failed
    /// where a parent shows a null link.
    pub fn finish(self) -> (Graph, Option<Trail>) {
        let whole = !self.swallowed && !self.programs.iter().any(|p| p.selects);
        let trail = whole.then(|| Trail::of(self.graph.len(), &self.calls));
        (self.graph, trail)
    }

    /// Evaluate the views of `boxes` (sorted ids of boxes of `pane`,
    /// the graph a walk of `program` built, whose trail is `trail`)
    /// again, against the target as it is now, and return them in
    /// order. `pane` is not changed. A box's views see its own scope
    /// only, so when the boxes outside `boxes` read the same bytes as in
    /// that walk, a walk now would build `pane` with these views in
    /// place of theirs.
    ///
    /// `None` when that does not hold: a box is not one the program
    /// defines, its views fail, need a box `pane` does not hold, let a
    /// `Link` swallow an error, or instantiate other boxes, or in
    /// another order, than they did in the walk. Boxes the walk
    /// created in their views would then be created elsewhere, or not
    /// at all, and numbered otherwise.
    pub fn patch(
        &mut self,
        program: &'p Program,
        pane: &Arc<Graph>,
        trail: &'p Trail,
        boxes: &[BoxId],
    ) -> Option<Vec<Vec<ViewInst>>> {
        self.load_defines(program);
        self.pane = Some(Arc::clone(pane));
        let mut patched = Vec::with_capacity(boxes.len());
        for &id in boxes {
            let node = pane.boxes().get(id.0 as usize).filter(|b| b.addr != 0)?;
            let def = self.define(&node.label)?;
            let cty = self.bound(&def.ctype, || self.ctype_of(&def.ctype)).ok()?;
            self.calls.clear();
            self.expect = trail.of_box(id);
            let outer = self.own(id.0);
            let base = self.scope.len();
            let this = CValue::LValue {
                addr: node.addr,
                ty: cty,
            };
            let filled = self.fill_views(def, id, base, this);
            self.scope.truncate(base);
            self.own(outer);
            let views = std::mem::take(&mut self.views);
            let all = self.calls.len() == self.expect.len();
            if filled.is_err() || self.swallowed || !all {
                return None;
            }
            patched.push(views);
        }
        Some(patched)
    }

    // -------------------------------------------------------- evaluation --

    fn evaluator(&self) -> Evaluator<'_, 'img> {
        Evaluator::new(self.target, self.helpers)
    }

    /// The graph boxes are read from: the one under construction, or
    /// the pane being patched.
    fn graph(&self) -> &Graph {
        self.pane.as_deref().unwrap_or(&self.graph)
    }

    /// The C type of box `id`; `None` for a virtual one. A patch knows
    /// its pane's boxes by their C type's name.
    fn box_type(&self, id: BoxId) -> Option<TypeId> {
        match self.box_types.get(id.0 as usize) {
            Some(ty) => *ty,
            None => self.target.types.find(&self.graph().get(id).ctype),
        }
    }

    /// Make `owner` the box whose views are being evaluated; returns
    /// the one that was.
    fn own(&mut self, owner: u32) -> u32 {
        self.target.set_owner(owner);
        std::mem::replace(&mut self.owner, owner)
    }

    fn long(&self) -> TypeId {
        self.target.types.long().expect("long interned")
    }

    fn ctype_of(&self, name: &str) -> Result<TypeId> {
        self.target
            .types
            .find(name)
            .ok_or_else(|| VclError::Eval(format!("unknown C type `{name}`")))
    }

    /// What `name` resolves to under the target's current type registry
    /// and symbol table (see [`Name::get_or_resolve`]).
    fn bound<T: Clone>(&self, name: &Name<T>, resolve: impl FnOnce() -> Result<T>) -> Result<T> {
        let (types, symbols) = (self.target.types.stamp(), self.target.symbols.stamp());
        name.get_or_resolve(types, symbols, resolve)
    }

    /// The definition `name` refers to among the loaded programs.
    fn define(&self, name: &str) -> Option<&'p BoxDef> {
        self.programs.iter().rev().find_map(|p| p.define(name))
    }

    /// Intern a box, noting the C type of a new one and which box's
    /// views asked for it. A patch finds the box in its pane, and fails
    /// where a walk would create one or instantiate another box than it
    /// did at this point.
    fn intern(
        &mut self,
        addr: u64,
        label: &Arc<str>,
        ctype: &Arc<str>,
        size: u64,
        ty: Option<TypeId>,
    ) -> Result<(BoxId, bool)> {
        let (id, fresh) = match &self.pane {
            None => {
                let (id, fresh) =
                    self.graph
                        .intern(addr, Arc::clone(label), Arc::clone(ctype), size);
                if fresh {
                    self.box_types.push(ty);
                }
                (id, fresh)
            }
            Some(pane) => match pane
                .find(addr, label)
                .filter(|id| self.expect.get(self.calls.len()) == Some(id))
            {
                Some(id) => (id, false),
                None => {
                    self.swallowed = true;
                    return Err(VclError::Eval(format!(
                        "a patch cannot instantiate `{label}` at {addr:#x}"
                    )));
                }
            },
        };
        self.calls.push((self.owner, id));
        Ok((id, fresh))
    }

    /// The C value `@name` denotes in a `${…}` expression: boxes are
    /// lvalues of their C type, `NULL` is 0, containers have none.
    fn c_value(&self, v: &Value) -> Option<CValue> {
        match v {
            Value::C(c) => Some(c.clone()),
            Value::Box(id) => {
                let addr = self.graph().get(*id).addr;
                Some(match self.box_type(*id) {
                    Some(ty) if addr != 0 => CValue::LValue { addr, ty },
                    _ => CValue::Int {
                        value: addr as i64,
                        ty: self.long(),
                    },
                })
            }
            Value::Null => Some(CValue::Int {
                value: 0,
                ty: self.long(),
            }),
            Value::Seq(..) => None,
        }
    }

    /// Evaluate a C expression whose `@name`s resolve from the scope at
    /// `base`.
    fn eval_cexpr(&self, e: &CExpr, base: usize) -> Result<CValue> {
        let expr = e.parsed.as_ref().map_err(Clone::clone)?;
        let env = |name: &str| lookup(&self.scope, base, name).and_then(|v| self.c_value(v));
        Ok(self.evaluator().eval(expr, &env)?)
    }

    /// Evaluate an rvalue to a ViewCL value in the scope at `base`.
    fn eval(&mut self, rv: &'p RValue, base: usize) -> Result<Value> {
        match rv {
            RValue::CExpr(e) => Ok(Value::C(self.eval_cexpr(e, base)?)),
            RValue::Null => Ok(Value::Null),
            RValue::ThisPath { expr, .. } => Ok(Value::C(self.eval_cexpr(expr, base)?)),
            RValue::Ref { path, nav } => {
                let head = ref_head(path);
                let v = lookup(&self.scope, base, head)
                    .ok_or_else(|| VclError::Eval(format!("unknown `@{head}`")))?;
                match nav {
                    None => Ok(v.clone()),
                    // Navigate the rest of the path through the C
                    // evaluator.
                    Some(nav) => Ok(Value::C(self.eval_cexpr(nav, base)?)),
                }
            }
            RValue::Switch {
                scrutinee,
                cases,
                otherwise,
            } => {
                let s = self.eval(scrutinee, base)?;
                let sv = self.value_as_int(&s)?;
                for (guards, result) in cases {
                    for g in guards {
                        let gv = self.eval(g, base)?;
                        if self.value_as_int(&gv)? == sv {
                            return self.eval(result, base);
                        }
                    }
                }
                match otherwise {
                    Some(o) => self.eval(o, base),
                    None => Ok(Value::Null),
                }
            }
            RValue::Ctor {
                kind,
                args,
                for_each,
            } => self.eval_ctor(*kind, args, for_each.as_deref(), base),
            RValue::SelectFrom { source, box_type } => {
                let src = self.eval(source, base)?;
                let root = match src {
                    Value::Box(id) => id,
                    other => {
                        return Err(VclError::Eval(format!(
                            "selectFrom: source must be a box, got {other:?}"
                        )))
                    }
                };
                let graph = self.graph();
                let mut members: Vec<BoxId> = graph
                    .reachable(&[root])
                    .into_iter()
                    .filter(|id| *graph.get(*id).label == **box_type)
                    .collect();
                // Order by the most natural sort key available.
                members.sort_by_key(|id| {
                    let b = graph.get(*id);
                    b.member_raw("vm_start", graph).unwrap_or(b.addr as i64)
                });
                Ok(Value::Seq(members, ContainerKind::Sequence))
            }
            RValue::Instantiate {
                box_type,
                anchor,
                arg,
            } => {
                let v = self.eval(arg, base)?;
                let addr = match &v {
                    Value::Null => return Ok(Value::Null),
                    Value::C(c) => {
                        // Scalar lvalues (e.g. a global pointer variable)
                        // convert to their value; aggregates use their
                        // address.
                        let c = self.evaluator().rvalue(c.clone())?;
                        match c {
                            CValue::LValue { addr, .. } => addr,
                            other => other.as_u64().unwrap_or(0),
                        }
                    }
                    Value::Box(id) => self.graph().get(*id).addr,
                    Value::Seq(..) => {
                        return Err(VclError::Eval(format!(
                            "{box_type}(…): cannot instantiate from a container"
                        )))
                    }
                };
                if addr == 0 {
                    return Ok(Value::Null);
                }
                let addr = match anchor {
                    Some(a) => addr.wrapping_sub(self.bound(a, || self.anchor_offset(a))?),
                    None => addr,
                };
                let def = self
                    .define(box_type)
                    .ok_or_else(|| VclError::Eval(format!("unknown box type `{box_type}`")))?;
                Ok(Value::Box(self.instantiate(def, addr)?))
            }
            RValue::AnonBox {
                label,
                items,
                wheres,
            } => {
                let (id, _) = self.intern(0, label, &NO_CTYPE, 0, None)?;
                let mark = self.scope.len();
                let outer = self.own(id.0);
                let view_items = self.anon_items(items, wheres, base);
                self.own(outer);
                self.scope.truncate(mark);
                self.graph.get_mut(id).views.push(ViewInst {
                    name: DEFAULT.clone(),
                    items: view_items?,
                });
                Ok(Value::Box(id))
            }
        }
    }

    /// The offset of an anchor's `ctype.member.path`.
    fn anchor_offset(&self, anchor: &str) -> Result<u64> {
        let (ctype, member) = anchor
            .split_once('.')
            .ok_or_else(|| VclError::Eval(format!("bad anchor `{anchor}`: need ctype.member")))?;
        let ty = self.ctype_of(ctype)?;
        let (off, _) = self
            .target
            .types
            .field_path(ty, member)
            .map_err(vbridge::BridgeError::from)?;
        Ok(off)
    }

    /// An anonymous box's items: its `wheres` extend the enclosing scope
    /// at `base`; the caller truncates them.
    fn anon_items(
        &mut self,
        items: &'p [ItemDef],
        wheres: &'p [(String, RValue)],
        base: usize,
    ) -> Result<Vec<Item>> {
        for (name, rv) in wheres {
            let v = self.eval(rv, base)?;
            self.scope.push((name, v));
        }
        let mut view_items = Vec::with_capacity(items_len(items));
        self.eval_items(items, base, &mut view_items)?;
        Ok(view_items)
    }

    fn value_as_int(&self, v: &Value) -> Result<i64> {
        match v {
            Value::C(c) => {
                let c = self.evaluator().rvalue(c.clone())?;
                c.as_int()
                    .or_else(|| c.address().map(|a| a as i64))
                    .ok_or_else(|| VclError::Eval("switch: non-integer value".into()))
            }
            Value::Null => Ok(0),
            Value::Box(id) => Ok(self.graph().get(*id).addr as i64),
            Value::Seq(..) => Err(VclError::Eval("switch: cannot compare containers".into())),
        }
    }

    fn eval_ctor(
        &mut self,
        kind: CtorKind,
        args: &'p [RValue],
        for_each: Option<&'p ForEach>,
        base: usize,
    ) -> Result<Value> {
        let ctor_name = match kind {
            CtorKind::List => "List",
            CtorKind::HList => "HList",
            CtorKind::RBTree => "RBTree",
            CtorKind::Array => "Array",
            CtorKind::XArray => "XArray",
        };
        // One span per distiller invocation, labeled with the distiller
        // and the root symbol path it walks. Inclusive of the per-element
        // materialization below (nested ctors open nested spans).
        let _span = vtrace::span_with(
            self.target.tracer(),
            vtrace::SpanKind::Distill,
            || match args.first() {
                Some(RValue::CExpr(e)) => format!("{ctor_name}({})", e.src.trim()),
                _ => format!("{ctor_name}(…)"),
            },
        );
        let mut cargs = Vec::with_capacity(args.len());
        for a in args {
            match self.eval(a, base)? {
                Value::C(c) => cargs.push(c),
                Value::Box(id) => {
                    let addr = self.graph().get(id).addr;
                    match self.box_type(id) {
                        Some(ty) => cargs.push(CValue::LValue { addr, ty }),
                        None => {
                            return Err(VclError::Eval("container source box has no C type".into()))
                        }
                    }
                }
                other => {
                    return Err(VclError::Eval(format!(
                        "container constructor argument must be a C value, got {other:?}"
                    )))
                }
            }
        }

        let long_ty = self.long();
        let to_ints = |addrs: Vec<u64>| -> Vec<CValue> {
            addrs
                .into_iter()
                .map(|a| CValue::Int {
                    value: a as i64,
                    ty: long_ty,
                })
                .collect()
        };
        let (elems, trunc): (Vec<CValue>, Option<stdlib::Truncation>) = match kind {
            CtorKind::List => {
                let (nodes, t) = stdlib::list_nodes(self.target, &cargs[0])?;
                (to_ints(nodes), t)
            }
            CtorKind::HList => {
                let (nodes, t) = stdlib::hlist_nodes(self.target, &cargs[0])?;
                (to_ints(nodes), t)
            }
            CtorKind::RBTree => {
                let (nodes, t) = stdlib::rbtree_nodes(self.target, &cargs[0])?;
                (to_ints(nodes), t)
            }
            CtorKind::Array => stdlib::array_elems(self.target, &cargs)?,
            CtorKind::XArray => {
                let (entries, t) = stdlib::xarray_entries(self.target, &cargs[0])?;
                (to_ints(entries.into_iter().map(|(_, e)| e).collect()), t)
            }
        };
        let n_elems = elems.len();
        let ckind = match kind {
            CtorKind::HList => ContainerKind::Set,
            _ => ContainerKind::Sequence,
        };

        let mut members = Vec::new();
        match for_each {
            Some(fe) => {
                for elem in elems {
                    let mark = self.scope.len();
                    let yielded = self.yield_elem(fe, elem, base);
                    self.scope.truncate(mark);
                    match yielded? {
                        Value::Box(id) => members.push(id),
                        Value::Null => {}
                        Value::Seq(ids, _) => members.extend(ids),
                        Value::C(c) => {
                            // Yielding a raw value wraps it in a cell box.
                            members.push(self.cell_box(&c)?);
                        }
                    }
                }
            }
            None => {
                // No body: wrap each element in a display cell.
                for elem in elems {
                    members.push(self.cell_box(&elem)?);
                }
            }
        }
        if let Some(t) = trunc {
            members.push(self.diag_box(&t.describe(ctor_name, n_elems), t.addr)?);
        }
        Ok(Value::Seq(members, ckind))
    }

    /// One `forEach` element: its parameter and bindings extend the
    /// enclosing scope at `base`; the caller truncates them.
    fn yield_elem(&mut self, fe: &'p ForEach, elem: CValue, base: usize) -> Result<Value> {
        self.scope.push((&fe.param, Value::C(elem)));
        for (name, rv) in &fe.wheres {
            let v = self.eval(rv, base)?;
            self.scope.push((name, v));
        }
        self.eval(&fe.yield_expr, base)
    }

    /// A virtual diagnostic box appended to a truncated container so the
    /// damage shows up in the plot itself.
    fn diag_box(&mut self, msg: &str, addr: u64) -> Result<BoxId> {
        let (id, _) = self.intern(0, &DIAG, &NO_CTYPE, 0, None)?;
        let b = self.graph.get_mut(id);
        b.attrs
            .set("diagnostic", serde_json::Value::String(msg.to_string()));
        b.views.push(ViewInst {
            name: DEFAULT.clone(),
            items: vec![Item::Text {
                name: DIAGNOSTIC.clone(),
                value: msg.to_string(),
                raw: Some(addr as i64),
            }],
        });
        Ok(id)
    }

    /// A virtual single-text box used for containers of raw values
    /// (e.g. maple-tree pivots).
    fn cell_box(&mut self, v: &CValue) -> Result<BoxId> {
        let (id, _) = self.intern(0, &CELL, &NO_CTYPE, 0, None)?;
        let outer = self.own(id.0);
        let value = decor::render_default(self.target, v);
        self.own(outer);
        self.graph.get_mut(id).views.push(ViewInst {
            name: DEFAULT.clone(),
            items: vec![Item::Text {
                name: VALUE.clone(),
                value,
                raw: decor::raw_for_query(v),
            }],
        });
        Ok(id)
    }

    // ----------------------------------------------------- instantiation --

    /// Materialize a box for `def` at `addr`, evaluating all of its views.
    fn instantiate(&mut self, def: &'p BoxDef, addr: u64) -> Result<BoxId> {
        let cty = self.bound(&def.ctype, || self.ctype_of(&def.ctype))?;
        let size = self.target.types.size_of(cty);
        let (id, fresh) = self.intern(addr, &def.name, def.ctype.text(), size, Some(cty))?;
        if !fresh {
            return Ok(id);
        }
        if self.depth == MAX_BOX_DEPTH {
            return Err(VclError::TooDeep {
                def: def.name.to_string(),
                addr,
                cap: MAX_BOX_DEPTH,
            });
        }
        let base = self.scope.len();
        self.depth += 1;
        let outer = self.own(id.0);
        let filled = self.fill_views(def, id, base, CValue::LValue { addr, ty: cty });
        self.own(outer);
        self.depth -= 1;
        self.scope.truncate(base);
        filled.map(|()| id)
    }

    /// Evaluate the views of box `id` in a new scope at `base`; the
    /// caller truncates it. A patch keeps the views apart from its pane.
    fn fill_views(&mut self, def: &'p BoxDef, id: BoxId, base: usize, this: CValue) -> Result<()> {
        self.scope.push(("this", Value::C(this)));
        // Evaluate every where binding once, in view-declaration order,
        // first binding of a name wins (shared across views).
        for view in &def.views {
            for &v in view.chain.as_ref().map_err(Clone::clone)? {
                for (name, rv) in &def.views[v].wheres {
                    if self.scope[base..].iter().any(|(n, _)| n == name) {
                        continue;
                    }
                    let val = self.eval(rv, base)?;
                    self.scope.push((name, val));
                }
            }
        }

        for view in &def.views {
            let chain = view.chain.as_ref().map_err(Clone::clone)?;
            let len = chain.iter().map(|&v| items_len(&def.views[v].items)).sum();
            let mut view_items = Vec::with_capacity(len);
            for &v in chain {
                self.eval_items(&def.views[v].items, base, &mut view_items)?;
            }
            let view = ViewInst {
                name: view.name.clone(),
                items: view_items,
            };
            match self.pane {
                Some(_) => self.views.push(view),
                None => self.graph.get_mut(id).views.push(view),
            }
        }
        Ok(())
    }

    /// Evaluate `items` in order, appending their display items to `out`.
    fn eval_items(&mut self, items: &'p [ItemDef], base: usize, out: &mut Vec<Item>) -> Result<()> {
        for item in items {
            match item {
                ItemDef::Text { decor, specs } => {
                    for spec in specs {
                        out.push(self.eval_text(spec, decor.as_ref(), base));
                    }
                }
                ItemDef::Link { name, target } => match self.eval(target, base) {
                    Ok(Value::Box(id)) => out.push(Item::Link {
                        name: name.clone(),
                        target: id,
                    }),
                    Ok(Value::Null) => out.push(Item::NullLink { name: name.clone() }),
                    Ok(Value::C(c)) if !c.is_truthy() => {
                        out.push(Item::NullLink { name: name.clone() })
                    }
                    Ok(other) => {
                        return Err(VclError::Eval(format!(
                            "Link `{name}` target must be a box, got {other:?}"
                        )))
                    }
                    Err(e @ VclError::TooDeep { .. }) => return Err(e),
                    // A patch that cannot stand in for a walk stops.
                    Err(e) if self.pane.is_some() => return Err(e),
                    Err(_) => {
                        self.swallowed = true;
                        out.push(Item::NullLink { name: name.clone() })
                    }
                },
                ItemDef::Container { name, value } => match self.eval(value, base)? {
                    Value::Seq(members, kind) => out.push(Item::Container {
                        name: name.clone(),
                        kind,
                        members,
                        attrs: Attrs::default(),
                    }),
                    Value::Null => out.push(Item::Container {
                        name: name.clone(),
                        kind: ContainerKind::Sequence,
                        members: Vec::new(),
                        attrs: Attrs::default(),
                    }),
                    other => {
                        return Err(VclError::Eval(format!(
                            "Container `{name}` must be a sequence, got {other:?}"
                        )))
                    }
                },
            }
        }
        Ok(())
    }

    fn eval_text(&mut self, spec: &'p TextSpec, dec: Option<&Decorator>, base: usize) -> Item {
        let rendered = (|| -> Result<(String, Option<i64>)> {
            let value = match self.eval(&spec.expr, base)? {
                Value::C(c) => c,
                Value::Null => CValue::Int {
                    value: 0,
                    ty: self.long(),
                },
                Value::Box(id) => CValue::Int {
                    value: self.graph().get(id).addr as i64,
                    ty: self.long(),
                },
                Value::Seq(..) => {
                    return Err(VclError::Eval(format!(
                        "Text `{}` cannot render a container",
                        spec.name
                    )))
                }
            };
            let raw = decor::raw_for_query(&value);
            let text = match dec {
                Some(d) => d.render(self.target, &FLAGS, &value),
                None => decor::render_default(self.target, &value),
            };
            Ok((text, raw))
        })();
        match rendered {
            Ok((value, raw)) => Item::Text {
                name: spec.name.clone(),
                value,
                raw,
            },
            Err(e) => Item::Text {
                name: spec.name.clone(),
                value: format!("<error: {e}>"),
                raw: None,
            },
        }
    }
}

/// How many display items `items` yield: one per text spec, link and
/// container.
fn items_len(items: &[ItemDef]) -> usize {
    items
        .iter()
        .map(|i| match i {
            ItemDef::Text { specs, .. } => specs.len(),
            ItemDef::Link { .. } | ItemDef::Container { .. } => 1,
        })
        .sum()
}

/// The value `name` is bound to in the scope at `base` of `scope`: its
/// latest binding there.
fn lookup<'s>(scope: &'s [(&str, Value)], base: usize, name: &str) -> Option<&'s Value> {
    scope[base..]
        .iter()
        .rev()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
}
