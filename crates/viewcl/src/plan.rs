//! The walk-plan IR: plan-mode extraction.
//!
//! The interpreter ([`crate::Interp`]) walks a pane's containers
//! recursively, discovering each pointer one metered round trip at a
//! time and sprinkling ad-hoc `Target::prefetch` hints. This module
//! lowers a pane program into an explicit DAG — object *seeds* (static
//! root expressions), container *walk nodes* (root spec, traversal
//! kind, per-element reads, expected fanout) and pointer *hops*
//! (`Link signal -> SignalStruct(${@this.signal})`) — and executes
//! that plan as a deterministic cache-warming pre-pass:
//!
//! 1. **Compile** ([`compile`]): scan the AST for constructors,
//!    classify each container root as a static C expression, a field
//!    of the enclosing box, or the loop element itself, and record the
//!    pointer hops between box types.
//! 2. **Schedule + discover** ([`execute`]): resolve roots wave by
//!    wave and run the discovery walks — concurrently over a
//!    [`SyncRead`](vbridge::SyncRead) view when the backend allows it
//!    ([`PlanMode::Parallel`]), or through the metered target in
//!    strict node order when the wire sequence is the contract
//!    ([`PlanMode::Serialized`], record/replay). Objects reached twice
//!    (threads sharing a `signal_struct`, inodes sharing a
//!    `super_block`) are visited once; the skipped work is counted as
//!    deduplicated walks.
//! 3. **Fetch**: merge every byte range a node will touch (link words
//!    plus the per-element field reads) into wire spans using the
//!    [`SpanPlanner`] cost model, and pull each span as one packet.
//!
//! The interpreter then runs unchanged over the warm cache, so plan
//! graphs are byte-identical to interp graphs by construction; the
//! plan only changes *how many packets* the extraction costs. Without
//! a cache there is nothing to warm and the plan degrades to the plain
//! interpreter walk ([`PlanMode::Disabled`]).

use std::collections::{HashMap, HashSet};

use ktypes::{CValue, TypeId, TypeKind, TypeRegistry};
use vbridge::{Evaluator, HelperRegistry, PlanMode, SpanPlanner, SyncRead, Target};

use crate::ast::{BoxDef, CtorKind, ForEach, ItemDef, Program, RValue, Stmt};

/// Backstop on traversal length, mirroring the stdlib distillers.
const MAX_ELEMS: usize = 100_000;

/// Backstop on plan depth (waves): recursive container definitions
/// terminate through walk/object dedup long before this.
const MAX_WAVES: usize = 32;

/// Where a walk node's root address comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RootSpec {
    /// A C expression with no scope references, evaluated once against
    /// the target (`${&init_task.tasks}`).
    Static(String),
    /// A field of the enclosing box (`${&@this.children}` → path
    /// `children`), resolved per object base.
    ElemField(String),
    /// The parent walk's element value itself (`HList(@bucket)`).
    Elem,
}

/// What the parent walk yields per element, and what the pane reads
/// off each yielded box.
#[derive(Debug, Clone, Default)]
pub struct ElemInfo {
    /// C struct tag of the yielded box (`task_struct`), when the yield
    /// instantiates a defined box type.
    pub ctype: Option<String>,
    /// `container_of` anchor (`ctype.member.path`): element box base =
    /// element address minus the anchor offset.
    pub anchor: Option<String>,
    /// Field paths the views read off each element box.
    pub reads: Vec<String>,
    /// Defined box type the yield instantiates; elements flow into
    /// that box's walks and hops.
    pub child_box: Option<String>,
    /// Walk nodes compiled directly from an anonymous yield body.
    pub children: Vec<usize>,
}

/// One node of the walk-plan DAG: a container traversal.
#[derive(Debug, Clone)]
pub struct WalkNode {
    /// Traversal kind.
    pub kind: CtorKind,
    /// Root classification.
    pub root: RootSpec,
    /// Per-element yield info, when statically known.
    pub elem: Option<ElemInfo>,
    /// Expected fanout (static estimate by kind); the scheduler runs
    /// high-fanout walks first within a wave.
    pub est_fanout: u32,
    /// Human label for trace spans (`List(&init_task.tasks)`).
    pub label: String,
}

/// A top-level box instantiation with a statically evaluable root:
/// `root = Task(${&init_task})`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Seed {
    /// The instantiated box type.
    pub box_type: String,
    /// Optional `container_of` anchor.
    pub anchor: Option<String>,
    /// The root C expression.
    pub src: String,
}

/// A pointer edge between box types: instantiating box `target_box`
/// from a field of the enclosing box (`Link mm -> MM(${@this.mm})`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// Field path off the source box.
    pub path: String,
    /// `true` when the source wrote `&@this.path` — the target is the
    /// field itself, no pointer load. Otherwise the field's type
    /// decides: pointer fields are loaded, aggregates are addressed.
    pub addr_of: bool,
    /// The instantiated box type.
    pub target_box: String,
    /// Optional `container_of` anchor on the instantiation.
    pub anchor: Option<String>,
}

/// Everything the plan knows about one defined box type.
#[derive(Debug, Clone, Default)]
pub struct BoxInfo {
    /// Underlying C struct tag.
    pub ctype: String,
    /// Field paths the views read off each object.
    pub reads: Vec<String>,
    /// Container walks inside the views (ids into [`WalkPlan::nodes`]).
    pub walks: Vec<usize>,
    /// Pointer edges to other box types.
    pub hops: Vec<Hop>,
}

/// A compiled pane program.
#[derive(Debug, Clone, Default)]
pub struct WalkPlan {
    /// All walk nodes, in compilation order.
    pub nodes: Vec<WalkNode>,
    /// Walk nodes rooted at top-level statements.
    pub top: Vec<usize>,
    /// Top-level box instantiations with static roots.
    pub seeds: Vec<Seed>,
    /// Per-box-type walks, hops and reads.
    pub boxes: HashMap<String, BoxInfo>,
}

impl WalkPlan {
    /// Whether the program contains any plannable entry point at all.
    pub fn is_empty(&self) -> bool {
        self.top.is_empty() && self.seeds.is_empty()
    }
}

fn fanout_estimate(kind: CtorKind) -> u32 {
    match kind {
        CtorKind::List | CtorKind::HList => 16,
        CtorKind::RBTree => 32,
        CtorKind::Array => 8,
        CtorKind::XArray => 64,
    }
}

fn ctor_name(kind: CtorKind) -> &'static str {
    match kind {
        CtorKind::List => "List",
        CtorKind::HList => "HList",
        CtorKind::RBTree => "RBTree",
        CtorKind::Array => "Array",
        CtorKind::XArray => "XArray",
    }
}

// ------------------------------------------------------------ compile --

/// Scope a constructor argument is classified in.
#[derive(Clone, Copy)]
enum Ctx<'a> {
    /// Top-level statement: static roots and seeds.
    Top,
    /// Inside the named box's views: `@this` is the object.
    BoxViews { box_name: &'a str },
    /// Inside a `.forEach |param|` body: `@param` is the element.
    Elem { param: &'a str },
}

struct Compiler<'p> {
    defines: HashMap<&'p str, &'p BoxDef>,
    plan: WalkPlan,
    in_progress: HashSet<String>,
}

/// Extract the dotted field path of a `&@this.a.b` / `@this.a.b`
/// expression (with the `&` flag), or `None` if the expression does
/// anything fancier (indexing, pointer hops, arithmetic): those roots
/// stay with the interpreter.
fn this_field_path(src: &str) -> Option<(String, bool)> {
    let s = src.trim();
    let (s, addr_of) = match s.strip_prefix('&') {
        Some(rest) => (rest.trim_start(), true),
        None => (s, false),
    };
    let path = s.strip_prefix("@this.")?;
    if path.is_empty()
        || !path
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
    {
        return None;
    }
    Some((path.to_string(), addr_of))
}

/// Collect every `@this.<dotted path>` mention inside a C expression —
/// the per-element field reads a view performs.
fn collect_this_reads(src: &str, out: &mut Vec<String>) {
    let mut rest = src;
    while let Some(i) = rest.find("@this.") {
        rest = &rest[i + "@this.".len()..];
        let end = rest
            .find(|c: char| !c.is_ascii_alphanumeric() && c != '_' && c != '.')
            .unwrap_or(rest.len());
        let path = rest[..end].trim_end_matches('.');
        if !path.is_empty() {
            out.push(path.to_string());
        }
        rest = &rest[end..];
    }
}

/// Collect the field reads an rvalue performs off `@this`.
fn rvalue_reads(rv: &RValue, out: &mut Vec<String>) {
    match rv {
        RValue::CExpr(e) => collect_this_reads(&e.src, out),
        RValue::ThisPath { path, .. } => out.push(path.clone()),
        RValue::Ref { path, .. } => {
            if let Some(p) = path.strip_prefix("this.") {
                out.push(p.to_string());
            }
        }
        RValue::Null => {}
        RValue::Switch {
            scrutinee,
            cases,
            otherwise,
        } => {
            rvalue_reads(scrutinee, out);
            for (guards, res) in cases {
                for g in guards {
                    rvalue_reads(g, out);
                }
                rvalue_reads(res, out);
            }
            if let Some(o) = otherwise {
                rvalue_reads(o, out);
            }
        }
        RValue::Ctor { args, .. } => {
            for a in args {
                rvalue_reads(a, out);
            }
        }
        RValue::SelectFrom { source, .. } => rvalue_reads(source, out),
        RValue::Instantiate { arg, .. } => rvalue_reads(arg, out),
        RValue::AnonBox { items, wheres, .. } => {
            for (_, rv) in wheres {
                rvalue_reads(rv, out);
            }
            for item in items {
                item_reads(item, out);
            }
        }
    }
}

fn item_reads(item: &ItemDef, out: &mut Vec<String>) {
    match item {
        ItemDef::Text { specs, .. } => {
            for s in specs {
                rvalue_reads(&s.expr, out);
            }
        }
        ItemDef::Link { target, .. } => rvalue_reads(target, out),
        ItemDef::Container { value, .. } => rvalue_reads(value, out),
    }
}

impl<'p> Compiler<'p> {
    /// Classify a constructor's root argument in context, or `None`
    /// when the walk must stay with the interpreter.
    fn classify_root(&self, args: &[RValue], ctx: Ctx<'_>) -> Option<RootSpec> {
        // Multi-argument constructors (`Array(ptr, len)`) read their
        // length from the element, which the plan does not model.
        let arg = match args {
            [one] => one,
            _ => return None,
        };
        match (arg, ctx) {
            (RValue::CExpr(e), _) if !e.src.contains('@') => Some(RootSpec::Static(e.src.clone())),
            (RValue::CExpr(e), Ctx::BoxViews { .. }) => {
                this_field_path(&e.src).map(|(p, _)| RootSpec::ElemField(p))
            }
            (RValue::Ref { path, .. }, Ctx::Elem { param }) if path == param => {
                Some(RootSpec::Elem)
            }
            _ => None,
        }
    }

    /// Scan an rvalue for plannable constructors, appending compiled
    /// walk-node ids to `out` and recording seeds/hops per context.
    fn scan(&mut self, rv: &RValue, ctx: Ctx<'_>, out: &mut Vec<usize>) {
        match rv {
            RValue::Ctor {
                kind,
                args,
                for_each,
            } => {
                let Some(root) = self.classify_root(args, ctx) else {
                    // Unplannable root: deeper walks depend on elements
                    // we cannot discover, so the whole subtree stays
                    // with the interpreter.
                    return;
                };
                let elem = for_each.as_deref().and_then(|fe| self.compile_for_each(fe));
                let label = match &root {
                    RootSpec::Static(src) => format!("{}({})", ctor_name(*kind), src.trim()),
                    RootSpec::ElemField(p) => format!("{}(@this.{p})", ctor_name(*kind)),
                    RootSpec::Elem => format!("{}(@elem)", ctor_name(*kind)),
                };
                self.plan.nodes.push(WalkNode {
                    kind: *kind,
                    root,
                    elem,
                    est_fanout: fanout_estimate(*kind),
                    label,
                });
                out.push(self.plan.nodes.len() - 1);
            }
            RValue::Switch {
                scrutinee,
                cases,
                otherwise,
            } => {
                self.scan(scrutinee, ctx, out);
                for (_, res) in cases {
                    self.scan(res, ctx, out);
                }
                if let Some(o) = otherwise {
                    self.scan(o, ctx, out);
                }
            }
            RValue::Instantiate {
                box_type,
                anchor,
                arg,
            } => {
                self.ensure_box(box_type);
                match (ctx, &**arg) {
                    // `root = Task(${&init_task})`: an object seed.
                    (Ctx::Top, RValue::CExpr(e)) if !e.src.contains('@') => {
                        self.plan.seeds.push(Seed {
                            box_type: box_type.clone(),
                            anchor: anchor.as_deref().map(str::to_string),
                            src: e.src.clone(),
                        });
                    }
                    // `Link mm -> MM(${@this.mm})`: a pointer hop.
                    (Ctx::BoxViews { box_name }, arg) => {
                        let hop = match arg {
                            RValue::CExpr(e) => this_field_path(&e.src),
                            RValue::Ref { path, .. } => {
                                path.strip_prefix("this.").map(|p| (p.to_string(), false))
                            }
                            _ => None,
                        };
                        if let Some((path, addr_of)) = hop {
                            if let Some(info) = self.plan.boxes.get_mut(box_name) {
                                info.hops.push(Hop {
                                    path,
                                    addr_of,
                                    target_box: box_type.clone(),
                                    anchor: anchor.as_deref().map(str::to_string),
                                });
                            }
                        }
                    }
                    _ => {}
                }
            }
            RValue::SelectFrom { source, .. } => {
                // `Array.selectFrom(src, T)` filters boxes its source
                // walk discovers; the filter itself reads no target
                // memory, so planning the source plans the pane. A
                // `@ref` source names a where-bound box whose walk was
                // planned at its definition site — recursing finds
                // nothing plannable there and the subtree stays with
                // the interpreter, same as any unplannable root.
                self.scan(source, ctx, out);
            }
            RValue::AnonBox { items, wheres, .. } => {
                for (_, rv) in wheres {
                    self.scan(rv, ctx, out);
                }
                for item in items {
                    self.scan_item(item, ctx, out);
                }
            }
            _ => {}
        }
    }

    fn scan_item(&mut self, item: &ItemDef, ctx: Ctx<'_>, out: &mut Vec<usize>) {
        match item {
            ItemDef::Text { specs, .. } => {
                for s in specs {
                    self.scan(&s.expr, ctx, out);
                }
            }
            ItemDef::Link { target, .. } => self.scan(target, ctx, out),
            ItemDef::Container { value, .. } => self.scan(value, ctx, out),
        }
    }

    /// Compile the per-element yield of a `.forEach` body.
    fn compile_for_each(&mut self, fe: &ForEach) -> Option<ElemInfo> {
        let ctx = Ctx::Elem { param: &fe.param };
        let mut children = Vec::new();
        for (_, rv) in &fe.wheres {
            self.scan(rv, ctx, &mut children);
        }
        let mut info = ElemInfo {
            children,
            ..ElemInfo::default()
        };
        self.yield_shape(&fe.yield_expr, &fe.param, ctx, &mut info);
        Some(info)
    }

    fn yield_shape(&mut self, rv: &RValue, param: &str, ctx: Ctx<'_>, info: &mut ElemInfo) {
        match rv {
            RValue::Instantiate {
                box_type,
                anchor,
                arg,
            } => {
                self.ensure_box(box_type);
                // Element box bases are only computable when the yield
                // instantiates the loop element itself.
                let direct = matches!(&**arg, RValue::Ref { path, .. } if path == param);
                if info.child_box.is_none() && direct {
                    if let Some(bi) = self.plan.boxes.get(box_type.as_str()) {
                        info.ctype = Some(bi.ctype.clone());
                        info.reads = bi.reads.clone();
                        info.anchor = anchor.as_deref().map(str::to_string);
                        info.child_box = Some(box_type.clone());
                    }
                }
            }
            RValue::Switch {
                cases, otherwise, ..
            } => {
                for (_, res) in cases {
                    self.yield_shape(res, param, ctx, info);
                }
                if let Some(o) = otherwise {
                    self.yield_shape(o, param, ctx, info);
                }
            }
            RValue::AnonBox { items, wheres, .. } => {
                for (_, rv) in wheres {
                    self.scan(rv, ctx, &mut info.children);
                }
                for item in items {
                    self.scan_item(item, ctx, &mut info.children);
                }
            }
            _ => {}
        }
    }

    /// Compile a box definition's views: its reads, container walks
    /// and pointer hops. Memoized; recursive yields (a Task whose
    /// children are Tasks) resolve by name at execution time.
    fn ensure_box(&mut self, name: &str) {
        if self.plan.boxes.contains_key(name) || self.in_progress.contains(name) {
            return;
        }
        let Some(def) = self.defines.get(name) else {
            return;
        };
        let def = *def;
        self.in_progress.insert(name.to_string());
        let mut reads = Vec::new();
        for view in &def.views {
            for (_, rv) in &view.wheres {
                rvalue_reads(rv, &mut reads);
            }
            for item in &view.items {
                item_reads(item, &mut reads);
            }
        }
        reads.sort();
        reads.dedup();
        self.plan.boxes.insert(
            name.to_string(),
            BoxInfo {
                ctype: def.ctype.to_string(),
                reads,
                walks: Vec::new(),
                hops: Vec::new(),
            },
        );
        // Walks and hops are collected after the entry exists so that
        // hop recording (`scan` on the views) can attach to it.
        let mut walks = Vec::new();
        let ctx = Ctx::BoxViews { box_name: name };
        for view in &def.views {
            for (_, rv) in &view.wheres {
                self.scan(rv, ctx, &mut walks);
            }
            for item in &view.items {
                self.scan_item(item, ctx, &mut walks);
            }
        }
        self.in_progress.remove(name);
        if let Some(info) = self.plan.boxes.get_mut(name) {
            info.walks = walks;
        }
    }
}

/// Lower a pane program into its walk plan. Constructors whose roots
/// cannot be classified statically are simply absent from the plan —
/// the interpreter still walks them, so skipping costs performance,
/// never correctness.
pub fn compile(program: &Program) -> WalkPlan {
    let mut c = Compiler {
        defines: program.defines.iter().map(|d| (&*d.name, d)).collect(),
        plan: WalkPlan::default(),
        in_progress: HashSet::new(),
    };
    let mut top = Vec::new();
    for stmt in &program.stmts {
        if let Stmt::Assign(_, rv) = stmt {
            c.scan(rv, Ctx::Top, &mut top);
        }
    }
    c.plan.top = top;
    c.plan
}

// ------------------------------------------------------------ execute --

/// What one plan execution did, all derived from the deterministic
/// schedule (never from thread timing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanReport {
    /// Scheduling mode the plan ran under.
    pub parallel: bool,
    /// Walk instances executed.
    pub plan_nodes: u64,
    /// Work skipped because of sharing: walk instances whose traversal
    /// (same kind, same root) already ran, plus objects (box type +
    /// base address) reached again over a second pointer path.
    pub dedup_walks: u64,
    /// Scheduler waves that ran two or more walks concurrently.
    pub parallel_batches: u64,
    /// Wire packets spent on scheduled span fetches.
    pub span_packets: u64,
}

/// One scheduled walk instance: a node and its resolved root.
struct Job {
    node: usize,
    root: CValue,
}

/// A batch of object bases of one box type awaiting processing.
struct Batch {
    box_type: String,
    bases: Vec<u64>,
    /// Seeds and hop targets fetch their field reads here; elements
    /// produced by a walk had their reads fetched in the walk stage.
    fetch_reads: bool,
}

/// Discovery output of one walk: element values (node addresses, array
/// element addresses, or xarray entries) plus every byte range the
/// traversal touched.
#[derive(Default)]
struct Walked {
    elems: Vec<u64>,
    touched: Vec<(u64, u64)>,
}

/// The reads a discovery walk issues: metered through the target in
/// serialized mode, raw via the backend's sync view in parallel mode.
enum Disco<'x, 'img> {
    Metered(&'x Target<'img>),
    Raw(&'x dyn SyncRead),
}

impl Disco<'_, '_> {
    fn read_uint(&self, addr: u64, size: usize) -> Option<u64> {
        match self {
            Disco::Metered(t) => t.read_uint(addr, size).ok(),
            Disco::Raw(r) => {
                let mut buf = [0u8; 8];
                r.read_raw(addr, &mut buf[..size]).ok()?;
                Some(ktypes::read_uint(&buf, size))
            }
        }
    }
}

/// Pre-resolved xarray layout (registry lookups are free; doing them
/// once on the main thread keeps the walk closures read-only).
#[derive(Clone, Copy)]
struct XaOffsets {
    head: u64,
    shift: u64,
    slots: u64,
}

fn xa_offsets(types: &TypeRegistry) -> Option<XaOffsets> {
    let xarray = types.find("xarray")?;
    let xa_node = types.find("xa_node")?;
    Some(XaOffsets {
        head: types.field_path(xarray, "xa_head").ok()?.0,
        shift: types.field_path(xa_node, "shift").ok()?.0,
        slots: types.field_path(xa_node, "slots").ok()?.0,
    })
}

fn root_addr(v: &CValue) -> Option<u64> {
    v.address().or_else(|| v.as_u64())
}

/// Mirror of `stdlib::list_nodes` / `hlist_nodes` discovery: chase the
/// `->next` chain, recording each hop.
fn walk_chain(disco: &Disco<'_, '_>, head: u64, circular: bool) -> Walked {
    let mut w = Walked::default();
    let mut seen = HashSet::new();
    if circular {
        seen.insert(head);
    }
    w.touched.push((head, 8));
    let Some(mut cur) = disco.read_uint(head, 8) else {
        return w;
    };
    while cur != 0 && (!circular || cur != head) {
        if !seen.insert(cur) {
            break;
        }
        w.elems.push(cur);
        w.touched.push((cur, 8));
        match disco.read_uint(cur, 8) {
            Some(next) => cur = next,
            None => break,
        }
        if w.elems.len() >= MAX_ELEMS {
            break;
        }
    }
    w
}

/// Mirror of `stdlib::rbtree_nodes`: normalize the root, then in-order
/// walk reading both child pointers of every node.
fn walk_rbtree(disco: &Disco<'_, '_>, types: &TypeRegistry, root: &CValue) -> Walked {
    let mut w = Walked::default();
    let top = match root {
        CValue::LValue { addr, ty } => {
            let name = types.tag_name(*ty).unwrap_or("");
            match name {
                "rb_node" => Some(*addr),
                _ => {
                    w.touched.push((*addr, 8));
                    disco.read_uint(*addr, 8)
                }
            }
        }
        CValue::Ptr { addr, ty } => {
            let pointee = types.pointee(*ty).ok();
            let name = pointee.and_then(|p| types.tag_name(p)).unwrap_or("");
            match name {
                "rb_root_cached" | "rb_root" => {
                    w.touched.push((*addr, 8));
                    disco.read_uint(*addr, 8)
                }
                _ => Some(*addr),
            }
        }
        other => root_addr(other),
    };
    let Some(top) = top else { return w };
    let mut seen = HashSet::new();
    let mut stack: Vec<(u64, bool)> = if top == 0 { vec![] } else { vec![(top, false)] };
    while let Some((node, expanded)) = stack.pop() {
        if node == 0 {
            continue;
        }
        if expanded {
            w.elems.push(node);
            continue;
        }
        if !seen.insert(node) {
            break;
        }
        w.touched.push((node + 8, 16));
        let (Some(right), Some(left)) =
            (disco.read_uint(node + 8, 8), disco.read_uint(node + 16, 8))
        else {
            break;
        };
        if right != 0 {
            stack.push((right, false));
        }
        stack.push((node, true));
        if left != 0 {
            stack.push((left, false));
        }
        if w.elems.len() + stack.len() > MAX_ELEMS {
            break;
        }
    }
    w
}

/// Mirror of the single-lvalue arm of `stdlib::array_elems`: element
/// addresses of a C array.
fn walk_array(types: &TypeRegistry, root: &CValue) -> Walked {
    let mut w = Walked::default();
    let CValue::LValue { addr, ty } = root else {
        return w;
    };
    let TypeKind::Array { elem, len } = &types.get(*ty).kind else {
        return w;
    };
    let esz = types.size_of(*elem);
    if esz == 0 || *len == 0 {
        return w;
    }
    w.touched.push((*addr, esz * *len));
    for i in 0..*len {
        w.elems.push(addr + esz * i);
        if w.elems.len() >= MAX_ELEMS {
            break;
        }
    }
    w
}

/// Mirror of `stdlib::xarray_entries` discovery: entries in ascending
/// index order.
fn walk_xarray(disco: &Disco<'_, '_>, xa: u64, off: XaOffsets) -> Walked {
    let mut w = Walked::default();
    w.touched.push((xa + off.head, 8));
    let Some(head) = disco.read_uint(xa + off.head, 8) else {
        return w;
    };
    if head == 0 {
        return w;
    }
    if head & 3 != 2 || head <= 4096 {
        w.elems.push(head);
        return w;
    }
    let mut seen = HashSet::new();
    let mut stack: Vec<(u64, u64)> = vec![(head & !3, 0)];
    let mut entries: Vec<(u64, u64)> = Vec::new();
    while let Some((node, base)) = stack.pop() {
        if !seen.insert(node) {
            break;
        }
        w.touched.push((node + off.shift, 1));
        let Some(shift) = disco.read_uint(node + off.shift, 1) else {
            break;
        };
        w.touched.push((node + off.slots, 8 * 64));
        let mut ok = true;
        for slot in 0..64u64 {
            let Some(entry) = disco.read_uint(node + off.slots + 8 * slot, 8) else {
                ok = false;
                break;
            };
            if entry == 0 {
                continue;
            }
            let idx = base + (slot << shift);
            if entry & 3 == 2 && entry > 4096 && shift > 0 {
                stack.push((entry & !3, idx));
            } else {
                entries.push((idx, entry));
            }
        }
        if !ok {
            break;
        }
    }
    entries.sort_unstable_by_key(|&(idx, _)| idx);
    w.elems = entries.into_iter().map(|(_, e)| e).collect();
    w
}

fn discover(
    disco: &Disco<'_, '_>,
    types: &TypeRegistry,
    xa: Option<XaOffsets>,
    kind: CtorKind,
    root: &CValue,
) -> Walked {
    match kind {
        CtorKind::List | CtorKind::HList => match root_addr(root) {
            Some(head) => walk_chain(disco, head, kind == CtorKind::List),
            None => Walked::default(),
        },
        CtorKind::RBTree => walk_rbtree(disco, types, root),
        CtorKind::Array => walk_array(types, root),
        CtorKind::XArray => match (root_addr(root), xa) {
            (Some(addr), Some(off)) => walk_xarray(disco, addr, off),
            _ => Walked::default(),
        },
    }
}

/// A hop with its offsets resolved against the type registry.
struct ResolvedHop {
    off: u64,
    /// Load the pointer at `base + off`; otherwise the target is the
    /// field itself.
    deref: bool,
    anchor_off: u64,
    target_box: String,
}

/// A box type's layout, resolved once per execution.
struct BoxLayout {
    ctype: Option<TypeId>,
    reads: Vec<(u64, u64)>,
    hops: Vec<ResolvedHop>,
}

/// Resolve `ctype.member.path` anchors to their byte offset.
fn anchor_off(types: &TypeRegistry, anchor: Option<&str>) -> u64 {
    let Some((ctype, member)) = anchor.and_then(|a| a.split_once('.')) else {
        return 0;
    };
    types
        .find(ctype)
        .and_then(|ty| types.field_path(ty, member).ok())
        .map(|(off, _)| off)
        .unwrap_or(0)
}

/// Resolve field-read paths to `(offset, len)` pairs. A path crossing
/// a pointer resolves only up to the in-struct hop: try the full path,
/// fall back to its first segment.
fn resolve_reads(types: &TypeRegistry, ctype: TypeId, paths: &[String]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for path in paths {
        let resolved = types.field_path(ctype, path).ok().or_else(|| {
            let head = path.split('.').next()?;
            types.field_path(ctype, head).ok()
        });
        if let Some((off, fty)) = resolved {
            let len = types.size_of(fty).clamp(1, 8);
            out.push((off, len));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn box_layout(types: &TypeRegistry, info: &BoxInfo) -> BoxLayout {
    let ctype = types.find(&info.ctype);
    let reads = ctype
        .map(|ty| resolve_reads(types, ty, &info.reads))
        .unwrap_or_default();
    let mut hops = Vec::new();
    if let Some(ty) = ctype {
        for hop in &info.hops {
            let Ok((off, fty)) = types.field_path(ty, &hop.path) else {
                continue;
            };
            let deref = !hop.addr_of && matches!(types.get(fty).kind, TypeKind::Pointer(_));
            hops.push(ResolvedHop {
                off,
                deref,
                anchor_off: anchor_off(types, hop.anchor.as_deref()),
                target_box: hop.target_box.clone(),
            });
        }
    }
    BoxLayout { ctype, reads, hops }
}

/// Field layout of one walk node's element boxes.
struct ElemLayout {
    anchor_off: u64,
    reads: Vec<(u64, u64)>,
}

fn elem_layout(types: &TypeRegistry, info: &ElemInfo) -> ElemLayout {
    let reads = info
        .ctype
        .as_deref()
        .and_then(|c| types.find(c))
        .map(|ty| resolve_reads(types, ty, &info.reads))
        .unwrap_or_default();
    ElemLayout {
        anchor_off: anchor_off(types, info.anchor.as_deref()),
        reads,
    }
}

/// Execute a walk plan against a target: resolve seeds, run the
/// discovery walks wave by wave, follow pointer hops, fetch the
/// planner's merged spans, and record the plan counters on the target.
/// All failures (unresolvable roots, unreadable memory) skip work
/// rather than erroring — the interpreter that follows is the source
/// of truth.
pub fn execute(plan: &WalkPlan, target: &Target<'_>, helpers: &HelperRegistry) -> PlanReport {
    let mode = PlanMode::choose(target.cache_enabled(), target.sync_view().is_some());
    let mut report = PlanReport {
        parallel: mode == PlanMode::Parallel,
        ..PlanReport::default()
    };
    if mode == PlanMode::Disabled || plan.is_empty() {
        return report;
    }
    // From here on the plan owns prefetching: the distillers' ad-hoc
    // hints are suppressed for the rest of this extraction.
    target.set_plan_mode(true);
    let _plan_span = vtrace::span(
        target.tracer(),
        vtrace::SpanKind::Plan,
        format!(
            "plan({} nodes, {} seeds, {})",
            plan.nodes.len(),
            plan.seeds.len(),
            mode.as_str()
        ),
    );
    let types = target.types;
    let planner = SpanPlanner::for_profile(&target.profile());
    let xa = xa_offsets(types);
    let evaluator = Evaluator::new(target, helpers);
    let env: HashMap<String, CValue> = HashMap::new();
    let resolve_static = |src: &str| -> Option<CValue> { evaluator.eval_str_with(src, &env).ok() };
    // Main-thread reads (pointer hops): metered in serialized mode,
    // raw in parallel mode — either way sequential in schedule order.
    let main_disco = match mode {
        PlanMode::Parallel => Disco::Raw(target.sync_view().expect("parallel mode has sync view")),
        _ => Disco::Metered(target),
    };

    // Layouts resolved once (registry only, no wire traffic).
    let node_layouts: Vec<Option<ElemLayout>> = plan
        .nodes
        .iter()
        .map(|n| n.elem.as_ref().map(|e| elem_layout(types, e)))
        .collect();
    let mut box_layouts: HashMap<&str, BoxLayout> = HashMap::new();
    for (name, info) in &plan.boxes {
        box_layouts.insert(name.as_str(), box_layout(types, info));
    }

    let mut seen_walks: HashSet<(u8, u64)> = HashSet::new();
    let mut seen_objs: HashSet<(String, u64)> = HashSet::new();

    // Wave 0: top-level static walk roots plus object seeds.
    let mut frontier: Vec<Job> = Vec::new();
    for &id in &plan.top {
        if let RootSpec::Static(src) = &plan.nodes[id].root {
            if let Some(root) = resolve_static(src) {
                frontier.push(Job { node: id, root });
            }
        }
    }
    let mut batches: Vec<Batch> = Vec::new();
    for seed in &plan.seeds {
        let Some(addr) = resolve_static(&seed.src).as_ref().and_then(root_addr) else {
            continue;
        };
        batches.push(Batch {
            box_type: seed.box_type.clone(),
            bases: vec![addr.wrapping_sub(anchor_off(types, seed.anchor.as_deref()))],
            fetch_reads: true,
        });
    }

    let mut wave = 0;
    while (!frontier.is_empty() || !batches.is_empty()) && wave < MAX_WAVES {
        wave += 1;
        // Schedule: high expected fanout first (stable, so determinism
        // does not depend on the sort).
        frontier.sort_by_key(|j| std::cmp::Reverse(plan.nodes[j.node].est_fanout));
        // Dedup shared subwalks: same traversal kind, same resolved
        // root — one walk serves every pane that asked for it.
        let mut jobs: Vec<Job> = Vec::new();
        for job in frontier.drain(..) {
            let Some(addr) = root_addr(&job.root) else {
                continue;
            };
            if addr == 0 {
                continue;
            }
            if seen_walks.insert((plan.nodes[job.node].kind as u8, addr)) {
                jobs.push(job);
            } else {
                report.dedup_walks += 1;
            }
        }
        report.plan_nodes += jobs.len() as u64;
        if mode == PlanMode::Parallel && jobs.len() >= 2 {
            report.parallel_batches += 1;
        }

        // Discovery. Parallel mode overlaps the pointer chases across
        // worker threads over the raw sync view — the bytes all get
        // paid for below, where the merged spans are fetched in
        // deterministic job order on this thread.
        let walked: Vec<Walked> = match mode {
            PlanMode::Parallel => {
                let sv = target.sync_view().expect("parallel mode has a sync view");
                let n_workers = jobs.len().min(8);
                let mut results: Vec<Option<Walked>> = Vec::new();
                results.resize_with(jobs.len(), || None);
                let mut slots: Vec<(&Job, &mut Option<Walked>)> =
                    jobs.iter().zip(results.iter_mut()).collect();
                std::thread::scope(|scope| {
                    let mut handles = Vec::new();
                    for chunk in chunked(std::mem::take(&mut slots), n_workers) {
                        handles.push(scope.spawn(move || {
                            let disco = Disco::Raw(sv);
                            for (job, slot) in chunk {
                                *slot = Some(discover(
                                    &disco,
                                    types,
                                    xa,
                                    plan.nodes[job.node].kind,
                                    &job.root,
                                ));
                            }
                        }));
                    }
                    for h in handles {
                        let _ = h.join();
                    }
                });
                results.into_iter().map(|r| r.unwrap_or_default()).collect()
            }
            _ => {
                let disco = Disco::Metered(target);
                jobs.iter()
                    .map(|job| {
                        let _span = vtrace::span(
                            target.tracer(),
                            vtrace::SpanKind::Plan,
                            format!("walk:{}", plan.nodes[job.node].label),
                        );
                        discover(&disco, types, xa, plan.nodes[job.node].kind, &job.root)
                    })
                    .collect()
            }
        };

        // Fetch: merge each job's touched ranges with its per-element
        // field reads and pull the spans, one packet per span, in job
        // order.
        for (job, w) in jobs.iter().zip(walked.iter()) {
            let node = &plan.nodes[job.node];
            let layout = &node_layouts[job.node];
            let mut ranges = w.touched.clone();
            if let Some(layout) = layout {
                for &elem in &w.elems {
                    let base = elem.wrapping_sub(layout.anchor_off);
                    if layout.reads.is_empty() {
                        ranges.push((base, 8));
                    } else {
                        for &(off, len) in &layout.reads {
                            ranges.push((base.wrapping_add(off), len));
                        }
                    }
                }
            }
            let _span = vtrace::span(
                target.tracer(),
                vtrace::SpanKind::Plan,
                format!("fetch:{} ({} elems)", node.label, w.elems.len()),
            );
            for (addr, len) in planner.merge(ranges) {
                report.span_packets += target.fetch_planned_span(addr, len);
            }
        }

        // Fan out: elements flow into the yielded box type's batch
        // (walks + hops) or spawn anonymous-body walks directly.
        let mut next: Vec<Job> = Vec::new();
        for (job, w) in jobs.iter().zip(walked.iter()) {
            let Some(elem) = &plan.nodes[job.node].elem else {
                continue;
            };
            let aoff = node_layouts[job.node]
                .as_ref()
                .map(|l| l.anchor_off)
                .unwrap_or(0);
            if let Some(b) = &elem.child_box {
                batches.push(Batch {
                    box_type: b.clone(),
                    bases: w.elems.iter().map(|e| e.wrapping_sub(aoff)).collect(),
                    fetch_reads: false,
                });
            }
            for &child_id in &elem.children {
                for &e in &w.elems {
                    let root = match &plan.nodes[child_id].root {
                        RootSpec::Elem => Some(CValue::Int {
                            value: e as i64,
                            ty: long_ty(types),
                        }),
                        RootSpec::Static(src) => resolve_static(src),
                        RootSpec::ElemField(_) => None,
                    };
                    if let Some(root) = root {
                        next.push(Job {
                            node: child_id,
                            root,
                        });
                    }
                }
            }
        }

        // Drain the object batches: each fresh (box type, base) spawns
        // the box's walks for the next wave, fetches its reads when
        // they were not covered by a walk, and follows its pointer
        // hops (which append further batches — drained this wave, so
        // hop chains settle without burning wave depth).
        let mut qi = 0;
        while qi < batches.len() {
            let batch = std::mem::replace(
                &mut batches[qi],
                Batch {
                    box_type: String::new(),
                    bases: Vec::new(),
                    fetch_reads: false,
                },
            );
            qi += 1;
            let Some(layout) = box_layouts.get(batch.box_type.as_str()) else {
                continue;
            };
            let info = &plan.boxes[&batch.box_type];
            let mut fresh: Vec<u64> = Vec::new();
            for &base in &batch.bases {
                if base == 0 {
                    continue;
                }
                if seen_objs.insert((batch.box_type.clone(), base)) {
                    fresh.push(base);
                } else {
                    // The object was already reached over another
                    // pointer path: its whole subtree is shared.
                    report.dedup_walks += 1.max(info.walks.len() as u64);
                }
            }
            if fresh.is_empty() {
                continue;
            }
            // Spawn the box's container walks per fresh object.
            for &walk_id in &info.walks {
                for &base in &fresh {
                    let root = match &plan.nodes[walk_id].root {
                        RootSpec::ElemField(path) => layout.ctype.and_then(|ty| {
                            let (off, fty) = types.field_path(ty, path).ok()?;
                            Some(CValue::LValue {
                                addr: base.wrapping_add(off),
                                ty: fty,
                            })
                        }),
                        RootSpec::Static(src) => resolve_static(src),
                        RootSpec::Elem => None,
                    };
                    if let Some(root) = root {
                        next.push(Job {
                            node: walk_id,
                            root,
                        });
                    }
                }
            }
            // Fetch the field reads of seed/hop objects.
            if batch.fetch_reads {
                let mut ranges: Vec<(u64, u64)> = Vec::new();
                for &base in &fresh {
                    if layout.reads.is_empty() {
                        ranges.push((base, 8));
                    } else {
                        for &(off, len) in &layout.reads {
                            ranges.push((base.wrapping_add(off), len));
                        }
                    }
                }
                let _span = vtrace::span(
                    target.tracer(),
                    vtrace::SpanKind::Plan,
                    format!("box:{} ({} objs)", batch.box_type, fresh.len()),
                );
                for (addr, len) in planner.merge(ranges) {
                    report.span_packets += target.fetch_planned_span(addr, len);
                }
            }
            // Follow pointer hops into further batches.
            for hop in &layout.hops {
                let mut bases = Vec::new();
                for &base in &fresh {
                    let field = base.wrapping_add(hop.off);
                    let tgt = if hop.deref {
                        match main_disco.read_uint(field, 8) {
                            Some(v) => v,
                            None => continue,
                        }
                    } else {
                        field
                    };
                    if tgt != 0 {
                        bases.push(tgt.wrapping_sub(hop.anchor_off));
                    }
                }
                if !bases.is_empty() {
                    batches.push(Batch {
                        box_type: hop.target_box.clone(),
                        bases,
                        fetch_reads: true,
                    });
                }
            }
        }
        batches.clear();
        frontier = next;
    }

    target.note_plan_walks(
        report.plan_nodes,
        report.dedup_walks,
        report.parallel_batches,
    );
    report
}

fn long_ty(types: &TypeRegistry) -> TypeId {
    types.find("long").expect("long interned")
}

/// Split `items` into at most `n` round-robin chunks (deterministic;
/// used only to bound worker-thread count, results are collected by
/// index).
fn chunked<T>(items: Vec<T>, n: usize) -> Vec<Vec<T>> {
    let n = n.max(1);
    let mut chunks: Vec<Vec<T>> = Vec::new();
    chunks.resize_with(n, Vec::new);
    for (i, item) in items.into_iter().enumerate() {
        chunks[i % n].push(item);
    }
    chunks.retain(|c| !c.is_empty());
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    const NESTED: &str = r#"
define Task as Box<task_struct> [
    Text pid, comm
    Link mm -> ${@this.mm}
    Container children: List(${&@this.children}).forEach |node| {
        yield Task<task_struct.sibling>(@node)
    }
]
tasks = List(${&init_task.tasks}).forEach |node| {
    yield Task<task_struct.tasks>(@node)
}
plot @tasks
"#;

    #[test]
    fn nested_recursive_program_compiles_to_linked_nodes() {
        let prog = parse_program(NESTED).unwrap();
        let plan = compile(&prog);
        assert_eq!(plan.top.len(), 1);
        let top = &plan.nodes[plan.top[0]];
        assert_eq!(top.kind, CtorKind::List);
        assert_eq!(top.root, RootSpec::Static("&init_task.tasks".into()));
        let elem = top.elem.as_ref().unwrap();
        assert_eq!(elem.ctype.as_deref(), Some("task_struct"));
        assert_eq!(elem.anchor.as_deref(), Some("task_struct.tasks"));
        assert!(elem.reads.contains(&"pid".to_string()));
        assert!(elem.reads.contains(&"mm".to_string()));
        assert_eq!(elem.child_box.as_deref(), Some("Task"));
        // The children walk inside Task links back to itself through
        // the box table, modelling unbounded recursion finitely.
        let task = &plan.boxes["Task"];
        assert_eq!(task.walks.len(), 1);
        let inner = &plan.nodes[task.walks[0]];
        assert_eq!(inner.root, RootSpec::ElemField("children".into()));
        assert_eq!(
            inner.elem.as_ref().unwrap().child_box.as_deref(),
            Some("Task")
        );
    }

    #[test]
    fn top_level_instantiate_becomes_a_seed() {
        let prog = parse_program(NESTED).unwrap();
        assert!(compile(&prog).seeds.is_empty());
        let src = r#"
define Task as Box<task_struct> [
    Text pid
    Container children: List(${&@this.children}).forEach |node| {
        yield Task<task_struct.sibling>(@node)
    }
]
root = Task(${&init_task})
plot @root
"#;
        let plan = compile(&parse_program(src).unwrap());
        assert!(plan.top.is_empty());
        assert_eq!(
            plan.seeds,
            vec![Seed {
                box_type: "Task".into(),
                anchor: None,
                src: "&init_task".into()
            }]
        );
        assert!(!plan.is_empty());
    }

    #[test]
    fn link_instantiations_compile_to_pointer_hops() {
        let src = r#"
define Signal as Box<signal_struct> [
    Text nr_threads
    Container shared_pending: List(${&@this.shared_pending.list}).forEach |n| {
        yield NULL
    }
]
define Task as Box<task_struct> [
    Text pid
    Link signal -> Signal(${@this.signal})
]
t = Task(${current_task})
plot @t
"#;
        let plan = compile(&parse_program(src).unwrap());
        let task = &plan.boxes["Task"];
        assert_eq!(
            task.hops,
            vec![Hop {
                path: "signal".into(),
                addr_of: false,
                target_box: "Signal".into(),
                anchor: None
            }]
        );
        let signal = &plan.boxes["Signal"];
        assert_eq!(signal.walks.len(), 1);
        assert_eq!(
            plan.nodes[signal.walks[0]].root,
            RootSpec::ElemField("shared_pending.list".into())
        );
    }

    #[test]
    fn foreach_param_roots_classify_as_elem() {
        let src = r#"
buckets = Array(${pid_hash}).forEach |bucket| {
    yield Box [
        Container chain: HList(@bucket).forEach |n| { yield NULL }
    ]
}
plot @buckets
"#;
        let prog = parse_program(src).unwrap();
        let plan = compile(&prog);
        assert_eq!(plan.top.len(), 1);
        let arr = &plan.nodes[plan.top[0]];
        assert_eq!(arr.kind, CtorKind::Array);
        let elem = arr.elem.as_ref().unwrap();
        assert!(elem.child_box.is_none());
        assert_eq!(elem.children.len(), 1);
        assert_eq!(plan.nodes[elem.children[0]].kind, CtorKind::HList);
        assert_eq!(plan.nodes[elem.children[0]].root, RootSpec::Elem);
    }

    #[test]
    fn unplannable_roots_are_skipped_not_errored() {
        let src = r#"
define Fd as Box<file> [ Text f_count ]
files = Array(${@this.fd}, ${@this.max_fds}).forEach |f| { yield Fd(@f) }
plot @files
"#;
        let prog = parse_program(src).unwrap();
        let plan = compile(&prog);
        // Two-arg array roots stay with the interpreter; the program
        // has no seed either.
        assert!(plan.is_empty());
    }

    #[test]
    fn select_from_plans_its_source_walk() {
        let src = r#"
define Task as Box<task_struct> [ Text pid ]
all = List(${&init_task.tasks}).forEach |n| {
    yield Task<task_struct.tasks>(@n)
}
picked = Array.selectFrom(List(${&init_task.tasks}).forEach |n| { yield NULL }, Task)
plot @picked
"#;
        let plan = compile(&parse_program(src).unwrap());
        // Both the standalone walk and the one inside selectFrom plan.
        assert_eq!(plan.top.len(), 2);
        assert!(plan
            .top
            .iter()
            .all(|&i| plan.nodes[i].kind == CtorKind::List));
    }

    #[test]
    fn select_from_ref_source_keeps_skip_path() {
        let src = r#"
define Task as Box<task_struct> [
    Text pid
    Container kids: List(${&@this.children}).forEach |n| { yield NULL }
]
t = Task(${&init_task})
picked = Array.selectFrom(@t, Task)
plot @picked
"#;
        let plan = compile(&parse_program(src).unwrap());
        // The `@t` source is a reference to an already-built box: the
        // selectFrom contributes no walk of its own, but the seed and
        // the box's inner walk still plan.
        assert!(plan.top.is_empty());
        assert_eq!(plan.seeds.len(), 1);
        assert_eq!(plan.boxes["Task"].walks.len(), 1);
    }

    #[test]
    fn this_field_path_rejects_fancy_expressions() {
        assert_eq!(
            this_field_path("&@this.children"),
            Some(("children".into(), true))
        );
        assert_eq!(
            this_field_path(" & @this.shared_pending.list"),
            Some(("shared_pending.list".into(), true))
        );
        assert_eq!(this_field_path("&@this.tasks[0]"), None);
        assert_eq!(this_field_path("@this.fd"), Some(("fd".into(), false)));
        assert_eq!(this_field_path("&@node->ma64.pivot"), None);
        assert_eq!(this_field_path("${x}"), None);
    }

    #[test]
    fn reads_collect_text_links_and_cexpr_mentions() {
        let src = r#"
define Zone as Box<zone> [
    Text name: ${@this.name}
    Text spanned_pages
    Link parent -> ${@this.parent->pid}
]
zs = List(${&zones}).forEach |n| { yield Zone<zone.lru>(@n) }
plot @zs
"#;
        let prog = parse_program(src).unwrap();
        let plan = compile(&prog);
        let elem = plan.nodes[plan.top[0]].elem.as_ref().unwrap();
        assert!(elem.reads.contains(&"name".to_string()));
        assert!(elem.reads.contains(&"spanned_pages".to_string()));
        assert!(elem.reads.contains(&"parent".to_string()));
    }
}
