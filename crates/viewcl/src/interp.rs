//! The ViewCL interpreter: program × target → object graph.

use std::collections::HashMap;

use ktypes::{CValue, TypeId};
use vbridge::{Evaluator, HelperRegistry, Target};
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

type Scope = HashMap<String, Value>;

/// The interpreter. Owns the output graph; borrows the programs it runs
/// (`'p`) and the target and helper registry (`'t`) for the duration of
/// evaluation.
pub struct Interp<'p, 't, 'img> {
    target: &'t Target<'img>,
    helpers: &'t HelperRegistry,
    /// Flag/emoji sets for decorators.
    pub flags: FlagSets,
    defines: HashMap<&'p str, &'p BoxDef>,
    /// The graph under construction.
    pub graph: Graph,
    globals: Scope,
}

impl<'p, 't, 'img> Interp<'p, 't, 'img> {
    /// Create an interpreter over `target` with `helpers` callable from
    /// `${...}` expressions.
    pub fn new(target: &'t Target<'img>, helpers: &'t HelperRegistry) -> Self {
        Interp {
            target,
            helpers,
            flags: FlagSets::with_builtins(),
            defines: HashMap::new(),
            graph: Graph::new(),
            globals: Scope::new(),
        }
    }

    /// Load a program's box definitions without executing statements
    /// (used for the predefined "standard library" of boxes, §2.2).
    pub fn load_defines(&mut self, program: &'p Program) {
        for d in &program.defines {
            self.defines.insert(&d.name, d);
        }
    }

    /// Execute a program: register its defines, run its statements.
    pub fn run(&mut self, program: &'p Program) -> Result<()> {
        self.load_defines(program);
        let mut scope = std::mem::take(&mut self.globals);
        for stmt in &program.stmts {
            match stmt {
                Stmt::Assign(name, rv) => {
                    let v = self.eval(rv, &scope)?;
                    scope.insert(name.clone(), v);
                }
                Stmt::Plot(name) => {
                    let v = scope
                        .get(name)
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
        self.globals = scope;
        Ok(())
    }

    /// Finish and take the graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    // -------------------------------------------------------- evaluation --

    fn evaluator(&self) -> Evaluator<'_, 'img> {
        Evaluator::new(self.target, self.helpers)
    }

    fn ctype_of(&self, name: &str) -> Result<TypeId> {
        self.target
            .types
            .find(name)
            .ok_or_else(|| VclError::Eval(format!("unknown C type `{name}`")))
    }

    /// The C value `@name` denotes in a `${…}` expression: boxes are
    /// lvalues of their C type, `NULL` is 0, containers have none.
    fn c_value(&self, v: &Value) -> Option<CValue> {
        match v {
            Value::C(c) => Some(c.clone()),
            Value::Box(id) => {
                let b = self.graph.get(*id);
                Some(match self.target.types.find(&b.ctype) {
                    Some(ty) if b.addr != 0 => CValue::LValue { addr: b.addr, ty },
                    _ => CValue::Int {
                        value: b.addr as i64,
                        ty: self.target.types.find("long").expect("long interned"),
                    },
                })
            }
            Value::Null => Some(CValue::Int {
                value: 0,
                ty: self.target.types.find("long").expect("long interned"),
            }),
            Value::Seq(..) => None,
        }
    }

    /// Evaluate a C expression whose `@name`s resolve from `scope`.
    fn eval_cexpr(&self, e: &CExpr, scope: &Scope) -> Result<CValue> {
        let expr = e.parsed.as_ref().map_err(Clone::clone)?;
        let env = |name: &str| scope.get(name).and_then(|v| self.c_value(v));
        Ok(self.evaluator().eval(expr, &env)?)
    }

    /// Evaluate an rvalue to a ViewCL value.
    pub fn eval(&mut self, rv: &RValue, scope: &Scope) -> Result<Value> {
        match rv {
            RValue::CExpr(e) => Ok(Value::C(self.eval_cexpr(e, scope)?)),
            RValue::Null => Ok(Value::Null),
            RValue::ThisPath { expr, .. } => Ok(Value::C(self.eval_cexpr(expr, scope)?)),
            RValue::Ref { path, nav } => {
                let head = ref_head(path);
                let base = scope
                    .get(head)
                    .or_else(|| self.globals.get(head))
                    .ok_or_else(|| VclError::Eval(format!("unknown `@{head}`")))?;
                let Some(nav) = nav else {
                    return Ok(base.clone());
                };
                // Navigate the remainder through the C evaluator; the
                // head may be a global, the rest resolves from scope.
                let expr = nav.parsed.as_ref().map_err(Clone::clone)?;
                let env = |name: &str| {
                    let v = if name == head {
                        Some(base)
                    } else {
                        scope.get(name)
                    };
                    v.and_then(|v| self.c_value(v))
                };
                Ok(Value::C(self.evaluator().eval(expr, &env)?))
            }
            RValue::Switch {
                scrutinee,
                cases,
                otherwise,
            } => {
                let s = self.eval(scrutinee, scope)?;
                let sv = self.value_as_int(&s)?;
                for (guards, result) in cases {
                    for g in guards {
                        let gv = self.eval(g, scope)?;
                        if self.value_as_int(&gv)? == sv {
                            return self.eval(result, scope);
                        }
                    }
                }
                match otherwise {
                    Some(o) => self.eval(o, scope),
                    None => Ok(Value::Null),
                }
            }
            RValue::Ctor {
                kind,
                args,
                for_each,
            } => self.eval_ctor(*kind, args, for_each.as_deref(), scope),
            RValue::SelectFrom { source, box_type } => {
                let src = self.eval(source, scope)?;
                let root = match src {
                    Value::Box(id) => id,
                    other => {
                        return Err(VclError::Eval(format!(
                            "selectFrom: source must be a box, got {other:?}"
                        )))
                    }
                };
                let mut members: Vec<BoxId> = self
                    .graph
                    .reachable(&[root])
                    .into_iter()
                    .filter(|id| self.graph.get(*id).label == *box_type)
                    .collect();
                // Order by the most natural sort key available.
                members.sort_by_key(|id| {
                    let b = self.graph.get(*id);
                    b.member_raw("vm_start", &self.graph)
                        .unwrap_or(b.addr as i64)
                });
                Ok(Value::Seq(members, ContainerKind::Sequence))
            }
            RValue::Instantiate {
                box_type,
                anchor,
                arg,
            } => {
                let v = self.eval(arg, scope)?;
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
                    Value::Box(id) => self.graph.get(*id).addr,
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
                    Some(a) => {
                        let (ctype, member) = a.split_once('.').ok_or_else(|| {
                            VclError::Eval(format!("bad anchor `{a}`: need ctype.member"))
                        })?;
                        let ty = self.ctype_of(ctype)?;
                        let (off, _) = self
                            .target
                            .types
                            .field_path(ty, member)
                            .map_err(vbridge::BridgeError::from)?;
                        addr.wrapping_sub(off)
                    }
                    None => addr,
                };
                let def = *self
                    .defines
                    .get(box_type.as_str())
                    .ok_or_else(|| VclError::Eval(format!("unknown box type `{box_type}`")))?;
                Ok(Value::Box(self.instantiate(def, addr)?))
            }
            RValue::AnonBox {
                label,
                items,
                wheres,
            } => {
                let (id, _) = self.graph.intern(0, label, "", 0);
                let mut inner = scope.clone();
                for (name, rv) in wheres {
                    let v = self.eval(rv, &inner)?;
                    inner.insert(name.clone(), v);
                }
                let mut view_items = Vec::new();
                self.eval_items(items, &inner, &mut view_items)?;
                self.graph.get_mut(id).views.push(ViewInst {
                    name: "default".into(),
                    items: view_items,
                });
                Ok(Value::Box(id))
            }
        }
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
            Value::Box(id) => Ok(self.graph.get(*id).addr as i64),
            Value::Seq(..) => Err(VclError::Eval("switch: cannot compare containers".into())),
        }
    }

    fn eval_ctor(
        &mut self,
        kind: CtorKind,
        args: &[RValue],
        for_each: Option<&ForEach>,
        scope: &Scope,
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
            match self.eval(a, scope)? {
                Value::C(c) => cargs.push(c),
                Value::Box(id) => {
                    let b = self.graph.get(id);
                    let ty = self.target.types.find(&b.ctype);
                    match ty {
                        Some(ty) => cargs.push(CValue::LValue { addr: b.addr, ty }),
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

        let long_ty = self.target.types.find("long").expect("long interned");
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
                    let mut inner = scope.clone();
                    inner.insert(fe.param.clone(), Value::C(elem));
                    for (name, rv) in &fe.wheres {
                        let v = self.eval(rv, &inner)?;
                        inner.insert(name.clone(), v);
                    }
                    match self.eval(&fe.yield_expr, &inner)? {
                        Value::Box(id) => members.push(id),
                        Value::Null => {}
                        Value::Seq(ids, _) => members.extend(ids),
                        Value::C(c) => {
                            // Yielding a raw value wraps it in a cell box.
                            members.push(self.cell_box(&c));
                        }
                    }
                }
            }
            None => {
                // No body: wrap each element in a display cell.
                for elem in elems {
                    members.push(self.cell_box(&elem));
                }
            }
        }
        if let Some(t) = trunc {
            members.push(self.diag_box(&t.describe(ctor_name, n_elems), t.addr));
        }
        Ok(Value::Seq(members, ckind))
    }

    /// A virtual diagnostic box appended to a truncated container so the
    /// damage shows up in the plot itself.
    fn diag_box(&mut self, msg: &str, addr: u64) -> BoxId {
        let (id, _) = self.graph.intern(0, "Diag", "", 0);
        let b = self.graph.get_mut(id);
        b.attrs
            .set("diagnostic", serde_json::Value::String(msg.to_string()));
        b.views.push(ViewInst {
            name: "default".into(),
            items: vec![Item::Text {
                name: "diagnostic".into(),
                value: msg.to_string(),
                raw: Some(addr as i64),
            }],
        });
        id
    }

    /// A virtual single-text box used for containers of raw values
    /// (e.g. maple-tree pivots).
    fn cell_box(&mut self, v: &CValue) -> BoxId {
        let (id, _) = self.graph.intern(0, "Cell", "", 0);
        let value = decor::render_default(self.target, v);
        self.graph.get_mut(id).views.push(ViewInst {
            name: "default".into(),
            items: vec![Item::Text {
                name: "value".into(),
                value,
                raw: decor::raw_for_query(v),
            }],
        });
        id
    }

    // ----------------------------------------------------- instantiation --

    /// Materialize a box for `def` at `addr`, evaluating all of its views.
    pub fn instantiate(&mut self, def: &BoxDef, addr: u64) -> Result<BoxId> {
        let cty = self.ctype_of(&def.ctype)?;
        let size = self.target.types.size_of(cty);
        let (id, fresh) = self.graph.intern(addr, &def.name, &def.ctype, size);
        if !fresh {
            return Ok(id);
        }

        let mut scope = Scope::new();
        scope.insert("this".into(), Value::C(CValue::LValue { addr, ty: cty }));

        // Evaluate every where binding once, in view-declaration order,
        // first binding of a name wins (shared across views).
        for view in &def.views {
            for v in self.chain(def, &view.name)? {
                for (name, rv) in &v.wheres {
                    if scope.contains_key(name) {
                        continue;
                    }
                    let val = self.eval(rv, &scope)?;
                    scope.insert(name.clone(), val);
                }
            }
        }

        for view in &def.views {
            let mut view_items = Vec::new();
            for v in self.chain(def, &view.name)? {
                self.eval_items(&v.items, &scope, &mut view_items)?;
            }
            self.graph.get_mut(id).views.push(ViewInst {
                name: view.name.clone(),
                items: view_items,
            });
        }
        Ok(id)
    }

    /// Inheritance chain (root-first) of a view.
    fn chain<'d>(&self, def: &'d BoxDef, name: &str) -> Result<Vec<&'d ViewDef>> {
        let mut chain = Vec::new();
        let mut cur = Some(name);
        while let Some(n) = cur {
            let v = def
                .view(n)
                .ok_or_else(|| VclError::Eval(format!("box `{}` has no view `:{n}`", def.name)))?;
            if chain.iter().any(|c: &&ViewDef| c.name == v.name) {
                return Err(VclError::Eval(format!(
                    "view inheritance cycle at `:{}` in `{}`",
                    v.name, def.name
                )));
            }
            chain.push(v);
            cur = v.parent.as_deref();
        }
        chain.reverse();
        Ok(chain)
    }

    /// Evaluate `items` in order, appending their display items to `out`.
    fn eval_items(&mut self, items: &[ItemDef], scope: &Scope, out: &mut Vec<Item>) -> Result<()> {
        for item in items {
            match item {
                ItemDef::Text { decor, specs } => {
                    let dec = decor.as_deref().and_then(Decorator::parse);
                    for spec in specs {
                        out.push(self.eval_text(spec, dec.as_ref(), scope));
                    }
                }
                ItemDef::Link { name, target } => match self.eval(target, scope) {
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
                    Err(_) => out.push(Item::NullLink { name: name.clone() }),
                },
                ItemDef::Container { name, value } => match self.eval(value, scope)? {
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

    fn eval_text(&mut self, spec: &TextSpec, dec: Option<&Decorator>, scope: &Scope) -> Item {
        let rendered = (|| -> Result<(String, Option<i64>)> {
            let value = match self.eval(&spec.expr, scope)? {
                Value::C(c) => c,
                Value::Null => CValue::Int {
                    value: 0,
                    ty: self.target.types.find("long").expect("long interned"),
                },
                Value::Box(id) => CValue::Int {
                    value: self.graph.get(id).addr as i64,
                    ty: self.target.types.find("long").expect("long interned"),
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
                Some(d) => d.render(self.target, &self.flags, &value),
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
