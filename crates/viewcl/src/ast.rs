//! ViewCL abstract syntax.
//!
//! Parsing does the per-program work once: `Text<…>` decorators are
//! parsed, each view's inheritance chain is resolved, the definitions
//! are indexed by name, and the names a graph will carry (box labels and
//! C types, view and item names) are shared `Arc<str>`s the graph takes
//! by reference count. Names resolved against a target's debug info —
//! box C types, `Name<anchor>` offsets, and the names inside every C
//! expression — are [`Name`]s that cache their binding per registry
//! state.

use std::collections::BTreeMap;
use std::sync::Arc;

use ktypes::{Name, TypeId};
use vbridge::eval::Expr;
use vbridge::BridgeError;

use crate::decor::Decorator;
use crate::{Result, VclError};

/// A parsed program: box definitions plus top-level statements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// `define Name as Box<ctype> …` declarations.
    pub defines: Vec<BoxDef>,
    /// Top-level assignments and `plot` statements, in order.
    pub stmts: Vec<Stmt>,
    /// Positions in `defines` by name; a later definition of a name
    /// shadows an earlier one.
    pub(crate) table: BTreeMap<Arc<str>, usize>,
    /// Whether an `Array.selectFrom` appears: it collects boxes from
    /// the graph built so far, so no box's views stand alone.
    pub(crate) selects: bool,
}

impl Program {
    /// The definition `name` refers to (the last one of that name).
    pub fn define(&self, name: &str) -> Option<&BoxDef> {
        self.table.get(name).map(|&i| &self.defines[i])
    }
}

/// A `define Name as Box<ctype>` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxDef {
    /// Box-type name (`Task`), the label of its boxes.
    pub name: Arc<str>,
    /// Underlying C struct tag (`task_struct`), bound to its type.
    pub ctype: Name<TypeId>,
    /// Declared views; a bare `[ … ]` body becomes one `default` view.
    pub views: Vec<ViewDef>,
}

/// One named view of a box definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDef {
    /// View name (`default`, `sched`, …).
    pub name: Arc<str>,
    /// Parent view for `:parent => :name` inheritance.
    pub parent: Option<String>,
    /// Item declarations.
    pub items: Vec<ItemDef>,
    /// `where { a = …; b = … }` local bindings, in order.
    pub wheres: Vec<(String, RValue)>,
    /// The inheritance chain of the view this one's name finds, root
    /// first, as positions in the box's views; or why there is none (an
    /// unknown parent, a cycle), raised when a box of this definition is
    /// instantiated.
    pub(crate) chain: Result<Vec<usize>>,
}

/// The inheritance chain (root first) of the view named `name` among
/// `views`, the views of box `def`: positions in `views`.
pub(crate) fn chain(def: &str, views: &[ViewDef], name: &str) -> Result<Vec<usize>> {
    let mut chain: Vec<usize> = Vec::new();
    let mut cur = Some(name);
    while let Some(n) = cur {
        let i = views
            .iter()
            .position(|v| *v.name == *n)
            .ok_or_else(|| VclError::Eval(format!("box `{def}` has no view `:{n}`")))?;
        let v = &views[i];
        if chain.iter().any(|&c| views[c].name == v.name) {
            return Err(VclError::Eval(format!(
                "view inheritance cycle at `:{}` in `{def}`",
                v.name
            )));
        }
        chain.push(i);
        cur = v.parent.as_deref();
    }
    chain.reverse();
    Ok(chain)
}

/// A display item inside a view.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemDef {
    /// `Text<decor> spec, spec, …`.
    Text {
        /// Optional display decorator (Table 1); one that does not parse
        /// displays as no decorator.
        decor: Option<Decorator>,
        /// One or more text specs.
        specs: Vec<TextSpec>,
    },
    /// `Link name -> rvalue`.
    Link {
        /// Edge label.
        name: Arc<str>,
        /// Target (must evaluate to a box or NULL).
        target: RValue,
    },
    /// `Container name: rvalue` (rvalue must evaluate to a sequence).
    Container {
        /// Container label.
        name: Arc<str>,
        /// Member source.
        value: RValue,
    },
}

/// One text field: `pid` (path implies name) or `name: rvalue`.
#[derive(Debug, Clone, PartialEq)]
pub struct TextSpec {
    /// Display name.
    pub name: Arc<str>,
    /// Value source; a bare `pid` or `se.vruntime` reads that path off
    /// `@this` ([`RValue::ThisPath`]).
    pub expr: RValue,
}

/// An embedded C expression, parsed once with the program. A syntax
/// error is kept with it and raised each time the expression is
/// evaluated, so a bad `${…}` in a branch never taken costs nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct CExpr {
    /// The C source text, as an error message echoes it.
    pub src: String,
    /// The parsed expression, or why it does not parse.
    pub parsed: std::result::Result<Expr, BridgeError>,
}

impl CExpr {
    /// Parse `src`, keeping a syntax error for evaluation time.
    pub(crate) fn new(src: impl Into<String>) -> CExpr {
        let src = src.into();
        let parsed = vbridge::eval::parse(&src);
        CExpr { src, parsed }
    }
}

/// Container constructors of the standard library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtorKind {
    /// Circular doubly linked `list_head`.
    List,
    /// `hlist_head` chain.
    HList,
    /// Red-black tree (accepts `rb_root`, `rb_root_cached` or `rb_node*`).
    RBTree,
    /// C array lvalue, or `(pointer, length)` pair.
    Array,
    /// Page-cache style xarray.
    XArray,
}

/// A right-hand-side value expression.
#[derive(Debug, Clone, PartialEq)]
pub enum RValue {
    /// `${ c-expression }`, or an integer literal.
    CExpr(CExpr),
    /// `@name` or `@name.field.path` — scope reference with optional
    /// member navigation.
    Ref {
        /// The reference without its `@` (`node.mr64.slot`).
        path: String,
        /// `@path` as a C expression when the path navigates past its
        /// head; `None` for a bare `@name`.
        nav: Option<CExpr>,
    },
    /// A bare field path off `@this` (text specs only).
    ThisPath {
        /// The field path (`se.vruntime`).
        path: String,
        /// `@this.path` as a C expression.
        expr: CExpr,
    },
    /// The literal `NULL` (no box).
    Null,
    /// `switch rvalue { case v, v: r … otherwise: r }`.
    Switch {
        /// Scrutinee.
        scrutinee: Box<RValue>,
        /// `(guards, result)` arms.
        cases: Vec<(Vec<RValue>, RValue)>,
        /// `otherwise` arm.
        otherwise: Option<Box<RValue>>,
    },
    /// `Ctor(args…)` with optional `.forEach |x| { … yield … }`.
    Ctor {
        /// Which container.
        kind: CtorKind,
        /// Constructor arguments.
        args: Vec<RValue>,
        /// The per-element body.
        for_each: Option<Box<ForEach>>,
    },
    /// `Array.selectFrom(@root, BoxType)` — distill reachable boxes.
    SelectFrom {
        /// Root value (box).
        source: Box<RValue>,
        /// Box-type label to collect.
        box_type: String,
    },
    /// `Name(arg)` / `Name<anchor.path>(arg)` — box instantiation.
    Instantiate {
        /// The defined box-type name.
        box_type: String,
        /// Optional `container_of` anchor: `ctype.member.path`, bound to
        /// the member's offset.
        anchor: Option<Name<u64>>,
        /// The object (or member) address expression.
        arg: Box<RValue>,
    },
    /// `Box [ items ] where { … }` — anonymous one-off box; an optional
    /// label (`Box List [ … ]`) names the virtual box for ViewQL.
    AnonBox {
        /// Display label (default `Box`).
        label: Arc<str>,
        /// Items of the single default view.
        items: Vec<ItemDef>,
        /// Local bindings.
        wheres: Vec<(String, RValue)>,
    },
}

impl RValue {
    /// `@path`: a scope reference, navigating through the C evaluator
    /// when the path goes past its head name.
    pub(crate) fn reference(path: impl Into<String>) -> RValue {
        let path = path.into();
        let nav = (ref_head(&path).len() < path.len()).then(|| CExpr::new(format!("@{path}")));
        RValue::Ref { path, nav }
    }

    /// A field path read off `@this`.
    pub(crate) fn this_path(path: impl Into<String>) -> RValue {
        let path = path.into();
        let expr = CExpr::new(format!("@this.{path}"));
        RValue::ThisPath { path, expr }
    }
}

/// The scope name a reference path starts with (`node` in
/// `node.mr64.slot`, `x` in `x[2]`).
pub(crate) fn ref_head(path: &str) -> &str {
    path.split(['.', '[']).next().unwrap_or(path)
}

/// A `.forEach |param| { wheres… yield expr }` body.
#[derive(Debug, Clone, PartialEq)]
pub struct ForEach {
    /// The loop variable name (bound to each element).
    pub param: String,
    /// Bindings evaluated per element, before the yield.
    pub wheres: Vec<(String, RValue)>,
    /// The yielded expression (box / NULL / switch of those).
    pub yield_expr: RValue,
}

/// Top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `name = rvalue`.
    Assign(String, RValue),
    /// `plot @name`.
    Plot(String),
}
