//! ViewCL abstract syntax.

use vbridge::eval::Expr;
use vbridge::BridgeError;

/// A parsed program: box definitions plus top-level statements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// `define Name as Box<ctype> …` declarations.
    pub defines: Vec<BoxDef>,
    /// Top-level assignments and `plot` statements, in order.
    pub stmts: Vec<Stmt>,
}

/// A `define Name as Box<ctype>` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxDef {
    /// Box-type name (`Task`).
    pub name: String,
    /// Underlying C struct tag (`task_struct`).
    pub ctype: String,
    /// Declared views; a bare `[ … ]` body becomes one `default` view.
    pub views: Vec<ViewDef>,
}

impl BoxDef {
    /// Find a view by name.
    pub fn view(&self, name: &str) -> Option<&ViewDef> {
        self.views.iter().find(|v| v.name == name)
    }
}

/// One named view of a box definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDef {
    /// View name (`default`, `sched`, …).
    pub name: String,
    /// Parent view for `:parent => :name` inheritance.
    pub parent: Option<String>,
    /// Item declarations.
    pub items: Vec<ItemDef>,
    /// `where { a = …; b = … }` local bindings, in order.
    pub wheres: Vec<(String, RValue)>,
}

/// A display item inside a view.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemDef {
    /// `Text<decor> spec, spec, …`.
    Text {
        /// Optional display decorator (Table 1).
        decor: Option<String>,
        /// One or more text specs.
        specs: Vec<TextSpec>,
    },
    /// `Link name -> rvalue`.
    Link {
        /// Edge label.
        name: String,
        /// Target (must evaluate to a box or NULL).
        target: RValue,
    },
    /// `Container name: rvalue` (rvalue must evaluate to a sequence).
    Container {
        /// Container label.
        name: String,
        /// Member source.
        value: RValue,
    },
}

/// One text field: `pid` (path implies name) or `name: rvalue`.
#[derive(Debug, Clone, PartialEq)]
pub struct TextSpec {
    /// Display name.
    pub name: String,
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
    pub parsed: Result<Expr, BridgeError>,
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
        /// Optional `container_of` anchor: `ctype.member.path`.
        anchor: Option<String>,
        /// The object (or member) address expression.
        arg: Box<RValue>,
    },
    /// `Box [ items ] where { … }` — anonymous one-off box; an optional
    /// label (`Box List [ … ]`) names the virtual box for ViewQL.
    AnonBox {
        /// Display label (default `Box`).
        label: String,
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
