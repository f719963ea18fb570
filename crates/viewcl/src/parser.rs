//! ViewCL recursive-descent parser.

use std::collections::VecDeque;

use ktypes::Name;

use crate::ast::*;
use crate::decor::Decorator;
use crate::interp::DEFAULT;
use crate::lexer::{Lexer, SpannedTok, Tok};
use crate::{Result, VclError};

/// Deepest nesting of values (`switch` arms, constructor arguments,
/// box bodies) the parser accepts, the JSON codec's limit. Parsing and
/// evaluating recurse once per level, so hostile program text must end
/// in a positioned error long before the thread's stack does.
const MAX_DEPTH: usize = 128;

/// Longest parse error message. Messages quote tokens, and a token can
/// be a whole `${…}` of wire-supplied text; the position says where.
const MAX_MSG_BYTES: usize = 256;

struct P<'s> {
    lexer: Lexer<'s>,
    /// The token at the cursor, then the one after it (for `peek2`)
    /// unless the input ends first. The parser never steps back.
    toks: VecDeque<SpannedTok>,
    /// Values open above the cursor.
    depth: usize,
    /// An `Array.selectFrom` has been parsed.
    selects: bool,
}

impl<'s> P<'s> {
    fn new(src: &'s str) -> P<'s> {
        let mut p = P {
            lexer: Lexer::new(src),
            toks: VecDeque::with_capacity(2),
            depth: 0,
            selects: false,
        };
        p.fill();
        p
    }

    /// Lex up to the token after the cursor.
    fn fill(&mut self) {
        while self.toks.len() < 2 && !self.toks.back().is_some_and(|t| t.tok.is_last()) {
            let t = self.lexer.next_tok();
            self.toks.push_back(t);
        }
    }

    /// Step to the next token, handing back the one left; the last
    /// token is never left, so it is handed back as a copy.
    fn bump(&mut self) -> Tok {
        let t = if self.toks.len() > 1 {
            self.toks.pop_front().expect("two tokens are held").tok
        } else {
            self.peek().clone()
        };
        self.fill();
        t
    }

    fn advance(&mut self) {
        self.bump();
    }

    /// A parse error at the cursor, or the lexer's, if the cursor is
    /// where lexing failed.
    fn err(&self, msg: impl Into<String>) -> VclError {
        if let Tok::Bad(e) = self.peek() {
            return (**e).clone();
        }
        let mut msg = msg.into();
        if msg.len() > MAX_MSG_BYTES {
            msg.truncate(msg.floor_char_boundary(MAX_MSG_BYTES));
            msg.push('…');
        }
        VclError::Parse {
            line: self.toks[0].line,
            pos: self.toks[0].pos,
            msg,
        }
    }

    fn peek(&self) -> &Tok {
        &self.toks[0].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[self.toks.len() - 1].tok
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{p}`, found {:?}", self.peek())))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(i) if i == kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {:?}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.bump() {
            Tok::Ident(i) => Ok(i),
            t => Err(self.err(format!("expected identifier, found {t:?}"))),
        }
    }

    fn expect_spec(&mut self) -> Result<String> {
        match self.bump() {
            Tok::Spec(s) => Ok(s),
            t => Err(self.err(format!("expected `<…>`, found {t:?}"))),
        }
    }

    // ---------------------------------------------------------- program --

    fn program(&mut self) -> Result<Program> {
        let mut prog = Program::default();
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Ident(i) if i == "define" => {
                    self.advance();
                    prog.defines.push(self.box_def()?);
                }
                Tok::Ident(i) if i == "plot" => {
                    self.advance();
                    match self.bump() {
                        Tok::AtRef(name) => prog.stmts.push(Stmt::Plot(name)),
                        t => return Err(self.err(format!("plot expects `@name`, got {t:?}"))),
                    }
                }
                Tok::Ident(_) => {
                    let name = self.expect_ident()?;
                    self.expect_punct("=")?;
                    let rv = self.rvalue()?;
                    prog.stmts.push(Stmt::Assign(name, rv));
                }
                t => return Err(self.err(format!("unexpected {t:?} at top level"))),
            }
        }
        for (i, d) in prog.defines.iter().enumerate() {
            prog.table.insert(d.name.clone(), i);
        }
        prog.selects = self.selects;
        Ok(prog)
    }

    // ------------------------------------------------------------ boxes --

    fn box_def(&mut self) -> Result<BoxDef> {
        let name = self.expect_ident()?;
        self.expect_kw("as")?;
        self.expect_kw("Box")?;
        let ctype = self.expect_spec()?;
        let mut views = Vec::new();
        if self.eat_punct("[") {
            // Single default view.
            let items = self.items_until("]")?;
            self.expect_punct("]")?;
            let wheres = self.opt_where()?;
            views.push(ViewDef {
                name: DEFAULT.clone(),
                parent: None,
                items,
                wheres,
                chain: Ok(Vec::new()),
            });
        } else if self.eat_punct("{") {
            while !self.eat_punct("}") {
                views.push(self.named_view()?);
            }
        } else {
            return Err(self.err("expected `[` or `{` after Box<...>"));
        }
        let chains: Vec<_> = views
            .iter()
            .map(|v| chain(&name, &views, &v.name))
            .collect();
        for (v, c) in views.iter_mut().zip(chains) {
            v.chain = c;
        }
        Ok(BoxDef {
            name: name.into(),
            ctype: Name::new(ctype),
            views,
        })
    }

    fn named_view(&mut self) -> Result<ViewDef> {
        self.expect_punct(":")?;
        let first = self.expect_ident()?;
        let (parent, name) = if self.eat_punct("=>") {
            self.expect_punct(":")?;
            let child = self.expect_ident()?;
            (Some(first), child)
        } else {
            (None, first)
        };
        self.expect_punct("[")?;
        let items = self.items_until("]")?;
        self.expect_punct("]")?;
        let wheres = self.opt_where()?;
        Ok(ViewDef {
            name: name.into(),
            parent,
            items,
            wheres,
            chain: Ok(Vec::new()),
        })
    }

    fn opt_where(&mut self) -> Result<Vec<(String, RValue)>> {
        if !self.eat_kw("where") {
            return Ok(Vec::new());
        }
        self.expect_punct("{")?;
        let mut out = Vec::new();
        while !self.eat_punct("}") {
            let name = self.expect_ident()?;
            self.expect_punct("=")?;
            out.push((name, self.rvalue()?));
        }
        Ok(out)
    }

    fn items_until(&mut self, close: &str) -> Result<Vec<ItemDef>> {
        let mut out = Vec::new();
        loop {
            match self.peek() {
                Tok::Punct(p) if *p == close => break,
                Tok::Ident(i) if i == "Text" => {
                    self.advance();
                    let decor = match self.peek() {
                        Tok::Spec(_) => Decorator::parse(&self.expect_spec()?),
                        _ => None,
                    };
                    let mut specs = vec![self.text_spec()?];
                    while self.eat_punct(",") {
                        specs.push(self.text_spec()?);
                    }
                    out.push(ItemDef::Text { decor, specs });
                }
                Tok::Ident(i) if i == "Link" => {
                    self.advance();
                    let name = self.expect_ident()?.into();
                    self.expect_punct("->")?;
                    let target = self.rvalue()?;
                    out.push(ItemDef::Link { name, target });
                }
                Tok::Ident(i) if i == "Container" => {
                    self.advance();
                    let name = self.expect_ident()?.into();
                    self.expect_punct(":")?;
                    let value = self.rvalue()?;
                    out.push(ItemDef::Container { name, value });
                }
                t => return Err(self.err(format!("unexpected {t:?} in item list"))),
            }
        }
        Ok(out)
    }

    /// Continue a dotted field path, consuming `.seg` and `[n]` parts.
    fn path_tail(&mut self, path: &mut String) -> Result<()> {
        loop {
            if self.eat_punct(".") {
                path.push('.');
                path.push_str(&self.expect_ident()?);
            } else if self.eat_punct("[") {
                let idx = match self.bump() {
                    Tok::Num(n) => n,
                    t => return Err(self.err(format!("expected index, got {t:?}"))),
                };
                self.expect_punct("]")?;
                path.push('[');
                path.push_str(&idx.to_string());
                path.push(']');
            } else {
                return Ok(());
            }
        }
    }

    /// `pid` | `se.vruntime` | `name: rvalue` | `name: field.path[0]`.
    fn text_spec(&mut self) -> Result<TextSpec> {
        let mut name = self.expect_ident()?;
        // Bare dotted/indexed path (no colon follows the first ident).
        if matches!(self.peek(), Tok::Punct(".") | Tok::Punct("[")) {
            self.path_tail(&mut name)?;
        } else if self.eat_punct(":") {
            // Either an rvalue or a bare field path.
            let expr = match self.peek() {
                Tok::Ident(_) => {
                    let mut path = self.expect_ident()?;
                    self.path_tail(&mut path)?;
                    RValue::this_path(path)
                }
                _ => self.rvalue()?,
            };
            return Ok(TextSpec {
                name: name.into(),
                expr,
            });
        }
        Ok(TextSpec {
            expr: RValue::this_path(name.clone()),
            name: name.into(),
        })
    }

    // ----------------------------------------------------------- rvalue --

    fn rvalue(&mut self) -> Result<RValue> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let rv = self.rvalue_at_depth()?;
        self.depth -= 1;
        Ok(rv)
    }

    fn rvalue_at_depth(&mut self) -> Result<RValue> {
        if !matches!(
            self.peek(),
            Tok::CExpr(_) | Tok::AtRef(_) | Tok::Num(_) | Tok::Ident(_)
        ) {
            return Err(self.err(format!("unexpected {:?} in value position", self.peek())));
        }
        // Moved out, not copied: a `${…}` can be most of the program.
        match self.bump() {
            Tok::CExpr(e) => Ok(RValue::CExpr(CExpr::new(e))),
            Tok::AtRef(r) => {
                // `@x.forEach` continuation?
                if matches!(self.peek(), Tok::Punct("."))
                    && matches!(self.peek2(), Tok::Ident(i) if i == "forEach")
                {
                    return Err(self.err(
                        "`.forEach` applies to container constructors; wrap the source in one (e.g. RBTree(@x).forEach)",
                    ));
                }
                Ok(RValue::reference(r))
            }
            Tok::Num(n) => Ok(RValue::CExpr(CExpr::new(n.to_string()))),
            Tok::Ident(i) if i == "NULL" => Ok(RValue::Null),
            Tok::Ident(i) if i == "switch" => self.switch_expr(),
            Tok::Ident(i) if i == "Box" => {
                let label = match self.peek() {
                    Tok::Ident(l)
                        if !matches!(l.as_str(), "Text" | "Link" | "Container" | "where") =>
                    {
                        self.expect_ident()?.into()
                    }
                    _ => "Box".into(),
                };
                self.expect_punct("[")?;
                let items = self.items_until("]")?;
                self.expect_punct("]")?;
                let wheres = self.opt_where()?;
                Ok(RValue::AnonBox {
                    label,
                    items,
                    wheres,
                })
            }
            Tok::Ident(i)
                if matches!(i.as_str(), "List" | "HList" | "RBTree" | "Array" | "XArray") =>
            {
                let kind = match i.as_str() {
                    "List" => CtorKind::List,
                    "HList" => CtorKind::HList,
                    "RBTree" => CtorKind::RBTree,
                    "Array" => CtorKind::Array,
                    _ => CtorKind::XArray,
                };
                // `Array.selectFrom(@root, Type)` special form.
                if kind == CtorKind::Array
                    && matches!(self.peek(), Tok::Punct("."))
                    && matches!(self.peek2(), Tok::Ident(m) if m == "selectFrom")
                {
                    self.advance();
                    self.advance();
                    self.expect_punct("(")?;
                    let source = self.rvalue()?;
                    self.expect_punct(",")?;
                    let box_type = self.expect_ident()?;
                    self.expect_punct(")")?;
                    self.selects = true;
                    return Ok(RValue::SelectFrom {
                        source: Box::new(source),
                        box_type,
                    });
                }
                self.expect_punct("(")?;
                let mut args = vec![self.rvalue()?];
                while self.eat_punct(",") {
                    args.push(self.rvalue()?);
                }
                self.expect_punct(")")?;
                let for_each = self.opt_for_each()?.map(Box::new);
                Ok(RValue::Ctor {
                    kind,
                    args,
                    for_each,
                })
            }
            Tok::Ident(name) => {
                // Box instantiation: Name(arg) or Name<anchor>(arg).
                let anchor = match self.peek() {
                    Tok::Spec(_) => Some(Name::new(self.expect_spec()?)),
                    _ => None,
                };
                self.expect_punct("(")?;
                let arg = self.rvalue()?;
                self.expect_punct(")")?;
                Ok(RValue::Instantiate {
                    box_type: name,
                    anchor,
                    arg: Box::new(arg),
                })
            }
            _ => unreachable!("checked above"),
        }
    }

    fn opt_for_each(&mut self) -> Result<Option<ForEach>> {
        if !(matches!(self.peek(), Tok::Punct("."))
            && matches!(self.peek2(), Tok::Ident(i) if i == "forEach"))
        {
            return Ok(None);
        }
        self.advance();
        self.advance();
        self.expect_punct("|")?;
        let param = self.expect_ident()?;
        self.expect_punct("|")?;
        self.expect_punct("{")?;
        let mut wheres = Vec::new();
        loop {
            match self.peek() {
                Tok::Ident(i) if i == "yield" => break,
                Tok::Ident(_) => {
                    let name = self.expect_ident()?;
                    self.expect_punct("=")?;
                    wheres.push((name, self.rvalue()?));
                }
                t => return Err(self.err(format!("expected binding or `yield`, got {t:?}"))),
            }
        }
        self.expect_kw("yield")?;
        let yield_expr = self.rvalue()?;
        self.expect_punct("}")?;
        Ok(Some(ForEach {
            param,
            wheres,
            yield_expr,
        }))
    }

    fn switch_expr(&mut self) -> Result<RValue> {
        let scrutinee = self.rvalue()?;
        self.expect_punct("{")?;
        let mut cases = Vec::new();
        let mut otherwise = None;
        loop {
            if self.eat_punct("}") {
                break;
            }
            if self.eat_kw("case") {
                let mut guards = vec![self.rvalue()?];
                while self.eat_punct(",") {
                    guards.push(self.rvalue()?);
                }
                self.expect_punct(":")?;
                let result = self.rvalue()?;
                cases.push((guards, result));
            } else if self.eat_kw("otherwise") {
                self.expect_punct(":")?;
                otherwise = Some(Box::new(self.rvalue()?));
            } else {
                return Err(self.err(format!(
                    "expected `case`, `otherwise` or `}}`, got {:?}",
                    self.peek()
                )));
            }
        }
        Ok(RValue::Switch {
            scrutinee: Box::new(scrutinee),
            cases,
            otherwise,
        })
    }
}

/// Parse a full ViewCL program.
pub fn parse_program(src: &str) -> Result<Program> {
    P::new(src).program()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_intro_listing() {
        let src = r#"
// Declare a Box for a task_struct object
define Task as Box<task_struct> [
    Text pid, comm
    Text ppid: parent.pid
    Text<string> state: ${task_state(@this)}
    Text se.vruntime
]
root = ${cpu_rq(0)->cfs.tasks_timeline}
sched_tree = RBTree(@root).forEach |node| {
    yield Task<task_struct.se.run_node>(@node)
}
plot @sched_tree
"#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.defines.len(), 1);
        let d = &p.defines[0];
        assert_eq!(&*d.name, "Task");
        assert_eq!(d.ctype, "task_struct");
        assert_eq!(d.views.len(), 1);
        assert_eq!(d.views[0].items.len(), 4);
        match &d.views[0].items[0] {
            ItemDef::Text { decor, specs } => {
                assert!(decor.is_none());
                assert_eq!(specs.len(), 2);
                assert_eq!(&*specs[0].name, "pid");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.stmts.len(), 3);
        match &p.stmts[1] {
            Stmt::Assign(
                name,
                RValue::Ctor {
                    kind,
                    args,
                    for_each,
                },
            ) => {
                assert_eq!(name, "sched_tree");
                assert_eq!(*kind, CtorKind::RBTree);
                assert_eq!(args.len(), 1);
                let fe = for_each.as_ref().unwrap();
                assert_eq!(fe.param, "node");
                match &fe.yield_expr {
                    RValue::Instantiate {
                        box_type, anchor, ..
                    } => {
                        assert_eq!(box_type, "Task");
                        assert_eq!(anchor.as_deref(), Some("task_struct.se.run_node"));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.stmts[2], Stmt::Plot("sched_tree".into()));
    }

    #[test]
    fn parses_view_inheritance() {
        let src = r#"
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
"#;
        let p = parse_program(src).unwrap();
        let d = &p.defines[0];
        assert_eq!(d.views.len(), 3);
        assert_eq!(d.views[1].parent.as_deref(), Some("default"));
        assert_eq!(&*d.views[2].name, "sched_rq");
        assert_eq!(d.views[2].wheres.len(), 1);
    }

    #[test]
    fn parses_switch_and_anon_box() {
        let src = r#"
slots = Array(@node.mr64.slot).forEach |item| {
    slot = switch ${ma_slot_check(@item)} {
        case ${true}:
            VMArea(@item)
        case ${false}: NULL
        otherwise: NULL
    }
    yield Box [
        Link slot -> @slot
    ]
}
"#;
        let p = parse_program(src).unwrap();
        match &p.stmts[0] {
            Stmt::Assign(
                _,
                RValue::Ctor {
                    kind: CtorKind::Array,
                    for_each,
                    ..
                },
            ) => {
                let fe = for_each.as_ref().unwrap();
                assert_eq!(fe.wheres.len(), 1);
                assert!(matches!(fe.wheres[0].1, RValue::Switch { .. }));
                assert!(matches!(fe.yield_expr, RValue::AnonBox { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_select_from() {
        let src = "mm_as = Array.selectFrom(@mm_mt, VMArea)";
        let p = parse_program(src).unwrap();
        assert!(matches!(
            &p.stmts[0],
            Stmt::Assign(_, RValue::SelectFrom { box_type, .. }) if box_type == "VMArea"
        ));
    }

    /// `x = switch ${1} { case ${1}: switch … }`, `n` switches deep.
    fn nested_switches(n: usize) -> String {
        format!(
            "x = {}${{1}}{}\nplot @x",
            "switch ${1} { case ${1}: ".repeat(n),
            " }".repeat(n)
        )
    }

    #[test]
    fn nesting_past_the_limit_is_a_positioned_error() {
        // The assigned value is level 1, so 127 switches (128 values
        // deep, the innermost `${1}` included) parse and 128 do not.
        assert!(parse_program(&nested_switches(127)).is_ok());
        let src = nested_switches(2_000);
        match parse_program(&src).unwrap_err() {
            VclError::Parse { line, pos, msg } => {
                assert_eq!(line, 1);
                // The 128th switch's scrutinee opens level 129.
                let level = "switch ${1} { case ${1}: ".len();
                assert_eq!(pos, "x = ".len() + 127 * level + "switch ".len());
                assert_eq!(msg, "nesting deeper than 128 levels");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_quoting_a_huge_token_stay_short() {
        let src = format!("plot ${{{}}}", "1".repeat(2 << 20));
        match parse_program(&src).unwrap_err() {
            VclError::Parse { msg, .. } => {
                assert!(msg.starts_with("plot expects `@name`, got CExpr(\"111"));
                assert_eq!(msg.len(), MAX_MSG_BYTES + '…'.len_utf8());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn c_expressions_parse_with_the_program_and_keep_their_errors() {
        let p = parse_program("a = ${1 +}\nb = @a.x[)]\nc = 7\nplot @c").unwrap();
        match &p.stmts[0] {
            Stmt::Assign(_, RValue::CExpr(e)) => {
                assert_eq!(e.src, "1 +");
                assert!(e.parsed.is_err(), "kept for evaluation time");
            }
            other => panic!("unexpected {other:?}"),
        }
        match &p.stmts[1] {
            Stmt::Assign(
                _,
                RValue::Ref {
                    path,
                    nav: Some(nav),
                },
            ) => {
                assert_eq!(path, "a.x[)]");
                assert_eq!(nav.src, "@a.x[)]");
                assert!(nav.parsed.is_err());
            }
            other => panic!("unexpected {other:?}"),
        }
        match &p.stmts[2] {
            Stmt::Assign(_, RValue::CExpr(e)) => {
                assert_eq!(e.parsed, Ok(vbridge::eval::Expr::Num(7)))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_reports_line() {
        let err = parse_program("a = @b\nplot plot").unwrap_err();
        match err {
            VclError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }
}
