//! The C expression evaluator behind `${...}`.
//!
//! ViewCL embeds C expressions for everything the DSL itself does not
//! cover: reading globals (`cpu_rq(0)->cfs.tasks_timeline`), calling
//! helpers (`mte_to_node(@this)`), unpacking compact data
//! (`(entry >> 3) & 0xf`). The evaluator implements the useful subset of
//! GDB's expression language:
//!
//! * member access `.` / `->` (lenient: `.` auto-derefs pointers, like the
//!   convenience debuggers extend over strict C),
//! * array indexing, address-of, dereference, casts, `sizeof`,
//! * full arithmetic / bitwise / comparison / logical operator ladder with
//!   C precedence, and the ternary conditional,
//! * calls into registered helpers plus the `container_of` builtin,
//! * `@name` escapes resolved through a caller-supplied lookup (the
//!   ViewCL interpreter's local scope).
//!
//! Names are bound once. Every node that names something keeps a
//! [`Name`] that caches what the name resolved to: an identifier its
//! constant or symbol value, a cast or `sizeof` its type, `container_of`
//! its offset and pointer type, and a member access its receiver type
//! with the field's offset, type and bitfield. A cached binding is used
//! only under the type registry and symbol table stamps it was made
//! under, and a member binding only for the receiver type it was made
//! for, so a program that outlives a mutation, or runs against another
//! image, resolves again. A name that does not resolve is not cached: it
//! raises the same error each time its node is evaluated, and never when
//! it is not.

use std::collections::HashMap;

use ktypes::{BitField, CValue, Name, TypeId, TypeKind};

use crate::error::PARSE_ECHO_BYTES;
use crate::helpers::HelperRegistry;
use crate::target::Target;
use crate::{BridgeError, Result};

// ---------------------------------------------------------------- lexer --

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    AtIdent(String),
    Num(i64),
    Str(String),
    Punct(&'static str),
    Eof,
    /// Where `src` stops being an expression, and why.
    Bad(Box<BridgeError>),
}

impl Tok {
    /// Whether no token follows this one.
    fn is_last(&self) -> bool {
        matches!(self, Tok::Eof | Tok::Bad(_))
    }
}

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Reads the tokens of `src` one at a time, as the parser asks for
/// them, so a malformed expression stops at its first bad token.
struct Lexer<'s> {
    src: &'s str,
    /// Byte offset of the next unread character.
    i: usize,
}

impl Lexer<'_> {
    /// The next token and the byte offset it starts at: [`Tok::Eof`] at
    /// the end, or [`Tok::Bad`] where `src` stops being an expression.
    fn next_tok(&mut self) -> (Tok, usize) {
        let src = self.src;
        let b = src.as_bytes();
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = b.get(self.i) {
            self.i += 1;
        }
        let at = self.i;
        let bad = |msg: &str| (Tok::Bad(Box::new(parse_error(src, at, msg))), at);
        let Some(&first) = b.get(at) else {
            return (Tok::Eof, src.len());
        };
        let word_end = |from: usize| {
            b[from..]
                .iter()
                .position(|&w| !is_word(w))
                .map_or(b.len(), |n| from + n)
        };
        let (tok, end) = match first {
            b'0'..=b'9' => {
                let hex = first == b'0' && matches!(b.get(at + 1), Some(b'x' | b'X'));
                let digits = if hex { at + 2 } else { at };
                let end = b[digits..]
                    .iter()
                    .position(|&d| {
                        !(if hex {
                            d.is_ascii_hexdigit()
                        } else {
                            d.is_ascii_digit()
                        })
                    })
                    .map_or(b.len(), |n| digits + n);
                let v = if hex {
                    u64::from_str_radix(&src[digits..end], 16)
                } else {
                    src[digits..end].parse()
                };
                let Ok(v) = v else {
                    return bad(if hex {
                        "bad hex literal"
                    } else {
                        "bad literal"
                    });
                };
                // Swallow C integer suffixes (UL, ULL, …).
                let suffix = b[end..]
                    .iter()
                    .position(|&c| !matches!(c, b'u' | b'U' | b'l' | b'L'))
                    .map_or(b.len(), |n| end + n);
                (Tok::Num(v as i64), suffix)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let end = word_end(at);
                (Tok::Ident(src[at..end].to_string()), end)
            }
            b'@' => {
                let end = word_end(at + 1);
                if end == at + 1 {
                    return bad("dangling `@`");
                }
                (Tok::AtIdent(src[at + 1..end].to_string()), end)
            }
            b'"' => match b[at + 1..].iter().position(|&c| c == b'"') {
                Some(n) => (Tok::Str(src[at + 1..at + 1 + n].to_string()), at + n + 2),
                None => return bad("unterminated string"),
            },
            _ => {
                const PUNCT: [&str; 29] = [
                    "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+", "-", "*", "/", "%",
                    "&", "|", "^", "~", "!", "(", ")", "[", "]", ".", ",", "?", ":", "<", ">",
                ];
                match PUNCT.iter().find(|p| src[at..].starts_with(*p)) {
                    Some(p) => (Tok::Punct(p), at + p.len()),
                    None => {
                        let c = src[at..].chars().next().expect("`at` is below the length");
                        return bad(&format!("unexpected character `{c}`"));
                    }
                }
            }
        };
        self.i = end;
        (tok, at)
    }
}

/// A [`BridgeError::Parse`] for `src`, positioned at byte `at`, keeping
/// only what its message echoes.
fn parse_error(src: &str, at: usize, msg: &str) -> BridgeError {
    BridgeError::Parse {
        expr: src[..src.ceil_char_boundary(PARSE_ECHO_BYTES + 1)].to_string(),
        at,
        msg: msg.to_string(),
    }
}

// --------------------------------------------------------------- parser --

/// A member binding: the receiver type it was made for, and the
/// field's offset, type and bitfield.
type FieldBinding = (TypeId, u64, TypeId, Option<BitField>);

/// Expression AST. Each [`Name`] caches its binding (see the module
/// docs); the caches do not show in `Debug`, `Clone` or `==`.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Num(i64),
    /// String literal (helper arguments only).
    Str(String),
    /// Plain identifier (symbol / constant / helper name).
    Ident(Name<CValue>),
    /// `@name` environment reference.
    AtRef(String),
    /// `base.field` / `base->field`.
    Member {
        /// Receiver expression.
        base: Box<Expr>,
        /// Member name.
        field: Name<FieldBinding>,
        /// True when written with `->`.
        arrow: bool,
    },
    /// `base[index]`.
    Index(Box<Expr>, Box<Expr>),
    /// Function call; `container_of` binds its offset and pointer type.
    Call(Name<(u64, TypeId)>, Vec<Expr>),
    /// Unary operator application.
    Unary(&'static str, Box<Expr>),
    /// Binary operator application.
    Binary(&'static str, Box<Expr>, Box<Expr>),
    /// Conditional `c ? a : b`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `(type)expr` cast.
    Cast(Name<TypeId>, Box<Expr>),
    /// `sizeof(type)` / `sizeof(expr)` (type form resolved at eval).
    SizeofType(Name<TypeId>),
    /// `sizeof expr`.
    SizeofExpr(Box<Expr>),
}

/// Deepest expression tree the parser builds, the JSON codec's limit.
/// Evaluating and dropping a tree recurse once per level, so a hostile
/// `${…}` must end in a parse error long before the thread's stack
/// does. Chains of binary operators and postfix accesses count one
/// level per link, since each link wraps the tree built so far.
const MAX_DEPTH: usize = 128;

struct Parser<'s> {
    lexer: Lexer<'s>,
    /// The tokens read so far, through the cursor: casts and type names
    /// step back over them.
    toks: Vec<(Tok, usize)>,
    pos: usize,
    src: &'s str,
    /// Levels of the tree under construction above the cursor.
    depth: usize,
}

impl<'s> Parser<'s> {
    /// A parse error at the cursor, or the lexer's, if the cursor is
    /// where lexing failed.
    fn err(&self, msg: impl Into<String>) -> BridgeError {
        match self.peek() {
            Tok::Bad(e) => (**e).clone(),
            _ => parse_error(self.src, self.toks[self.pos].1, &msg.into()),
        }
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    /// Step to the next token, lexing it if it is new; the last token is
    /// never left.
    fn advance(&mut self) {
        if self.peek().is_last() {
            return;
        }
        self.pos += 1;
        if self.pos == self.toks.len() {
            let t = self.lexer.next_tok();
            self.toks.push(t);
        }
    }

    fn next(&mut self) -> Tok {
        let t = self.peek().clone();
        self.advance();
        t
    }

    /// Enter one more level of the tree, or fail at the cursor once
    /// [`MAX_DEPTH`] levels are open. Callers restore `depth` when the
    /// level is built; a failed parse is discarded whole.
    fn descend(&mut self) -> Result<()> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn eat(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, p: &str) -> Result<()> {
        if self.eat(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{p}`, found {:?}", self.peek())))
        }
    }

    /// Try to parse a C type name starting at the cursor; returns the name
    /// string (e.g. `"struct task_struct *"`). Only commits on success.
    fn try_type_name(&mut self) -> Option<String> {
        let start = self.pos;
        let mut words: Vec<String> = Vec::new();
        while let Tok::Ident(w) = self.peek() {
            let keep = matches!(
                w.as_str(),
                "struct" | "union" | "enum" | "unsigned" | "signed" | "const" | "long" | "short"
            ) || words
                .last()
                .is_some_and(|l| matches!(l.as_str(), "struct" | "union" | "enum"))
                || words.is_empty();
            if !keep {
                break;
            }
            words.push(w.clone());
            self.advance();
            // A bare single identifier could be a value, not a type; only
            // continue greedily for multi-word forms.
            if !matches!(
                words[0].as_str(),
                "struct" | "union" | "enum" | "unsigned" | "signed" | "const" | "long" | "short"
            ) {
                break;
            }
        }
        if words.is_empty() {
            self.pos = start;
            return None;
        }
        let mut name = words.join(" ");
        let mut stars = 0;
        while self.eat("*") {
            stars += 1;
        }
        for _ in 0..stars {
            name.push_str(" *");
        }
        Some(name)
    }

    fn parse_expr(&mut self) -> Result<Expr> {
        let mark = self.depth;
        self.descend()?;
        let e = self.parse_ternary()?;
        self.depth = mark;
        Ok(e)
    }

    fn parse_ternary(&mut self) -> Result<Expr> {
        let c = self.parse_bin(0)?;
        if self.eat("?") {
            let a = self.parse_expr()?;
            self.expect(":")?;
            let b = self.parse_expr()?;
            return Ok(Expr::Ternary(Box::new(c), Box::new(a), Box::new(b)));
        }
        Ok(c)
    }

    fn bin_op(&self, min_prec: u8) -> Option<(&'static str, u8)> {
        let op = match self.peek() {
            Tok::Punct(p) => *p,
            _ => return None,
        };
        let prec = match op {
            "||" => 1,
            "&&" => 2,
            "|" => 3,
            "^" => 4,
            "&" => 5,
            "==" | "!=" => 6,
            "<" | ">" | "<=" | ">=" => 7,
            "<<" | ">>" => 8,
            "+" | "-" => 9,
            "*" | "/" | "%" => 10,
            _ => return None,
        };
        if prec < min_prec {
            None
        } else {
            Some((op, prec))
        }
    }

    fn parse_bin(&mut self, min_prec: u8) -> Result<Expr> {
        let mark = self.depth;
        let mut lhs = self.parse_unary()?;
        while let Some((op, prec)) = self.bin_op(min_prec) {
            self.descend()?;
            self.advance();
            let rhs = self.parse_bin(prec + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = mark;
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        let mark = self.depth;
        let e = self.parse_unary_at_depth()?;
        self.depth = mark;
        Ok(e)
    }

    fn parse_unary_at_depth(&mut self) -> Result<Expr> {
        if let Tok::Ident(w) = self.peek() {
            if w == "sizeof" {
                self.descend()?;
                self.advance();
                if self.eat("(") {
                    if let Some(tn) = self.try_type_name() {
                        if self.eat(")") {
                            return Ok(Expr::SizeofType(Name::new(tn)));
                        }
                        return Err(self.err("expected `)` after sizeof type"));
                    }
                    let e = self.parse_expr()?;
                    self.expect(")")?;
                    return Ok(Expr::SizeofExpr(Box::new(e)));
                }
                let e = self.parse_unary()?;
                return Ok(Expr::SizeofExpr(Box::new(e)));
            }
        }
        for op in ["!", "~", "-", "+", "*", "&"] {
            if matches!(self.peek(), Tok::Punct(p) if *p == op) {
                self.descend()?;
                self.advance();
                let e = self.parse_unary()?;
                return Ok(if op == "+" {
                    e
                } else {
                    Expr::Unary(op, Box::new(e))
                });
            }
        }
        // Cast: `(` typename `)` unary — with backtracking.
        if matches!(self.peek(), Tok::Punct("(")) {
            let save = self.pos;
            self.advance();
            if let Some(tn) = self.try_type_name() {
                if self.eat(")") {
                    // Heuristic: a parenthesized single identifier followed
                    // by an operator/eof is grouping, not a cast.
                    let is_multiword = tn.contains(' ') || tn.contains('*');
                    let next_starts_operand = matches!(
                        self.peek(),
                        Tok::Ident(_) | Tok::AtIdent(_) | Tok::Num(_) | Tok::Punct("(")
                    ) || matches!(self.peek(), Tok::Punct(p) if ["*", "&", "-", "~", "!"].contains(p));
                    if is_multiword || next_starts_operand {
                        self.descend()?;
                        let e = self.parse_unary()?;
                        return Ok(Expr::Cast(Name::new(tn), Box::new(e)));
                    }
                }
            }
            self.pos = save;
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr> {
        let mut e = self.parse_primary()?;
        loop {
            if matches!(self.peek(), Tok::Punct("." | "->" | "[" | "(")) {
                self.descend()?;
            }
            let arrow = if self.eat(".") {
                Some(false)
            } else if self.eat("->") {
                Some(true)
            } else {
                None
            };
            if let Some(arrow) = arrow {
                let field = match self.peek() {
                    Tok::Ident(f) => Name::new(f.as_str()),
                    t => return Err(self.err(format!("expected field name, got {t:?}"))),
                };
                self.advance();
                e = Expr::Member {
                    base: Box::new(e),
                    field,
                    arrow,
                };
            } else if self.eat("[") {
                let idx = self.parse_expr()?;
                self.expect("]")?;
                e = Expr::Index(Box::new(e), Box::new(idx));
            } else if matches!(self.peek(), Tok::Punct("(")) {
                if let Expr::Ident(name) = &e {
                    let name = Name::new(name.text().clone());
                    self.advance();
                    let mut args = Vec::new();
                    if !self.eat(")") {
                        loop {
                            args.push(self.parse_expr()?);
                            if self.eat(")") {
                                break;
                            }
                            self.expect(",")?;
                        }
                    }
                    e = Expr::Call(name, args);
                } else {
                    return Err(self.err("only named helpers are callable"));
                }
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let at = self.toks[self.pos].1;
        match self.next() {
            Tok::Num(n) => Ok(Expr::Num(n)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::Ident(n) => {
                // `struct foo` appears as an argument of container_of;
                // fold the tag keyword into one identifier.
                if matches!(n.as_str(), "struct" | "union" | "enum") {
                    if let Tok::Ident(tag) = self.peek().clone() {
                        self.advance();
                        return Ok(Expr::Ident(Name::new(format!("{n} {tag}"))));
                    }
                }
                Ok(Expr::Ident(Name::new(n)))
            }
            Tok::AtIdent(n) => Ok(Expr::AtRef(n)),
            Tok::Punct("(") => {
                let e = self.parse_expr()?;
                self.expect(")")?;
                Ok(e)
            }
            Tok::Bad(e) => Err(*e),
            t => Err(parse_error(
                self.src,
                at,
                &format!("unexpected token {t:?}"),
            )),
        }
    }
}

/// Parse a C expression into an AST.
pub fn parse(src: &str) -> Result<Expr> {
    let mut lexer = Lexer { src, i: 0 };
    let mut p = Parser {
        toks: vec![lexer.next_tok()],
        lexer,
        pos: 0,
        src,
        depth: 0,
    };
    let e = p.parse_expr()?;
    if !matches!(p.peek(), Tok::Eof) {
        return Err(p.err(format!("trailing tokens at {:?}", p.peek())));
    }
    Ok(e)
}

// ------------------------------------------------------------ evaluator --

/// Evaluates parsed C expressions against a [`Target`].
pub struct Evaluator<'t, 'img> {
    /// The debug target.
    pub target: &'t Target<'img>,
    /// Registered helper functions.
    pub helpers: &'t HelperRegistry,
}

impl<'t, 'img> Evaluator<'t, 'img> {
    /// Create an evaluator.
    pub fn new(target: &'t Target<'img>, helpers: &'t HelperRegistry) -> Self {
        Evaluator { target, helpers }
    }

    /// Parse and evaluate `src` with an empty environment.
    pub fn eval_str(&self, src: &str) -> Result<CValue> {
        self.eval_str_with(src, &HashMap::new())
    }

    /// Parse and evaluate `src`; `@name` references resolve from `env`.
    pub fn eval_str_with(&self, src: &str, env: &HashMap<String, CValue>) -> Result<CValue> {
        let ast = parse(src)?;
        self.eval(&ast, &|name| env.get(name).cloned())
    }

    /// Evaluate a parsed expression; `env` resolves each `@name` it
    /// reaches (`None` for an unbound name).
    pub fn eval(&self, e: &Expr, env: &dyn Fn(&str) -> Option<CValue>) -> Result<CValue> {
        match e {
            Expr::Num(n) => Ok(self.int(*n)),
            Expr::Str(s) => Ok(CValue::Str(s.clone())),
            Expr::AtRef(name) => {
                env(name).ok_or_else(|| BridgeError::UnknownIdent(format!("@{name}")))
            }
            Expr::Ident(name) => self.bound(name, || self.resolve_ident(name)),
            Expr::Member { base, field, arrow } => {
                let b = self.eval(base, env)?;
                self.member(b, field, *arrow)
            }
            Expr::Index(base, idx) => {
                let b = self.eval(base, env)?;
                let i = self
                    .eval(idx, env)?
                    .as_int()
                    .ok_or_else(|| BridgeError::Eval("index must be integer".into()))?;
                self.index(b, i)
            }
            Expr::Call(name, args) => self.call(name, args, env),
            Expr::Unary(op, a) => self.unary(op, a, env),
            Expr::Binary(op, a, b) => self.binary(op, a, b, env),
            Expr::Ternary(c, a, b) => {
                if self.rvalue(self.eval(c, env)?)?.is_truthy() {
                    self.eval(a, env)
                } else {
                    self.eval(b, env)
                }
            }
            Expr::Cast(tyname, a) => {
                let v = self.eval(a, env)?;
                let ty = self.bound(tyname, || self.find_type(tyname))?;
                self.cast(ty, v)
            }
            Expr::SizeofType(tyname) => {
                let ty = self.bound(tyname, || self.find_type(tyname))?;
                Ok(self.int(self.target.types.size_of(ty) as i64))
            }
            Expr::SizeofExpr(a) => {
                let v = self.eval(a, env)?;
                let ty = v
                    .type_id()
                    .ok_or_else(|| BridgeError::Eval("sizeof of untyped value".into()))?;
                Ok(self.int(self.target.types.size_of(ty) as i64))
            }
        }
    }

    /// C lvalue-to-rvalue conversion: a *scalar* lvalue (int, enum,
    /// pointer variable) loads its value; aggregates stay as lvalues.
    /// This is what lets `current_task->mm` work when `current_task` is a
    /// global *pointer variable*, exactly like GDB.
    pub fn rvalue(&self, v: CValue) -> Result<CValue> {
        match v {
            CValue::LValue { addr, ty } => match &self.target.types.get(ty).kind {
                TypeKind::Prim(_) | TypeKind::Enum(_) | TypeKind::Pointer(_) => {
                    self.target.load(addr, ty)
                }
                _ => Ok(CValue::LValue { addr, ty }),
            },
            other => Ok(other),
        }
    }

    fn int(&self, v: i64) -> CValue {
        let ty = self
            .target
            .types
            .long()
            .expect("long interned by CommonTypes");
        CValue::Int { value: v, ty }
    }

    /// What `name` resolves to under the target's current type registry
    /// and symbol table (see [`Name::get_or_resolve`]).
    fn bound<T: Clone>(&self, name: &Name<T>, resolve: impl FnOnce() -> Result<T>) -> Result<T> {
        let (types, symbols) = (self.target.types.stamp(), self.target.symbols.stamp());
        name.get_or_resolve(types, symbols, resolve)
    }

    fn find_type(&self, name: &str) -> Result<TypeId> {
        let base = name.trim_end_matches([' ', '*']);
        let stars = name.matches('*').count();
        let mut ty = self
            .target
            .types
            .find(base)
            .ok_or_else(|| BridgeError::Type(ktypes::TypeError::UnknownType(base.into())))?;
        for _ in 0..stars {
            ty = self.target.types.find_pointer_to(ty).ok_or_else(|| {
                BridgeError::Eval(format!("pointer type for `{base}` not interned"))
            })?;
        }
        Ok(ty)
    }

    fn resolve_ident(&self, name: &str) -> Result<CValue> {
        if let Ok(c) = self.target.types.lookup_const(name) {
            let ty =
                c.ty.unwrap_or_else(|| self.target.types.long().expect("long interned"));
            return Ok(CValue::Int { value: c.value, ty });
        }
        self.target.symbol_value(name)
    }

    fn member(&self, base: CValue, field: &Name<FieldBinding>, _arrow: bool) -> Result<CValue> {
        // Lenient auto-deref: both `.` and `->` accept pointers and lvalues.
        let base = self.rvalue(base)?;
        let (addr, ty) = match base {
            CValue::Ptr { addr, ty } => {
                if addr == 0 {
                    return Err(BridgeError::Eval(format!(
                        "NULL pointer dereference accessing `.{field}`"
                    )));
                }
                (addr, self.target.types.pointee(ty)?)
            }
            CValue::LValue { addr, ty } => (addr, ty),
            other => {
                return Err(BridgeError::Eval(format!(
                    "member access `.{field}` on non-object {other:?}"
                )))
            }
        };
        let (types, symbols) = (self.target.types.stamp(), self.target.symbols.stamp());
        let (offset, fty, bit) = match field.bound(types, symbols) {
            Some((recv, offset, fty, bit)) if recv == ty => (offset, fty, bit),
            _ => {
                let def = self.target.types.struct_def(ty).ok_or_else(|| {
                    BridgeError::Type(ktypes::TypeError::NotAggregate(
                        self.target.types.display_name(ty),
                    ))
                })?;
                let f = def.field(field).ok_or_else(|| {
                    BridgeError::Type(ktypes::TypeError::UnknownField {
                        ty: def.name.clone(),
                        field: field.to_string(),
                    })
                })?;
                field.bind(types, symbols, (ty, f.offset, f.ty, f.bit));
                (f.offset, f.ty, f.bit)
            }
        };
        // The object's address comes from the program or from memory.
        let at = addr.checked_add(offset).ok_or_else(|| {
            BridgeError::Eval(format!(
                "member `.{field}`: address {addr:#x} + {offset:#x} overflows"
            ))
        })?;
        match bit {
            Some(bf) => {
                let storage = self.target.read_uint(at, bf.storage_size as usize)?;
                Ok(CValue::Int {
                    value: bf.extract(storage),
                    ty: fty,
                })
            }
            None => self.target.load(at, fty),
        }
    }

    fn index(&self, base: CValue, i: i64) -> Result<CValue> {
        let base = match &base {
            CValue::LValue { ty, .. }
                if matches!(self.target.types.get(*ty).kind, TypeKind::Pointer(_)) =>
            {
                self.rvalue(base)?
            }
            _ => base,
        };
        match base {
            CValue::LValue { addr, ty } => match &self.target.types.get(ty).kind {
                TypeKind::Array { elem, len } => {
                    if i < 0 || i as u64 >= *len {
                        return Err(BridgeError::Type(ktypes::TypeError::IndexOutOfRange {
                            len: *len as usize,
                            index: i as usize,
                        }));
                    }
                    let esz = self.target.types.size_of(*elem);
                    let at = esz
                        .checked_mul(i as u64)
                        .and_then(|off| addr.checked_add(off))
                        .ok_or_else(|| {
                            BridgeError::Eval(format!(
                                "index [{i}]: address {addr:#x} + {i} * {esz:#x} overflows"
                            ))
                        })?;
                    self.target.load(at, *elem)
                }
                _ => Err(BridgeError::Eval("indexing a non-array lvalue".into())),
            },
            CValue::Ptr { addr, ty } => {
                let elem = self.target.types.pointee(ty)?;
                let esz = self.target.types.size_of(elem).max(1);
                self.target
                    .load(addr.wrapping_add(esz.wrapping_mul(i as u64)), elem)
            }
            other => Err(BridgeError::Eval(format!("indexing non-pointer {other:?}"))),
        }
    }

    fn call(
        &self,
        name: &Name<(u64, TypeId)>,
        args: &[Expr],
        env: &dyn Fn(&str) -> Option<CValue>,
    ) -> Result<CValue> {
        if *name == "container_of" {
            // container_of(ptr, type, member)
            if args.len() != 3 {
                return Err(BridgeError::Eval("container_of takes 3 arguments".into()));
            }
            let ptr = self.eval(&args[0], env)?;
            let addr = ptr
                .address()
                .or_else(|| ptr.as_u64())
                .ok_or_else(|| BridgeError::Eval("container_of needs a pointer".into()))?;
            let (off, pty) = self.bound(name, || {
                let tyname = expr_to_typename(&args[1])?;
                let member = expr_to_path(&args[2])?;
                let ty = self.find_type(&tyname)?;
                let (off, _) = self.target.types.field_path(ty, &member)?;
                let pty = self
                    .target
                    .types
                    .find_pointer_to(ty)
                    .ok_or_else(|| BridgeError::Eval("pointer type not interned".into()))?;
                Ok((off, pty))
            })?;
            return Ok(CValue::Ptr {
                addr: addr.wrapping_sub(off),
                ty: pty,
            });
        }
        let helper = self
            .helpers
            .get(name)
            .ok_or_else(|| BridgeError::UnknownHelper(name.to_string()))?
            .clone();
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            let v = self.eval(a, env)?;
            // Scalar lvalues convert to values; struct lvalues pass as
            // object references (helpers take addresses).
            let v = match &v {
                CValue::LValue { ty, .. }
                    if matches!(
                        self.target.types.get(*ty).kind,
                        TypeKind::Prim(_) | TypeKind::Enum(_) | TypeKind::Pointer(_)
                    ) =>
                {
                    self.rvalue(v)?
                }
                _ => v,
            };
            vals.push(v);
        }
        helper(self.target, &vals)
    }

    fn unary(&self, op: &str, a: &Expr, env: &dyn Fn(&str) -> Option<CValue>) -> Result<CValue> {
        if op == "&" {
            let v = self.eval(a, env)?;
            return match v {
                CValue::LValue { addr, ty } => {
                    let pty = self
                        .target
                        .types
                        .find_pointer_to(ty)
                        .ok_or_else(|| BridgeError::Eval("pointer type not interned".into()))?;
                    Ok(CValue::Ptr { addr, ty: pty })
                }
                CValue::Ptr { .. } => Ok(v),
                other => Err(BridgeError::Eval(format!(
                    "cannot take address of {other:?}"
                ))),
            };
        }
        if op == "*" {
            let v = self.eval(a, env)?;
            return match v {
                CValue::Ptr { addr, ty } => {
                    let pointee = self.target.types.pointee(ty)?;
                    self.target.load(addr, pointee)
                }
                CValue::LValue { .. } => Ok(v),
                other => Err(BridgeError::Eval(format!("cannot dereference {other:?}"))),
            };
        }
        let v = self.rvalue(self.eval(a, env)?)?;
        let v = v
            .as_int()
            .ok_or_else(|| BridgeError::Eval(format!("unary `{op}` on non-integer")))?;
        Ok(self.int(match op {
            "-" => v.wrapping_neg(),
            "~" => !v,
            "!" => (v == 0) as i64,
            _ => return Err(BridgeError::Eval(format!("unknown unary `{op}`"))),
        }))
    }

    fn binary(
        &self,
        op: &str,
        a: &Expr,
        b: &Expr,
        env: &dyn Fn(&str) -> Option<CValue>,
    ) -> Result<CValue> {
        // Short-circuit logicals first.
        if op == "&&" {
            let l = self.rvalue(self.eval(a, env)?)?;
            if !l.is_truthy() {
                return Ok(self.int(0));
            }
            let r = self.rvalue(self.eval(b, env)?)?;
            return Ok(self.int(r.is_truthy() as i64));
        }
        if op == "||" {
            let l = self.rvalue(self.eval(a, env)?)?;
            if l.is_truthy() {
                return Ok(self.int(1));
            }
            let r = self.rvalue(self.eval(b, env)?)?;
            return Ok(self.int(r.is_truthy() as i64));
        }
        let l = self.rvalue(self.eval(a, env)?)?;
        let r = self.rvalue(self.eval(b, env)?)?;

        // Pointer arithmetic: Ptr ± Int scales by pointee size (like GDB).
        if matches!(op, "+" | "-") {
            if let CValue::Ptr { addr, ty } = l {
                if let Some(n) = r.as_int() {
                    if !matches!(r, CValue::Ptr { .. }) {
                        let esz = self
                            .target
                            .types
                            .pointee(ty)
                            .map(|p| self.target.types.size_of(p))
                            .unwrap_or(1)
                            .max(1);
                        let delta = esz.wrapping_mul(n.unsigned_abs());
                        let addr = if (op == "+") == (n >= 0) {
                            addr.wrapping_add(delta)
                        } else {
                            addr.wrapping_sub(delta)
                        };
                        return Ok(CValue::Ptr { addr, ty });
                    }
                }
            }
        }

        let (lv, rv) = match (l.as_int(), r.as_int()) {
            (Some(x), Some(y)) => (x, y),
            _ => {
                // String equality for decorated comparisons.
                if let (CValue::Str(x), CValue::Str(y)) = (&l, &r) {
                    let eq = x == y;
                    return Ok(self.int(match op {
                        "==" => eq as i64,
                        "!=" => !eq as i64,
                        _ => return Err(BridgeError::Eval(format!("operator `{op}` on strings"))),
                    }));
                }
                return Err(BridgeError::Eval(format!(
                    "operator `{op}` on non-integers"
                )));
            }
        };
        let out = match op {
            "+" => lv.wrapping_add(rv),
            "-" => lv.wrapping_sub(rv),
            "*" => lv.wrapping_mul(rv),
            "/" => {
                if rv == 0 {
                    return Err(BridgeError::Eval("division by zero".into()));
                }
                lv.wrapping_div(rv)
            }
            "%" => {
                if rv == 0 {
                    return Err(BridgeError::Eval("modulo by zero".into()));
                }
                lv.wrapping_rem(rv)
            }
            "&" => lv & rv,
            "|" => lv | rv,
            "^" => lv ^ rv,
            "<<" => ((lv as u64) << (rv as u32 & 63)) as i64,
            ">>" => ((lv as u64) >> (rv as u32 & 63)) as i64,
            "==" => (lv == rv) as i64,
            "!=" => (lv != rv) as i64,
            "<" => ((lv as u64) < (rv as u64)) as i64,
            ">" => ((lv as u64) > (rv as u64)) as i64,
            "<=" => ((lv as u64) <= (rv as u64)) as i64,
            ">=" => ((lv as u64) >= (rv as u64)) as i64,
            _ => return Err(BridgeError::Eval(format!("unknown operator `{op}`"))),
        };
        Ok(self.int(out))
    }

    fn cast(&self, ty: TypeId, v: CValue) -> Result<CValue> {
        let v = match &v {
            CValue::LValue { ty: vt, .. }
                if matches!(
                    self.target.types.get(*vt).kind,
                    TypeKind::Prim(_) | TypeKind::Enum(_) | TypeKind::Pointer(_)
                ) =>
            {
                self.rvalue(v)?
            }
            _ => v,
        };
        let raw = v
            .as_int()
            .or_else(|| v.address().map(|a| a as i64))
            .ok_or_else(|| BridgeError::Eval("cast of non-scalar".into()))?;
        match &self.target.types.get(ty).kind {
            TypeKind::Pointer(_) => Ok(CValue::Ptr {
                addr: raw as u64,
                ty,
            }),
            TypeKind::Prim(p) => {
                let size = p.size() as usize;
                let mut buf = [0u8; 8];
                ktypes::write_int(&mut buf, 8, raw as u64);
                let val = if size == 0 {
                    0
                } else if p.signed() {
                    ktypes::read_int(&buf, size)
                } else {
                    ktypes::read_uint(&buf, size) as i64
                };
                Ok(CValue::Int { value: val, ty })
            }
            TypeKind::Enum(_) => Ok(CValue::Int { value: raw, ty }),
            _ => Ok(CValue::LValue {
                addr: raw as u64,
                ty,
            }),
        }
    }
}

fn expr_to_typename(e: &Expr) -> Result<String> {
    match e {
        Expr::Ident(n) => Ok(n.to_string()),
        Expr::Binary("*", a, _) => Ok(format!("{} *", expr_to_typename(a)?)),
        _ => Err(BridgeError::Eval(format!(
            "expected a type name, got {e:?}"
        ))),
    }
}

fn expr_to_path(e: &Expr) -> Result<String> {
    match e {
        Expr::Ident(n) => Ok(n.to_string()),
        Expr::Member { base, field, .. } => Ok(format!("{}.{}", expr_to_path(base)?, field)),
        _ => Err(BridgeError::Eval(format!(
            "expected a member path, got {e:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatencyProfile;
    use ksim::workload::{self, WorkloadConfig};

    struct Fixture {
        img: ksim::KernelImage,
        types: ksim::workload::AllTypes,
        roots: ksim::workload::WorkloadRoots,
    }

    fn fixture() -> Fixture {
        let (img, types, roots) = workload::build(&WorkloadConfig::default()).finish();
        Fixture { img, types, roots }
    }

    fn with_eval<R>(fx: &Fixture, f: impl FnOnce(&Evaluator<'_, '_>) -> R) -> R {
        let target = Target::new(
            &fx.img.mem,
            &fx.img.types,
            &fx.img.symbols,
            LatencyProfile::free(),
        );
        let mut helpers = HelperRegistry::new();
        helpers.register("add_one", |_t, args| {
            let v = args[0].as_int().unwrap_or(0);
            Ok(CValue::Int {
                value: v + 1,
                ty: args[0].type_id().unwrap(),
            })
        });
        let ev = Evaluator::new(&target, &helpers);
        f(&ev)
    }

    #[test]
    fn arithmetic_and_precedence() {
        let fx = fixture();
        with_eval(&fx, |ev| {
            assert_eq!(ev.eval_str("1 + 2 * 3").unwrap().as_int(), Some(7));
            assert_eq!(ev.eval_str("(1 + 2) * 3").unwrap().as_int(), Some(9));
            assert_eq!(ev.eval_str("0x10 | 0x01").unwrap().as_int(), Some(0x11));
            assert_eq!(ev.eval_str("1 << 4").unwrap().as_int(), Some(16));
            assert_eq!(ev.eval_str("10 % 4").unwrap().as_int(), Some(2));
            assert_eq!(ev.eval_str("-5 + 3").unwrap().as_int(), Some(-2));
            assert_eq!(ev.eval_str("!0 && 3 < 4").unwrap().as_int(), Some(1));
            assert_eq!(ev.eval_str("1 ? 10 : 20").unwrap().as_int(), Some(10));
            assert_eq!(ev.eval_str("0 ? 10 : 20").unwrap().as_int(), Some(20));
        });
    }

    #[test]
    fn division_by_zero_is_an_error_not_a_panic() {
        let fx = fixture();
        with_eval(&fx, |ev| {
            assert!(ev.eval_str("1 / 0").is_err());
            assert!(ev.eval_str("1 % 0").is_err());
        });
    }

    #[test]
    fn symbols_and_member_chains() {
        let fx = fixture();
        let init = fx.roots.init_task;
        with_eval(&fx, |ev| {
            let v = ev.eval_str("init_task").unwrap();
            assert_eq!(v.address(), Some(init));
            assert_eq!(ev.eval_str("init_task.pid").unwrap().as_int(), Some(0));
            // Through a pointer with ->, plus nested fields.
            let v = ev.eval_str("(&init_task)->se.vruntime").unwrap();
            assert_eq!(v.as_int(), Some(0));
        });
    }

    #[test]
    fn enum_and_macro_constants_resolve() {
        let fx = fixture();
        with_eval(&fx, |ev| {
            assert_eq!(ev.eval_str("maple_leaf_64").unwrap().as_int(), Some(1));
            assert_eq!(ev.eval_str("VM_WRITE").unwrap().as_int(), Some(2));
            assert_eq!(ev.eval_str("NULL").unwrap().as_int(), Some(0));
        });
    }

    #[test]
    fn casts_and_sizeof() {
        let fx = fixture();
        let init = fx.roots.init_task;
        let task_size = fx.img.types.size_of(fx.types.task.task_struct) as i64;
        with_eval(&fx, |ev| {
            assert_eq!(
                ev.eval_str("sizeof(struct task_struct)").unwrap().as_int(),
                Some(task_size)
            );
            assert_eq!(ev.eval_str("sizeof(u32)").unwrap().as_int(), Some(4));
            // Cast an address to a typed pointer and walk it.
            let e = format!("((struct task_struct *){init})->pid");
            assert_eq!(ev.eval_str(&e).unwrap().as_int(), Some(0));
            // Truncating casts.
            assert_eq!(ev.eval_str("(u8)0x1ff").unwrap().as_int(), Some(0xff));
            assert_eq!(ev.eval_str("(s8)0xff").unwrap().as_int(), Some(-1));
        });
    }

    #[test]
    fn container_of_builtin() {
        let fx = fixture();
        let leader = fx.roots.leaders[0];
        let (tasks_off, _) = fx
            .img
            .types
            .field_path(fx.types.task.task_struct, "tasks")
            .unwrap();
        let node = leader + tasks_off;
        with_eval(&fx, |ev| {
            let e = format!("container_of({node}, struct task_struct, tasks)->pid");
            assert_eq!(ev.eval_str(&e).unwrap().as_int(), Some(100));
        });
    }

    #[test]
    fn at_refs_resolve_from_env() {
        let fx = fixture();
        let init = fx.roots.init_task;
        with_eval(&fx, |ev| {
            let mut env = HashMap::new();
            env.insert(
                "this".to_string(),
                CValue::LValue {
                    addr: init,
                    ty: fx.types.task.task_struct,
                },
            );
            let v = ev.eval_str_with("@this.comm", &env).unwrap();
            assert!(
                matches!(v, CValue::LValue { .. }),
                "char[16] is an aggregate"
            );
            assert_eq!(
                ev.eval_str_with("@this.pid == 0", &env).unwrap().as_int(),
                Some(1)
            );
            assert!(ev.eval_str_with("@missing", &env).is_err());
        });
    }

    #[test]
    fn helpers_are_callable() {
        let fx = fixture();
        with_eval(&fx, |ev| {
            assert_eq!(ev.eval_str("add_one(41)").unwrap().as_int(), Some(42));
            assert!(matches!(
                ev.eval_str("no_such_helper(1)"),
                Err(BridgeError::UnknownHelper(_))
            ));
        });
    }

    #[test]
    fn array_indexing_on_globals() {
        let fx = fixture();
        with_eval(&fx, |ev| {
            // irq_desc[11].action is non-NULL (workload requests irq 11).
            let v = ev.eval_str("irq_desc[11].action").unwrap();
            assert!(v.as_u64().unwrap() != 0);
            let v = ev.eval_str("irq_desc[3].action").unwrap();
            assert_eq!(v.as_u64(), Some(0));
            // Chained: first action's irq field round-trips.
            assert_eq!(
                ev.eval_str("irq_desc[11].action->irq").unwrap().as_int(),
                Some(11)
            );
        });
    }

    #[test]
    fn pointer_arithmetic_scales() {
        let fx = fixture();
        with_eval(&fx, |ev| {
            // &init_task + 1 advances by sizeof(task_struct).
            let base = ev.eval_str("&init_task").unwrap().address().unwrap();
            let next = ev.eval_str("&init_task + 1").unwrap().address().unwrap();
            let tsz = fx.img.types.size_of(fx.types.task.task_struct);
            assert_eq!(next - base, tsz);
        });
    }

    #[test]
    fn bitfield_members_extract() {
        let fx = fixture();
        // Find a slab and check the packed inuse/objects bitfields.
        let slab_ty = fx.img.types.find("slab").unwrap();
        let _ = slab_ty;
        with_eval(&fx, |ev| {
            // slab_caches list head exists; walk one node via container_of.
            let first = ev.eval_str("slab_caches.next").unwrap().as_u64().unwrap();
            let e = format!("container_of({first}, struct kmem_cache, list)->object_size");
            let sz = ev.eval_str(&e).unwrap().as_int().unwrap();
            assert!(sz > 0);
        });
    }

    #[test]
    fn null_deref_is_an_error() {
        let fx = fixture();
        with_eval(&fx, |ev| {
            assert!(ev.eval_str("((struct task_struct *)0)->pid").is_err());
        });
    }

    #[test]
    fn an_address_past_the_top_is_an_error_not_a_panic() {
        let fx = fixture();
        let task = fx.types.task.task_struct;
        let (comm, _) = fx.img.types.field_path(task, "comm").unwrap();
        with_eval(&fx, |ev| {
            let fails = |expr: &str, want: &str| {
                let err = ev.eval_str(expr).unwrap_err().to_string();
                assert!(err.contains(want), "{expr}: {err}");
            };
            fails(
                "((struct task_struct *)0xffffffffffffffff)->pid",
                "member `.pid`: address 0xffffffffffffffff + ",
            );
            // A bitfield sums its storage address the same way.
            fails(
                "((struct slab *)0xffffffffffffffff)->frozen",
                "member `.frozen`: address 0xffffffffffffffff + ",
            );
            // An array member that starts below the top but ends past it.
            let base = u64::MAX - comm - 3;
            fails(
                &format!("((struct task_struct *){base})->comm[15]"),
                "index [15]: address 0xfffffffffffffffc + 15 * 0x1",
            );
        });
    }

    #[test]
    fn nesting_past_the_limit_is_a_positioned_parse_error() {
        // 127 parentheses open 128 levels, the most the parser builds.
        let ok = format!("{}1{}", "(".repeat(127), ")".repeat(127));
        assert_eq!(parse(&ok).unwrap(), Expr::Num(1));
        let deep = format!("{}1{}", "(".repeat(2_000), ")".repeat(2_000));
        match parse(&deep) {
            Err(BridgeError::Parse { at, msg, .. }) => {
                assert_eq!(at, 128, "level 129 starts inside the 128th `(`");
                assert_eq!(msg, "nesting deeper than 128 levels");
            }
            other => panic!("expected a depth error, got {other:?}"),
        }
        // Unary chains and long operator or member chains nest as
        // deeply as their trees do.
        for hostile in [
            "-".repeat(10_000) + "1",
            vec!["1"; 10_000].join(" + "),
            "init_task".to_string() + &".pid".repeat(10_000),
            "a".to_string() + &"[0]".repeat(10_000),
            vec!["1 ? 2"; 10_000].join(" : ") + " : 3",
        ] {
            let err = parse(&hostile).unwrap_err();
            let text = err.to_string();
            assert!(
                text.contains("nesting deeper than 128 levels"),
                "{text:.200}"
            );
            assert!(text.len() < 200, "the echo is cut: {} bytes", text.len());
        }
    }

    #[test]
    fn one_member_site_reads_the_field_of_each_receiver_type() {
        // `f` sits at offset 8 in `a` and at offset 0 in `b`.
        let mut types = ktypes::TypeRegistry::new();
        let u32_t = types.prim(ktypes::Prim::U32);
        let u64_t = types.prim(ktypes::Prim::U64);
        types.prim(ktypes::Prim::I64);
        let a = ktypes::StructBuilder::new("a")
            .field("pad", u64_t)
            .field("f", u32_t)
            .build(&mut types);
        let b = ktypes::StructBuilder::new("b")
            .field("f", u32_t)
            .build(&mut types);
        let mut mem = kmem::Mem::new();
        mem.map(0x1000, 0x1000);
        mem.write_uint(0x1008, 4, 11);
        mem.write_uint(0x1800, 4, 22);
        let symbols = kmem::SymbolTable::new();
        let target = Target::new(&mem, &types, &symbols, LatencyProfile::free());
        let helpers = HelperRegistry::new();
        let ev = Evaluator::new(&target, &helpers);
        let expr = parse("@x.f").unwrap();
        for (addr, ty, want) in [(0x1000, a, 11), (0x1800, b, 22), (0x1000, a, 11)] {
            let env = |_: &str| Some(CValue::LValue { addr, ty });
            assert_eq!(ev.eval(&expr, &env).unwrap().as_int(), Some(want));
        }
    }

    #[test]
    fn bindings_are_invisible_to_debug_clone_and_eq() {
        let fx = fixture();
        let src = "container_of(init_task.tasks.next, struct task_struct, tasks)->pid + \
                   sizeof(struct task_struct) + (u8)VM_WRITE";
        let fresh = parse(src).unwrap();
        let used = parse(src).unwrap();
        let (debug, copy) = (format!("{fresh:?}"), used.clone());
        with_eval(&fx, |ev| {
            let first = ev.eval(&used, &|_| None).unwrap();
            assert_eq!(ev.eval(&used, &|_| None).unwrap(), first, "bound");
            assert_eq!(ev.eval(&copy, &|_| None).unwrap(), first);
        });
        assert_eq!(used, fresh);
        assert_eq!(used.clone(), fresh);
        assert_eq!(format!("{used:?}"), debug);
    }

    #[test]
    fn parse_errors_carry_the_source() {
        let fx = fixture();
        with_eval(&fx, |ev| {
            match ev.eval_str("1 +") {
                Err(BridgeError::Parse { expr, .. }) => assert_eq!(expr, "1 +"),
                other => panic!("expected parse error, got {other:?}"),
            }
            assert!(ev.eval_str("$bad").is_err());
            assert!(ev.eval_str("a b c").is_err());
        });
    }
}

#[cfg(test)]
mod prop_tests {
    //! Property: the evaluator's integer semantics agree with Rust's
    //! wrapping i64 arithmetic under C precedence, for randomly generated
    //! expression trees.

    use super::*;
    use crate::{HelperRegistry, LatencyProfile, Target};
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum E {
        N(i64),
        Add(Box<E>, Box<E>),
        Sub(Box<E>, Box<E>),
        Mul(Box<E>, Box<E>),
        And(Box<E>, Box<E>),
        Or(Box<E>, Box<E>),
        Xor(Box<E>, Box<E>),
        Shl(Box<E>, u8),
        Neg(Box<E>),
        Not(Box<E>),
    }

    impl E {
        fn src(&self) -> String {
            match self {
                E::N(n) => {
                    if *n < 0 {
                        format!("(0 - {})", n.unsigned_abs())
                    } else {
                        format!("{n}")
                    }
                }
                E::Add(a, b) => format!("({} + {})", a.src(), b.src()),
                E::Sub(a, b) => format!("({} - {})", a.src(), b.src()),
                E::Mul(a, b) => format!("({} * {})", a.src(), b.src()),
                E::And(a, b) => format!("({} & {})", a.src(), b.src()),
                E::Or(a, b) => format!("({} | {})", a.src(), b.src()),
                E::Xor(a, b) => format!("({} ^ {})", a.src(), b.src()),
                E::Shl(a, s) => format!("({} << {s})", a.src()),
                E::Neg(a) => format!("(-{})", a.src()),
                E::Not(a) => format!("(~{})", a.src()),
            }
        }

        fn eval(&self) -> i64 {
            match self {
                E::N(n) => *n,
                E::Add(a, b) => a.eval().wrapping_add(b.eval()),
                E::Sub(a, b) => a.eval().wrapping_sub(b.eval()),
                E::Mul(a, b) => a.eval().wrapping_mul(b.eval()),
                E::And(a, b) => a.eval() & b.eval(),
                E::Or(a, b) => a.eval() | b.eval(),
                E::Xor(a, b) => a.eval() ^ b.eval(),
                E::Shl(a, s) => ((a.eval() as u64) << (*s as u32 & 63)) as i64,
                E::Neg(a) => a.eval().wrapping_neg(),
                E::Not(a) => !a.eval(),
            }
        }
    }

    fn arb_expr() -> impl Strategy<Value = E> {
        let leaf = any::<i32>().prop_map(|n| E::N(n as i64));
        leaf.prop_recursive(4, 32, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(a.into(), b.into())),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(a.into(), b.into())),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(a.into(), b.into())),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| E::And(a.into(), b.into())),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Or(a.into(), b.into())),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Xor(a.into(), b.into())),
                (inner.clone(), 0u8..32).prop_map(|(a, s)| E::Shl(a.into(), s)),
                inner.clone().prop_map(|a| E::Neg(a.into())),
                inner.prop_map(|a| E::Not(a.into())),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_arithmetic_matches_rust(e in arb_expr()) {
            // A minimal image: just the interned `long` type.
            let mut types = ktypes::TypeRegistry::new();
            types.prim(ktypes::Prim::I64);
            let mem = kmem::Mem::new();
            let symbols = kmem::SymbolTable::new();
            let target = Target::new(&mem, &types, &symbols, LatencyProfile::free());
            let helpers = HelperRegistry::new();
            let ev = Evaluator::new(&target, &helpers);
            let got = ev.eval_str(&e.src()).unwrap().as_int().unwrap();
            prop_assert_eq!(got, e.eval(), "expr: {}", e.src());
        }

        #[test]
        fn prop_comparisons_are_unsigned(a: u64, b: u64) {
            let mut types = ktypes::TypeRegistry::new();
            types.prim(ktypes::Prim::I64);
            let mem = kmem::Mem::new();
            let symbols = kmem::SymbolTable::new();
            let target = Target::new(&mem, &types, &symbols, LatencyProfile::free());
            let helpers = HelperRegistry::new();
            let ev = Evaluator::new(&target, &helpers);
            let got = ev.eval_str(&format!("{a} < {b}")).unwrap().as_int().unwrap();
            prop_assert_eq!(got, (a < b) as i64, "kernel addresses compare unsigned");
        }
    }
}
