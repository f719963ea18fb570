//! ViewCL tokenizer: a [`Lexer`] reads one token at a time, as the
//! parser asks for it, so a malformed program stops at its first bad
//! token.

use crate::VclError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// `@name(.path)*` reference (without the `@`).
    AtRef(String),
    /// `${ … }` C expression (inner text).
    CExpr(String),
    /// `<…>` specification (decorator, C type, anchor path; inner text).
    Spec(String),
    /// Integer literal.
    Num(i64),
    /// Punctuation.
    Punct(&'static str),
    /// End of input.
    Eof,
    /// Where the input stops being ViewCL, and why.
    Bad(Box<VclError>),
}

impl Tok {
    /// Whether no token follows this one.
    pub fn is_last(&self) -> bool {
        matches!(self, Tok::Eof | Tok::Bad(_))
    }
}

/// A token plus its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedTok {
    /// The token.
    pub tok: Tok,
    /// 1-based line number.
    pub line: u32,
    /// Byte offset of the token's first character.
    pub pos: usize,
}

/// Reads the tokens of a ViewCL source string one at a time.
pub struct Lexer<'s> {
    src: &'s str,
    /// Byte offset of the next unread character.
    i: usize,
    /// 1-based line of `i`.
    line: u32,
}

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

impl<'s> Lexer<'s> {
    /// A lexer at the start of `src`.
    pub fn new(src: &'s str) -> Lexer<'s> {
        Lexer { src, i: 0, line: 1 }
    }

    /// The next token: [`Tok::Eof`] at the end of the input, or
    /// [`Tok::Bad`] where it stops being ViewCL. Neither is followed by
    /// another token.
    pub fn next_tok(&mut self) -> SpannedTok {
        let (tok, pos) = self.scan();
        SpannedTok {
            tok,
            line: self.line,
            pos,
        }
    }

    fn bad(&self, pos: usize, msg: &str) -> (Tok, usize) {
        let err = VclError::Parse {
            line: self.line,
            pos,
            msg: msg.to_string(),
        };
        (Tok::Bad(Box::new(err)), pos)
    }

    /// The next token and its offset, leaving `i` past it.
    fn scan(&mut self) -> (Tok, usize) {
        let src = self.src;
        let b = src.as_bytes();
        while self.i < b.len() {
            let i = self.i;
            let c = b[i] as char;
            let (tok, end) = match c {
                '\n' => {
                    self.line += 1;
                    self.i += 1;
                    continue;
                }
                ' ' | '\t' | '\r' => {
                    self.i += 1;
                    continue;
                }
                '/' if b.get(i + 1) == Some(&b'/') => {
                    self.i = b[i..]
                        .iter()
                        .position(|&c| c == b'\n')
                        .map_or(b.len(), |n| i + n);
                    continue;
                }
                '$' if b.get(i + 1) == Some(&b'{') => {
                    let start = i + 2;
                    let mut depth = 1;
                    let mut j = start;
                    while j < b.len() && depth > 0 {
                        match b[j] {
                            b'{' => depth += 1,
                            b'}' => depth -= 1,
                            b'\n' => self.line += 1,
                            _ => {}
                        }
                        j += 1;
                    }
                    if depth != 0 {
                        return self.bad(i, "unterminated ${...}");
                    }
                    (Tok::CExpr(src[start..j - 1].into()), j)
                }
                '@' => {
                    let start = i + 1;
                    let mut j = start;
                    while j < b.len() && is_word(b[j]) {
                        j += 1;
                    }
                    // Allow dotted paths: @node.mr64.slot — a dot must be
                    // followed by an identifier character to be part of the
                    // reference (so `@x.forEach` stops before `.forEach`).
                    while b.get(j) == Some(&b'.')
                        && b.get(j + 1)
                            .is_some_and(|&c| c.is_ascii_alphabetic() || c == b'_')
                    {
                        let word_start = j + 1;
                        let mut k = word_start;
                        while k < b.len() && is_word(b[k]) {
                            k += 1;
                        }
                        let word = &src[word_start..k];
                        if word == "forEach" || word == "selectFrom" {
                            break;
                        }
                        j = k;
                        // Optional [number] indices.
                        while b.get(j) == Some(&b'[') {
                            match b[j..].iter().position(|&c| c == b']') {
                                Some(n) => j += n + 1,
                                None => return self.bad(j, "unterminated index in @ref"),
                            }
                        }
                    }
                    if j == start {
                        return self.bad(i, "dangling `@`");
                    }
                    (Tok::AtRef(src[start..j].into()), j)
                }
                '<' => {
                    // Heuristic spec scan: take `<...>` as a Spec when the
                    // contents look like a type/decorator/path (no newline,
                    // only word chars, ':', '.', '*', and spaces).
                    let close = b[i + 1..]
                        .iter()
                        .position(|&cc| {
                            !(is_word(cc) || matches!(cc, b':' | b'.' | b'*' | b' ' | b'[' | b']'))
                        })
                        .map(|n| i + 1 + n)
                        .filter(|&j| b[j] == b'>');
                    match close {
                        Some(j) => (Tok::Spec(src[i + 1..j].trim().into()), j + 1),
                        None => (Tok::Punct("<"), i + 1),
                    }
                }
                '0'..='9' => {
                    let hex = c == '0' && b.get(i + 1).is_some_and(|&x| (x | 32) == b'x');
                    let digits = if hex { i + 2 } else { i };
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
                        u64::from_str_radix(&src[digits..end], 16).map(|v| v as i64)
                    } else {
                        src[digits..end].parse()
                    };
                    match v {
                        Ok(v) => (Tok::Num(v), end),
                        Err(_) if hex => return self.bad(i, "bad hex literal"),
                        Err(_) => return self.bad(i, "bad literal"),
                    }
                }
                'a'..='z' | 'A'..='Z' | '_' => {
                    let end = b[i..]
                        .iter()
                        .position(|&w| !is_word(w))
                        .map_or(b.len(), |n| i + n);
                    (Tok::Ident(src[i..end].into()), end)
                }
                _ => {
                    let two = src.get(i..i + 2).unwrap_or("");
                    let p: &'static str = match (two, c) {
                        ("->", _) => "->",
                        ("=>", _) => "=>",
                        (_, '[') => "[",
                        (_, ']') => "]",
                        (_, '{') => "{",
                        (_, '}') => "}",
                        (_, '(') => "(",
                        (_, ')') => ")",
                        (_, ':') => ":",
                        (_, ',') => ",",
                        (_, '=') => "=",
                        (_, '|') => "|",
                        (_, '.') => ".",
                        (_, '>') => ">",
                        _ => {
                            let c = src[i..].chars().next().expect("`i` is below the length");
                            return self.bad(i, &format!("unexpected character `{c}`"));
                        }
                    };
                    (Tok::Punct(p), i + p.len())
                }
            };
            self.i = end;
            return (tok, i);
        }
        (Tok::Eof, b.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Result;

    /// Tokenize a whole ViewCL source string.
    fn lex(src: &str) -> Result<Vec<SpannedTok>> {
        let mut lexer = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let t = lexer.next_tok();
            match t.tok {
                Tok::Bad(e) => return Err(*e),
                Tok::Eof => {
                    out.push(t);
                    return Ok(out);
                }
                _ => out.push(t),
            }
        }
    }

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn cexpr_and_refs() {
        let t = toks("root = ${cpu_rq(0)->cfs.tasks_timeline}");
        assert_eq!(
            t,
            vec![
                Tok::Ident("root".into()),
                Tok::Punct("="),
                Tok::CExpr("cpu_rq(0)->cfs.tasks_timeline".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn at_ref_stops_before_foreach() {
        let t = toks("@root.forEach |node|");
        assert_eq!(t[0], Tok::AtRef("root".into()));
        assert_eq!(t[1], Tok::Punct("."));
        assert_eq!(t[2], Tok::Ident("forEach".into()));
    }

    #[test]
    fn dotted_at_ref_with_index() {
        let t = toks("@node.mr64.slot[3]");
        assert_eq!(t[0], Tok::AtRef("node.mr64.slot[3]".into()));
    }

    #[test]
    fn specs_vs_comparison() {
        let t = toks("Box<task_struct>");
        assert_eq!(t[1], Tok::Spec("task_struct".into()));
        let t = toks("Text<u64:x> vm_start");
        assert_eq!(t[1], Tok::Spec("u64:x".into()));
        let t = toks("Task<task_struct.se.run_node>(@node)");
        assert_eq!(t[1], Tok::Spec("task_struct.se.run_node".into()));
    }

    #[test]
    fn comments_and_lines() {
        let spanned = lex("a = @b // comment\nplot @a").unwrap();
        let plot_line = spanned
            .iter()
            .find(|s| matches!(&s.tok, Tok::Ident(i) if i == "plot"))
            .unwrap()
            .line;
        assert_eq!(plot_line, 2);
    }

    #[test]
    fn nested_braces_in_cexpr() {
        let t = toks("x = ${foo({1,2})}");
        assert_eq!(t[2], Tok::CExpr("foo({1,2})".into()));
    }

    #[test]
    fn crlf_input_lexes_like_lf() {
        // Windows line endings: `\r` is plain whitespace, `\n` still
        // advances the line counter, and a comment swallows its `\r`.
        let unix = lex("a = @b\nplot @a\n").unwrap();
        let dos = lex("a = @b\r\nplot @a\r\n").unwrap();
        assert_eq!(
            unix.iter().map(|s| &s.tok).collect::<Vec<_>>(),
            dos.iter().map(|s| &s.tok).collect::<Vec<_>>()
        );
        assert_eq!(
            unix.iter().map(|s| s.line).collect::<Vec<_>>(),
            dos.iter().map(|s| s.line).collect::<Vec<_>>()
        );
        let commented = lex("a = @b // trailing\r\nplot @a").unwrap();
        let plot = commented
            .iter()
            .find(|s| matches!(&s.tok, Tok::Ident(i) if i == "plot"))
            .unwrap();
        assert_eq!(plot.line, 2);
    }

    #[test]
    fn trailing_comment_without_newline_hits_eof_cleanly() {
        let t = toks("plot @a // no newline after this comment");
        assert_eq!(
            t,
            vec![Tok::Ident("plot".into()), Tok::AtRef("a".into()), Tok::Eof]
        );
        // A file that is nothing but a comment lexes to EOF alone.
        assert_eq!(toks("// only a comment"), vec![Tok::Eof]);
    }
}
