//! Text decorators (paper Table 1): how a raw value is displayed.

use std::collections::HashMap;
use std::fmt::{self, Write};

use ktypes::{CValue, TypeKind};
use vbridge::Target;

/// A named set of bit flags for the `flag:<id>` decorator
/// (e.g. `vm` → `VM_READ | VM_WRITE | …`).
#[derive(Debug, Clone, Default)]
pub struct FlagSets {
    sets: HashMap<String, Vec<(String, u64)>>,
    emojis: HashMap<String, Vec<(u64, String)>>,
}

impl FlagSets {
    /// Create an empty registry with the built-in kernel sets.
    pub fn with_builtins() -> Self {
        let mut f = FlagSets::default();
        f.define(
            "vm",
            &[
                ("VM_READ", 0x1),
                ("VM_WRITE", 0x2),
                ("VM_EXEC", 0x4),
                ("VM_SHARED", 0x8),
                ("VM_GROWSDOWN", 0x100),
            ],
        );
        f.define(
            "page",
            &[
                ("PG_locked", 1 << 0),
                ("PG_uptodate", 1 << 2),
                ("PG_dirty", 1 << 3),
                ("PG_lru", 1 << 4),
            ],
        );
        f.define("pipe_buf", &[("PIPE_BUF_FLAG_CAN_MERGE", 0x10)]);
        f.define("swp", &[("SWP_USED", 0x1), ("SWP_WRITEOK", 0x2)]);
        f.define("task", &[("PF_KTHREAD", 0x0020_0000)]);
        // EMOJI sets: value → glyph (first match wins; `*` value 0 is the
        // fallback when nothing matched).
        f.define_emoji("lock", &[(1, "🔒"), (0, "🔓")]);
        f.define_emoji("state", &[(0, "🟢"), (1, "🟡"), (2, "🔴"), (4, "⏸️")]);
        f
    }

    /// Define or replace a flag set.
    pub fn define(&mut self, id: &str, flags: &[(&str, u64)]) {
        self.sets.insert(
            id.to_string(),
            flags.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        );
    }

    /// Define or replace an emoji mapping.
    pub fn define_emoji(&mut self, id: &str, map: &[(u64, &str)]) {
        self.emojis.insert(
            id.to_string(),
            map.iter().map(|(v, g)| (*v, g.to_string())).collect(),
        );
    }

    fn render_flags(&self, id: &str, value: u64) -> String {
        let Some(set) = self.sets.get(id) else {
            return format!("{value:#x}");
        };
        let names: Vec<&str> = set
            .iter()
            .filter(|(_, bit)| value & bit != 0)
            .map(|(n, _)| n.as_str())
            .collect();
        if names.is_empty() {
            "0".to_string()
        } else {
            names.join("|")
        }
    }

    fn render_emoji(&self, id: &str, value: u64) -> String {
        match self.emojis.get(id) {
            Some(map) => map
                .iter()
                .find(|(v, _)| *v == value)
                .map(|(_, g)| g.clone())
                .unwrap_or_else(|| format!("{value}")),
            None => format!("{value}"),
        }
    }
}

/// A parsed decorator, e.g. `u64:x`, `enum:maple_type`, `flag:vm`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decorator {
    /// Integer with a display base (`x` hex, `d` decimal, `b` binary, `o` octal).
    Int {
        /// Base character.
        base: char,
    },
    /// `bool`.
    Bool,
    /// `char`.
    Char,
    /// `enum:<type>` — render the enumerator name.
    Enum(String),
    /// `string` — the value is a `char *` / `char[]`; fetch the C string.
    Str,
    /// `raw_ptr` — raw pointer value in hex.
    RawPtr,
    /// `fptr` — resolve the function pointer to its symbol name.
    FunPtr,
    /// `flag:<id>` — render set bits as macro names.
    Flag(String),
    /// `emoji:<id>` — stateful glyph.
    Emoji(String),
}

impl Decorator {
    /// Parse the inside of `Text<…>`.
    pub fn parse(spec: &str) -> Option<Decorator> {
        let spec = spec.trim();
        Some(match spec {
            "bool" => Decorator::Bool,
            "char" => Decorator::Char,
            "string" => Decorator::Str,
            "raw_ptr" => Decorator::RawPtr,
            "fptr" => Decorator::FunPtr,
            _ => {
                let (head, tail) = spec.split_once(':')?;
                match head {
                    "enum" => Decorator::Enum(tail.to_string()),
                    "flag" => Decorator::Flag(tail.to_string()),
                    "emoji" => Decorator::Emoji(tail.to_string()),
                    // `u64:x`, `u32:d`, `int:b`, …
                    _ => Decorator::Int {
                        base: tail.chars().next()?,
                    },
                }
            }
        })
    }

    /// Render `value` under this decorator.
    pub fn render(&self, target: &Target<'_>, flags: &FlagSets, value: &CValue) -> String {
        let raw = raw_of(value);
        match self {
            Decorator::Int { base } => match base {
                'x' => number(format_args!("{:#x}", raw as u64)),
                'b' => number(format_args!("{:#b}", raw as u64)),
                'o' => number(format_args!("{:#o}", raw as u64)),
                _ => number(format_args!("{raw}")),
            },
            Decorator::Bool => if raw != 0 { "true" } else { "false" }.to_string(),
            Decorator::Char => {
                let c = (raw as u8) as char;
                if c.is_ascii_graphic() || c == ' ' {
                    format!("'{c}'")
                } else {
                    format!("'\\x{:02x}'", raw as u8)
                }
            }
            Decorator::Enum(tyname) => {
                let name = target
                    .types
                    .find(tyname)
                    .and_then(|id| target.types.enum_def(id))
                    .and_then(|e| e.name_of(raw))
                    .map(str::to_string);
                name.unwrap_or_else(|| number(format_args!("{raw}")))
            }
            Decorator::Str => match value {
                CValue::Str(s) => s.clone(),
                CValue::LValue { addr, .. } | CValue::Ptr { addr, .. } => {
                    if *addr == 0 {
                        "(null)".to_string()
                    } else {
                        target
                            .read_cstr(*addr, 64)
                            .unwrap_or_else(|_| "<fault>".into())
                    }
                }
                _ => number(format_args!("{raw}")),
            },
            Decorator::RawPtr => number(format_args!("{:#x}", raw as u64)),
            Decorator::FunPtr => {
                let addr = raw as u64;
                match target.symbols.name_at(addr) {
                    Some(n) => n.to_string(),
                    None if addr == 0 => "NULL".to_string(),
                    None => number(format_args!("{addr:#x}")),
                }
            }
            Decorator::Flag(id) => flags.render_flags(id, raw as u64),
            Decorator::Emoji(id) => flags.render_emoji(id, raw as u64),
        }
    }
}

/// Default rendering when no decorator is given.
pub fn render_default(target: &Target<'_>, value: &CValue) -> String {
    match value {
        CValue::Int { value, .. } => number(format_args!("{value}")),
        CValue::Ptr { addr, .. } => {
            if *addr == 0 {
                "NULL".into()
            } else {
                number(format_args!("{addr:#x}"))
            }
        }
        CValue::LValue { addr, ty } => {
            // Scalar lvalues (a global integer like `jiffies`) print their
            // value, like GDB's `print`.
            match &target.types.get(*ty).kind {
                TypeKind::Prim(p) if p.size() > 0 => {
                    return match target.load(*addr, *ty) {
                        Ok(v) => render_default(target, &v),
                        Err(_) => "<fault>".into(),
                    };
                }
                TypeKind::Pointer(_) | TypeKind::Enum(_) => {
                    return match target.load(*addr, *ty) {
                        Ok(v) => render_default(target, &v),
                        Err(_) => "<fault>".into(),
                    };
                }
                _ => {}
            }
            // char arrays read as strings; other aggregates show type@addr.
            if let TypeKind::Array { elem, len } = &target.types.get(*ty).kind {
                if matches!(
                    &target.types.get(*elem).kind,
                    TypeKind::Prim(p) if *p == ktypes::Prim::Char || *p == ktypes::Prim::U8
                ) {
                    return target
                        .read_cstr(*addr, *len as usize)
                        .unwrap_or_else(|_| "<fault>".into());
                }
            }
            format!("{}@{addr:#x}", target.types.display_name(*ty))
        }
        CValue::Str(s) => s.clone(),
        CValue::Void => String::new(),
    }
}

/// A formatted number, in a buffer sized for any 64-bit value in hex
/// or decimal; `format!` would start empty and grow per piece it writes.
fn number(args: fmt::Arguments<'_>) -> String {
    let mut out = String::with_capacity(20);
    out.write_fmt(args)
        .expect("formatting into a String cannot fail");
    out
}

fn raw_of(value: &CValue) -> i64 {
    value
        .as_int()
        .or_else(|| value.address().map(|a| a as i64))
        .unwrap_or(0)
}

/// The raw comparison value stored alongside the rendered text.
pub fn raw_for_query(value: &CValue) -> Option<i64> {
    match value {
        CValue::Int { value, .. } => Some(*value),
        CValue::Ptr { addr, .. } => Some(*addr as i64),
        CValue::LValue { addr, .. } => Some(*addr as i64),
        CValue::Str(_) | CValue::Void => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::workload::{build, WorkloadConfig};
    use vbridge::LatencyProfile;

    fn with_target<R>(f: impl FnOnce(&Target<'_>) -> R) -> R {
        let (img, _t, _r) = build(&WorkloadConfig::default()).finish();
        let target = Target::new(&img.mem, &img.types, &img.symbols, LatencyProfile::free());
        f(&target)
    }

    fn int(target: &Target<'_>, v: i64) -> CValue {
        CValue::Int {
            value: v,
            ty: target.types.find("long").unwrap(),
        }
    }

    #[test]
    fn parse_covers_table_1() {
        assert_eq!(
            Decorator::parse("u64:x"),
            Some(Decorator::Int { base: 'x' })
        );
        assert_eq!(Decorator::parse("bool"), Some(Decorator::Bool));
        assert_eq!(Decorator::parse("char"), Some(Decorator::Char));
        assert_eq!(
            Decorator::parse("enum:maple_type"),
            Some(Decorator::Enum("maple_type".into()))
        );
        assert_eq!(Decorator::parse("string"), Some(Decorator::Str));
        assert_eq!(Decorator::parse("raw_ptr"), Some(Decorator::RawPtr));
        assert_eq!(Decorator::parse("fptr"), Some(Decorator::FunPtr));
        assert_eq!(
            Decorator::parse("flag:vm"),
            Some(Decorator::Flag("vm".into()))
        );
        assert_eq!(
            Decorator::parse("emoji:lock"),
            Some(Decorator::Emoji("lock".into()))
        );
        assert_eq!(Decorator::parse(""), None);
    }

    #[test]
    fn integer_bases() {
        with_target(|t| {
            let f = FlagSets::with_builtins();
            let v = int(t, 255);
            assert_eq!(Decorator::Int { base: 'x' }.render(t, &f, &v), "0xff");
            assert_eq!(Decorator::Int { base: 'd' }.render(t, &f, &v), "255");
            assert_eq!(Decorator::Int { base: 'b' }.render(t, &f, &v), "0b11111111");
            assert_eq!(Decorator::Int { base: 'o' }.render(t, &f, &v), "0o377");
        });
    }

    #[test]
    fn bool_char_and_emoji() {
        with_target(|t| {
            let f = FlagSets::with_builtins();
            assert_eq!(Decorator::Bool.render(t, &f, &int(t, 0)), "false");
            assert_eq!(Decorator::Bool.render(t, &f, &int(t, 7)), "true");
            assert_eq!(Decorator::Char.render(t, &f, &int(t, b'A' as i64)), "'A'");
            assert_eq!(Decorator::Char.render(t, &f, &int(t, 1)), "'\\x01'");
            assert_eq!(
                Decorator::Emoji("lock".into()).render(t, &f, &int(t, 1)),
                "🔒"
            );
            assert_eq!(
                Decorator::Emoji("lock".into()).render(t, &f, &int(t, 0)),
                "🔓"
            );
        });
    }

    #[test]
    fn enum_names_resolve_through_registry() {
        with_target(|t| {
            let f = FlagSets::with_builtins();
            let d = Decorator::Enum("maple_type".into());
            assert_eq!(d.render(t, &f, &int(t, 1)), "maple_leaf_64");
            assert_eq!(d.render(t, &f, &int(t, 3)), "maple_arange_64");
            assert_eq!(
                d.render(t, &f, &int(t, 99)),
                "99",
                "unknown value prints raw"
            );
        });
    }

    #[test]
    fn flags_render_set_bits() {
        with_target(|t| {
            let f = FlagSets::with_builtins();
            let d = Decorator::Flag("vm".into());
            assert_eq!(d.render(t, &f, &int(t, 0x3)), "VM_READ|VM_WRITE");
            assert_eq!(d.render(t, &f, &int(t, 0)), "0");
            // Unknown set falls back to hex.
            let d = Decorator::Flag("nope".into());
            assert_eq!(d.render(t, &f, &int(t, 0x10)), "0x10");
        });
    }

    #[test]
    fn fptr_resolves_symbols() {
        with_target(|t| {
            let f = FlagSets::with_builtins();
            let addr = t.symbols.lookup("vmstat_update").unwrap().addr;
            let d = Decorator::FunPtr;
            assert_eq!(d.render(t, &f, &int(t, addr as i64)), "vmstat_update");
            assert_eq!(d.render(t, &f, &int(t, 0)), "NULL");
            assert_eq!(d.render(t, &f, &int(t, 0x1234)), "0x1234");
        });
    }

    #[test]
    fn default_render_loads_scalars_and_strings() {
        with_target(|t| {
            // jiffies is a u64 global: default render shows the value.
            let sym = t.symbols.lookup("jiffies").unwrap();
            let v = CValue::LValue {
                addr: sym.addr,
                ty: sym.ty.unwrap(),
            };
            let s = render_default(t, &v);
            assert!(s.parse::<u64>().is_ok(), "not a number: {s}");
            // init_task.comm is char[16]: default render reads the string.
            let task = t.symbols.lookup("init_task").unwrap();
            let task_ty = t.types.find("task_struct").unwrap();
            let (off, comm_ty) = t.types.field_path(task_ty, "comm").unwrap();
            let v = CValue::LValue {
                addr: task.addr + off,
                ty: comm_ty,
            };
            assert_eq!(render_default(t, &v), "swapper/0");
        });
    }
}
