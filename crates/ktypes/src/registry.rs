//! The type registry: interning, lookup by name, and layout queries.

use std::collections::HashMap;

use crate::bind::Stamp;
use crate::prim::Prim;
use crate::ty::{EnumDef, StructDef, Type, TypeId, TypeKind};
use crate::{Result, TypeError};

/// A named integer constant exported to the expression evaluator
/// (an enumerator or a `#define`d macro value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumConst {
    /// Constant name, e.g. `maple_leaf_64` or `PIPE_BUF_FLAG_CAN_MERGE`.
    pub name: String,
    /// Constant value.
    pub value: i64,
    /// The enum type the constant belongs to, if any (`None` for macros).
    pub ty: Option<TypeId>,
}

/// The database of all types known to the simulated debugger.
///
/// Plays the role of DWARF debug info: C expressions are resolved against
/// this registry, and the kernel simulator uses it to lay out objects in
/// target memory.
#[derive(Debug, Default)]
pub struct TypeRegistry {
    types: Vec<Type>,
    by_name: HashMap<String, TypeId>,
    prims: HashMap<Prim, TypeId>,
    /// The pointer type to each type, by the pointee's index: the
    /// evaluator takes an address (`&x`) on most walks.
    pointers: Vec<Option<TypeId>>,
    arrays: HashMap<(TypeId, u64), TypeId>,
    consts: HashMap<String, EnumConst>,
    /// This state of the registry; replaced by every mutation.
    stamp: Stamp,
    /// `find("long")`, which every integer result of the expression
    /// evaluator needs, kept current by every mutation.
    long: Option<TypeId>,
}

impl TypeRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, t: Type) -> TypeId {
        let id = TypeId(self.types.len() as u32);
        self.types.push(t);
        id
    }

    /// Note a mutation: bindings resolved against the old state no
    /// longer hold.
    fn changed(&mut self) {
        self.stamp = Stamp::fresh();
        self.long = self.find("long");
    }

    /// The registry's current state. It changes on every mutation, so a
    /// name bound under it stays valid exactly while it is current.
    pub fn stamp(&self) -> Stamp {
        self.stamp
    }

    /// The type `find("long")` returns, without the lookup.
    pub fn long(&self) -> Option<TypeId> {
        self.long
    }

    /// Intern a primitive type.
    pub fn prim(&mut self, p: Prim) -> TypeId {
        if let Some(&id) = self.prims.get(&p) {
            return id;
        }
        let id = self.push(Type {
            kind: TypeKind::Prim(p),
        });
        self.prims.insert(p, id);
        self.by_name.entry(p.c_name().to_string()).or_insert(id);
        self.changed();
        id
    }

    /// Intern a pointer to `target`.
    pub fn pointer_to(&mut self, target: TypeId) -> TypeId {
        if let Some(id) = self.find_pointer_to(target) {
            return id;
        }
        let id = self.push(Type {
            kind: TypeKind::Pointer(target),
        });
        if self.pointers.len() <= target.index() {
            self.pointers.resize(target.index() + 1, None);
        }
        self.pointers[target.index()] = Some(id);
        self.changed();
        id
    }

    /// Intern an array of `len` elements of `elem`.
    pub fn array_of(&mut self, elem: TypeId, len: u64) -> TypeId {
        if let Some(&id) = self.arrays.get(&(elem, len)) {
            return id;
        }
        let id = self.push(Type {
            kind: TypeKind::Array { elem, len },
        });
        self.arrays.insert((elem, len), id);
        self.changed();
        id
    }

    /// Intern a finished struct/union definition under its tag name.
    ///
    /// If the name was previously [`declare_struct`](Self::declare_struct)ed,
    /// the forward declaration is completed in place so existing pointers to
    /// it see the full layout.
    pub fn intern_struct(&mut self, def: StructDef) -> TypeId {
        if let Some(&id) = self.by_name.get(&def.name) {
            if matches!(&self.get(id).kind, TypeKind::Struct(s) if s.fields.is_empty()) {
                self.types[id.index()] = Type {
                    kind: TypeKind::Struct(def),
                };
                self.changed();
                return id;
            }
        }
        let name = def.name.clone();
        let id = self.push(Type {
            kind: TypeKind::Struct(def),
        });
        self.by_name.insert(name, id);
        self.changed();
        id
    }

    /// Forward-declare a struct tag, returning an id usable behind pointers.
    ///
    /// The declaration is completed by a later [`intern_struct`]
    /// (typically via [`crate::StructBuilder::build`]) with the same name —
    /// exactly how mutually recursive kernel structs (`task_struct` ↔
    /// `mm_struct`) are declared in C.
    ///
    /// [`intern_struct`]: Self::intern_struct
    pub fn declare_struct(&mut self, name: impl Into<String>) -> TypeId {
        let name = name.into();
        if let Some(&id) = self.by_name.get(&name) {
            return id;
        }
        self.intern_struct(StructDef {
            name,
            fields: Vec::new(),
            size: 0,
            align: 1,
            is_union: false,
        })
    }

    /// Intern an enum definition, exporting its enumerators as constants.
    pub fn intern_enum(&mut self, def: EnumDef) -> TypeId {
        let name = def.name.clone();
        let variants = def.variants.clone();
        let id = self.push(Type {
            kind: TypeKind::Enum(def),
        });
        self.by_name.insert(name, id);
        for (n, v) in variants {
            self.consts.insert(
                n.clone(),
                EnumConst {
                    name: n,
                    value: v,
                    ty: Some(id),
                },
            );
        }
        self.changed();
        id
    }

    /// Intern a function type with a display signature (for `FunPtr` text).
    pub fn func(&mut self, signature: impl Into<String>) -> TypeId {
        let id = self.push(Type {
            kind: TypeKind::Func(signature.into()),
        });
        self.changed();
        id
    }

    /// Register a macro-style integer constant (e.g. a bit-flag `#define`).
    pub fn define_const(&mut self, name: impl Into<String>, value: i64) {
        let name = name.into();
        self.consts.insert(
            name.clone(),
            EnumConst {
                name,
                value,
                ty: None,
            },
        );
        self.changed();
    }

    /// Look up a named constant (enumerator or macro).
    pub fn lookup_const(&self, name: &str) -> Result<&EnumConst> {
        self.consts
            .get(name)
            .ok_or_else(|| TypeError::UnknownEnumConst(name.to_string()))
    }

    /// Read-only probe for an already-interned named type.
    ///
    /// Unlike [`lookup`](Self::lookup) this never interns primitives, so it
    /// works on a shared reference.
    pub fn find(&self, name: &str) -> Option<TypeId> {
        let name = bare_name(name);
        if let Some(id) = self.by_name.get(name) {
            return Some(*id);
        }
        Prim::from_name(name).and_then(|p| self.prims.get(&p).copied())
    }

    /// Look up a type by name: struct/union/enum tag, primitive spelling,
    /// or a kernel integer typedef.
    pub fn lookup(&mut self, name: &str) -> Result<TypeId> {
        let name = bare_name(name);
        if let Some(&id) = self.by_name.get(name) {
            return Ok(id);
        }
        if let Some(p) = Prim::from_name(name) {
            return Ok(self.prim(p));
        }
        Err(TypeError::UnknownType(name.to_string()))
    }

    /// Get the type descriptor for an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this registry.
    pub fn get(&self, id: TypeId) -> &Type {
        &self.types[id.index()]
    }

    /// Size in bytes of values of type `id`.
    pub fn size_of(&self, id: TypeId) -> u64 {
        match &self.get(id).kind {
            TypeKind::Prim(p) => p.size(),
            TypeKind::Pointer(_) => crate::PTR_SIZE,
            TypeKind::Array { elem, len } => self.size_of(*elem) * len,
            TypeKind::Struct(s) => s.size,
            TypeKind::Enum(e) => e.size,
            TypeKind::Func(_) => 0,
        }
    }

    /// Alignment in bytes of values of type `id`.
    pub fn align_of(&self, id: TypeId) -> u64 {
        match &self.get(id).kind {
            TypeKind::Prim(p) => p.align(),
            TypeKind::Pointer(_) => crate::PTR_SIZE,
            TypeKind::Array { elem, .. } => self.align_of(*elem),
            TypeKind::Struct(s) => s.align,
            TypeKind::Enum(_) => 4,
            TypeKind::Func(_) => 1,
        }
    }

    /// Whether integer reads of this type sign-extend.
    pub fn is_signed(&self, id: TypeId) -> bool {
        match &self.get(id).kind {
            TypeKind::Prim(p) => p.signed(),
            TypeKind::Enum(_) => true,
            _ => false,
        }
    }

    /// The struct/union definition behind `id`, if it is one.
    pub fn struct_def(&self, id: TypeId) -> Option<&StructDef> {
        match &self.get(id).kind {
            TypeKind::Struct(s) => Some(s),
            _ => None,
        }
    }

    /// The enum definition behind `id`, if it is one.
    pub fn enum_def(&self, id: TypeId) -> Option<&EnumDef> {
        match &self.get(id).kind {
            TypeKind::Enum(e) => Some(e),
            _ => None,
        }
    }

    /// The pointee of a pointer type.
    pub fn pointee(&self, id: TypeId) -> Result<TypeId> {
        match &self.get(id).kind {
            TypeKind::Pointer(t) => Ok(*t),
            _ => Err(TypeError::NotPointer(self.display_name(id))),
        }
    }

    /// A human-readable name for any type.
    pub fn display_name(&self, id: TypeId) -> String {
        match &self.get(id).kind {
            TypeKind::Prim(p) => p.c_name().to_string(),
            TypeKind::Pointer(t) => format!("{} *", self.display_name(*t)),
            TypeKind::Array { elem, len } => format!("{}[{len}]", self.display_name(*elem)),
            TypeKind::Struct(s) => {
                if s.is_union {
                    format!("union {}", s.name)
                } else {
                    format!("struct {}", s.name)
                }
            }
            TypeKind::Enum(e) => format!("enum {}", e.name),
            TypeKind::Func(sig) => sig.clone(),
        }
    }

    /// The bare tag name of a struct/union/enum type, if it has one.
    pub fn tag_name(&self, id: TypeId) -> Option<&str> {
        match &self.get(id).kind {
            TypeKind::Struct(s) => Some(&s.name),
            TypeKind::Enum(e) => Some(&e.name),
            _ => None,
        }
    }

    /// Resolve the byte offset and type of a (possibly nested) field path
    /// like `se.run_node` or `tasks[0]` starting from aggregate `base`.
    ///
    /// Array components may carry one or more `[index]` suffixes.
    pub fn field_path(&self, base: TypeId, path: &str) -> Result<(u64, TypeId)> {
        let mut ty = base;
        let mut off = 0u64;
        for comp in path.split('.') {
            let (name, mut rest) = match comp.find('[') {
                Some(i) => (&comp[..i], &comp[i..]),
                None => (comp, ""),
            };
            let def = self
                .struct_def(ty)
                .ok_or_else(|| TypeError::NotAggregate(self.display_name(ty)))?;
            let f = def.field(name).ok_or_else(|| TypeError::UnknownField {
                ty: def.name.clone(),
                field: name.to_string(),
            })?;
            off += f.offset;
            ty = f.ty;
            while let Some(stripped) = rest.strip_prefix('[') {
                let close = stripped.find(']').ok_or_else(|| TypeError::UnknownField {
                    ty: self.display_name(ty),
                    field: comp.to_string(),
                })?;
                let index: u64 =
                    stripped[..close]
                        .parse()
                        .map_err(|_| TypeError::UnknownField {
                            ty: self.display_name(ty),
                            field: comp.to_string(),
                        })?;
                match &self.get(ty).kind {
                    TypeKind::Array { elem, len } => {
                        if index >= *len {
                            return Err(TypeError::IndexOutOfRange {
                                len: *len as usize,
                                index: index as usize,
                            });
                        }
                        off += self.size_of(*elem) * index;
                        ty = *elem;
                    }
                    _ => return Err(TypeError::NotAggregate(self.display_name(ty))),
                }
                rest = &stripped[close + 1..];
            }
        }
        Ok((off, ty))
    }

    /// Intern a pointer type for every named struct/union/enum currently
    /// registered.
    ///
    /// Expression evaluation happens against a *shared* registry (a
    /// debugger cannot grow the target's DWARF), so cast targets like
    /// `(struct task_struct *)p` must have been interned ahead of time;
    /// calling this once after type registration guarantees that.
    pub fn ensure_pointers(&mut self) {
        let named: Vec<TypeId> = self.by_name.values().copied().collect();
        for id in named {
            self.pointer_to(id);
        }
        let prims = [
            Prim::Void,
            Prim::Bool,
            Prim::Char,
            Prim::I8,
            Prim::U8,
            Prim::I16,
            Prim::U16,
            Prim::I32,
            Prim::U32,
            Prim::I64,
            Prim::U64,
        ];
        for p in prims {
            let id = self.prim(p);
            self.pointer_to(id);
        }
    }

    /// Find the interned pointer-to-`target` type, if any.
    pub fn find_pointer_to(&self, target: TypeId) -> Option<TypeId> {
        self.pointers.get(target.index()).copied().flatten()
    }

    /// Total number of interned types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }
}

/// `name` without surrounding whitespace and without its leading
/// `struct `, then `union `, then `enum ` tags (each possibly repeated).
/// Plain prefix compares: the interpreter resolves a type name on most
/// evaluations.
fn bare_name(name: &str) -> &str {
    let mut name = name.trim();
    for tag in ["struct ", "union ", "enum "] {
        while let Some(rest) = name.strip_prefix(tag) {
            name = rest;
        }
    }
    name.trim()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StructBuilder;

    #[test]
    fn primitives_are_interned_once() {
        let mut r = TypeRegistry::new();
        assert_eq!(r.prim(Prim::U64), r.prim(Prim::U64));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn pointer_and_array_interning() {
        let mut r = TypeRegistry::new();
        let u8_t = r.prim(Prim::U8);
        assert_eq!(r.pointer_to(u8_t), r.pointer_to(u8_t));
        assert_eq!(r.array_of(u8_t, 4), r.array_of(u8_t, 4));
        assert_ne!(r.array_of(u8_t, 4), r.array_of(u8_t, 5));
    }

    #[test]
    fn lookup_strips_struct_keyword() {
        let mut r = TypeRegistry::new();
        let u64_t = r.prim(Prim::U64);
        let ty = StructBuilder::new("task_struct")
            .field("pid", u64_t)
            .build(&mut r);
        assert_eq!(r.lookup("task_struct").unwrap(), ty);
        assert_eq!(r.lookup("struct task_struct").unwrap(), ty);
        assert!(r.lookup("no_such_struct").is_err());
    }

    #[test]
    fn find_and_lookup_strip_tags_and_whitespace() {
        let mut r = TypeRegistry::new();
        let u64_t = r.prim(Prim::U64);
        let task = StructBuilder::new("task_struct")
            .field("pid", u64_t)
            .build(&mut r);
        let maple = r.intern_enum(EnumDef {
            name: "maple_type".into(),
            variants: vec![("maple_dense".into(), 0)],
            size: 4,
        });
        let long = r.prim(Prim::I64);
        let cases = [
            (" struct  task_struct ", Some(task)),
            ("struct struct task_struct", Some(task)),
            // Tags strip in the order struct, union, enum: a `struct`
            // after a `union` survives, and the name is not found.
            ("union struct task_struct", None),
            ("enum maple_type", Some(maple)),
            ("  long ", Some(long)),
        ];
        for (name, want) in cases {
            assert_eq!(r.find(name), want, "find({name:?})");
            assert_eq!(r.lookup(name).ok(), want, "lookup({name:?})");
        }
    }

    #[test]
    fn every_mutation_takes_a_fresh_stamp_and_long_stays_current() {
        let mut r = TypeRegistry::new();
        assert_ne!(r.stamp(), TypeRegistry::new().stamp(), "two registries");
        assert_eq!(r.long(), None);
        let mut seen = vec![r.stamp()];
        let long = r.prim(Prim::I64);
        seen.push(r.stamp());
        assert_eq!(r.long(), Some(long));
        assert_eq!(r.find("long"), r.long());
        let u8_t = r.prim(Prim::U8);
        seen.push(r.stamp());
        r.pointer_to(u8_t);
        seen.push(r.stamp());
        r.array_of(u8_t, 2);
        seen.push(r.stamp());
        r.declare_struct("mm_struct");
        seen.push(r.stamp());
        StructBuilder::new("mm_struct")
            .field("x", u8_t)
            .build(&mut r);
        seen.push(r.stamp());
        r.define_const("X", 1);
        seen.push(r.stamp());
        r.func("void f(void)");
        seen.push(r.stamp());
        let stamp = r.stamp();
        assert_eq!(r.prim(Prim::U8), u8_t);
        assert_eq!(r.stamp(), stamp, "re-interning changes nothing");
        for (i, a) in seen.iter().enumerate() {
            assert!(!seen[i + 1..].contains(a), "stamp {i} repeats");
        }
    }

    #[test]
    fn enum_constants_are_exported() {
        let mut r = TypeRegistry::new();
        r.intern_enum(EnumDef {
            name: "maple_type".into(),
            variants: vec![("maple_dense".into(), 0), ("maple_leaf_64".into(), 1)],
            size: 4,
        });
        assert_eq!(r.lookup_const("maple_leaf_64").unwrap().value, 1);
        assert!(r.lookup_const("maple_sparse").is_err());
    }

    #[test]
    fn macro_constants() {
        let mut r = TypeRegistry::new();
        r.define_const("PIPE_BUF_FLAG_CAN_MERGE", 0x10);
        assert_eq!(
            r.lookup_const("PIPE_BUF_FLAG_CAN_MERGE").unwrap().value,
            0x10
        );
        assert!(r
            .lookup_const("PIPE_BUF_FLAG_CAN_MERGE")
            .unwrap()
            .ty
            .is_none());
    }

    #[test]
    fn field_path_resolves_nested_offsets() {
        let mut r = TypeRegistry::new();
        let u64_t = r.prim(Prim::U64);
        let inner = StructBuilder::new("sched_entity")
            .field("load", u64_t)
            .field("vruntime", u64_t)
            .build(&mut r);
        let outer = StructBuilder::new("task_struct")
            .field("pid", u64_t)
            .field("se", inner)
            .build(&mut r);
        let (off, ty) = r.field_path(outer, "se.vruntime").unwrap();
        assert_eq!(off, 16);
        assert_eq!(ty, u64_t);
    }

    #[test]
    fn field_path_error_on_scalar() {
        let mut r = TypeRegistry::new();
        let u64_t = r.prim(Prim::U64);
        assert!(matches!(
            r.field_path(u64_t, "x"),
            Err(TypeError::NotAggregate(_))
        ));
    }

    #[test]
    fn forward_declaration_completes_in_place() {
        let mut r = TypeRegistry::new();
        let fwd = r.declare_struct("mm_struct");
        let ptr = r.pointer_to(fwd);
        let u64_t = r.prim(Prim::U64);
        let full = StructBuilder::new("mm_struct")
            .field("mmap_base", u64_t)
            .build(&mut r);
        assert_eq!(fwd, full, "completion must reuse the declared id");
        assert_eq!(r.pointee(ptr).unwrap(), full);
        assert_eq!(r.size_of(full), 8);
        // Declaring again returns the completed type.
        assert_eq!(r.declare_struct("mm_struct"), full);
    }

    #[test]
    fn display_names() {
        let mut r = TypeRegistry::new();
        let u8_t = r.prim(Prim::U8);
        let p = r.pointer_to(u8_t);
        let a = r.array_of(p, 3);
        assert_eq!(r.display_name(a), "u8 *[3]");
    }
}
