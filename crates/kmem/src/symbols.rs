//! The symbol table of the simulated kernel image.

use std::collections::HashMap;

use ktypes::{Stamp, TypeId};

/// What a symbol denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolKind {
    /// A global object (e.g. `init_task`, `runqueues`).
    Object,
    /// A function entry point (used by the `FunPtr` text decorator).
    Function,
}

/// One entry of the simulated `System.map`.
#[derive(Debug, Clone)]
pub struct Symbol {
    /// Symbol name.
    pub name: String,
    /// Address in the image.
    pub addr: u64,
    /// Kind of symbol.
    pub kind: SymbolKind,
    /// Static type for object symbols (`None` for functions).
    pub ty: Option<TypeId>,
}

/// Bidirectional symbol table: name → symbol and address → name.
///
/// The reverse map is what lets Visualinux render a raw function pointer as
/// its name (paper §4.1, `FunPtr` decorator) and lets `container_of`-style
/// diagnostics name the enclosing object.
#[derive(Debug, Default)]
pub struct SymbolTable {
    by_name: HashMap<String, Symbol>,
    by_addr: HashMap<u64, String>,
    /// This state of the table; replaced by every mutation.
    stamp: Stamp,
}

impl SymbolTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a global object symbol.
    pub fn define_object(&mut self, name: impl Into<String>, addr: u64, ty: TypeId) {
        self.insert(Symbol {
            name: name.into(),
            addr,
            kind: SymbolKind::Object,
            ty: Some(ty),
        });
    }

    /// Register a function symbol.
    pub fn define_function(&mut self, name: impl Into<String>, addr: u64) {
        self.insert(Symbol {
            name: name.into(),
            addr,
            kind: SymbolKind::Function,
            ty: None,
        });
    }

    fn insert(&mut self, sym: Symbol) {
        self.by_addr.insert(sym.addr, sym.name.clone());
        self.by_name.insert(sym.name.clone(), sym);
        self.stamp = Stamp::fresh();
    }

    /// The table's current state. It changes on every mutation, so a
    /// name bound under it stays valid exactly while it is current.
    pub fn stamp(&self) -> Stamp {
        self.stamp
    }

    /// Look up a symbol by name.
    pub fn lookup(&self, name: &str) -> Option<&Symbol> {
        self.by_name.get(name)
    }

    /// Reverse-resolve an address to a symbol name (exact match).
    pub fn name_at(&self, addr: u64) -> Option<&str> {
        self.by_addr.get(&addr).map(|s| s.as_str())
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// Iterate over all symbols in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Symbol> {
        self.by_name.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktypes::{Prim, TypeRegistry};

    #[test]
    fn define_and_lookup_object() {
        let mut reg = TypeRegistry::new();
        let ty = reg.prim(Prim::U64);
        let mut t = SymbolTable::new();
        t.define_object("init_task", 0xffff_ffff_8300_0000, ty);
        let s = t.lookup("init_task").unwrap();
        assert_eq!(s.addr, 0xffff_ffff_8300_0000);
        assert_eq!(s.kind, SymbolKind::Object);
        assert!(s.ty.is_some());
    }

    #[test]
    fn reverse_lookup_names_function_pointers() {
        let mut t = SymbolTable::new();
        t.define_function("vmstat_update", 0xffff_ffff_8112_3400);
        assert_eq!(t.name_at(0xffff_ffff_8112_3400), Some("vmstat_update"));
        assert_eq!(t.name_at(0xdead), None);
    }

    #[test]
    fn every_definition_takes_a_fresh_stamp() {
        let mut t = SymbolTable::new();
        let empty = t.stamp();
        assert_ne!(empty, SymbolTable::new().stamp(), "two tables");
        t.define_function("f", 0x10);
        let one = t.stamp();
        assert_ne!(one, empty);
        t.define_function("f", 0x10);
        assert_ne!(t.stamp(), one, "a redefinition is a mutation");
    }

    #[test]
    fn redefinition_replaces() {
        let mut t = SymbolTable::new();
        t.define_function("f", 0x10);
        t.define_function("f", 0x20);
        assert_eq!(t.lookup("f").unwrap().addr, 0x20);
        assert_eq!(t.len(), 1);
    }
}
