//! The kernel image and its builder.

use kmem::{Mem, ObjWriter, SymbolTable, Zone};
use ktypes::{TypeId, TypeRegistry};

use crate::common::CommonTypes;

/// Base of the simulated kernel text section (function symbols).
pub const TEXT_BASE: u64 = 0xffff_ffff_8100_0000;
/// Base of the kernel static data section (global objects).
pub const DATA_BASE: u64 = 0xffff_ffff_8300_0000;
/// Base of the direct-map heap (slab objects).
pub const HEAP_BASE: u64 = 0xffff_8880_0400_0000;
/// Base of the per-CPU area.
pub const PERCPU_BASE: u64 = 0xffff_8880_3fc0_0000;
/// Base of the vmemmap (`struct page` array).
pub const VMEMMAP_BASE: u64 = 0xffff_ea00_0000_0000;
/// Base of the zone backing page-frame contents (file data, pipe data).
pub const PAGEDATA_BASE: u64 = 0xffff_8881_0000_0000;

/// A finished, read-only kernel memory image plus its "debug info".
///
/// This is what the debugger bridge attaches to — the equivalent of a
/// stopped QEMU guest plus its `vmlinux` symbols.
pub struct KernelImage {
    /// Raw target memory.
    pub mem: Mem,
    /// Type layouts (the DWARF stand-in).
    pub types: TypeRegistry,
    /// The `System.map` stand-in.
    pub symbols: SymbolTable,
    /// Handles to all registered kernel types.
    pub layout: KernelLayout,
}

/// Type ids for every kernel struct the subsystems register, so that
/// builders and tests do not re-lookup by name.
///
/// Filled incrementally as subsystem type modules run; ids for subsystems
/// that were never initialized stay `None`.
#[derive(Debug, Default, Clone)]
pub struct KernelLayout {
    /// `struct list_head`.
    pub list_head: Option<TypeId>,
    /// `struct task_struct`.
    pub task_struct: Option<TypeId>,
    /// `struct mm_struct`.
    pub mm_struct: Option<TypeId>,
    /// `struct vm_area_struct`.
    pub vm_area_struct: Option<TypeId>,
    /// `struct maple_node`.
    pub maple_node: Option<TypeId>,
    /// `struct page`.
    pub page: Option<TypeId>,
}

impl KernelImage {
    /// Total bytes of mapped target memory.
    pub fn mapped_bytes(&self) -> u64 {
        self.mem.mapped_pages() as u64 * kmem::PAGE_SIZE
    }
}

/// Mutable context threaded through all subsystem builders.
pub struct KernelBuilder {
    /// Target memory being populated.
    pub mem: Mem,
    /// Type registry being populated.
    pub types: TypeRegistry,
    /// Symbol table being populated.
    pub symbols: SymbolTable,
    /// Shared base types (lists, locks, atomics, …).
    pub common: CommonTypes,
    /// Handles to registered kernel types.
    pub layout: KernelLayout,
    text: Zone,
    data: Zone,
    heap: Zone,
    percpu: Zone,
    pagedata: Zone,
}

impl KernelBuilder {
    /// Create a builder with empty memory and the common types registered.
    pub fn new() -> Self {
        let mut types = TypeRegistry::new();
        let common = CommonTypes::register(&mut types);
        KernelBuilder {
            mem: Mem::new(),
            types,
            symbols: SymbolTable::new(),
            common,
            layout: KernelLayout::default(),
            text: Zone::new("text", TEXT_BASE, 64 << 20),
            data: Zone::new("data", DATA_BASE, 256 << 20),
            heap: Zone::new("heap", HEAP_BASE, 1 << 30),
            percpu: Zone::new("percpu", PERCPU_BASE, 16 << 20),
            pagedata: Zone::new("pagedata", PAGEDATA_BASE, 256 << 20),
        }
    }

    /// Allocate a zeroed object of type `ty` on the heap, returning its
    /// address.
    pub fn alloc(&mut self, ty: TypeId) -> u64 {
        let (size, align) = (self.types.size_of(ty), self.types.align_of(ty));
        self.heap.alloc(&mut self.mem, size, align)
    }

    /// Allocate a zeroed heap object with an explicit alignment (e.g. the
    /// 256-byte slab alignment of `maple_node`).
    pub fn alloc_aligned(&mut self, ty: TypeId, align: u64) -> u64 {
        let size = self.types.size_of(ty);
        let align = align.max(self.types.align_of(ty));
        self.heap.alloc(&mut self.mem, size, align)
    }

    /// Allocate a zeroed object in the static data section and register it
    /// as a global symbol.
    pub fn alloc_global(&mut self, name: &str, ty: TypeId) -> u64 {
        let (size, align) = (self.types.size_of(ty), self.types.align_of(ty));
        let addr = self.data.alloc(&mut self.mem, size, align);
        self.symbols.define_object(name, addr, ty);
        addr
    }

    /// Allocate an object in the per-CPU area.
    pub fn alloc_percpu(&mut self, ty: TypeId) -> u64 {
        let (size, align) = (self.types.size_of(ty), self.types.align_of(ty));
        self.percpu.alloc(&mut self.mem, size, align)
    }

    /// Allocate raw bytes in the page-data zone (file contents, pipe
    /// buffers); returns a page-aligned address.
    pub fn alloc_pagedata(&mut self, len: u64) -> u64 {
        self.pagedata
            .alloc(&mut self.mem, len.max(1), kmem::PAGE_SIZE)
    }

    /// Register a fake function entry point and return its address
    /// (used for function-pointer fields like `work->func`).
    pub fn func_sym(&mut self, name: &str) -> u64 {
        if let Some(s) = self.symbols.lookup(name) {
            return s.addr;
        }
        let addr = self.text.alloc(&mut self.mem, 16, 16);
        self.symbols.define_function(name, addr);
        addr
    }

    /// A typed writer for the object of type `ty` at `addr`.
    pub fn obj(&mut self, addr: u64, ty: TypeId) -> ObjWriter<'_> {
        ObjWriter::new(&mut self.mem, &self.types, addr, ty)
    }

    /// Finish building: freeze into an immutable image.
    pub fn finish(self) -> KernelImage {
        KernelImage {
            mem: self.mem,
            types: self.types,
            symbols: self.symbols,
            layout: self.layout,
        }
    }
}

impl Default for KernelBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zones_are_disjoint_kernel_like_ranges() {
        let mut b = KernelBuilder::new();
        let t = b.common.list_head;
        let heap_obj = b.alloc(t);
        let global = b.alloc_global("init_something", t);
        let per = b.alloc_percpu(t);
        assert!((HEAP_BASE..PERCPU_BASE).contains(&heap_obj));
        assert!(global >= DATA_BASE);
        assert!(per >= PERCPU_BASE);
    }

    #[test]
    fn func_sym_is_idempotent() {
        let mut b = KernelBuilder::new();
        let a1 = b.func_sym("vmstat_update");
        let a2 = b.func_sym("vmstat_update");
        assert_eq!(a1, a2);
        assert_eq!(b.symbols.name_at(a1), Some("vmstat_update"));
    }

    #[test]
    fn finish_preserves_symbols_and_memory() {
        let mut b = KernelBuilder::new();
        let t = b.common.list_head;
        let g = b.alloc_global("init_task_dummy", t);
        b.mem.write_uint(g, 8, 0x1234);
        let img = b.finish();
        assert_eq!(img.mem.read_uint(g, 8).unwrap(), 0x1234);
        assert!(img.symbols.lookup("init_task_dummy").is_some());
        assert!(img.mapped_bytes() > 0);
    }
}
