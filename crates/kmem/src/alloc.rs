//! Bump allocators carving objects out of kernel-like address ranges.

use crate::mem::Mem;

/// A bump allocator over a fixed virtual-address range.
///
/// The kernel simulator uses one zone per kind of memory so that addresses
/// *look* like a real x86-64 kernel's: a text zone for function symbols, a
/// direct-map "heap" for slab objects, a percpu zone, and a vmemmap-style
/// zone for `struct page` arrays. Keeping kinds apart also makes plots and
/// test failures readable.
#[derive(Debug)]
pub struct Zone {
    name: &'static str,
    base: u64,
    end: u64,
    next: u64,
}

impl Zone {
    /// Create a zone spanning `[base, base + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range wraps the address space.
    pub fn new(name: &'static str, base: u64, len: u64) -> Self {
        let end = base.checked_add(len).expect("zone range overflows");
        Zone {
            name,
            base,
            end,
            next: base,
        }
    }

    /// The zone's name (for diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Allocate `size` bytes aligned to `align`, mapping the backing pages.
    ///
    /// # Panics
    ///
    /// Panics on zone exhaustion — the simulated image is sized by the
    /// workload generator, so running out indicates a bug, not a runtime
    /// condition a caller could handle.
    pub fn alloc(&mut self, mem: &mut Mem, size: u64, align: u64) -> u64 {
        let align = align.max(1);
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = (self.next + align - 1) & !(align - 1);
        let new_next = addr + size.max(1);
        assert!(
            new_next <= self.end,
            "zone `{}` exhausted: {} bytes requested at {:#x}",
            self.name,
            size,
            addr
        );
        self.next = new_next;
        mem.map(addr, size.max(1));
        addr
    }

    /// Bytes handed out so far.
    pub fn used(&self) -> u64 {
        self.next - self.base
    }

    /// Whether `addr` falls inside this zone's range.
    pub fn contains(&self, addr: u64) -> bool {
        (self.base..self.end).contains(&addr)
    }

    /// The zone's base address.
    pub fn base(&self) -> u64 {
        self.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment() {
        let mut mem = Mem::new();
        let mut z = Zone::new("heap", 0xffff_8880_0000_0000, 1 << 20);
        let a = z.alloc(&mut mem, 1, 1);
        let b = z.alloc(&mut mem, 8, 8);
        assert_eq!(b % 8, 0);
        assert!(b > a);
    }

    #[test]
    fn alloc_maps_backing_pages() {
        let mut mem = Mem::new();
        let mut z = Zone::new("heap", 0x10_0000, 1 << 20);
        let a = z.alloc(&mut mem, 4096 * 2, 4096);
        assert_eq!(mem.read_uint(a, 8).unwrap(), 0);
        assert_eq!(mem.read_uint(a + 4096, 8).unwrap(), 0);
    }

    #[test]
    fn contains_and_used() {
        let mut mem = Mem::new();
        let mut z = Zone::new("text", 0x1000, 0x1000);
        let a = z.alloc(&mut mem, 16, 16);
        assert!(z.contains(a));
        assert!(!z.contains(0x3000));
        assert_eq!(z.used(), 16);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut mem = Mem::new();
        let mut z = Zone::new("tiny", 0x1000, 32);
        z.alloc(&mut mem, 64, 1);
    }

    #[test]
    fn zero_size_alloc_still_advances() {
        let mut mem = Mem::new();
        let mut z = Zone::new("z", 0x1000, 0x1000);
        let a = z.alloc(&mut mem, 0, 8);
        let b = z.alloc(&mut mem, 0, 8);
        assert_ne!(a, b, "zero-sized objects must get distinct addresses");
    }
}
