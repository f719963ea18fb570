//! The sparse, page-granular memory image.

use std::collections::HashMap;

use crate::{MemError, Result};

/// Page size of the simulated target (matches x86-64 Linux).
pub const PAGE_SIZE: u64 = 4096;

/// A sparse byte-addressed memory image.
///
/// Pages are materialized on first write; reading an address that was never
/// written faults with [`MemError::Unmapped`], which is how the debugger
/// bridge reports dangling pointers (e.g. a use-after-free probe touching a
/// truly freed object).
#[derive(Debug, Default)]
pub struct Mem {
    pages: HashMap<u64, Box<[u8]>>,
    /// When `Some`, every mutation appends the byte range it touched.
    /// Off by default: the workload build phase issues millions of
    /// writes nobody will ever diff against.
    dirty: Option<Vec<(u64, u64)>>,
}

impl Mem {
    /// Create an empty image.
    pub fn new() -> Self {
        Self::default()
    }

    fn page_of(addr: u64) -> (u64, usize) {
        (addr / PAGE_SIZE, (addr % PAGE_SIZE) as usize)
    }

    /// Start logging the byte range of every subsequent mutation
    /// ([`write`](Self::write), [`unmap`](Self::unmap), and fresh pages
    /// from [`map`](Self::map)). Call after the image is built so the
    /// log holds only stop-to-stop mutations.
    pub fn enable_dirty_tracking(&mut self) {
        if self.dirty.is_none() {
            self.dirty = Some(Vec::new());
        }
    }

    /// Whether mutations are currently being logged.
    pub fn dirty_tracking(&self) -> bool {
        self.dirty.is_some()
    }

    /// Drain the mutation log: the raw `(addr, len)` ranges touched
    /// since tracking was enabled or last drained, in write order,
    /// unmerged. `None` when tracking is off — callers must then assume
    /// anything may have changed.
    pub fn take_dirty(&mut self) -> Option<Vec<(u64, u64)>> {
        self.dirty.as_mut().map(std::mem::take)
    }

    fn note_dirty(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        if let Some(log) = &mut self.dirty {
            // Coalesce the common pattern of consecutive field writes.
            if let Some(last) = log.last_mut() {
                if last.0 + last.1 == addr {
                    last.1 += len;
                    return;
                }
            }
            log.push((addr, len));
        }
    }

    /// Map (zero-fill) the pages covering `[addr, addr + len)`.
    pub fn map(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = addr / PAGE_SIZE;
        let last = (addr + len - 1) / PAGE_SIZE;
        for p in first..=last {
            let mut fresh = false;
            self.pages.entry(p).or_insert_with(|| {
                fresh = true;
                vec![0u8; PAGE_SIZE as usize].into_boxed_slice()
            });
            if fresh {
                // A newly mapped page flips reads from faulting to zero.
                self.note_dirty(p * PAGE_SIZE, PAGE_SIZE);
            }
        }
    }

    /// Remove the mapping of every page fully covered by `[addr, addr+len)`,
    /// plus the partially covered edge pages.
    ///
    /// Used by bug-injection scenarios to simulate freed memory: subsequent
    /// reads fault like GDB reading a truly recycled page would misbehave.
    pub fn unmap(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = addr / PAGE_SIZE;
        let last = (addr + len - 1) / PAGE_SIZE;
        for p in first..=last {
            if self.pages.remove(&p).is_some() {
                self.note_dirty(p * PAGE_SIZE, PAGE_SIZE);
            }
        }
    }

    /// Read `out.len()` bytes starting at `addr`.
    pub fn read(&self, addr: u64, out: &mut [u8]) -> Result<()> {
        let mut addr = addr;
        let mut out = out;
        while !out.is_empty() {
            let (page, off) = Self::page_of(addr);
            let p = self.pages.get(&page).ok_or(MemError::Unmapped { addr })?;
            let n = (PAGE_SIZE as usize - off).min(out.len());
            out[..n].copy_from_slice(&p[off..off + n]);
            out = &mut out[n..];
            addr += n as u64;
        }
        Ok(())
    }

    /// Write `data` starting at `addr`, materializing pages as needed.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        self.note_dirty(addr, data.len() as u64);
        let mut addr = addr;
        let mut data = data;
        while !data.is_empty() {
            let (page, off) = Self::page_of(addr);
            let p = self
                .pages
                .entry(page)
                .or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
            let n = (PAGE_SIZE as usize - off).min(data.len());
            p[off..off + n].copy_from_slice(&data[..n]);
            data = &data[n..];
            addr += n as u64;
        }
    }

    /// Read an unsigned little-endian integer of `size` bytes.
    pub fn read_uint(&self, addr: u64, size: usize) -> Result<u64> {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf[..size])?;
        Ok(ktypes::read_uint(&buf, size))
    }

    /// Read a signed little-endian integer of `size` bytes.
    pub fn read_int(&self, addr: u64, size: usize) -> Result<i64> {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf[..size])?;
        Ok(ktypes::read_int(&buf, size))
    }

    /// Write an integer of `size` bytes at `addr`.
    pub fn write_uint(&mut self, addr: u64, size: usize, value: u64) {
        let mut buf = [0u8; 8];
        ktypes::write_int(&mut buf, size, value);
        self.write(addr, &buf[..size]);
    }

    /// Read a NUL-terminated C string (capped at `max` bytes).
    pub fn read_cstr(&self, addr: u64, max: usize) -> Result<String> {
        let mut s = Vec::new();
        // One page lookup per page the string touches; a fault names the
        // first byte that is not mapped.
        let mut i = 0;
        while i < max {
            let at = addr + i as u64;
            let (page, off) = Self::page_of(at);
            let p = self
                .pages
                .get(&page)
                .ok_or(MemError::Unmapped { addr: at })?;
            let bytes = &p[off..off + (PAGE_SIZE as usize - off).min(max - i)];
            if let Some(nul) = bytes.iter().position(|&b| b == 0) {
                s.extend_from_slice(&bytes[..nul]);
                break;
            }
            s.extend_from_slice(bytes);
            i += bytes.len();
        }
        Ok(String::from_utf8(s)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()))
    }

    /// Write a NUL-terminated C string at `addr`.
    pub fn write_cstr(&mut self, addr: u64, s: &str) {
        self.write(addr, s.as_bytes());
        self.write(addr + s.len() as u64, &[0u8]);
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn read_unmapped_faults() {
        let m = Mem::new();
        let mut b = [0u8; 4];
        assert_eq!(
            m.read(0x1000, &mut b),
            Err(MemError::Unmapped { addr: 0x1000 })
        );
    }

    #[test]
    fn write_then_read_across_page_boundary() {
        let mut m = Mem::new();
        let addr = PAGE_SIZE - 3;
        m.write(addr, &[1, 2, 3, 4, 5, 6]);
        let mut out = [0u8; 6];
        m.read(addr, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4, 5, 6]);
        assert_eq!(m.mapped_pages(), 2);
    }

    #[test]
    fn unmap_makes_reads_fault_again() {
        let mut m = Mem::new();
        m.write(0x4000, &[9; 16]);
        let mut b = [0u8];
        m.read(0x4000, &mut b).unwrap();
        assert_eq!(b, [9]);
        m.unmap(0x4000, 16);
        assert!(m.read(0x4000, &mut b).is_err());
    }

    #[test]
    fn map_zero_fills() {
        let mut m = Mem::new();
        m.map(0x2000, 64);
        assert_eq!(m.read_uint(0x2010, 8).unwrap(), 0);
    }

    #[test]
    fn cstr_round_trip() {
        let mut m = Mem::new();
        m.write_cstr(0x100, "swapper/0");
        assert_eq!(m.read_cstr(0x100, 16).unwrap(), "swapper/0");
        // Truncation at `max`.
        assert_eq!(m.read_cstr(0x100, 4).unwrap(), "swap");
        // A string running off its last mapped page faults at the first
        // unmapped byte, and one ending before it does not.
        m.write(0xff8, b"abcdefgh");
        assert_eq!(m.read_cstr(0xffc, 3).unwrap(), "efg");
        assert_eq!(
            m.read_cstr(0xffc, 8),
            Err(MemError::Unmapped { addr: 0x1000 })
        );
        m.write(0x1000, b"ij\0");
        assert_eq!(m.read_cstr(0xffc, 64).unwrap(), "efghij");
    }

    #[test]
    fn uint_round_trip_all_sizes() {
        let mut m = Mem::new();
        for size in 1..=8 {
            let v = 0x1122_3344_5566_7788u64 & ((1u128 << (size * 8)) - 1) as u64;
            m.write_uint(0x900, size, v);
            assert_eq!(m.read_uint(0x900, size).unwrap(), v, "size {size}");
        }
    }

    #[test]
    fn dirty_tracking_logs_only_post_enable_mutations() {
        let mut m = Mem::new();
        m.write(0x1000, &[1; 16]);
        assert_eq!(m.take_dirty(), None, "off by default");
        m.enable_dirty_tracking();
        assert!(m.dirty_tracking());
        assert_eq!(m.take_dirty(), Some(Vec::new()), "nothing dirty yet");
        m.write_uint(0x2000, 8, 7);
        m.write_uint(0x2008, 8, 9); // adjacent: coalesces with the previous
        m.write_uint(0x3000, 4, 1);
        assert_eq!(m.take_dirty(), Some(vec![(0x2000, 16), (0x3000, 4)]));
        // Draining resets the log.
        assert_eq!(m.take_dirty(), Some(Vec::new()));
    }

    #[test]
    fn dirty_tracking_covers_map_and_unmap() {
        let mut m = Mem::new();
        m.write(0x5000, &[3; 8]);
        m.enable_dirty_tracking();
        m.unmap(0x5000, 8);
        m.map(0x9000, 8);
        m.map(0x9000, 8); // already mapped: not dirty again
        m.unmap(0x20000, 8); // never mapped: nothing changed
        assert_eq!(
            m.take_dirty(),
            Some(vec![(0x5000, PAGE_SIZE), (0x9000, PAGE_SIZE)])
        );
    }

    proptest! {
        #[test]
        fn prop_write_read_round_trip(addr in 0u64..1_000_000, data in proptest::collection::vec(any::<u8>(), 1..128)) {
            let mut m = Mem::new();
            m.write(addr, &data);
            let mut out = vec![0u8; data.len()];
            m.read(addr, &mut out).unwrap();
            prop_assert_eq!(out, data);
        }

        #[test]
        fn prop_disjoint_writes_do_not_interfere(
            a in 0u64..100_000,
            b in 200_000u64..300_000,
            da in proptest::collection::vec(any::<u8>(), 1..64),
            db in proptest::collection::vec(any::<u8>(), 1..64),
        ) {
            let mut m = Mem::new();
            m.write(a, &da);
            m.write(b, &db);
            let mut out = vec![0u8; da.len()];
            m.read(a, &mut out).unwrap();
            prop_assert_eq!(out, da);
        }
    }
}
