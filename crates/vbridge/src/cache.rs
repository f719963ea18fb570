//! Snapshot block cache for the debugger bridge.
//!
//! A stopped kernel is a snapshot: until the target resumes, every byte the
//! debugger fetched stays valid. The bridge exploits that by caching target
//! memory in aligned blocks — a read that misses fetches the *whole* block
//! as one metered packet, and every later read inside the block is free.
//! This is the optimization real debugger front-ends (and the paper's GDB
//! bridge) lean on to survive slow transports like KGDB-over-serial, where
//! each round-trip costs milliseconds.
//!
//! Consistency is epoch-based: [`BlockCache::bump_epoch`] (called by
//! `core::Session` when the simulated kernel resumes) invalidates every
//! block, because resumed execution may have rewritten any of them.
//!
//! Blocks are powers of two no larger than the 4 KiB page, so a block never
//! spans a page boundary. Since the memory image maps whole pages, a block
//! is either fully mapped or fully unmapped — which is what lets the cached
//! read path fault at exactly the same address an uncached read would.
//!
//! The map is keyed by block base with [`BaseHasher`], one folded
//! multiply per lookup instead of SipHash; nothing depends on its
//! iteration order.
//!
//! A block is only its bytes. Which blocks a walk used — its
//! *footprint* — and the snapshot of the bytes it was served are
//! derived from the target's record of what the walk read
//! ([`crate::Target::end_walk`]), not tracked here; the cache only
//! lends out a range's resident bytes, block by block, for the
//! snapshot to be copied and compared in place
//! ([`crate::Target::unchanged`]).

use std::cell::{Cell, RefCell};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hasher};
use std::sync::LazyLock;

/// Block cache tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Block size in bytes: a power of two in `[8, 4096]`.
    pub block_size: u64,
    /// Capacity in blocks; the oldest block is evicted beyond this (FIFO).
    pub max_blocks: usize,
    /// Merge batched reads (`Target::read_many`) into minimal wire spans.
    /// Off, each request pays its own packet (ablation knob).
    pub coalesce: bool,
    /// Honor `Target::prefetch` hints. Off, hints are ignored
    /// (ablation knob).
    pub prefetch: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            block_size: 256,
            max_blocks: 4096,
            coalesce: true,
            prefetch: true,
        }
    }
}

impl CacheConfig {
    /// Default configuration with a different block size.
    pub fn with_block_size(block_size: u64) -> Self {
        CacheConfig {
            block_size,
            ..CacheConfig::default()
        }
    }

    fn validate(&self) {
        assert!(
            self.block_size.is_power_of_two() && (8..=4096).contains(&self.block_size),
            "cache block size must be a power of two in [8, 4096], got {}",
            self.block_size
        );
        assert!(self.max_blocks >= 1, "cache needs at least one block");
    }
}

/// `SessionBuilder::cache(16)` sugar: a bare number is a block size.
impl From<u64> for CacheConfig {
    fn from(block_size: u64) -> Self {
        CacheConfig::with_block_size(block_size)
    }
}

/// The shared snapshot cache. One per attached session; `Target`s borrow
/// it so cached blocks survive across extractions while the kernel stays
/// stopped. Interior-mutable for the same reason `Target`'s meters are:
/// reading a stopped target does not change it.
#[derive(Debug)]
pub struct BlockCache {
    cfg: CacheConfig,
    blocks: RefCell<HashMap<u64, Box<[u8]>, BaseHasher>>,
    order: RefCell<VecDeque<u64>>,
    epoch: Cell<u64>,
}

impl Default for BlockCache {
    fn default() -> Self {
        BlockCache::new(CacheConfig::default())
    }
}

impl BlockCache {
    /// Create an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        BlockCache {
            cfg,
            blocks: RefCell::new(HashMap::default()),
            order: RefCell::new(VecDeque::new()),
            epoch: Cell::new(0),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.cfg.block_size
    }

    /// The base address of the block containing `addr`.
    pub fn base_of(&self, addr: u64) -> u64 {
        addr & !(self.cfg.block_size - 1)
    }

    /// Current snapshot epoch (bumped on every resume).
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Invalidate everything: the target resumed, so any cached byte may
    /// be stale.
    pub fn bump_epoch(&self) {
        self.epoch.set(self.epoch.get() + 1);
        self.blocks.borrow_mut().clear();
        self.order.borrow_mut().clear();
    }

    /// Selective invalidation: the target resumed, but the backend knows
    /// exactly which byte ranges it mutated. Drops only the resident
    /// blocks intersecting a dirty span and advances the epoch; every
    /// clean block keeps serving reads for free across the resume —
    /// which is what makes an incremental re-walk cost packets
    /// proportional to the mutation instead of the view. Returns the
    /// number of blocks dropped.
    pub fn invalidate_spans(&self, spans: &[(u64, u64)]) -> usize {
        self.epoch.set(self.epoch.get() + 1);
        let bs = self.cfg.block_size;
        let mut blocks = self.blocks.borrow_mut();
        let before = blocks.len();
        blocks.retain(|&base, _| {
            !spans.iter().any(|&(addr, len)| {
                len > 0 && addr < base.saturating_add(bs) && addr.saturating_add(len) > base
            })
        });
        self.order
            .borrow_mut()
            .retain(|base| blocks.contains_key(base));
        before - blocks.len()
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.blocks.borrow().len()
    }

    /// Whether no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.blocks.borrow().is_empty()
    }

    /// Whether the block at `base` is resident.
    pub fn contains(&self, base: u64) -> bool {
        self.blocks.borrow().contains_key(&base)
    }

    /// Insert a fetched block, evicting the oldest beyond capacity.
    pub(crate) fn insert(&self, base: u64, data: Box<[u8]>) {
        debug_assert_eq!(base, self.base_of(base));
        debug_assert_eq!(data.len() as u64, self.cfg.block_size);
        let mut blocks = self.blocks.borrow_mut();
        let mut order = self.order.borrow_mut();
        if blocks.insert(base, data).is_none() {
            order.push_back(base);
            while blocks.len() > self.cfg.max_blocks {
                if let Some(old) = order.pop_front() {
                    blocks.remove(&old);
                }
            }
        }
    }

    /// Copy `dst.len()` bytes out of the block at `base`, starting
    /// `off` bytes in, if it is resident; one lookup either way.
    /// Panics if the range leaves the block.
    pub(crate) fn copy_from(&self, base: u64, off: usize, dst: &mut [u8]) -> bool {
        let blocks = self.blocks.borrow();
        let Some(block) = blocks.get(&base) else {
            return false;
        };
        dst.copy_from_slice(&block[off..off + dst.len()]);
        true
    }

    /// Hand `f` the resident bytes of `[addr, addr+len)` in order, one
    /// block's part at a time, while it returns true. False if a block
    /// is absent or `f` stopped.
    pub(crate) fn each_piece(&self, addr: u64, len: u64, mut f: impl FnMut(&[u8]) -> bool) -> bool {
        let blocks = self.blocks.borrow();
        let end = addr.saturating_add(len);
        let mut at = addr;
        while at < end {
            let base = self.base_of(at);
            let Some(block) = blocks.get(&base) else {
                return false;
            };
            let off = at - base;
            let n = (self.cfg.block_size - off).min(end - at);
            if !f(&block[off as usize..(off + n) as usize]) {
                return false;
            }
            at += n;
        }
        true
    }
}

/// Hashes a block base with one folded multiply: the 128-bit product of
/// the key and a constant, its halves XORed, so every key bit reaches
/// the low bits the table indexes by. The key is first mixed with a
/// per-process seed, so crafted addresses cannot aim at one bucket.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BaseHasher {
    seed: u64,
}

impl Default for BaseHasher {
    fn default() -> BaseHasher {
        static SEED: LazyLock<u64> = LazyLock::new(|| RandomState::new().hash_one(0u64));
        BaseHasher { seed: *SEED }
    }
}

impl BuildHasher for BaseHasher {
    type Hasher = BaseHash;

    fn build_hasher(&self) -> BaseHash {
        BaseHash(self.seed)
    }
}

/// The state of one [`BaseHasher`] hash.
pub(crate) struct BaseHash(u64);

impl Hasher for BaseHash {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_and_alignment() {
        let c = BlockCache::new(CacheConfig::default());
        assert_eq!(c.base_of(0x1234), 0x1200);
        assert!(!c.contains(0x1200));
        c.insert(0x1200, vec![7u8; 256].into_boxed_slice());
        assert!(c.contains(0x1200));
        let mut out = [0u8; 4];
        assert!(c.copy_from(0x1200, 0x34, &mut out));
        assert_eq!(out, [7; 4]);
        assert!(!c.copy_from(0x1300, 0, &mut out), "absent block");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn bump_epoch_invalidates() {
        let c = BlockCache::new(CacheConfig::default());
        c.insert(0, vec![0u8; 256].into_boxed_slice());
        assert_eq!((c.epoch(), c.len()), (0, 1));
        c.bump_epoch();
        assert_eq!((c.epoch(), c.len()), (1, 0));
        assert!(!c.contains(0));
    }

    #[test]
    fn invalidate_spans_drops_only_intersecting_blocks() {
        let c = BlockCache::new(CacheConfig::default());
        for base in [0x000u64, 0x100, 0x200, 0x300] {
            c.insert(base, vec![base as u8; 256].into_boxed_slice());
        }
        // A span straddling the 0x100/0x200 boundary kills both blocks;
        // 0x000 and 0x300 survive the resume.
        assert_eq!(c.invalidate_spans(&[(0x1f8, 16)]), 2);
        assert_eq!(c.epoch(), 1, "selective invalidation is still a resume");
        assert!(c.contains(0x000) && c.contains(0x300));
        assert!(!c.contains(0x100) && !c.contains(0x200));
        // Empty spans touch nothing; eviction order stays consistent.
        assert_eq!(c.invalidate_spans(&[(0x80, 0)]), 0);
        assert_eq!(c.len(), 2);
        c.insert(0x400, vec![1u8; 256].into_boxed_slice());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn fifo_eviction_beyond_capacity() {
        let c = BlockCache::new(CacheConfig {
            block_size: 256,
            max_blocks: 2,
            ..CacheConfig::default()
        });
        for i in 0..3u64 {
            c.insert(i * 256, vec![0u8; 256].into_boxed_slice());
        }
        assert_eq!(c.len(), 2);
        assert!(!c.contains(0), "oldest block evicted first");
        assert!(c.contains(256) && c.contains(512));
    }

    #[test]
    fn footprint_logs_each_used_block_once_and_nothing_else() {
        use crate::{LatencyProfile, ReadIndex, ReadRecord, Target};
        use kmem::{Mem, SymbolTable};
        use ktypes::TypeRegistry;

        let mut mem = Mem::new();
        mem.map(0x1000, 4096);
        let (types, symbols) = (TypeRegistry::new(), SymbolTable::new());
        let c = BlockCache::new(CacheConfig {
            block_size: 256,
            max_blocks: 3,
            ..CacheConfig::default()
        });
        let record = ReadRecord::default();
        let free = LatencyProfile::free();
        let mut target = Target::with_cache(&mem, &types, &symbols, free, &c);
        let mut footprint = vec![0xdead];
        let mut snapshot = Vec::new();
        let mut index = ReadIndex::default();
        // Outside a recording nothing is logged.
        target.read_uint(0x1300, 8).unwrap();
        target.end_walk(&mut footprint, &mut snapshot, &mut index);
        assert!(footprint.is_empty());
        target.record_reads(&record);
        target.read_uint(0x1300, 8).unwrap();
        target.read_uint(0x1100, 8).unwrap();
        target.read_uint(0x1340, 8).unwrap();
        // A block fetched but never read is not used.
        target.prefetch_footprint(&[0x1200]);
        assert!(c.contains(0x1200));
        target.end_walk(&mut footprint, &mut snapshot, &mut index);
        assert_eq!(
            footprint,
            [0x1100, 0x1300],
            "sorted, each once; the unused fill is out"
        );
        // A new walk starts from nothing, and blocks the last walk used
        // do not count for it.
        target.record_reads(&record);
        target.read_uint(0x1200, 8).unwrap();
        target.read_uint(0x1300, 8).unwrap();
        target.end_walk(&mut footprint, &mut snapshot, &mut index);
        assert_eq!(footprint, [0x1200, 0x1300]);
        // The footprint holds at most `max_blocks` bases.
        target.record_reads(&record);
        for addr in [0x1400u64, 0x1500, 0x1600, 0x1700] {
            target.read_uint(addr, 8).unwrap();
        }
        target.end_walk(&mut footprint, &mut snapshot, &mut index);
        assert_eq!(footprint, [0x1400, 0x1500, 0x1600]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_block_size() {
        BlockCache::new(CacheConfig::with_block_size(100));
    }
}
