//! The metered debug target.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use kmem::{Mem, MemError, SymbolTable};
use ktypes::{CValue, TypeId, TypeKind, TypeRegistry};
use vtrace::Tracer;

use crate::backend::{BackendError, BackendKind, SimBackend, TargetBackend};
use crate::cache::BlockCache;
use crate::planner::SpanPlanner;
use crate::profile::LatencyProfile;
use crate::{BridgeError, Result};

/// C strings travel in 64-byte chunks, mirroring GDB's remote-protocol
/// habit of pulling strings in small fixed reads.
const CSTR_CHUNK: u64 = 64;

/// Largest span a single prefetch hint will pull (one page).
const MAX_PREFETCH: u64 = 4096;

/// Spans up to this many bytes travel through a stack buffer: a hint's
/// or a footprint's span, block-aligned, always fits.
const SPAN_STACK: usize = 2 * MAX_PREFETCH as usize;

/// Cumulative access statistics (virtual time, reads, bytes).
///
/// `reads` counts *wire packets* and `bytes` counts *wire bytes*: with the
/// block cache enabled a cache hit costs neither, while a miss pays for a
/// whole block. Without a cache every call is one packet, as before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TargetStats {
    /// Which backend kind served the wire (identity only — all counters
    /// are byte-identical between a live run and its replay).
    pub backend: BackendKind,
    /// Number of read packets issued over the (virtual) wire.
    pub reads: u64,
    /// Total bytes transferred over the wire.
    pub bytes: u64,
    /// Accumulated virtual time in nanoseconds.
    pub virtual_ns: u64,
    /// Block lookups served from the snapshot cache.
    pub cache_hits: u64,
    /// Block fetches caused by cache misses.
    pub cache_misses: u64,
    /// Round-trips avoided: requests served without any wire packet,
    /// plus the blocks each prefetch span (a hint's or a footprint
    /// replay's) fetched beyond the one packet that carried them.
    pub packets_saved: u64,
    /// Reads that faulted on unmapped memory — wild pointers chased by a
    /// distiller or checker over a corrupted image.
    pub faults: u64,
    /// Panes served from their retained graph: the dirty sets since the
    /// pane's walk missed every span it touched (an incremental keep),
    /// or, on the pane's first walk after a resume, every byte the walk
    /// was served compared equal once the footprint was fetched (a
    /// content keep).
    pub vincr_hits: u64,
    /// Panes re-walked although a graph was retained: the dirty set
    /// intersected their touched spans, or the backend could not say
    /// what changed, on an incremental session, or a content comparison
    /// failed.
    pub vincr_rewalks: u64,
    /// Mutated bytes behind the incremental refresh decisions: for each
    /// kept or re-walked pane, the bytes dirtied by every resume since
    /// that pane's last walk, summed per resume — 0 for the pane when
    /// any of those resumes could not say what changed.
    pub dirty_bytes: u64,
    /// Boxes whose views a patch evaluated again, instead of walking
    /// the whole pane: the boxes whose reads a change reached. 0 for a
    /// walk and for a keep.
    pub reevaluated: u64,
}

/// The owner of the reads a program's top-level statements make, which
/// no box makes (see [`Target::set_owner`]).
pub const TOP_LEVEL: u32 = u32::MAX;

/// What a logged range counts for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ReadKind {
    /// Bytes a read returned: in the footprint and the staleness set.
    Served,
    /// Bytes a read asked for past its fault: in the staleness set only.
    Stale,
    /// A prefetch hint: in the footprint only.
    Hint,
}

/// One logged range, and the box whose views read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Read {
    addr: u64,
    len: u64,
    owner: u32,
    kind: ReadKind,
}

impl Read {
    fn end(&self) -> u64 {
        self.addr.saturating_add(self.len)
    }
}

/// What one walk read: every range, in the order read, with its owner,
/// a range that continues the last one in its kind and owner merged
/// into it. A session lends one to every walk
/// ([`Target::record_reads`]), so recording allocates nothing once it
/// has grown.
#[derive(Debug, Default)]
pub struct ReadRecord {
    reads: RefCell<Vec<Read>>,
}

/// What one walk read, by the box that read it: the ranges of its
/// [`ReadRecord`], sorted by address, a range merged into the one before
/// it when it has the same owner and kind and overlaps or continues it.
/// It is a retained pane's one range list: its footprint and snapshot
/// are derived from it ([`Target::derive`]), it names the boxes a change
/// reached ([`ReadIndex::owners_of`]), and a patch of those boxes checks
/// and updates it ([`ReadIndex::matches`], [`ReadIndex::replace`]).
#[derive(Debug, Default, PartialEq)]
pub struct ReadIndex {
    reads: Vec<Read>,
    /// The longest range: how far before a queried range a range that
    /// reaches into it can start.
    longest: u64,
}

impl ReadIndex {
    /// Sort and merge `reads` (see the type's docs).
    fn rebuild(&mut self) {
        self.reads
            .sort_unstable_by_key(|r| (r.addr, r.owner, r.kind, r.len));
        merge(&mut self.reads);
        self.longest = self.reads.iter().map(|r| r.len).max().unwrap_or(0);
    }

    /// Whether a read of the walk faulted.
    pub fn faulted(&self) -> bool {
        self.reads.iter().any(|r| r.kind == ReadKind::Stale)
    }

    /// Add to `owners` the owner of every range the walk read or asked
    /// for (not a hint) that overlaps one of `ranges`, then sort
    /// `owners` and drop repeats.
    pub fn owners_of(&self, ranges: &[(u64, u64)], owners: &mut Vec<u32>) {
        for &(addr, len) in ranges {
            let end = addr.saturating_add(len);
            let from = self
                .reads
                .partition_point(|r| r.addr.saturating_add(self.longest) <= addr);
            let hits = self.reads[from..].iter().take_while(|r| r.addr < end);
            owners.extend(
                hits.filter(|r| r.kind != ReadKind::Hint && r.end() > addr)
                    .map(|r| r.owner),
            );
        }
        owners.sort_unstable();
        owners.dedup();
    }

    /// Whether what `record` logged covers, for each owner and kind, the
    /// bytes this index holds for `owners` (sorted), and no others: the
    /// boxes `owners` read again what they read before.
    pub fn matches(&self, record: &ReadRecord, owners: &[u32]) -> bool {
        let mine = self
            .reads
            .iter()
            .filter(|r| owners.binary_search(&r.owner).is_ok());
        let mine = by_owner(mine.copied().collect());
        by_owner(record.reads.borrow().clone()) == mine
    }

    /// Replace the ranges of `owners` (sorted) with what `record` logged.
    pub fn replace(&mut self, record: &ReadRecord, owners: &[u32]) {
        self.reads
            .retain(|r| owners.binary_search(&r.owner).is_err());
        self.reads.extend_from_slice(&record.reads.borrow());
        self.rebuild();
    }

    /// The served ranges, sorted, with overlapping and adjacent ones
    /// merged whatever their owners: the ranges whose bytes a snapshot
    /// holds, in its order.
    pub fn served(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut served = self.reads.iter().filter(|r| r.kind == ReadKind::Served);
        let mut at = served.next().map(|r| (r.addr, r.end()));
        std::iter::from_fn(move || {
            let (start, mut end) = at?;
            at = None;
            for r in served.by_ref() {
                if r.addr > end {
                    at = Some((r.addr, r.end()));
                    break;
                }
                end = end.max(r.end());
            }
            Some((start, end - start))
        })
    }
}

/// `reads` sorted by owner, kind and address, each owner's ranges of a
/// kind merged where they overlap or touch.
fn by_owner(mut reads: Vec<Read>) -> Vec<Read> {
    reads.sort_unstable_by_key(|r| (r.owner, r.kind, r.addr, r.len));
    merge(&mut reads);
    reads
}

/// Merge each range of the sorted `reads` into the one before it when
/// it has the same owner and kind and overlaps or continues it.
fn merge(reads: &mut Vec<Read>) {
    let mut kept = 0;
    for i in 0..reads.len() {
        let r = reads[i];
        if kept > 0 {
            let last = &mut reads[kept - 1];
            if (last.owner, last.kind) == (r.owner, r.kind) && r.addr <= last.end() {
                last.len = last.end().max(r.end()) - last.addr;
                continue;
            }
        }
        reads[kept] = r;
        kept += 1;
    }
    reads.truncate(kept);
}

/// Hand `f` the resident bytes of `index`'s served ranges in order, one
/// block's part at a time, each with its address and its offset in the
/// pane's snapshot. False if a block is not resident.
fn each_served(
    cache: &BlockCache,
    index: &ReadIndex,
    mut f: impl FnMut(u64, usize, &[u8]),
) -> bool {
    let mut off = 0;
    index.served().all(|(addr, len)| {
        let mut at = addr;
        cache.each_piece(addr, len, |piece| {
            f(at, off, piece);
            at += piece.len() as u64;
            off += piece.len();
            true
        })
    })
}

/// A debugger's view of the stopped kernel.
///
/// Couples the raw memory image with its debug info and symbol table, and
/// meters every access through a [`LatencyProfile`]. All reads take
/// `&self`; the counters are interior-mutable, mirroring how observing a
/// stopped target does not change it.
///
/// With [`Target::with_cache`] the target additionally routes reads
/// through a shared [`BlockCache`]: misses fetch whole aligned blocks as
/// one packet each, hits are free, and results — values *and* faults —
/// are byte-identical to the uncached path.
pub struct Target<'a> {
    backend: Box<dyn TargetBackend + 'a>,
    /// Type registry (the debug info).
    pub types: &'a TypeRegistry,
    /// Symbol table.
    pub symbols: &'a SymbolTable,
    profile: LatencyProfile,
    cache: Option<&'a BlockCache>,
    reads: Cell<u64>,
    bytes: Cell<u64>,
    virtual_ns: Cell<u64>,
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
    packets_saved: Cell<u64>,
    faults: Cell<u64>,
    vincr_hits: Cell<u64>,
    vincr_rewalks: Cell<u64>,
    dirty_bytes: Cell<u64>,
    reevaluated: Cell<u64>,
    record: Option<&'a ReadRecord>,
    /// Who the reads logged now are for (see [`Target::set_owner`]).
    owner: Cell<u32>,
    tracer: Option<Rc<Tracer>>,
}

impl<'a> Target<'a> {
    /// Attach to a live image with the given latency profile (uncached).
    /// Equivalent to [`Target::over`] with a [`SimBackend`].
    pub fn new(
        mem: &'a Mem,
        types: &'a TypeRegistry,
        symbols: &'a SymbolTable,
        profile: LatencyProfile,
    ) -> Self {
        Target::over(Box::new(SimBackend::new(mem)), types, symbols, profile)
    }

    /// Attach to a live image with a shared snapshot block cache. The
    /// cache outlives the target, so blocks persist across extractions
    /// until the session resumes the kernel and bumps the epoch.
    pub fn with_cache(
        mem: &'a Mem,
        types: &'a TypeRegistry,
        symbols: &'a SymbolTable,
        profile: LatencyProfile,
        cache: &'a BlockCache,
    ) -> Self {
        let mut t = Target::new(mem, types, symbols, profile);
        t.cache = Some(cache);
        t
    }

    /// Attach the metering layer over an arbitrary wire backend. Every
    /// layer above the wire — latency accounting, block cache, prefetch,
    /// tracing, fault counting — behaves identically no matter which
    /// backend serves the bytes.
    pub fn over(
        backend: Box<dyn TargetBackend + 'a>,
        types: &'a TypeRegistry,
        symbols: &'a SymbolTable,
        profile: LatencyProfile,
    ) -> Self {
        Target {
            backend,
            types,
            symbols,
            profile,
            cache: None,
            reads: Cell::new(0),
            bytes: Cell::new(0),
            virtual_ns: Cell::new(0),
            cache_hits: Cell::new(0),
            cache_misses: Cell::new(0),
            packets_saved: Cell::new(0),
            faults: Cell::new(0),
            vincr_hits: Cell::new(0),
            vincr_rewalks: Cell::new(0),
            dirty_bytes: Cell::new(0),
            reevaluated: Cell::new(0),
            record: None,
            owner: Cell::new(TOP_LEVEL),
            tracer: None,
        }
    }

    /// Route reads through a shared snapshot block cache.
    pub fn set_cache(&mut self, cache: &'a BlockCache) {
        self.cache = Some(cache);
    }

    /// Which kind of backend serves the wire.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// The active latency profile.
    pub fn profile(&self) -> LatencyProfile {
        self.profile
    }

    /// Whether reads go through a snapshot cache.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&'a BlockCache> {
        self.cache
    }

    /// Invalidate the snapshot cache (the target resumed). No-op when
    /// uncached.
    pub fn bump_epoch(&self) {
        if let Some(c) = self.cache {
            c.bump_epoch();
        }
    }

    /// Mirror every metered event into `tracer`: each wire packet, cache
    /// hit and fault is reported as it happens, so the tracer's clock
    /// advances in lock-step with [`Target::stats`] — the reconciliation
    /// invariant the vtrace test suite checks bit-for-bit.
    pub fn set_tracer(&mut self, tracer: Rc<Tracer>) {
        tracer.set_backend(self.backend.kind().as_str());
        self.tracer = Some(tracer);
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Rc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Snapshot the access statistics.
    pub fn stats(&self) -> TargetStats {
        TargetStats {
            backend: self.backend.kind(),
            reads: self.reads.get(),
            bytes: self.bytes.get(),
            virtual_ns: self.virtual_ns.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            packets_saved: self.packets_saved.get(),
            faults: self.faults.get(),
            vincr_hits: self.vincr_hits.get(),
            vincr_rewalks: self.vincr_rewalks.get(),
            dirty_bytes: self.dirty_bytes.get(),
            reevaluated: self.reevaluated.get(),
        }
    }

    /// Reset the access statistics (e.g. between benchmark plots).
    pub fn reset_stats(&self) {
        self.reads.set(0);
        self.bytes.set(0);
        self.virtual_ns.set(0);
        self.cache_hits.set(0);
        self.cache_misses.set(0);
        self.packets_saved.set(0);
        self.faults.set(0);
        self.vincr_hits.set(0);
        self.vincr_rewalks.set(0);
        self.dirty_bytes.set(0);
        self.reevaluated.set(0);
    }

    /// Record the outcome of one incremental refresh: panes kept from
    /// their retained graph, panes re-walked, and the mutated bytes the
    /// backend reported. These come from a deterministic decision, so
    /// live runs and replays agree exactly.
    pub fn note_incr(&self, hits: u64, rewalks: u64, dirty_bytes: u64) {
        self.vincr_hits.set(self.vincr_hits.get() + hits);
        self.vincr_rewalks.set(self.vincr_rewalks.get() + rewalks);
        self.dirty_bytes.set(self.dirty_bytes.get() + dirty_bytes);
    }

    /// Record that a patch evaluated the views of `boxes` boxes again
    /// instead of walking their pane.
    pub fn note_patch(&self, boxes: u64) {
        self.reevaluated.set(self.reevaluated.get() + boxes);
    }

    /// Log what this target reads into `record`, cleared first, for
    /// [`Target::end_walk`]: what reads return, what they ask for past
    /// a fault, and prefetch hints, each with the owner it was read for
    /// ([`Target::set_owner`]). A footprint replay is not logged.
    pub fn record_reads(&mut self, record: &'a ReadRecord) {
        record.reads.borrow_mut().clear();
        self.record = Some(record);
    }

    /// Book what is read from now on to `owner`: the box whose views
    /// are being evaluated, or [`TOP_LEVEL`]. Returns who reads were
    /// booked to until now.
    pub fn set_owner(&self, owner: u32) -> u32 {
        self.owner.replace(owner)
    }

    /// End a recorded walk: replace `index` with what it read, by owner;
    /// with nothing when nothing was recorded.
    pub fn end_walk(&self, index: &mut ReadIndex) {
        index.reads.clear();
        if let Some(record) = self.record {
            index.reads.extend_from_slice(&record.reads.borrow());
        }
        index.rebuild();
    }

    /// Replace a pane's `footprint` and `snapshot` with what its `index`
    /// gives them, after a walk ([`Target::end_walk`]) and after a patch
    /// alike.
    ///
    /// The footprint, for [`Target::prefetch_footprint`], is the sorted
    /// bases of the cache blocks covering the index's served and hint
    /// ranges. It is empty when the target is uncached, and when those
    /// blocks would pass `max_blocks`, since the cache could not hold
    /// them. A prefetched byte nobody decoded forces no re-walk: the
    /// index's owner queries skip hints.
    ///
    /// The snapshot, for [`Target::changed`], is the bytes of the index's
    /// served ranges ([`ReadIndex::served`]), in that order, copied from
    /// the cache. It is left empty, which is no snapshot, when the
    /// target is uncached, when a read faulted (the graph then also
    /// depends on which pages are mapped), when a served block is not
    /// resident, and when the walk read nothing: there is nothing to
    /// compare.
    pub fn derive(&self, index: &ReadIndex, footprint: &mut Vec<u64>, snapshot: &mut Vec<u8>) {
        footprint.clear();
        snapshot.clear();
        let Some(cache) = self.cache else { return };
        let bs = cache.block_size();
        // The ranges come by address, so the blocks below the end of the
        // ones before are in already.
        let mut next = 0;
        for r in index.reads.iter().filter(|r| r.kind != ReadKind::Stale) {
            let first = cache.base_of(r.addr).max(next);
            let last = cache.base_of(r.addr.saturating_add(r.len - 1));
            let blocks = last.checked_sub(first).map_or(0, |n| n / bs + 1);
            if footprint.len() as u64 + blocks > cache.config().max_blocks as u64 {
                footprint.clear();
                break;
            }
            footprint.extend((first..=last).step_by(bs as usize));
            next = next.max(last.saturating_add(bs));
        }
        let copied = !index.faulted()
            && each_served(cache, index, |_, _, piece| {
                snapshot.extend_from_slice(piece)
            });
        if !copied {
            snapshot.clear();
        }
    }

    /// Compare `snapshot`, derived from `index` ([`Target::derive`]), with
    /// what the cache holds now, in place, replacing `changed` with the
    /// runs of bytes that differ, as `(address, length)`, in address
    /// order. Sends nothing over the wire and meters nothing. False, with
    /// `changed` empty, when there is nothing to compare with: a block
    /// the snapshot needs is not resident, the snapshot is empty, or the
    /// target is uncached.
    pub fn changed(
        &self,
        index: &ReadIndex,
        snapshot: &[u8],
        changed: &mut Vec<(u64, u64)>,
    ) -> bool {
        changed.clear();
        let Some(cache) = self.cache.filter(|_| !snapshot.is_empty()) else {
            return false;
        };
        let held = each_served(cache, index, |at, off, piece| {
            let old = &snapshot[off..off + piece.len()];
            if old != piece {
                let differ = old
                    .iter()
                    .zip(piece)
                    .enumerate()
                    .filter(|(_, (a, b))| a != b);
                for byte in differ.map(|(i, _)| at + i as u64) {
                    match changed.last_mut() {
                        Some((start, n)) if *start + *n == byte => *n += 1,
                        _ => changed.push((byte, 1)),
                    }
                }
            }
        });
        if !held {
            changed.clear();
        }
        held
    }

    /// Log a range, merged into the last one when it continues it in
    /// the same kind and owner.
    fn log(&self, addr: u64, len: u64, kind: ReadKind) {
        let Some(record) = self.record.filter(|_| len > 0) else {
            return;
        };
        let owner = self.owner.get();
        let mut reads = record.reads.borrow_mut();
        match reads.last_mut() {
            Some(r) if (r.kind, r.owner) == (kind, owner) && r.end() == addr => r.len += len,
            _ => reads.push(Read {
                addr,
                len,
                owner,
                kind,
            }),
        }
    }

    /// Log a request for `[addr, addr+len)` that ended in `res`: served
    /// up to its fault, and staleness-only from there.
    fn log_request<T>(&self, addr: u64, len: u64, res: &Result<T>) {
        let end = addr.saturating_add(len);
        let fault = match res {
            Ok(_) => end,
            Err(BridgeError::Mem(MemError::Unmapped { addr: at })) => (*at).clamp(addr, end),
            Err(_) => addr,
        };
        self.log(addr, fault - addr, ReadKind::Served);
        self.log(fault, end - fault, ReadKind::Stale);
    }

    /// Fetch the blocks of `footprint` (sorted block bases, as
    /// [`Target::derive`] derives them) that are not resident, folding
    /// neighbours into spans by the profile's `SpanPlanner` rule, one
    /// packet per span. Gap blocks travel in their span but are not
    /// kept: the last walk did not use them. Like a prefetch hint it is
    /// speculative: it never faults, and the read record does not log
    /// it. Returns the packets sent; a no-op on uncached targets.
    pub fn prefetch_footprint(&self, footprint: &[u64]) -> u64 {
        let Some(cache) = self.cache else { return 0 };
        let bs = cache.block_size();
        let absent = footprint
            .iter()
            .filter(|&&base| !cache.contains(base))
            .map(|&base| (base, bs));
        let mut packets = 0;
        SpanPlanner::for_profile(&self.profile).fold(absent, |addr, len| {
            let (sent, blocks) = self.fetch_span(cache, addr, len, Some(footprint));
            self.note_saved(blocks.saturating_sub(sent));
            packets += sent;
        });
        packets
    }

    fn account(&self, addr: u64, len: u64) {
        let cost = self.profile.cost_ns(len);
        self.reads.set(self.reads.get() + 1);
        self.bytes.set(self.bytes.get() + len);
        self.virtual_ns.set(self.virtual_ns.get() + cost);
        if let Some(t) = &self.tracer {
            t.on_wire_packet(addr, len, cost);
        }
    }

    fn note_saved(&self, n: u64) {
        self.packets_saved.set(self.packets_saved.get() + n);
    }

    fn note_hit(&self, addr: u64, len: u64) {
        self.cache_hits.set(self.cache_hits.get() + 1);
        if let Some(t) = &self.tracer {
            t.on_cache_hit(addr, len);
        }
    }

    fn note_fault(&self, addr: u64) {
        self.faults.set(self.faults.get() + 1);
        if let Some(t) = &self.tracer {
            t.on_fault(addr);
        }
    }

    /// Convert a wire error, counting a fault only for real target memory
    /// faults — a replay divergence is a tooling error, not a wild read.
    fn wire_err(&self, addr: u64, e: BackendError) -> BridgeError {
        if matches!(e, BackendError::Mem(_)) {
            self.note_fault(addr);
        }
        BridgeError::from(e)
    }

    /// Ensure every block overlapping `[addr, addr+len)` is resident,
    /// metering one packet per fetched block (and one exact-span packet
    /// per unmappable block, which a subsequent serve will fault on).
    /// Returns the number of wire packets sent.
    fn meter_range_cached(&self, cache: &BlockCache, addr: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let bs = cache.block_size();
        let mut packets = 0u64;
        let mut base = cache.base_of(addr);
        let last = cache.base_of(addr + len - 1);
        while base <= last {
            if cache.contains(base) {
                self.note_hit(base, bs);
            } else {
                let mut block = vec![0u8; bs as usize];
                if self.backend.read(base, &mut block).is_ok() {
                    self.account(base, bs);
                    self.cache_misses.set(self.cache_misses.get() + 1);
                    cache.insert(base, block.into_boxed_slice());
                } else {
                    // The block's page is unmapped; pay for the doomed
                    // exact request (the serve path reports the fault).
                    let start = base.max(addr);
                    let end = (base + bs).min(addr + len);
                    self.account(start, end - start);
                }
                packets += 1;
            }
            base += bs;
        }
        packets
    }

    /// Read `out.len()` bytes at `addr` through the cache: fetch the
    /// absent blocks, one packet each, then serve from resident blocks,
    /// falling back to the backend for a block that could not be
    /// fetched — which faults at exactly the address an uncached read
    /// would, since blocks never span pages.
    fn read_through_cache(&self, cache: &BlockCache, addr: u64, out: &mut [u8]) -> Result<()> {
        if out.is_empty() {
            return Ok(());
        }
        // A read inside one resident block is one lookup, booked as the
        // metered path below books it: one hit, one packet saved.
        let base = cache.base_of(addr);
        if cache.base_of(addr + out.len() as u64 - 1) == base
            && cache.copy_from(base, (addr - base) as usize, out)
        {
            self.note_hit(base, cache.block_size());
            self.note_saved(1);
            return Ok(());
        }
        let packets = self.meter_range_cached(cache, addr, out.len() as u64);
        if packets == 0 {
            self.note_saved(1);
        }
        let bs = cache.block_size();
        let mut pos = 0usize;
        while pos < out.len() {
            let a = addr + pos as u64;
            let base = cache.base_of(a);
            let off = (a - base) as usize;
            let n = (bs as usize - off).min(out.len() - pos);
            if !cache.copy_from(base, off, &mut out[pos..pos + n]) {
                self.backend
                    .read(a, &mut out[pos..pos + n])
                    .map_err(|e| self.wire_err(a, e))?;
            }
            pos += n;
        }
        Ok(())
    }

    /// Read raw bytes (metered).
    pub fn read(&self, addr: u64, out: &mut [u8]) -> Result<()> {
        let res = match self.cache {
            None => {
                self.account(addr, out.len() as u64);
                self.backend
                    .read(addr, out)
                    .map_err(|e| self.wire_err(addr, e))
            }
            Some(c) => self.read_through_cache(c, addr, out),
        };
        self.log_request(addr, out.len() as u64, &res);
        res
    }

    /// Read an unsigned little-endian integer of `size` bytes (metered).
    pub fn read_uint(&self, addr: u64, size: usize) -> Result<u64> {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf[..size])?;
        Ok(ktypes::read_uint(&buf, size))
    }

    /// Read a signed integer (metered).
    pub fn read_int(&self, addr: u64, size: usize) -> Result<i64> {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf[..size])?;
        Ok(ktypes::read_int(&buf, size))
    }

    /// Read a NUL-terminated C string, metered as one packet per 64-byte
    /// chunk actually pulled (the terminator travels too; a fault pays for
    /// the chunks up to and including the faulting byte).
    pub fn read_cstr(&self, addr: u64, max: usize) -> Result<String> {
        let res = self.backend.read_cstr(addr, max);
        if let Err(BackendError::Capture(msg)) = &res {
            // A backend (replay) failure, not a target fault: nothing
            // travelled on the recorded wire, so nothing is metered.
            return Err(BridgeError::Capture(msg.clone()));
        }
        let fetched = match &res {
            Ok(s) => ((s.len() as u64) + 1).min(max as u64),
            Err(BackendError::Mem(MemError::Unmapped { addr: fault })) => {
                fault.saturating_sub(addr) + 1
            }
            Err(_) => 1,
        };
        match self.cache {
            None => {
                let mut rem = fetched;
                let mut off = 0u64;
                while rem > 0 {
                    let n = rem.min(CSTR_CHUNK);
                    self.account(addr + off, n);
                    off += n;
                    rem -= n;
                }
            }
            Some(c) => {
                let packets = self.meter_range_cached(c, addr, fetched);
                if packets == 0 && fetched > 0 {
                    self.note_saved(1);
                }
            }
        }
        let res = res.map_err(|e| self.wire_err(addr, e));
        self.log_request(addr, fetched, &res);
        res
    }

    /// Pull every absent block covering `[addr, addr+len)` — the whole
    /// aligned span as ONE packet when possible, degrading to per-block
    /// fetches of the mapped blocks when the span touches unmapped pages
    /// (holes are skipped silently; a later serve reports the fault).
    /// With `only` (sorted bases), blocks outside it travel in the span
    /// but are not kept. Returns `(packets sent, blocks fetched)`. `len`
    /// must be non-zero.
    fn fetch_span(
        &self,
        cache: &BlockCache,
        addr: u64,
        len: u64,
        only: Option<&[u64]>,
    ) -> (u64, u64) {
        let bs = cache.block_size();
        let start = cache.base_of(addr);
        let end = cache.base_of(addr + len - 1) + bs;
        let wanted = |base: u64| {
            !cache.contains(base) && only.is_none_or(|only| only.binary_search(&base).is_ok())
        };
        let mut missing = 0u64;
        let mut base = start;
        while base < end {
            if wanted(base) {
                missing += 1;
            }
            base += bs;
        }
        if missing == 0 {
            return (0, 0);
        }
        let span = end - start;
        let mut stack = [0u8; SPAN_STACK];
        let mut heap = Vec::new();
        let buf = match stack.get_mut(..span as usize) {
            Some(buf) => buf,
            None => {
                heap.resize(span as usize, 0);
                &mut heap[..]
            }
        };
        if self.backend.read(start, buf).is_ok() {
            self.account(start, span);
            self.cache_misses.set(self.cache_misses.get() + missing);
            let mut base = start;
            while base < end {
                if wanted(base) {
                    let off = (base - start) as usize;
                    cache.insert(base, buf[off..off + bs as usize].into());
                }
                base += bs;
            }
            (1, missing)
        } else {
            let mut fetched = 0u64;
            let mut base = start;
            while base < end {
                if wanted(base) {
                    let mut block = vec![0u8; bs as usize];
                    if self.backend.read(base, &mut block).is_ok() {
                        self.account(base, bs);
                        self.cache_misses.set(self.cache_misses.get() + 1);
                        cache.insert(base, block.into_boxed_slice());
                        fetched += 1;
                    }
                }
                base += bs;
            }
            (fetched, fetched)
        }
    }

    /// Hint that `[addr, addr+len)` is about to be walked. With the cache
    /// enabled, pulls the covering blocks in a single span packet (capped
    /// at one page); uncached targets ignore the hint entirely, keeping
    /// the baseline cost model untouched. Hints never fault.
    ///
    /// The record logs the hint, so every block it covers joins the
    /// walk's footprint, used or not: replayed without one of them, the
    /// hint would find a block absent and pull its whole span again.
    pub fn prefetch(&self, addr: u64, len: u64) {
        let Some(cache) = self.cache else { return };
        if len == 0 || !cache.config().prefetch {
            return;
        }
        let len = len.min(MAX_PREFETCH);
        self.log(addr, len, ReadKind::Hint);
        let (packets, blocks) = self.fetch_span(cache, addr, len, None);
        // Fetching N blocks in fewer packets saves the difference.
        self.note_saved(blocks.saturating_sub(packets));
    }

    /// Load a value of type `ty` from `addr`, decoding scalars and
    /// returning aggregates as lvalues.
    pub fn load(&self, addr: u64, ty: TypeId) -> Result<CValue> {
        match &self.types.get(ty).kind {
            TypeKind::Prim(p) => {
                let size = p.size() as usize;
                if size == 0 {
                    return Ok(CValue::Int { value: 0, ty });
                }
                let v = if p.signed() {
                    self.read_int(addr, size)?
                } else {
                    self.read_uint(addr, size)? as i64
                };
                Ok(CValue::Int { value: v, ty })
            }
            TypeKind::Enum(e) => {
                let v = self.read_int(addr, e.size as usize)?;
                Ok(CValue::Int { value: v, ty })
            }
            TypeKind::Pointer(_) => {
                // Pointer width comes from the registry, not a literal 8,
                // so a 32-bit target image meters (and decodes) honestly.
                let size = self.types.size_of(ty) as usize;
                let v = self.read_uint(addr, size)?;
                Ok(CValue::Ptr { addr: v, ty })
            }
            TypeKind::Struct(_) | TypeKind::Array { .. } => Ok(CValue::LValue { addr, ty }),
            TypeKind::Func(_) => Ok(CValue::Ptr { addr, ty }),
        }
    }

    /// Resolve a global symbol to an lvalue of its declared type.
    pub fn symbol_value(&self, name: &str) -> Result<CValue> {
        let sym = self
            .symbols
            .lookup(name)
            .ok_or_else(|| BridgeError::UnknownIdent(name.to_string()))?;
        match sym.ty {
            Some(ty) => Ok(CValue::LValue { addr: sym.addr, ty }),
            None => Ok(CValue::Int {
                value: sym.addr as i64,
                ty: self.u64_type()?,
            }),
        }
    }

    fn u64_type(&self) -> Result<TypeId> {
        self.types
            .find("unsigned long")
            .ok_or_else(|| BridgeError::Eval("u64 type not interned".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use ksim::workload::{self, WorkloadConfig};

    #[test]
    fn reads_accumulate_virtual_time() {
        let (img, _t, roots) = workload::build(&WorkloadConfig::default()).finish();
        let target = Target::new(
            &img.mem,
            &img.types,
            &img.symbols,
            LatencyProfile::kgdb_rpi400(),
        );
        let _ = target.read_uint(roots.init_task, 8).unwrap();
        let s = target.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes, 8);
        assert!(s.virtual_ns >= 4_900_000);
        target.reset_stats();
        assert_eq!(target.stats(), TargetStats::default());
    }

    #[test]
    fn symbol_value_gives_typed_lvalue() {
        let (img, t, roots) = workload::build(&WorkloadConfig::default()).finish();
        let target = Target::new(&img.mem, &img.types, &img.symbols, LatencyProfile::free());
        let v = target.symbol_value("init_task").unwrap();
        assert_eq!(v.address(), Some(roots.init_task));
        assert_eq!(v.type_id(), Some(t.task.task_struct));
        assert!(matches!(
            target.symbol_value("no_such_global"),
            Err(BridgeError::UnknownIdent(_))
        ));
    }

    #[test]
    fn load_decodes_scalars_by_type() {
        let (img, t, roots) = workload::build(&WorkloadConfig::default()).finish();
        let target = Target::new(&img.mem, &img.types, &img.symbols, LatencyProfile::free());
        let (pid_off, pid_ty) = img.types.field_path(t.task.task_struct, "pid").unwrap();
        let v = target.load(roots.init_task + pid_off, pid_ty).unwrap();
        assert_eq!(v.as_int(), Some(0));
        // Aggregates come back as lvalues.
        let v = target.load(roots.init_task, t.task.task_struct).unwrap();
        assert!(matches!(v, CValue::LValue { .. }));
    }

    #[test]
    fn dangling_pointer_read_faults() {
        let (img, _t, _roots) = workload::build(&WorkloadConfig::default()).finish();
        let target = Target::new(&img.mem, &img.types, &img.symbols, LatencyProfile::free());
        assert!(matches!(
            target.read_uint(0xdead_0000_0000, 8),
            Err(BridgeError::Mem(_))
        ));
        assert_eq!(target.stats().faults, 1, "wild read counted");
    }

    #[test]
    fn cached_reads_hit_after_block_fetch() {
        let (img, _t, roots) = workload::build(&WorkloadConfig::default()).finish();
        let cache = BlockCache::new(CacheConfig::default());
        let target = Target::with_cache(
            &img.mem,
            &img.types,
            &img.symbols,
            LatencyProfile::kgdb_rpi400(),
            &cache,
        );
        let a = target.read_uint(roots.init_task, 8).unwrap();
        let s1 = target.stats();
        assert_eq!(s1.cache_misses, 1);
        assert_eq!(s1.reads, 1, "one block packet");
        assert_eq!(s1.bytes, 256, "a whole block travelled");
        // Re-read and read a neighbour inside the same block: both free.
        let b = target.read_uint(roots.init_task, 8).unwrap();
        let _ = target.read_uint(roots.init_task + 8, 8).unwrap();
        assert_eq!(a, b);
        let s2 = target.stats();
        assert_eq!(s2.reads, 1, "no further packets");
        assert_eq!(s2.cache_hits, 2);
        assert_eq!(s2.packets_saved, 2);
        assert_eq!(s2.virtual_ns, s1.virtual_ns);
    }

    #[test]
    fn cached_and_uncached_reads_agree_including_faults() {
        let (img, _t, roots) = workload::build(&WorkloadConfig::default()).finish();
        let cache = BlockCache::new(CacheConfig::default());
        let plain = Target::new(&img.mem, &img.types, &img.symbols, LatencyProfile::free());
        let cached = Target::with_cache(
            &img.mem,
            &img.types,
            &img.symbols,
            LatencyProfile::free(),
            &cache,
        );
        for addr in [roots.init_task, roots.init_task + 3, 0xdead_0000_0000] {
            for size in [1usize, 2, 4, 8] {
                assert_eq!(
                    format!("{:?}", plain.read_uint(addr, size)),
                    format!("{:?}", cached.read_uint(addr, size)),
                    "addr {addr:#x} size {size}"
                );
            }
        }
    }

    #[test]
    fn bump_epoch_invalidates_cached_blocks() {
        let (mut img, _t, roots) = workload::build(&WorkloadConfig::default()).finish();
        let cache = BlockCache::new(CacheConfig::default());
        {
            let target = Target::with_cache(
                &img.mem,
                &img.types,
                &img.symbols,
                LatencyProfile::free(),
                &cache,
            );
            let _ = target.read_uint(roots.init_task, 8).unwrap();
            assert!(!cache.is_empty());
        }
        // The kernel "resumes" and rewrites memory.
        img.mem.write_uint(roots.init_task, 8, 0x4242);
        cache.bump_epoch();
        let target = Target::with_cache(
            &img.mem,
            &img.types,
            &img.symbols,
            LatencyProfile::free(),
            &cache,
        );
        assert_eq!(target.read_uint(roots.init_task, 8).unwrap(), 0x4242);
        assert_eq!(target.stats().cache_misses, 1, "stale block re-fetched");
    }

    #[test]
    fn cstr_metering_counts_chunks_fetched() {
        let (img, _t, roots) = workload::build(&WorkloadConfig::default()).finish();
        let target = Target::new(&img.mem, &img.types, &img.symbols, LatencyProfile::free());
        // "swapper/0" + NUL = 10 bytes: one chunk, 10 wire bytes — not a
        // flat 64 the old metering charged regardless of length.
        let (comm_off, _) = img
            .types
            .field_path(img.types.find("task_struct").unwrap(), "comm")
            .unwrap();
        let s = target.read_cstr(roots.init_task + comm_off, 16).unwrap();
        assert_eq!(s, "swapper/0");
        let st = target.stats();
        assert_eq!(st.reads, 1);
        assert_eq!(st.bytes, s.len() as u64 + 1);
    }

    #[test]
    fn tracer_clock_tracks_stats_exactly() {
        use std::rc::Rc;
        let (img, _t, roots) = workload::build(&WorkloadConfig::default()).finish();
        let cache = BlockCache::new(CacheConfig::default());
        let tracer = Rc::new(Tracer::new());
        let mut target = Target::with_cache(
            &img.mem,
            &img.types,
            &img.symbols,
            LatencyProfile::kgdb_rpi400(),
            &cache,
        );
        target.set_tracer(tracer.clone());
        // Exercise every metering path: cached reads (miss + hit), a
        // hinted span read back, a cstr, and a wild fault.
        let _ = target.read_uint(roots.init_task, 8).unwrap();
        let _ = target.read_uint(roots.init_task, 8).unwrap();
        target.prefetch(roots.init_task + 512, 16);
        let _ = target.read_uint(roots.init_task + 512, 8).unwrap();
        let _ = target.read_uint(roots.init_task + 520, 8).unwrap();
        let _ = target.read_cstr(roots.init_task + 0x10, 16);
        let _ = target.read_uint(0xdead_0000_0000, 8);
        let s = target.stats();
        let c = tracer.clock();
        assert_eq!(c.packets, s.reads);
        assert_eq!(c.bytes, s.bytes);
        assert_eq!(c.virtual_ns, s.virtual_ns);
        assert_eq!(c.cache_hits, s.cache_hits);
        assert_eq!(c.faults, s.faults);
        // The wire log saw every packet and every hit.
        assert!(tracer.wire_seen() >= s.reads + s.cache_hits);
        let evs = tracer.wire_events();
        assert_eq!(
            evs.iter().filter(|e| !e.cache_hit && e.len > 0).count() as u64,
            s.reads
        );
        assert!(evs.iter().any(|e| e.fault), "the wild read is flagged");
    }

    #[test]
    fn record_then_replay_reproduces_values_and_stats() {
        use crate::{BackendKind, RecordBackend, Recorder, ReplayBackend, ReplayState, SimBackend};
        let (img, _t, roots) = workload::build(&WorkloadConfig::default()).finish();
        let (comm_off, _) = img
            .types
            .field_path(img.types.find("task_struct").unwrap(), "comm")
            .unwrap();
        let drive = |t: &Target| -> (u64, String) {
            let v = t.read_uint(roots.init_task, 8).unwrap();
            let s = t.read_cstr(roots.init_task + comm_off, 16).unwrap();
            t.prefetch(roots.init_task + 512, 16);
            let _ = t.read_uint(roots.init_task + 512, 8).unwrap();
            let _ = t.read_uint(roots.init_task + 520, 8).unwrap();
            assert!(t.read_uint(0xdead_0000_0000, 8).is_err());
            (v, s)
        };
        // Live run, recording every wire operation through the cache.
        let cache = BlockCache::new(CacheConfig::default());
        let tape = Rc::new(Recorder::new());
        let mut live = Target::over(
            Box::new(RecordBackend::new(
                Box::new(SimBackend::new(&img.mem)),
                tape.clone(),
            )),
            &img.types,
            &img.symbols,
            LatencyProfile::kgdb_rpi400(),
        );
        live.set_cache(&cache);
        let live_out = drive(&live);
        let live_stats = live.stats();
        assert_eq!(live_stats.backend, BackendKind::Record);
        let cap = tape.capture(
            BackendKind::Sim,
            LatencyProfile::kgdb_rpi400(),
            Some(CacheConfig::default()),
            serde_json::Value::Null,
        );
        // Round-trip the capture through its JSON form, then replay
        // against an identical metering stack — zero image access.
        let state = ReplayState::new(crate::Capture::from_json(&cap.to_json()).unwrap());
        let cache2 = BlockCache::new(CacheConfig::default());
        let mut rep = Target::over(
            Box::new(ReplayBackend::new(&state)),
            &img.types,
            &img.symbols,
            LatencyProfile::kgdb_rpi400(),
        );
        rep.set_cache(&cache2);
        let rep_out = drive(&rep);
        assert_eq!(rep_out, live_out, "replayed values byte-identical");
        assert_eq!(
            rep.stats(),
            TargetStats {
                backend: BackendKind::Replay,
                ..live_stats
            },
            "all counters byte-identical; only the identity differs"
        );
        assert_eq!(state.remaining(), 0, "every recorded event consumed");
    }

    fn logged(record: &ReadRecord) -> Vec<(u64, u64, ReadKind)> {
        let reads = record.reads.borrow();
        reads.iter().map(|r| (r.addr, r.len, r.kind)).collect()
    }

    /// What a walk read or asked for, normalized: the set a resume's
    /// dirty set must miss for the walk's graph to stay current.
    fn staleness(index: &ReadIndex) -> Vec<(u64, u64)> {
        let read = index.reads.iter().filter(|r| r.kind != ReadKind::Hint);
        let set = crate::DirtySet::from_ranges(read.map(|r| (r.addr, r.len)));
        set.ranges().to_vec()
    }

    #[test]
    fn the_read_record_logs_each_range_once_and_derives_footprint_and_staleness() {
        use ReadKind::{Hint, Served, Stale};
        // Pages 0x1000 and 0x3000 mapped, the page between them not, so
        // a read can fault mid-range; and a string that runs into the
        // hole, with no NUL before 0x2000.
        let mut mem = Mem::new();
        mem.map(0x1000, 4096);
        mem.map(0x3000, 4096);
        mem.write(0x1fe0, &[b'a'; 32]);
        let (types, symbols) = (TypeRegistry::new(), SymbolTable::new());
        let cache = BlockCache::new(CacheConfig::default());
        let record = ReadRecord::default();
        let free = LatencyProfile::free();
        let mut target = Target::with_cache(&mem, &types, &symbols, free, &cache);
        target.record_reads(&record);
        // A miss, then a hit that continues it: one served range.
        target.read_uint(0x1000, 8).unwrap();
        target.read_uint(0x1008, 4).unwrap();
        // A read that faults mid-range splits at the fault address.
        assert!(target.read_uint(0x1ffc, 8).is_err());
        // So does a string that runs into the hole: the byte that
        // faulted was asked for, and no block holds it.
        assert!(target.read_cstr(0x1fe0, 64).is_err());
        // A hint longer than a page is capped at one.
        target.prefetch(0x3000, 8192);
        // A footprint replay is not logged.
        target.prefetch_footprint(&[0x1400]);
        assert!(cache.contains(0x1400));
        assert_eq!(
            logged(&record),
            [
                (0x1000, 12, Served),
                (0x1ffc, 4, Served),
                (0x2000, 4, Stale),
                (0x1fe0, 32, Served),
                (0x2000, 1, Stale),
                (0x3000, 4096, Hint),
            ]
        );
        let mut footprint = vec![0xdead];
        let mut snapshot = vec![0xde];
        let mut index = ReadIndex::default();
        target.end_walk(&mut index);
        target.derive(&index, &mut footprint, &mut snapshot);
        let hinted = (0x3000..0x4000).step_by(256);
        let want: Vec<u64> = [0x1000, 0x1f00].into_iter().chain(hinted).collect();
        assert_eq!(footprint, want, "sorted, each once");
        assert_eq!(
            staleness(&index),
            [(0x1000, 12), (0x1fe0, 0x24)],
            "served and staleness-only, no hint"
        );
        assert!(index.faulted());
        assert!(snapshot.is_empty(), "a walk that faulted keeps no snapshot");
        target.end_walk(&mut index);
        target.derive(&index, &mut footprint, &mut snapshot);
        assert_eq!(footprint, want);

        // Uncached: no footprint, and no hint either.
        let mut plain = Target::new(&mem, &types, &symbols, free);
        plain.record_reads(&record);
        plain.read_uint(0x1000, 8).unwrap();
        plain.read_uint(0x1008, 4).unwrap();
        assert!(plain.read_uint(0x1ffc, 8).is_err());
        plain.prefetch(0x3000, 8192);
        assert_eq!(
            logged(&record),
            [
                (0x1000, 12, Served),
                (0x1ffc, 4, Served),
                (0x2000, 4, Stale)
            ]
        );
        plain.end_walk(&mut index);
        plain.derive(&index, &mut footprint, &mut snapshot);
        assert!(footprint.is_empty());
        assert_eq!(staleness(&index), [(0x1000, 12), (0x1ffc, 8)]);

        // Up to `max_blocks` blocks the footprint holds them all; past
        // it, none, whatever order the walk read them in.
        let small = BlockCache::new(CacheConfig {
            max_blocks: 2,
            ..CacheConfig::default()
        });
        let mut target = Target::with_cache(&mem, &types, &symbols, free, &small);
        let mut walk = |addrs: &[u64]| {
            target.record_reads(&record);
            for &addr in addrs {
                target.read_uint(addr, 8).unwrap();
            }
            target.end_walk(&mut index);
            target.derive(&index, &mut footprint, &mut snapshot);
            footprint.clone()
        };
        assert_eq!(walk(&[0x1300, 0x1100, 0x1300]), [0x1100, 0x1300]);
        assert_eq!(walk(&[0x1300, 0x1100, 0x1300, 0x1200]), []);
        // A target that records nothing derives nothing.
        let unrecorded = Target::with_cache(&mem, &types, &symbols, free, &small);
        unrecorded.read_uint(0x1000, 8).unwrap();
        unrecorded.end_walk(&mut index);
        unrecorded.derive(&index, &mut footprint, &mut snapshot);
        assert!(footprint.is_empty() && snapshot.is_empty() && index.reads.is_empty());
    }

    #[test]
    fn a_snapshot_matches_only_unchanged_resident_bytes() {
        let mut mem = Mem::new();
        mem.map(0x1000, 4096);
        let (types, symbols) = (TypeRegistry::new(), SymbolTable::new());
        let cache = BlockCache::new(CacheConfig::default());
        let record = ReadRecord::default();
        let free = LatencyProfile::free();
        // Three served ranges, the second across a block boundary; read
        // out of order, one of them twice.
        let ranges = [(0x1008u64, 16u64), (0x10f8, 16), (0x1200, 4)];
        let (mut footprint, mut snapshot) = (Vec::new(), Vec::new());
        let mut index = ReadIndex::default();
        let mut changed = vec![(0xdead, 1)];
        {
            let mut target = Target::with_cache(&mem, &types, &symbols, free, &cache);
            target.record_reads(&record);
            for (addr, len) in [ranges[2], ranges[0], ranges[1], ranges[0]] {
                target.read(addr, &mut vec![0; len as usize]).unwrap();
            }
            target.end_walk(&mut index);
            target.derive(&index, &mut footprint, &mut snapshot);
            assert_eq!(footprint, [0x1000, 0x1100, 0x1200]);
            assert_eq!(snapshot.len(), 36, "each range's bytes once");
            assert!(
                target.changed(&index, &snapshot, &mut changed),
                "within the stop"
            );
            assert!(changed.is_empty());
            assert!(
                !target.changed(&index, &[], &mut changed),
                "an empty snapshot is none"
            );
            let plain = Target::new(&mem, &types, &symbols, free);
            assert!(!plain.changed(&index, &snapshot, &mut changed), "uncached");
        }
        // A resume: every block drops, the footprint is fetched again,
        // and the snapshot compared with what arrived: `Some(changed)`.
        let resume = |mem: &Mem, fetch: &[u64]| {
            cache.bump_epoch();
            let target = Target::with_cache(mem, &types, &symbols, free, &cache);
            target.prefetch_footprint(fetch);
            let mut changed = Vec::new();
            target
                .changed(&index, &snapshot, &mut changed)
                .then_some(changed)
        };
        assert_eq!(resume(&mem, &footprint), Some(vec![]), "equal bytes");
        // The first and last byte of each range, changed one at a time,
        // then written back: bytes beside the ranges do not count.
        for &(addr, len) in &ranges {
            for at in [addr, addr + len - 1] {
                mem.write(at, &[1]);
                assert_eq!(resume(&mem, &footprint), Some(vec![(at, 1)]), "{at:#x}");
                mem.write(at, &[0]);
                mem.write(addr - 1, &[7]);
                mem.write(addr + len, &[7]);
                assert_eq!(resume(&mem, &footprint), Some(vec![]), "{at:#x} back");
                mem.write(addr - 1, &[0]);
                mem.write(addr + len, &[0]);
            }
        }
        // A run of changed bytes across a block boundary is one run.
        mem.write(0x10fe, &[5, 5, 5]);
        assert_eq!(resume(&mem, &footprint), Some(vec![(0x10fe, 3)]));
        // Derived again, the snapshot holds the new bytes, in the order
        // of the served ranges, and compares equal.
        {
            let target = Target::with_cache(&mem, &types, &symbols, free, &cache);
            let mut again = Vec::new();
            target.derive(&index, &mut Vec::new(), &mut again);
            assert!(target.changed(&index, &again, &mut changed) && changed.is_empty());
            let mut want = vec![0; 36];
            want[16 + 6..16 + 9].fill(5);
            assert_eq!(again, want);
        }
        mem.write(0x10fe, &[0, 0, 0]);
        // A block the comparison needs that is not resident.
        assert_eq!(resume(&mem, &footprint[1..]), None, "0x1000 absent");
        assert_eq!(resume(&mem, &footprint[..2]), None, "0x1200 absent");
        // A snapshot is taken from resident bytes only: a walk whose
        // block was evicted before it ended keeps none.
        let one = BlockCache::new(CacheConfig {
            max_blocks: 1,
            ..CacheConfig::default()
        });
        let mut target = Target::with_cache(&mem, &types, &symbols, free, &one);
        target.record_reads(&record);
        target.read_uint(0x1008, 8).unwrap();
        target.read_uint(0x1208, 8).unwrap();
        target.end_walk(&mut index);
        target.derive(&index, &mut footprint, &mut snapshot);
        assert!(snapshot.is_empty());
    }

    #[test]
    fn touched_tracking_logs_logical_reads_not_prefetch() {
        let (img, _t, roots) = workload::build(&WorkloadConfig::default()).finish();
        let cache = BlockCache::new(CacheConfig::default());
        let record = ReadRecord::default();
        let mut target = Target::with_cache(
            &img.mem,
            &img.types,
            &img.symbols,
            LatencyProfile::free(),
            &cache,
        );
        let mut index = ReadIndex::default();
        let mut end_walk = |target: &Target| {
            target.end_walk(&mut index);
            staleness(&index)
        };
        // Off by default: nothing is logged.
        let _ = target.read_uint(roots.init_task, 8).unwrap();
        assert_eq!(end_walk(&target), []);
        target.record_reads(&record);
        // Prefetch pulls a whole span but is speculative — not touched.
        target.prefetch(roots.init_task + 0x800, 256);
        let _ = target.read_uint(roots.init_task, 8).unwrap();
        let _ = target.read_uint(roots.init_task + 8, 4).unwrap(); // continues it
        let _ = target.read_uint(roots.init_task + 0x100, 8).unwrap();
        assert_eq!(
            end_walk(&target),
            [(roots.init_task, 12), (roots.init_task + 0x100, 8)]
        );
        // A new walk starts a fresh log; cache hits still record.
        target.record_reads(&record);
        let _ = target.read_uint(roots.init_task, 8).unwrap();
        assert_eq!(end_walk(&target), [(roots.init_task, 8)]);
    }

    #[test]
    fn the_index_books_each_read_to_its_owner() {
        let mut mem = Mem::new();
        mem.map(0x1000, 4096);
        let (types, symbols) = (TypeRegistry::new(), SymbolTable::new());
        let cache = BlockCache::new(CacheConfig::default());
        let record = ReadRecord::default();
        let mut target = Target::with_cache(&mem, &types, &symbols, LatencyProfile::free(), &cache);
        target.record_reads(&record);
        let read = |owner: u32, addr: u64| {
            target.set_owner(owner);
            target.read_uint(addr, 8).unwrap();
        };
        // Box 1 reads around box 2's read of the next eight bytes: the
        // record keeps them apart, the index merges box 1's own.
        read(1, 0x1000);
        read(2, 0x1008);
        read(1, 0x1010);
        read(1, 0x1018);
        read(TOP_LEVEL, 0x1100);
        target.set_owner(2);
        target.prefetch(0x1200, 16);
        assert_eq!(target.set_owner(TOP_LEVEL), 2);
        let (mut footprint, mut snapshot) = (Vec::new(), Vec::new());
        let mut index = ReadIndex::default();
        target.end_walk(&mut index);
        target.derive(&index, &mut footprint, &mut snapshot);
        let ranges: Vec<_> = index
            .reads
            .iter()
            .map(|r| (r.addr, r.len, r.owner))
            .collect();
        assert_eq!(
            ranges,
            [
                (0x1000, 8, 1),
                (0x1008, 8, 2),
                (0x1010, 16, 1),
                (0x1100, 8, TOP_LEVEL),
                (0x1200, 16, 2)
            ]
        );
        let owners = |ranges: &[(u64, u64)]| {
            let mut owners = vec![7];
            index.owners_of(ranges, &mut owners);
            owners
        };
        assert_eq!(owners(&[(0x100c, 8)]), [1, 2, 7], "appended, sorted");
        assert_eq!(owners(&[(0x101f, 1), (0x1104, 1)]), [1, 7, TOP_LEVEL]);
        assert_eq!(
            owners(&[(0x1200, 4), (0x1028, 8)]),
            [7],
            "a hint owns nothing"
        );
        // The served ranges merge across owners.
        assert_eq!(
            index.served().collect::<Vec<_>>(),
            [(0x1000, 0x20), (0x1100, 8)]
        );
        assert_eq!(snapshot.len(), 0x20 + 8);
        // Box 1 reads again in another order: the same ranges. Reading
        // past them, or less, is not.
        let again = |addrs: &[u64]| {
            let mut target =
                Target::with_cache(&mem, &types, &symbols, LatencyProfile::free(), &cache);
            target.record_reads(&record);
            target.set_owner(1);
            for &addr in addrs {
                target.read_uint(addr, 8).unwrap();
            }
        };
        again(&[0x1018, 0x1000, 0x1010]);
        assert!(index.matches(&record, &[1]));
        assert!(!index.matches(&record, &[1, 2]), "box 2 read nothing");
        again(&[0x1018, 0x1000, 0x1010, 0x1020]);
        assert!(!index.matches(&record, &[1]));
        again(&[0x1000, 0x1010]);
        assert!(!index.matches(&record, &[1]));
        // Replaced, box 1's ranges are what it read this time, and the
        // footprint and snapshot derive from the index again.
        index.replace(&record, &[1]);
        let ranges: Vec<_> = index
            .reads
            .iter()
            .map(|r| (r.addr, r.len, r.owner))
            .collect();
        assert_eq!(
            ranges,
            [
                (0x1000, 8, 1),
                (0x1008, 8, 2),
                (0x1010, 8, 1),
                (0x1100, 8, TOP_LEVEL),
                (0x1200, 16, 2)
            ]
        );
        target.derive(&index, &mut footprint, &mut snapshot);
        assert_eq!(footprint, [0x1000, 0x1100, 0x1200]);
        assert_eq!(snapshot.len(), 0x18 + 8);
    }

    #[test]
    fn note_incr_accumulates_and_resets() {
        let (img, _t, _roots) = workload::build(&WorkloadConfig::default()).finish();
        let target = Target::new(&img.mem, &img.types, &img.symbols, LatencyProfile::free());
        target.note_incr(3, 1, 20);
        target.note_incr(2, 0, 0);
        let s = target.stats();
        assert_eq!((s.vincr_hits, s.vincr_rewalks, s.dirty_bytes), (5, 1, 20));
        target.reset_stats();
        assert_eq!(target.stats(), TargetStats::default());
    }

    #[test]
    fn prefetch_pulls_span_as_one_packet() {
        let (img, _t, roots) = workload::build(&WorkloadConfig::default()).finish();
        let cache = BlockCache::new(CacheConfig::default());
        let target = Target::with_cache(
            &img.mem,
            &img.types,
            &img.symbols,
            LatencyProfile::kgdb_rpi400(),
            &cache,
        );
        target.prefetch(roots.init_task, 1024);
        let s = target.stats();
        assert_eq!(s.reads, 1, "one span packet");
        assert!(s.bytes >= 1024);
        // Reads inside the span are now free.
        let _ = target.read_uint(roots.init_task + 512, 8).unwrap();
        assert_eq!(target.stats().reads, 1);
        // Prefetch on an uncached target is a strict no-op.
        let plain = Target::new(
            &img.mem,
            &img.types,
            &img.symbols,
            LatencyProfile::kgdb_rpi400(),
        );
        plain.prefetch(roots.init_task, 1024);
        assert_eq!(plain.stats(), TargetStats::default());
    }
}
