//! Standard-library container traversals (the *distill* operators).
//!
//! Each traversal reads raw target memory through the metered bridge, so
//! container walks contribute to the Table 4 cost model exactly like
//! GDB-driven walks do in the paper.
//!
//! All walks are corruption-tolerant: a cross-linked list, a dangling
//! `->next`, or a freed maple node stops the walk with a [`Truncation`]
//! instead of an error or an unbounded spin. The interpreter renders the
//! truncation as a diagnostic box so a corrupted image still produces a
//! plot — with the damage annotated — rather than no plot at all.

use std::collections::HashSet;

use ktypes::{CValue, TypeKind};
use vbridge::Target;

use crate::{Result, VclError};

/// Backstop bound on container traversal (visited-set cycle detection
/// catches corruption long before this; the bound guards pathological
/// images whose every node is distinct).
const MAX_ELEMS: usize = 1_000_000;

/// Why a container walk stopped before its natural end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncReason {
    /// A node was visited twice without passing through the head — a
    /// cross-link that bypasses the terminator.
    Cycle,
    /// A pointer led into unmapped memory (use-after-free, wild pointer).
    Fault,
    /// The `MAX_ELEMS` backstop fired.
    Bound,
}

/// A truncated traversal: where and why the walk gave up. The elements
/// collected up to that point are still returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncation {
    /// What stopped the walk.
    pub reason: TruncReason,
    /// The offending address (revisited node, unreadable node, or the
    /// last node examined).
    pub addr: u64,
}

impl Truncation {
    /// Human-readable diagnostic, e.g.
    /// `List truncated after 4 elems: cycle back to 0x2000`.
    pub fn describe(&self, what: &str, elems: usize) -> String {
        let why = match self.reason {
            TruncReason::Cycle => format!("cycle back to {:#x}", self.addr),
            TruncReason::Fault => format!("unreadable memory at {:#x}", self.addr),
            TruncReason::Bound => format!("element bound hit at {:#x}", self.addr),
        };
        format!("{what} truncated after {elems} elems: {why}")
    }
}

/// Result of an xarray walk: `(index, entry)` pairs in ascending index
/// order, plus the truncation diagnostic if the walk gave up early.
pub type XarrayWalk = (Vec<(u64, u64)>, Option<Truncation>);

fn addr_of(v: &CValue, what: &str) -> Result<u64> {
    v.address()
        .or_else(|| v.as_u64())
        .ok_or_else(|| VclError::Eval(format!("{what}: expected an address, got {v:?}")))
}

/// Walk a circular `list_head`, returning node addresses (head excluded)
/// and a truncation note if the list is corrupted.
pub fn list_nodes(
    target: &Target<'_>,
    head_val: &CValue,
) -> Result<(Vec<u64>, Option<Truncation>)> {
    let head = addr_of(head_val, "List")?;
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    seen.insert(head);
    let mut cur = match target.read_uint(head, 8) {
        Ok(v) => v,
        Err(_) => {
            return Ok((
                out,
                Some(Truncation {
                    reason: TruncReason::Fault,
                    addr: head,
                }),
            ))
        }
    };
    while cur != head && cur != 0 {
        if !seen.insert(cur) {
            return Ok((
                out,
                Some(Truncation {
                    reason: TruncReason::Cycle,
                    addr: cur,
                }),
            ));
        }
        out.push(cur);
        // The consumer is about to render the object embedding this
        // node: hint the bridge to pull the surrounding bytes (covers
        // the ->next hop below too). No-op on uncached targets.
        target.prefetch(cur, 128);
        let node = cur;
        cur = match target.read_uint(cur, 8) {
            Ok(v) => v,
            Err(_) => {
                return Ok((
                    out,
                    Some(Truncation {
                        reason: TruncReason::Fault,
                        addr: node,
                    }),
                ))
            }
        };
        if out.len() >= MAX_ELEMS {
            return Ok((
                out,
                Some(Truncation {
                    reason: TruncReason::Bound,
                    addr: cur,
                }),
            ));
        }
    }
    Ok((out, None))
}

/// Walk an `hlist_head`, returning node addresses and a truncation note
/// if the chain is corrupted.
pub fn hlist_nodes(
    target: &Target<'_>,
    head_val: &CValue,
) -> Result<(Vec<u64>, Option<Truncation>)> {
    let head = addr_of(head_val, "HList")?;
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    let mut cur = match target.read_uint(head, 8) {
        Ok(v) => v,
        Err(_) => {
            return Ok((
                out,
                Some(Truncation {
                    reason: TruncReason::Fault,
                    addr: head,
                }),
            ))
        }
    };
    while cur != 0 {
        if !seen.insert(cur) {
            return Ok((
                out,
                Some(Truncation {
                    reason: TruncReason::Cycle,
                    addr: cur,
                }),
            ));
        }
        out.push(cur);
        target.prefetch(cur, 128);
        let node = cur;
        cur = match target.read_uint(cur, 8) {
            Ok(v) => v,
            Err(_) => {
                return Ok((
                    out,
                    Some(Truncation {
                        reason: TruncReason::Fault,
                        addr: node,
                    }),
                ))
            }
        };
        if out.len() >= MAX_ELEMS {
            return Ok((
                out,
                Some(Truncation {
                    reason: TruncReason::Bound,
                    addr: cur,
                }),
            ));
        }
    }
    Ok((out, None))
}

/// In-order walk of a red-black tree. Accepts an `rb_root`,
/// `rb_root_cached`, `rb_node *` or raw node address. A parent-pointer
/// cycle or an unreadable node truncates the walk.
pub fn rbtree_nodes(
    target: &Target<'_>,
    root_val: &CValue,
) -> Result<(Vec<u64>, Option<Truncation>)> {
    // Normalize to the top rb_node address.
    let top = match root_val {
        CValue::LValue { addr, ty } => {
            let name = target.types.tag_name(*ty).unwrap_or("");
            match name {
                "rb_root_cached" | "rb_root" => target.read_uint(*addr, 8),
                "rb_node" => Ok(*addr),
                _ => target.read_uint(*addr, 8),
            }
        }
        CValue::Ptr { addr, ty } => {
            let pointee = target.types.pointee(*ty).ok();
            let name = pointee.and_then(|p| target.types.tag_name(p)).unwrap_or("");
            match name {
                "rb_root_cached" | "rb_root" => target.read_uint(*addr, 8),
                _ => Ok(*addr),
            }
        }
        other => Ok(addr_of(other, "RBTree")?),
    };
    let top = match top {
        Ok(t) => t,
        Err(_) => {
            let addr = addr_of(root_val, "RBTree").unwrap_or(0);
            return Ok((
                Vec::new(),
                Some(Truncation {
                    reason: TruncReason::Fault,
                    addr,
                }),
            ));
        }
    };
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    // Iterative in-order with an explicit stack (kernel trees can be deep).
    let mut stack: Vec<(u64, bool)> = if top == 0 { vec![] } else { vec![(top, false)] };
    while let Some((node, expanded)) = stack.pop() {
        if node == 0 {
            continue;
        }
        if expanded {
            out.push(node);
            continue;
        }
        if !seen.insert(node) {
            return Ok((
                out,
                Some(Truncation {
                    reason: TruncReason::Cycle,
                    addr: node,
                }),
            ));
        }
        // The two child pointers are adjacent: hint the pair so a cached
        // bridge pulls it as one span, and read both before pushing
        // anything of the node.
        target.prefetch(node + 8, 16);
        let children = target
            .read_uint(node + 8, 8)
            .and_then(|right| target.read_uint(node + 16, 8).map(|left| (right, left)));
        let Ok((right, left)) = children else {
            return Ok((
                out,
                Some(Truncation {
                    reason: TruncReason::Fault,
                    addr: node,
                }),
            ));
        };
        if right != 0 {
            stack.push((right, false));
        }
        stack.push((node, true));
        if left != 0 {
            stack.push((left, false));
        }
        if out.len() + stack.len() > MAX_ELEMS {
            return Ok((
                out,
                Some(Truncation {
                    reason: TruncReason::Bound,
                    addr: node,
                }),
            ));
        }
    }
    Ok((out, None))
}

/// Elements of a C array lvalue, or of a `(pointer, length)` pair. An
/// element load that faults truncates the result (the array may live in
/// a freed node).
pub fn array_elems(
    target: &Target<'_>,
    args: &[CValue],
) -> Result<(Vec<CValue>, Option<Truncation>)> {
    match args {
        [CValue::LValue { addr, ty }] => match &target.types.get(*ty).kind {
            TypeKind::Array { elem, len } => {
                let esz = target.types.size_of(*elem);
                // The whole array is about to be loaded element-wise.
                target.prefetch(*addr, esz * *len);
                let mut out = Vec::with_capacity(*len as usize);
                for i in 0..*len {
                    match target.load(addr + esz * i, *elem) {
                        Ok(v) => out.push(v),
                        Err(_) => {
                            return Ok((
                                out,
                                Some(Truncation {
                                    reason: TruncReason::Fault,
                                    addr: addr + esz * i,
                                }),
                            ))
                        }
                    }
                }
                Ok((out, None))
            }
            _ => Err(VclError::Eval(format!(
                "Array: `{}` is not an array",
                target.types.display_name(*ty)
            ))),
        },
        [ptr, len] => {
            let base = addr_of(ptr, "Array")?;
            let len = match len {
                CValue::LValue { addr, ty } if target.types.size_of(*ty) <= 8 => {
                    let size = target.types.size_of(*ty).max(1) as usize;
                    CValue::Int {
                        value: target.read_uint(*addr, size)? as i64,
                        ty: *ty,
                    }
                }
                other => other.clone(),
            };
            let n = len
                .as_u64()
                .ok_or_else(|| VclError::Eval("Array: length must be integer".into()))?;
            let elem_ty = match ptr {
                CValue::Ptr { ty, .. } => target.types.pointee(*ty).ok(),
                _ => None,
            };
            // Untyped: treat as an array of 8-byte words.
            let (elem_ty, esz) = match elem_ty {
                Some(ty) if target.types.size_of(ty) > 0 => (Ok(ty), target.types.size_of(ty)),
                _ => {
                    let word_ty = target
                        .types
                        .find("unsigned long")
                        .ok_or_else(|| VclError::Eval("u64 not interned".into()))?;
                    (Err(word_ty), 8)
                }
            };
            // The length comes from kernel memory, so it may be anything:
            // the walk ends at the first element it cannot read, at the
            // end of the address space, and at `MAX_ELEMS`.
            target.prefetch(base, esz.saturating_mul(n));
            let mut out = Vec::with_capacity((n as usize).min(MAX_ELEMS));
            for i in 0..n {
                let addr = base.wrapping_add(esz.wrapping_mul(i));
                if out.len() == MAX_ELEMS {
                    let reason = TruncReason::Bound;
                    return Ok((out, Some(Truncation { reason, addr })));
                }
                let at = esz.checked_mul(i).and_then(|off| base.checked_add(off));
                let elem = at.and_then(|at| match elem_ty {
                    Ok(ty) => target.load(at, ty).ok(),
                    Err(word_ty) => target.read_uint(at, 8).ok().map(|v| CValue::Int {
                        value: v as i64,
                        ty: word_ty,
                    }),
                });
                match elem {
                    Some(v) => out.push(v),
                    None => {
                        let reason = TruncReason::Fault;
                        return Ok((out, Some(Truncation { reason, addr })));
                    }
                }
            }
            Ok((out, None))
        }
        _ => Err(VclError::Eval("Array takes 1 or 2 arguments".into())),
    }
}

/// Walk an xarray (`struct xarray` lvalue), yielding `(index, entry)` for
/// every non-NULL stored entry. Corrupted interior nodes truncate the
/// walk rather than erroring.
pub fn xarray_entries(target: &Target<'_>, xa_val: &CValue) -> Result<XarrayWalk> {
    let xa = addr_of(xa_val, "XArray")?;
    let xarray_ty = target
        .types
        .find("xarray")
        .ok_or_else(|| VclError::Eval("xarray type not registered".into()))?;
    let (head_off, _) = target
        .types
        .field_path(xarray_ty, "xa_head")
        .map_err(vbridge::BridgeError::from)?;
    let mut out = Vec::new();
    let head = match target.read_uint(xa + head_off, 8) {
        Ok(h) => h,
        Err(_) => {
            return Ok((
                out,
                Some(Truncation {
                    reason: TruncReason::Fault,
                    addr: xa + head_off,
                }),
            ))
        }
    };
    if head == 0 {
        return Ok((out, None));
    }
    if head & 3 != 2 || head <= 4096 {
        out.push((0, head));
        return Ok((out, None));
    }
    let xa_node = target
        .types
        .find("xa_node")
        .ok_or_else(|| VclError::Eval("xa_node type not registered".into()))?;
    let (shift_off, _) = target
        .types
        .field_path(xa_node, "shift")
        .map_err(vbridge::BridgeError::from)?;
    let (slots_off, _) = target
        .types
        .field_path(xa_node, "slots")
        .map_err(vbridge::BridgeError::from)?;

    let mut seen = HashSet::new();
    let mut stack: Vec<(u64, u64)> = vec![(head & !3, 0)];
    let mut trunc = None;
    while let Some((node, base)) = stack.pop() {
        if !seen.insert(node) {
            trunc = Some(Truncation {
                reason: TruncReason::Cycle,
                addr: node,
            });
            break;
        }
        let shift = match target.read_uint(node + shift_off, 1) {
            Ok(s) => s,
            Err(_) => {
                trunc = Some(Truncation {
                    reason: TruncReason::Fault,
                    addr: node,
                });
                break;
            }
        };
        // All 64 slots will be inspected: hint the span so a cached
        // bridge pulls it as one packet, and read every slot before
        // walking any, so a fault leaves nothing of the node behind.
        target.prefetch(node + slots_off, 8 * 64);
        let mut slots = [0u64; 64];
        let read = (0u64..).zip(&mut slots).try_for_each(|(slot, entry)| {
            let at = node + slots_off + 8 * slot;
            target.read_uint(at, 8).map(|v| *entry = v)
        });
        if read.is_err() {
            trunc = Some(Truncation {
                reason: TruncReason::Fault,
                addr: node,
            });
            break;
        }
        for (slot, entry) in (0u64..).zip(slots) {
            if entry == 0 {
                continue;
            }
            let idx_base = base + (slot << shift);
            if entry & 3 == 2 && entry > 4096 && shift > 0 {
                stack.push((entry & !3, idx_base));
            } else {
                out.push((idx_base, entry));
            }
        }
    }
    out.sort_unstable_by_key(|&(idx, _)| idx);
    Ok((out, trunc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::image::KernelBuilder;
    use ksim::structops;
    use vbridge::{BlockCache, CacheConfig, LatencyProfile, Target};

    struct Fx {
        kb: KernelBuilder,
    }

    fn fixture() -> Fx {
        let mut kb = KernelBuilder::new();
        let common = kb.common;
        // Register the vfs types so XArray walks have xa_node available.
        let _ = ksim::vfs::register_types(&mut kb.types, &common);
        let _ = ksim::pagecache::register_types(&mut kb.types, &common);
        kb.types.ensure_pointers();
        Fx { kb }
    }

    fn target(fx: &Fx) -> Target<'_> {
        Target::new(
            &fx.kb.mem,
            &fx.kb.types,
            &fx.kb.symbols,
            LatencyProfile::free(),
        )
    }

    fn long_val(fx: &Fx, v: u64) -> CValue {
        CValue::Int {
            value: v as i64,
            ty: fx.kb.types.find("long").unwrap(),
        }
    }

    #[test]
    fn corrupted_list_truncates_with_cycle_diagnostic() {
        let mut fx = fixture();
        // A list whose node points at itself (but is not the head): the
        // walk reports a cycle after the first element instead of
        // spinning until the element bound.
        fx.kb.mem.map(0x1000, 16);
        fx.kb.mem.map(0x2000, 16);
        structops::list_init(&mut fx.kb.mem, 0x1000);
        structops::list_add_tail(&mut fx.kb.mem, 0x2000, 0x1000);
        // Corrupt: node→next = node.
        fx.kb.mem.write_uint(0x2000, 8, 0x2000);
        let head = long_val(&fx, 0x1000);
        let t = target(&fx);
        let (nodes, trunc) = list_nodes(&t, &head).unwrap();
        assert_eq!(nodes, vec![0x2000]);
        let trunc = trunc.expect("cycle must be flagged");
        assert_eq!(trunc.reason, TruncReason::Cycle);
        assert_eq!(trunc.addr, 0x2000);
        // Detection costs O(cycle) reads, not O(MAX_ELEMS).
        assert!(t.stats().reads < 10, "cycle found in a handful of reads");
    }

    #[test]
    fn list_through_unmapped_node_truncates_with_fault() {
        let mut fx = fixture();
        fx.kb.mem.map(0x1000, 16);
        structops::list_init(&mut fx.kb.mem, 0x1000);
        // Head points into unmapped memory: a dangling ->next.
        fx.kb.mem.write_uint(0x1000, 8, 0xdead_0000);
        let head = long_val(&fx, 0x1000);
        let t = target(&fx);
        let (nodes, trunc) = list_nodes(&t, &head).unwrap();
        // The dangling node is still surfaced (its fields will render as
        // errors), and the truncation names it.
        assert_eq!(nodes, vec![0xdead_0000]);
        let trunc = trunc.expect("fault must be flagged");
        assert_eq!(trunc.reason, TruncReason::Fault);
        assert_eq!(trunc.addr, 0xdead_0000);
        assert!(t.stats().faults >= 1, "the wild read is metered");
    }

    #[test]
    fn cross_linked_rbtree_truncates_with_cycle() {
        let mut fx = fixture();
        // Three nodes; right child of the root points back at the root.
        for a in [0x5000u64, 0x5020, 0x5040] {
            fx.kb.mem.map(a, 24);
        }
        fx.kb.mem.write_uint(0x5000 + 16, 8, 0x5020); // root.left
        fx.kb.mem.write_uint(0x5000 + 8, 8, 0x5040); // root.right
        fx.kb.mem.write_uint(0x5040 + 8, 8, 0x5000); // right.right -> root!
        let t = target(&fx);
        let root = long_val(&fx, 0x5000);
        let (nodes, trunc) = rbtree_nodes(&t, &root).unwrap();
        assert!(nodes.len() <= 3);
        assert_eq!(trunc.unwrap().reason, TruncReason::Cycle);
    }

    #[test]
    fn two_arg_array_with_typed_pointer_loads_elements() {
        let mut fx = fixture();
        // An array of 3 u64s behind a pointer.
        fx.kb.mem.map(0x4000, 24);
        for i in 0..3u64 {
            fx.kb.mem.write_uint(0x4000 + 8 * i, 8, 100 + i);
        }
        let t = target(&fx);
        let u64_ty = t.types.find("unsigned long").unwrap();
        let pty = t.types.find_pointer_to(u64_ty).unwrap();
        let ptr = CValue::Ptr {
            addr: 0x4000,
            ty: pty,
        };
        let len = CValue::Int {
            value: 3,
            ty: u64_ty,
        };
        let (elems, trunc) = array_elems(&t, &[ptr, len]).unwrap();
        assert!(trunc.is_none());
        let got: Vec<i64> = elems.iter().filter_map(|e| e.as_int()).collect();
        assert_eq!(got, vec![100, 101, 102]);
    }

    #[test]
    fn array_into_unmapped_memory_truncates() {
        let mut fx = fixture();
        // The array straddles a page boundary with the tail page unmapped:
        // only the first 2 of 4 claimed elements are readable.
        let base = 0x5000 - 16;
        fx.kb.mem.map(0x4000, 4096);
        fx.kb.mem.write_uint(base, 8, 1);
        fx.kb.mem.write_uint(base + 8, 8, 2);
        let t = target(&fx);
        let u64_ty = t.types.find("unsigned long").unwrap();
        let pty = t.types.find_pointer_to(u64_ty).unwrap();
        let ptr = CValue::Ptr {
            addr: base,
            ty: pty,
        };
        let len = CValue::Int {
            value: 4,
            ty: u64_ty,
        };
        let (elems, trunc) = array_elems(&t, &[ptr, len]).unwrap();
        assert_eq!(elems.len(), 2);
        let trunc = trunc.unwrap();
        assert_eq!(trunc.reason, TruncReason::Fault);
        assert_eq!(trunc.addr, 0x5000);
    }

    #[test]
    fn a_node_that_faults_mid_read_keeps_nothing_of_itself() {
        // Page 0x2000 is mapped and 0x3000 is not. An xa_node whose slot
        // array runs off the page, and an rb_node whose left pointer
        // does: each walk ends at the node with none of its entries,
        // cached or not.
        let mut fx = fixture();
        fx.kb.mem.map(0x1000, 4096);
        fx.kb.mem.map(0x2000, 4096);
        let xarray = fx.kb.types.find("xarray").unwrap();
        let xa_node = fx.kb.types.find("xa_node").unwrap();
        let (head_off, _) = fx.kb.types.field_path(xarray, "xa_head").unwrap();
        let (slots_off, _) = fx.kb.types.field_path(xa_node, "slots").unwrap();
        // A leaf (shift 0) with four entries on the page.
        let node = 0x3000 - slots_off - 4 * 8;
        for slot in 0..4 {
            fx.kb
                .mem
                .write_uint(node + slots_off + 8 * slot, 8, 0x10 + slot);
        }
        fx.kb.mem.write_uint(0x1000 + head_off, 8, node | 2);
        let rb = 0x3000 - 16;
        let fault = |addr| {
            Some(Truncation {
                reason: TruncReason::Fault,
                addr,
            })
        };
        let cache = BlockCache::new(CacheConfig::default());
        for cached in [false, true] {
            let mut t = target(&fx);
            if cached {
                t.set_cache(&cache);
            }
            let xa = CValue::LValue {
                addr: 0x1000,
                ty: xarray,
            };
            assert_eq!(xarray_entries(&t, &xa).unwrap(), (vec![], fault(node)));
            let root = long_val(&fx, rb);
            assert_eq!(rbtree_nodes(&t, &root).unwrap(), (vec![], fault(rb)));
            assert_eq!(t.stats().faults, 2, "cached: {cached}");
        }
    }

    #[test]
    fn rbtree_of_empty_root_is_empty() {
        let mut fx = fixture();
        fx.kb.mem.map(0x5000, 8); // rb_root with NULL rb_node
        let t = target(&fx);
        let root_ty = t.types.find("rb_root").unwrap();
        let root = CValue::LValue {
            addr: 0x5000,
            ty: root_ty,
        };
        let (nodes, trunc) = rbtree_nodes(&t, &root).unwrap();
        assert_eq!(nodes, Vec::<u64>::new());
        assert!(trunc.is_none());
    }

    #[test]
    fn traversals_meter_their_reads() {
        let mut fx = fixture();
        fx.kb.mem.map(0x1000, 16);
        structops::list_init(&mut fx.kb.mem, 0x1000);
        for i in 0..5u64 {
            let node = 0x2000 + i * 0x20;
            fx.kb.mem.map(node, 16);
            structops::list_add_tail(&mut fx.kb.mem, node, 0x1000);
        }
        let head = long_val(&fx, 0x1000);
        let t = target(&fx);
        let (nodes, trunc) = list_nodes(&t, &head).unwrap();
        assert_eq!(nodes.len(), 5);
        assert!(trunc.is_none());
        // One read per hop (5 nodes + the head re-entry) at minimum.
        assert!(t.stats().reads >= 6);
    }
}
