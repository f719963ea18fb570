//! Kernel helper functions exposed to `${...}` expressions.
//!
//! The paper ships ~500 lines of GDB scripts that "expose kernel functions
//! invisible to the debugger" — static inlines and macros like `cpu_rq()`,
//! `mte_to_node()` and `task_state()`. This module is that layer: each
//! helper is a closure over the target, registered by its kernel name so
//! ViewCL programs read exactly like they would against a live kernel.

use ksim::maple;
use ktypes::CValue;
use vbridge::{BridgeError, HelperRegistry, Target};

fn arg_u64(args: &[CValue], i: usize, who: &str) -> vbridge::Result<u64> {
    args.get(i)
        .and_then(|v| v.as_u64().or_else(|| v.address()))
        .ok_or_else(|| BridgeError::Eval(format!("{who}: argument {i} must be scalar")))
}

/// `base + offset + index * stride`, or an error naming the helper and
/// its operands when the sum leaves the address space: a program or
/// kernel memory supplies them, so they may be anything.
fn address(who: &str, base: u64, offset: u64, index: u64, stride: u64) -> vbridge::Result<u64> {
    index
        .checked_mul(stride)
        .and_then(|scaled| scaled.checked_add(offset))
        .and_then(|off| base.checked_add(off))
        .ok_or_else(|| {
            let scaled = if stride == 0 {
                String::new()
            } else {
                format!(" + {index} * {stride:#x}")
            };
            BridgeError::Eval(format!(
                "{who}: address {base:#x} + {offset:#x}{scaled} overflows"
            ))
        })
}

fn long_ty(t: &Target<'_>) -> ktypes::TypeId {
    t.types.find("long").expect("long interned")
}

fn int_val(t: &Target<'_>, v: i64) -> CValue {
    CValue::Int {
        value: v,
        ty: long_ty(t),
    }
}

/// Register every kernel helper.
///
/// Safe to call on any image built by [`ksim::workload::build`]; helpers
/// that need a symbol (e.g. `runqueues`) resolve it lazily at call time so
/// partial images (unit tests) can still register the full set.
pub fn register_all(h: &mut HelperRegistry) {
    // ------------------------------------------------------------ sched --
    // cpu_rq(cpu): address of CPU's struct rq inside the per-cpu area.
    h.register("cpu_rq", |t, args| {
        let cpu = arg_u64(args, 0, "cpu_rq")?;
        let sym = t
            .symbols
            .lookup("runqueues")
            .ok_or_else(|| BridgeError::UnknownIdent("runqueues".into()))?;
        let rq_ty = t
            .types
            .find("rq")
            .ok_or_else(|| BridgeError::Eval("struct rq not registered".into()))?;
        let size = t.types.size_of(rq_ty);
        let pty = t
            .types
            .find_pointer_to(rq_ty)
            .ok_or_else(|| BridgeError::Eval("rq* not interned".into()))?;
        Ok(CValue::Ptr {
            addr: address("cpu_rq", sym.addr, 0, cpu, size)?,
            ty: pty,
        })
    });

    // task_state(task): the one-letter state like ps(1).
    h.register("task_state", |t, args| {
        let task = arg_u64(args, 0, "task_state")?;
        let ty = t
            .types
            .find("task_struct")
            .ok_or_else(|| BridgeError::Eval("task_struct not registered".into()))?;
        let (off, _) = t.types.field_path(ty, "__state")?;
        let (flags_off, _) = t.types.field_path(ty, "flags")?;
        let s = t.read_uint(address("task_state", task, off, 0, 0)?, 4)?;
        let flags = t.read_uint(address("task_state", task, flags_off, 0, 0)?, 4)?;
        let letter = match s {
            0 => "R",
            1 => "S",
            2 => "D",
            4 => "T",
            _ => "?",
        };
        let suffix = if flags & ksim::tasks::PF_KTHREAD != 0 {
            "k"
        } else {
            ""
        };
        Ok(CValue::Str(format!("{letter}{suffix}")))
    });

    // ------------------------------------------------------- maple tree --
    h.register("mte_to_node", |t, args| {
        let e = arg_u64(args, 0, "mte_to_node")?;
        let node_ty = t
            .types
            .find("maple_node")
            .ok_or_else(|| BridgeError::Eval("maple_node not registered".into()))?;
        let pty = t
            .types
            .find_pointer_to(node_ty)
            .ok_or_else(|| BridgeError::Eval("maple_node* not interned".into()))?;
        Ok(CValue::Ptr {
            addr: maple::mte_to_node(e),
            ty: pty,
        })
    });
    h.register("mte_node_type", |t, args| {
        let e = arg_u64(args, 0, "mte_node_type")?;
        Ok(int_val(t, maple::mte_node_type(e) as i64))
    });
    h.register("mte_is_leaf", |t, args| {
        let e = arg_u64(args, 0, "mte_is_leaf")?;
        Ok(int_val(
            t,
            maple::ma_is_leaf(maple::mte_node_type(e)) as i64,
        ))
    });
    h.register("xa_is_node", |t, args| {
        let e = arg_u64(args, 0, "xa_is_node")?;
        Ok(int_val(t, maple::xa_is_node(e) as i64))
    });
    // ma_slot_check(entry): a live slot? (non-NULL and not reserved).
    h.register("ma_slot_check", |t, args| {
        let e = arg_u64(args, 0, "ma_slot_check")?;
        Ok(int_val(t, (e != 0) as i64))
    });
    // mt_node_max(type): maximum index spanned by a node of this type.
    h.register("mt_node_max", |t, args| {
        let ty = arg_u64(args, 0, "mt_node_max")?;
        let max = match ty {
            0 => 63,              // maple_dense
            _ => i64::MAX as u64, // range nodes cover the full space
        };
        Ok(int_val(t, max as i64))
    });
    // mte_parent(node): the parent maple_node (untagged), 0 at the root.
    h.register("mte_parent", |t, args| {
        let node = arg_u64(args, 0, "mte_parent")?;
        let parent = t.read_uint(node, 8)?;
        let addr = if parent & 1 == 1 {
            0
        } else {
            maple::mte_to_node(parent)
        };
        Ok(int_val(t, addr as i64))
    });

    // ----------------------------------------------------------- percpu --
    // per_cpu_ptr(base, cpu, size): base + cpu * size.
    h.register("per_cpu_ptr", |t, args| {
        let base = arg_u64(args, 0, "per_cpu_ptr")?;
        let cpu = arg_u64(args, 1, "per_cpu_ptr")?;
        let size = arg_u64(args, 2, "per_cpu_ptr")?;
        Ok(int_val(
            t,
            address("per_cpu_ptr", base, 0, cpu, size)? as i64,
        ))
    });
    // timer_base_of(cpu) / rcu_data_of(cpu): typed per-cpu accessors.
    h.register("timer_base_of", |t, args| {
        let cpu = arg_u64(args, 0, "timer_base_of")?;
        let sym = t
            .symbols
            .lookup("timer_bases")
            .ok_or_else(|| BridgeError::UnknownIdent("timer_bases".into()))?;
        let ty = t
            .types
            .find("timer_base")
            .ok_or_else(|| BridgeError::Eval("timer_base not registered".into()))?;
        let pty = t.types.find_pointer_to(ty).expect("ensure_pointers ran");
        Ok(CValue::Ptr {
            addr: address("timer_base_of", sym.addr, 0, cpu, t.types.size_of(ty))?,
            ty: pty,
        })
    });
    h.register("rcu_data_of", |t, args| {
        let cpu = arg_u64(args, 0, "rcu_data_of")?;
        let sym = t
            .symbols
            .lookup("rcu_data")
            .ok_or_else(|| BridgeError::UnknownIdent("rcu_data".into()))?;
        let ty = t
            .types
            .find("rcu_data")
            .ok_or_else(|| BridgeError::Eval("rcu_data not registered".into()))?;
        let pty = t.types.find_pointer_to(ty).expect("ensure_pointers ran");
        Ok(CValue::Ptr {
            addr: address("rcu_data_of", sym.addr, 0, cpu, t.types.size_of(ty))?,
            ty: pty,
        })
    });

    h.register("xa_to_node", |t, args| {
        let e = arg_u64(args, 0, "xa_to_node")?;
        let ty = t
            .types
            .find("xa_node")
            .ok_or_else(|| BridgeError::Eval("xa_node not registered".into()))?;
        let pty = t.types.find_pointer_to(ty).expect("ensure_pointers ran");
        Ok(CValue::Ptr {
            addr: e & !3,
            ty: pty,
        })
    });

    // find_vma(mm, addr): the kernel's VMA lookup — walks the maple tree
    // through metered reads and returns the covering vm_area_struct.
    h.register("find_vma", |t, args| {
        let mm = arg_u64(args, 0, "find_vma")?;
        let addr = arg_u64(args, 1, "find_vma")?;
        let mm_ty = t
            .types
            .find("mm_struct")
            .ok_or_else(|| BridgeError::Eval("mm_struct not registered".into()))?;
        let (root_off, _) = t.types.field_path(mm_ty, "mm_mt.ma_root")?;
        let mut entry = t.read_uint(address("find_vma", mm, root_off, 0, 0)?, 8)?;
        let vma_ty = t.types.find("vm_area_struct").expect("registered");
        let pty = t
            .types
            .find_pointer_to(vma_ty)
            .expect("ensure_pointers ran");
        // Descend through tagged nodes picking the slot whose pivot covers
        // `addr` (mas_walk, simplified).
        let mut lo = 0u64;
        while maple::xa_is_node(entry) {
            let node = maple::mte_to_node(entry);
            // A maple node is 256 bytes and the walk below reads pivots
            // and slots scattered across it: pull it in one span.
            t.prefetch(node, 256);
            let ty = maple::mte_node_type(entry);
            let (nslots, piv_off, slot_off) = if ty == maple::MapleType::Arange64 as u64 {
                (
                    maple::MAPLE_ARANGE64_SLOTS,
                    8,
                    8 + 8 * (maple::MAPLE_ARANGE64_SLOTS - 1),
                )
            } else {
                (
                    maple::MAPLE_RANGE64_SLOTS,
                    8,
                    8 + 8 * (maple::MAPLE_RANGE64_SLOTS - 1),
                )
            };
            let mut next = 0u64;
            for i in 0..nslots {
                let piv = if i + 1 < nslots {
                    t.read_uint(address("find_vma", node, piv_off, i, 8)?, 8)?
                } else {
                    u64::MAX
                };
                let piv = if piv == 0 && i > 0 { u64::MAX } else { piv };
                if addr <= piv {
                    next = t.read_uint(address("find_vma", node, slot_off, i, 8)?, 8)?;
                    break;
                }
                lo = piv.wrapping_add(1);
            }
            let _ = lo;
            entry = next;
            if entry == 0 {
                break;
            }
        }
        Ok(CValue::Ptr {
            addr: entry,
            ty: pty,
        })
    });

    // fname_eq(fnptr, "name"): does the function pointer resolve to the
    // named symbol? The discriminator for heterogeneous work lists (§4.1).
    h.register("fname_eq", |t, args| {
        let f = arg_u64(args, 0, "fname_eq")?;
        let name = match args.get(1) {
            Some(CValue::Str(s)) => s.clone(),
            _ => {
                return Err(BridgeError::Eval(
                    "fname_eq: second arg must be a string".into(),
                ))
            }
        };
        let eq = t.symbols.name_at(f) == Some(name.as_str());
        Ok(int_val(t, eq as i64))
    });

    // ------------------------------------------------------------- misc --
    // zone_of(node_data, idx): &pglist_data->node_zones[idx].
    h.register("zone_of", |t, args| {
        let nd = arg_u64(args, 0, "zone_of")?;
        let idx = arg_u64(args, 1, "zone_of")?;
        let pgdat = t
            .types
            .find("pglist_data")
            .ok_or_else(|| BridgeError::Eval("pglist_data not registered".into()))?;
        let (zones_off, _) = t.types.field_path(pgdat, "node_zones")?;
        let zone_ty = t.types.find("zone").expect("zone registered");
        let pty = t
            .types
            .find_pointer_to(zone_ty)
            .expect("ensure_pointers ran");
        Ok(CValue::Ptr {
            addr: address("zone_of", nd, zones_off, idx, t.types.size_of(zone_ty))?,
            ty: pty,
        })
    });
    // pfn_of_page(page): vmemmap arithmetic, for display.
    h.register("pfn_of_page", |t, args| {
        let page = arg_u64(args, 0, "pfn_of_page")?;
        let page_ty = t
            .types
            .find("page")
            .ok_or_else(|| BridgeError::Eval("struct page not registered".into()))?;
        let base = ksim::image::VMEMMAP_BASE;
        let pfn = page.checked_sub(base).ok_or_else(|| {
            BridgeError::Eval(format!(
                "pfn_of_page: page {page:#x} lies below the vmemmap base {base:#x}"
            ))
        })? / t.types.size_of(page_ty);
        Ok(int_val(t, pfn as i64))
    });
    // i_mapping_of(inode): follows inode->i_mapping.
    h.register("i_mapping_of", |t, args| {
        let inode = arg_u64(args, 0, "i_mapping_of")?;
        let ity = t
            .types
            .find("inode")
            .ok_or_else(|| BridgeError::Eval("inode not registered".into()))?;
        let (off, _) = t.types.field_path(ity, "i_mapping")?;
        let asty = t.types.find("address_space").expect("registered");
        let pty = t.types.find_pointer_to(asty).expect("ensure_pointers ran");
        Ok(CValue::Ptr {
            addr: t.read_uint(address("i_mapping_of", inode, off, 0, 0)?, 8)?,
            ty: pty,
        })
    });
    // sem_base(sem_array): address of the inline sems[] flexible array.
    h.register("sem_base", |t, args| {
        let sa = arg_u64(args, 0, "sem_base")?;
        let saty = t
            .types
            .find("sem_array")
            .ok_or_else(|| BridgeError::Eval("sem_array not registered".into()))?;
        let sem_ty = t.types.find("sem").expect("registered");
        let pty = t
            .types
            .find_pointer_to(sem_ty)
            .expect("ensure_pointers ran");
        Ok(CValue::Ptr {
            addr: address("sem_base", sa, t.types.size_of(saty), 0, 0)?,
            ty: pty,
        })
    });
    // ntohs(port): byte-swap a 16-bit port for display.
    h.register("ntohs", |t, args| {
        let v = arg_u64(args, 0, "ntohs")? as u16;
        Ok(int_val(t, v.swap_bytes() as i64))
    });
    // ip4_str(addr): dotted quad of a little-endian stored IPv4 address.
    h.register("ip4_str", |_t, args| {
        let v = arg_u64(args, 0, "ip4_str")? as u32;
        let b = v.to_le_bytes();
        Ok(CValue::Str(format!("{}.{}.{}.{}", b[0], b[1], b[2], b[3])))
    });
}

/// A registry with everything registered — the common entry point.
pub fn registry() -> HelperRegistry {
    let mut h = HelperRegistry::new();
    register_all(&mut h);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::workload::{build, WorkloadConfig};
    use vbridge::{Evaluator, LatencyProfile};

    #[test]
    fn helpers_work_through_expressions() {
        let (img, _t, roots) = build(&WorkloadConfig::default()).finish();
        let target = Target::new(&img.mem, &img.types, &img.symbols, LatencyProfile::free());
        let h = registry();
        let ev = Evaluator::new(&target, &h);

        // cpu_rq(1)->cpu == 1.
        assert_eq!(ev.eval_str("cpu_rq(1)->cpu").unwrap().as_int(), Some(1));
        // task_state(&init_task) is a running kthread.
        match ev.eval_str("task_state(&init_task)").unwrap() {
            CValue::Str(s) => assert_eq!(s, "Rk"),
            other => panic!("unexpected {other:?}"),
        }
        // Maple tagging round-trips.
        let leader = roots.leaders[0];
        let root = ev
            .eval_str(&format!(
                "((struct task_struct *){leader})->mm->mm_mt.ma_root"
            ))
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(
            ev.eval_str(&format!("xa_is_node({root})"))
                .unwrap()
                .as_int(),
            Some(1)
        );
        let node = ev.eval_str(&format!("mte_to_node({root})")).unwrap();
        assert_eq!(node.address(), Some(ksim::maple::mte_to_node(root)));
        // Network byte order.
        assert_eq!(ev.eval_str("ntohs(0x5000)").unwrap().as_int(), Some(0x0050));
        match ev.eval_str("ip4_str(0x0100007f)").unwrap() {
            CValue::Str(s) => assert_eq!(s, "127.0.0.1"),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Evaluate `expr` with every helper registered; it must fail with a
    /// message containing `want`.
    fn fails(expr: &str, want: &str) {
        let (img, _t, _roots) = build(&WorkloadConfig::default()).finish();
        let target = Target::new(&img.mem, &img.types, &img.symbols, LatencyProfile::free());
        let h = registry();
        let ev = Evaluator::new(&target, &h);
        let err = ev.eval_str(expr).unwrap_err().to_string();
        assert!(err.contains(want), "{expr}: {err}");
    }

    #[test]
    fn per_cpu_ptr_past_the_top_is_an_error() {
        fails(
            "per_cpu_ptr(0xffffffffffffff00, 2, 0x100)",
            "per_cpu_ptr: address 0xffffffffffffff00 + 0x0 + 2 * 0x100 overflows",
        );
    }

    #[test]
    fn cpu_rq_of_a_huge_cpu_is_an_error() {
        fails("cpu_rq(0x7fffffffffffffff)", "cpu_rq: address 0x");
    }

    #[test]
    fn zone_of_past_the_top_is_an_error() {
        fails(
            "zone_of(0xffffffffffffffff, 1)",
            "zone_of: address 0xffffffffffffffff + 0x",
        );
    }

    #[test]
    fn pfn_of_a_page_below_vmemmap_is_an_error() {
        fails(
            "pfn_of_page(0)",
            &format!(
                "pfn_of_page: page 0x0 lies below the vmemmap base {:#x}",
                ksim::image::VMEMMAP_BASE
            ),
        );
    }

    #[test]
    fn every_address_helper_refuses_to_wrap() {
        for (expr, want) in [
            // `__state` sits at offset 0, so the first read faults.
            (
                "task_state(0xffffffffffffffff)",
                "unmapped address 0xffffffffffffffff",
            ),
            (
                "timer_base_of(0x7fffffffffffffff)",
                "timer_base_of: address",
            ),
            ("rcu_data_of(0x7fffffffffffffff)", "rcu_data_of: address"),
            (
                "find_vma(0xffffffffffffffff, 0)",
                "find_vma: address 0xffffffffffffffff",
            ),
            (
                "i_mapping_of(0xffffffffffffffff)",
                "i_mapping_of: address 0xffffffffffffffff",
            ),
            (
                "sem_base(0xffffffffffffffff)",
                "sem_base: address 0xffffffffffffffff",
            ),
        ] {
            fails(expr, want);
        }
    }
}
