//! Property: the snapshot block cache is invisible to callers. Any
//! sequence of bridge operations — reads of every flavor, C strings,
//! prefetch hints, epoch bumps — produces identical data *and*
//! identical faults through a cached target as through an uncached one.

use proptest::prelude::*;
use vbridge::{BlockCache, CacheConfig, LatencyProfile, Target};

/// One step of a random bridge workout. Offsets are relative to the
/// workload's `init_task` page so sequences hit a mix of mapped bytes,
/// page tails, and (with `wild`) wholly unmapped memory.
#[derive(Debug, Clone)]
enum Op {
    Read { off: u64, wild: bool, len: usize },
    Uint { off: u64, wild: bool, size: usize },
    Int { off: u64, wild: bool, size: usize },
    Cstr { off: u64, wild: bool, max: usize },
    Prefetch { off: u64, wild: bool, len: u64 },
    Bump,
}

fn size_strategy() -> BoxedStrategy<usize> {
    prop_oneof![Just(1usize), Just(2), Just(4), Just(8)].boxed()
}

fn op_strategy() -> BoxedStrategy<Op> {
    prop_oneof![
        (0u64..0x3000, any::<bool>(), 1usize..64).prop_map(|(off, wild, len)| Op::Read {
            off,
            wild,
            len
        }),
        (0u64..0x3000, any::<bool>(), size_strategy()).prop_map(|(off, wild, size)| Op::Uint {
            off,
            wild,
            size
        }),
        (0u64..0x3000, any::<bool>(), size_strategy()).prop_map(|(off, wild, size)| Op::Int {
            off,
            wild,
            size
        }),
        (0u64..0x3000, any::<bool>(), 1usize..200).prop_map(|(off, wild, max)| Op::Cstr {
            off,
            wild,
            max
        }),
        (0u64..0x3000, any::<bool>(), 0u64..600).prop_map(|(off, wild, len)| Op::Prefetch {
            off,
            wild,
            len
        }),
        Just(Op::Bump),
    ]
    .boxed()
}

const WILD_BASE: u64 = 0xdead_0000_0000;

fn resolve(base: u64, off: u64, wild: bool) -> u64 {
    if wild {
        WILD_BASE + off
    } else {
        base + off
    }
}

proptest! {
    #[test]
    fn random_sequences_match_uncached(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        block_size_log2 in 3u32..=12,
    ) {
        let (img, _t, roots) =
            ksim::workload::build(&ksim::workload::WorkloadConfig::default()).finish();
        let base = roots.init_task & !0xfff;
        let cache = BlockCache::new(CacheConfig::with_block_size(1u64 << block_size_log2));
        let plain = Target::new(&img.mem, &img.types, &img.symbols, LatencyProfile::free());
        let cached = Target::with_cache(
            &img.mem,
            &img.types,
            &img.symbols,
            LatencyProfile::free(),
            &cache,
        );
        for op in &ops {
            match op {
                Op::Read { off, wild, len } => {
                    let addr = resolve(base, *off, *wild);
                    let mut a = vec![0u8; *len];
                    let mut b = vec![0u8; *len];
                    let ra = plain.read(addr, &mut a);
                    let rb = cached.read(addr, &mut b);
                    prop_assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
                    prop_assert_eq!(&a, &b);
                }
                Op::Uint { off, wild, size } => {
                    let addr = resolve(base, *off, *wild);
                    prop_assert_eq!(
                        format!("{:?}", plain.read_uint(addr, *size)),
                        format!("{:?}", cached.read_uint(addr, *size))
                    );
                }
                Op::Int { off, wild, size } => {
                    let addr = resolve(base, *off, *wild);
                    prop_assert_eq!(
                        format!("{:?}", plain.read_int(addr, *size)),
                        format!("{:?}", cached.read_int(addr, *size))
                    );
                }
                Op::Cstr { off, wild, max } => {
                    let addr = resolve(base, *off, *wild);
                    prop_assert_eq!(
                        format!("{:?}", plain.read_cstr(addr, *max)),
                        format!("{:?}", cached.read_cstr(addr, *max))
                    );
                }
                Op::Prefetch { off, wild, len } => {
                    // Hints never change observable behavior (and never
                    // fault, even on unmapped spans).
                    cached.prefetch(resolve(base, *off, *wild), *len);
                    plain.prefetch(resolve(base, *off, *wild), *len);
                }
                Op::Bump => cached.bump_epoch(),
            }
        }
        // Accounting sanity: cache hits are free, so every wire packet on
        // the cached side is either a block fetch or a doomed fault span —
        // never more than the block-granularity worst case of the sequence.
        let s = cached.stats();
        let bs = 1u64 << block_size_log2;
        // An unaligned span of `n` bytes touches at most n/bs + 2 blocks.
        let blocks = |span: u64| span / bs + 2;
        let worst: u64 = ops
            .iter()
            .map(|op| match op {
                Op::Read { len, .. } => blocks(*len as u64),
                Op::Uint { size, .. } | Op::Int { size, .. } => blocks(*size as u64),
                Op::Cstr { max, .. } => blocks(*max as u64 + 1),
                Op::Prefetch { len, .. } => blocks((*len).min(4096)),
                Op::Bump => 0,
            })
            .sum();
        prop_assert!(
            s.reads <= worst,
            "cached side paid {} packets, block-granularity worst case is {} (bs={bs}, ops={ops:?})",
            s.reads,
            worst
        );
    }
}
