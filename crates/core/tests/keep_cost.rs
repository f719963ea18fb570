//! What a kept pane costs does not depend on how long it has been kept.
//!
//! An incremental session decides at each resume which retained panes
//! the stop's dirty set could have changed, so handing out a kept pane
//! is a flag read plus a reference count, however many stops ago the
//! pane was walked. A counting global allocator pins that: one kept
//! `extract_shared` allocates as often after 300 scheduler ticks as
//! after one, and only a handful of times. This binary holds a single
//! test so that nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ksim::workload::{build, WorkloadConfig};
use visualinux::{figures, Session};

/// Counts every allocation and reallocation, then defers to [`System`].
struct Counting;

/// Allocations so far. A statistic only: it orders no other memory, so
/// `Relaxed` suffices.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: each method passes its arguments unchanged to `System`, which
// implements `GlobalAlloc` soundly, and returns what `System` returned;
// the counter touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, and the caller upholds `realloc`'s contract for
        // `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one `extract_shared` of `src`, which must keep.
fn kept_allocations(session: &Session, src: &str) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (graph, stats) = session.extract_shared(src).expect("the pane extracts");
    let n = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(stats.target.vincr_hits, 1, "a tick never dirties {src}");
    drop(graph);
    n
}

#[test]
fn a_keep_costs_the_same_after_one_stop_and_after_three_hundred() {
    let cfg = WorkloadConfig::default();
    let (_, _, roots) = build(&cfg).finish();
    let mut session = Session::builder(build(&cfg))
        .incremental()
        .attach()
        .expect("live attach");
    // The last Table 2 figure: socket state no scheduler tick writes.
    let src = figures::by_id("socketconn").expect("figure").viewcl;
    session.extract_shared(src).expect("the pane extracts");
    let stop = |session: &mut Session, step: u64| {
        session
            .stop_event(|img| {
                ksim::tick::tick(img, &roots, step);
            })
            .expect("a live session takes stop events");
    };
    stop(&mut session, 1);
    let after_one = kept_allocations(&session, src);
    for step in 2..=300 {
        stop(&mut session, step);
    }
    let after_300 = kept_allocations(&session, src);
    assert_eq!(
        after_one, after_300,
        "a keep allocated {after_one} times after 1 stop, {after_300} after 300"
    );
    assert!(after_one <= 4, "a keep allocated {after_one} times");
}
