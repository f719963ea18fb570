//! What a walk allocates, pinned.
//!
//! A session binds what a ViewCL program fixes once: decorators, view
//! chains and the definitions table at parse time; box C types, anchor
//! offsets and the names inside its C expressions on the first walk.
//! Scopes are slot vectors reused across boxes, and names reach the
//! graph as the program's shared `Arc<str>`s. So a walk allocates only
//! for what it reads and builds: rendered values, graph vectors and
//! cache fills. A counting global allocator pins that number for three
//! figures on a plain session with perfbench's settings (the KGDB
//! profile and the default cache), and checks it does not move after
//! 300 scheduler ticks, so nothing is bound again per walk. A tick
//! changes what two of fig3-4's boxes read, so its first request after
//! the stop patches the retained pane (counted apart); it leaves the
//! other two figures' bytes as they were, so their first request keeps
//! the pane. A second walk of each figure within the stop is counted.
//! Allocation counts repeat exactly; timings do not. This binary holds
//! a single test so that nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ksim::workload::{build, WorkloadConfig};
use vbridge::{CacheConfig, LatencyProfile, TargetStats};
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

/// The figures counted, and what one walk of each allocates after a
/// tick stop, the second request within the stop. A graph holds each
/// box behind an `Arc` and its intern index behind one more, so a walk
/// allocates one block per box and one per graph besides what the boxes
/// hold: fig3-4's 22 boxes, fig9-2's 74 and socketconn's 22. A list
/// walk allocates its visited set at its first node, so an empty list
/// allocates nothing.
const PINNED: [(&str, u64); 3] = [("fig3-4", 899), ("fig9-2", 534), ("socketconn", 208)];

/// What fig3-4's first request after a tick stop allocates: a patch of
/// two of its 22 boxes. The patched graph shares the other 20 boxes and
/// the intern index with the retained one, so it allocates its box
/// list and the two new boxes, not a copy of the pane.
const PATCHED: u64 = 150;

/// Allocations made by one `extract_shared` of `src`, with the graph
/// dropped again, and its stats.
fn allocations(session: &Session, src: &str) -> (u64, TargetStats) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (graph, stats) = session.extract_shared(src).expect("the figure extracts");
    let n = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(graph);
    (n, stats.target)
}

/// The allocations of fig3-4's patch, then of a walk of each pinned
/// figure.
fn walk_allocations(session: &Session) -> (u64, Vec<(&'static str, u64)>) {
    let fig3_4 = figures::by_id("fig3-4").expect("figure").viewcl;
    let (patched, stats) = allocations(session, fig3_4);
    assert_eq!(stats.reevaluated, 2, "a tick changes two of fig3-4's boxes");
    let walks = PINNED
        .iter()
        .map(|&(id, _)| {
            let src = figures::by_id(id).expect("figure").viewcl;
            if id != "fig3-4" {
                let (_, stats) = session.extract_shared(src).expect("the figure extracts");
                assert_eq!(stats.target.vincr_hits, 1, "a tick leaves {id} as it was");
            }
            let (n, stats) = allocations(session, src);
            assert_eq!((stats.vincr_hits, stats.reevaluated), (0, 0), "{id} walks");
            (id, n)
        })
        .collect();
    (patched, walks)
}

#[test]
fn a_walk_allocates_as_pinned_after_one_stop_and_after_three_hundred() {
    let cfg = WorkloadConfig {
        seed: 1,
        ..WorkloadConfig::default()
    };
    let (_, _, roots) = build(&cfg).finish();
    let mut session = Session::builder(build(&cfg))
        .profile(LatencyProfile::kgdb_rpi400())
        .cache(CacheConfig::default())
        .attach()
        .expect("live attach");
    let stop = |session: &mut Session, step: u64| {
        session
            .stop_event(|img| {
                ksim::tick::tick(img, &roots, step);
            })
            .expect("a live session takes stop events");
    };
    // The warm walk parses each program and binds its names.
    for (id, _) in PINNED {
        let src = figures::by_id(id).expect("figure").viewcl;
        session.extract_shared(src).expect("the figure extracts");
    }
    stop(&mut session, 1);
    let after_one = walk_allocations(&session);
    assert_eq!(
        after_one,
        (PATCHED, PINNED.to_vec()),
        "allocations after one stop"
    );
    for step in 2..=300 {
        stop(&mut session, step);
    }
    assert_eq!(
        walk_allocations(&session),
        after_one,
        "allocations after 300 stops"
    );
}
