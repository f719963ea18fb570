//! A write into a full in-process lane costs nothing.
//!
//! The wire pump retries a stalled client's pending reply bytes on every
//! sweep, so `ChanIo::write` must find the lane full before it copies a
//! chunk. A counting global allocator pins that: 1,000 writes of 64 KiB
//! into a full lane each report `WouldBlock` and allocate nothing. This
//! binary holds a single test so that nothing else allocates while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::ErrorKind;
use std::sync::atomic::{AtomicU64, Ordering};

use vserve::{byte_pair, Io};

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

#[test]
fn writes_into_a_full_lane_would_block_and_allocate_nothing() {
    let (mut writer, _reader) = byte_pair(1);
    let chunk = vec![7u8; 64 * 1024];
    assert_eq!(
        writer.write(&chunk).expect("the lane has room"),
        chunk.len()
    );
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1000 {
        let err = writer.write(&chunk).expect_err("the lane is full");
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
    }
    assert_eq!(ALLOCATIONS.load(Ordering::Relaxed) - before, 0);
}
