//! Hostile frames and programs cost what their bytes are worth.
//!
//! A counting global allocator pins what decoding allocates: a value the
//! frame's type has no use for is skipped, not built, a malformed
//! ViewCL program stops at its first bad token instead of tokenizing
//! the rest, and a pushed graph is adopted as decoded, not copied. This
//! binary holds a single test so that nothing else allocates while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use visualinux::proto::{self, VCommand, VResponse};

/// Counts the bytes of every allocation and reallocation, then defers
/// to [`System`].
struct Counting;

/// Bytes requested so far. A statistic only: it orders no other
/// memory, so `Relaxed` suffices.
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: each method passes its arguments unchanged to `System`, which
// implements `GlobalAlloc` soundly, and returns what `System` returned;
// the counter touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, and the caller upholds `realloc`'s contract for
        // `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and the bytes it allocated.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (out, BYTES.load(Ordering::Relaxed) - before)
}

#[test]
fn hostile_input_allocates_in_proportion_to_what_is_kept() {
    // A 16 MB `vack` whose unknown field is an 8M-element array.
    let junk = format!(
        "{{\"command\":\"vack\",\"source\":\"s\",\"seq\":1,\"junk\":[{}0]}}",
        "0,".repeat(8 << 20)
    );
    let (ack, bytes) = counted(|| VCommand::from_json(&junk));
    assert!(matches!(ack, Ok(VCommand::Vack { seq: 1, .. })), "{ack:?}");
    assert!(bytes < 1 << 20, "{bytes} B to decode a 16 MB ack");

    // `wire_fuzz`'s 2 MB mismatch: a number array where the source
    // string belongs. Only the error message is allocated.
    let wide = format!(
        "{{\"command\":\"vplot_request\",\"viewcl\":[{}1]}}",
        "1,".repeat(1 << 20)
    );
    let (err, bytes) = counted(|| VCommand::from_json(&wide).unwrap_err().to_string());
    assert_eq!(err, "viewcl: expected string, got array");
    assert!(bytes < 1024, "{bytes} B to refuse a 2 MB array");

    // `wire_fuzz`'s push: one box whose `attrs.extra` value is a
    // 400,000-key object. The pane takes the decoded graph over.
    let mut session = visualinux::Session::builder(ksim::workload::build(
        &ksim::workload::WorkloadConfig::default(),
    ))
    .attach()
    .unwrap();
    let mut graph = vgraph::Graph::new();
    let (task, _) = graph.intern(0x1000, "Task", "task_struct", 64);
    graph
        .get_mut(task)
        .attrs
        .set("wide", serde_json::Value::Null);
    graph.roots.push(task);
    let members: Vec<String> = (0..400_000).map(|i| format!("\"{i}\":0")).collect();
    let push = VCommand::Vplot {
        graph,
        source: String::new(),
    }
    .to_json()
    .replace(
        "\"wide\":null",
        &format!("\"wide\":{{{}}}", members.join(",")),
    );
    drop(members);
    let (cmd, decoded) = counted(|| VCommand::from_json(&push).unwrap());
    let (reply, dispatched) = counted(|| proto::dispatch(&mut session, cmd));
    assert!(matches!(reply, VResponse::Ok { .. }), "{reply:?}");
    assert!(
        dispatched * 10 < decoded,
        "{dispatched} B to dispatch a push whose decode took {decoded} B"
    );

    // Two 16 MB malformed programs: the first fails at its fourth
    // token, and the second's C expression at its second.
    let words = format!("x = {}", "a ".repeat(8 << 20));
    let (prog, bytes) = counted(|| viewcl::parse_program(&words).map(drop));
    match prog {
        Err(viewcl::VclError::Parse { pos: 6, .. }) => {}
        other => panic!("{other:?}"),
    }
    assert!(
        bytes < 2 * words.len() as u64,
        "{bytes} B for {} B",
        words.len()
    );

    let ones = format!("x = ${{{}}}", "1 ".repeat(8 << 20));
    let (prog, bytes) = counted(|| viewcl::parse_program(&ones));
    match &prog.unwrap().stmts[0] {
        viewcl::Stmt::Assign(_, viewcl::RValue::CExpr(e)) => {
            assert!(e.parsed.is_err(), "kept for evaluation time")
        }
        other => panic!("{other:?}"),
    }
    // The expression's text is kept once, in the program; its error
    // keeps only the part it echoes.
    let allowed = ones.len() as u64 + (64 << 10);
    assert!(bytes < allowed, "{bytes} B for {} B", ones.len());
}
