//! End-to-end ViewCL: the paper's listings evaluated against the
//! simulated kernel image.

use ksim::workload::{self, WorkloadConfig};
use ktypes::CValue;
use vbridge::{Evaluator, HelperRegistry, LatencyProfile, Target};
use vgraph::Item;
use viewcl::{parse_program, Interp};

struct Fx {
    img: ksim::KernelImage,
    types: ksim::workload::AllTypes,
    roots: ksim::workload::WorkloadRoots,
}

fn fx() -> Fx {
    let (img, types, roots) = workload::build(&WorkloadConfig::default()).finish();
    Fx { img, types, roots }
}

fn helpers(fx: &Fx) -> HelperRegistry {
    let mut h = HelperRegistry::new();
    let rq_base = fx.roots.rq_base;
    let rq_size = fx.roots.rq_size;
    let rq_ty = fx.img.types.find("rq").unwrap();
    h.register("cpu_rq", move |t, args| {
        let cpu = args[0].as_u64().unwrap_or(0);
        let pty = t.types.find_pointer_to(rq_ty).unwrap();
        Ok(CValue::Ptr {
            addr: rq_base + cpu * rq_size,
            ty: pty,
        })
    });
    let task_ty = fx.types.task.task_struct;
    h.register("task_state", move |t, args| {
        let addr = args[0].address().unwrap_or(0);
        let (off, _) = t.types.field_path(task_ty, "__state").unwrap();
        let s = t.read_uint(addr + off, 4)?;
        Ok(CValue::Str(
            match s {
                0 => "R",
                1 => "S",
                2 => "D",
                4 => "T",
                _ => "?",
            }
            .to_string(),
        ))
    });
    h
}

#[test]
fn intro_listing_plots_the_cfs_runqueue() {
    let fx = fx();
    let target = Target::new(
        &fx.img.mem,
        &fx.img.types,
        &fx.img.symbols,
        LatencyProfile::free(),
    );
    let h = helpers(&fx);
    let program = parse_program(
        r#"
define Task as Box<task_struct> [
    Text pid, comm
    Text ppid: parent.pid
    Text<string> state: ${task_state(@this)}
    Text se.vruntime
]
root = ${cpu_rq(0)->cfs.tasks_timeline}
sched_tree = RBTree(@root).forEach |node| {
    yield Task<task_struct.se.run_node>(@node)
}
plot @sched_tree
"#,
    )
    .unwrap();
    let mut interp = Interp::new(&target, &h);
    interp.run(&program).unwrap();
    let g = interp.into_graph();

    // CPU 0 runs the three even workers (pids 100, 120, 140) plus some
    // threads; check every plotted box is a Task with the right fields.
    let tasks: Vec<_> = g.boxes().iter().filter(|b| &*b.label == "Task").collect();
    assert!(!tasks.is_empty(), "runqueue must not be empty");
    for t in &tasks {
        let view = t.active_view().unwrap();
        let names: Vec<&str> = view.items.iter().map(|i| i.name()).collect();
        assert_eq!(names, vec!["pid", "comm", "ppid", "state", "se.vruntime"]);
        // state is decorated as a string.
        match t.item("state").unwrap() {
            Item::Text { value, .. } => {
                assert!(["R", "S", "D", "T", "?"].contains(&value.as_str()))
            }
            other => panic!("unexpected {other:?}"),
        }
        match t.item("comm").unwrap() {
            Item::Text { value, .. } => assert!(value.starts_with("worker-")),
            other => panic!("unexpected {other:?}"),
        }
    }
    // In-order by vruntime: raw values ascend.
    let vrs: Vec<i64> = tasks
        .iter()
        .map(|t| match t.item("se.vruntime").unwrap() {
            Item::Text { raw, .. } => raw.unwrap(),
            _ => unreachable!(),
        })
        .collect();
    let mut sorted = vrs.clone();
    sorted.sort_unstable();
    assert_eq!(vrs, sorted, "rb-tree in-order must ascend by vruntime");
}

#[test]
fn view_inheritance_and_multiple_views() {
    let fx = fx();
    let target = Target::new(
        &fx.img.mem,
        &fx.img.types,
        &fx.img.symbols,
        LatencyProfile::free(),
    );
    let h = helpers(&fx);
    let init = fx.roots.init_task;
    let program = parse_program(&format!(
        r#"
define Task as Box<task_struct> {{
    :default [
        Text pid, comm
    ]
    :default => :sched [
        Text se.vruntime
    ]
}}
t = Task(${{{init}}})
plot @t
"#
    ))
    .unwrap();
    let mut interp = Interp::new(&target, &h);
    interp.run(&program).unwrap();
    let g = interp.into_graph();
    let b = g.get(g.roots[0]);
    assert_eq!(b.views.len(), 2);
    assert_eq!(b.views[0].items.len(), 2);
    // :sched = :default + vruntime.
    assert_eq!(&*b.views[1].name, "sched");
    assert_eq!(b.views[1].items.len(), 3);
    assert_eq!(b.views[1].items[2].name(), "se.vruntime");
}

#[test]
fn list_container_of_walk_process_children() {
    let fx = fx();
    let target = Target::new(
        &fx.img.mem,
        &fx.img.types,
        &fx.img.symbols,
        LatencyProfile::free(),
    );
    let h = helpers(&fx);
    let program = parse_program(
        r#"
define Task as Box<task_struct> [
    Text pid, comm
    Container children: List(${&init_task.children}).forEach |node| {
        yield Task<task_struct.sibling>(@node)
    }
]
root = Task(${&init_task})
plot @root
"#,
    )
    .unwrap();
    let mut interp = Interp::new(&target, &h);
    interp.run(&program).unwrap();
    let g = interp.into_graph();
    let root = g.get(g.roots[0]);
    match root.item("children").unwrap() {
        Item::Container { members, .. } => {
            // init's children: kthreads + 5 leaders + 5 threads.
            assert_eq!(members.len(), 16);
            let pids: Vec<i64> = members
                .iter()
                .map(|m| g.get(*m).member_raw("pid", &g).unwrap())
                .collect();
            assert!(pids.contains(&100));
            assert!(pids.contains(&2));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn switch_and_null_links() {
    let fx = fx();
    let target = Target::new(
        &fx.img.mem,
        &fx.img.types,
        &fx.img.symbols,
        LatencyProfile::free(),
    );
    let h = helpers(&fx);
    // Kernel threads have mm == NULL; user tasks have a real mm.
    let program = parse_program(
        r#"
define MM as Box<mm_struct> [
    Text map_count
]
define Task as Box<task_struct> [
    Text pid
    Link mm -> switch ${@this.mm != NULL} {
        case ${true}: MM(${@this.mm})
        case ${false}: NULL
    }
]
tasks = List(${&init_task.tasks}).forEach |node| {
    yield Task<task_struct.tasks>(@node)
}
plot @tasks
"#,
    )
    .unwrap();
    let mut interp = Interp::new(&target, &h);
    interp.run(&program).unwrap();
    let g = interp.into_graph();
    let mut real = 0;
    let mut null = 0;
    for b in g.boxes().iter().filter(|b| &*b.label == "Task") {
        match b.item("mm").unwrap() {
            Item::Link { .. } => real += 1,
            Item::NullLink { .. } => null += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(real, 10, "5 leaders + 5 threads have mm");
    assert!(null >= 6, "kthreads have no mm");
}

#[test]
fn decorators_render_flags_hex_and_fptr() {
    let fx = fx();
    let target = Target::new(
        &fx.img.mem,
        &fx.img.types,
        &fx.img.symbols,
        LatencyProfile::free(),
    );
    let h = helpers(&fx);
    // Grab one file-backed VMA from process 0's mm via the C evaluator.
    let ev = Evaluator::new(&target, &h);
    let leader = fx.roots.leaders[0];
    let mm = ev
        .eval_str(&format!("((struct task_struct *){leader})->mm"))
        .unwrap()
        .as_u64()
        .unwrap();
    let entries = {
        let (root_off, _) = fx
            .img
            .types
            .field_path(fx.types.mm.mm_struct, "mm_mt.ma_root")
            .unwrap();
        let root = fx.img.mem.read_uint(mm + root_off, 8).unwrap();
        ksim::maple::walk_entries(&fx.img.mem, root)
    };
    let vma = entries[0].value;

    let program = parse_program(&format!(
        r#"
define VMA as Box<vm_area_struct> [
    Text<u64:x> vm_start, vm_end
    Text<flag:vm> vm_flags
]
v = VMA(${{{vma}}})
plot @v
"#
    ))
    .unwrap();
    let mut interp = Interp::new(&target, &h);
    interp.run(&program).unwrap();
    let g = interp.into_graph();
    let b = g.get(g.roots[0]);
    match b.item("vm_start").unwrap() {
        Item::Text { value, .. } => assert!(value.starts_with("0x"), "hex decorator: {value}"),
        _ => unreachable!(),
    }
    match b.item("vm_flags").unwrap() {
        Item::Text { value, .. } => {
            assert!(value.contains("VM_READ"), "flag decorator: {value}")
        }
        _ => unreachable!(),
    }
}

#[test]
fn boxes_are_deduplicated_across_paths() {
    let fx = fx();
    let target = Target::new(
        &fx.img.mem,
        &fx.img.types,
        &fx.img.symbols,
        LatencyProfile::free(),
    );
    let h = helpers(&fx);
    // Threads share one mm; both paths must reach the same MM box.
    let program = parse_program(
        r#"
define MM as Box<mm_struct> [
    Text map_count
]
define Task as Box<task_struct> [
    Text pid
    Link mm -> MM(${@this.mm})
]
tasks = List(${&init_task.tasks}).forEach |node| {
    t = ${container_of(@node, struct task_struct, tasks)}
    yield switch ${((struct task_struct *)@t)->mm != NULL} {
        case ${true}: Task(@t)
        otherwise: NULL
    }
}
plot @tasks
"#,
    )
    .unwrap();
    let mut interp = Interp::new(&target, &h);
    interp.run(&program).unwrap();
    let g = interp.into_graph();
    let n_tasks = g.boxes().iter().filter(|b| &*b.label == "Task").count();
    let n_mms = g.boxes().iter().filter(|b| &*b.label == "MM").count();
    assert_eq!(n_tasks, 10);
    assert_eq!(n_mms, 5, "threads share their leader's mm box");
}

#[test]
fn metered_extraction_accumulates_cost() {
    let fx = fx();
    let target = Target::new(
        &fx.img.mem,
        &fx.img.types,
        &fx.img.symbols,
        LatencyProfile::gdb_qemu(),
    );
    let h = helpers(&fx);
    let program = parse_program(
        r#"
define Task as Box<task_struct> [
    Text pid, comm
]
tasks = List(${&init_task.tasks}).forEach |node| {
    yield Task<task_struct.tasks>(@node)
}
plot @tasks
"#,
    )
    .unwrap();
    let mut interp = Interp::new(&target, &h);
    interp.run(&program).unwrap();
    let stats = target.stats();
    assert!(stats.reads > 30, "walking 16 tasks needs many reads");
    assert!(stats.virtual_ns > 0);
    let g = interp.into_graph();
    let objs = g.boxes().iter().filter(|b| b.addr != 0).count() as u64;
    // Per-object cost in the QEMU profile lands in Table 4's band.
    let ms_per_obj = stats.virtual_ns as f64 / 1e6 / objs as f64;
    assert!(
        (0.05..2.0).contains(&ms_per_obj),
        "per-object cost {ms_per_obj} ms out of band"
    );
}

#[test]
fn error_paths_are_reported_not_panicked() {
    let fx = fx();
    let target = Target::new(
        &fx.img.mem,
        &fx.img.types,
        &fx.img.symbols,
        LatencyProfile::free(),
    );
    let h = helpers(&fx);

    // Unknown box type in instantiation.
    let p = parse_program("t = NoSuchBox(${&init_task})\nplot @t").unwrap();
    let mut i = Interp::new(&target, &h);
    assert!(i.run(&p).is_err());

    // Unknown C type behind a define.
    let p = parse_program("define X as Box<no_such_struct> [ Text a ]\nx = X(${1000})\nplot @x")
        .unwrap();
    let mut i = Interp::new(&target, &h);
    assert!(i.run(&p).is_err());

    // Plotting something that is not a box.
    let p = parse_program("v = ${1 + 1}\nplot @v").unwrap();
    let mut i = Interp::new(&target, &h);
    assert!(i.run(&p).is_err());

    // View inheritance cycle.
    let p = parse_program(
        "define T as Box<task_struct> {\n    :a => :b [ Text pid ]\n    :b => :a [ Text tgid ]\n}\nt = T(${&init_task})\nplot @t",
    )
    .unwrap();
    let mut i = Interp::new(&target, &h);
    let err = i.run(&p).unwrap_err();
    assert!(format!("{err}").contains("cycle"), "{err}");

    // Unknown scope variable.
    let p = parse_program("plot @nothing").unwrap();
    let mut i = Interp::new(&target, &h);
    assert!(i.run(&p).is_err());

    // A C syntax error surfaces only where its expression is evaluated:
    // malformed `${…}` in switch arms never taken still extract.
    let p = parse_program(
        "define T as Box<task_struct> [ Text kind: @k ] where {
    k = switch ${1} {
        case ${1}: ${2}
        case ${1 +}: ${3}
        otherwise: ${)(}
    }
}
t = T(${&init_task})
plot @t",
    )
    .unwrap();
    let mut i = Interp::new(&target, &h);
    i.run(&p).unwrap();
    let g = i.into_graph();
    match g.get(g.roots[0]).item("kind").unwrap() {
        Item::Text { value, .. } => assert_eq!(value, "2"),
        other => panic!("unexpected {other:?}"),
    }

    // A malformed Text expression renders as an error in its item.
    let p = parse_program(
        "define T as Box<task_struct> [ Text pid, bad: ${1 +} ]\nt = T(${&init_task})\nplot @t",
    )
    .unwrap();
    let mut i = Interp::new(&target, &h);
    i.run(&p).unwrap();
    let g = i.into_graph();
    match g.get(g.roots[0]).item("bad").unwrap() {
        Item::Text { value, .. } => assert_eq!(
            value,
            "<error: viewcl: parse error in `1 +`: unexpected token Eof>"
        ),
        other => panic!("unexpected {other:?}"),
    }

    // A malformed `where` binding fails the walk.
    let p = parse_program(
        "define T as Box<task_struct> [ Text pid ] where { x = ${@this.pid +} }\nt = T(${&init_task})\nplot @t",
    )
    .unwrap();
    let mut i = Interp::new(&target, &h);
    assert_eq!(
        i.run(&p).unwrap_err().to_string(),
        "viewcl: parse error in `@this.pid +`: unexpected token Eof"
    );
}

#[test]
fn text_items_soft_fail_on_bad_memory() {
    let fx = fx();
    let target = Target::new(
        &fx.img.mem,
        &fx.img.types,
        &fx.img.symbols,
        LatencyProfile::free(),
    );
    let h = helpers(&fx);
    // A box anchored at an unmapped address: texts degrade to errors, the
    // plot itself survives (a debugger must render what it can).
    let p = parse_program(
        "define T as Box<task_struct> [ Text pid, comm ]\nt = T(${0xdead0000})\nplot @t",
    )
    .unwrap();
    let mut i = Interp::new(&target, &h);
    i.run(&p).unwrap();
    let g = i.into_graph();
    let b = g.get(g.roots[0]);
    match b.item("pid").unwrap() {
        Item::Text { value, .. } => assert!(value.starts_with("<error"), "{value}"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn cost_scales_with_traversal_depth() {
    let fx = fx();
    let target = Target::new(
        &fx.img.mem,
        &fx.img.types,
        &fx.img.symbols,
        LatencyProfile::gdb_qemu(),
    );
    let h = helpers(&fx);
    let shallow =
        parse_program("define T as Box<task_struct> [ Text pid ]\nt = T(${&init_task})\nplot @t")
            .unwrap();
    let mut i = Interp::new(&target, &h);
    i.run(&shallow).unwrap();
    let shallow_reads = target.stats().reads;
    target.reset_stats();

    let deep = parse_program(
        r#"
define T as Box<task_struct> [
    Text pid
    Container children: List(${&@this.children}).forEach |n| {
        yield T<task_struct.sibling>(@n)
    }
]
t = T(${&init_task})
plot @t
"#,
    )
    .unwrap();
    let mut i = Interp::new(&target, &h);
    i.run(&deep).unwrap();
    let deep_reads = target.stats().reads;
    assert!(
        deep_reads > shallow_reads * 5,
        "recursive walk must read much more: {shallow_reads} vs {deep_reads}"
    );
}

/// A name that does not resolve is a deferred error, not a parse-time
/// or bind-time one: in a `switch` arm never taken it raises nothing,
/// and in an arm taken it raises its message on every walk.
#[test]
fn unresolved_names_raise_only_when_evaluated_and_keep_their_text() {
    let fx = fx();
    let target = Target::new(
        &fx.img.mem,
        &fx.img.types,
        &fx.img.symbols,
        LatencyProfile::free(),
    );
    let h = helpers(&fx);
    let cases = [
        (
            "${no_such_ident + 1}",
            "viewcl: unknown identifier `no_such_ident`",
        ),
        (
            "${(struct no_such_type *)0}",
            "viewcl: type error: unknown type `struct no_such_type`",
        ),
        (
            "${no_such_helper(1)}",
            "viewcl: unknown helper function `no_such_helper`",
        ),
    ];
    for (value, want) in cases {
        let program = |k: u32| {
            parse_program(&format!(
                "k = ${{{k}}}\nx = switch @k {{ case ${{1}}: {value} otherwise: NULL }}"
            ))
            .unwrap()
        };
        let (skipped, taken) = (program(0), program(1));
        for _ in 0..2 {
            Interp::new(&target, &h)
                .run(&skipped)
                .unwrap_or_else(|e| panic!("{value} in an arm not taken: {e}"));
            let err = Interp::new(&target, &h).run(&taken).unwrap_err();
            assert_eq!(err.to_string(), want);
        }
    }
}

/// A view chain is resolved at parse time, but a bad one is still raised
/// where the walk raised it before: when its box is instantiated, after
/// the `where` bindings of the views declared before it.
#[test]
fn a_bad_view_chain_is_raised_after_the_bindings_of_earlier_views() {
    let fx = fx();
    let target = Target::new(
        &fx.img.mem,
        &fx.img.types,
        &fx.img.symbols,
        LatencyProfile::free(),
    );
    let h = helpers(&fx);
    let program = |binding: &str| {
        parse_program(&format!(
            "define T as Box<task_struct> {{
    :a [ Text pid ] where {{ x = {binding} }}
    :missing => :b [ Text tgid ]
}}
n = ${{0}}
t = switch @n {{ case ${{1}}: T(${{&init_task}}) otherwise: NULL }}
u = T(${{&init_task}})"
        ))
        .unwrap()
    };
    let run = |binding: &str| {
        let p = program(binding);
        let mut i = Interp::new(&target, &h);
        i.run(&p).map_err(|e| e.to_string())
    };
    assert_eq!(
        run("${pid_of_nothing}"),
        Err("viewcl: unknown identifier `pid_of_nothing`".to_string())
    );
    assert_eq!(
        run("${1}"),
        Err("viewcl evaluation error: box `T` has no view `:missing`".to_string())
    );
}

/// A box that links each task to the next: instantiating it nests once
/// per task on the circular task list.
const TASK_CHAIN: &str = r#"
define Task as Box<task_struct> [
    Text pid
    Link next -> Task<task_struct.tasks>(${@this.tasks.next})
]
t = Task(${&init_task})
plot @t
"#;

#[test]
fn a_box_chain_past_the_depth_cap_is_an_error_not_a_stack_overflow() {
    for processes in [100, 1000] {
        // The default stack of a spawned thread, on which engines run.
        // Uncapped, the chain overflows it past about 190 tasks in a
        // debug build and 1,400 in a release build, aborting the process.
        let run = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let cfg = WorkloadConfig {
                    processes,
                    ..WorkloadConfig::default()
                };
                let (img, _, _) = workload::build(&cfg).finish();
                let target =
                    Target::new(&img.mem, &img.types, &img.symbols, LatencyProfile::free());
                let helpers = HelperRegistry::new();
                let program = parse_program(TASK_CHAIN).unwrap();
                let mut interp = Interp::new(&target, &helpers);
                let err = interp.run(&program).expect_err("the chain nests too deep");
                (img.symbols.lookup("init_task").unwrap().addr, err)
            })
            .unwrap();
        let (init_task, err) = run.join().expect("the walk returns");
        match &err {
            viewcl::VclError::TooDeep { def, addr, cap } => {
                assert_eq!((def.as_str(), *cap), ("Task", 64));
                assert_ne!(*addr, init_task, "the cap is met 64 tasks down the list");
            }
            other => panic!("{processes} processes: {other}"),
        }
        let message = err.to_string();
        assert!(
            message.contains("`Task`") && message.contains("64"),
            "{message}"
        );
    }
}
