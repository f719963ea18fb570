//! Ablation: quantify the three simplification operators of §2.1 —
//! *prune*, *flatten*, *distill* — by plotting the same state with and
//! without each one and comparing extraction cost and plot size.

use bench::{attach, attach_cached, TablePrinter};
use vbridge::{CacheConfig, LatencyProfile};
use visualinux::{PlotSpec, Session};

struct Meas {
    objects: u64,
    texts: u64,
    reads: u64,
    ms: f64,
}

fn measure(session: &mut Session, src: &str) -> Meas {
    let pane = session.plot(PlotSpec::Source(src)).expect("plot");
    let s = session.plot_stats(pane).unwrap();
    let g = session.graph(pane).unwrap();
    let texts = g
        .boxes()
        .iter()
        .flat_map(|b| &b.views)
        .flat_map(|v| &v.items)
        .filter(|i| matches!(i, vgraph::Item::Text { .. }))
        .count() as u64;
    Meas {
        objects: s.graph.objects,
        texts,
        reads: s.target.reads,
        ms: s.total_ms(),
    }
}

/// Every field of our task_struct as Text — "just print the object".
const UNPRUNED_TASKS: &str = r#"
define Task as Box<task_struct> [
    Text __state, flags, on_cpu, cpu, on_rq
    Text prio, static_prio, normal_prio
    Text se.load.weight, se.load.inv_weight, se.on_rq
    Text se.exec_start, se.sum_exec_runtime, se.vruntime, se.prev_sum_exec_runtime
    Text exit_state, exit_code, pid, tgid
    Text utime, stime, start_time
    Text<string> comm
    Text<raw_ptr> stack
    Text<raw_ptr> mm, active_mm, real_parent, parent, group_leader
    Text<raw_ptr> thread_pid, fs, files, signal, sighand
]
tasks = List(${&init_task.tasks}).forEach |n| {
    yield Task<task_struct.tasks>(@n)
}
plot @tasks
"#;

/// The paper's pruned box: four fields.
const PRUNED_TASKS: &str = r#"
define Task as Box<task_struct> [
    Text pid, comm
    Text<string> state: ${task_state(@this)}
    Text se.vruntime
]
tasks = List(${&init_task.tasks}).forEach |n| {
    yield Task<task_struct.tasks>(@n)
}
plot @tasks
"#;

/// Unflattened: every intermediate object on the task→socket path is a
/// box of its own (file table, fd table, file, socket wrapper).
const UNFLATTENED_SOCKETS: &str = r#"
define Sock as Box<sock> [
    Text dport: __sk_common.skc_dport
]
define Socket as Box<socket> [
    Text type
    Link sk -> Sock(${@this.sk})
]
define File as Box<file> [
    Text<u64:x> f_mode
    Link private_data -> Socket(${@this.private_data})
]
define FdTable as Box<fdtable> [
    Text max_fds
    Link sock_file -> File(${@this.fd[5]})
]
define Files as Box<files_struct> [
    Text next_fd
    Link fdt -> FdTable(${@this.fdt})
]
define Task as Box<task_struct> [
    Text pid
    Link files -> Files(${@this.files})
]
t = Task(${current_task})
plot @t
"#;

/// Flattened: one dot-path expression skips three kernel objects.
const FLATTENED_SOCKETS: &str = r#"
define Sock as Box<sock> [
    Text dport: __sk_common.skc_dport
]
define Task as Box<task_struct> [
    Text pid
    Link socket -> Sock(${((struct socket *)@this.files->fdt->fd[5]->private_data)->sk})
]
t = Task(${current_task})
plot @t
"#;

/// `--trace` mode: rerun the ablation plots with vtrace on and show
/// where the saved packets come from, stage by stage (exclusive spans).
/// Fails (exit 1) if any plot's stage rows stop summing to its
/// `TargetStats` aggregates bit-for-bit. Chrome trace JSON goes to
/// `$VTRACE_OUT` (default `ablation-trace.json`).
fn run_trace() {
    use vtrace::{Counters, SpanKind};

    let mut session = attach(LatencyProfile::gdb_qemu());
    session.enable_tracing();
    println!("Ablation (--trace): per-stage attribution, QEMU profile (virtual time)\n");
    let t = TablePrinter::new(&[30, 10, 12, 9, 11, 8]);
    t.row(
        &[
            "configuration",
            "walk-ms",
            "distill-ms",
            "rest-ms",
            "total-ms",
            "pkts",
        ]
        .map(String::from),
    );
    t.sep();

    let ms = |ns: u64| ns as f64 / 1e6;
    let mut drift: Vec<String> = Vec::new();
    let plots = [
        ("prune OFF (all 31 fields)", UNPRUNED_TASKS),
        ("prune ON  (paper's 4 fields)", PRUNED_TASKS),
        ("flatten OFF (5 hops plotted)", UNFLATTENED_SOCKETS),
        ("flatten ON  (1 dot-path link)", FLATTENED_SOCKETS),
        (
            "distill (fig9-2 maple tree)",
            visualinux::figures::by_id("fig9-2").unwrap().viewcl,
        ),
    ];
    for (name, src) in plots {
        let pane = session.plot(PlotSpec::Source(src)).expect("plot");
        let stats = session.plot_stats(pane).unwrap().target;
        let trace = session.vtrace(pane).expect("tracing is on");
        if let Err(e) = trace.check_well_formed() {
            drift.push(format!("{name}: ill-formed span tree: {e}"));
        }
        let mut walk = Counters::default();
        let mut distill = Counters::default();
        let mut rest = Counters::default();
        for sp in trace.flatten() {
            let own = sp.own();
            match sp.kind {
                SpanKind::Interp => walk = walk.plus(own),
                SpanKind::Distill => distill = distill.plus(own),
                _ => rest = rest.plus(own),
            }
        }
        let tot = trace.totals();
        if walk.plus(distill).plus(rest) != tot {
            drift.push(format!("{name}: stage sum != span totals"));
        }
        let from_stats = Counters {
            packets: stats.reads,
            bytes: stats.bytes,
            virtual_ns: stats.virtual_ns,
            cache_hits: stats.cache_hits,
            faults: stats.faults,
        };
        if tot != from_stats {
            drift.push(format!(
                "{name}: span totals {tot:?} != TargetStats {from_stats:?}"
            ));
        }
        t.row(&[
            name.to_string(),
            format!("{:.2}", ms(walk.virtual_ns)),
            format!("{:.2}", ms(distill.virtual_ns)),
            format!("{:.2}", ms(rest.virtual_ns)),
            format!("{:.2}", ms(tot.virtual_ns)),
            format!("{}", tot.packets),
        ]);
    }
    t.sep();

    let out = std::env::var("VTRACE_OUT").unwrap_or_else(|_| "ablation-trace.json".to_string());
    std::fs::write(&out, session.export_chrome_trace()).expect("write chrome trace");
    println!("\nchrome trace:   {out}");
    if drift.is_empty() {
        println!(
            "reconciliation: all {} plots match TargetStats bit-for-bit [clean]",
            plots.len()
        );
    } else {
        eprintln!("\nTRACE/STAT RECONCILIATION DRIFT:");
        for d in &drift {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }
}

fn main() {
    if std::env::args().any(|a| a == "--trace") {
        return run_trace();
    }
    println!("Ablation: the prune / flatten / distill operators (§2.1)\n");
    let t = TablePrinter::new(&[34, 9, 8, 8, 9]);
    t.row(&["configuration", "objects", "texts", "reads", "ms(qemu)"].map(String::from));
    t.sep();

    let mut session = attach(LatencyProfile::gdb_qemu());

    let a = measure(&mut session, UNPRUNED_TASKS);
    let b = measure(&mut session, PRUNED_TASKS);
    for (name, m) in [
        ("prune OFF (all 31 fields)", &a),
        ("prune ON  (paper's 4 fields)", &b),
    ] {
        t.row(&[
            name.to_string(),
            m.objects.to_string(),
            m.texts.to_string(),
            m.reads.to_string(),
            format!("{:.1}", m.ms),
        ]);
    }
    println!(
        "  -> prune cuts {:.0}% of reads and {:.0}% of displayed text\n",
        100.0 * (1.0 - b.reads as f64 / a.reads as f64),
        100.0 * (1.0 - b.texts as f64 / a.texts as f64),
    );

    let c = measure(&mut session, UNFLATTENED_SOCKETS);
    let d = measure(&mut session, FLATTENED_SOCKETS);
    for (name, m) in [
        ("flatten OFF (5 hops plotted)", &c),
        ("flatten ON  (1 dot-path link)", &d),
    ] {
        t.row(&[
            name.to_string(),
            m.objects.to_string(),
            m.texts.to_string(),
            m.reads.to_string(),
            format!("{:.1}", m.ms),
        ]);
    }
    println!(
        "  -> flatten removes {} intermediate boxes from the plot\n",
        c.objects - d.objects
    );

    // Distill: structural maple tree vs the selectFrom interval list.
    let fig = visualinux::figures::by_id("fig9-2").unwrap();
    let pane = session.plot(PlotSpec::Source(fig.viewcl)).unwrap();
    session
        .vctrl_refine(
            pane,
            "m = SELECT mm_struct FROM *\nUPDATE m WITH view: show_mt",
        )
        .unwrap();
    let g = session.graph(pane).unwrap();
    let structural: u64 = g
        .boxes()
        .iter()
        .filter(|b| &*b.label == "MapleNode" || &*b.label == "Cell")
        .count() as u64;
    let distilled: u64 = g
        .boxes()
        .iter()
        .filter(|b| &*b.ctype == "vm_area_struct")
        .count() as u64;
    t.row(&[
        "distill OFF (tree + pivot cells)".to_string(),
        format!("{}", structural + distilled),
        String::new(),
        String::new(),
        String::new(),
    ]);
    t.row(&[
        "distill ON  (sorted VMA list)".to_string(),
        distilled.to_string(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    t.sep();
    println!(
        "  -> distill shows the same {distilled} intervals without {structural} structural boxes"
    );

    // Bridge cache: stack the two mechanisms one by one on the slow
    // transport. Two cold plots: the task list (Table 4's worst row,
    // dominated by list prefetch) and the page cache (xarray slot walks,
    // each of whose 64-slot spans a hint pulls as one packet).
    println!("\nBridge cache mechanisms (KGDB, cold extraction)\n");
    let run = |id: &str, cfg: Option<CacheConfig>| {
        let fig = visualinux::figures::by_id(id).unwrap();
        let s = match cfg {
            None => attach(LatencyProfile::kgdb_rpi400()),
            Some(c) => attach_cached(LatencyProfile::kgdb_rpi400(), c),
        };
        let (_, st) = s.extract(fig.viewcl).expect("plot");
        (st.target.reads, st.total_ms())
    };
    let ladder = [
        ("cache OFF (paper's baseline)", None),
        (
            "+ block cache only",
            Some(CacheConfig {
                prefetch: false,
                ..CacheConfig::default()
            }),
        ),
        ("+ distiller prefetch (full)", Some(CacheConfig::default())),
    ];
    let t = TablePrinter::new(&[34, 12, 10, 12, 10]);
    t.row(
        &[
            "configuration",
            "3-4 pkts",
            "3-4 ms",
            "16-2 pkts",
            "16-2 ms",
        ]
        .map(String::from),
    );
    t.sep();
    let mut base_ms = 0.0;
    let mut full_ms = 0.0;
    for (name, cfg) in ladder {
        let (r34, ms34) = run("fig3-4", cfg);
        let (r162, ms162) = run("fig16-2", cfg);
        if cfg.is_none() {
            base_ms = ms34;
        }
        full_ms = ms34;
        t.row(&[
            name.to_string(),
            r34.to_string(),
            format!("{ms34:.1}"),
            r162.to_string(),
            format!("{ms162:.1}"),
        ]);
    }
    t.sep();
    println!(
        "  -> the full cache cuts a cold KGDB task-list plot {:.0}x",
        base_ms / full_ms
    );

    // Corruption tolerance: what plotting a damaged image costs. The
    // cross-linked task list truncates with a diagnostic box instead of
    // erroring (or spinning to the element bound), and the kcheck sweep
    // names the damage.
    println!("\nCorruption tolerance (QEMU, task-list plot + kcheck sweep)\n");
    let t = TablePrinter::new(&[34, 9, 8, 8, 12]);
    t.row(&["configuration", "reads", "faults", "diags", "violations"].map(String::from));
    t.sep();
    use ksim::faults::{self, FaultKind};
    use ksim::workload::{build, WorkloadConfig};
    let mut clean_reads = 0;
    let mut bad_reads = 0;
    for (name, fault) in [
        ("image clean", None),
        ("task list cross-linked", Some(FaultKind::ListCrossLink)),
    ] {
        let mut w = build(&WorkloadConfig::default());
        if let Some(k) = fault {
            faults::inject(&mut w, k, 2);
        }
        let mut s = Session::builder(w)
            .profile(LatencyProfile::gdb_qemu())
            .attach()
            .unwrap();
        let pane = s
            .plot(PlotSpec::Source(PRUNED_TASKS))
            .expect("plot survives");
        let st = s.plot_stats(pane).unwrap();
        let diags = s
            .graph(pane)
            .unwrap()
            .boxes()
            .iter()
            .filter(|b| &*b.label == "Diag")
            .count();
        let report = s.vcheck();
        if fault.is_none() {
            clean_reads = st.target.reads;
        } else {
            bad_reads = st.target.reads;
        }
        t.row(&[
            name.to_string(),
            st.target.reads.to_string(),
            st.target.faults.to_string(),
            diags.to_string(),
            report.summary(),
        ]);
    }
    t.sep();
    println!(
        "  -> the corrupted plot costs {:.1}x the clean one (bound: 2x) and the damage is named",
        bad_reads as f64 / clean_reads.max(1) as f64
    );
}
