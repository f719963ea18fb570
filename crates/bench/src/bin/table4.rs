//! Table 4 harness: visualization cost of every figure under the two
//! debugging transports, in deterministic virtual time.
//!
//! Columns per transport: total ms | ms per object | ms per KiB of data
//! structure — the same three the paper reports. Absolute values are the
//! cost model's; the claims preserved are the *shape*: the KGDB/QEMU
//! per-object ratio (~50x), the per-KB band, and the figure ranking.

use bench::{
    attach, attach_cached, attach_incr, attribute, counters, exit_on_drift, TablePrinter,
    TABLE4_FIGURES,
};
use vbridge::{CacheConfig, LatencyProfile};
use visualinux::{figures, PlotSpec};

struct Row {
    id: &'static str,
    qemu: (f64, f64, f64),
    kgdb: (f64, f64, f64),
    /// (cold total ms, warm total ms, warm wire packets, cold wire
    /// packets) on KGDB with the snapshot block cache; absent under
    /// `--no-cache`.
    cached: Option<(f64, f64, u64, u64)>,
    /// (post-stop refresh total ms, post-stop wire packets) on cached
    /// KGDB with incremental refresh, after one scheduler tick; absent
    /// under `--no-cache`.
    incr: Option<(f64, u64)>,
}

fn measure(profile: LatencyProfile) -> Vec<(f64, f64, f64, u64)> {
    let mut session = attach(profile);
    TABLE4_FIGURES
        .iter()
        .map(|id| {
            let pane = session.plot(PlotSpec::Figure(id)).expect("figure extracts");
            let s = session.plot_stats(pane).unwrap();
            (
                s.total_ms(),
                s.ms_per_object(),
                s.ms_per_kb(),
                s.target.reads,
            )
        })
        .collect()
}

fn measure_cached(profile: LatencyProfile) -> Vec<(f64, f64, u64, u64)> {
    let mut session = attach_cached(profile, CacheConfig::default());
    TABLE4_FIGURES
        .iter()
        .map(|id| {
            let fig = figures::by_id(id).expect("figure exists");
            // Cold: each figure starts from an invalidated cache.
            session.resume();
            let (_, cold) = session.extract(fig.viewcl).expect("figure extracts");
            let (_, warm) = session.extract(fig.viewcl).expect("figure extracts");
            (
                cold.total_ms(),
                warm.total_ms(),
                warm.target.reads,
                cold.target.reads,
            )
        })
        .collect()
}

/// Incremental refresh column: populate every figure, take one
/// scheduler tick, then measure the post-stop re-extraction. The whole
/// run is traced, and the session's cumulative per-extraction
/// `TargetStats` must reconcile with the vtrace clock *bit-for-bit* —
/// kept panes bill exactly nothing, re-walked panes bill exactly what
/// their spans recorded — or the run fails (exit 1).
fn measure_incr(profile: LatencyProfile) -> Vec<(f64, u64)> {
    use vtrace::Counters;

    let mut session = attach_incr(profile, CacheConfig::default());
    session.enable_tracing();
    let mut acc = Counters::default();
    for id in TABLE4_FIGURES {
        let fig = figures::by_id(id).expect("figure exists");
        let (_, s) = session.extract(fig.viewcl).expect("figure extracts");
        acc = acc.plus(counters(&s.target));
    }
    let roots = session.roots.clone();
    session
        .stop_event(|img| {
            ksim::tick::tick(img, &roots, 1);
        })
        .expect("live stop");
    let mut rows = Vec::new();
    for id in TABLE4_FIGURES {
        let fig = figures::by_id(id).expect("figure exists");
        let (_, s) = session.extract(fig.viewcl).expect("figure extracts");
        acc = acc.plus(counters(&s.target));
        rows.push((s.total_ms(), s.target.reads));
    }
    let clock = session.tracer().expect("tracing is on").clock();
    if acc != clock {
        eprintln!("INCR/VTRACE RECONCILIATION DRIFT:");
        eprintln!("  per-extraction stats {acc:?} != tracer clock {clock:?}");
        std::process::exit(1);
    }
    rows
}

/// `--trace` mode: replot every Table-4 figure with vtrace on and print
/// the per-stage cost attribution (exclusive spans, grouped by stage).
/// The stage rows of each figure must sum to its aggregate columns
/// *bit-for-bit* — same integer nanoseconds, packets, bytes, cache hits
/// and faults as `TargetStats` — or the run fails. The full span forest
/// is written as Chrome `trace_event` JSON to `$VTRACE_OUT`
/// (default `table4-trace.json`).
fn run_trace() {
    let mut session = attach(LatencyProfile::kgdb_rpi400());
    session.enable_tracing();
    println!("Table 4 (--trace): per-stage attribution, KGDB profile (virtual time)\n");
    let t = TablePrinter::new(&[11, 10, 10, 10, 9, 11, 8, 6]);
    t.row(
        &[
            "figure",
            "parse-ms",
            "walk-ms",
            "distill-ms",
            "rest-ms",
            "total-ms",
            "pkts",
            "flt",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>(),
    );
    t.sep();

    let ms = |ns: u64| ns as f64 / 1e6;
    let mut drift: Vec<String> = Vec::new();
    for id in TABLE4_FIGURES {
        let pane = session.plot(PlotSpec::Figure(id)).expect("figure extracts");
        let stats = session.plot_stats(pane).unwrap().target;
        let trace = session.vtrace(pane).expect("tracing is on");
        let st = attribute(id, &trace, &stats, &mut drift);
        t.row(&[
            id.to_string(),
            format!("{:.2}", ms(st.parse.virtual_ns)),
            format!("{:.1}", ms(st.walk.virtual_ns)),
            format!("{:.1}", ms(st.distill.virtual_ns)),
            format!("{:.2}", ms(st.rest.virtual_ns)),
            format!("{:.1}", ms(st.total.virtual_ns)),
            format!("{}", st.total.packets),
            format!("{}", st.total.faults),
        ]);
    }
    t.sep();

    let out = std::env::var("VTRACE_OUT").unwrap_or_else(|_| "table4-trace.json".to_string());
    std::fs::write(&out, session.export_chrome_trace()).expect("write chrome trace");
    println!("\nchrome trace:   {out} (load in chrome://tracing or ui.perfetto.dev)");

    exit_on_drift(&drift);
    println!(
        "reconciliation: all {} figures' per-stage rows sum to their \
         aggregates bit-for-bit [clean]",
        TABLE4_FIGURES.len()
    );
}

/// `--serve` mode: replay the Table-4 corpus through the concurrent
/// pane server (2 clients, one stop event) and print the serving
/// footnote: requests, coalesce rate, and delta-sync savings. Every
/// walk the server claims must reconcile with what the bridge actually
/// did: `ServeStats::reconcile` must pass and the `walk_*` counters
/// must equal the session tracer's cumulative clock bit-for-bit, or
/// the run fails (exit 1).
fn run_serve() {
    use ksim::workload::{build, WorkloadConfig};
    use std::sync::mpsc;
    use visualinux::proto::VCommand;
    use vserve::{Replica, ServeConfig, Server};
    use vtrace::Counters;

    println!("Table 4 (--serve): serving footnote, KGDB profile (virtual time)\n");
    let (_, _, roots) = build(&WorkloadConfig::default()).finish();

    let (tx, rx) = mpsc::channel();
    let engine = std::thread::spawn(move || {
        let mut session = attach_cached(LatencyProfile::kgdb_rpi400(), CacheConfig::default());
        session.enable_tracing();
        let mut server = Server::new(session, ServeConfig::default());
        tx.send(server.handle()).unwrap();
        server.run();
        let clock = server.session().tracer().expect("tracing stays on").clock();
        (server.stats(), clock)
    });
    let handle = rx.recv().unwrap();

    // Two clients, strictly phased: both plot every figure (client B's
    // round coalesces onto A's walks), one scheduler tick, both replot
    // (deltas where they pay off).
    let conns: Vec<_> = (0..2).map(|_| handle.connect()).collect();
    let mut replicas = [Replica::new(), Replica::new()];
    for round in 0..2u64 {
        for (conn, replica) in conns.iter().zip(replicas.iter_mut()) {
            for id in TABLE4_FIGURES {
                let fig = figures::by_id(id).expect("figure exists");
                conn.send(&VCommand::VplotRequest {
                    viewcl: fig.viewcl.to_string(),
                })
                .expect("send");
                replica
                    .apply_line(&conn.recv().expect("reply"))
                    .expect("apply");
            }
        }
        if round == 0 {
            let roots = roots.clone();
            handle
                .stop_event(move |img| {
                    ksim::tick::tick(img, &roots, 1);
                })
                .expect("stop event");
        }
    }
    drop(conns);
    let (stats, clock) = engine.join().expect("engine");

    let n = TABLE4_FIGURES.len() as u64;
    println!("serving footnote (2 clients x {n} figures, 2 rounds around one stop event):");
    println!(
        "  requests:       {} plot requests, {} bridge walks, {} coalesced ({:.0}% coalesce rate)",
        stats.plot_requests,
        stats.walks,
        stats.coalesced,
        stats.coalesce_rate() * 100.0
    );
    println!(
        "  delta sync:     {} fulls / {} deltas shipped, {} bytes saved vs always-full",
        stats.fulls_sent, stats.deltas_sent, stats.delta_bytes_saved
    );
    println!(
        "  walk cost:      {} packets, {} bytes, {:.1} ms virtual time",
        stats.walk_packets,
        stats.walk_bytes,
        stats.walk_virtual_ns as f64 / 1e6
    );

    // Reconciliation: the server's books, and the books vs the bridge.
    let mut drift: Vec<String> = Vec::new();
    if let Err(e) = stats.reconcile() {
        drift.push(format!("ServeStats inconsistent: {e}"));
    }
    let from_serve = Counters {
        packets: stats.walk_packets,
        bytes: stats.walk_bytes,
        virtual_ns: stats.walk_virtual_ns,
        cache_hits: stats.walk_cache_hits,
        faults: stats.walk_faults,
    };
    if from_serve != clock {
        drift.push(format!(
            "walk counters {from_serve:?} != tracer clock {clock:?}"
        ));
    }
    if drift.is_empty() {
        println!(
            "  reconciliation: serve books balance and walk counters match \
             the tracer clock bit-for-bit [clean]"
        );
    } else {
        eprintln!("\nSERVE/STAT RECONCILIATION DRIFT:");
        for d in &drift {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }
}

/// `--replay` mode: record the cached-KGDB measurement sequence into a
/// `.vrec` wire capture, then re-run the same sequence from the capture
/// alone (zero live image access) and print both columns side by side.
/// Every figure's cold and warm packet/byte counts must reproduce
/// *bit-for-bit* — same `TargetStats` modulo the backend tag — or the
/// run fails (exit 1).
fn run_replay() {
    use ksim::workload::{build, WorkloadConfig};
    use vbridge::Capture;
    use visualinux::Session;

    let path = std::env::var("VREC_OUT").unwrap_or_else(|_| "table4-replay.vrec".to_string());
    println!("Table 4 (--replay): cached KGDB column, live vs wire-capture replay\n");

    // Live pass, recording: the exact measure_cached() sequence.
    let mut live = Session::builder(build(&WorkloadConfig::default()))
        .profile(LatencyProfile::kgdb_rpi400())
        .cache(CacheConfig::default())
        .record(&path)
        .attach()
        .expect("live attach cannot fail");
    let mut live_stats = Vec::new();
    for id in TABLE4_FIGURES {
        let fig = figures::by_id(id).expect("figure exists");
        live.resume();
        let (_, cold) = live.extract(fig.viewcl).expect("figure extracts");
        let (_, warm) = live.extract(fig.viewcl).expect("figure extracts");
        live_stats.push((cold.target, warm.target));
    }
    let saved = live.save_recording().expect("write capture");

    // Replay pass: same sequence, served purely from the capture.
    let cap = Capture::load(&saved).expect("reload capture");
    let events = cap.events.len();
    let mut rep = Session::replay(cap).attach().expect("replay attach");
    assert_eq!(
        rep.image().mem.mapped_pages(),
        0,
        "replay session must not hold live memory"
    );
    let mut rep_stats = Vec::new();
    for id in TABLE4_FIGURES {
        let fig = figures::by_id(id).expect("figure exists");
        rep.resume();
        let (_, cold) = rep.extract(fig.viewcl).expect("figure replays");
        let (_, warm) = rep.extract(fig.viewcl).expect("figure replays");
        rep_stats.push((cold.target, warm.target));
    }

    let t = TablePrinter::new(&[11, 10, 11, 10, 11, 8]);
    t.row(
        &[
            "figure",
            "cold-pkts",
            "cold-bytes",
            "warm-pkts",
            "warm-bytes",
            "status",
        ]
        .map(String::from),
    );
    t.sep();
    let mut drift: Vec<String> = Vec::new();
    for (i, id) in TABLE4_FIGURES.iter().enumerate() {
        let (lc, lw) = live_stats[i];
        let (rc, rw) = rep_stats[i];
        // Bit-for-bit: everything but the backend tag must match.
        let cold_ok = vbridge::TargetStats {
            backend: lc.backend,
            ..rc
        } == lc;
        let warm_ok = vbridge::TargetStats {
            backend: lw.backend,
            ..rw
        } == lw;
        if !cold_ok {
            drift.push(format!("{id}: cold live {lc:?} != replay {rc:?}"));
        }
        if !warm_ok {
            drift.push(format!("{id}: warm live {lw:?} != replay {rw:?}"));
        }
        t.row(&[
            id.to_string(),
            rc.reads.to_string(),
            rc.bytes.to_string(),
            rw.reads.to_string(),
            rw.bytes.to_string(),
            if cold_ok && warm_ok {
                "[ok]"
            } else {
                "[DRIFT]"
            }
            .to_string(),
        ]);
    }
    t.sep();

    let leftover = rep
        .replay_state()
        .map(|s| s.remaining())
        .unwrap_or_default();
    if leftover != 0 {
        drift.push(format!("{leftover} recorded wire events never replayed"));
    }
    println!(
        "\ncapture: {} ({events} wire events); replay backend: {}",
        saved.display(),
        rep.backend_kind().as_str()
    );
    if drift.is_empty() {
        println!(
            "reconciliation: all {} figures' cold and warm TargetStats \
             reproduce bit-for-bit from the capture [clean]",
            TABLE4_FIGURES.len()
        );
    } else {
        eprintln!("\nREPLAY/LIVE RECONCILIATION DRIFT:");
        for d in &drift {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }
}

fn main() {
    if std::env::args().any(|a| a == "--serve") {
        return run_serve();
    }
    if std::env::args().any(|a| a == "--replay") {
        return run_replay();
    }
    if std::env::args().any(|a| a == "--trace") {
        return run_trace();
    }
    let no_cache = std::env::args().any(|a| a == "--no-cache");
    println!("Table 4: performance of plotting the ULK figures (virtual time)\n");
    let qemu = measure(LatencyProfile::gdb_qemu());
    let kgdb = measure(LatencyProfile::kgdb_rpi400());
    let (cached, incr) = if no_cache {
        (Vec::new(), Vec::new())
    } else {
        (
            measure_cached(LatencyProfile::kgdb_rpi400()),
            measure_incr(LatencyProfile::kgdb_rpi400()),
        )
    };
    let rows: Vec<Row> = TABLE4_FIGURES
        .iter()
        .enumerate()
        .map(|(i, id)| Row {
            id,
            qemu: (qemu[i].0, qemu[i].1, qemu[i].2),
            kgdb: (kgdb[i].0, kgdb[i].1, kgdb[i].2),
            cached: cached.get(i).copied(),
            incr: incr.get(i).copied(),
        })
        .collect();

    let mut header = vec![
        "#", "figure", "qemu-ms", "/obj", "/KB", "kgdb-ms", "/obj", "/KB",
    ];
    let mut widths = vec![4, 11, 10, 9, 9, 12, 10, 10];
    if !no_cache {
        header.extend(["cold-ms", "warm-ms", "pkt-x", "incr-ms", "incr-x"]);
        widths.extend([10, 9, 7, 9, 7]);
    }
    let t = TablePrinter::new(&widths);
    t.row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    t.sep();
    for (i, r) in rows.iter().enumerate() {
        let mut cells = vec![
            format!("{}", i + 1),
            r.id.to_string(),
            format!("{:.1}", r.qemu.0),
            format!("{:.2}", r.qemu.1),
            format!("{:.1}", r.qemu.2),
            format!("{:.1}", r.kgdb.0),
            format!("{:.2}", r.kgdb.1),
            format!("{:.1}", r.kgdb.2),
        ];
        if let Some((cold, warm, warm_pkts, cold_pkts)) = r.cached {
            cells.push(format!("{cold:.1}"));
            cells.push(format!("{warm:.1}"));
            cells.push(format!(
                "{:.0}x",
                kgdb[i].3 as f64 / (warm_pkts.max(1)) as f64
            ));
            if let Some((incr_ms, incr_pkts)) = r.incr {
                // Incr column: the refresh cost after one scheduler
                // tick vs a cold cached re-extraction — kept panes
                // show 0 packets.
                cells.push(format!("{incr_ms:.1}"));
                cells.push(format!(
                    "{:.0}x",
                    cold_pkts as f64 / incr_pkts.max(1) as f64
                ));
            }
        }
        t.row(&cells);
    }
    t.sep();

    // Shape checks mirrored from the paper's observations.
    let ratio: Vec<f64> = rows
        .iter()
        .filter(|r| r.qemu.1 > 0.0)
        .map(|r| r.kgdb.1 / r.qemu.1)
        .collect();
    let mean_ratio = ratio.iter().sum::<f64>() / ratio.len() as f64;
    let max_q = rows.iter().map(|r| r.qemu.0).fold(0.0, f64::max);
    let uint64_kgdb = LatencyProfile::kgdb_rpi400().cost_ns(8) as f64 / 1e6;

    println!("\nshape checks vs. the paper:");
    println!(
        "  per-object KGDB/QEMU ratio: {mean_ratio:.0}x   (paper: ~50x slower)   {}",
        band(mean_ratio, 30.0, 120.0)
    );
    println!(
        "  KGDB uint64 retrieval:      {uint64_kgdb:.1} ms (paper: ~5 ms)          {}",
        band(uint64_kgdb, 4.0, 6.5)
    );
    println!(
        "  largest QEMU plot:          {max_q:.0} ms  (paper: 10-326 ms band)   {}",
        band(max_q, 10.0, 400.0)
    );
    let kb_band = rows
        .iter()
        .filter(|r| (250.0..1500.0).contains(&r.kgdb.2))
        .count();
    println!(
        "  KGDB ms/KB order of mag.:   {kb_band}/{} rows in 0.25-1.5 s/KB (paper: 0.81-1.41 s/KB)",
        rows.len()
    );
    // Ranking: hash-table-heavy plots must be among the slowest, small
    // single-struct plots among the fastest (paper's Fig 3-6 vs 12-3).
    let slowest = rows
        .iter()
        .max_by(|a, b| a.kgdb.0.total_cmp(&b.kgdb.0))
        .map(|r| r.id)
        .unwrap_or("");
    let fastest = rows
        .iter()
        .min_by(|a, b| a.kgdb.0.total_cmp(&b.kgdb.0))
        .map(|r| r.id)
        .unwrap_or("");
    println!(
        "  slowest/fastest KGDB plot:  {slowest} / {fastest} (paper: Fig 3-6 / Fig 12-3-class)"
    );
    if !no_cache {
        let i34 = TABLE4_FIGURES
            .iter()
            .position(|id| *id == "fig3-4")
            .unwrap();
        let (_, warm_ms, warm_pkts, _) = cached[i34];
        let ns_x = kgdb[i34].0 / warm_ms.max(f64::MIN_POSITIVE);
        let pkt_x = kgdb[i34].3 as f64 / warm_pkts.max(1) as f64;
        let ns_disp = if warm_ms > 0.0 {
            format!("{ns_x:.0}x")
        } else {
            // A fully-warm plot sends no packets at all.
            ">1000x".to_string()
        };
        println!(
            "  warm cache, fig3-4 (KGDB):  {ns_disp} faster, {pkt_x:.0}x fewer packets (floor: 5x / 3x)  {}",
            if ns_x >= 5.0 && pkt_x >= 3.0 {
                "[in band]"
            } else {
                "[OUT OF BAND]"
            }
        );
        // Incremental refresh: one scheduler tick must leave the
        // corpus-wide re-extraction bill far below a cold re-walk of
        // every pane (the vincr pitch; `incr_bench` gates the floor).
        let cold_total: u64 = cached.iter().map(|&(_, _, _, p)| p).sum();
        let incr_total: u64 = incr.iter().map(|&(_, p)| p).sum();
        let incr_x = cold_total as f64 / incr_total.max(1) as f64;
        println!(
            "  incr refresh, corpus:       {incr_x:.0}x fewer post-tick packets (floor: 5x)    {}",
            if incr_x >= 5.0 {
                "[in band]"
            } else {
                "[OUT OF BAND]"
            }
        );
    }

    // Image integrity: the cost rows above are only comparable if every
    // figure plotted a healthy image — no wild reads chased by a
    // distiller, and a clean kcheck sweep.
    let session = attach(LatencyProfile::free());
    let report = session.vcheck();
    let mut faults = 0u64;
    {
        let mut probe = attach(LatencyProfile::free());
        for id in TABLE4_FIGURES {
            let pane = probe.plot(PlotSpec::Figure(id)).expect("figure extracts");
            faults += probe.plot_stats(pane).unwrap().target.faults;
        }
    }
    println!("\nimage integrity:");
    println!(
        "  distiller wild reads:       {faults} faulting packets across all figures {}",
        if faults == 0 {
            "[clean]"
        } else {
            "[CORRUPTED]"
        }
    );
    println!(
        "  kcheck sweep:               {} {}",
        report.summary(),
        if report.is_clean() {
            "[clean]"
        } else {
            "[CORRUPTED]"
        }
    );
}

fn band(v: f64, lo: f64, hi: f64) -> &'static str {
    if (lo..=hi).contains(&v) {
        "[in band]"
    } else {
        "[OUT OF BAND]"
    }
}
