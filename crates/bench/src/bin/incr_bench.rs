//! `incr_bench` — post-stop re-extraction cost: a plain cached session
//! vs vincr.
//!
//! Both sessions extract every Table 4 figure, take one scheduler tick
//! (a single-task stop: the tick mutates a handful of task_struct
//! fields), then re-extract the whole corpus. The `full` column is the
//! plain cached session: on each pane's first walk after the stop it
//! replays the pane's block footprint and keeps the pane when the bytes
//! its last walk was served came back unchanged (a content keep); only
//! the panes whose bytes changed re-walk. The incremental session
//! intersects the stop's dirty ranges with each pane's touched-span
//! index: panes the tick provably missed are served retained (zero wire
//! packets), the rest re-walk over a cache that only dropped the
//! intersecting blocks. Both sessions keep the panes the tick left
//! alone, so `wall_ns` compares a footprint replay and byte comparison
//! against a dirty-set check, each plus the re-walks of the panes the
//! tick changed; the packet columns carry the replay's cost on the wire.
//!
//! ```text
//! cargo run --release -p bench --bin incr_bench
//! ```
//!
//! Emits `BENCH_incr.json` (override with `$BENCH_INCR_OUT`) with the
//! per-figure post-stop packets / virtual_ns / wall_ns under both
//! refresh strategies and both latency profiles, plus the keep/re-walk
//! split and dirty bytes. Exits non-zero if any figure's incremental
//! graph drifts from the fresh one, or if the KGDB corpus-wide
//! packet reduction falls below the 5x floor the subsystem is sold on.

use std::time::Instant;

use bench::{attach_cached, attach_incr, TablePrinter, TABLE4_FIGURES};
use vbridge::{CacheConfig, LatencyProfile};
use visualinux::{figures, Session};

/// One refresh strategy's post-stop cost for one figure.
#[derive(serde::Serialize, Clone, Copy)]
struct RefreshCost {
    packets: u64,
    virtual_ns: u64,
    wall_ns: u64,
}

/// One figure's row in `BENCH_incr.json`.
#[derive(serde::Serialize)]
struct FigureDoc {
    figure: &'static str,
    full: RefreshCost,
    incr: RefreshCost,
    packet_ratio: f64,
    kept: bool,
    dirty_bytes: u64,
}

/// One latency profile's section.
#[derive(serde::Serialize)]
struct ProfileDoc {
    profile: &'static str,
    figures: Vec<FigureDoc>,
    total_full_packets: u64,
    total_incr_packets: u64,
    corpus_packet_ratio: f64,
    keeps: u64,
    rewalks: u64,
}

/// The whole `BENCH_incr.json` document.
#[derive(serde::Serialize)]
struct BenchDoc {
    bench: &'static str,
    profiles: Vec<ProfileDoc>,
}

/// Extract every corpus figure once (populating retained graphs and
/// touched-span indexes on the incremental side).
fn populate(session: &Session) {
    for id in TABLE4_FIGURES {
        let fig = figures::by_id(id).expect("figure exists");
        session.extract(fig.viewcl).expect("figure extracts");
    }
}

/// One scheduler tick delivered as a stop event.
fn tick_stop(session: &mut Session) {
    let roots = session.roots.clone();
    session
        .stop_event(|img| {
            ksim::tick::tick(img, &roots, 1);
        })
        .expect("live stop");
}

fn run_profile(name: &'static str, profile: LatencyProfile, drift: &mut Vec<String>) -> ProfileDoc {
    let mut full = attach_cached(profile, CacheConfig::default());
    let mut incr = attach_incr(profile, CacheConfig::default());
    populate(&full);
    populate(&incr);
    tick_stop(&mut full);
    tick_stop(&mut incr);

    let mut rows = Vec::new();
    let (mut keeps, mut rewalks) = (0u64, 0u64);
    for id in TABLE4_FIGURES {
        let fig = figures::by_id(id).expect("figure exists");
        let t0 = Instant::now();
        let (g_f, s_f) = full.extract(fig.viewcl).expect("figure extracts");
        let wall_f = t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        let (g_i, s_i) = incr.extract(fig.viewcl).expect("figure extracts");
        let wall_i = t0.elapsed().as_nanos() as u64;
        if g_f.to_json() != g_i.to_json() {
            drift.push(format!("{name}/{id}: incremental graph differs from fresh"));
        }
        keeps += s_i.target.vincr_hits;
        rewalks += s_i.target.vincr_rewalks;
        rows.push(FigureDoc {
            figure: id,
            full: RefreshCost {
                packets: s_f.target.reads,
                virtual_ns: s_f.target.virtual_ns,
                wall_ns: wall_f,
            },
            incr: RefreshCost {
                packets: s_i.target.reads,
                virtual_ns: s_i.target.virtual_ns,
                wall_ns: wall_i,
            },
            packet_ratio: s_f.target.reads as f64 / s_i.target.reads.max(1) as f64,
            kept: s_i.target.vincr_hits > 0,
            dirty_bytes: s_i.target.dirty_bytes,
        });
    }
    let total_full: u64 = rows.iter().map(|r| r.full.packets).sum();
    let total_incr: u64 = rows.iter().map(|r| r.incr.packets).sum();
    ProfileDoc {
        profile: name,
        figures: rows,
        total_full_packets: total_full,
        total_incr_packets: total_incr,
        corpus_packet_ratio: total_full as f64 / total_incr.max(1) as f64,
        keeps,
        rewalks,
    }
}

fn main() {
    println!("incr_bench: post-stop re-extraction, plain cached vs incremental refresh\n");
    let mut drift: Vec<String> = Vec::new();
    let profiles = vec![
        run_profile("gdb_qemu", LatencyProfile::gdb_qemu(), &mut drift),
        run_profile("kgdb_rpi400", LatencyProfile::kgdb_rpi400(), &mut drift),
    ];

    for p in &profiles {
        println!("profile: {}\n", p.profile);
        let t = TablePrinter::new(&[11, 9, 9, 8, 10, 10, 6, 7]);
        t.row(
            &[
                "figure", "f-pkts", "i-pkts", "pkt-x", "f-vms", "i-vms", "kept", "dirty-B",
            ]
            .map(String::from),
        );
        t.sep();
        for f in &p.figures {
            t.row(&[
                f.figure.to_string(),
                f.full.packets.to_string(),
                f.incr.packets.to_string(),
                format!("{:.1}x", f.packet_ratio),
                format!("{:.1}", f.full.virtual_ns as f64 / 1e6),
                format!("{:.1}", f.incr.virtual_ns as f64 / 1e6),
                if f.kept { "yes" } else { "no" }.to_string(),
                f.dirty_bytes.to_string(),
            ]);
        }
        t.sep();
        println!(
            "corpus: {} -> {} packets ({:.1}x), {} panes kept / {} re-walked\n",
            p.total_full_packets, p.total_incr_packets, p.corpus_packet_ratio, p.keeps, p.rewalks
        );
    }

    // Floor check: on the slow transport, one single-task tick must cut
    // the corpus-wide post-stop packet bill at least 5x — the subsystem
    // only earns its complexity if refresh cost tracks the mutation,
    // not the view.
    let kgdb = profiles
        .iter()
        .find(|p| p.profile == "kgdb_rpi400")
        .expect("kgdb profile measured");
    println!(
        "floor check: KGDB corpus packet cut {:.1}x (floor: 5x) {}",
        kgdb.corpus_packet_ratio,
        if kgdb.corpus_packet_ratio >= 5.0 {
            "[in band]"
        } else {
            "[OUT OF BAND]"
        }
    );
    if kgdb.corpus_packet_ratio < 5.0 {
        drift.push(format!(
            "post-stop packet reduction below the 5x floor ({:.2}x)",
            kgdb.corpus_packet_ratio
        ));
    }
    // Both arms must be live: a tick that invalidated everything (or
    // nothing) would make the ratio meaningless.
    if kgdb.keeps == 0 {
        drift.push("no pane was served retained after the tick".to_string());
    }
    if kgdb.rewalks == 0 {
        drift.push("no pane re-walked after the tick".to_string());
    }

    let out = std::env::var("BENCH_INCR_OUT").unwrap_or_else(|_| "BENCH_incr.json".to_string());
    let doc = BenchDoc {
        bench: "incr",
        profiles,
    };
    std::fs::write(&out, serde_json::to_string_pretty(&doc).expect("encode")).expect("write");
    println!("wrote {out}");

    if !drift.is_empty() {
        eprintln!("\nINCR/FRESH DRIFT:");
        for d in &drift {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }
}
