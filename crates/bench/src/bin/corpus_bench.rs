//! `corpus_bench` — the scenario corpus measured end to end.
//!
//! For the clean scale rungs (~100 / ~1k / ~10k tasks) it measures image
//! build time, the scoped evaluation probe (the paper's Figure 9-2: one
//! process's address space) against the deliberately population-linear
//! full task-list plot, and the full `kcheck` sweep. On each rung it then
//! walks the 21 Table 2 figures on a fresh KGDB session with the default
//! cache, takes one tick stop and walks them again, on a plain and on an
//! incremental session, and reports the cold walk's and the refresh's
//! packets, link time and wall time and the panes kept. For every fault
//! and CVE member it verifies the declared ground truth and round-trips
//! the recorded capture through a byte-identity replay.
//!
//! ```text
//! cargo run --release -p bench --bin corpus_bench
//! ```
//!
//! Emits `BENCH_corpus.json` (override with `$BENCH_CORPUS_OUT`). Exits
//! non-zero when the corpus contract breaks:
//!
//! * the scoped probe's packets at the 10k rung exceed 1.5x the 100
//!   rung's (the sublinearity floor this subsystem is sold on),
//! * the full-pane control fails to grow >= 20x over the same range
//!   (which would mean the meter, not the scoping, produced the flat
//!   line),
//! * an incremental refresh at `clean-10k` sends more than 100 packets,
//!   a plain refresh on any rung sends more than its own cold walk, or
//!   a refreshed graph differs from a fresh uncached walk of the same
//!   state,
//! * any corpus member's ground truth fails, or its capture does not
//!   replay to the live graph.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use bench::TablePrinter;
use kgen::{check_ground_truth, record_scenario, replay_probe, scoped_probe, FULL_PROBE};
use ksim::corpus::{self, ScenarioSpec};
use vbridge::{CacheConfig, LatencyProfile};
use vgraph::Graph;
use visualinux::{figures, PlotSpec, Session, SessionError};

/// One probe's cost on one rung.
#[derive(serde::Serialize, Clone, Copy)]
struct ProbeCost {
    packets: u64,
    walks: u64,
    wall_ms: f64,
}

/// One clean scale rung's row.
#[derive(serde::Serialize)]
struct RungDoc {
    scenario: String,
    tasks: u64,
    objects: u64,
    build_ms: f64,
    scoped: ProbeCost,
    full: ProbeCost,
    sweep_ms: f64,
    sweep_clean: bool,
}

/// The 21 figures walked once on a session.
#[derive(serde::Serialize, Clone, Copy, Default)]
struct Walks {
    packets: u64,
    link_ms: f64,
    wall_ms: f64,
    /// Panes handed out as their retained graph.
    kept: u64,
}

/// One rung's cold walk and refresh after one tick stop, on a plain or
/// an incremental session.
#[derive(serde::Serialize)]
struct RefreshDoc {
    scenario: String,
    mode: &'static str,
    cold: Walks,
    refresh: Walks,
}

/// One fault/CVE member's row.
#[derive(serde::Serialize)]
struct MemberDoc {
    scenario: String,
    fingerprint: u64,
    expected_findings: usize,
    ground_truth_ok: bool,
    capture_bytes: u64,
    replay_ok: bool,
}

/// The whole `BENCH_corpus.json` document.
#[derive(serde::Serialize)]
struct BenchDoc {
    bench: &'static str,
    rungs: Vec<RungDoc>,
    refresh: Vec<RefreshDoc>,
    members: Vec<MemberDoc>,
    scoped_packet_ratio_10k_over_100: f64,
    full_packet_ratio_10k_over_100: f64,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A walk's graph JSON, or its error's text, hashed.
fn digest(walk: &Result<Arc<Graph>, SessionError>) -> u64 {
    let text = match walk {
        Ok(graph) => graph.to_json(),
        Err(e) => e.to_string(),
    };
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// Take the stop one scheduler tick makes.
fn tick(s: &mut Session) {
    let roots = s.roots.clone();
    s.stop_event(|img| {
        ksim::tick::tick(img, &roots, 1);
    })
    .expect("a live session takes stops");
}

/// Walk the 21 figures on `s`: what the walks cost, timed alone, and
/// their graphs.
fn walk_all(s: &Session) -> (Walks, Vec<Result<Arc<Graph>, SessionError>>) {
    let t = Instant::now();
    let walks: Vec<_> = figures::all()
        .iter()
        .map(|fig| s.extract_shared(fig.viewcl))
        .collect();
    let mut w = Walks {
        wall_ms: ms(t),
        ..Walks::default()
    };
    let graphs = walks
        .into_iter()
        .map(|walk| {
            walk.map(|(graph, stats)| {
                w.packets += stats.target.reads;
                w.link_ms += stats.target.virtual_ns as f64 / 1e6;
                w.kept += stats.target.vincr_hits;
                graph
            })
        })
        .collect();
    (w, graphs)
}

/// The 21 figures' digests after one tick stop, on a fresh uncached
/// session: what every refresh must give.
fn fresh_digests(spec: &ScenarioSpec) -> Vec<u64> {
    let mut s = Session::from_scenario(spec)
        .0
        .attach()
        .expect("live attach");
    tick(&mut s);
    let walk = |src| s.extract_shared(src).map(|(graph, _)| graph);
    figures::all()
        .iter()
        .map(|fig| digest(&walk(fig.viewcl)))
        .collect()
}

/// Walk the 21 figures on a fresh KGDB session over `spec` with the
/// default cache, take one tick stop and walk them again; a refreshed
/// graph whose digest is not `want`'s is a failure.
fn refresh(
    spec: &ScenarioSpec,
    incremental: bool,
    want: &[u64],
    failures: &mut Vec<String>,
) -> RefreshDoc {
    let builder = Session::from_scenario(spec)
        .0
        .profile(LatencyProfile::kgdb_rpi400())
        .cache(CacheConfig::default());
    let builder = if incremental {
        builder.incremental()
    } else {
        builder
    };
    let mut s = builder.attach().expect("live attach");
    let (cold, _) = walk_all(&s);
    tick(&mut s);
    let (refresh, got) = walk_all(&s);
    let mode = if incremental { "incremental" } else { "plain" };
    for ((fig, got), want) in figures::all().iter().zip(&got).zip(want) {
        if digest(got) != *want {
            failures.push(format!(
                "{}: {mode} refresh of {} differs from a fresh walk",
                spec.name, fig.id
            ));
        }
    }
    RefreshDoc {
        scenario: spec.name.clone(),
        mode,
        cold,
        refresh,
    }
}

fn main() {
    println!("corpus_bench: scenario corpus — scale rungs, ground truth, replay\n");
    let mut failures: Vec<String> = Vec::new();

    // --- Clean scale rungs ----------------------------------------------
    let mut rungs = Vec::new();
    for name in ["clean-100", "clean-1k", "clean-10k"] {
        let spec = corpus::by_name(name).expect("rung exists");
        let tasks = spec.tasks() as u64;
        let t0 = Instant::now();
        let (builder, _) = Session::from_scenario(&spec);
        let mut s = builder.attach().expect("live attach");
        let build_ms = ms(t0);

        let t1 = Instant::now();
        let scoped_pane = s.plot(PlotSpec::Source(scoped_probe())).expect("probe");
        let scoped_wall = ms(t1);
        let sst = s.plot_stats(scoped_pane).expect("stats");

        let t2 = Instant::now();
        let full_pane = s.plot(PlotSpec::Source(FULL_PROBE)).expect("control");
        let full_wall = ms(t2);
        let fst = s.plot_stats(full_pane).expect("stats");

        let t3 = Instant::now();
        let report = s.vcheck();
        let sweep_ms = ms(t3);
        if !report.is_clean() {
            failures.push(format!("{name}: sweep not clean: {}", report.summary()));
        }
        rungs.push(RungDoc {
            scenario: name.to_string(),
            tasks,
            objects: fst.graph.objects,
            build_ms,
            scoped: ProbeCost {
                packets: sst.target.reads,
                walks: sst.graph.objects,
                wall_ms: scoped_wall,
            },
            full: ProbeCost {
                packets: fst.target.reads,
                walks: fst.graph.objects,
                wall_ms: full_wall,
            },
            sweep_ms,
            sweep_clean: report.is_clean(),
        });
    }

    let t = TablePrinter::new(&[10, 7, 9, 9, 9, 10, 9, 9]);
    t.row(
        &[
            "rung",
            "tasks",
            "build-ms",
            "sc-pkts",
            "sc-walks",
            "full-pkts",
            "full-ms",
            "sweep-ms",
        ]
        .map(String::from),
    );
    t.sep();
    for r in &rungs {
        t.row(&[
            r.scenario.clone(),
            r.tasks.to_string(),
            format!("{:.1}", r.build_ms),
            r.scoped.packets.to_string(),
            r.scoped.walks.to_string(),
            r.full.packets.to_string(),
            format!("{:.1}", r.full.wall_ms),
            format!("{:.1}", r.sweep_ms),
        ]);
    }
    t.sep();
    println!();

    // --- Sublinearity gate ----------------------------------------------
    let scoped_ratio = rungs[2].scoped.packets as f64 / rungs[0].scoped.packets.max(1) as f64;
    let full_ratio = rungs[2].full.packets as f64 / rungs[0].full.packets.max(1) as f64;
    println!(
        "scoped packets 10k/100: {scoped_ratio:.2}x (floor: <= 1.5x) {}",
        if scoped_ratio <= 1.5 {
            "[in band]"
        } else {
            "[OUT OF BAND]"
        }
    );
    println!(
        "full packets   10k/100: {full_ratio:.1}x (floor: >= 20x) {}\n",
        if full_ratio >= 20.0 {
            "[in band]"
        } else {
            "[OUT OF BAND]"
        }
    );
    if scoped_ratio > 1.5 {
        failures.push(format!(
            "scoped probe is not sublinear: {scoped_ratio:.2}x packets across a 99x population"
        ));
    }
    if full_ratio < 20.0 {
        failures.push(format!(
            "full-pane control grew only {full_ratio:.1}x — the flat scoped line proves nothing"
        ));
    }

    // --- The refresh after one tick, per rung ----------------------------
    let mut refreshes = Vec::new();
    for r in &rungs {
        let spec = corpus::by_name(&r.scenario).expect("rung exists");
        let want = fresh_digests(&spec);
        for incremental in [false, true] {
            refreshes.push(refresh(&spec, incremental, &want, &mut failures));
        }
    }
    let t = TablePrinter::new(&[10, 12, 10, 11, 9, 9, 11, 9, 5]);
    t.row(
        &[
            "rung",
            "session",
            "cold-pkts",
            "cold-link-s",
            "cold-ms",
            "ref-pkts",
            "ref-link-s",
            "ref-ms",
            "kept",
        ]
        .map(String::from),
    );
    t.sep();
    for r in &refreshes {
        t.row(&[
            r.scenario.clone(),
            r.mode.to_string(),
            r.cold.packets.to_string(),
            format!("{:.1}", r.cold.link_ms / 1e3),
            format!("{:.1}", r.cold.wall_ms),
            r.refresh.packets.to_string(),
            format!("{:.1}", r.refresh.link_ms / 1e3),
            format!("{:.1}", r.refresh.wall_ms),
            r.refresh.kept.to_string(),
        ]);
        if r.mode == "plain" && r.refresh.packets > r.cold.packets {
            failures.push(format!(
                "{}: a plain refresh sends {} packets, its cold walk {}",
                r.scenario, r.refresh.packets, r.cold.packets
            ));
        }
        if r.scenario == "clean-10k" && r.mode == "incremental" && r.refresh.packets > 100 {
            failures.push(format!(
                "clean-10k: an incremental refresh sends {} packets (bound: 100)",
                r.refresh.packets
            ));
        }
    }
    t.sep();
    println!();

    // --- Fault / CVE members: ground truth + replay ---------------------
    let mut members = Vec::new();
    for spec in corpus::corpus()
        .into_iter()
        .filter(|s| !s.injections.is_empty())
    {
        let truth = check_ground_truth(&spec);
        if let Err(e) = &truth {
            failures.push(e.clone());
        }
        let capture = record_scenario(&spec);
        let bytes = capture.to_json().len() as u64;
        let (builder, _) = Session::from_scenario(&spec);
        let live = builder.attach().expect("live attach");
        let (live_graph, _) = live.extract(scoped_probe()).expect("probe extracts");
        let replay_ok = replay_probe(capture).as_deref() == Ok(live_graph.to_json().as_str());
        if !replay_ok {
            failures.push(format!(
                "{}: capture does not replay to the live graph",
                spec.name
            ));
        }
        members.push(MemberDoc {
            scenario: spec.name.clone(),
            fingerprint: spec.fingerprint(),
            expected_findings: spec.build().expected.len(),
            ground_truth_ok: truth.is_ok(),
            capture_bytes: bytes,
            replay_ok,
        });
    }

    let t = TablePrinter::new(&[26, 10, 8, 9, 7]);
    t.row(&["member", "expected", "truth", "vrec-KB", "replay"].map(String::from));
    t.sep();
    for m in &members {
        t.row(&[
            m.scenario.clone(),
            m.expected_findings.to_string(),
            if m.ground_truth_ok { "ok" } else { "FAIL" }.to_string(),
            format!("{:.1}", m.capture_bytes as f64 / 1024.0),
            if m.replay_ok { "ok" } else { "FAIL" }.to_string(),
        ]);
    }
    t.sep();
    println!();

    let out = std::env::var("BENCH_CORPUS_OUT").unwrap_or_else(|_| "BENCH_corpus.json".to_string());
    let doc = BenchDoc {
        bench: "corpus",
        rungs,
        refresh: refreshes,
        members,
        scoped_packet_ratio_10k_over_100: scoped_ratio,
        full_packet_ratio_10k_over_100: full_ratio,
    };
    std::fs::write(&out, serde_json::to_string_pretty(&doc).expect("encode")).expect("write");
    println!("wrote {out}");

    if !failures.is_empty() {
        eprintln!("\nCORPUS CONTRACT FAILURES:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
