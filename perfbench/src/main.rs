//! `perfbench`: the repository benchmark. Drives one live `vserve`
//! engine through the real `WirePump` and binary framing with viewers
//! that apply every reply to a `vserve::Replica`, then checks every
//! viewer's panes against a fresh extraction and the engine's books
//! against the viewers'. See `perfbench/README.md` for why each
//! workload and metric exists.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload step_walk --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a separate traced run with
//! `--trace 1`. The exit code is non-zero when any operation or check
//! failed.

mod measure;
mod shadow;
mod wire;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::path::Path;

use vgraph::Graph;
use visualinux::proto::VCommand;
use vserve::ServeStats;

use measure::{median, peak_rss_mb, percentile, samples_beyond, self_times, Span};
use wire::{Tally, WireRun};

/// One workload: how many viewers, which engine, what a trigger is.
pub struct Spec {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Viewers per trigger.
    pub viewers: usize,
    /// Whether the engine's session runs vincr.
    pub incremental: bool,
    /// Whether a trigger is a stop event (else: fresh viewers attach).
    pub stops: bool,
    /// Timed triggers per second of `--seconds`. The window is a fixed
    /// amount of work, so every commit measures the same triggers and
    /// the same counts; at this rate it lasts about `--seconds`.
    pub rate: f64,
    /// Untimed triggers between set-up and the window.
    pub warmup: u32,
}

const SPECS: [Spec; 3] = [
    Spec {
        name: "step_walk",
        viewers: 1,
        incremental: false,
        stops: true,
        rate: 36.0,
        warmup: 3,
    },
    Spec {
        name: "step_reuse",
        viewers: 2,
        incremental: true,
        stops: true,
        rate: 43.0,
        warmup: 3,
    },
    // Runnable but not listed in BENCHMARK.json: its viewer-side decode
    // is too host-sensitive to gate (perfbench/README.md).
    Spec {
        name: "attach",
        viewers: 2,
        incremental: false,
        stops: false,
        rate: 7.0,
        warmup: 2,
    },
];

/// The nearest-rank p90 is only reported over at least this many
/// timed triggers: ten of them lie beyond it.
const MIN_TRIGGERS: u32 = 100;

/// One Table 2 pane.
pub struct Pane {
    /// Figure id.
    pub id: &'static str,
    /// Its ViewCL program.
    pub source: String,
    /// Its `vplot_request`, serialized once.
    pub request: String,
}

/// The engine's deterministic books: what the determinism check and the
/// shadow replay compare exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Books {
    /// Bridge walks.
    pub walks: u64,
    /// Extractions answered from the memo.
    pub coalesced: u64,
    /// Link packets of all walks.
    pub walk_packets: u64,
    /// Modelled link time of all walks, virtual ns.
    pub walk_virtual_ns: u64,
    /// Block-cache hits of all walks.
    pub walk_cache_hits: u64,
    /// Full plots shipped.
    pub fulls: u64,
    /// Deltas shipped.
    pub deltas: u64,
    /// Bytes of full plots shipped.
    pub full_bytes: u64,
    /// Bytes of deltas shipped.
    pub delta_bytes: u64,
    /// `vplot_request`s handled.
    pub plot_requests: u64,
    /// `vack`s handled.
    pub acks: u64,
    /// Stop events applied.
    pub stops: u64,
}

impl Books {
    fn of(s: &ServeStats) -> Books {
        Books {
            walks: s.walks,
            coalesced: s.coalesced,
            walk_packets: s.walk_packets,
            walk_virtual_ns: s.walk_virtual_ns,
            walk_cache_hits: s.walk_cache_hits,
            fulls: s.fulls_sent,
            deltas: s.deltas_sent,
            full_bytes: s.full_bytes_sent,
            delta_bytes: s.delta_bytes_sent,
            plot_requests: s.plot_requests,
            acks: s.acks,
            stops: s.stops,
        }
    }
}

/// What a fresh plain session extracts: the set-up's walk costs and the
/// graphs every viewer must hold at the end.
struct Reference {
    setup_packets: u64,
    setup_virtual_ns: u64,
    graphs: Vec<Graph>,
}

/// Extract every pane on a fresh session at stop generation 0, then
/// again after `ticks` tick stops.
fn reference(seed: u64, panes: &[Pane], ticks: u32) -> Reference {
    let mut session = wire::attach_session(seed, false);
    let (mut setup_packets, mut setup_virtual_ns) = (0, 0);
    let mut graphs = Vec::with_capacity(panes.len());
    for p in panes {
        let (graph, stats) = session.extract(&p.source).expect("the pane extracts");
        setup_packets += stats.target.reads;
        setup_virtual_ns += stats.target.virtual_ns;
        graphs.push(graph);
    }
    if ticks > 0 {
        let (_, _, roots) = ksim::workload::build(&wire::workload_config(seed)).finish();
        for step in 1..=u64::from(ticks) {
            session
                .stop_event(|img| {
                    ksim::tick::tick(img, &roots, step);
                })
                .expect("a live session takes stop events");
        }
        graphs = panes
            .iter()
            .map(|p| session.extract(&p.source).expect("the pane extracts").0)
            .collect();
    }
    Reference {
        setup_packets,
        setup_virtual_ns,
        graphs,
    }
}

/// Every viewer's pane must equal the fresh extraction.
fn check_outputs(run: &WireRun, panes: &[Pane], want: &[Graph], tally: &mut Tally) {
    let want: Vec<String> = want.iter().map(Graph::to_json).collect();
    for (v, replica) in run.replicas.iter().enumerate() {
        for (p, want) in panes.iter().zip(&want) {
            let got = replica.graph(&p.source).map(Graph::to_json);
            tally.check(got.as_ref() == Some(want), || {
                format!("viewer {v}'s `{}` differs from a fresh extraction", p.id)
            });
        }
    }
}

/// The counts one seed must reproduce exactly, run after run.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    books: Books,
    trigger_bytes: Vec<u64>,
}

/// Exact per-trigger figures derived from the books, set-up excluded.
struct PerTrigger {
    walks: f64,
    plot_requests: f64,
    fulls: f64,
    packets: f64,
    link_ms: f64,
}

fn per_trigger(run: &WireRun, r: &Reference, panes: usize, triggers: u32) -> PerTrigger {
    let b = Books::of(&run.serve);
    let t = f64::from(triggers);
    PerTrigger {
        walks: (b.walks - panes as u64) as f64 / t,
        plot_requests: (b.plot_requests - run.setup_books.plot_requests) as f64 / t,
        fulls: (b.fulls - run.setup_books.fulls) as f64 / t,
        packets: (b.walk_packets - r.setup_packets) as f64 / t,
        link_ms: (b.walk_virtual_ns - r.setup_virtual_ns) as f64 / t / 1e6,
    }
}

/// Compare `counts` with what an earlier run of this binary, workload,
/// seed and window recorded, or record them. Returns false on drift.
fn ledger_check(spec: &Spec, seed: u64, triggers: u32, counts: &Counts) -> bool {
    let mut exe = DefaultHasher::new();
    match std::env::current_exe().and_then(std::fs::read) {
        Ok(bytes) => bytes.hash(&mut exe),
        Err(e) => {
            eprintln!("perfbench: cannot fingerprint the binary ({e}); ledger skipped");
            return true;
        }
    }
    let dir = Path::new("perfbench/out/ledger");
    let path = dir.join(format!(
        "{}-{seed}-{triggers}-{:016x}.txt",
        spec.name,
        exe.finish()
    ));
    let text = format!("{counts:?}\n");
    match std::fs::read_to_string(&path) {
        Ok(earlier) => earlier == text,
        Err(_) => {
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &text))
            {
                eprintln!("perfbench: cannot record {}: {e}", path.display());
            }
            true
        }
    }
}

/// The end-to-end figures of one wire run.
struct EndToEnd {
    setup_s: f64,
    refresh_p50_ms: f64,
    refresh_p90_ms: f64,
    plots_per_s: f64,
}

fn end_to_end(run: &WireRun) -> EndToEnd {
    let mut refresh = run.refresh_ms.clone();
    refresh.sort_by(f64::total_cmp);
    let plots_per_trigger = run.window_plots as f64 / run.cycle_s.len() as f64;
    EndToEnd {
        setup_s: median(&run.setup_s),
        refresh_p50_ms: percentile(&refresh, 50.0),
        refresh_p90_ms: percentile(&refresh, 90.0),
        // At the median trigger's full cycle (requests, replies, acks):
        // a stall of the shared machine moves a few cycles, not this.
        plots_per_s: plots_per_trigger / median(&run.cycle_s),
    }
}

/// `a / b`, or 0 when nothing was done (`b == 0`).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A reported metric; per-layer ones name the end-to-end metric they
/// should move.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    moves: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    layer(name, value, unit, "")
}

fn layer(name: &'static str, value: f64, unit: &'static str, moves: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        moves,
    }
}

/// The per-layer metrics of the traced run, and the names of those the
/// kernel gave no figures for.
fn per_layer(
    spec: &Spec,
    traced: &WireRun,
    pt: &PerTrigger,
    sh: &shadow::Shadow,
    overhead: [f64; 3],
    timed: u32,
) -> (Vec<Metric>, Vec<&'static str>) {
    let plots = traced.window_plots as f64;
    let refreshes = f64::from(timed);
    let walks = sh.window.get("core.extract").map_or(0, |c| c.calls) as f64;
    let ms = |name: &str| sh.window.get(name).map_or(0.0, |c| c.ns as f64 / 1e6);
    let target = &sh.window_target;
    let reply_kib = traced.trigger_bytes[spec.warmup as usize..]
        .iter()
        .sum::<u64>() as f64
        / 1024.0;
    const P50: &str = "refresh_p50_ms";
    let mut out = Vec::new();
    let mut unavailable = Vec::new();
    match traced.threads {
        Some(t) => {
            let engine_ms = t.engine.on_cpu_ns as f64 / 1e6;
            // Top-level engine calls only: parsing happens inside extract.
            let attributed: f64 = [
                "proto.decode_request",
                "core.stop_event",
                "core.extract",
                "vgraph.diff",
                "proto.encode_full",
                "proto.encode_delta",
                "core.adopt_graph",
            ]
            .iter()
            .map(|n| ms(n))
            .sum();
            let frames = plots * 2.0; // every plot request is acked
            out.extend([
                layer(
                    "vserve.engine_cpu_ms_per_plot",
                    engine_ms / plots,
                    "ms",
                    "refresh_p50_ms, plots_per_s",
                ),
                layer(
                    "vserve.engine_busy_share",
                    engine_ms / 1e3 / traced.window_s,
                    "ratio",
                    "whether engine savings reach refresh",
                ),
                layer(
                    "vserve.engine_runq_ms_per_plot",
                    t.engine.runq_ns as f64 / 1e6 / plots,
                    "ms",
                    "refresh_p90_ms",
                ),
                layer(
                    "vserve.engine_attributed_share",
                    ratio(attributed, engine_ms),
                    "ratio",
                    "coverage of the engine",
                ),
                layer(
                    "vserve.pump_cpu_ms_per_frame",
                    t.pump.on_cpu_ns as f64 / 1e6 / frames,
                    "ms",
                    "refresh_p90_ms",
                ),
                layer(
                    "vserve.viewer_cpu_ms_per_plot",
                    t.viewers.on_cpu_ns as f64 / 1e6 / plots,
                    "ms",
                    P50,
                ),
            ]);
        }
        None => unavailable.extend([
            "vserve.engine_cpu_ms_per_plot",
            "vserve.engine_busy_share",
            "vserve.engine_runq_ms_per_plot",
            "vserve.engine_attributed_share",
            "vserve.pump_cpu_ms_per_frame",
            "vserve.viewer_cpu_ms_per_plot",
        ]),
    }
    let wire = &traced.wire;
    out.extend([
        layer(
            "vserve.pump_sweeps_per_frame",
            ratio(wire.sweeps as f64, wire.frames_in as f64),
            "ratio",
            P50,
        ),
        layer(
            "vserve.walks_per_plot",
            ratio(pt.walks, pt.plot_requests),
            "ratio",
            "link_ms_per_refresh, refresh_p50_ms",
        ),
        layer(
            "vserve.full_ships_per_walk",
            ratio(pt.fulls, pt.walks),
            "ratio",
            P50,
        ),
        layer("vserve.reply_kb_per_plot", reply_kib / plots, "KiB", P50),
        layer(
            "link_ms_per_refresh",
            pt.link_ms,
            "virtual_ms",
            "refresh time on a real KGDB link (exact)",
        ),
        layer(
            "core.stop_ms_per_refresh",
            ms("core.stop_event") / refreshes,
            "ms",
            P50,
        ),
        layer(
            "core.extract_ms_per_walk",
            ratio(ms("core.extract"), walks),
            "ms",
            P50,
        ),
        layer(
            "core.adopt_ms_per_plot",
            ms("core.adopt_graph") / plots,
            "ms",
            P50,
        ),
        layer(
            "viewcl.parse_ms_per_walk",
            ratio(ms("viewcl.parse"), walks),
            "ms",
            P50,
        ),
        layer(
            "vbridge.packets_per_refresh",
            target.reads as f64 / refreshes,
            "count",
            "link_ms_per_refresh",
        ),
        layer(
            "vbridge.cache_hit_ratio",
            ratio(
                target.cache_hits as f64,
                (target.cache_hits + target.cache_misses) as f64,
            ),
            "ratio",
            "link_ms_per_refresh",
        ),
        layer(
            "vincr.keep_ratio",
            ratio(
                target.vincr_hits as f64,
                (target.vincr_hits + target.vincr_rewalks) as f64,
            ),
            "ratio",
            "refresh_p50_ms, link_ms_per_refresh",
        ),
        layer(
            "vgraph.diff_ms_per_walk",
            ratio(ms("vgraph.diff"), walks),
            "ms",
            P50,
        ),
        layer(
            "vgraph.apply_ms_per_plot",
            ms("vgraph.apply") / plots,
            "ms",
            P50,
        ),
        layer(
            "proto.decode_request_ms_per_plot",
            ms("proto.decode_request") / plots,
            "ms",
            P50,
        ),
        layer(
            "proto.encode_full_ms_per_walk",
            ratio(ms("proto.encode_full"), walks),
            "ms",
            P50,
        ),
        layer(
            "proto.encode_delta_ms_per_plot",
            ms("proto.encode_delta") / plots,
            "ms",
            P50,
        ),
        layer(
            "proto.decode_reply_ms_per_plot",
            ms("proto.decode_reply") / plots,
            "ms",
            P50,
        ),
        layer(
            "trace.refresh_p50_overhead",
            overhead[0],
            "ratio",
            "(tracing cost)",
        ),
        layer(
            "trace.refresh_p90_overhead",
            overhead[1],
            "ratio",
            "(tracing cost)",
        ),
        layer(
            "trace.plots_per_s_overhead",
            overhead[2],
            "ratio",
            "(tracing cost)",
        ),
    ]);
    (out, unavailable)
}

/// Per span name: count, total and self milliseconds per timed trigger.
fn span_summary(title: &str, spans: &[Span], from: u32, timed: u32) {
    let selfs = self_times(spans);
    let mut rows: Vec<(&str, u64, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(&selfs) {
        if s.trigger < from {
            continue;
        }
        let row = match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => r,
            None => {
                rows.push((s.name, 0, 0, 0));
                rows.last_mut().expect("just pushed")
            }
        };
        row.1 += 1;
        row.2 += s.end_ns - s.start_ns;
        row.3 += own;
    }
    eprintln!("{title} (per timed trigger):");
    for (name, n, total, own) in rows {
        let t = f64::from(timed);
        eprintln!(
            "  {name:<24} {:>8.1} calls {:>9.3} ms total {:>9.3} ms self",
            n as f64 / t,
            total as f64 / 1e6 / t,
            own as f64 / 1e6 / t
        );
    }
}

/// Write every span as one tab-separated line under `perfbench/out/`:
/// log, id, name, start and end (ns), parent id (`-` for none), trigger.
fn write_spans(spec: &Spec, seed: u64, logs: &[(&str, &[Span])]) -> std::io::Result<()> {
    let dir = Path::new("perfbench/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-{seed}.tsv", spec.name));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(w, "log\tid\tname\tstart_ns\tend_ns\tparent\ttrigger")?;
    for (log, spans) in logs {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{log}\t{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.trigger
            )?;
        }
    }
    w.flush()?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} `{value}`");
        match flag.as_str() {
            "--workload" => {
                spec = Some(
                    SPECS
                        .iter()
                        .find(|s| s.name == value)
                        .ok_or(bad("no workload"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or(bad("not a duration"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("not 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <step_walk|step_reuse|attach> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let (spec, seed) = (args.spec, args.seed);
    let panes: Vec<Pane> = visualinux::figures::all()
        .into_iter()
        .map(|f| Pane {
            id: f.id,
            source: f.viewcl.to_string(),
            request: VCommand::VplotRequest {
                viewcl: f.viewcl.to_string(),
            }
            .to_json(),
        })
        .collect();
    let timed = MIN_TRIGGERS.max((args.seconds * spec.rate).round() as u32);
    let triggers = spec.warmup + timed;
    eprintln!(
        "perfbench: {} seed {seed}: {} panes x {} viewers, {} warm-up + {timed} timed triggers",
        spec.name,
        panes.len(),
        spec.viewers,
        spec.warmup
    );

    let mut tally = Tally::default();
    let finish = |tally: &Tally, metrics: &[Metric]| -> ! {
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, m.name, m.unit)
            })
            .collect();
        let correct = tally.failed() == 0;
        println!(
            r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            tally.attempted.max(1),
            tally.failed(),
            body.join(", ")
        );
        std::process::exit(if correct { 0 } else { 1 });
    };

    let Some(untraced) = wire::run(spec, &panes, seed, timed, false, &mut tally) else {
        finish(&tally, &[]);
    };
    let rss = peak_rss_mb();
    tally.absorb(&untraced.tally);
    let ticks = if spec.stops { triggers } else { 0 };
    let refr = reference(seed, &panes, ticks);
    check_outputs(&untraced, &panes, &refr.graphs, &mut tally);
    let counts = Counts {
        books: Books::of(&untraced.serve),
        trigger_bytes: untraced.trigger_bytes.clone(),
    };
    tally.check(ledger_check(spec, seed, triggers, &counts), || {
        format!("counts drifted from an earlier run of seed {seed}: now {counts:?}")
    });
    let e2e = end_to_end(&untraced);
    let pt = per_trigger(&untraced, &refr, panes.len(), triggers);
    eprintln!(
        "untraced: setup {:.4} s, refresh p50 {:.3} ms / p90 {:.3} ms over {} triggers ({} beyond p90), \
         {:.1} plots/s, link {:.3} virtual ms and {:.1} packets per refresh",
        e2e.setup_s,
        e2e.refresh_p50_ms,
        e2e.refresh_p90_ms,
        untraced.refresh_ms.len(),
        samples_beyond(untraced.refresh_ms.len(), 90.0),
        e2e.plots_per_s,
        pt.link_ms,
        pt.packets
    );

    if !args.trace {
        let mut metrics = vec![
            metric("setup_s", e2e.setup_s, "s"),
            metric("refresh_p50_ms", e2e.refresh_p50_ms, "ms"),
            metric("plots_per_s", e2e.plots_per_s, "1/s"),
        ];
        match rss {
            Some(mb) => metrics.push(metric("peak_rss_mb", mb, "MB")),
            None => eprintln!("perfbench: VmHWM unavailable; peak_rss_mb not reported"),
        }
        finish(&tally, &metrics);
    }

    // The traced run: the same traffic again with spans, then the shadow
    // replay of every call the engine and viewers made.
    let Some(traced) = wire::run(spec, &panes, seed, timed, true, &mut tally) else {
        finish(&tally, &[]);
    };
    tally.absorb(&traced.tally);
    check_outputs(&traced, &panes, &refr.graphs, &mut tally);
    let traced_counts = Counts {
        books: Books::of(&traced.serve),
        trigger_bytes: traced.trigger_bytes.clone(),
    };
    tally.check(traced_counts == counts, || {
        format!("traced counts {traced_counts:?} differ from untraced {counts:?}")
    });
    let sh = shadow::replay(spec, &panes, seed, triggers, spec.warmup + 1);
    tally.check(sh.books == counts.books, || {
        format!(
            "the shadow replay booked {:?}, the engine {:?}",
            sh.books, counts.books
        )
    });
    for (v, graphs) in sh.final_graphs.iter().enumerate() {
        for ((p, got), want) in panes.iter().zip(graphs).zip(&refr.graphs) {
            tally.check(got.to_json() == want.to_json(), || {
                format!(
                    "shadow viewer {v}'s `{}` differs from a fresh extraction",
                    p.id
                )
            });
        }
    }
    let te = end_to_end(&traced);
    let overhead = [
        te.refresh_p50_ms / e2e.refresh_p50_ms - 1.0,
        te.refresh_p90_ms / e2e.refresh_p90_ms - 1.0,
        1.0 - te.plots_per_s / e2e.plots_per_s,
    ];
    eprintln!(
        "traced:   setup {:.4} s, refresh p50 {:.3} ms / p90 {:.3} ms, {:.1} plots/s",
        te.setup_s, te.refresh_p50_ms, te.refresh_p90_ms, te.plots_per_s
    );
    let (mut metrics, unavailable) = per_layer(spec, &traced, &pt, &sh, overhead, timed);
    metrics.push(layer(
        "refresh_p90_ms",
        e2e.refresh_p90_ms,
        "ms",
        "the refresh tail (untraced run; too noisy on a shared host to gate)",
    ));
    for name in unavailable {
        eprintln!("perfbench: {name} unavailable: no per-thread schedstat");
    }
    for m in &metrics {
        eprintln!(
            "  {:<34} {:>11.4} {:<10} moves {}",
            m.name, m.value, m.unit, m.moves
        );
    }
    let wire_spans = traced.spans.as_ref().map_or(&[][..], |l| l.spans());
    span_summary("wire spans", wire_spans, spec.warmup + 1, timed);
    span_summary("shadow spans", sh.spans.spans(), spec.warmup + 1, timed);
    if let Err(e) = write_spans(
        spec,
        seed,
        &[("wire", wire_spans), ("shadow", sh.spans.spans())],
    ) {
        eprintln!("perfbench: cannot write spans: {e}");
    }
    finish(&tally, &metrics);
}
