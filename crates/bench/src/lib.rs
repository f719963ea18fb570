//! Benchmark and reproduction harnesses for the paper's evaluation (§5).
//!
//! Binaries (run with `cargo run -p bench --bin <name>`):
//!
//! * `table2` — Table 2: the 21 ULK figures, our LoC vs. the paper's,
//!   extracted object/link counts, drift class.
//! * `table3` — Table 3: the 10 debugging objectives, hand-written ViewQL
//!   LoC, and vchat synthesis results.
//! * `table4` — Table 4: per-figure extraction cost under the GDB-QEMU
//!   and KGDB-rpi400 latency profiles (total ms / ms-per-object /
//!   ms-per-KB, virtual time).
//! * `fig4` — the maple-tree plot of Figure 4 (ASCII + DOT + SVG files).
//! * `fig7` — the Dirty Pipe object graph of Figure 7.
//! * `incr_bench` — post-stop re-extraction cost, full re-walk vs
//!   vincr incremental refresh, emitted as `BENCH_incr.json`.
//! * `vrec` — record the full figure corpus into a `.vrec` wire capture
//!   (`vrec record out.vrec`), or re-run it from the capture alone and
//!   verify packets/bytes/hashes bit-for-bit (`vrec replay out.vrec`).
//!
//! Criterion benches (`cargo bench -p bench`) measure real wall-clock
//! interpreter performance on the same plots.

use ksim::workload::{build, WorkloadConfig};
use vbridge::{CacheConfig, LatencyProfile, TargetStats};
use visualinux::Session;
use vtrace::{Counters, SpanKind, TraceSpan};

/// The figure ids measured in Table 4, in the paper's row order
/// (19-1 and 19-2 merged like the paper's "Fig 19-1/2" row).
pub const TABLE4_FIGURES: [&str; 20] = [
    "fig3-4",
    "fig3-6",
    "fig4-5",
    "fig6-1",
    "fig7-1",
    "fig8-2",
    "fig8-4",
    "fig9-2",
    "fig11-1",
    "fig12-3",
    "fig13-3",
    "fig14-3",
    "fig15-1",
    "fig16-2",
    "fig17-1",
    "fig17-6",
    "fig19-1",
    "workqueue",
    "proc2vfs",
    "socketconn",
];

/// Build the evaluation workload and attach a session.
pub fn attach(profile: LatencyProfile) -> Session {
    Session::builder(build(&WorkloadConfig::default()))
        .profile(profile)
        .attach()
        .unwrap()
}

/// Build the evaluation workload and attach a session with the snapshot
/// block cache enabled.
pub fn attach_cached(profile: LatencyProfile, cfg: CacheConfig) -> Session {
    Session::builder(build(&WorkloadConfig::default()))
        .profile(profile)
        .cache(cfg)
        .attach()
        .unwrap()
}

/// Build the evaluation workload and attach a cached session with
/// incremental refresh (vincr) enabled: stops report dirty ranges and
/// re-extraction keeps panes the dirty set provably missed.
pub fn attach_incr(profile: LatencyProfile, cfg: CacheConfig) -> Session {
    Session::builder(build(&WorkloadConfig::default()))
        .profile(profile)
        .cache(cfg)
        .incremental()
        .attach()
        .unwrap()
}

/// The five counts a `TargetStats` shares with the spans, as span
/// [`Counters`].
pub fn counters(s: &TargetStats) -> Counters {
    Counters {
        packets: s.reads,
        bytes: s.bytes,
        virtual_ns: s.virtual_ns,
        cache_hits: s.cache_hits,
        faults: s.faults,
    }
}

/// One plot's cost by pipeline stage: the exclusive (own) counters of
/// its spans, summed by kind, and the trace's inclusive totals.
#[derive(Debug, Default)]
pub struct Stages {
    /// ViewCL parsing.
    pub parse: Counters,
    /// The interpreter's walk outside the distillers.
    pub walk: Counters,
    /// Distiller walks.
    pub distill: Counters,
    /// Every other stage.
    pub rest: Counters,
    /// The trace root's inclusive totals.
    pub total: Counters,
}

/// Split the plot `label`, traced as `trace` and metered as `stats`,
/// into its [`Stages`], and push to `drift` each way the trace fails to
/// account for the plot: an ill-formed span tree, stage rows that do not
/// sum to the span totals, and span totals that are not its stats.
pub fn attribute(
    label: &str,
    trace: &TraceSpan,
    stats: &TargetStats,
    drift: &mut Vec<String>,
) -> Stages {
    if let Err(e) = trace.check_well_formed() {
        drift.push(format!("{label}: ill-formed span tree: {e}"));
    }
    let mut st = Stages {
        total: trace.totals(),
        ..Stages::default()
    };
    for sp in trace.flatten() {
        let stage = match sp.kind {
            SpanKind::Parse => &mut st.parse,
            SpanKind::Interp => &mut st.walk,
            SpanKind::Distill => &mut st.distill,
            _ => &mut st.rest,
        };
        *stage = stage.plus(sp.own());
    }
    let tot = st.total;
    let sum = st.parse.plus(st.walk).plus(st.distill).plus(st.rest);
    if sum != tot {
        drift.push(format!("{label}: stage sum {sum:?} != span totals {tot:?}"));
    }
    let from_stats = counters(stats);
    if tot != from_stats {
        drift.push(format!(
            "{label}: span totals {tot:?} != TargetStats {from_stats:?}"
        ));
    }
    st
}

/// End a `--trace` run that found `drift`: print it and exit 1. Returns
/// when there is none.
pub fn exit_on_drift(drift: &[String]) {
    if drift.is_empty() {
        return;
    }
    eprintln!("\nTRACE/STAT RECONCILIATION DRIFT:");
    for d in drift {
        eprintln!("  {d}");
    }
    std::process::exit(1);
}

/// Markdown-ish table printer with fixed-width columns.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Create a printer with the given column widths.
    pub fn new(widths: &[usize]) -> Self {
        TablePrinter {
            widths: widths.to_vec(),
        }
    }

    /// Print one row.
    pub fn row(&self, cells: &[String]) {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            let w = self.widths.get(i).copied().unwrap_or(12);
            line.push_str(&format!("{c:<w$}  "));
        }
        println!("{}", line.trim_end());
    }

    /// Print a separator.
    pub fn sep(&self) {
        let total: usize = self.widths.iter().map(|w| w + 2).sum();
        println!("{}", "-".repeat(total));
    }
}
