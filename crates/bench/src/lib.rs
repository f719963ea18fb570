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
use vbridge::{CacheConfig, LatencyProfile};
use visualinux::Session;

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
