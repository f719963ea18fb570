//! What each figure's walk costs on the wire, pinned: the packets,
//! wire bytes and virtual link time of every Table 2 figure, uncached
//! under the KGDB and the QEMU profile, and on a cold cached KGDB
//! session at 8-, 256- and 4,096-byte blocks. A change that moves how
//! the bridge meters a read fails here, figure by figure.
//!
//! Regenerating after an *intentional* metering change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p visualinux --test metering
//! git diff crates/core/tests/goldens/   # review, then commit
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use ksim::faults::{self, FaultKind};
use ksim::workload::{build, WorkloadConfig};
use vbridge::{CacheConfig, LatencyProfile};
use visualinux::{figures, Session};

/// Append one line per figure, walked on `session` under `label`: each
/// figure's first walk after a resume, so a cached session starts it
/// from an empty cache.
fn walk_all(label: &str, session: &mut Session, out: &mut String) {
    for fig in figures::all() {
        session.resume();
        let (_, stats) = session.extract(fig.viewcl).expect(fig.id);
        let s = stats.target;
        writeln!(
            out,
            "{label} {}: reads {} bytes {} virtual_ns {}",
            fig.id, s.reads, s.bytes, s.virtual_ns
        )
        .unwrap();
    }
}

#[test]
fn per_figure_metering_matches_golden() {
    let mut snap = String::new();
    for (name, profile) in [
        ("kgdb", LatencyProfile::kgdb_rpi400()),
        ("qemu", LatencyProfile::gdb_qemu()),
    ] {
        let mut session = Session::builder(build(&WorkloadConfig::default()))
            .profile(profile)
            .attach()
            .unwrap();
        walk_all(&format!("{name} uncached"), &mut session, &mut snap);
    }
    for block_size in [8u64, 256, 4096] {
        let mut session = Session::builder(build(&WorkloadConfig::default()))
            .profile(LatencyProfile::kgdb_rpi400())
            .cache(CacheConfig::with_block_size(block_size))
            .attach()
            .unwrap();
        walk_all(&format!("kgdb cold/{block_size}"), &mut session, &mut snap);
    }

    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/metering.txt");
    if std::env::var("UPDATE_GOLDENS").is_ok() {
        fs::write(&golden, &snap).unwrap();
        return;
    }
    let want = fs::read_to_string(&golden).expect(
        "golden missing; generate it with \
         UPDATE_GOLDENS=1 cargo test -p visualinux --test metering",
    );
    let drift: Vec<String> = want
        .lines()
        .zip(snap.lines())
        .filter(|(w, s)| w != s)
        .map(|(w, s)| format!("  golden `{w}`\n  now    `{s}`"))
        .collect();
    assert!(
        drift.is_empty() && want.lines().count() == snap.lines().count(),
        "metering drifted from the golden ({} of {} rows differ, {} rows now).\n\
         If intentional: UPDATE_GOLDENS=1 cargo test -p visualinux --test metering\n{}",
        drift.len(),
        want.lines().count(),
        snap.lines().count(),
        drift.join("\n")
    );
}

/// A cached walk that faults inside a distiller's prefetch hint.
/// `RbNodeDangle` at seeds 0, 4, 8 and 12 picks CPU 0, whose runqueue
/// fig7-1 walks, and points a node's `rb_left` at a freed node:
/// `rbtree_nodes` hints the dangling node's child pair before it reads
/// it. The hint's span fails and is metered as the one request it was;
/// each cached graph equals the uncached one, and no cached walk costs
/// more packets than the uncached walk. Every walk's bill is pinned.
#[test]
fn a_walk_that_faults_inside_a_hint_plots_as_uncached() {
    let fig = figures::by_id("fig7-1").unwrap();
    let walk = |seed: u64, block_size: Option<u64>| {
        let mut w = build(&WorkloadConfig::default());
        faults::inject(&mut w, FaultKind::RbNodeDangle, seed);
        let builder = Session::builder(w).profile(LatencyProfile::kgdb_rpi400());
        let builder = match block_size {
            Some(bs) => builder.cache(CacheConfig::with_block_size(bs)),
            None => builder,
        };
        let (graph, stats) = builder.attach().unwrap().extract(fig.viewcl).unwrap();
        (graph, stats.target)
    };
    let mut bills = String::new();
    for seed in [0, 4, 8, 12] {
        let (truth, uncached) = walk(seed, None);
        for (label, block_size) in [
            ("uncached", None),
            ("cold/256", Some(256)),
            ("cold/8", Some(8)),
        ] {
            let (graph, s) = match block_size {
                None => (truth.clone(), uncached),
                Some(_) => walk(seed, block_size),
            };
            assert!(
                graph == truth,
                "seed {seed} {label}: the graph differs from uncached"
            );
            assert!(
                s.reads <= uncached.reads,
                "seed {seed} {label}: {} packets",
                s.reads
            );
            writeln!(
                bills,
                "seed {seed} {label}: reads {} bytes {} virtual_ns {}",
                s.reads, s.bytes, s.virtual_ns
            )
            .unwrap();
        }
    }
    assert_eq!(
        bills,
        "seed 0 uncached: reads 7 bytes 48 virtual_ns 34876000\n\
         seed 0 cold/256: reads 4 bytes 776 virtual_ns 28912000\n\
         seed 0 cold/8: reads 7 bytes 72 virtual_ns 35164000\n\
         seed 4 uncached: reads 61 bytes 378 virtual_ns 303436000\n\
         seed 4 cold/256: reads 12 bytes 2824 virtual_ns 92688000\n\
         seed 4 cold/8: reads 35 bytes 320 virtual_ns 175340000\n\
         seed 8 uncached: reads 11 bytes 80 virtual_ns 54860000\n\
         seed 8 cold/256: reads 6 bytes 1288 virtual_ns 44856000\n\
         seed 8 cold/8: reads 9 bytes 104 virtual_ns 45348000\n\
         seed 12 uncached: reads 63 bytes 394 virtual_ns 313428000\n\
         seed 12 cold/256: reads 13 bytes 3080 virtual_ns 100660000\n\
         seed 12 cold/8: reads 36 bytes 336 virtual_ns 180432000\n"
    );
}
