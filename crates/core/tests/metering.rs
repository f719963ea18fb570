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
