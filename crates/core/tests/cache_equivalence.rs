//! Cache transparency: the snapshot block cache is a pure cost
//! optimization. Every Table 2 figure must extract *byte-identical*
//! vgraph JSON with the cache enabled — both cold (empty cache) and warm
//! (second extraction of the same figure) — as a plain uncached session
//! produces, while never costing more virtual time than uncached.
//!
use ksim::workload::{build, WorkloadConfig};
use vbridge::{CacheConfig, LatencyProfile};
use visualinux::{figures, Session};

#[test]
fn all_figures_byte_identical_cached_cold_and_warm() {
    let uncached = Session::builder(build(&WorkloadConfig::default()))
        .profile(LatencyProfile::kgdb_rpi400())
        .attach()
        .unwrap();
    let mut cached = Session::builder(build(&WorkloadConfig::default()))
        .profile(LatencyProfile::kgdb_rpi400())
        .cache(CacheConfig::default())
        .attach()
        .unwrap();
    let mut failures = Vec::new();
    for fig in figures::all() {
        let (g, s) = uncached.extract(fig.viewcl).expect(fig.id);
        let reference = g.to_json();
        // Cold: resume() empties the cache, so the first cached
        // extraction starts from nothing.
        cached.resume();
        assert!(cached.cache().unwrap().is_empty());
        let (g_cold, s_cold) = cached.extract(fig.viewcl).expect(fig.id);
        if g_cold.to_json() != reference {
            failures.push(format!("{}: cold cached JSON differs", fig.id));
        }
        // Warm: same snapshot, so the re-extraction is mostly cache hits.
        let (g_warm, s_warm) = cached.extract(fig.viewcl).expect(fig.id);
        if g_warm.to_json() != reference {
            failures.push(format!("{}: warm cached JSON differs", fig.id));
        }
        if s_cold.target.virtual_ns > s.target.virtual_ns {
            failures.push(format!(
                "{}: cold cache costs more than uncached ({} > {} ns)",
                fig.id, s_cold.target.virtual_ns, s.target.virtual_ns
            ));
        }
        if s_warm.target.virtual_ns > s_cold.target.virtual_ns {
            failures.push(format!(
                "{}: warm costs more than cold ({} > {} ns)",
                fig.id, s_warm.target.virtual_ns, s_cold.target.virtual_ns
            ));
        }
        if s_warm.target.cache_hits == 0 {
            failures.push(format!("{}: warm extraction never hit the cache", fig.id));
        }
    }
    assert!(
        failures.is_empty(),
        "cache equivalence failures:\n{}",
        failures.join("\n")
    );
}

#[test]
fn block_size_sweep_preserves_equivalence() {
    // The invariants hold at every legal block size, not just the default,
    // for every figure, cold and warm. And each request a warm walk's
    // cache served without a packet was served by at least one hit, so
    // it saves no more packets than it hits blocks.
    let uncached = Session::builder(build(&WorkloadConfig::default()))
        .profile(LatencyProfile::free())
        .attach()
        .unwrap();
    let reference: Vec<String> = figures::all()
        .iter()
        .map(|fig| uncached.extract(fig.viewcl).expect(fig.id).0.to_json())
        .collect();
    let mut failures = Vec::new();
    for bs in [8u64, 64, 256, 4096] {
        let mut cached = Session::builder(build(&WorkloadConfig::default()))
            .profile(LatencyProfile::free())
            .cache(CacheConfig::with_block_size(bs))
            .attach()
            .unwrap();
        for (fig, reference) in figures::all().iter().zip(&reference) {
            cached.resume();
            let (g_cold, _) = cached.extract(fig.viewcl).expect(fig.id);
            let (g_warm, s_warm) = cached.extract(fig.viewcl).expect(fig.id);
            if g_cold.to_json() != *reference || g_warm.to_json() != *reference {
                failures.push(format!("{} at block size {bs}: JSON differs", fig.id));
            }
            let s = s_warm.target;
            if s.cache_hits < s.packets_saved {
                failures.push(format!(
                    "{} at block size {bs}: warm walk saved {} packets with {} hits",
                    fig.id, s.packets_saved, s.cache_hits
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} failures:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
