//! Property: vtrace span trees are well-formed and their counters
//! reconcile with `TargetStats` *exactly*, under any workload shape,
//! latency profile, cache mode, and figure.
//!
//! A traced bridge target counts into the tracer's meter, the one its
//! `TargetStats` are read from, and spans record deltas of that meter,
//! so the sums must telescope: for every
//! pane, Σ own-counters over the span tree == the root's inclusive
//! counters == the extraction's `TargetStats` projection, in integer
//! nanoseconds with no rounding anywhere. That holds for an extraction
//! that keeps a pane or patches it after a stop as for a walk, and a
//! patch shows as one `patch` span naming how many boxes it evaluated.

use ksim::workload::{build, WorkloadConfig};
use proptest::prelude::*;
use vbridge::{CacheConfig, LatencyProfile, TargetStats};
use visualinux::{figures, PlotSpec, Session};
use vtrace::{SpanKind, TraceSpan};

fn assert_reconciles(trace: &TraceSpan, target: TargetStats) -> Result<(), TestCaseError> {
    prop_assert!(
        trace.check_well_formed().is_ok(),
        "ill-formed: {:?}",
        trace.check_well_formed()
    );
    let tot = trace.totals();
    prop_assert_eq!(tot.packets, target.reads, "packets != reads");
    prop_assert_eq!(tot.bytes, target.bytes, "bytes drift");
    prop_assert_eq!(tot.virtual_ns, target.virtual_ns, "virtual time drift");
    prop_assert_eq!(tot.cache_hits, target.cache_hits, "cache hit drift");
    prop_assert_eq!(tot.faults, target.faults, "fault drift");
    // Telescoping: exclusive shares sum back to the inclusive root.
    prop_assert_eq!(trace.leaf_totals(), tot);
    Ok(())
}

/// Take scheduler tick 1 as a stop, then plot figure `id` again.
fn tick_and_plot(s: &mut Session, id: &str) -> visualinux::vpanels::PaneId {
    let roots = s.roots.clone();
    s.stop_event(|img| {
        ksim::tick::tick(img, &roots, 1);
    })
    .unwrap();
    s.plot(PlotSpec::Figure(id)).unwrap()
}

#[test]
fn a_patch_reconciles_and_names_the_boxes_it_evaluated() {
    for (id, boxes) in [("fig3-4", 22), ("fig7-1", 7)] {
        let mut s = Session::builder(build(&WorkloadConfig::default()))
            .profile(LatencyProfile::kgdb_rpi400())
            .cache(CacheConfig::default())
            .tracing()
            .attach()
            .unwrap();
        s.plot(PlotSpec::Figure(id)).unwrap();
        let pane = tick_and_plot(&mut s, id);
        let stats = s.plot_stats(pane).unwrap().target;
        assert_eq!(stats.reevaluated, 2, "{id}");
        let trace = s.vtrace(pane).unwrap();
        assert_reconciles(&trace, stats).unwrap();
        let flat = trace.flatten();
        let patch: Vec<_> = flat
            .iter()
            .filter(|sp| sp.kind == SpanKind::Patch)
            .collect();
        assert_eq!(patch.len(), 1, "{id}");
        assert_eq!(patch[0].name, format!("interp::patch 2 of {boxes} boxes"));
        // The patch walks no pane: no interp span.
        assert!(flat.iter().all(|sp| sp.kind != SpanKind::Interp), "{id}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn span_trees_reconcile_with_target_stats(
        fig_idx in 0usize..21,
        profile_idx in 0usize..3,
        cached_coin in 0u8..2,
        processes in 2usize..7,
        seed in 0u64..32,
    ) {
        let profile = match profile_idx {
            0 => LatencyProfile::free(),
            1 => LatencyProfile::gdb_qemu(),
            _ => LatencyProfile::kgdb_rpi400(),
        };
        let cached = cached_coin == 1;
        let cfg = WorkloadConfig { processes, seed, ..WorkloadConfig::default() };
        let mut s = if cached {
            Session::builder(build(&cfg)).profile(profile).cache(CacheConfig::default()).attach().unwrap()
        } else {
            Session::builder(build(&cfg)).profile(profile).attach().unwrap()
        };
        s.enable_tracing();

        let fig = &figures::all()[fig_idx];
        let pane = s.plot(PlotSpec::Figure(fig.id)).unwrap();
        let stats = s.plot_stats(pane).unwrap().target;
        let trace = s.vtrace(pane).expect("trace recorded for the pane");
        assert_reconciles(&trace, stats)?;

        // Timestamps are monotone along any root-to-leaf path and the
        // extraction decomposes into parse + interp stages.
        let flat = trace.flatten();
        prop_assert!(flat.iter().all(|sp| sp.start_ns <= sp.end_ns));
        let kinds: Vec<SpanKind> = flat.iter().map(|sp| sp.kind).collect();
        prop_assert!(kinds.contains(&SpanKind::Extract));
        prop_assert!(kinds.contains(&SpanKind::Parse));
        prop_assert!(kinds.contains(&SpanKind::Interp));

        // A wire-silent refinement lands a Query span on the pane and
        // changes no counter.
        s.vctrl_refine(pane, "a = SELECT task_struct FROM *").unwrap();
        let refined = s.vtrace(pane).unwrap();
        assert_reconciles(&refined, stats)?;
        prop_assert!(refined.flatten().iter().any(|sp| sp.kind == SpanKind::Query));

        // Cached sessions: a warm re-plot of the same figure reconciles
        // against its own (cache-hit heavy) stats too.
        if cached {
            let warm = s.plot(PlotSpec::Figure(fig.id)).unwrap();
            let warm_stats = s.plot_stats(warm).unwrap().target;
            let warm_trace = s.vtrace(warm).unwrap();
            assert_reconciles(&warm_trace, warm_stats)?;
            if profile_idx != 0 {
                prop_assert!(warm_stats.virtual_ns <= stats.virtual_ns);
            }
            // After a tick stop the pane is kept, patched or walked, and
            // reconciles whichever it was; a patch is one span.
            let after = tick_and_plot(&mut s, fig.id);
            let after_stats = s.plot_stats(after).unwrap().target;
            let after_trace = s.vtrace(after).unwrap();
            assert_reconciles(&after_trace, after_stats)?;
            let patches = after_trace.flatten().iter().filter(|sp| sp.kind == SpanKind::Patch).count();
            prop_assert_eq!(patches, usize::from(after_stats.reevaluated > 0));
        }
    }
}
