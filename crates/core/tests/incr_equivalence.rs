//! Incremental transparency: vincr refresh is a pure cost optimization.
//! Between stops, an incremental session must produce *byte-identical*
//! vgraph JSON to a plain session's fresh extraction — across every
//! Table 2 figure, both latency profiles, and corpus tick workloads —
//! whether each pane was kept (dirty set missed its spans) or re-walked.
//! A backend that cannot report dirty ranges degrades to
//! full re-walks, never to stale graphs; and an incremental `.vrec`
//! capture replays bit-identically, dirty events and all.

use ksim::workload::{build, WorkloadConfig};
use vbridge::{CacheConfig, LatencyProfile, TargetStats, WireEvent};
use visualinux::{figures, Session};

fn profiles() -> [(&'static str, LatencyProfile); 2] {
    [
        ("gdb_qemu", LatencyProfile::gdb_qemu()),
        ("kgdb_rpi400", LatencyProfile::kgdb_rpi400()),
    ]
}

#[test]
fn all_figures_byte_identical_across_tick_stops_both_profiles() {
    let mut failures = Vec::new();
    for (pname, profile) in profiles() {
        let mut incr = Session::builder(build(&WorkloadConfig::default()))
            .profile(profile)
            .cache(CacheConfig::default())
            .incremental()
            .attach()
            .unwrap();
        assert!(incr.incremental());
        let mut fresh = Session::builder(build(&WorkloadConfig::default()))
            .profile(profile)
            .attach()
            .unwrap();
        let (mut hits, mut rewalks) = (0u64, 0u64);
        for round in 0..3u64 {
            if round > 0 {
                let roots = incr.roots.clone();
                incr.stop_event(|img| {
                    ksim::tick::tick(img, &roots, round);
                })
                .unwrap();
                let roots = fresh.roots.clone();
                fresh
                    .stop_event(|img| {
                        ksim::tick::tick(img, &roots, round);
                    })
                    .unwrap();
            }
            for fig in figures::all() {
                let (g_i, s_i) = incr.extract(fig.viewcl).expect(fig.id);
                let (g_f, _) = fresh.extract(fig.viewcl).expect(fig.id);
                if g_i.to_json() != g_f.to_json() {
                    failures.push(format!("{pname}/{}/round {round}: drift", fig.id));
                }
                hits += s_i.target.vincr_hits;
                rewalks += s_i.target.vincr_rewalks;
            }
        }
        // The refresh path actually exercised both arms: a tick's dirty
        // set misses most panes (keeps) but lands on the task panes
        // (re-walks). Neither arm may be vacuous.
        assert!(hits > 0, "{pname}: no pane was ever served retained");
        assert!(rewalks > 0, "{pname}: no pane was ever re-walked");
    }
    assert!(
        failures.is_empty(),
        "incremental equivalence failures:\n{}",
        failures.join("\n")
    );
}

#[test]
fn corpus_tick_workloads_stay_byte_identical() {
    // Generated populations, not just the hand-built default workload:
    // tick the first two corpus scale rungs, comparing incremental
    // against fresh at every stop.
    for name in ["clean-100", "clean-1k"] {
        let spec = ksim::corpus::by_name(name).expect(name);
        let (builder, _) = Session::from_scenario(&spec);
        let mut incr = builder
            .profile(LatencyProfile::free())
            .cache(CacheConfig::default())
            .incremental()
            .attach()
            .unwrap();
        let (builder, _) = Session::from_scenario(&spec);
        let mut fresh = builder.profile(LatencyProfile::free()).attach().unwrap();
        let all = figures::all();
        let figs: Vec<_> = all.iter().step_by(4).collect();
        for round in 0..3u64 {
            if round > 0 {
                let roots = incr.roots.clone();
                incr.stop_event(|img| {
                    ksim::tick::tick(img, &roots, round);
                })
                .unwrap();
                let roots = fresh.roots.clone();
                fresh
                    .stop_event(|img| {
                        ksim::tick::tick(img, &roots, round);
                    })
                    .unwrap();
            }
            for fig in &figs {
                let (g_i, _) = incr.extract(fig.viewcl).expect(fig.id);
                let (g_f, _) = fresh.extract(fig.viewcl).expect(fig.id);
                assert_eq!(
                    g_i.to_json(),
                    g_f.to_json(),
                    "{name}/{}/round {round}",
                    fig.id
                );
            }
        }
    }
}

#[test]
fn unknown_dirty_degrades_to_full_rewalks() {
    // A capture recorded *without* dirty events (pre-incremental tape)
    // replayed under an incremental session: every resume reports
    // `DirtyInfo::Unknown`, so every retained pane is stale and is
    // checked by content before it re-walks. fig3-4 shows what every
    // tick changes, so the check fails at each stop and the pane
    // re-walks: reads follow the tape exactly and no stale graph is
    // ever served.
    let dir = std::env::temp_dir().join(format!("vrec-incr-unk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("plain.vrec");
    let fig = figures::by_id("fig3-4").unwrap();

    let mut rec = Session::builder(build(&WorkloadConfig::default()))
        .profile(LatencyProfile::kgdb_rpi400())
        .cache(CacheConfig::default())
        .record(&path)
        .attach()
        .unwrap();
    let mut live = Vec::new();
    for round in 0..3u64 {
        if round > 0 {
            let roots = rec.roots.clone();
            rec.stop_event(|img| {
                ksim::tick::tick(img, &roots, round);
            })
            .unwrap();
        }
        live.push(rec.extract(fig.viewcl).unwrap().0.to_json());
    }
    rec.save_recording().unwrap();

    let cap = vbridge::Capture::load(&path).unwrap();
    assert!(
        !cap.events
            .iter()
            .any(|e| matches!(e, WireEvent::Dirty { .. })),
        "a non-incremental recording must not tape dirty events"
    );
    assert_ne!(
        cap.meta.get("incremental").and_then(|v| v.as_bool()),
        Some(true)
    );

    let mut rep = Session::replay(cap).incremental().attach().unwrap();
    assert!(rep.incremental());
    let mut rewalks = 0u64;
    for (round, expected) in live.iter().enumerate() {
        if round > 0 {
            rep.resume();
        }
        let (g, s) = rep.extract(fig.viewcl).unwrap();
        assert_eq!(&g.to_json(), expected, "round {round}");
        rewalks += s.target.vincr_rewalks;
        assert_eq!(s.target.vincr_hits, 0, "unknown dirty can never keep");
        assert_eq!(s.target.dirty_bytes, 0, "unknown dirty reports no bytes");
    }
    assert_eq!(rewalks, 2, "both post-stop refreshes fell back to re-walks");
    assert_eq!(rep.replay_state().unwrap().remaining(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn incremental_capture_round_trips_with_dirty_events() {
    // An incremental recording tapes each resume's dirty ranges and
    // stamps `meta.incremental`; replay auto-follows the stamp and
    // reproduces the exact keep/re-walk sequence — graphs and stats
    // byte-identical, tape fully consumed.
    let dir = std::env::temp_dir().join(format!("vrec-incr-rt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("incr.vrec");
    // One task-heavy pane (re-walks on tick) and one that a tick's task
    // writes miss (keeps): the tape must carry both arms.
    let figs = [
        figures::by_id("fig3-4").unwrap(),
        figures::all().last().unwrap().clone(),
    ];

    let mut rec = Session::builder(build(&WorkloadConfig::default()))
        .profile(LatencyProfile::kgdb_rpi400())
        .cache(CacheConfig::default())
        .incremental()
        .record(&path)
        .attach()
        .unwrap();
    let mut live: Vec<(String, TargetStats)> = Vec::new();
    for round in 0..3u64 {
        if round > 0 {
            let roots = rec.roots.clone();
            rec.stop_event(|img| {
                ksim::tick::tick(img, &roots, round);
            })
            .unwrap();
        }
        for fig in &figs {
            let (g, s) = rec.extract(fig.viewcl).unwrap();
            live.push((g.to_json(), s.target));
        }
    }
    rec.save_recording().unwrap();

    let cap = vbridge::Capture::load(&path).unwrap();
    assert_eq!(
        cap.meta.get("incremental").and_then(|v| v.as_bool()),
        Some(true),
        "capture header records the incremental mode"
    );
    let dirty_events = cap
        .events
        .iter()
        .filter(|e| matches!(e, WireEvent::Dirty { .. }))
        .count();
    assert_eq!(dirty_events, 2, "one dirty event per recorded resume");

    let mut rep = Session::replay(cap).attach().unwrap();
    assert!(rep.incremental(), "replay follows the capture header");
    let mut replayed = live.iter();
    for round in 0..3u64 {
        if round > 0 {
            rep.resume();
        }
        for fig in &figs {
            let (g, s) = rep.extract(fig.viewcl).unwrap();
            let (g_live, s_live) = replayed.next().unwrap();
            assert_eq!(&g.to_json(), g_live, "{}/round {round}", fig.id);
            assert_eq!(
                s.target,
                TargetStats {
                    backend: vbridge::BackendKind::Replay,
                    ..*s_live
                },
                "{}/round {round}",
                fig.id
            );
        }
    }
    assert_eq!(rep.replay_state().unwrap().remaining(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_kept_pane_serves_with_zero_wire_packets() {
    // A stop whose dirty set is empty (the mutation wrote nothing)
    // invalidates no pane: the refresh serves every retained graph
    // without a single wire packet.
    let mut s = Session::builder(build(&WorkloadConfig::default()))
        .profile(LatencyProfile::kgdb_rpi400())
        .cache(CacheConfig::default())
        .incremental()
        .attach()
        .unwrap();
    let fig = figures::by_id("fig3-4").unwrap();
    let (g0, s0) = s.extract(fig.viewcl).unwrap();
    assert_eq!(s0.target.vincr_hits + s0.target.vincr_rewalks, 0);
    s.stop_event(|_img| {}).unwrap();
    let (g1, s1) = s.extract(fig.viewcl).unwrap();
    assert_eq!(g0.to_json(), g1.to_json());
    assert_eq!(s1.target.vincr_hits, 1);
    assert_eq!(s1.target.vincr_rewalks, 0);
    assert_eq!(s1.target.reads, 0, "a keep issues no wire packets");
    assert_eq!(s1.target.dirty_bytes, 0);
}

#[test]
fn a_stop_that_defines_a_symbol_rewalks_a_pane_its_dirty_set_missed() {
    // The walk renders the unknown symbol as an error text and succeeds;
    // the stop writes no byte, but defines the symbol, so a walk now
    // shows its value. A dirty-set keep would serve the error.
    let src = "define T as Box<task_struct> [\n    Text pid\n    Text late: ${late_symbol}\n]\n\
               t = T(${&init_task})\nplot @t\n";
    let define = |img: &mut ksim::KernelImage| {
        let task = img.types.find("task_struct").expect("task_struct");
        let addr = img.symbols.lookup("init_task").expect("init_task").addr;
        img.symbols.define_object("late_symbol", addr, task);
    };
    for cached in [false, true] {
        let b = Session::builder(build(&WorkloadConfig::default())).incremental();
        let mut s = if cached {
            b.cache(CacheConfig::default())
        } else {
            b
        }
        .attach()
        .unwrap();
        let (before, _) = s.extract(src).unwrap();
        assert!(before.to_json().contains("unknown identifier"));
        s.stop_event(define).unwrap();
        let (after, stats) = s.extract(src).unwrap();
        let mut fresh = Session::builder(build(&WorkloadConfig::default()))
            .attach()
            .unwrap();
        fresh.stop_event(define).unwrap();
        let (want, _) = fresh.extract(src).unwrap();
        assert_eq!(after.to_json(), want.to_json(), "cached: {cached}");
        assert_eq!(
            (stats.target.vincr_hits, stats.target.vincr_rewalks),
            (0, 1)
        );
    }
}
