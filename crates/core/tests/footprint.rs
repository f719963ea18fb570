//! Footprint replay: a cached session fetches, on a pane's first walk
//! after a resume, the cache blocks that pane's last walk used, in
//! merged spans, then compares the bytes that walk was served with what
//! arrived, and keeps the pane when they are equal. It moves cost and
//! nothing else:
//!
//! * after a tick stop, the 21 figures come back byte-identical to a
//!   fresh session attached to the same state, for at least 25% less
//!   link time and 40% fewer packets in all, and no figure costs more
//!   than its walk in the fresh session;
//! * over 20 tick stops, every graph matches an uncached session that
//!   takes the same stops (and never keeps), at least 19 of 21 panes
//!   are handed out as their retained allocation at every stop, and a
//!   walk of a kept pane within its stop sends no packet, so a keep
//!   moved none;
//! * a byte a pane read, rewritten with its own value, keeps the pane,
//!   and changed, re-walks it, as does a stop that defines a symbol;
//! * a walk that faulted is never kept;
//! * a recorded cached session with three stops replays bit for bit;
//! * a walk that fails leaves the previous footprint in place.
//!
//! Run with `--nocapture` to print the per-figure table.

use std::sync::Arc;

use ksim::workload::{build, WorkloadConfig};
use vbridge::{CacheConfig, LatencyProfile, TargetStats};
use vgraph::Graph;
use visualinux::{figures, Session};

fn cached(cfg: &WorkloadConfig) -> Session {
    Session::builder(build(cfg))
        .profile(LatencyProfile::kgdb_rpi400())
        .cache(CacheConfig::default())
        .attach()
        .expect("live attach")
}

/// Take the stop a scheduler tick of `step` makes.
fn tick(session: &mut Session, step: u64) {
    let roots = session.roots.clone();
    session
        .stop_event(|img| {
            ksim::tick::tick(img, &roots, step);
        })
        .expect("a live session takes stop events");
}

/// Walk every figure in library order: (id, graph JSON, wire stats).
fn walk_all(session: &Session) -> Vec<(&'static str, String, TargetStats)> {
    figures::all()
        .iter()
        .map(|fig| {
            let (graph, stats) = session.extract(fig.viewcl).expect(fig.id);
            (fig.id, graph.to_json(), stats.target)
        })
        .collect()
}

#[test]
fn post_stop_walks_match_a_fresh_session_for_much_less_link_time() {
    for seed in [1u64, 42] {
        let cfg = WorkloadConfig {
            seed,
            ..WorkloadConfig::default()
        };
        let mut session = cached(&cfg);
        walk_all(&session);
        tick(&mut session, 1);
        let after = walk_all(&session);
        // The same post-tick state, attached afresh: every figure's
        // first walk, with nothing to replay.
        let mut fresh = cached(&cfg);
        tick(&mut fresh, 1);
        let cold = walk_all(&fresh);

        println!("seed {seed}: figure | fresh ms pkts | footprint ms pkts");
        let ms = |s: &TargetStats| s.virtual_ns as f64 / 1e6;
        let (mut ns, mut cold_ns, mut pkts, mut cold_pkts) = (0, 0, 0, 0);
        for ((id, graph, s), (_, cold_graph, c)) in after.iter().zip(&cold) {
            println!(
                "  {id:<10} | {:>8.1} {:>4} | {:>8.1} {:>4}",
                ms(c),
                c.reads,
                ms(s),
                s.reads
            );
            assert_eq!(
                graph, cold_graph,
                "seed {seed}: {id} drifts from a fresh walk"
            );
            assert!(
                s.virtual_ns <= c.virtual_ns,
                "seed {seed}: {id} costs {} ms after the stop, {} ms in a fresh session",
                ms(s),
                ms(c)
            );
            ns += s.virtual_ns;
            cold_ns += c.virtual_ns;
            pkts += s.reads;
            cold_pkts += c.reads;
        }
        println!(
            "  total      | {:>8.1} {cold_pkts:>4} | {:>8.1} {pkts:>4}",
            cold_ns as f64 / 1e6,
            ns as f64 / 1e6
        );
        assert!(
            ns * 4 <= cold_ns * 3,
            "seed {seed}: link time {ns} ns is not 25% under the fresh {cold_ns} ns"
        );
        assert!(
            pkts * 5 <= cold_pkts * 3,
            "seed {seed}: {pkts} packets are not 40% under the fresh {cold_pkts}"
        );
    }
}

#[test]
fn twenty_tick_stops_keep_the_panes_whose_bytes_held() {
    for seed in [1u64, 42] {
        let cfg = WorkloadConfig {
            seed,
            ..WorkloadConfig::default()
        };
        let mut session = cached(&cfg);
        let mut uncached = Session::builder(build(&cfg))
            .profile(LatencyProfile::kgdb_rpi400())
            .attach()
            .expect("live attach");
        let mut last: Vec<Arc<Graph>> = figures::all()
            .iter()
            .map(|fig| session.extract_shared(fig.viewcl).expect(fig.id).0)
            .collect();
        for step in 1..=20 {
            tick(&mut session, step);
            tick(&mut uncached, step);
            let (mut kept, mut packets) = (0, 0);
            for (fig, before) in figures::all().iter().zip(&mut last) {
                let (graph, stats) = session.extract_shared(fig.viewcl).expect(fig.id);
                let (want, ustats) = uncached.extract(fig.viewcl).expect(fig.id);
                assert_eq!(
                    ustats.target.vincr_hits, 0,
                    "an uncached session never keeps"
                );
                let at = format!("seed {seed}, stop {step}: {}", fig.id);
                assert_eq!(graph.to_json(), want.to_json(), "{at}");
                packets += stats.target.reads;
                let same = Arc::ptr_eq(&graph, before);
                assert_eq!(same, stats.target.vincr_hits == 1, "{at}");
                *before = graph;
                if same {
                    kept += 1;
                    // The walk the keep saved finds every block the
                    // replay fetched: skipping it moved no packet.
                    let (graph, again) = session.extract_shared(fig.viewcl).expect(fig.id);
                    assert_eq!(again.target.vincr_hits, 0, "a repeat within a stop walks");
                    assert_eq!(again.target.reads, 0, "{at}");
                    *before = graph;
                }
            }
            println!("seed {seed}, stop {step}: {kept} of 21 kept, {packets} packets");
            assert!(kept >= 19, "seed {seed}, stop {step}: {kept} of 21 kept");
        }
    }
}

#[test]
fn a_pane_is_kept_while_its_bytes_and_tables_hold() {
    let cfg = WorkloadConfig::default();
    let mut session = cached(&cfg);
    let mut uncached = Session::builder(build(&cfg)).attach().expect("live attach");
    let fig = figures::by_id("fig3-4").expect("figure");
    // The first byte of init_task's name, which the process tree shows.
    let comm = {
        let types = &session.image().types;
        let task = types.find("task_struct").expect("task_struct");
        session.roots.init_task + types.field_path(task, "comm").expect("comm").0
    };
    let byte = {
        let mut b = [0u8];
        session.image().mem.read(comm, &mut b).expect("mapped");
        b[0]
    };
    let (first, _) = session.extract_shared(fig.viewcl).unwrap();
    let mut stop = |session: &mut Session, mutate: &dyn Fn(&mut ksim::KernelImage)| {
        for s in [&mut *session, &mut uncached] {
            s.stop_event(mutate).unwrap();
        }
        let (graph, stats) = session.extract_shared(fig.viewcl).unwrap();
        let (want, _) = uncached.extract(fig.viewcl).unwrap();
        assert_eq!(graph.to_json(), want.to_json());
        (graph, stats.target)
    };
    let (same, stats) = stop(&mut session, &|img| img.mem.write(comm, &[byte]));
    assert!(Arc::ptr_eq(&first, &same), "rewritten with its own value");
    assert_eq!((stats.vincr_hits, stats.vincr_rewalks), (1, 0));
    let (changed, stats) = stop(&mut session, &|img| img.mem.write(comm, &[byte ^ 0x20]));
    assert!(!Arc::ptr_eq(&same, &changed), "changed");
    assert_eq!((stats.vincr_hits, stats.vincr_rewalks), (0, 1));
    assert_ne!(first.to_json(), changed.to_json());
    // A stop that defines a symbol leaves every byte as it was, but the
    // walk ran under another symbol table: the pane is walked again.
    let (again, stats) = stop(&mut session, &|img| {
        let task = img.types.find("task_struct").expect("task_struct");
        img.symbols.define_object("a_new_symbol", comm, task);
    });
    assert!(!Arc::ptr_eq(&changed, &again), "a new symbol table");
    assert_eq!((stats.vincr_hits, stats.vincr_rewalks), (0, 1));
}

#[test]
fn a_walk_that_faulted_is_never_kept() {
    let spec = ksim::corpus::by_name("cve-2023-3269-stackrot").expect("a corpus scenario");
    let attach = || {
        let (builder, _) = Session::from_scenario(&spec);
        builder.profile(LatencyProfile::kgdb_rpi400())
    };
    let mut session = attach()
        .cache(CacheConfig::default())
        .attach()
        .expect("live attach");
    let mut uncached = attach().attach().expect("live attach");
    // fig9-2's walk faults on the dangling maple node and plots a
    // diagnostic. Each figure's last graph and whether its walk
    // faulted; a figure whose walk fails outright on this image is
    // compared as an error.
    let mut last: Vec<Option<(Arc<Graph>, bool)>> = vec![None; figures::all().len()];
    let (mut faulted, mut kept) = (0, 0);
    for step in 0..=3 {
        if step > 0 {
            tick(&mut session, step);
            tick(&mut uncached, step);
        }
        for (fig, last) in figures::all().iter().zip(&mut last) {
            let at = format!("stop {step}: {}", fig.id);
            let (graph, stats) = match session.extract_shared(fig.viewcl) {
                Ok(walk) => walk,
                Err(e) => {
                    let want = uncached.extract(fig.viewcl).expect_err(&at);
                    assert_eq!(e.to_string(), want.to_string(), "{at}");
                    continue;
                }
            };
            let (want, _) = uncached.extract(fig.viewcl).expect(&at);
            assert_eq!(graph.to_json(), want.to_json(), "{at}");
            if let Some((before, true)) = last.as_ref() {
                // A pane walked with a fault is walked again.
                faulted += 1;
                assert!(!Arc::ptr_eq(before, &graph), "{at} kept");
                assert_eq!(stats.target.vincr_hits, 0, "{at} kept");
            }
            kept += stats.target.vincr_hits;
            *last = Some((graph, stats.target.faults > 0));
        }
    }
    assert!(faulted > 0, "no walk faulted");
    assert!(kept > 0, "no walk was kept");
}

#[test]
fn a_recorded_cached_session_with_three_stops_replays_bit_for_bit() {
    let cfg = WorkloadConfig {
        seed: 42,
        ..WorkloadConfig::default()
    };
    let mut live = Session::builder(build(&cfg))
        .profile(LatencyProfile::kgdb_rpi400())
        .cache(CacheConfig::default())
        .record(std::env::temp_dir().join("footprint-never-saved.vrec"))
        .attach()
        .expect("live attach");
    let mut recorded = vec![walk_all(&live)];
    for step in 1..=3 {
        tick(&mut live, step);
        recorded.push(walk_all(&live));
    }
    let first: u64 = recorded[0].iter().map(|(_, _, s)| s.reads).sum();
    let last: u64 = recorded[3].iter().map(|(_, _, s)| s.reads).sum();
    assert!(
        last < first,
        "footprints fired: {last} packets vs {first} cold"
    );

    let capture = live.capture().expect("the session records");
    let mut replay = Session::replay(capture).attach().expect("replay attach");
    for (round, walks) in recorded.iter().enumerate() {
        if round > 0 {
            replay.resume();
        }
        for ((id, graph, stats), (_, rgraph, rstats)) in walks.iter().zip(walk_all(&replay)) {
            assert_eq!(graph, &rgraph, "round {round}: {id} graph");
            assert_eq!(
                (stats.reads, stats.bytes, stats.virtual_ns),
                (rstats.reads, rstats.bytes, rstats.virtual_ns),
                "round {round}: {id} wire cost"
            );
        }
    }
    let state = replay.replay_state().expect("a replay session");
    assert_eq!(state.remaining(), 0, "every recorded event replayed");
    assert!(state.poisoned().is_none());
}

/// Divides by `init_task.prio` before walking the task list, so the
/// walk fails, having read one block, while `prio` is 0.
const FRAGILE: &str = r#"
define Task as Box<task_struct> [
    Text pid
    Text<string> comm
]
q = ${1000 / init_task.prio}
tasks = List(${&init_task.tasks}).forEach |n| {
    yield Task<task_struct.tasks>(@n)
}
plot @tasks
"#;

#[test]
fn a_walk_that_fails_leaves_the_previous_footprint_in_place() {
    let cfg = WorkloadConfig::default();
    let set_prio = |session: &mut Session, prio: u64| {
        let init = session.roots.init_task;
        session
            .stop_event(|img| {
                let task = img.types.find("task_struct").expect("task_struct");
                let (off, _) = img.types.field_path(task, "prio").expect("prio");
                img.mem.write_uint(init + off, 4, prio);
            })
            .expect("a live session takes stop events");
    };
    // Walk, fail one walk at a stop, then walk again at the next stop.
    let mut failing = cached(&cfg);
    let (g1, _) = failing.extract(FRAGILE).expect("prio is set");
    set_prio(&mut failing, 0);
    assert!(failing.extract(FRAGILE).is_err(), "division by zero");
    set_prio(&mut failing, 120);
    let (g3, s3) = failing.extract(FRAGILE).expect("prio is set again");
    assert_eq!(g1.to_json(), g3.to_json());

    // The same stops with no failed walk in between.
    let mut control = cached(&cfg);
    control.extract(FRAGILE).expect("prio is set");
    set_prio(&mut control, 0);
    set_prio(&mut control, 120);
    let (_, c3) = control.extract(FRAGILE).expect("prio is set again");
    assert_eq!(s3.target, c3.target, "the first walk's footprint replayed");

    // And the replay is what saved the packets.
    let mut fresh = cached(&cfg);
    set_prio(&mut fresh, 120);
    let (_, cold) = fresh.extract(FRAGILE).expect("prio is set");
    assert!(
        s3.target.reads < cold.target.reads,
        "{} packets after the failed walk, {} cold",
        s3.target.reads,
        cold.target.reads
    );
}
