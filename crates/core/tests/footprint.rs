//! Footprint replay: a cached session fetches, on a pane's first walk
//! after a resume, the cache blocks that pane's last walk used, in
//! merged spans, before the unchanged interpreter runs. It moves cost
//! and nothing else:
//!
//! * after a tick stop, the 21 figures walk to byte-identical graphs
//!   as a fresh session attached to the same state, for at least 25%
//!   less link time and 40% fewer packets in all, and no figure costs
//!   more than its walk in the fresh session;
//! * a recorded cached session with three stops replays bit for bit;
//! * a walk that fails leaves the previous footprint in place.
//!
//! Run with `--nocapture` to print the per-figure table.

use ksim::workload::{build, WorkloadConfig};
use vbridge::{CacheConfig, LatencyProfile, TargetStats};
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
