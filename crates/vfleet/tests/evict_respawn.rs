//! Eviction/respawn determinism: evict a session, tick it or not while
//! it is dormant, respawn it from its spec + journal, and the re-served
//! pane graphs must be byte-identical to an uninterrupted run. A replay
//! session re-enacts the walks it served before the eviction; a live
//! one re-applies its stops and walks nothing it does not serve.

mod common;

use std::sync::Arc;

use common::{fig_sources, record_capture, record_schedule, serve_round};
use ksim::workload::WorkloadConfig;
use vbridge::LatencyProfile;
use vfleet::{Fleet, FleetConfig, FleetError, FleetStats};
use visualinux::proto::VCommand;
use visualinux::{figures, SessionSpec};
use vserve::Replica;

const FIGS: usize = 6;
const ROUNDS: u64 = 2;
/// How far into round 0 the interrupted run gets before eviction.
const CUT: usize = 3;

#[test]
fn evicted_replay_session_respawns_bit_identically() {
    let figs = fig_sources(FIGS);
    let cap = record_capture(&figs, ROUNDS);

    // Reference: one fleet, one engine, never interrupted.
    let reference = {
        let fleet = Fleet::new(FleetConfig::default());
        fleet
            .add_session("r", SessionSpec::replay(cap.clone()))
            .unwrap();
        let conn = fleet.connect("r").unwrap();
        let mut rep = Replica::new();
        let mut rounds = Vec::new();
        for round in 0..=ROUNDS {
            if round > 0 {
                fleet.tick_all(round).unwrap();
            }
            rounds.push(serve_round(&conn, &mut rep, &figs));
        }
        drop(conn);
        let stats = fleet.shutdown();
        stats.reconcile().expect("reference books balance");
        assert_eq!(stats.respawns, 0);
        rounds
    };

    // Interrupted: budget of one resident engine, plus a decoy live
    // session whose arrival forces the replay engine out mid-corpus.
    let fleet = Fleet::new(FleetConfig {
        max_resident: 1,
        ..FleetConfig::default()
    });
    fleet.add_session("r", SessionSpec::replay(cap)).unwrap();
    fleet
        .add_session(
            "decoy",
            SessionSpec::live(WorkloadConfig::default(), LatencyProfile::free()),
        )
        .unwrap();

    let mut served: Vec<Vec<vgraph::Graph>> = Vec::new();
    let mut round0 = Vec::new();
    {
        let conn = fleet.connect("r").unwrap();
        let mut rep = Replica::new();
        round0.extend(serve_round(&conn, &mut rep, &figs[..CUT]));
    } // connection dropped: the engine is idle and evictable

    // The decoy displaces the replay engine under the budget of one.
    assert!(fleet.is_resident("r"));
    let dconn = fleet.connect("decoy").unwrap();
    assert!(!fleet.is_resident("r"), "replay engine was not evicted");
    dconn
        .send(&VCommand::VplotRequest {
            viewcl: figs[0].clone(),
        })
        .unwrap();
    dconn.recv().expect("decoy serves");
    drop(dconn);

    // Reconnect: the session respawns from capture + journal. The new
    // engine re-enacts the first incarnation's walks lazily, so the tape
    // continues exactly where the eviction cut it off.
    let conn = fleet.connect("r").unwrap();
    assert!(fleet.is_resident("r"));
    let mut rep = Replica::new();
    round0.extend(serve_round(&conn, &mut rep, &figs[CUT..]));
    served.push(round0);
    for round in 1..=ROUNDS {
        fleet.tick_all(round).unwrap();
        served.push(serve_round(&conn, &mut rep, &figs));
    }
    drop(conn);

    let stats = fleet.shutdown();
    stats.reconcile().expect("interrupted books balance");
    assert_eq!(stats.respawns, 1, "{stats:?}");
    // Two evictions: the replay engine (displaced by the decoy), then
    // the decoy (displaced right back by the reconnect).
    assert_eq!(stats.evictions, 2, "{stats:?}");
    assert_eq!(
        stats.engine.catchup_walks, CUT as u64,
        "the respawned engine re-enacts exactly the pre-eviction walks: {stats:?}"
    );

    // Graph-for-graph, the interrupted run served the same panes.
    assert_eq!(reference.len(), served.len());
    for (round, (want, got)) in reference.iter().zip(&served).enumerate() {
        for (i, (w, g)) in want.iter().zip(got).enumerate() {
            assert_eq!(w, g, "round {round}, figure {i} diverged after respawn");
        }
    }

    // The journal survives the respawn with full history: a *second*
    // eviction would still re-enact every extraction, and every stop.
    let journal = fleet.journal("r");
    let served = journal.iter().flatten().count();
    assert_eq!(served, FIGS * (ROUNDS as usize + 1));
    assert_eq!(journal.len() - served, ROUNDS as usize);
}

/// What one run of a schedule served and left behind.
struct Run {
    served: Vec<Vec<vgraph::Graph>>,
    stats: FleetStats,
    journal: Vec<Option<Arc<str>>>,
}

/// Serve `schedule[n]` to one session in generation `n` (tick `n` ends
/// generation `n - 1`), connecting for every round that requests
/// anything, and evict the session after round `evict_after` when
/// given: ticks find it dormant until a round connects again.
fn run_schedule(spec: SessionSpec, schedule: &[&[String]], evict_after: Option<usize>) -> Run {
    let fleet = Fleet::new(FleetConfig::default());
    fleet.add_session("s", spec).unwrap();
    let mut rep = Replica::new();
    let mut served = Vec::new();
    for (round, figs) in schedule.iter().enumerate() {
        if round > 0 {
            fleet.tick("s", round as u64).unwrap();
        }
        if !figs.is_empty() {
            let conn = fleet.connect("s").unwrap();
            served.push(serve_round(&conn, &mut rep, figs));
        }
        if evict_after == Some(round) {
            assert!(fleet.evict("s"), "an idle engine is evictable");
            assert!(!fleet.is_resident("s"));
        }
    }
    let stats = fleet.shutdown();
    stats.reconcile().expect("books balance");
    Run {
        served,
        stats,
        journal: fleet.journal("s"),
    }
}

#[test]
fn a_replay_session_ticked_while_dormant_respawns_bit_identically() {
    let figs = fig_sources(FIGS);
    // Round 0 ends after CUT figures: the session is evicted mid-corpus,
    // and the tick that ends the round lands on it while it is dormant.
    let schedule = [&figs[..CUT], &figs[..], &figs[..]];
    let cap = record_schedule(&schedule);
    let spec = || SessionSpec::replay(cap.clone());
    let reference = run_schedule(spec(), &schedule, None);
    let run = run_schedule(spec(), &schedule, Some(0));
    let (want, stats) = (&reference.stats, &run.stats);
    assert_eq!((want.respawns, want.engine.catchup_walks), (0, 0));
    assert_eq!(stats.respawns, 1, "{stats:?}");
    assert_eq!(
        stats.engine.catchup_walks, CUT as u64,
        "the respawn re-enacts exactly the walks before the eviction: {stats:?}"
    );
    assert_eq!(
        reference.served, run.served,
        "the respawn served other graphs"
    );
    // Every stop and every served extraction, in arrival order.
    let mut order = vec![false; CUT];
    for _ in 1..schedule.len() {
        order.push(true);
        order.extend([false; FIGS]);
    }
    let stops: Vec<bool> = run.journal.iter().map(Option::is_none).collect();
    assert_eq!(stops, order);
}

#[test]
fn a_live_session_respawns_from_its_stops_alone() {
    const STOPS: usize = 50;
    const DORMANT: usize = 3;
    let figs = fig_sources(figures::all().len());
    // 51 rounds of all 21 figures, an eviction, three ticks with
    // nothing requested, then a tick and one more round: four ticks
    // while dormant.
    let mut schedule = vec![&figs[..]; STOPS + 1];
    schedule.extend(vec![&figs[..0]; DORMANT]);
    schedule.push(&figs[..]);
    let spec = || SessionSpec::live(WorkloadConfig::default(), LatencyProfile::free());
    let reference = run_schedule(spec(), &schedule, None);
    let run = run_schedule(spec(), &schedule, Some(STOPS));
    let stats = &run.stats;
    assert_eq!(reference.stats.respawns, 0);
    assert_eq!(stats.respawns, 1, "{stats:?}");
    assert_eq!(
        reference.served, run.served,
        "the respawn served other graphs"
    );
    // The respawn applies its stops and walks only what it serves.
    assert_eq!(stats.engine.catchup_walks, 0, "{stats:?}");
    assert_eq!(stats.engine.walks, reference.stats.engine.walks);
    assert_eq!(run.journal.len(), STOPS + DORMANT + 1);
    assert!(
        run.journal.iter().all(Option::is_none),
        "a live journal holds stops only"
    );
}

#[test]
fn a_failed_spawn_keeps_the_journal() {
    let mut cap = record_capture(&fig_sources(1), 0);
    // Without its workload config a capture cannot rebuild a session
    // (a missing key indexes to null).
    cap.meta = cap.meta["missing"].clone();
    let fleet = Fleet::new(FleetConfig::default());
    fleet.add_session("s", SessionSpec::replay(cap)).unwrap();
    fleet.tick("s", 1).unwrap();
    fleet.tick("s", 2).unwrap();
    for _ in 0..2 {
        assert!(matches!(fleet.connect("s"), Err(FleetError::Spawn(_))));
        assert_eq!(fleet.journal("s"), [None, None]);
    }
}
