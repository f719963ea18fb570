//! Eviction/respawn determinism: evict a replay session mid-corpus,
//! respawn it from its capture + journal, and the re-served pane graphs
//! must be byte-identical to an uninterrupted run.

mod common;

use common::{fig_sources, record_capture, serve_round};
use ksim::workload::WorkloadConfig;
use vbridge::LatencyProfile;
use vfleet::{Fleet, FleetConfig};
use visualinux::proto::VCommand;
use visualinux::SessionSpec;
use vserve::{Replica, SendMode};

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
        .send(
            &VCommand::VplotRequest {
                viewcl: figs[0].clone(),
            },
            SendMode::Blocking,
        )
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
    // eviction would still re-enact everything.
    let journal = fleet.journal("r");
    assert_eq!(journal.len(), FIGS * (ROUNDS as usize + 1));
}
