//! Fleet behavior: keyed routing over a transport, cross-session cache
//! sharing, mixed live/replay equivalence, and stats reconciliation.

mod common;

use common::{fig_sources, record_capture, serve_round};
use ksim::workload::WorkloadConfig;
use vbridge::LatencyProfile;
use vfleet::{Fleet, FleetConfig, FleetError, FleetRouter};
use visualinux::proto::{VCommand, VResponse};
use visualinux::SessionSpec;
use vserve::{byte_pair, Replica, WireClient, WireConfig, WirePump};

const FIGS: usize = 5;
const ROUNDS: u64 = 2;

#[test]
fn identical_replay_sessions_share_walks_across_engines() {
    let figs = fig_sources(FIGS);
    let cap = record_capture(&figs, ROUNDS);
    let fleet = Fleet::new(FleetConfig::default());
    fleet
        .add_session("a", SessionSpec::replay(cap.clone()))
        .unwrap();
    fleet.add_session("b", SessionSpec::replay(cap)).unwrap();
    assert_eq!(
        fleet.add_session(
            "b",
            SessionSpec::live(WorkloadConfig::default(), LatencyProfile::free())
        ),
        Err(FleetError::DuplicateSession("b".into()))
    );

    let ca = fleet.connect("a").unwrap();
    let cb = fleet.connect("b").unwrap();
    let (mut ra, mut rb) = (Replica::new(), Replica::new());
    for round in 0..=ROUNDS {
        if round > 0 {
            fleet.tick_all(round).unwrap();
        }
        // Engine a always serves first, so engine b's identical request
        // stream is answered entirely from the share group.
        let ga = serve_round(&ca, &mut ra, &figs);
        let gb = serve_round(&cb, &mut rb, &figs);
        assert_eq!(ga, gb, "round {round}: engines diverged");
    }
    drop(ca);
    drop(cb);

    let stats = fleet.shutdown();
    stats.reconcile().expect("fleet books balance");
    let served = (FIGS as u64) * (ROUNDS + 1);
    assert_eq!(stats.engine.walks, served, "engine a walks everything");
    assert_eq!(
        stats.engine.shared_hits, served,
        "engine b serves everything from the share group"
    );
    assert_eq!(stats.cache.hits, served);
    assert_eq!(stats.cache.published, served);
    assert_eq!(stats.cache.duplicates, 0);
    assert_eq!(
        stats.engine.diffs,
        (FIGS as u64) * ROUNDS,
        "one diff per source and generation step, fleet-wide: engine b diffs none"
    );
    assert_eq!(stats.spawns, 2);
    assert_eq!(stats.respawns, 0);
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.attaches, 2);
}

#[test]
fn mixed_live_and_replay_sessions_serve_identical_graphs() {
    let figs = fig_sources(3);
    let cap = record_capture(&figs, 1);
    let fleet = Fleet::new(FleetConfig::default());
    fleet.add_session("tape", SessionSpec::replay(cap)).unwrap();
    fleet
        .add_session(
            "live",
            SessionSpec::live(WorkloadConfig::default(), LatencyProfile::free()),
        )
        .unwrap();

    let ct = fleet.connect("tape").unwrap();
    let cl = fleet.connect("live").unwrap();
    let (mut rt, mut rl) = (Replica::new(), Replica::new());
    for round in 0..=1 {
        if round > 0 {
            fleet.tick_all(round).unwrap();
        }
        let gt = serve_round(&ct, &mut rt, &figs);
        let gl = serve_round(&cl, &mut rl, &figs);
        assert_eq!(gt, gl, "round {round}: live and replay diverged");
    }
    drop(ct);
    drop(cl);

    let stats = fleet.shutdown();
    stats.reconcile().expect("fleet books balance");
    // Different spec fingerprints → different share groups → no hits.
    assert_eq!(stats.engine.shared_hits, 0);
    assert_eq!(stats.engine.walks, 3 * 2 * 2);
}

#[test]
fn vattach_routes_by_key_and_rejects_malformed_frames() {
    let figs = fig_sources(2);
    let cap = record_capture(&figs, 0);
    let fleet = std::sync::Arc::new(Fleet::new(FleetConfig::default()));
    fleet.add_session("s1", SessionSpec::replay(cap)).unwrap();

    let pump = WirePump::new(
        Box::new(FleetRouter::new(fleet.clone())),
        WireConfig::default(),
    );
    let ph = pump.handle();
    let pump_thread = std::thread::spawn(move || pump.run());
    let (client_io, server_io) = byte_pair(64);
    ph.add(Box::new(server_io)).unwrap();
    // The fleet endpoint negotiates the binary framing like any other:
    // routing frames travel length-prefixed after the hello/accept.
    let mut client = WireClient::binary(Box::new(client_io)).unwrap();

    let mut ask = |line: String| -> String {
        client.send_payload(&line).unwrap();
        client.recv().unwrap().expect("response")
    };
    // Malformed routing frame: not JSON.
    let r = ask("{ not json".into());
    assert!(r.contains("unparseable routing frame"), "{r}");
    // Out-of-order: a protocol command before any attach.
    let r = ask(VCommand::VplotRequest {
        viewcl: figs[0].clone(),
    }
    .to_json());
    assert!(r.contains("expected a vattach routing frame first"), "{r}");
    // Missing session key field.
    let r = ask("{\"command\":\"vattach\"}".into());
    assert!(r.contains("unparseable routing frame"), "{r}");
    // Unknown session key.
    let r = ask("{\"command\":\"vattach\",\"session\":\"nope\"}".into());
    assert!(r.contains("unknown session `nope`"), "{r}");
    // A well-formed attach finally routes...
    let r = ask(VCommand::Vattach {
        session: "s1".into(),
    }
    .to_json());
    assert!(matches!(
        VResponse::from_json(&r).unwrap(),
        VResponse::Ok { .. }
    ));
    // ...and the connection speaks the ordinary serve protocol.
    let r = ask(VCommand::VplotRequest {
        viewcl: figs[0].clone(),
    }
    .to_json());
    assert!(r.contains("\"command\":\"vplot\""), "{r}");
    // A duplicate attach is now an in-stream command: the engine answers
    // (single-session error), the route does not change.
    let r = ask(VCommand::Vattach {
        session: "s1".into(),
    }
    .to_json());
    assert!(r.contains("already routed"), "{r}");
    let r = ask(VCommand::VplotRequest {
        viewcl: figs[1].clone(),
    }
    .to_json());
    assert!(r.contains("\"command\":\"vplot\""), "{r}");

    drop(client);
    ph.shutdown();
    let wire = pump_thread.join().unwrap();
    wire.reconcile().expect("wire books balance");
    assert_eq!(wire.accepted, 1);
    assert_eq!(wire.hello_binary, 1);
    assert_eq!(wire.routing_retries, 4);
    let stats = fleet.shutdown();
    stats.reconcile().expect("fleet books balance");
    assert_eq!(
        stats.routing_errors, 4,
        "pre-attach rejections are routing errors: {stats:?}"
    );
    assert_eq!(stats.attaches, 1);
    // The duplicate vattach and the two plots reached the engine.
    assert_eq!(stats.engine.requests, 3);
    assert_eq!(stats.engine.errors, 1);
}

#[test]
fn a_failed_walk_releases_its_claim_on_the_key() {
    let spec = || SessionSpec::live(WorkloadConfig::default(), LatencyProfile::free());
    let fleet = Fleet::new(FleetConfig::default());
    fleet.add_session("a", spec()).unwrap();
    fleet.add_session("b", spec()).unwrap();
    let (ca, cb) = (fleet.connect("a").unwrap(), fleet.connect("b").unwrap());
    let bad = VCommand::VplotRequest {
        viewcl: "define Broken as Box<task_struct> [".into(),
    };
    // A walk that fails publishes nothing; a claim it kept would hold
    // every later lookup of the key, here and in the sibling, for the
    // cache's whole walk wait.
    let t0 = std::time::Instant::now();
    for conn in [&ca, &ca, &ca, &ca, &ca, &cb] {
        conn.send(&bad).unwrap();
        let reply = conn.recv().expect("reply");
        assert!(
            matches!(VResponse::from_json(&reply), Ok(VResponse::Err { .. })),
            "{reply}"
        );
    }
    let took = t0.elapsed();
    assert!(took < std::time::Duration::from_secs(1), "{took:?}");
    drop(ca);
    drop(cb);
    let stats = fleet.shutdown();
    stats.reconcile().expect("fleet books balance");
    assert_eq!((stats.engine.errors, stats.engine.walks), (6, 0));
    assert_eq!(stats.cache.misses, 6);
}
