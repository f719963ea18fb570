//! Framing transparency: the binary wire is a pure encoding change.
//! Every library figure must come back *byte-identical* over the
//! length-prefixed binary framing, the legacy newline-JSON framing, and
//! a direct in-process connection — full plots and deltas, under both a
//! free and a gdb-over-QEMU latency profile — because framing sits
//! strictly below the `VCommand` layer. A version-skewed handshake
//! against the same live pump must fail loudly, naming both versions.

use std::thread;

use ksim::workload::{build, WorkloadConfig};
use vbridge::{CacheConfig, LatencyProfile};
use visualinux::proto::{VCommand, VERSION};
use visualinux::{figures, Session};
use vserve::{
    byte_pair, SendMode, ServeConfig, Server, SingleSession, WireClient, WireConfig, WirePump,
};

fn serve_profile(profile: LatencyProfile, rounds: u64) {
    // The session is single-threaded by design: build it on the engine
    // thread and pass the control handle back.
    let (tx, rx) = std::sync::mpsc::channel();
    let engine = thread::spawn(move || {
        let session = Session::builder(build(&WorkloadConfig::default()))
            .profile(profile)
            .cache(CacheConfig::default())
            .attach()
            .unwrap();
        let mut server = Server::new(
            session,
            ServeConfig {
                exit_when_idle: false,
                ..ServeConfig::default()
            },
        );
        tx.send(server.handle()).unwrap();
        server.run();
        server.stats()
    });
    let handle = rx.recv().unwrap();

    let pump = WirePump::new(
        Box::new(SingleSession::new(handle.clone())),
        WireConfig::default(),
    );
    let ph = pump.handle();
    let pump_thread = thread::spawn(move || pump.run());

    let (bin_io, srv_io) = byte_pair(64);
    ph.add(Box::new(srv_io)).unwrap();
    let mut binary = WireClient::binary(Box::new(bin_io)).unwrap();
    assert_eq!(binary.framing_name(), "binary");
    let (line_io, srv_io) = byte_pair(64);
    ph.add(Box::new(srv_io)).unwrap();
    let mut lines = WireClient::lines(Box::new(line_io));
    // Ground truth: a wire-less in-process connection to the same
    // engine, sharing the same coalescing memo and delta state machine.
    let direct = handle.connect();

    // A peer announcing the wrong protocol revision is turned away at
    // the door of the very same pump, with both versions named.
    let (skew_io, srv_io) = byte_pair(64);
    ph.add(Box::new(srv_io)).unwrap();
    let err = WireClient::binary_with_version(Box::new(skew_io), VERSION + 1)
        .err()
        .expect("skewed handshake must not connect");
    let msg = err.to_string();
    assert!(msg.contains(&format!("v{VERSION}")), "{msg}");
    assert!(msg.contains(&format!("v{}", VERSION + 1)), "{msg}");

    let figs = figures::all();
    let (_, _, roots) = build(&WorkloadConfig::default()).finish();
    for round in 0..=rounds {
        if round > 0 {
            let roots = roots.clone();
            handle
                .stop_event(move |img| {
                    ksim::tick::tick(img, &roots, round);
                })
                .unwrap();
        }
        for fig in &figs {
            let request = VCommand::VplotRequest {
                viewcl: fig.viewcl.to_string(),
            };
            binary.send(&request).unwrap();
            lines.send(&request).unwrap();
            direct.send(&request, SendMode::Blocking).unwrap();
            let over_binary = binary.recv().unwrap().expect("binary reply");
            let over_lines = lines.recv().unwrap().expect("lines reply");
            let wireless = direct.recv().expect("direct reply");
            assert_eq!(
                over_binary, over_lines,
                "{}: round {round}: binary and lines framing diverged",
                fig.id
            );
            assert_eq!(
                over_binary, wireless,
                "{}: round {round}: the wire changed the payload",
                fig.id
            );
            let expect = if round == 0 {
                "\"command\":\"vplot\""
            } else {
                "\"command\":\"vplot_delta\""
            };
            assert!(over_binary.contains(expect), "{}: round {round}", fig.id);
        }
    }

    drop(binary);
    drop(lines);
    direct.close();
    handle.shutdown();
    let stats = engine.join().unwrap();
    ph.shutdown();
    let wire = pump_thread.join().unwrap();
    wire.reconcile().expect("wire books balance");
    stats.reconcile().expect("engine books balance");

    let served = (figs.len() as u64) * (rounds + 1);
    assert_eq!(wire.accepted, 3, "{wire:?}");
    assert_eq!(wire.hello_binary, 2, "{wire:?}");
    assert_eq!(wire.hello_lines, 1, "{wire:?}");
    assert_eq!(wire.version_skews, 1, "{wire:?}");
    assert_eq!(wire.frames_in, 2 * served, "{wire:?}");
    assert_eq!(wire.frames_out, 2 * served, "{wire:?}");
    assert_eq!(wire.decode_errors, 0, "{wire:?}");
    // Three identical request streams: one walk per (figure, round),
    // the other two coalesce on the memo.
    assert_eq!(stats.requests, 3 * served, "{stats:?}");
    assert_eq!(stats.walks, served, "{stats:?}");
    assert_eq!(stats.coalesced, 2 * served, "{stats:?}");
}

#[test]
fn all_figures_byte_identical_across_framings_free_profile() {
    serve_profile(LatencyProfile::free(), 2);
}

#[test]
fn all_figures_byte_identical_across_framings_gdb_qemu_profile() {
    serve_profile(LatencyProfile::gdb_qemu(), 1);
}
