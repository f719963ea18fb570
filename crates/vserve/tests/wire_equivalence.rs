//! Framing transparency: the binary wire is a pure encoding change.
//! Every library figure must come back *byte-identical* to two clients
//! over the length-prefixed binary framing and over a direct in-process
//! connection — full plots and deltas, under both a free and a
//! gdb-over-QEMU latency profile — because framing sits strictly below
//! the `VCommand` layer. At the door of the same live pump, a
//! version-skewed handshake fails loudly naming both versions, and a
//! newline-JSON peer is refused with one JSON error line naming the
//! hello and the version. A connection past the pump's limit is
//! refused the same way, and the admitted clients stay served.

use std::io::ErrorKind;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ksim::workload::{build, WorkloadConfig};
use vbridge::{CacheConfig, LatencyProfile};
use visualinux::proto::{VCommand, VResponse, VERSION};
use visualinux::{figures, Session};
use vserve::{
    byte_pair, Io, PumpHandle, ServeConfig, ServeStats, Server, ServerHandle, SingleSession,
    WireClient, WireConfig, WirePump, WireStats,
};

/// An engine on its own thread behind a pump configured by `cfg`.
fn start(
    profile: LatencyProfile,
    cfg: WireConfig,
) -> (
    ServerHandle,
    PumpHandle,
    JoinHandle<ServeStats>,
    JoinHandle<WireStats>,
) {
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
    let pump = WirePump::new(Box::new(SingleSession::new(handle.clone())), cfg);
    let ph = pump.handle();
    let pump_thread = thread::spawn(move || pump.run());
    (handle, ph, engine, pump_thread)
}

/// A raw lane that sends `bytes` and reads whatever comes back until the
/// pump closes it: the peer that never opens with a hello.
fn raw_exchange(ph: &PumpHandle, bytes: &[u8]) -> String {
    let (mut io, srv_io) = byte_pair(64);
    ph.add(Box::new(srv_io)).unwrap();
    let mut done = 0;
    while done < bytes.len() {
        match io.write(&bytes[done..]) {
            Ok(n) => done += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => thread::yield_now(),
            // Refused before it finished sending: read the refusal.
            Err(_) => break,
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    let (mut got, mut chunk, mut spins) = (Vec::new(), [0u8; 1024], 0);
    loop {
        match io.read(&mut chunk) {
            Ok(0) => return String::from_utf8(got).expect("a JSON line"),
            Ok(n) => got.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                assert!(Instant::now() < deadline, "the pump never closed the lane");
                io.wait_readable(&mut spins);
            }
            Err(e) => panic!("{e}"),
        }
    }
}

/// The one JSON error line a refused peer reads, as its message.
fn refusal_message(reply: &str) -> String {
    let line = reply
        .strip_suffix('\n')
        .expect("one newline-terminated line");
    assert!(!line.contains('\n'), "one line only: {reply:?}");
    match VResponse::from_json(line) {
        Ok(VResponse::Err { message }) => message,
        other => panic!("expected an error line, got {other:?}"),
    }
}

fn serve_profile(profile: LatencyProfile, rounds: u64) {
    let (handle, ph, engine, pump_thread) = start(profile, WireConfig::default());
    let connect = || {
        let (client_io, srv_io) = byte_pair(64);
        ph.add(Box::new(srv_io)).unwrap();
        WireClient::binary(Box::new(client_io)).unwrap()
    };
    let mut first = connect();
    let mut second = connect();
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

    // A newline-JSON peer is not read as another dialect: it gets one
    // JSON error line naming the hello and the version, and is closed.
    let figs = figures::all();
    let stale = VCommand::VplotRequest {
        viewcl: figs[0].viewcl.to_string(),
    };
    let reply = raw_exchange(&ph, format!("{}\n", stale.to_json()).as_bytes());
    let msg = refusal_message(&reply);
    assert!(msg.contains("VWHI hello"), "{msg}");
    assert!(msg.contains(&format!("v{VERSION}")), "{msg}");

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
            first.send(&request).unwrap();
            second.send(&request).unwrap();
            direct.send(&request).unwrap();
            let over_binary = first.recv().unwrap().expect("binary reply");
            let over_second = second.recv().unwrap().expect("second reply");
            let wireless = direct.recv().expect("direct reply");
            assert_eq!(
                over_binary, over_second,
                "{}: round {round}: two binary clients diverged",
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

    drop(first);
    drop(second);
    direct.close();
    handle.shutdown();
    let stats = engine.join().unwrap();
    ph.shutdown();
    let wire = pump_thread.join().unwrap();
    wire.reconcile().expect("wire books balance");
    stats.reconcile().expect("engine books balance");

    let served = (figs.len() as u64) * (rounds + 1);
    assert_eq!(wire.accepted, 4, "{wire:?}");
    assert_eq!(wire.hello_binary, 3, "{wire:?}");
    assert_eq!(wire.version_skews, 1, "{wire:?}");
    assert_eq!(wire.frames_in, 2 * served, "{wire:?}");
    assert_eq!(wire.frames_out, 2 * served, "{wire:?}");
    assert_eq!(wire.decode_errors, 1, "{wire:?}");
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

#[test]
fn a_connection_past_the_limit_is_refused_and_the_admitted_stay_served() {
    let cfg = WireConfig {
        max_connections: 2,
        ..WireConfig::default()
    };
    let (handle, ph, engine, pump_thread) = start(LatencyProfile::free(), cfg);
    let connect = || {
        let (client_io, srv_io) = byte_pair(64);
        ph.add(Box::new(srv_io)).unwrap();
        WireClient::binary(Box::new(client_io)).unwrap()
    };
    let mut first = connect();
    let mut second = connect();
    // Both lanes are live once their handshakes land: a third is turned
    // away at the door with one line, whatever it sends.
    let reply = raw_exchange(&ph, b"");
    let msg = refusal_message(&reply);
    assert!(msg.contains("connection limit (2) reached"), "{msg}");

    let direct = handle.connect();
    for fig in figures::all() {
        let request = VCommand::VplotRequest {
            viewcl: fig.viewcl.to_string(),
        };
        first.send(&request).unwrap();
        second.send(&request).unwrap();
        direct.send(&request).unwrap();
        let a = first.recv().unwrap().expect("first reply");
        let b = second.recv().unwrap().expect("second reply");
        let wireless = direct.recv().expect("direct reply");
        assert_eq!(a, b, "{}: the admitted clients diverged", fig.id);
        assert_eq!(a, wireless, "{}: the wire changed the payload", fig.id);
    }

    drop(first);
    drop(second);
    direct.close();
    handle.shutdown();
    let stats = engine.join().unwrap();
    ph.shutdown();
    let wire = pump_thread.join().unwrap();
    wire.reconcile().expect("wire books balance");
    stats.reconcile().expect("engine books balance");
    let figs = figures::all().len() as u64;
    assert_eq!((wire.accepted, wire.refused), (2, 1), "{wire:?}");
    assert_eq!((wire.hello_binary, wire.decode_errors), (2, 0), "{wire:?}");
    assert_eq!(
        (wire.frames_in, wire.frames_out),
        (2 * figs, 2 * figs),
        "{wire:?}"
    );
    assert_eq!(
        (stats.walks, stats.coalesced),
        (figs, 2 * figs),
        "{stats:?}"
    );
}
