//! Delta sync across the full figure corpus: after a stop event, the
//! server ships `vplot_delta` payloads that (a) reconstruct exactly the
//! graph a fresh extraction yields and (b) are materially smaller than a
//! full re-ship for at least half of the 21 figure workloads.

use std::sync::mpsc;
use std::thread;

use ksim::workload::{build, WorkloadConfig};
use vbridge::{CacheConfig, LatencyProfile};
use visualinux::proto::VCommand;
use visualinux::{figures, Session};
use vserve::{Replica, ReplicaEvent, ServeConfig, Server};

fn attach() -> Session {
    Session::builder(build(&WorkloadConfig::default()))
        .profile(LatencyProfile::free())
        .cache(CacheConfig::default())
        .attach()
        .unwrap()
}

#[test]
fn deltas_reconstruct_and_beat_full_ships_across_the_corpus() {
    let figs = figures::all();
    let (_, _, roots) = build(&WorkloadConfig::default()).finish();

    let (tx, rx) = mpsc::channel();
    let engine = thread::spawn(move || {
        let mut server = Server::new(attach(), ServeConfig::default());
        tx.send(server.handle()).unwrap();
        server.run();
        server.stats()
    });
    let handle = rx.recv().unwrap();
    let conn = handle.connect();
    let mut replica = Replica::new();

    // Round 1: baseline full ships for every figure.
    for fig in &figs {
        conn.send(&VCommand::VplotRequest {
            viewcl: fig.viewcl.to_string(),
        })
        .unwrap();
        let ev = replica.apply_line(&conn.recv().unwrap()).unwrap();
        assert!(
            matches!(ev, ReplicaEvent::Full { .. }),
            "first ship of {} must be full",
            fig.id
        );
    }

    // The kernel runs: scheduler tick mutates vruntime/utime/state.
    let tick_roots = roots.clone();
    handle
        .stop_event(move |img| {
            ksim::tick::tick(img, &tick_roots, 1);
        })
        .unwrap();

    // Round 2: the server picks delta vs full per figure; the replica
    // follows along and acks whatever it applied.
    let mut replies = Vec::new();
    for fig in &figs {
        conn.send(&VCommand::VplotRequest {
            viewcl: fig.viewcl.to_string(),
        })
        .unwrap();
        let line = conn.recv().unwrap();
        let ev = replica.apply_line(&line).unwrap();
        let was_delta = matches!(ev, ReplicaEvent::Delta { .. });
        if let Some(ack) = replica.ack(fig.viewcl) {
            conn.send(&ack).unwrap();
            let ack_reply = conn.recv().unwrap();
            assert!(ack_reply.contains("ok"), "ack rejected: {ack_reply}");
        }
        replies.push((fig.id, fig.viewcl, line.len(), was_delta));
    }
    conn.close();
    let stats = engine.join().unwrap();
    stats.reconcile().expect("books balance");
    assert_eq!(stats.stops, 1);
    assert_eq!(stats.resyncs, 0, "all acks matched");

    // Ground truth: a private session that saw the same tick.
    let mut solo = attach();
    solo.stop_event(|img| {
        ksim::tick::tick(img, &roots, 1);
    })
    .expect("live stop");

    let mut small_deltas = 0usize;
    for (id, viewcl, wire_len, was_delta) in &replies {
        let (truth, _) = solo.extract(viewcl).expect("solo extract");
        let mirrored = replica.graph(viewcl).expect("replica has the plot");
        assert_eq!(
            mirrored.to_json(),
            truth.to_json(),
            "{id}: replaying deltas must equal a fresh extraction"
        );
        let full_len = VCommand::Vplot {
            graph: truth,
            source: viewcl.to_string(),
        }
        .to_json()
        .len();
        if *was_delta && wire_len * 2 <= full_len {
            small_deltas += 1;
        }
    }
    assert!(
        small_deltas * 2 >= figs.len(),
        "delta sync must halve the payload on at least half the corpus: \
         {small_deltas}/{} (deltas sent: {})",
        figs.len(),
        stats.deltas_sent
    );
    assert!(stats.delta_bytes_saved > 0);
}

/// Two viewers on one standalone engine, the second subscribing one stop
/// after the first. From then on both step from the record each pane
/// served in the generation before, at different sequence numbers, and
/// the engine diffs each step once for both: 21 steps a stop over three
/// stops.
#[test]
fn a_viewer_that_joins_a_stop_later_shares_every_step() {
    const STOPS: u64 = 3;
    let figs = figures::all();
    let (_, _, roots) = build(&WorkloadConfig::default()).finish();

    let (tx, rx) = mpsc::channel();
    let engine = thread::spawn(move || {
        let mut server = Server::new(attach(), ServeConfig::default());
        tx.send(server.handle()).unwrap();
        server.run();
        server.stats()
    });
    let handle = rx.recv().unwrap();
    let mut viewers = [
        (handle.connect(), Replica::new()),
        (handle.connect(), Replica::new()),
    ];
    for stop in 0..=STOPS {
        if stop > 0 {
            let roots = roots.clone();
            handle
                .stop_event(move |img| {
                    ksim::tick::tick(img, &roots, stop);
                })
                .unwrap();
        }
        let joined = if stop == 0 { 1 } else { 2 };
        for (conn, replica) in &mut viewers[..joined] {
            for fig in &figs {
                let request = VCommand::VplotRequest {
                    viewcl: fig.viewcl.to_string(),
                };
                conn.send(&request).unwrap();
                replica.apply_line(&conn.recv().unwrap()).unwrap();
                conn.send(&replica.ack(fig.viewcl).unwrap()).unwrap();
                let ack_reply = conn.recv().unwrap();
                assert!(ack_reply.contains("ok"), "ack rejected: {ack_reply}");
            }
        }
    }
    let [(first, mirror), (second, late)] = viewers;
    drop((first, second));
    let stats = engine.join().unwrap();
    stats.reconcile().expect("books balance");
    assert_eq!(stats.resyncs, 0, "all acks matched");
    assert_eq!(stats.diffs, 21 * STOPS, "{stats:?}");
    assert_eq!(
        (stats.fulls_sent, stats.deltas_sent),
        (42, 105),
        "{stats:?}"
    );
    assert_eq!(
        (stats.full_bytes_sent, stats.delta_bytes_sent),
        (457_808, 165_106),
        "{stats:?}"
    );

    // Ground truth: a private session that saw the same ticks.
    let mut solo = attach();
    for stop in 1..=STOPS {
        solo.stop_event(|img| {
            ksim::tick::tick(img, &roots, stop);
        })
        .expect("live stop");
    }
    for fig in &figs {
        let (truth, _) = solo.extract(fig.viewcl).expect("solo extract");
        for replica in [&mirror, &late] {
            let mirrored = replica.graph(fig.viewcl).expect("replica has the plot");
            assert_eq!(
                mirrored.to_json(),
                truth.to_json(),
                "{}: replaying deltas must equal a fresh extraction",
                fig.id
            );
        }
    }
}
