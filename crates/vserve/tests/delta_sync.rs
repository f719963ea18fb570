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
use vserve::{Replica, ReplicaEvent, SendMode, ServeConfig, Server};

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
        conn.send(
            &VCommand::VplotRequest {
                viewcl: fig.viewcl.to_string(),
            },
            SendMode::Blocking,
        )
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
        conn.send(
            &VCommand::VplotRequest {
                viewcl: fig.viewcl.to_string(),
            },
            SendMode::Blocking,
        )
        .unwrap();
        let line = conn.recv().unwrap();
        let ev = replica.apply_line(&line).unwrap();
        let was_delta = matches!(ev, ReplicaEvent::Delta { .. });
        if let Some(ack) = replica.ack(fig.viewcl) {
            conn.send(&ack, SendMode::Blocking).unwrap();
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
