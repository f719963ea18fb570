//! The pane server can serve a recorded wire capture with no live
//! image: the engine thread attaches a replay session from a `.vrec`
//! capture, and clients receive plots byte-identical to the recording
//! session's — the "offline debugging" half of the backend redesign.

use std::sync::mpsc;
use std::thread;

use ksim::workload::{build, WorkloadConfig};
use vbridge::LatencyProfile;
use visualinux::proto::VCommand;
use visualinux::{figures, Session};
use vserve::{Replica, ServeConfig, Server};

/// Figures requested in this exact order on both sides: replay is a
/// strict in-order tape, and the server walks each unique source once.
const FIGS: [&str; 5] = ["fig3-4", "fig4-5", "fig7-1", "fig9-2", "workqueue"];

#[test]
fn server_serves_a_replay_capture_without_an_image() {
    // Live pass: record the five extractions in request order.
    let live = Session::builder(build(&WorkloadConfig::default()))
        .profile(LatencyProfile::kgdb_rpi400())
        .record(std::env::temp_dir().join(format!("vserve-replay-{}.vrec", std::process::id())))
        .attach()
        .unwrap();
    let mut expected = Vec::new();
    for id in FIGS {
        let fig = figures::by_id(id).unwrap();
        let (graph, _) = live.extract(fig.viewcl).unwrap();
        expected.push(
            VCommand::Vplot {
                graph,
                source: fig.viewcl.to_string(),
            }
            .to_json(),
        );
    }
    let cap = live.capture().unwrap();
    drop(live);

    // Offline pass: the engine owns a session rebuilt from the capture
    // alone (`Capture` is Send; `Session` is built inside the thread).
    let (tx, rx) = mpsc::channel();
    let engine = thread::spawn(move || {
        let session = Session::replay(cap).attach().expect("replay attach");
        assert_eq!(
            session.image().mem.mapped_pages(),
            0,
            "replay session must not hold live memory"
        );
        let mut server = Server::new(session, ServeConfig::default());
        tx.send(server.handle()).unwrap();
        server.run();
        server.stats()
    });
    let handle = rx.recv().unwrap();

    let conn = handle.connect();
    let mut replica = Replica::new();
    for (id, want) in FIGS.iter().zip(&expected) {
        let fig = figures::by_id(id).unwrap();
        conn.send(&VCommand::VplotRequest {
            viewcl: fig.viewcl.to_string(),
        })
        .expect("send");
        let reply = conn.recv().expect("reply");
        assert_eq!(&reply, want, "figure {id} diverged from the live recording");
        replica.apply_line(&reply).expect("apply");
    }
    conn.close();

    let stats = engine.join().unwrap();
    assert_eq!(stats.walks as usize, FIGS.len());
    stats.reconcile().expect("books balance");
}
