//! The vserve fast path for incremental sessions: an engine serving an
//! `.incremental()` session answers post-stop requests for panes the
//! stop's dirty set provably missed straight from their retained graphs
//! — the walk bill after a scheduler tick collapses versus a plain
//! cached engine serving the identical request sequence, while every
//! shipped graph stays byte-identical.

use std::sync::mpsc;
use std::thread;

use ksim::workload::{build, WorkloadConfig};
use vbridge::{CacheConfig, LatencyProfile};
use visualinux::proto::VCommand;
use visualinux::{figures, Session};
use vserve::{Replica, SendMode, ServeConfig, ServeStats, Server};

fn attach(incremental: bool) -> Session {
    let builder = Session::builder(build(&WorkloadConfig::default()))
        .profile(LatencyProfile::free())
        .cache(CacheConfig::default());
    let builder = if incremental {
        builder.incremental()
    } else {
        builder
    };
    builder.attach().unwrap()
}

/// Serve every figure for `rounds` generations (one scheduler tick
/// between each) and return the final-round graphs plus the engine's
/// books.
fn serve_rounds(incremental: bool, rounds: u64) -> (Vec<String>, ServeStats) {
    let figs = figures::all();
    let (_, _, roots) = build(&WorkloadConfig::default()).finish();

    let (tx, rx) = mpsc::channel();
    let engine = thread::spawn(move || {
        let mut server = Server::new(attach(incremental), ServeConfig::default());
        tx.send(server.handle()).unwrap();
        server.run();
        server.stats()
    });
    let handle = rx.recv().unwrap();
    let conn = handle.connect();
    let mut replica = Replica::new();

    for round in 0..rounds {
        if round > 0 {
            let roots = roots.clone();
            handle
                .stop_event(move |img| {
                    ksim::tick::tick(img, &roots, round);
                })
                .expect("stop event");
        }
        for fig in &figs {
            conn.send(
                &VCommand::VplotRequest {
                    viewcl: fig.viewcl.to_string(),
                },
                SendMode::Blocking,
            )
            .expect("send");
            replica
                .apply_line(&conn.recv().expect("reply"))
                .expect("apply");
        }
    }
    let graphs = figs
        .iter()
        .map(|fig| replica.graph(fig.viewcl).expect("mirrored").to_json())
        .collect();
    drop(conn);
    let stats = engine.join().expect("engine");
    stats.reconcile().expect("books balance");
    (graphs, stats)
}

#[test]
fn incremental_engine_collapses_the_post_stop_walk_bill() {
    let (g_plain, s_plain) = serve_rounds(false, 2);
    let (g_incr, s_incr) = serve_rounds(true, 2);
    // Byte-identical serving: every pane a client mirrors from the
    // incremental engine equals the plain engine's fresh re-walk.
    assert_eq!(g_plain, g_incr, "incremental serving drifted");

    // Both engines pay the same first-generation bill (touched-span
    // tracking reads nothing extra), so the difference is purely the
    // post-stop refresh. One tick dirties a handful of task_struct
    // bytes: the incremental engine must cut that refresh ≥ 5x.
    let (_, s_round0) = serve_rounds(false, 1);
    let post_plain = s_plain.walk_packets - s_round0.walk_packets;
    let post_incr = s_incr.walk_packets.saturating_sub(s_round0.walk_packets);
    assert!(
        post_plain >= 5 * post_incr.max(1),
        "post-stop walk packets: plain {post_plain}, incremental {post_incr} (< 5x cut)"
    );
    // The engine still walked every request (keeps are walks whose
    // refresh decision served the retained graph — not memo hits).
    assert_eq!(s_incr.plot_requests, s_plain.plot_requests);
    assert_eq!(s_incr.stops, 1);
}
