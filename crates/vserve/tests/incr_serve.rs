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
use vserve::{Replica, ServeConfig, ServeStats, Server};

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

/// What the stop between two rounds does to the image.
#[derive(Clone, Copy)]
enum Stop {
    /// One scheduler tick.
    Tick,
    /// Nothing: every pane stays as it was.
    Empty,
}

/// Serve every figure for `rounds` generations (a `stop` between each)
/// and return the final-round graphs, every reply line in order, and
/// the engine's books.
fn serve_rounds(
    incremental: bool,
    rounds: u64,
    stop: Stop,
) -> (Vec<String>, Vec<String>, ServeStats) {
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
    let mut replies = Vec::new();

    for round in 0..rounds {
        if round > 0 {
            let roots = roots.clone();
            handle
                .stop_event(move |img| {
                    if let Stop::Tick = stop {
                        ksim::tick::tick(img, &roots, round);
                    }
                })
                .expect("stop event");
        }
        for fig in &figs {
            conn.send(&VCommand::VplotRequest {
                viewcl: fig.viewcl.to_string(),
            })
            .expect("send");
            let reply = conn.recv().expect("reply");
            replica.apply_line(&reply).expect("apply");
            replies.push(reply);
        }
    }
    let graphs = figs
        .iter()
        .map(|fig| replica.graph(fig.viewcl).expect("mirrored").to_json())
        .collect();
    drop(conn);
    let stats = engine.join().expect("engine");
    stats.reconcile().expect("books balance");
    (graphs, replies, stats)
}

#[test]
fn incremental_engine_collapses_the_post_stop_walk_bill() {
    let (g_plain, _, s_plain) = serve_rounds(false, 2, Stop::Tick);
    let (g_incr, _, s_incr) = serve_rounds(true, 2, Stop::Tick);
    // Byte-identical serving: every pane a client mirrors from the
    // incremental engine equals the plain engine's fresh re-walk.
    assert_eq!(g_plain, g_incr, "incremental serving drifted");

    // Both engines pay the same first-generation bill (touched-span
    // tracking reads nothing extra), so the difference is purely the
    // post-stop refresh. One tick dirties a handful of task_struct
    // bytes: the incremental engine must cut that refresh ≥ 5x.
    let (_, _, s_round0) = serve_rounds(false, 1, Stop::Tick);
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

#[test]
fn kept_panes_reuse_their_full_payload_and_every_reply_is_unchanged() {
    let (_, plain, s_plain) = serve_rounds(false, 5, Stop::Tick);
    let (_, incr, s_incr) = serve_rounds(true, 5, Stop::Tick);
    assert_eq!(plain.len(), incr.len());
    if let Some(i) = (0..plain.len()).find(|&i| plain[i] != incr[i]) {
        panic!("reply {i} differs between the plain and incremental engines");
    }
    // A full plot is encoded only when it ships. Here every full ship is
    // a source's first, of a distinct entry: 21 over 105 walks.
    let figs = figures::all().len() as u64;
    for s in [&s_plain, &s_incr] {
        assert_eq!(s.full_encodes, s.fulls_sent);
        assert_eq!(s.fulls_sent, figs);
        assert_eq!(s.walks, 5 * figs);
    }

    // After an empty stop every pane is kept: the incremental engine
    // walks each figure again but encodes none of their full plots.
    let (_, _, once) = serve_rounds(true, 1, Stop::Empty);
    let (_, _, twice) = serve_rounds(true, 2, Stop::Empty);
    assert_eq!(twice.walks - once.walks, figs);
    assert_eq!(twice.full_encodes, once.full_encodes);
}
