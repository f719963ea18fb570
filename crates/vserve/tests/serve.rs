//! Concurrency semantics of the pane server: many clients against one
//! shared target, coalescing, backpressure, and graceful shutdown.

use std::sync::{mpsc, Arc};
use std::thread;

use ksim::workload::{build, WorkloadConfig};
use vbridge::{CacheConfig, LatencyProfile};
use visualinux::proto::{VCommand, VResponse};
use visualinux::vpanels::PaneId;
use visualinux::{figures, Session};
use vserve::{Connection, ServeConfig, ServeStats, Server, ServerHandle, ShareGroup};

fn attach() -> Session {
    Session::builder(build(&WorkloadConfig::default()))
        .profile(LatencyProfile::free())
        .cache(CacheConfig::default())
        .attach()
        .unwrap()
}

/// Spawn the engine on its own thread (the session is single-threaded by
/// design) and hand back a control handle plus the join handle that
/// yields the final stats.
fn spawn_engine(cfg: ServeConfig) -> (ServerHandle, thread::JoinHandle<ServeStats>) {
    spawn_engine_over(cfg, attach)
}

/// [`spawn_engine`] over the session `attach` builds, on a thread with
/// the default 2 MiB stack.
fn spawn_engine_over(
    cfg: ServeConfig,
    attach: fn() -> Session,
) -> (ServerHandle, thread::JoinHandle<ServeStats>) {
    let (tx, rx) = mpsc::channel();
    let join = thread::spawn(move || {
        let mut server = Server::new(attach(), cfg);
        tx.send(server.handle()).unwrap();
        server.run();
        server.stats()
    });
    (rx.recv().unwrap(), join)
}

#[test]
fn eight_clients_share_one_walk_and_get_identical_bytes() {
    let fig = figures::by_id("fig3-4").expect("figure");
    let request = VCommand::VplotRequest {
        viewcl: fig.viewcl.to_string(),
    };

    let (handle, engine) = spawn_engine(ServeConfig::default());
    // Connect everyone before spawning client threads so the idle-exit
    // engine cannot see an empty registry between early finishers.
    let conns: Vec<_> = (0..8).map(|_| handle.connect()).collect();

    let clients: Vec<_> = conns
        .into_iter()
        .map(|conn| {
            let request = request.clone();
            thread::spawn(move || {
                conn.send(&request).expect("send");
                let reply = conn.recv().expect("reply");
                conn.close();
                reply
            })
        })
        .collect();
    let replies: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let stats = engine.join().unwrap();

    // Exactly one bridge walk; the other seven coalesced on the memo.
    assert_eq!(stats.walks, 1, "{stats:?}");
    assert_eq!(stats.coalesced, 7, "{stats:?}");
    assert_eq!(stats.extractions, 8);
    assert_eq!(stats.fulls_sent, 8);
    assert_eq!(stats.requests, 8);
    stats.reconcile().expect("books balance");

    // Every client got bytes identical to what a private single-client
    // session would have extracted.
    let solo = attach();
    let (graph, _) = solo.extract(fig.viewcl).expect("solo extract");
    let expected = VCommand::Vplot {
        graph,
        source: fig.viewcl.to_string(),
    }
    .to_json();
    for (i, reply) in replies.iter().enumerate() {
        assert_eq!(reply, &expected, "client {i} diverged from solo run");
    }
}

#[test]
fn stop_events_invalidate_the_memo_in_request_order() {
    let fig = figures::by_id("fig3-4").expect("figure");
    let request = VCommand::VplotRequest {
        viewcl: fig.viewcl.to_string(),
    };
    let (_, _, roots) = build(&WorkloadConfig::default()).finish();

    let (handle, engine) = spawn_engine(ServeConfig::default());
    let conn = handle.connect();
    conn.send(&request).unwrap();
    let before = conn.recv().unwrap();
    let roots2 = roots.clone();
    handle
        .stop_event(move |img| {
            ksim::tick::tick(img, &roots2, 1);
        })
        .unwrap();
    conn.send(&request).unwrap();
    let after = conn.recv().unwrap();
    conn.close();
    let stats = engine.join().unwrap();

    assert_ne!(before, after, "the tick must be visible in the plot");
    assert_eq!(stats.stops, 1);
    assert_eq!(stats.walks, 2, "stop event must force a re-walk");
    assert_eq!(stats.coalesced, 0);
    stats.reconcile().expect("books balance");
}

/// Request `fig3-4` `per_stop` times, then stop, three times over, on
/// an engine in `share` (if any); the engine's books and journal length.
fn journal_after_three_stops(share: Option<ShareGroup>, per_stop: usize) -> (ServeStats, usize) {
    let fig = figures::by_id("fig3-4").expect("figure");
    let request = VCommand::VplotRequest {
        viewcl: fig.viewcl.to_string(),
    };
    let (tx, rx) = mpsc::channel();
    let engine = thread::spawn(move || {
        let mut server = Server::new(attach(), ServeConfig::default());
        if let Some(group) = share {
            server.share_extractions(Arc::new(group));
        }
        tx.send(server.handle()).unwrap();
        server.run();
        (server.stats(), server.into_journal().len())
    });
    let handle = rx.recv().unwrap();
    let conn = handle.connect();
    for _ in 0..3 {
        for _ in 0..per_stop {
            conn.send(&request).unwrap();
            conn.recv().unwrap();
        }
        handle.stop_event(|_| {}).unwrap();
    }
    conn.close();
    engine.join().unwrap()
}

#[test]
fn a_standalone_engine_keeps_no_journal() {
    let (stats, journaled) = journal_after_three_stops(None, 1);
    assert_eq!(stats.walks, 3, "{stats:?}");
    // Only a fleet respawns engines, and it puts them in a share group.
    assert_eq!(journaled, 0);
}

#[test]
fn a_live_share_group_engine_journals_one_op_per_stop() {
    let (stats, journaled) = journal_after_three_stops(Some(ShareGroup::default()), 4);
    assert_eq!((stats.walks, stats.coalesced), (3, 9), "{stats:?}");
    // A live session's stops rebuild it: the requests leave no trace.
    assert_eq!(journaled, 3);
}

#[test]
fn malformed_lines_are_answered_not_fatal() {
    let (handle, engine) = spawn_engine(ServeConfig::default());
    let conn = handle.connect();
    conn.send_frame("this is not json".to_string()).unwrap();
    let reply = conn.recv().expect("error reply");
    assert!(reply.contains("err"), "{reply}");

    // The server survives and keeps serving real requests.
    let fig = figures::by_id("fig3-4").unwrap();
    conn.send(&VCommand::VplotRequest {
        viewcl: fig.viewcl.to_string(),
    })
    .unwrap();
    assert!(conn.recv().expect("real reply").contains("vplot"));
    conn.close();
    let stats = engine.join().unwrap();
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.requests, 2);
    stats.reconcile().expect("books balance");
}

#[test]
fn shutdown_drains_requests_queued_by_departed_clients() {
    let fig = figures::by_id("fig3-4").expect("figure");
    let mut server = Server::new(
        attach(),
        ServeConfig {
            exit_when_idle: false,
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    let conn = handle.connect();
    for _ in 0..3 {
        conn.send(&VCommand::VplotRequest {
            viewcl: fig.viewcl.to_string(),
        })
        .expect("queued while the engine is not yet running");
    }
    // The client hangs up with its requests still queued, then the
    // server shuts down: the engine must drain and answer those
    // requests before dropping the client's stream (they used to be
    // silently lost as dropped_replies).
    conn.close();
    handle.shutdown();
    server.run();

    for i in 0..3 {
        let reply = conn.recv();
        assert!(reply.is_some(), "reply {i} was dropped during shutdown");
        let reply = reply.unwrap();
        assert!(
            reply.contains("\"command\":\"vplot"),
            "reply {i} is not a plot payload: {reply}"
        );
    }
    assert_eq!(conn.recv(), None, "stream ends after the drained replies");
    let stats = server.stats();
    assert_eq!(stats.dropped_replies, 0, "{stats:?}");
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.walks, 1);
    assert_eq!(stats.coalesced, 2);
    stats.reconcile().expect("books balance");
}

/// The reply to `cmd` on `conn`, parsed.
fn ask(conn: &Connection, cmd: &VCommand) -> VResponse {
    conn.send(cmd).unwrap();
    VResponse::from_json(&conn.recv().expect("a reply")).unwrap()
}

/// A full plot of fig3-4 answers `conn`: the engine is serving.
fn assert_served(conn: &Connection) {
    let request = VCommand::VplotRequest {
        viewcl: figures::by_id("fig3-4").unwrap().viewcl.to_string(),
    };
    conn.send(&request).unwrap();
    let plot = conn.recv().expect("a reply");
    assert!(plot.starts_with(r#"{"command":"vplot""#), "{plot:.80}");
}

#[test]
fn a_box_chain_too_deep_earns_an_error_and_a_sibling_stays_served() {
    // About 200 tasks, each linking to the next: nested that deep, the
    // walk's recursion would overflow a debug engine's 2 MiB stack.
    let (handle, engine) = spawn_engine_over(ServeConfig::default(), || {
        let cfg = WorkloadConfig {
            processes: 100,
            ..WorkloadConfig::default()
        };
        Session::builder(build(&cfg))
            .profile(LatencyProfile::free())
            .attach()
            .unwrap()
    });
    let (hostile, sibling) = (handle.connect(), handle.connect());
    let chain = VCommand::VplotRequest {
        viewcl: "define Task as Box<task_struct> [\n\
                 Text pid\n\
                 Link next -> Task<task_struct.tasks>(${@this.tasks.next})\n\
                 ]\n\
                 t = Task(${&init_task})\n\
                 plot @t"
            .to_string(),
    };
    match ask(&hostile, &chain) {
        VResponse::Err { message } => assert!(
            message.contains("box `Task` at 0x") && message.contains("deeper than 64 boxes"),
            "{message}"
        ),
        other => panic!("expected an error reply, got {other:?}"),
    }
    assert_served(&sibling);
    drop((hostile, sibling));
    let stats = engine.join().unwrap();
    stats.reconcile().unwrap();
    assert_eq!((stats.plot_requests, stats.errors, stats.walks), (2, 1, 1));
}

/// `n` pushes of an empty graph; each reply must satisfy `check`.
fn push(conn: &Connection, n: usize, mut check: impl FnMut(VResponse)) {
    let cmd = VCommand::Vplot {
        graph: vgraph::Graph::new(),
        source: String::new(),
    };
    for _ in 0..n {
        check(ask(conn, &cmd));
    }
}

#[test]
fn a_push_past_the_pane_cap_earns_an_error_and_the_engine_keeps_serving() {
    let (handle, engine) = spawn_engine(ServeConfig::default());
    let conn = handle.connect();
    let mut next = 0;
    push(&conn, 64, |reply| {
        let pane = Some(PaneId(next));
        next += 1;
        assert_eq!(
            reply,
            VResponse::Ok {
                pane,
                synthesized: None
            }
        );
    });
    push(&conn, 1, |reply| match reply {
        VResponse::Err { message } => {
            assert!(message.contains("at most 64 panes"), "{message}")
        }
        other => panic!("the 65th push: {other:?}"),
    });
    assert_served(&conn);
    drop(conn);
    let stats = engine.join().unwrap();
    stats.reconcile().unwrap();
    assert_eq!((stats.requests, stats.errors), (66, 1));
}

#[test]
fn pushes_cost_the_same_however_many_came_before() {
    const WINDOW: usize = 10_000;
    let (handle, engine) = spawn_engine(ServeConfig::default());
    let conn = handle.connect();
    let refused = |reply| assert!(matches!(reply, VResponse::Err { .. }));
    push(&conn, 64, |_| {});
    // 100,000 pushes in all. A push whose cost grew with the pushes
    // before it would make the last window cost about 19 times the
    // first.
    let timed = |n| {
        let t0 = std::time::Instant::now();
        push(&conn, n, refused);
        t0.elapsed()
    };
    let first = timed(WINDOW);
    timed(100_000 - 64 - 2 * WINDOW);
    let last = timed(WINDOW);
    assert!(
        last < 4 * first,
        "the last {WINDOW} pushes took {last:?}, the first {first:?}"
    );
    assert_served(&conn);
    drop(conn);
    let stats = engine.join().unwrap();
    stats.reconcile().unwrap();
    assert_eq!(stats.errors, 100_000 - 64);
}
