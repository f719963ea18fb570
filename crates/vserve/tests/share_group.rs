//! A share group forgets: it indexes the records its engines' memos
//! hold and holds none itself. Two engines of one group stepped through
//! 1,000 stops keep at most two records per source alive (the current
//! and the previous generation's), the leader diffs each generation
//! step once for both, and a sibling one stop behind still hits the
//! records the leader holds as its previous generation.

use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};

use ksim::workload::{build, WorkloadConfig, WorkloadRoots};
use vbridge::LatencyProfile;
use visualinux::proto::VCommand;
use visualinux::{figures, Session};
use vserve::{Connection, ServeConfig, ServeStats, Server, ServerHandle, ShareGroup};

const FIGS: [&str; 2] = ["fig3-4", "fig7-1"];

/// One engine of `group` on its own thread, and a client of it.
struct Engine {
    handle: ServerHandle,
    conn: Connection,
    roots: WorkloadRoots,
    join: JoinHandle<ServeStats>,
}

impl Engine {
    fn spawn(group: &Arc<ShareGroup>) -> Engine {
        let group = Arc::clone(group);
        let (tx, rx) = mpsc::channel();
        let join = thread::spawn(move || {
            let session = Session::builder(build(&WorkloadConfig::default()))
                .profile(LatencyProfile::free())
                .attach()
                .unwrap();
            let roots = session.roots.clone();
            let mut server = Server::new(session, ServeConfig::default());
            server.share_extractions(group);
            tx.send((server.handle(), roots)).unwrap();
            server.run();
            server.stats()
        });
        let (handle, roots): (ServerHandle, WorkloadRoots) = rx.recv().unwrap();
        let conn = handle.connect();
        Engine {
            handle,
            conn,
            roots,
            join,
        }
    }

    /// Stop `n`: one scheduler tick, keyed by the stop number so both
    /// engines step the same generations.
    fn stop(&self, n: u64) {
        let roots = self.roots.clone();
        self.handle
            .stop_event_keyed(n, move |img| {
                ksim::tick::tick(img, &roots, n);
            })
            .unwrap();
    }

    /// Request every source and wait for the replies.
    fn round(&self) {
        for id in FIGS {
            let viewcl = figures::by_id(id).unwrap().viewcl.to_string();
            let req = VCommand::VplotRequest { viewcl };
            self.conn.send(&req).unwrap();
        }
        for _ in FIGS {
            let reply = self.conn.recv().expect("reply");
            assert!(reply.starts_with(r#"{"command":"vplot"#), "{reply:.80}");
        }
    }

    fn finish(self) -> ServeStats {
        drop(self.conn);
        let stats = self.join.join().unwrap();
        stats.reconcile().unwrap();
        stats
    }
}

#[test]
fn lockstep_engines_keep_at_most_two_records_per_source() {
    const STOPS: u64 = 1_000;
    let group = Arc::new(ShareGroup::default());
    let (leader, sibling) = (Engine::spawn(&group), Engine::spawn(&group));
    for n in 0..=STOPS {
        if n > 0 {
            leader.stop(n);
            sibling.stop(n);
        }
        leader.round();
        sibling.round();
        let records = group.records();
        assert!(
            records <= 2 * FIGS.len(),
            "stop {n}: {records} records for {} sources",
            FIGS.len()
        );
    }
    let (a, b) = (leader.finish(), sibling.finish());
    let served = FIGS.len() as u64 * (STOPS + 1);
    assert_eq!((a.walks, b.walks, b.shared_hits), (served, 0, served));
    // Every generation step of every source is diffed once, by the
    // engine that shipped it first.
    assert_eq!((a.diffs, b.diffs), (FIGS.len() as u64 * STOPS, 0));
    assert_eq!(group.records(), 0, "retired engines leave nothing behind");
    let s = group.stats();
    assert_eq!((s.hits, s.published, s.duplicates), (served, served, 0));
}

#[test]
fn a_sibling_one_stop_behind_hits_the_leaders_records() {
    const STOPS: u64 = 20;
    let group = Arc::new(ShareGroup::default());
    let (leader, sibling) = (Engine::spawn(&group), Engine::spawn(&group));
    leader.round();
    for n in 1..=STOPS {
        leader.stop(n);
        leader.round();
        // The sibling serves the generation the leader just left, whose
        // records the leader's memo still holds as its previous ones.
        if n > 1 {
            sibling.stop(n - 1);
        }
        sibling.round();
    }
    let (a, b) = (leader.finish(), sibling.finish());
    let behind = FIGS.len() as u64 * STOPS;
    assert_eq!((b.walks, b.shared_hits), (0, behind));
    assert_eq!((a.diffs, b.diffs), (FIGS.len() as u64 * STOPS, 0));
}
