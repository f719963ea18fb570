//! Shared fixtures for the fleet integration tests: a recorded capture
//! of a multi-round figure corpus, and a client loop that collects the
//! graphs a fleet connection serves.

use ksim::workload::{build, WorkloadConfig};
use vbridge::{CacheConfig, Capture, LatencyProfile};
use visualinux::proto::VCommand;
use visualinux::{figures, Session};
use vserve::Replica;

/// The first `n` corpus figures' ViewCL sources.
pub fn fig_sources(n: usize) -> Vec<String> {
    figures::all()
        .iter()
        .take(n)
        .map(|f| f.viewcl.to_string())
        .collect()
}

/// Record a capture of `rounds + 1` generations over `figs`, in corpus
/// order: round 0, then (tick n, round n) for n = 1..=rounds — exactly
/// the request order a fleet client drives, so a replay engine's tape
/// lines up with its serving order.
pub fn record_capture(figs: &[String], rounds: u64) -> Capture {
    let schedule: Vec<&[String]> = (0..=rounds).map(|_| figs).collect();
    record_schedule(&schedule)
}

/// Record a capture that extracts `schedule[n]` in generation `n`, with
/// tick `n` ending generation `n - 1`.
pub fn record_schedule(schedule: &[&[String]]) -> Capture {
    let mut s = Session::builder(build(&WorkloadConfig::default()))
        .profile(LatencyProfile::free())
        .cache(CacheConfig::default())
        .record("fleet-capture.vrec") // in-memory; never flushed to disk
        .attach()
        .expect("record session");
    for (round, figs) in schedule.iter().enumerate() {
        if round > 0 {
            let roots = s.roots.clone();
            s.stop_event(|img| {
                ksim::tick::tick(img, &roots, round as u64);
            })
            .expect("live stop");
        }
        for fig in *figs {
            s.extract(fig).expect("record extract");
        }
    }
    s.capture().expect("capture")
}

/// Request every figure once on `conn` and return the served graphs (in
/// figure order), applying full ships and deltas alike through a
/// [`Replica`].
pub fn serve_round(
    conn: &vfleet::FleetConnection,
    replica: &mut Replica,
    figs: &[String],
) -> Vec<vgraph::Graph> {
    figs.iter()
        .map(|fig| {
            conn.send(&VCommand::VplotRequest {
                viewcl: fig.clone(),
            })
            .expect("send");
            let line = conn.recv().expect("reply");
            replica.apply_line(&line).expect("apply");
            replica.graph(fig).expect("replica tracks the plot").clone()
        })
        .collect()
}
