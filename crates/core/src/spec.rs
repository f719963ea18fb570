//! Session recipes: everything needed to (re)build an attached
//! [`Session`] from scratch, as plain `Send + Sync` data.
//!
//! `Session` itself is deliberately single-threaded (`Rc`/`RefCell`
//! tracing state), so a fleet cannot move sessions between threads — it
//! moves *specs* and rebuilds. A [`SessionSpec`] is the unit of
//! spawn/evict/respawn in `vfleet`: evicting an engine keeps its spec
//! (plus the session's journal of stops), and the next request rebuilds an
//! identical session on a fresh thread. Because `ksim` workloads are
//! seed-deterministic and `.vrec` captures replay bit-identically, two
//! sessions built from equal specs serve byte-identical graphs — which
//! is what [`SessionSpec::fingerprint`] certifies for the fleet's
//! cross-session share groups.

use std::sync::Arc;

use ksim::corpus::fnv64;
use ksim::workload::{build, WorkloadConfig};
use vbridge::{CacheConfig, Capture, LatencyProfile};

use crate::session::{Result, Session};

/// A serializable recipe for building an attached session.
#[derive(Debug, Clone)]
pub enum SessionSpec {
    /// Build a live simulated kernel image and attach to it.
    Live {
        /// The workload to build (seed-deterministic).
        workload: WorkloadConfig,
        /// Latency profile to meter under.
        profile: LatencyProfile,
        /// Snapshot block cache, if enabled.
        cache: Option<CacheConfig>,
    },
    /// Rebuild a replay session over a recorded wire capture. The
    /// capture is shared (`Arc`): respawns clone the events once per
    /// build, not once per registration.
    Replay {
        /// The `.vrec` capture to serve.
        capture: Arc<Capture>,
    },
}

impl SessionSpec {
    /// A live spec with the default cache.
    pub fn live(workload: WorkloadConfig, profile: LatencyProfile) -> SessionSpec {
        SessionSpec::Live {
            workload,
            profile,
            cache: Some(CacheConfig::default()),
        }
    }

    /// A replay spec over a recorded capture (profile and cache come
    /// from the capture header, as `Session::replay` defaults).
    pub fn replay(capture: Capture) -> SessionSpec {
        SessionSpec::Replay {
            capture: Arc::new(capture),
        }
    }

    /// Whether this spec builds a replay session (strict tape order; the
    /// fleet must never reorder its walks).
    pub fn is_replay(&self) -> bool {
        matches!(self, SessionSpec::Replay { .. })
    }

    /// Build a fresh attached session from the recipe.
    pub fn build(&self) -> Result<Session> {
        match self {
            SessionSpec::Live {
                workload,
                profile,
                cache,
            } => {
                let mut b = Session::builder(build(workload)).profile(*profile);
                if let Some(cfg) = cache {
                    b = b.cache(*cfg);
                }
                b.attach()
            }
            SessionSpec::Replay { capture } => Session::replay((**capture).clone()).attach(),
        }
    }

    /// A content fingerprint: equal fingerprints mean "these specs build
    /// sessions that serve byte-identical graphs", so the fleet may pool
    /// them into one cross-session share group. Live specs hash the
    /// workload/profile/cache configuration; replay specs hash the full
    /// capture document.
    pub fn fingerprint(&self) -> u64 {
        match self {
            SessionSpec::Live {
                workload,
                profile,
                cache,
            } => fnv64(format!("live:{workload:?}:{profile:?}:{cache:?}").as_bytes()),
            SessionSpec::Replay { capture } => fnv64(capture.to_json().as_bytes()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_fingerprints_separate_configs_and_build_sessions() {
        let a = SessionSpec::live(WorkloadConfig::default(), LatencyProfile::free());
        let b = SessionSpec::live(WorkloadConfig::default(), LatencyProfile::free());
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal specs pool");
        assert_eq!(
            a.fingerprint(),
            0x76e0_97e9_8497_77aa,
            "stable across builds"
        );
        let c = SessionSpec::live(
            WorkloadConfig {
                processes: 7,
                ..WorkloadConfig::default()
            },
            LatencyProfile::free(),
        );
        assert_ne!(
            a.fingerprint(),
            c.fingerprint(),
            "different workloads split"
        );
        assert!(!a.is_replay());

        let s = a.build().unwrap();
        let fig = crate::figures::by_id("fig3-4").unwrap();
        let (g1, _) = s.extract(fig.viewcl).unwrap();
        let (g2, _) = b.build().unwrap().extract(fig.viewcl).unwrap();
        assert_eq!(g1, g2, "equal specs build byte-identical sessions");
    }

    #[test]
    fn replay_spec_round_trips_a_capture() {
        let fig = crate::figures::by_id("fig3-4").unwrap();
        let rec = Session::builder(build(&WorkloadConfig::default()))
            .profile(LatencyProfile::free())
            .record("unused.vrec")
            .attach()
            .unwrap();
        let (live_graph, _) = rec.extract(fig.viewcl).unwrap();
        let cap = rec.capture().unwrap();

        let spec = SessionSpec::replay(cap.clone());
        assert!(spec.is_replay());
        assert_eq!(
            spec.fingerprint(),
            SessionSpec::replay(cap).fingerprint(),
            "same capture, same share group"
        );
        let (replayed, _) = spec.build().unwrap().extract(fig.viewcl).unwrap();
        assert_eq!(live_graph, replayed);
    }
}
