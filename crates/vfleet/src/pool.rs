//! The engine pool: session registry, spawn/evict/respawn lifecycle,
//! generation chaining, and the fleet-wide stats ledger.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use ksim::workload::WorkloadRoots;
use visualinux::SessionSpec;
use vserve::{
    Connection, ServeConfig, ServeStats, Server, ServerHandle, SessionOp, ShareGroup, ShareStats,
};

use crate::stats::FleetStats;
use crate::FleetError;

/// Fleet tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Resident-engine budget: spawning beyond it first evicts the
    /// least-recently-used idle engine. A fleet where every engine has
    /// live connections may transiently exceed the budget — routing
    /// never fails just because the LRU is busy.
    pub max_resident: usize,
    /// Per-engine serving configuration. `exit_when_idle` is forced off:
    /// fleet engines idle between clients and retire only by
    /// eviction or shutdown.
    pub serve: ServeConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            max_resident: 4,
            serve: ServeConfig::default(),
        }
    }
}

/// A resident engine: its thread plus the handles to reach it.
struct EngineRt {
    handle: ServerHandle,
    join: JoinHandle<(ServeStats, Vec<SessionOp>)>,
    /// Open fleet connections (eviction eligibility).
    conns: Arc<AtomicUsize>,
}

/// One registered session, resident or dormant.
struct SessionEntry {
    spec: Arc<SessionSpec>,
    /// The share group (all sessions with this spec fingerprint).
    group: Arc<ShareGroup>,
    /// Workload roots every tick of a live session shares (replay
    /// sessions skip stop mutations anyway).
    roots: Option<Arc<WorkloadRoots>>,
    engine: Option<EngineRt>,
    /// Current stop-generation key (hash-chained over applied ticks).
    generation: u64,
    /// The session's journal while no engine holds it: what its last
    /// engine recorded, then the ticks applied while dormant.
    journal: Vec<SessionOp>,
    /// Serving totals settled from retired incarnations.
    retired: ServeStats,
    /// LRU clock value of the last connect.
    last_used: u64,
    ever_spawned: bool,
}

struct Inner {
    cfg: FleetConfig,
    sessions: HashMap<String, SessionEntry>,
    groups: HashMap<u64, Arc<ShareGroup>>,
    clock: u64,
    spawns: u64,
    respawns: u64,
    evictions: u64,
    attaches: u64,
    routing_errors: u64,
}

/// A pool of pane-server engines, one per registered session, with
/// keyed routing, a resident budget, and cross-session extraction
/// sharing between engines whose specs fingerprint identically.
pub struct Fleet {
    inner: Mutex<Inner>,
}

/// The lease a routed connection holds on its engine: dropping it
/// releases the session for eviction (once it is the last one). A wire
/// pump carries it as the lane guard after taking the raw
/// [`Connection`] out of a [`FleetConnection`].
pub struct ConnGuard {
    conns: Arc<AtomicUsize>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A routed client connection. Dereferences to the engine-level
/// [`vserve::Connection`]; dropping it releases the session for
/// eviction (once it is the last one).
pub struct FleetConnection {
    conn: Connection,
    guard: ConnGuard,
}

impl FleetConnection {
    /// The underlying engine connection.
    pub fn connection(&self) -> &Connection {
        &self.conn
    }

    /// Split into the raw connection and the engine lease (what the
    /// fleet's [`vserve::ConnectRouter`] hands a wire pump).
    pub fn into_parts(self) -> (Connection, ConnGuard) {
        (self.conn, self.guard)
    }
}

impl std::ops::Deref for FleetConnection {
    type Target = Connection;
    fn deref(&self) -> &Connection {
        &self.conn
    }
}

/// Chain a tick argument into a stop-generation key (FNV-1a over the
/// previous key and the tick number). Engines may only share cached
/// extractions under equal keys, and equal chained keys imply identical
/// mutation histories — two sessions that ever ticked differently can
/// never alias in the share group again.
pub fn chain_generation(prev: u64, tick: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in prev.to_le_bytes().into_iter().chain(tick.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Fleet {
    /// An empty fleet.
    pub fn new(cfg: FleetConfig) -> Fleet {
        Fleet {
            inner: Mutex::new(Inner {
                cfg,
                sessions: HashMap::new(),
                groups: HashMap::new(),
                clock: 0,
                spawns: 0,
                respawns: 0,
                evictions: 0,
                attaches: 0,
                routing_errors: 0,
            }),
        }
    }

    /// Register a session under `key`. Nothing is built yet — the first
    /// connection spawns the engine.
    pub fn add_session(&self, key: &str, spec: SessionSpec) -> Result<(), FleetError> {
        let mut g = self.inner.lock().unwrap();
        if g.sessions.contains_key(key) {
            return Err(FleetError::DuplicateSession(key.to_string()));
        }
        let group = g.groups.entry(spec.fingerprint()).or_default().clone();
        let roots = match &spec {
            SessionSpec::Live { workload, .. } => {
                Some(Arc::new(ksim::workload::debug_info(workload).2))
            }
            SessionSpec::Replay { .. } => None,
        };
        g.sessions.insert(
            key.to_string(),
            SessionEntry {
                spec: Arc::new(spec),
                group,
                roots,
                engine: None,
                generation: 0,
                journal: Vec::new(),
                retired: ServeStats::default(),
                last_used: 0,
                ever_spawned: false,
            },
        );
        Ok(())
    }

    /// Registered session keys, sorted.
    pub fn session_keys(&self) -> Vec<String> {
        let g = self.inner.lock().unwrap();
        let mut keys: Vec<String> = g.sessions.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Whether `key`'s engine is currently resident.
    pub fn is_resident(&self, key: &str) -> bool {
        let g = self.inner.lock().unwrap();
        g.sessions.get(key).is_some_and(|e| e.engine.is_some())
    }

    /// Connect a client to `key`'s session, spawning (or respawning from
    /// its journal) the engine if it is dormant — possibly evicting the
    /// least-recently-used idle engine to stay under the budget.
    pub fn connect(&self, key: &str) -> Result<FleetConnection, FleetError> {
        let mut g = self.inner.lock().unwrap();
        if !g.sessions.contains_key(key) {
            return Err(FleetError::UnknownSession(key.to_string()));
        }
        g.clock += 1;
        let now = g.clock;
        if g.sessions[key].engine.is_none() {
            while g.resident_count() >= g.cfg.max_resident {
                let Some(victim) = g.lru_idle(key) else { break };
                g.evict(&victim);
            }
            g.spawn(key)?;
        }
        g.attaches += 1;
        let entry = g.sessions.get_mut(key).expect("checked above");
        entry.last_used = now;
        let rt = entry.engine.as_ref().expect("just spawned");
        rt.conns.fetch_add(1, Ordering::SeqCst);
        Ok(FleetConnection {
            conn: rt.handle.connect(),
            guard: ConnGuard {
                conns: rt.conns.clone(),
            },
        })
    }

    /// Apply tick `n` to one session: chains the generation key and
    /// queues the stop on its engine (a dormant session's journal
    /// records the stop, re-enacted on respawn).
    pub fn tick(&self, key: &str, n: u64) -> Result<(), FleetError> {
        let mut g = self.inner.lock().unwrap();
        g.tick_locked(key, n)
    }

    /// Apply tick `n` to every registered session.
    pub fn tick_all(&self, n: u64) -> Result<(), FleetError> {
        let mut g = self.inner.lock().unwrap();
        let keys: Vec<String> = g.sessions.keys().cloned().collect();
        for key in keys {
            g.tick_locked(&key, n)?;
        }
        Ok(())
    }

    /// Retire `key`'s engine if it is resident and idle (no open
    /// connections): graceful shutdown, books settled into the entry.
    /// Returns whether an engine was evicted.
    pub fn evict(&self, key: &str) -> bool {
        let mut g = self.inner.lock().unwrap();
        let idle = g
            .sessions
            .get(key)
            .and_then(|e| e.engine.as_ref())
            .is_some_and(|rt| rt.conns.load(Ordering::SeqCst) == 0);
        if idle {
            g.evict(key);
        }
        idle
    }

    /// Fleet-wide totals. Engine books cover retired incarnations only;
    /// call [`Fleet::shutdown`] first for a snapshot that reconciles.
    pub fn stats(&self) -> FleetStats {
        self.inner.lock().unwrap().stats()
    }

    /// Retire every resident engine (graceful: queued requests drain)
    /// and return the settled, reconcilable fleet totals.
    pub fn shutdown(&self) -> FleetStats {
        let mut g = self.inner.lock().unwrap();
        let keys: Vec<String> = g.sessions.keys().cloned().collect();
        for key in keys {
            if g.sessions[&key].engine.is_some() {
                g.evict_uncounted(&key);
            }
        }
        g.stats()
    }

    /// `key`'s journal while the session is dormant, in order: `None`
    /// for a stop, the source of a replay session's extraction. Empty
    /// while an engine holds it.
    pub fn journal(&self, key: &str) -> Vec<Option<Arc<str>>> {
        let g = self.inner.lock().unwrap();
        let ops = g.sessions.get(key).map_or(&[][..], |e| &e.journal);
        ops.iter()
            .map(|op| match op {
                SessionOp::Stop(_) => None,
                SessionOp::Plot(src) => Some(Arc::clone(src)),
            })
            .collect()
    }

    pub(crate) fn note_routing_error(&self) {
        self.inner.lock().unwrap().routing_errors += 1;
    }
}

impl Inner {
    fn resident_count(&self) -> usize {
        self.sessions
            .values()
            .filter(|e| e.engine.is_some())
            .count()
    }

    /// The least-recently-used resident session with no open
    /// connections, excluding `keep`.
    fn lru_idle(&self, keep: &str) -> Option<String> {
        self.sessions
            .iter()
            .filter(|(k, e)| {
                k.as_str() != keep
                    && e.engine
                        .as_ref()
                        .is_some_and(|rt| rt.conns.load(Ordering::SeqCst) == 0)
            })
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())
    }

    fn tick_locked(&mut self, key: &str, n: u64) -> Result<(), FleetError> {
        let entry = self
            .sessions
            .get_mut(key)
            .ok_or_else(|| FleetError::UnknownSession(key.to_string()))?;
        let next = chain_generation(entry.generation, n);
        let roots = entry.roots.clone();
        let mutate = move |img: &mut ksim::image::KernelImage| {
            if let Some(r) = &roots {
                ksim::tick::tick(img, r, n);
            }
        };
        match &entry.engine {
            Some(rt) => rt
                .handle
                .stop_event_keyed(next, mutate)
                .map_err(|e| FleetError::Engine(e.to_string()))?,
            None => entry.journal.push(SessionOp::Stop(Box::new(mutate))),
        }
        entry.generation = next;
        Ok(())
    }

    /// Spawn `key`'s engine on a fresh thread, handing it the session's
    /// journal so a respawn catches up on its predecessor's stops (and a
    /// replay session on its tape position) on demand. A failed spawn
    /// gives the journal back.
    fn spawn(&mut self, key: &str) -> Result<(), FleetError> {
        let entry = self.sessions.get_mut(key).expect("registered");
        let spec = entry.spec.clone();
        let group = entry.group.clone();
        let generation = entry.generation;
        let journal = std::mem::take(&mut entry.journal);
        let cfg = ServeConfig {
            exit_when_idle: false,
            ..self.cfg.serve
        };
        let (tx, rx) = mpsc::channel::<Result<ServerHandle, String>>();
        let join = std::thread::spawn(move || {
            let session = match spec.build() {
                Ok(s) => s,
                Err(e) => {
                    let _ = tx.send(Err(e.to_string()));
                    return (ServeStats::default(), journal);
                }
            };
            let mut server = Server::new(session, cfg);
            server.share_extractions(group);
            server.preload(generation, journal);
            let _ = tx.send(Ok(server.handle()));
            server.run();
            (server.stats(), server.into_journal())
        });
        match rx.recv() {
            Ok(Ok(handle)) => {
                if entry.ever_spawned {
                    self.respawns += 1;
                }
                entry.ever_spawned = true;
                self.spawns += 1;
                entry.engine = Some(EngineRt {
                    handle,
                    join,
                    conns: Arc::new(AtomicUsize::new(0)),
                });
                Ok(())
            }
            Ok(Err(msg)) => {
                if let Ok((_, journal)) = join.join() {
                    entry.journal = journal;
                }
                Err(FleetError::Spawn(msg))
            }
            Err(_) => {
                let _ = join.join();
                Err(FleetError::Spawn(
                    "engine thread died before handshake".into(),
                ))
            }
        }
    }

    fn evict(&mut self, key: &str) {
        self.evict_uncounted(key);
        self.evictions += 1;
    }

    /// Retire the engine and settle its books into the entry, taking
    /// back the session's journal (preloaded history included).
    fn evict_uncounted(&mut self, key: &str) {
        let entry = self.sessions.get_mut(key).expect("registered");
        let Some(rt) = entry.engine.take() else {
            return;
        };
        rt.handle.shutdown();
        if let Ok((stats, journal)) = rt.join.join() {
            entry.retired.absorb(&stats);
            entry.journal = journal;
        }
    }

    fn stats(&self) -> FleetStats {
        let mut engine = ServeStats::default();
        for e in self.sessions.values() {
            engine.absorb(&e.retired);
        }
        let mut cache = ShareStats::default();
        for g in self.groups.values() {
            cache.absorb(&g.stats());
        }
        FleetStats {
            sessions: self.sessions.len() as u64,
            resident: self.resident_count() as u64,
            spawns: self.spawns,
            respawns: self.respawns,
            evictions: self.evictions,
            attaches: self.attaches,
            routing_errors: self.routing_errors,
            engine,
            cache,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_chain_separates_histories() {
        let a = chain_generation(chain_generation(0, 1), 2);
        let b = chain_generation(chain_generation(0, 2), 1);
        assert_ne!(a, b, "tick order must be part of the key");
        assert_ne!(chain_generation(0, 1), chain_generation(0, 2));
    }
}
