//! Pluggable target backends.
//!
//! A [`TargetBackend`] is the *wire* below [`crate::Target`]: raw span
//! reads and C-string pulls against some stopped kernel, reporting
//! faults as [`BackendError`]s. Everything above the
//! wire — latency metering, the snapshot block cache, read coalescing,
//! tracing, fault accounting — lives once in `Target` and works the same
//! over *any* backend.
//!
//! Three backends ship:
//!
//! * [`SimBackend`] — today's `ksim` memory image, behavior-identical to
//!   the pre-trait bridge;
//! * [`crate::RecordBackend`] — wraps another backend and captures every
//!   wire operation (including faults) onto a tape for later replay;
//! * [`crate::ReplayBackend`] — serves a captured tape deterministically
//!   with zero image access, erroring loudly on any out-of-capture read.

use kmem::{Mem, MemError};

use crate::profile::LatencyProfile;

/// Which kind of backend a [`Target`](crate::Target) is metering over.
///
/// Threaded through [`TargetStats`](crate::TargetStats) and vtrace spans
/// so benchmark tables and traces can say *what* they measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Live `ksim` image behind the simulated debug stub.
    #[default]
    Sim,
    /// Live backend wrapped by a wire-capture recorder.
    Record,
    /// Deterministic replay of a `.vrec` capture; no image access.
    Replay,
}

impl BackendKind {
    /// Stable lowercase name (used in captures, stats and trace labels).
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Record => "record",
            BackendKind::Replay => "replay",
        }
    }

    /// Parse the stable name back (capture deserialization).
    pub fn from_str_opt(s: &str) -> Option<Self> {
        match s {
            "sim" => Some(BackendKind::Sim),
            "record" => Some(BackendKind::Record),
            "replay" => Some(BackendKind::Replay),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A normalized set of byte ranges mutated since the previous resume:
/// sorted, non-overlapping, non-adjacent `(addr, len)` spans.
///
/// This is the currency of incremental re-extraction (`vincr`): the
/// backend reports what the target wrote between stops, the session
/// intersects it with the spans each retained pane graph touched, and
/// only intersecting panes re-walk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySet {
    ranges: Vec<(u64, u64)>,
}

impl DirtySet {
    /// Normalize raw `(addr, len)` ranges: drop empties, sort, merge
    /// overlapping and adjacent spans. Deterministic for a given range
    /// *set* regardless of input order.
    pub fn from_ranges(raw: impl IntoIterator<Item = (u64, u64)>) -> DirtySet {
        let mut ranges: Vec<(u64, u64)> = raw.into_iter().collect();
        normalize(&mut ranges);
        DirtySet { ranges }
    }

    /// The normalized spans.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// No byte is dirty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total dirty bytes.
    pub fn total_bytes(&self) -> u64 {
        self.ranges.iter().map(|&(_, len)| len).sum()
    }

    /// Whether `addr` lies in a dirty span.
    pub fn covers(&self, addr: u64) -> bool {
        let i = self.ranges.partition_point(|&(a, _)| a <= addr);
        i > 0 && {
            let (a, len) = self.ranges[i - 1];
            addr < a.saturating_add(len)
        }
    }

    /// Whether any dirty span overlaps any of `spans` (unnormalized ok).
    pub fn intersects(&self, spans: &[(u64, u64)]) -> bool {
        spans.iter().any(|&(addr, len)| {
            if len == 0 {
                return false;
            }
            let end = addr.saturating_add(len);
            // First dirty span that could start before `end`…
            let i = self.ranges.partition_point(|&(a, _)| a < end);
            // …must also end after `addr` to overlap.
            i > 0 && {
                let (a, l) = self.ranges[i - 1];
                a.saturating_add(l) > addr
            }
        })
    }
}

/// Normalize `(addr, len)` ranges in place: drop empties, sort, merge
/// overlapping and adjacent spans.
pub(crate) fn normalize(ranges: &mut Vec<(u64, u64)>) {
    ranges.retain(|&(_, len)| len > 0);
    ranges.sort_unstable();
    let mut kept = 0;
    for i in 0..ranges.len() {
        let (addr, len) = ranges[i];
        if kept > 0 {
            let last = &mut ranges[kept - 1];
            let last_end = last.0.saturating_add(last.1);
            if addr <= last_end {
                let end = addr.saturating_add(len);
                if end > last_end {
                    last.1 = end - last.0;
                }
                continue;
            }
        }
        ranges[kept] = (addr, len);
        kept += 1;
    }
    ranges.truncate(kept);
}

/// What a backend knows about mutations since the previous resume.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum DirtyInfo {
    /// The backend cannot say what changed: callers must assume every
    /// byte may have, and degrade to a full cache nuke + re-walk.
    #[default]
    Unknown,
    /// Exactly these ranges changed (and nothing else).
    Known(DirtySet),
}

impl DirtyInfo {
    /// The dirty set, when known.
    pub fn known(&self) -> Option<&DirtySet> {
        match self {
            DirtyInfo::Unknown => None,
            DirtyInfo::Known(set) => Some(set),
        }
    }
}

/// A failure reported by the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The target faulted: the access touched unmapped memory. Carries
    /// the exact faulting address so metering and diagnostics stay
    /// byte-identical across backends.
    Mem(MemError),
    /// The backend itself failed — for replay, a read that diverges from
    /// or runs past the capture. Always a loud, diagnostic error.
    Capture(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Mem(e) => write!(f, "target memory error: {e}"),
            BackendError::Capture(msg) => write!(f, "capture error: {msg}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<MemError> for BackendError {
    fn from(e: MemError) -> Self {
        BackendError::Mem(e)
    }
}

/// The wire under the metered [`Target`](crate::Target): raw reads plus
/// fault reporting and latency metadata. Object-safe so targets can be
/// composed over `Box<dyn TargetBackend>` (e.g. a recorder wrapping the
/// simulator).
pub trait TargetBackend {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// One-line description for diagnostics and trace metadata.
    fn describe(&self) -> String;

    /// Read `out.len()` bytes at `addr`, or fault.
    fn read(&self, addr: u64, out: &mut [u8]) -> Result<(), BackendError>;

    /// Read a NUL-terminated C string of at most `max` bytes at `addr`.
    /// On a fault the error carries the exact faulting address, which the
    /// metering layer charges for (chunks up to and including that byte).
    fn read_cstr(&self, addr: u64, max: usize) -> Result<String, BackendError>;

    /// The transport's native latency profile, if it has one (a replayed
    /// capture remembers the profile it was recorded under).
    fn native_profile(&self) -> Option<LatencyProfile> {
        None
    }

    /// Exchange dirty information at a resume boundary. `observed` is
    /// what the session saw on the live side (the sim image's mutation
    /// log); the return value is what the session must act on. The
    /// default — any backend without dirty support — discards the
    /// observation and reports [`DirtyInfo::Unknown`], degrading the
    /// caller to a full re-walk. Sim passes the observation through,
    /// Record additionally tapes it, Replay substitutes the taped set.
    fn resume_dirty(&self, observed: DirtyInfo) -> DirtyInfo {
        let _ = observed;
        DirtyInfo::Unknown
    }
}

/// The first backend: a live `ksim` memory image. Behavior-identical to
/// the pre-trait bridge, which read the image directly.
pub struct SimBackend<'a> {
    mem: &'a Mem,
}

impl<'a> SimBackend<'a> {
    /// Attach to a memory image.
    pub fn new(mem: &'a Mem) -> Self {
        SimBackend { mem }
    }
}

impl TargetBackend for SimBackend<'_> {
    fn kind(&self) -> BackendKind {
        BackendKind::Sim
    }

    fn describe(&self) -> String {
        "sim: live ksim image".to_string()
    }

    fn read(&self, addr: u64, out: &mut [u8]) -> Result<(), BackendError> {
        self.mem.read(addr, out).map_err(BackendError::Mem)
    }

    fn read_cstr(&self, addr: u64, max: usize) -> Result<String, BackendError> {
        self.mem.read_cstr(addr, max).map_err(BackendError::Mem)
    }

    fn resume_dirty(&self, observed: DirtyInfo) -> DirtyInfo {
        // The sim's owner observed the mutations directly; trust them.
        observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for k in [BackendKind::Sim, BackendKind::Record, BackendKind::Replay] {
            assert_eq!(BackendKind::from_str_opt(k.as_str()), Some(k));
            assert_eq!(format!("{k}"), k.as_str());
        }
        assert_eq!(BackendKind::from_str_opt("gdb"), None);
    }

    #[test]
    fn dirty_set_normalizes_and_intersects() {
        let d = DirtySet::from_ranges(vec![(0x20, 8), (0x10, 8), (0x18, 8), (0x100, 0)]);
        assert_eq!(d.ranges(), &[(0x10, 24)]);
        assert_eq!(d.total_bytes(), 24);
        assert!(d.covers(0x10));
        assert!(d.covers(0x27));
        assert!(!d.covers(0x28));
        assert!(!d.covers(0xf));
        assert!(d.intersects(&[(0x27, 1)]));
        assert!(d.intersects(&[(0x0, 0x11)]));
        assert!(!d.intersects(&[(0x28, 100)]));
        assert!(!d.intersects(&[(0x0, 0x10)]));
        assert!(!d.intersects(&[(0x27, 0)]), "empty spans never intersect");
        assert!(DirtySet::default().is_empty());
        assert!(!DirtySet::default().intersects(&[(0, u64::MAX)]));
        // Order-insensitive normalization.
        let e = DirtySet::from_ranges(vec![(0x18, 8), (0x10, 8), (0x20, 8)]);
        assert_eq!(d, e);
    }

    #[test]
    fn default_backends_report_unknown_dirty_and_sim_passes_through() {
        struct Stub;
        impl TargetBackend for Stub {
            fn kind(&self) -> BackendKind {
                BackendKind::Sim
            }
            fn describe(&self) -> String {
                "stub".into()
            }
            fn read(&self, _: u64, _: &mut [u8]) -> Result<(), BackendError> {
                unreachable!()
            }
            fn read_cstr(&self, _: u64, _: usize) -> Result<String, BackendError> {
                unreachable!()
            }
        }
        let known = DirtyInfo::Known(DirtySet::from_ranges(vec![(8, 4)]));
        assert_eq!(Stub.resume_dirty(known.clone()), DirtyInfo::Unknown);
        let mem = Mem::new();
        let sim = SimBackend::new(&mem);
        assert_eq!(sim.resume_dirty(known.clone()), known);
        assert_eq!(sim.resume_dirty(DirtyInfo::Unknown), DirtyInfo::Unknown);
    }

    #[test]
    fn sim_backend_reads_and_faults_like_the_image() {
        let mut mem = Mem::new();
        mem.map(0x1000, 4096);
        mem.write_uint(0x1000, 8, 0xabcd);
        let b = SimBackend::new(&mem);
        let mut buf = [0u8; 8];
        b.read(0x1000, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 0xabcd);
        assert!(matches!(
            b.read(0xdead_0000, &mut buf),
            Err(BackendError::Mem(MemError::Unmapped { .. }))
        ));
        assert_eq!(b.kind(), BackendKind::Sim);
    }
}
