//! Wire capture: the `.vrec` format and the recording backend.
//!
//! A [`RecordBackend`] wraps any other backend and writes every wire
//! operation — successful reads *and* faults, C-string pulls, dirty sets
//! and resume boundaries — onto a shared [`Recorder`] tape. The finished tape
//! serializes as a [`Capture`] (`.vrec`): a self-describing JSON document
//! carrying the capture's origin backend, latency profile, cache
//! configuration and metadata, so a [`crate::ReplayBackend`] can later
//! serve the exact same session with zero image access.
//!
//! The format is deliberately simple: events are compact JSON arrays
//! tagged by an opcode (`r`ead, `rf` read-fault, `c`str, `cf`
//! cstr-fault, `d`irty set, `z` resume), with read payloads hex-encoded
//! and addresses as plain JSON integers (the vendored parser preserves
//! full `u64` precision).

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;

use kmem::MemError;
use serde_json::{Map, Number, Value};

use crate::backend::{BackendError, BackendKind, TargetBackend};
use crate::cache::CacheConfig;
use crate::profile::LatencyProfile;

/// Current `.vrec` format version.
pub const VREC_VERSION: u64 = 1;

/// One wire operation with its observed result. Faults store the exact
/// faulting address (the only fault the simulated wire produces is an
/// unmapped access), so replay reproduces error values byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireEvent {
    /// A span read: `Ok` carries the bytes served, `Err` the fault address.
    Read {
        /// Requested address.
        addr: u64,
        /// Requested length in bytes.
        len: u64,
        /// Served bytes, or the faulting address.
        result: std::result::Result<Vec<u8>, u64>,
    },
    /// A C-string pull: `Ok` carries the string, `Err` the fault address.
    Cstr {
        /// Requested address.
        addr: u64,
        /// Maximum string length requested.
        max: u64,
        /// The string read, or the faulting address.
        result: std::result::Result<String, u64>,
    },
    /// The dirty set the live side observed at a resume boundary:
    /// normalized `(addr, len)` ranges mutated since the previous stop.
    /// Recorded immediately before the [`Resume`](Self::Resume) marker
    /// so replay reproduces incremental-refresh decisions exactly.
    Dirty {
        /// Normalized dirty ranges.
        ranges: Vec<(u64, u64)>,
    },
    /// The target resumed (snapshot epoch boundary).
    Resume,
}

impl WireEvent {
    /// Short human description (used in replay divergence diagnostics).
    pub fn describe(&self) -> String {
        match self {
            WireEvent::Read { addr, len, .. } => format!("read addr={addr:#x} len={len}"),
            WireEvent::Cstr { addr, max, .. } => format!("cstr addr={addr:#x} max={max}"),
            WireEvent::Dirty { ranges } => {
                let bytes: u64 = ranges.iter().map(|&(_, len)| len).sum();
                format!("dirty [{} ranges, {bytes} bytes]", ranges.len())
            }
            WireEvent::Resume => "resume".to_string(),
        }
    }
}

/// The shared capture tape. Owned by the session (one per recording
/// attach) and shared with each per-extraction [`RecordBackend`] via
/// `Rc`, so events accumulate across extractions and resume boundaries.
#[derive(Debug, Default)]
pub struct Recorder {
    events: RefCell<Vec<WireEvent>>,
}

impl Recorder {
    /// An empty tape.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Append one event.
    pub fn push(&self, ev: WireEvent) {
        self.events.borrow_mut().push(ev);
    }

    /// Append a resume (epoch boundary) marker.
    pub fn note_resume(&self) {
        self.push(WireEvent::Resume);
    }

    /// Number of recorded events so far.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// Snapshot the tape into a serializable [`Capture`]. The tape keeps
    /// recording; calling again later yields a longer capture.
    pub fn capture(
        &self,
        origin: BackendKind,
        profile: LatencyProfile,
        cache: Option<CacheConfig>,
        meta: Value,
    ) -> Capture {
        Capture {
            version: VREC_VERSION,
            origin,
            profile,
            cache,
            meta,
            events: self.events.borrow().clone(),
        }
    }
}

/// A backend that records every wire operation of an inner backend.
pub struct RecordBackend<'a> {
    inner: Box<dyn TargetBackend + 'a>,
    tape: Rc<Recorder>,
}

impl<'a> RecordBackend<'a> {
    /// Wrap `inner`, appending every operation to `tape`.
    pub fn new(inner: Box<dyn TargetBackend + 'a>, tape: Rc<Recorder>) -> Self {
        RecordBackend { inner, tape }
    }

    /// The kind of the wrapped backend (what the capture originates from).
    pub fn origin(&self) -> BackendKind {
        self.inner.kind()
    }
}

/// Extract the fault address from a wire error, if it is the recordable
/// kind (an unmapped access — the only fault the simulated wire emits).
fn fault_addr(e: &BackendError) -> Option<u64> {
    match e {
        BackendError::Mem(MemError::Unmapped { addr }) => Some(*addr),
        _ => None,
    }
}

impl TargetBackend for RecordBackend<'_> {
    fn kind(&self) -> BackendKind {
        BackendKind::Record
    }

    fn describe(&self) -> String {
        format!("record over {}", self.inner.describe())
    }

    fn read(&self, addr: u64, out: &mut [u8]) -> Result<(), BackendError> {
        let res = self.inner.read(addr, out);
        match &res {
            Ok(()) => self.tape.push(WireEvent::Read {
                addr,
                len: out.len() as u64,
                result: Ok(out.to_vec()),
            }),
            Err(e) => {
                if let Some(fault) = fault_addr(e) {
                    self.tape.push(WireEvent::Read {
                        addr,
                        len: out.len() as u64,
                        result: Err(fault),
                    });
                }
            }
        }
        res
    }

    fn read_cstr(&self, addr: u64, max: usize) -> Result<String, BackendError> {
        let res = self.inner.read_cstr(addr, max);
        match &res {
            Ok(s) => self.tape.push(WireEvent::Cstr {
                addr,
                max: max as u64,
                result: Ok(s.clone()),
            }),
            Err(e) => {
                if let Some(fault) = fault_addr(e) {
                    self.tape.push(WireEvent::Cstr {
                        addr,
                        max: max as u64,
                        result: Err(fault),
                    });
                }
            }
        }
        res
    }

    fn resume_dirty(&self, observed: crate::backend::DirtyInfo) -> crate::backend::DirtyInfo {
        let info = self.inner.resume_dirty(observed);
        if let crate::backend::DirtyInfo::Known(set) = &info {
            // Tape the set so replay reproduces the same refresh
            // decisions; Unknown tapes nothing, keeping non-incremental
            // captures byte-identical to the pre-dirty format.
            self.tape.push(WireEvent::Dirty {
                ranges: set.ranges().to_vec(),
            });
        }
        info
    }

    fn native_profile(&self) -> Option<LatencyProfile> {
        self.inner.native_profile()
    }
}

/// A finished wire capture: the `.vrec` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Capture {
    /// Format version ([`VREC_VERSION`]).
    pub version: u64,
    /// The backend kind the capture was recorded over.
    pub origin: BackendKind,
    /// The latency profile the recording session metered under.
    pub profile: LatencyProfile,
    /// The cache configuration of the recording session, if cached.
    pub cache: Option<CacheConfig>,
    /// Free-form metadata (workload config, per-figure manifests, …).
    pub meta: Value,
    /// The recorded wire events, in order.
    pub events: Vec<WireEvent>,
}

fn num(n: u64) -> Value {
    Value::Number(Number::from_u64(n))
}

fn hex_encode(data: &[u8]) -> String {
    let mut s = String::with_capacity(data.len() * 2);
    for b in data {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err(format!("odd-length hex payload ({} chars)", s.len()));
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in bytes.chunks(2) {
        let hi = (pair[0] as char).to_digit(16);
        let lo = (pair[1] as char).to_digit(16);
        match (hi, lo) {
            (Some(h), Some(l)) => out.push(((h << 4) | l) as u8),
            _ => return Err(format!("bad hex pair `{}`", String::from_utf8_lossy(pair))),
        }
    }
    Ok(out)
}

fn get_u64(v: &Value, key: &str, ctx: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{ctx}: missing or non-integer `{key}`"))
}

fn get_str<'v>(v: &'v Value, key: &str, ctx: &str) -> Result<&'v str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{ctx}: missing or non-string `{key}`"))
}

fn profile_to_value(p: &LatencyProfile) -> Value {
    let mut m = Map::new();
    m.insert("name".into(), Value::String(p.name.to_string()));
    m.insert("base_ns".into(), num(p.base_ns));
    m.insert("per_byte_ns".into(), num(p.per_byte_ns));
    Value::Object(m)
}

fn profile_from_value(v: &Value) -> Result<LatencyProfile, String> {
    let name = get_str(v, "name", "profile")?;
    let base_ns = get_u64(v, "base_ns", "profile")?;
    let per_byte_ns = get_u64(v, "per_byte_ns", "profile")?;
    // Profile names are `&'static str`; map back to the known transports,
    // falling back to a generic label when the numbers match none of them.
    for known in [
        LatencyProfile::gdb_qemu(),
        LatencyProfile::kgdb_rpi400(),
        LatencyProfile::free(),
    ] {
        if known.name == name && known.base_ns == base_ns && known.per_byte_ns == per_byte_ns {
            return Ok(known);
        }
    }
    Ok(LatencyProfile {
        name: "captured",
        base_ns,
        per_byte_ns,
    })
}

fn event_to_value(ev: &WireEvent) -> Value {
    let arr = match ev {
        WireEvent::Read {
            addr,
            len,
            result: Ok(data),
        } => vec![
            Value::String("r".into()),
            num(*addr),
            num(*len),
            Value::String(hex_encode(data)),
        ],
        WireEvent::Read {
            addr,
            len,
            result: Err(fault),
        } => vec![
            Value::String("rf".into()),
            num(*addr),
            num(*len),
            num(*fault),
        ],
        WireEvent::Cstr {
            addr,
            max,
            result: Ok(s),
        } => vec![
            Value::String("c".into()),
            num(*addr),
            num(*max),
            Value::String(s.clone()),
        ],
        WireEvent::Cstr {
            addr,
            max,
            result: Err(fault),
        } => vec![
            Value::String("cf".into()),
            num(*addr),
            num(*max),
            num(*fault),
        ],
        WireEvent::Dirty { ranges } => vec![
            Value::String("d".into()),
            Value::Array(
                ranges
                    .iter()
                    .map(|&(addr, len)| Value::Array(vec![num(addr), num(len)]))
                    .collect(),
            ),
        ],
        WireEvent::Resume => vec![Value::String("z".into())],
    };
    Value::Array(arr)
}

fn event_from_value(i: usize, v: &Value) -> Result<WireEvent, String> {
    let ctx = format!("event {i}");
    let arr = v.as_array().ok_or_else(|| format!("{ctx}: not an array"))?;
    let op = arr
        .first()
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{ctx}: missing opcode"))?;
    let u = |idx: usize, what: &str| -> Result<u64, String> {
        arr.get(idx)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{ctx} ({op}): missing or non-integer {what}"))
    };
    let s = |idx: usize, what: &str| -> Result<String, String> {
        arr.get(idx)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{ctx} ({op}): missing or non-string {what}"))
    };
    match op {
        "r" => Ok(WireEvent::Read {
            addr: u(1, "addr")?,
            len: u(2, "len")?,
            result: Ok(hex_decode(&s(3, "data")?).map_err(|e| format!("{ctx}: {e}"))?),
        }),
        "rf" => Ok(WireEvent::Read {
            addr: u(1, "addr")?,
            len: u(2, "len")?,
            result: Err(u(3, "fault")?),
        }),
        "c" => Ok(WireEvent::Cstr {
            addr: u(1, "addr")?,
            max: u(2, "max")?,
            result: Ok(s(3, "string")?),
        }),
        "cf" => Ok(WireEvent::Cstr {
            addr: u(1, "addr")?,
            max: u(2, "max")?,
            result: Err(u(3, "fault")?),
        }),
        "d" => {
            let ranges_v = arr
                .get(1)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{ctx} (d): missing or non-array ranges"))?;
            let mut ranges = Vec::with_capacity(ranges_v.len());
            for (j, r) in ranges_v.iter().enumerate() {
                let pair = r
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| format!("{ctx} (d): range {j} is not an [addr, len] pair"))?;
                let addr = pair[0]
                    .as_u64()
                    .ok_or_else(|| format!("{ctx} (d): range {j} has a non-integer addr"))?;
                let len = pair[1]
                    .as_u64()
                    .ok_or_else(|| format!("{ctx} (d): range {j} has a non-integer len"))?;
                ranges.push((addr, len));
            }
            Ok(WireEvent::Dirty { ranges })
        }
        "z" => Ok(WireEvent::Resume),
        other => Err(format!("{ctx}: unknown opcode `{other}`")),
    }
}

impl Capture {
    /// The corpus scenario this capture was recorded from, as stamped in
    /// the header meta: (`meta.scenario`, `meta.scenario_fingerprint`).
    /// `None` for captures not recorded from a corpus scenario.
    pub fn scenario(&self) -> Option<(&str, u64)> {
        let name = self.meta.get("scenario")?.as_str()?;
        let fp = self.meta.get("scenario_fingerprint")?.as_u64()?;
        Some((name, fp))
    }

    /// Serialize as a compact `.vrec` JSON document.
    pub fn to_json(&self) -> String {
        let mut root = Map::new();
        root.insert("version".into(), num(self.version));
        root.insert("origin".into(), Value::String(self.origin.as_str().into()));
        root.insert("profile".into(), profile_to_value(&self.profile));
        root.insert(
            "cache".into(),
            match &self.cache {
                None => Value::Null,
                Some(c) => {
                    let mut m = Map::new();
                    m.insert("block_size".into(), num(c.block_size));
                    m.insert("max_blocks".into(), num(c.max_blocks as u64));
                    m.insert("coalesce".into(), Value::Bool(c.coalesce));
                    m.insert("prefetch".into(), Value::Bool(c.prefetch));
                    Value::Object(m)
                }
            },
        );
        root.insert("meta".into(), self.meta.clone());
        root.insert(
            "events".into(),
            Value::Array(self.events.iter().map(event_to_value).collect()),
        );
        serde_json::to_string(&Value::Object(root)).expect("capture serialization is infallible")
    }

    /// Parse a `.vrec` document. Every malformation — truncated text, a
    /// missing header field, a corrupt event — comes back as a diagnostic
    /// string; this function never panics.
    pub fn from_json(text: &str) -> Result<Capture, String> {
        let root: Value =
            serde_json::from_str(text).map_err(|e| format!("capture is not valid JSON: {e}"))?;
        if root.as_object().is_none() {
            return Err("capture root is not a JSON object".to_string());
        }
        let version = get_u64(&root, "version", "capture header")?;
        if version != VREC_VERSION {
            return Err(format!(
                "unsupported capture version {version} (this build reads version {VREC_VERSION})"
            ));
        }
        let origin_name = get_str(&root, "origin", "capture header")?;
        let origin = BackendKind::from_str_opt(origin_name)
            .ok_or_else(|| format!("capture header: unknown origin backend `{origin_name}`"))?;
        let profile = profile_from_value(
            root.get("profile")
                .ok_or_else(|| "capture header: missing `profile`".to_string())?,
        )?;
        let cache =
            match root.get("cache") {
                None | Some(Value::Null) => None,
                Some(c) => {
                    let block_size = get_u64(c, "block_size", "cache config")?;
                    let max_blocks = get_u64(c, "max_blocks", "cache config")? as usize;
                    let coalesce = c.get("coalesce").and_then(Value::as_bool).ok_or_else(|| {
                        "cache config: missing or non-bool `coalesce`".to_string()
                    })?;
                    let prefetch = c.get("prefetch").and_then(Value::as_bool).ok_or_else(|| {
                        "cache config: missing or non-bool `prefetch`".to_string()
                    })?;
                    Some(CacheConfig {
                        block_size,
                        max_blocks,
                        coalesce,
                        prefetch,
                    })
                }
            };
        let meta = root.get("meta").cloned().unwrap_or(Value::Null);
        let events_v = root
            .get("events")
            .and_then(Value::as_array)
            .ok_or_else(|| "capture: missing or non-array `events`".to_string())?;
        let mut events = Vec::with_capacity(events_v.len());
        for (i, ev) in events_v.iter().enumerate() {
            events.push(event_from_value(i, ev)?);
        }
        Ok(Capture {
            version,
            origin,
            profile,
            cache,
            meta,
            events,
        })
    }

    /// Write the capture to `path` as a `.vrec` file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Read and parse a `.vrec` file.
    pub fn load(path: &Path) -> Result<Capture, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read capture {}: {e}", path.display()))?;
        Capture::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_capture() -> Capture {
        Capture {
            version: VREC_VERSION,
            origin: BackendKind::Sim,
            profile: LatencyProfile::kgdb_rpi400(),
            cache: Some(CacheConfig::default()),
            meta: Value::Null,
            events: vec![
                WireEvent::Read {
                    addr: 0xffff_8880_0123_4560,
                    len: 8,
                    result: Ok(vec![1, 2, 3, 4, 5, 6, 7, 0xff]),
                },
                WireEvent::Read {
                    addr: 0xdead_0000_0000,
                    len: 8,
                    result: Err(0xdead_0000_0000),
                },
                WireEvent::Cstr {
                    addr: 0x2000,
                    max: 16,
                    result: Ok("swapper/0".into()),
                },
                WireEvent::Cstr {
                    addr: 0x3000,
                    max: 16,
                    result: Err(0x3004),
                },
                WireEvent::Dirty {
                    ranges: vec![(0xffff_8880_0123_4560, 8), (0x5000, 4)],
                },
                WireEvent::Resume,
            ],
        }
    }

    #[test]
    fn capture_round_trips_through_json() {
        let cap = sample_capture();
        let text = cap.to_json();
        let back = Capture::from_json(&text).unwrap();
        assert_eq!(back, cap);
        // Full-width u64 addresses survive exactly.
        match &back.events[0] {
            WireEvent::Read { addr, .. } => assert_eq!(*addr, 0xffff_8880_0123_4560),
            other => panic!("wrong event {other:?}"),
        }
    }

    #[test]
    fn malformed_captures_diagnose_without_panicking() {
        for (text, needle) in [
            ("", "not valid JSON"),
            ("[]", "root is not a JSON object"),
            ("{}", "missing or non-integer `version`"),
            (r#"{"version":99}"#, "unsupported capture version 99"),
            (
                r#"{"version":1,"origin":"gdb"}"#,
                "unknown origin backend `gdb`",
            ),
            (
                r#"{"version":1,"origin":"sim","profile":{"name":"free","base_ns":0,"per_byte_ns":0},"cache":null,"meta":null,"events":[["q"]]}"#,
                "unknown opcode `q`",
            ),
            (
                r#"{"version":1,"origin":"sim","profile":{"name":"free","base_ns":0,"per_byte_ns":0},"cache":null,"meta":null,"events":[["r",1,2,"abc"]]}"#,
                "odd-length hex",
            ),
            (
                r#"{"version":1,"origin":"sim","profile":{"name":"free","base_ns":0,"per_byte_ns":0},"cache":null,"meta":null,"events":[["d"]]}"#,
                "missing or non-array ranges",
            ),
            (
                r#"{"version":1,"origin":"sim","profile":{"name":"free","base_ns":0,"per_byte_ns":0},"cache":null,"meta":null,"events":[["d",[[1]]]]}"#,
                "not an [addr, len] pair",
            ),
            (
                r#"{"version":1,"origin":"sim","profile":{"name":"free","base_ns":0,"per_byte_ns":0},"cache":null,"meta":null,"events":[["d",[[1,"x"]]]]}"#,
                "non-integer len",
            ),
        ] {
            let err = Capture::from_json(text).unwrap_err();
            assert!(err.contains(needle), "for {text:?}: got {err:?}");
        }
    }

    #[test]
    fn recorder_tapes_reads_strings_and_faults() {
        use kmem::Mem;
        let mut mem = Mem::new();
        mem.map(0x1000, 4096);
        mem.write_cstr(0x1100, "hello");
        let tape = Rc::new(Recorder::new());
        let b = RecordBackend::new(Box::new(crate::SimBackend::new(&mem)), tape.clone());
        let mut buf = [0u8; 4];
        b.read(0x1000, &mut buf).unwrap();
        assert!(b.read(0xdead_0000, &mut buf).is_err());
        assert_eq!(b.read_cstr(0x1100, 16).unwrap(), "hello");
        assert!(b.read_cstr(0xbeef_0000, 16).is_err());
        tape.note_resume();
        let cap = tape.capture(BackendKind::Sim, LatencyProfile::free(), None, Value::Null);
        assert_eq!(cap.events.len(), 5);
        assert!(matches!(
            &cap.events[1],
            WireEvent::Read { result: Err(_), .. }
        ));
        assert!(matches!(
            &cap.events[3],
            WireEvent::Cstr { result: Err(_), .. }
        ));
        assert_eq!(cap.events[4], WireEvent::Resume);
        assert_eq!(b.kind(), BackendKind::Record);
        assert!(b.describe().contains("record over"));
    }

    #[test]
    fn record_backend_tapes_known_dirty_sets_only() {
        use crate::backend::{DirtyInfo, DirtySet};
        use kmem::Mem;
        let mem = Mem::new();
        let tape = Rc::new(Recorder::new());
        let b = RecordBackend::new(Box::new(crate::SimBackend::new(&mem)), tape.clone());
        // Unknown leaves the tape untouched (pre-dirty capture shape).
        assert_eq!(b.resume_dirty(DirtyInfo::Unknown), DirtyInfo::Unknown);
        assert!(tape.is_empty());
        // Known is taped and forwarded through the sim unchanged.
        let known = DirtyInfo::Known(DirtySet::from_ranges(vec![(0x100, 8), (0x200, 4)]));
        assert_eq!(b.resume_dirty(known.clone()), known);
        tape.note_resume();
        let cap = tape.capture(BackendKind::Sim, LatencyProfile::free(), None, Value::Null);
        assert_eq!(
            cap.events,
            vec![
                WireEvent::Dirty {
                    ranges: vec![(0x100, 8), (0x200, 4)]
                },
                WireEvent::Resume,
            ]
        );
        assert!(cap.events[0].describe().contains("2 ranges, 12 bytes"));
    }

    #[test]
    fn unknown_profile_numbers_load_as_captured() {
        let text = r#"{"version":1,"origin":"sim","profile":{"name":"exotic","base_ns":123,"per_byte_ns":4},"cache":null,"meta":null,"events":[]}"#;
        let cap = Capture::from_json(text).unwrap();
        assert_eq!(cap.profile.name, "captured");
        assert_eq!(cap.profile.base_ns, 123);
        assert_eq!(cap.profile.per_byte_ns, 4);
    }
}
