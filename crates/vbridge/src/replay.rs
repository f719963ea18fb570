//! Deterministic replay of a `.vrec` wire capture.
//!
//! A [`ReplayBackend`] serves the recorded tape strictly in order: every
//! wire operation the metering layer issues must match the next event in
//! the capture, and gets back exactly the recorded result — bytes or
//! fault. Because the layers above the backend (metering, cache,
//! prefetch, distillation) are deterministic, an identical session
//! issues an identical operation sequence, and replay reproduces graphs
//! and [`TargetStats`](crate::TargetStats) bit-for-bit with *zero* image
//! access.
//!
//! Any divergence — an operation the capture does not contain next, or a
//! read past the end of a truncated capture — is a loud
//! [`BackendError::Capture`] diagnostic naming the event position, what
//! was asked, and what the capture holds. Divergence also *poisons* the
//! state: later operations keep failing with the original diagnostic
//! rather than resyncing onto wrong data.

use std::cell::{Cell, RefCell};

use kmem::MemError;

use crate::backend::{BackendError, BackendKind, TargetBackend};
use crate::profile::LatencyProfile;
use crate::record::{Capture, WireEvent};

/// Replay cursor over a capture. Owned by the session (it outlives each
/// per-extraction [`ReplayBackend`]) so the position and poison survive
/// across extractions and resume boundaries.
#[derive(Debug)]
pub struct ReplayState {
    capture: Capture,
    pos: Cell<usize>,
    poison: RefCell<Option<String>>,
}

impl ReplayState {
    /// Start replaying `capture` from the first event.
    pub fn new(capture: Capture) -> Self {
        ReplayState {
            capture,
            pos: Cell::new(0),
            poison: RefCell::new(None),
        }
    }

    /// The capture being replayed.
    pub fn capture(&self) -> &Capture {
        &self.capture
    }

    /// Events consumed so far.
    pub fn position(&self) -> usize {
        self.pos.get()
    }

    /// Events remaining on the tape.
    pub fn remaining(&self) -> usize {
        self.capture.events.len() - self.pos.get()
    }

    /// The sticky divergence diagnostic, if replay has failed.
    pub fn poisoned(&self) -> Option<String> {
        self.poison.borrow().clone()
    }

    fn fail(&self, msg: String) -> BackendError {
        let mut poison = self.poison.borrow_mut();
        if poison.is_none() {
            *poison = Some(msg.clone());
        }
        BackendError::Capture(msg)
    }

    /// Pull the next event, requiring it to satisfy `matches` (described
    /// by `want` on divergence). The cursor only advances on a match.
    fn next_matching(
        &self,
        want: &str,
        matches: impl FnOnce(&WireEvent) -> bool,
    ) -> Result<&WireEvent, BackendError> {
        if let Some(msg) = self.poison.borrow().as_ref() {
            return Err(BackendError::Capture(msg.clone()));
        }
        let i = self.pos.get();
        match self.capture.events.get(i) {
            None => Err(self.fail(format!(
                "capture exhausted at event {i}: replay issued {want} but the \
                 capture has no more events (truncated or divergent session?)"
            ))),
            Some(ev) if matches(ev) => {
                self.pos.set(i + 1);
                Ok(ev)
            }
            Some(ev) => Err(self.fail(format!(
                "replay divergence at event {i}: session issued {want} but the \
                 capture recorded {}",
                ev.describe()
            ))),
        }
    }

    /// Consume a resume boundary (called by the session when the replayed
    /// kernel "resumes"). A mismatch poisons the state so the next read
    /// reports the divergence.
    pub fn consume_resume(&self) -> Result<(), BackendError> {
        self.next_matching("resume", |ev| matches!(ev, WireEvent::Resume))
            .map(|_| ())
    }

    /// Consume the dirty set recorded at the upcoming resume boundary,
    /// if the capture holds one. Unlike the strict read path this
    /// *peeks*: captures recorded before dirty tracking existed (or by
    /// non-incremental sessions) simply have no `Dirty` event before the
    /// `Resume` marker, and the session then degrades to a full re-walk
    /// — the same thing the recording session did.
    pub fn consume_dirty(&self) -> crate::backend::DirtyInfo {
        use crate::backend::{DirtyInfo, DirtySet};
        if self.poison.borrow().is_some() {
            return DirtyInfo::Unknown;
        }
        let i = self.pos.get();
        match self.capture.events.get(i) {
            Some(WireEvent::Dirty { ranges }) => {
                self.pos.set(i + 1);
                DirtyInfo::Known(DirtySet::from_ranges(ranges.iter().copied()))
            }
            _ => DirtyInfo::Unknown,
        }
    }

    /// Advance the cursor over `n` events without serving them — used
    /// when an identical sibling session already walked this span and
    /// published both the result and the span bounds, so re-reading the
    /// tape would only reproduce bytes the caller already holds. Fails
    /// (without advancing) if the state is poisoned or the tape is too
    /// short.
    pub fn skip_events(&self, n: usize) -> Result<(), BackendError> {
        if let Some(msg) = self.poison.borrow().as_ref() {
            return Err(BackendError::Capture(msg.clone()));
        }
        let i = self.pos.get();
        if i + n > self.capture.events.len() {
            return Err(self.fail(format!(
                "cannot skip {n} events at position {i}: the capture holds \
                 only {} (truncated or divergent span bounds?)",
                self.capture.events.len()
            )));
        }
        self.pos.set(i + n);
        Ok(())
    }
}

/// A backend serving a recorded capture in strict order.
pub struct ReplayBackend<'a> {
    state: &'a ReplayState,
}

impl<'a> ReplayBackend<'a> {
    /// Serve from `state`'s cursor.
    pub fn new(state: &'a ReplayState) -> Self {
        ReplayBackend { state }
    }
}

impl TargetBackend for ReplayBackend<'_> {
    fn kind(&self) -> BackendKind {
        BackendKind::Replay
    }

    fn read(&self, addr: u64, out: &mut [u8]) -> Result<(), BackendError> {
        let want = format!("read addr={addr:#x} len={}", out.len());
        let ev = self.state.next_matching(&want, |ev| {
            matches!(ev, WireEvent::Read { addr: a, len, .. }
                     if *a == addr && *len == out.len() as u64)
        })?;
        match ev {
            WireEvent::Read {
                result: Ok(data), ..
            } => {
                out.copy_from_slice(data);
                Ok(())
            }
            WireEvent::Read {
                result: Err(fault), ..
            } => Err(BackendError::Mem(MemError::Unmapped { addr: *fault })),
            _ => unreachable!("next_matching returned a non-read event"),
        }
    }

    fn read_cstr(&self, addr: u64, max: usize) -> Result<String, BackendError> {
        let want = format!("cstr addr={addr:#x} max={max}");
        let ev = self.state.next_matching(&want, |ev| {
            matches!(ev, WireEvent::Cstr { addr: a, max: m, .. }
                     if *a == addr && *m == max as u64)
        })?;
        match ev {
            WireEvent::Cstr { result: Ok(s), .. } => Ok(s.clone()),
            WireEvent::Cstr {
                result: Err(fault), ..
            } => Err(BackendError::Mem(MemError::Unmapped { addr: *fault })),
            _ => unreachable!("next_matching returned a non-cstr event"),
        }
    }

    fn resume_dirty(&self, _observed: crate::backend::DirtyInfo) -> crate::backend::DirtyInfo {
        // Replay has no live image to observe; the tape is the truth.
        self.state.consume_dirty()
    }

    fn native_profile(&self) -> Option<LatencyProfile> {
        Some(self.state.capture.profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::VREC_VERSION;
    use serde_json::Value;

    fn tape(events: Vec<WireEvent>) -> ReplayState {
        ReplayState::new(Capture {
            version: VREC_VERSION,
            origin: BackendKind::Sim,
            profile: LatencyProfile::free(),
            cache: None,
            meta: Value::Null,
            events,
        })
    }

    #[test]
    fn replay_serves_recorded_results_in_order() {
        let st = tape(vec![
            WireEvent::Read {
                addr: 0x1000,
                len: 4,
                result: Ok(vec![1, 2, 3, 4]),
            },
            WireEvent::Cstr {
                addr: 0x2000,
                max: 8,
                result: Ok("ok".into()),
            },
            WireEvent::Resume,
            WireEvent::Read {
                addr: 0x3000,
                len: 2,
                result: Err(0x3000),
            },
        ]);
        let b = ReplayBackend::new(&st);
        let mut buf = [0u8; 4];
        b.read(0x1000, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(b.read_cstr(0x2000, 8).unwrap(), "ok");
        st.consume_resume().unwrap();
        let mut buf2 = [0u8; 2];
        assert!(matches!(
            b.read(0x3000, &mut buf2),
            Err(BackendError::Mem(MemError::Unmapped { addr: 0x3000 }))
        ));
        assert_eq!(st.remaining(), 0);
        assert!(st.poisoned().is_none());
    }

    #[test]
    fn divergent_read_errors_loudly_and_poisons() {
        let st = tape(vec![WireEvent::Read {
            addr: 0x1000,
            len: 4,
            result: Ok(vec![0; 4]),
        }]);
        let b = ReplayBackend::new(&st);
        let mut buf = [0u8; 8];
        let err = b.read(0x9999, &mut buf).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("divergence at event 0"), "{msg}");
        assert!(msg.contains("0x9999"), "{msg}");
        assert!(msg.contains("0x1000"), "{msg}");
        // Poisoned: even the originally-recorded operation now fails.
        let mut ok_buf = [0u8; 4];
        let err2 = b.read(0x1000, &mut ok_buf).unwrap_err();
        assert_eq!(format!("{err2}"), msg);
        assert!(st.poisoned().is_some());
    }

    #[test]
    fn exhausted_capture_diagnoses_truncation() {
        let st = tape(vec![]);
        let b = ReplayBackend::new(&st);
        let err = b.read_cstr(0x4000, 16).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("exhausted at event 0"), "{msg}");
        assert!(msg.contains("truncated"), "{msg}");
    }

    #[test]
    fn consume_dirty_peeks_and_tolerates_dirty_free_captures() {
        use crate::backend::{DirtyInfo, DirtySet};
        // A capture with a taped dirty set before the resume marker.
        let st = tape(vec![
            WireEvent::Dirty {
                ranges: vec![(0x2000, 8), (0x1000, 4)],
            },
            WireEvent::Resume,
        ]);
        let b = ReplayBackend::new(&st);
        assert_eq!(
            b.resume_dirty(DirtyInfo::Unknown),
            DirtyInfo::Known(DirtySet::from_ranges(vec![(0x1000, 4), (0x2000, 8)]))
        );
        st.consume_resume().unwrap();
        assert_eq!(st.remaining(), 0);

        // A pre-dirty capture: the peek finds the resume marker instead,
        // reports Unknown, and does NOT advance the cursor.
        let st = tape(vec![WireEvent::Resume]);
        assert_eq!(st.consume_dirty(), DirtyInfo::Unknown);
        assert_eq!(st.position(), 0);
        st.consume_resume().unwrap();
    }

    #[test]
    fn resume_mismatch_poisons_later_reads() {
        let st = tape(vec![WireEvent::Read {
            addr: 0x1,
            len: 1,
            result: Err(0x1),
        }]);
        assert!(st.consume_resume().is_err());
        let b = ReplayBackend::new(&st);
        assert!(matches!(
            b.read(0x1, &mut [0u8; 1]),
            Err(BackendError::Capture(_))
        ));
    }

    #[test]
    fn native_profile_comes_from_the_capture_header() {
        let st = tape(vec![]);
        let b = ReplayBackend::new(&st);
        assert_eq!(b.native_profile(), Some(LatencyProfile::free()));
        assert_eq!(b.kind(), BackendKind::Replay);
    }
}
